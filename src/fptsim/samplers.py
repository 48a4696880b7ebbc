"""Exact rejection samplers for the first-passage time of a unit diffusion.

Each sampler proposes a candidate time T from a Brownian-type law and accepts
it when a Poisson point process on [0, T] x [0, kappa] puts no point below
the intensity field gamma(L - R_t) evaluated along a pinned bridge functional.
Acceptance happens with probability exp(-int_0^T gamma(L - R_t) dt), which is
exactly the Girsanov weight tying the diffusion's hitting time to the
Brownian one, so accepted proposals carry the target law without any
discretization error.

``sample`` and ``sample_batch`` are the only entry points; the variant is
data, selected by ``SamplerConfig.variant`` and resolved once per call
through a table of scan order, proposal law, floor and lift.  Two
mechanizations of the same point process are provided: time-ordered
scanning (``a1``) and height-ordered scanning with a lazily refined bridge
skeleton (``a2``, the retrospective scan of Beskos, Papaspiliopoulos &
Roberts 2006).  On top of those sit the variance reducers and extensions:

* ``a1`` / ``a2`` need 0 <= gamma <= kappa on (-inf, L];
* ``a1-shift`` / ``a2-shift``: subtract a positive floor gamma0 <= gamma
  from the field and compensate with an inverse-Gaussian proposal; the
  expected iteration count drops by the factor exp(-(L-x) sqrt(2 gamma0));
* space splitting (``split_k``): chain k independent sub-level passages,
  slices in turn on the draw's stream;
* ``a3``: conditional sampling of tau given tau <= t0, tolerating
  gamma >= -m by lifting the field by m*t0/T, non-negative for every
  admissible proposal T <= t0;
* rho-truncation (``rho``): run any variant but ``a3`` against the drift
  frozen below -rho (the certificate must hold for the truncated model);
  the Kolmogorov distance from the true law is at most
  2 (p(L)-p(x)) / (p(L)-p(-rho)).

Which kernel runs what: ``sample`` always runs the scalar kernels, one
Python loop per Poisson point, and accepts any object with RandomStream's
draw methods.  ``sample_batch`` runs every variant, both scan orders, on
the lane kernel: numpy arrays that advance many draws, one per lane, by
one Poisson point per step.  The time-ordered step tests every point on
lanes.  The height-ordered step tests only the first point of each
iteration, whose bridge value lies between the pins; the rare iteration
that goes on past it runs on the scalar kernel over the lane's own draws.

The lane kernel reads the same substreams in the same order with the same
arithmetic, so the determinism contract is one for both: draw i of a batch
is ``sample`` on substream ``start + i``, bit for bit.  That holds whatever
the batch size, partition or lane width, whichever pooled generator (see
``rng``) a stream or lane happens to draw with, and whatever other thread
samples meanwhile.  A batch of n draws starts on min(n, _LANE_WIDTH) lanes;
a lane runs its draw's slices in turn on the draw's stream, and after the
last one takes the next queued draw.  The width is a module constant, 1024
lanes (~25 MB of lane buffers), not an option.  Batches too small to fill
_LANE_MIN lanes, and the last few draws of a batch, run on the scalar
kernel, which stays the reference the lane kernel is tested against.  Every
hand-off from lanes to scalar code reads the lane's draws through
``LaneStreams.lane``.

Cost accounting follows the elementary random variates: ``N_i`` counts the
scalar draws consumed by iteration i's thinning scan (a 3-d Gaussian counts
as three, each exponential and uniform as one), the proposals are counted
once each through the iteration count, and the headline cost figure is
``N_sigma = I + sum_i N_i``.
"""

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .bridge import BridgeSkeleton, bisect_insert, off_knots
from .drift import (BoundCertificate, DriftModel, GammaField, gamma_fn,
                    truncate_drift)
from .errors import BudgetError, ConfigError, FptsimError, ModelError, NumericError
from .rng import (EXPONENTIAL, NORMAL, UNIFORM, LaneStreams, RandomStream,
                  _brownian_fpt_lanes, _brownian_fpt_value,
                  _inverse_gaussian_lanes, _inverse_gaussian_value,
                  _truncated_brownian_fpt_lanes, _truncated_brownian_fpt_value)

# tolerated floating noise before a field value counts as a certificate breach
_FIELD_NEG_TOL = 1e-12
_FIELD_POS_TOL = 1e-9


@dataclass(frozen=True)
class RunStats:
    """Cost counters of one accepted draw: I, (N_1..N_I), N_sigma = I + sum N_i.

    N_i is the number of elementary random variates iteration i's thinning
    scan consumed; the I term accounts for the proposals, one per iteration.
    """

    iterations: int
    points_per_iteration: tuple
    total_points: int = field(init=False)

    def __post_init__(self):
        if self.iterations < 1 or len(self.points_per_iteration) != self.iterations:
            raise NumericError("iteration count and per-iteration point list disagree")
        object.__setattr__(self, "total_points",
                           self.iterations + sum(self.points_per_iteration))


@dataclass(frozen=True)
class FptDraw:
    value: float
    stats: RunStats

    def __post_init__(self):
        if not self.value > 0.0:
            raise NumericError(f"sampled time must be positive, got {self.value}")


@dataclass(frozen=True)
class SamplerConfig:
    """Everything one draw needs: problem geometry, model, bounds, variant knobs."""

    x: float
    L: float
    model: DriftModel
    cert: BoundCertificate
    variant: str = "a1"
    split_k: int = 1
    t0: Optional[float] = None
    rho: Optional[float] = None
    max_iterations: int = 10**8

    @property
    def gap(self):
        return self.L - self.x


def validate_config(config):
    if not -math.inf < config.x < config.L < math.inf:
        raise ConfigError(f"level L={config.L} must exceed the start x={config.x}, "
                          "and both must be finite")
    variant = _VARIANTS.get(config.variant)
    if variant is None:
        raise ConfigError(f"unknown variant {config.variant!r}; choose from {VARIANTS}")
    for name in ("split_k", "max_iterations"):
        if not isinstance(getattr(config, name), Integral):
            raise ConfigError(f"{name} must be an integer, got {getattr(config, name)!r}")
    if config.split_k < 1:
        raise ConfigError(f"split_k must be >= 1, got {config.split_k}")
    if config.max_iterations < 1:
        raise ConfigError("max_iterations must be >= 1")
    if variant.shifted and not config.cert.gamma0 > 0.0:
        raise ConfigError("shift variants need a certificate with gamma0 > 0")
    if variant.lifted:
        if config.t0 is None or not 0.0 < config.t0 < math.inf:
            raise ConfigError(f"variant a3 needs a finite horizon t0 > 0, got {config.t0}")
        if config.split_k != 1:
            raise ConfigError("space splitting does not apply to the conditional sampler")
        if config.rho is not None:
            raise ConfigError("rho truncation does not combine with the conditional sampler")
    else:
        if config.t0 is not None:
            raise ConfigError("t0 only applies to variant a3")
        if config.cert.m != 0.0:
            raise ConfigError("negative gamma (m > 0) is only allowed with variant a3")
    if config.rho is not None and not config.rho > 0.0:
        raise ConfigError(f"rho must be positive, got {config.rho}")


# ---------------------------------------------------------------------------
# thinning engines
# ---------------------------------------------------------------------------


def _point_field(gamma, y, shift, lift, ceiling):
    """The thinning field f = gamma(y) - shift + lift at one Poisson point.

    Every scalar thinning test reads its field from here.  A field outside
    [0, ceiling], up to the breach pads, means the bound certificate does not
    hold along the sampled path and raises; a NaN field does too.
    """
    f = gamma(y) - shift + lift
    if not -_FIELD_NEG_TOL <= f <= ceiling + _FIELD_POS_TOL:  # False on NaN too
        raise ModelError(
            f"thinning field {f:.6g} escapes [0, {ceiling:.6g}]; "
            "the bound certificate does not hold along the sampled path")
    return f


def _thin_time_ordered(stream, T, gap, level, gamma, ceiling, shift, lift):
    """Scan Poisson points by increasing time; returns (accepted, variates_consumed).

    Each tested point costs five scalars (the 3-d bridge Gaussian, the next
    exponential time increment, the uniform height); the initial exponential
    costs one more.  A zero ceiling means an empty thinning domain: accept
    outright without consuming randomness.
    """
    if ceiling <= 0.0:
        return True, 0
    mean = 1.0 / ceiling
    t_prev = 0.0
    bx = by = bz = 0.0
    t = stream.exponential(mean)
    n = 1
    while t <= T:
        n += 5
        g1, g2, g3 = stream.normal3()
        v = stream.uniform()
        a = (T - t) / (T - t_prev)
        s = math.sqrt((T - t) * (t - t_prev) / (T - t_prev))
        bx = a * bx + s * g1
        by = a * by + s * g2
        bz = a * bz + s * g3
        rx = t * gap / T + bx
        r = math.sqrt(rx * rx + by * by + bz * bz)
        if ceiling * v <= _point_field(gamma, level - r, shift, lift, ceiling):
            return False, n
        t_prev = t
        t += stream.exponential(mean)
    return True, n


def _thin_height_ordered(stream, T, gap, level, gamma, ceiling, shift, lift):
    """Scan Poisson points by increasing height, refining a bridge skeleton.

    Structured like the time-ordered scan: the first exponential height is
    drawn up front (one scalar), then ``_climb`` tests the points.
    """
    if ceiling <= 0.0:
        return True, 0
    height = stream.exponential(1.0 / T)
    return _climb(stream, BridgeSkeleton(T, gap), height, 1, level, gamma, ceiling, shift, lift)


def _climb(stream, skel, height, n, level, gamma, ceiling, shift, lift):
    """The height-ordered scan from a point at ``height`` on, n scalars spent.

    Each tested point costs a five-scalar bundle (uniform position, 3-d
    bridge Gaussian, next height increment); returns (accepted, n).  The
    height-ordered lanes enter here after an iteration's first point, with
    its knot in ``skel``.
    """
    T = skel.horizon
    gap = skel.drift_gap
    mean = 1.0 / T
    while height <= ceiling:
        n += 5
        u = stream.uniform(T)
        value = bisect_insert(skel, u, stream) if u > 0.0 else skel.values[0]
        e_next = stream.exponential(mean)
        rx = u * gap / T + value[0]
        r = math.sqrt(rx * rx + value[1] * value[1] + value[2] * value[2])
        if height <= _point_field(gamma, level - r, shift, lift, ceiling):
            return False, n
        height += e_next
    return True, n


# ---------------------------------------------------------------------------
# lane kernel: the rejection loops of many draws at once
# ---------------------------------------------------------------------------

# most lanes advanced together, each with 3 buffer rows of 1032 floats (~25 MB
# at full width).  A numpy step's cost grows far slower than its lane count,
# and a wide batch needs fewer steps: a 3000-draw sine a2 batch takes 1340
# lane steps at this width, 5578 at 128
_LANE_WIDTH = 1024
# with fewer live lanes than this a numpy step costs more than scalar scans
_LANE_MIN = 16
# a decision within this much of the numpy field (times max(1, ceiling)) is
# redone on the scalar gamma; numpy's and libm's transcendentals differ by
# an ulp or so, hundreds of times less.  It stays below the breach pads, so
# a field of exactly 0 or exactly the ceiling is not redone at every point
_RECHECK_TOL = 1e-13


def _bessel(drift, value):
    """``||(drift + value[0], value[1], value[2])||`` on lanes, summed as the
    scalar kernels sum it; value stacks the three components on axis 0."""
    rx = drift + value[0]
    return np.sqrt(rx * rx + value[1] * value[1] + value[2] * value[2])


class _Lanes:
    """The rejection loops of a batch, one numpy lane per draw.

    Lane j runs draw ``key[j]``, now in its slice ``part[j]``, and runs the
    draw's slices in turn on the draw's substream, as the scalar path does;
    the Philox key of every draw's substream is derived up front.  Every
    step tests one Poisson point on every lane; a subclass supplies the step
    of its scan order (``_step``) and the scan state it keeps
    (``_init_scan``, ``_reset`` on a new proposal, ``_arrive`` for its first
    point).  A rejected lane draws its next proposal and first arrival in
    the same step; a lane whose slice accepts adds the passage to its
    draw's value and goes on to the next slice, with a fresh iteration
    budget, or after the last slice takes the next queued draw.  The
    arithmetic is the scalar kernel's, operation for operation, and where
    numpy's field lies within _RECHECK_TOL of a thinning or breach decision
    the lane takes the field from the scalar ``gamma`` instead, so each lane
    yields the scalar draw bit for bit.

    Scalar code reads a lane's draws through ``LaneStreams.lane``: once the
    queue is empty and fewer than _LANE_MIN lanes are live, each remaining
    draw finishes on the scalar kernel (``_run_slices``), its current slice
    from its next proposal on and then its later slices.  A draw that fails
    (field breach, budget) raises at once; ``sample_batch`` then reruns the
    batch on the scalar kernel, which raises the error met first in draw
    order.
    """

    def __init__(self, plan, n, stream, start):
        self.plan = plan
        self.k = len(plan.slices)
        self.n = n
        self.next_draw = m = min(_LANE_WIDTH, n)
        self.value = np.zeros(n)             # each draw's sum of accepted passages
        self.log_keys = []                   # per iteration: its draw and the
        self.log_tested = []                 # number of points it tested
        self.lifted = plan.lift_mass != 0.0
        self.slice_params = [np.array(p) for p in zip(*(part.params for part in plan.slices))]
        self.slice_gap = np.array([part.gap for part in plan.slices])
        self.slice_level = np.array([part.level for part in plan.slices])
        # the key of every draw's substream, in draw order
        self.stream_keys = stream.substream_keys(start + np.arange(n))
        self.key = np.arange(m, dtype=np.int32)     # the draw each lane runs
        self.part = np.zeros(m, dtype=np.int32)     # and its slice
        self.rng = LaneStreams(self.stream_keys[:m])
        self.gap = self.slice_gap[self.part]
        self.level = self.slice_level[self.part]
        self.T = np.ones(m)
        self.start = np.zeros(m, dtype=np.int32)   # step of the iteration's first test
        self.rejections = np.zeros(m, dtype=np.intp)
        self.state = ["key", "part", "gap", "level", "T", "start", "rejections"]
        if self.lifted:
            self.lift = np.zeros(m)
            self.ceiling = np.ones(m)
            self.tol = np.ones(m)
            self.state += ["lift", "ceiling", "tol"]
        else:
            self.ceiling = plan.ceiling
            self.tol = _RECHECK_TOL * max(1.0, plan.ceiling)
        self._init_scan(m)
        self.live = np.ones(m, dtype=bool)
        self.dead = 0

    def run(self):
        self._restart(np.ones(len(self.key), dtype=bool), -1)
        step = 0
        while True:
            if self.dead:
                self._compact()
            if not len(self.key):
                break
            self._step(step)
            step += 1
        self.rng = None  # free the lane rows before the result is built
        return self._result()

    def _thin(self, y, threshold, tested=None):
        """The thinning test ``threshold <= f`` of every lane, f the field at y.

        Raises on a field breach, NaN included.  A lane whose test or breach
        check lies within ``tol`` of numpy's f takes f from the scalar
        ``gamma`` first, so every decision is the scalar kernel's.  Where the
        mask ``tested`` is False the point is not tested: no recheck, no
        breach, and a result to ignore.  y may stack several points per lane
        (lanes on the last axis) where the ceiling is one for all lanes.
        """
        plan = self.plan
        f = plan.field(y)
        if plan.shift:
            f -= plan.shift
        if self.lifted:
            f += self.lift
        margin = np.minimum(np.abs(threshold - f),
                            np.minimum(f + _FIELD_NEG_TOL, self.ceiling + _FIELD_POS_TOL - f))
        clear = margin > self.tol  # False on a NaN field too
        if tested is not None:
            clear |= ~tested
        if np.count_nonzero(clear) < clear.size:
            self._recheck(f.reshape(-1), y.reshape(-1), np.flatnonzero(~clear))
        return threshold <= f

    def _thin_at(self, t, value, threshold):
        """``_thin`` at the bridge point (t, value) of every lane, value (3, lanes):
        the Bessel functional there, then the field at level minus it."""
        return self._thin(self.level - _bessel(t * self.gap / self.T, value), threshold)

    def _recheck(self, f, y, lanes):
        """f on the listed lanes as the scalar kernel computes it; raises on a breach."""
        plan = self.plan
        for j in lanes.tolist():
            f[j] = _point_field(plan.gamma, float(y[j]), plan.shift, *self._bounds(j))

    def _bounds(self, j):
        """Lane j's lift and ceiling, as the scalar kernel takes them."""
        if self.lifted:
            return float(self.lift[j]), float(self.ceiling[j])
        return 0.0, self.ceiling

    def _reject(self, rejected, s):
        """End the iteration on each lane ``rejected`` marks.

        Returns the mask of lanes given a fresh proposal, whose first
        arrival the caller draws, or None when there are none.
        """
        self.rejections += rejected
        lanes = rejected.nonzero()[0]
        if not lanes.size:
            return None
        self._log(lanes, s)
        limit = self.plan.max_iterations
        if s + 1 >= limit and (self.rejections[lanes] >= limit).any():
            raise BudgetError(f"no acceptance within {limit} iterations")
        if self._handing_off():
            for j in lanes:
                self._finish_scalar(j)
            return None
        self._propose(rejected, s)
        return rejected

    def _handing_off(self):
        """Whether the last draws go to the scalar kernel: none queued, under _LANE_MIN lanes."""
        return self.next_draw >= self.n and len(self.key) < _LANE_MIN

    def _propose(self, which, s):
        """A fresh proposal on each lane ``which`` marks; ``_arrive`` draws its first arrival."""
        plan = self.plan
        if self.k == 1:
            params = plan.slices[0].params
        else:
            params = [p[self.part] for p in self.slice_params]
        T = plan.proposal.lanes(self.rng, which, *params)
        np.copyto(self.T, T, where=which)
        if self.lifted:
            lift = plan.lift_mass / T
            ceiling = plan.ceiling + lift
            np.copyto(self.lift, lift, where=which)
            np.copyto(self.ceiling, ceiling, where=which)
            np.copyto(self.tol, _RECHECK_TOL * np.maximum(1.0, ceiling), where=which)
        np.copyto(self.start, s + 1, where=which)
        self._reset(which)

    def _restart(self, which, s):
        """Propose and draw the first arrival where ``which`` marks, until none accepts outright."""
        while which is not None:
            self._propose(which, s)
            accepted = (which & self._arrive(which)).nonzero()[0]
            which = self._accept(accepted, s) if accepted.size else None

    def _accept(self, lanes, s):
        """Close the accepted slices on the listed lanes; marks the lanes that start a new one.

        A draw's next slice runs on the same lane and stream, on the scalar
        kernel once the lanes hand off; after its last slice the lane takes
        the next queued draw and that draw's stream.
        """
        lanes = self._alive(lanes)
        if not lanes.size:
            return None
        self._close(lanes, s)
        fresh = np.zeros(len(self.key), dtype=bool)
        handing_off = self._handing_off()
        for j in lanes.tolist():
            part = int(self.part[j]) + 1
            if part == self.k:
                if self.next_draw >= self.n:
                    self._kill(j)
                    continue
                part = 0
                self.key[j] = self.next_draw
                self.rng.attach(j, self.stream_keys[self.next_draw])
                self.next_draw += 1
            self.part[j] = part
            self.gap[j] = self.slice_gap[part]
            self.level[j] = self.slice_level[part]
            self.rejections[j] = 0
            if handing_off:
                self._finish_scalar(j)
            else:
                fresh[j] = True
        return fresh if fresh.any() else None

    def _close(self, lanes, s):
        """Add the accepted passage on each listed lane to its draw's value, in slice order."""
        self._log(lanes, s)
        self.value[self.key[lanes]] += self.T[lanes]

    def _finish_scalar(self, j):
        """Run lane j's draw to its end on the scalar kernel: the current slice
        from its next proposal on, then the draw's later slices, on the lane's stream."""
        key = int(self.key[j])
        self.value[key], points = _run_slices(self.plan, self.rng.lane(j), int(self.part[j]),
                                              int(self.rejections[j]), float(self.value[key]))
        self.log_keys.append(np.full(len(points), key))
        self.log_tested.append((np.array(points) - 1) // 5)
        self._kill(j)

    def _log(self, lanes, s):
        self.log_keys.append(self.key[lanes])
        self.log_tested.append(s + 1 - self.start[lanes])

    def _kill(self, j):
        self.live[j] = False
        self.dead += 1

    def _alive(self, lanes):
        return lanes[self.live[lanes]] if self.dead else lanes

    def _compact(self):
        keep = self.live.nonzero()[0]
        for name in self.state:
            setattr(self, name, getattr(self, name)[..., keep])
        self.rng.keep(keep)
        self.live = np.ones(len(keep), dtype=bool)
        self.dead = 0

    def _result(self):
        """The batch's draws, built from the iteration log."""
        keys = np.concatenate(self.log_keys)
        if self.n <= 1 << 16:
            keys = keys.astype(np.uint16)  # a stable sort of 16-bit keys is a radix sort
        # a draw's iterations are logged in the order they ran, slice by slice
        points = (5 * np.concatenate(self.log_tested)[np.argsort(keys, kind="stable")] + 1).tolist()
        counts = np.bincount(keys, minlength=self.n).tolist()
        draws = []
        at = 0
        for v, c in zip(self.value.tolist(), counts):
            draws.append(FptDraw(v, RunStats(c, tuple(points[at:at + c]))))
            at += c
        return draws


class _TimeLanes(_Lanes):
    """The time-ordered step, ``_thin_time_ordered`` on lanes: the bridge
    advances from the last point's time ``tp`` to the next one's ``t``."""

    def _init_scan(self, m):
        self.t = np.zeros(m)
        self.tp = np.zeros(m)
        self.b = np.zeros((3, m))
        self.state += ["t", "tp", "b"]
        if self.lifted:
            self.mean = np.ones(m)
            self.state.append("mean")
        else:
            self.mean = 1.0 / self.plan.ceiling

    def _reset(self, which):
        np.copyto(self.b, 0.0, where=which)
        if self.lifted:
            np.copyto(self.mean, 1.0 / self.ceiling, where=which)

    def _arrive(self, which):
        np.copyto(self.tp, 0.0, where=which)
        np.copyto(self.t, self.mean * self.rng.take(EXPONENTIAL, which), where=which)
        return self.t > self.T

    def _step(self, s):
        rng = self.rng
        g = rng.take(NORMAL, None, 3)
        v = rng.take(UNIFORM)
        T, t, tp, b = self.T, self.t, self.tp, self.b
        left = T - t
        span = T - tp
        b *= left / span
        g *= np.sqrt(left * (t - tp) / span)
        b += g
        rejected = self._thin_at(t, b, self.ceiling * v)
        fresh = self._reject(rejected, s)
        # a fresh proposal's first arrival is this step's exponential
        self.tp = t if fresh is None else np.where(fresh, 0.0, t)
        t = self.t = self.tp + self.mean * rng.take(EXPONENTIAL)
        accepted = (t > self.T).nonzero()[0]
        if accepted.size:
            self._restart(self._accept(accepted, s), s)


class _HeightLanes(_Lanes):
    """The height-ordered step, ``_thin_height_ordered`` on lanes: each step
    tests the first point of every lane's iteration.

    That point's time u is drawn uniformly, and its bridge value lies
    between the pins at 0 and T, as ``bisect_insert`` draws it on a fresh
    skeleton; a time within 1e-15 of a pin takes the pin's value and no
    Gaussian.  An iteration that neither rejects there nor climbs past the
    ceiling runs on to its end on the scalar ``_climb``, over the lane's own
    draws (``LaneStreams.lane``), from a skeleton holding that first knot.
    """

    def _init_scan(self, m):
        self.height = np.zeros(m)
        self.mean = np.ones(m)
        self.state += ["height", "mean"]

    def _reset(self, which):
        np.copyto(self.mean, 1.0 / self.T, where=which)

    def _arrive(self, which):
        np.copyto(self.height, self.mean * self.rng.take(EXPONENTIAL, which), where=which)
        return self.height > self.ceiling

    def _step(self, s):
        rng = self.rng
        T = self.T
        u = T * rng.take(UNIFORM)
        inside = off_knots(u, T - u)
        every = np.count_nonzero(inside) == len(inside)
        value = np.sqrt((T - u) * u / T) * rng.take(NORMAL, None if every else inside, 3)
        if not every:
            value = np.where(inside, value, 0.0)
        climb = self.mean * rng.take(EXPONENTIAL)
        rejected = self._thin_at(u, value, self.height)
        self.height += climb
        # an iteration with a second point to test finishes on scalar code
        for j in (~rejected & (self.height <= self.ceiling)).nonzero()[0].tolist():
            rejected[j] = self._climb_scalar(j, float(u[j]), value[:, j] if inside[j] else None)
        fresh = self._reject(rejected, s)
        if fresh is not None:
            self._arrive(fresh)
        accepted = (self.height > self.ceiling).nonzero()[0]
        if accepted.size:
            self._restart(self._accept(accepted, s), s)

    def _climb_scalar(self, j, u, value):
        """Run lane j's iteration past its first point, at time u with bridge
        value ``value`` (None at a pin), on the scalar ``_climb``; True if it rejects."""
        skel = BridgeSkeleton(float(self.T[j]), float(self.gap[j]))
        if value is not None:
            skel.times.insert(1, u)
            skel.values.insert(1, tuple(value.tolist()))
        stream = self.rng.lane(j)
        plan = self.plan
        lift, ceiling = self._bounds(j)
        accepted, n = _climb(stream, skel, float(self.height[j]), 6, float(self.level[j]),
                             plan.gamma, ceiling, plan.shift, lift)
        stream.commit()
        self.start[j] -= (n - 6) // 5  # the iteration's points tested here
        if accepted:
            self.height[j] = np.inf  # past any ceiling: the step accepts it
        return not accepted


# ---------------------------------------------------------------------------
# variants as data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Proposal:
    """A proposal law: ``params(gap, gamma0, t0)`` gives a slice's parameters,
    ``draw(stream, *params)`` one proposal, and ``lanes(lanes, which, *params)``
    one on each lane of a LaneStreams that ``which`` marks, reading each
    lane's randomness in the order ``draw`` reads a stream's."""

    params: Callable
    draw: Callable
    lanes: Callable


_BROWNIAN = _Proposal(lambda gap, gamma0, t0: (gap,),
                      _brownian_fpt_value, _brownian_fpt_lanes)
_INVERSE_GAUSSIAN = _Proposal(
    lambda gap, gamma0, t0: (gap / math.sqrt(2.0 * gamma0), gap * gap),
    _inverse_gaussian_value, _inverse_gaussian_lanes)
_TRUNCATED = _Proposal(lambda gap, gamma0, t0: (gap, t0),
                       _truncated_brownian_fpt_value, _truncated_brownian_fpt_lanes)


@dataclass(frozen=True)
class _Scan:
    """A scan order: ``thin`` is its scalar kernel, ``lanes`` the lane kernel running its step."""

    thin: Callable
    lanes: type


_TIME_ORDERED = _Scan(_thin_time_ordered, _TimeLanes)
_HEIGHT_ORDERED = _Scan(_thin_height_ordered, _HeightLanes)


@dataclass(frozen=True)
class _Variant:
    """What sets one variant's rejection loop apart from another's.

    ``proposal`` is the proposal law of every slice;
    ``shifted`` thins gamma - gamma0 under the ceiling kappa - gamma0;
    ``lifted`` adds m*t0/T to the field and the ceiling (the a3 lift).
    """

    scan: _Scan
    proposal: _Proposal
    shifted: bool = False
    lifted: bool = False


_VARIANTS = {
    "a1": _Variant(_TIME_ORDERED, _BROWNIAN),
    "a2": _Variant(_HEIGHT_ORDERED, _BROWNIAN),
    "a1-shift": _Variant(_TIME_ORDERED, _INVERSE_GAUSSIAN, shifted=True),
    "a2-shift": _Variant(_HEIGHT_ORDERED, _INVERSE_GAUSSIAN, shifted=True),
    "a3": _Variant(_TIME_ORDERED, _TRUNCATED, lifted=True),
}
VARIANTS = tuple(_VARIANTS)


@dataclass(frozen=True)
class _Slice:
    """One sub-level passage: its gap, its target level and its proposal parameters."""

    gap: float
    level: float
    params: tuple


@dataclass(frozen=True)
class _Plan:
    """A validated config resolved to the data the rejection loop reads.

    ``gamma`` is the scalar field of the scalar kernels, ``field`` the same
    field on numpy arrays for the lane kernel.
    """

    scan: _Scan
    proposal: _Proposal
    gamma: Callable
    field: Callable
    ceiling: float
    shift: float
    lift_mass: float
    max_iterations: int
    slices: tuple


def _prepare(config):
    """Validate once, freeze the drift below -rho and plan the split slices."""
    validate_config(config)
    variant = _VARIANTS[config.variant]
    model = config.model if config.rho is None else truncate_drift(config.model, config.rho)
    cert = config.cert
    gamma0 = cert.gamma0 if variant.shifted else 0.0
    k = config.split_k
    slices = []
    for i in range(1, k + 1):
        lo = config.x + (i - 1) * config.gap / k
        hi = config.x + i * config.gap / k if i < k else config.L
        slices.append(_Slice(hi - lo, hi, variant.proposal.params(hi - lo, gamma0, config.t0)))
    return _Plan(scan=variant.scan, proposal=variant.proposal, gamma=gamma_fn(model),
                 field=GammaField(model).eval_array, ceiling=cert.kappa - gamma0,
                 shift=gamma0, lift_mass=cert.m * config.t0 if variant.lifted else 0.0,
                 max_iterations=config.max_iterations, slices=tuple(slices))


def _run_slice(plan, part, stream, done=0):
    """Rejection loop of one slice; returns the accepted T and the N_i list.

    ``done`` iterations of the slice already ran elsewhere (the lane kernel
    hands a slice over mid-way); they count against the budget.  The
    returned list and a BudgetError's stats cover the iterations run here.
    """
    scan = plan.scan.thin
    gamma = plan.gamma
    ceiling = plan.ceiling
    shift = plan.shift
    lift_mass = plan.lift_mass
    gap = part.gap
    level = part.level
    propose = plan.proposal.draw
    params = part.params
    points = []
    for _ in range(plan.max_iterations - done):
        T = propose(stream, *params)
        lift = lift_mass / T
        accepted, n = scan(stream, T, gap, level, gamma, ceiling + lift, shift, lift)
        points.append(n)
        if accepted:
            return T, points
    raise BudgetError(
        f"no acceptance within {plan.max_iterations} iterations",
        stats=RunStats(plan.max_iterations - done, tuple(points)))


def _run_slices(plan, stream, first=0, done=0, total=0.0):
    """A draw's slices from ``first`` on, in turn on ``stream``; returns the
    passages' sum and the N_i list.

    Each slice's rejection loop stops at a stopping time of the stream, so
    the draws after it, buffered or not, are fresh for the next slice.
    The lane kernel hands a draw over mid-way: ``done`` iterations of slice
    ``first`` already ran, and ``total`` sums the slices before it, so the
    passages add up in slice order whoever ran them.
    """
    points = []
    for part in plan.slices[first:]:
        T, part_points = _run_slice(plan, part, stream, done)
        done = 0
        total += T
        points += part_points
    return total, points


def _draw(plan, stream):
    """One draw: the sum of the slices' passages, run in turn on the caller's stream.

    Stats aggregate uniformly across slices (iterations add up, point lists
    concatenate).
    """
    total, points = _run_slices(plan, stream)
    return FptDraw(total, RunStats(len(points), tuple(points)))


def optimal_split_count(gap, kappa):
    """Slice count floor(gap*sqrt(2*kappa)) + 1 that tames the iteration growth."""
    if not (gap > 0.0 and kappa > 0.0 and gap * math.sqrt(2.0 * kappa) < math.inf):
        raise ConfigError("optimal_split_count needs gap > 0 and kappa > 0, and a finite count")
    return int(math.floor(gap * math.sqrt(2.0 * kappa))) + 1


def sample(config, stream):
    """Draw one first-passage time according to the configured variant."""
    return _draw(_prepare(config), stream)


def sample_batch(config, n, stream, start=0):
    """n independent draws; draw i consumes substream (stream, start + i).

    The offset lets workers produce disjoint blocks of one deterministic
    sequence: the draws depend only on (stream address, index), never on the
    partitioning.  The config is validated and resolved once per batch.
    The draws run on the lane kernel, which gives the same draws as
    ``sample`` on each substream; ``stream`` must be a RandomStream.
    """
    if n < 0:
        raise ConfigError(f"sample_batch needs n >= 0, got {n}")
    plan = _prepare(config)
    return _run_batch(plan.scan.lanes, _draw, plan, n, stream, start)


def _run_batch(lanes, scalar, plan, n, stream, start):
    """n draws of ``plan``: ``scalar(plan, stream.substream(start + i))`` for each i.

    The lane kernel ``lanes`` (a _Lanes subclass) runs them when they fill
    _LANE_MIN lanes, one draw per lane; it yields what ``scalar`` yields,
    so the scalar kernel runs only smaller batches, and reruns a batch in
    which some draw fails, to raise the failure met first in draw order.
    """
    if not isinstance(stream, RandomStream):
        raise ConfigError(f"a batch draws on a RandomStream, got {type(stream).__name__}")
    for name, value in (("n", n), ("start", start)):
        if not isinstance(value, Integral):
            raise ConfigError(f"a batch's {name} must be an integer, got {value!r}")
    if plan.ceiling > 0.0 and n >= _LANE_MIN:
        try:
            return lanes(plan, n, stream, start).run()
        except FptsimError:
            pass
    return [scalar(plan, stream.substream(start + i)) for i in range(n)]


def poisson_time_points(stream, horizon, kappa):
    """Arrival times of a rate-kappa Poisson stream on [0, horizon], time order.

    This is the time-marginal of the rectangle point process both thinning
    engines consume; the increment overshooting the horizon is drawn (its
    count is the caller's business) but not returned.
    """
    if not (0.0 < kappa < math.inf and 0.0 <= horizon < math.inf):
        raise ConfigError(f"need finite kappa > 0 and horizon >= 0, got {kappa} and {horizon}")
    mean = 1.0 / kappa
    times = []
    t = stream.exponential(mean)
    while t <= horizon:
        times.append(t)
        t += stream.exponential(mean)
    return times
