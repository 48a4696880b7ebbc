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
  slice i on substream i of the draw's stream;
* ``a3``: conditional sampling of tau given tau <= t0, tolerating
  gamma >= -m by lifting the field by m*t0/T, non-negative for every
  admissible proposal T <= t0;
* rho-truncation (``rho``): run any variant but ``a3`` against the drift
  frozen below -rho (the certificate must hold for the truncated model);
  the Kolmogorov distance from the true law is at most
  2 (p(L)-p(x)) / (p(L)-p(-rho)).

Which kernel runs what: ``sample`` always runs the scalar kernels, one
Python loop per Poisson point, and accepts any object with RandomStream's
draw methods.  ``sample_batch`` runs the height-ordered variants (``a2``,
``a2-shift``) on the scalar kernel draw by draw, and the time-ordered ones
(``a1``, ``a1-shift``, ``a3``, split, rho) on the lane kernel: numpy arrays
that advance many (draw, slice) items by one Poisson point per step.  The
lane kernel reads the same substreams in the same order with the same
arithmetic, so the determinism contract is one for both: draw i of a batch
is ``sample`` on substream ``start + i``, bit for bit, whatever the batch
size or partition.  The lane width is the module constant _LANE_WIDTH, not
an option; batches too small to fill _LANE_MIN lanes, and the last few
items of a batch, run on the scalar kernel, which stays the reference the
lane kernel is tested against.

Cost accounting follows the elementary random variates: ``N_i`` counts the
scalar draws consumed by iteration i's thinning scan (a 3-d Gaussian counts
as three, each exponential and uniform as one), the proposals are counted
once each through the iteration count, and the headline cost figure is
``N_sigma = I + sum_i N_i``.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bridge import BridgeSkeleton, bisect_insert
from .drift import (BoundCertificate, DriftModel, GammaField, gamma_fn,
                    truncate_drift)
from .errors import BudgetError, ConfigError, FptsimError, ModelError
from .rng import (EXPONENTIAL, NORMAL, UNIFORM, LaneStreams,
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
    total_points: int = 0

    def __post_init__(self):
        if self.iterations < 1 or len(self.points_per_iteration) != self.iterations:
            raise ValueError("iteration count and per-iteration point list disagree")
        object.__setattr__(self, "total_points",
                           self.iterations + sum(self.points_per_iteration))


@dataclass(frozen=True)
class FptDraw:
    value: float
    stats: RunStats

    def __post_init__(self):
        if not self.value > 0.0:
            raise ValueError(f"sampled time must be positive, got {self.value}")


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
    if not config.L > config.x:
        raise ConfigError(f"level L={config.L} must exceed the start x={config.x}")
    variant = _VARIANTS.get(config.variant)
    if variant is None:
        raise ConfigError(f"unknown variant {config.variant!r}; choose from {VARIANTS}")
    if config.split_k < 1:
        raise ConfigError(f"split_k must be >= 1, got {config.split_k}")
    if config.max_iterations < 1:
        raise ConfigError("max_iterations must be >= 1")
    if variant.shifted and not config.cert.gamma0 > 0.0:
        raise ConfigError("shift variants need a certificate with gamma0 > 0")
    if variant.lifted:
        if config.t0 is None or not config.t0 > 0.0:
            raise ConfigError("variant a3 needs a horizon t0 > 0")
        if not math.isfinite(config.cert.m):
            raise ConfigError("variant a3 needs a finite negativity bound m")
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


def _field_breach(value, ceiling):
    return ModelError(
        f"thinning field {value:.6g} escapes [0, {ceiling:.6g}]; "
        "the bound certificate does not hold along the sampled path")


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
    lo = -_FIELD_NEG_TOL
    hi = ceiling + _FIELD_POS_TOL
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
        f = gamma(level - r) - shift + lift
        if not lo <= f <= hi:  # written so that a NaN field is a breach too
            raise _field_breach(f, ceiling)
        if ceiling * v <= f:
            return False, n
        t_prev = t
        t += stream.exponential(mean)
    return True, n


def _thin_height_ordered(stream, T, gap, level, gamma, ceiling, shift, lift):
    """Scan Poisson points by increasing height, refining a bridge skeleton.

    Structured like the time-ordered scan: the first exponential height is
    drawn up front (one scalar), then each tested point costs a five-scalar
    bundle (uniform position, 3-d bridge Gaussian, next height increment).
    """
    if ceiling <= 0.0:
        return True, 0
    skel = BridgeSkeleton(T, gap)
    mean = 1.0 / T
    height = stream.exponential(mean)
    n = 1
    lo = -_FIELD_NEG_TOL
    hi = ceiling + _FIELD_POS_TOL
    while height <= ceiling:
        n += 5
        u = stream.uniform(T)
        value = bisect_insert(skel, u, stream) if u > 0.0 else skel.values[0]
        e_next = stream.exponential(mean)
        rx = u * gap / T + value[0]
        r = math.sqrt(rx * rx + value[1] * value[1] + value[2] * value[2])
        f = gamma(level - r) - shift + lift
        if not lo <= f <= hi:  # written so that a NaN field is a breach too
            raise _field_breach(f, ceiling)
        if height <= f:
            return False, n
        height += e_next
    return True, n


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
class _Variant:
    """What sets one variant's rejection loop apart from another's.

    ``proposal`` is the proposal law of every slice;
    ``shifted`` thins gamma - gamma0 under the ceiling kappa - gamma0;
    ``lifted`` adds m*t0/T to the field and the ceiling (the a3 lift).
    """

    scan: Callable
    proposal: Callable
    shifted: bool = False
    lifted: bool = False


_VARIANTS = {
    "a1": _Variant(_thin_time_ordered, _BROWNIAN),
    "a2": _Variant(_thin_height_ordered, _BROWNIAN),
    "a1-shift": _Variant(_thin_time_ordered, _INVERSE_GAUSSIAN, shifted=True),
    "a2-shift": _Variant(_thin_height_ordered, _INVERSE_GAUSSIAN, shifted=True),
    "a3": _Variant(_thin_time_ordered, _TRUNCATED, lifted=True),
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

    scan: Callable
    proposal: _Proposal
    gamma: Callable
    field: Callable
    ceiling: float
    shift: float
    lift_mass: float
    t0: Optional[float]
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
                 t0=config.t0, max_iterations=config.max_iterations,
                 slices=tuple(slices))


def _run_slice(plan, part, stream, done=0):
    """Rejection loop of one slice; returns the accepted T and the N_i list.

    ``done`` iterations of the slice already ran elsewhere (the lane kernel
    hands a slice over mid-way); they count against the budget.  The
    returned list and a BudgetError's stats cover the iterations run here.
    """
    scan = plan.scan
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
            if plan.t0 is not None and T > plan.t0:
                raise ModelError("conditional draw escaped its support (0, t0]")
            return T, points
    raise BudgetError(
        f"no acceptance within {plan.max_iterations} iterations",
        stats=RunStats(plan.max_iterations - done, tuple(points)))


def _draw(plan, stream):
    """One draw: the sum of the slices' passages, slice i on substream i.

    An unsplit draw runs its single slice on the caller's stream; stats
    aggregate uniformly across slices (iterations add up, point lists
    concatenate).
    """
    split = len(plan.slices) > 1
    total = 0.0
    points = []
    for i, part in enumerate(plan.slices, 1):
        T, part_points = _run_slice(plan, part, stream.substream(i) if split else stream)
        total += T
        points += part_points
    return FptDraw(total, RunStats(len(points), tuple(points)))


# ---------------------------------------------------------------------------
# lane kernel: the time-ordered scan of many draws at once
# ---------------------------------------------------------------------------

# lanes advanced together (3 buffer rows of 1032 floats each, ~3 MB in all)
_LANE_WIDTH = 128
# with fewer live lanes than this a numpy step costs more than scalar scans
_LANE_MIN = 16


class _Lanes:
    """The time-ordered rejection loops of a batch, one numpy lane per item.

    An item is one slice of one draw, ``key = draw * k + slice``, and reads
    the substream the scalar path gives it.  Every step tests one Poisson
    point on every lane: bridge update, field, thinning test.  A rejected
    lane draws its next proposal and first arrival in the same step; a lane
    whose item is accepted takes the next item in key order.  The arithmetic
    is the scalar kernel's, operation for operation, so each item yields the
    scalar draw bit for bit, wherever numpy's field agrees with the scalar
    ``gamma`` (it can differ by an ulp where a transcendental does, which
    flips a test only if the uniform falls inside that ulp).  Once the queue
    is empty and fewer than _LANE_MIN lanes are live, each remaining item
    finishes on the scalar kernel from its next proposal on.  An item that
    fails (field breach, budget) raises at once; ``sample_batch`` then
    reruns the batch on the scalar kernel, which raises the error met first
    in draw order.
    """

    def __init__(self, plan, n, stream, start):
        self.plan = plan
        self.k = k = len(plan.slices)
        self.base = stream
        self.offset = start
        self.next_key = min(_LANE_WIDTH, n * k)
        self.value = np.empty(n * k)         # accepted proposal of each item
        self.log_keys = []                   # per iteration: its item and the
        self.log_tested = []                 # number of points it tested
        self.lifted = plan.lift_mass != 0.0
        self.slice_params = [np.array(p) for p in zip(*(part.params for part in plan.slices))]
        self.slice_gap = np.array([part.gap for part in plan.slices])
        self.slice_level = np.array([part.level for part in plan.slices])
        self.key = np.arange(self.next_key, dtype=np.int32)
        m = len(self.key)
        self.rng = LaneStreams([self._stream(key) for key in range(m)])
        self.gap = self.slice_gap[self.key % k]
        self.level = self.slice_level[self.key % k]
        self.T = np.ones(m)
        self.t = np.zeros(m)
        self.tp = np.zeros(m)
        self.b = np.zeros((3, m))
        self.start = np.zeros(m, dtype=np.int32)   # step of the iteration's first test
        self.rejections = np.zeros(m, dtype=np.intp)
        self.state = ["key", "gap", "level", "T", "t", "tp", "b", "start", "rejections"]
        if self.lifted:
            self.lift = np.zeros(m)
            self.ceiling = np.ones(m)
            self.mean = np.ones(m)
            self.hi = np.ones(m)
            self.state += ["lift", "ceiling", "mean", "hi"]
        else:
            self.ceiling = plan.ceiling
            self.mean = 1.0 / plan.ceiling
            self.hi = plan.ceiling + _FIELD_POS_TOL
        self.live = np.ones(m, dtype=bool)
        self.dead = 0

    def _stream(self, key):
        draw, part = divmod(key, self.k)
        if self.k == 1:
            return self.base.substream(self.offset + draw)
        return self.base.substream(self.offset + draw, part + 1)

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
        return self._draws()

    def _step(self, s):
        rng = self.rng
        plan = self.plan
        g = rng.take(NORMAL, None, 3)
        v = rng.take(UNIFORM)
        T, t, tp, b = self.T, self.t, self.tp, self.b
        left = T - t
        span = T - tp
        b *= left / span
        g *= np.sqrt(left * (t - tp) / span)
        b += g
        rx = t * self.gap / T + b[0]
        by = b[1]
        bz = b[2]
        f = plan.field(self.level - np.sqrt(rx * rx + by * by + bz * bz))
        if plan.shift:
            f -= plan.shift
        if self.lifted:
            f += self.lift
        ok = (f >= -_FIELD_NEG_TOL) & (f <= self.hi)  # False on a NaN field too
        if np.count_nonzero(ok) < len(ok):
            j = (~ok).nonzero()[0][0]
            raise _field_breach(f[j], self.ceiling[j] if self.lifted else self.ceiling)
        rejected = self.ceiling * v <= f
        self.rejections += rejected
        lanes = rejected.nonzero()[0]
        if lanes.size:
            self._log(lanes, s)
            if s + 1 >= plan.max_iterations \
                    and (self.rejections[lanes] >= plan.max_iterations).any():
                raise BudgetError(f"no acceptance within {plan.max_iterations} iterations")
            if self.next_key >= len(self.value) and len(self.key) < _LANE_MIN:
                for j in lanes:
                    self._finish_scalar(j)
            else:
                self._propose(rejected, s)
        tp = self.tp = np.where(rejected, 0.0, t)
        t = self.t = tp + self.mean * rng.take(EXPONENTIAL)
        accepted = (t > self.T).nonzero()[0]
        if accepted.size:
            self._restart(self._accept(accepted, s), s)

    def _propose(self, which, s):
        """A fresh proposal on each lane ``which`` marks; the caller draws its first arrival."""
        plan = self.plan
        if self.k == 1:
            params = plan.slices[0].params
        else:
            part = self.key % self.k
            params = [p[part] for p in self.slice_params]
        T = plan.proposal.lanes(self.rng, which, *params)
        np.copyto(self.T, T, where=which)
        if self.lifted:
            lift = plan.lift_mass / T
            ceiling = plan.ceiling + lift
            np.copyto(self.lift, lift, where=which)
            np.copyto(self.ceiling, ceiling, where=which)
            np.copyto(self.mean, 1.0 / ceiling, where=which)
            np.copyto(self.hi, ceiling + _FIELD_POS_TOL, where=which)
        np.copyto(self.b, 0.0, where=which)
        np.copyto(self.start, s + 1, where=which)

    def _restart(self, which, s):
        """Propose and draw the first arrival where ``which`` marks, until none accepts outright."""
        while which is not None:
            self._propose(which, s)
            np.copyto(self.tp, 0.0, where=which)
            np.copyto(self.t, self.mean * self.rng.take(EXPONENTIAL, which), where=which)
            accepted = (which & (self.t > self.T)).nonzero()[0]
            which = self._accept(accepted, s) if accepted.size else None

    def _accept(self, lanes, s):
        """Close the accepted items on the listed lanes; marks the lanes given a new item."""
        lanes = self._alive(lanes)
        if not lanes.size:
            return None
        self._log(lanes, s)
        T = self.T[lanes]
        if self.plan.t0 is not None and (T > self.plan.t0).any():
            raise ModelError("conditional draw escaped its support (0, t0]")
        self.value[self.key[lanes]] = T
        fresh = np.zeros(len(self.key), dtype=bool)
        for j in lanes.tolist():
            if self.next_key < len(self.value):
                key = self.next_key
                self.next_key += 1
                self.key[j] = key
                self.gap[j] = self.slice_gap[key % self.k]
                self.level[j] = self.slice_level[key % self.k]
                self.rejections[j] = 0
                self.rng.attach(j, self._stream(key))
                fresh[j] = True
            else:
                self._kill(j)
        return fresh if fresh.any() else None

    def _finish_scalar(self, j):
        """Run lane j's item to its end on the scalar kernel, from its next proposal on."""
        key = int(self.key[j])
        T, points = _run_slice(self.plan, self.plan.slices[key % self.k], self.rng.stream(j),
                               int(self.rejections[j]))
        self.value[key] = T
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

    def _draws(self):
        keys = np.concatenate(self.log_keys)
        if len(self.value) <= 1 << 16:
            keys = keys.astype(np.uint16)  # a stable sort of 16-bit keys is a radix sort
        points = (5 * np.concatenate(self.log_tested)[np.argsort(keys, kind="stable")] + 1).tolist()
        counts = np.bincount(keys, minlength=len(self.value))
        counts = counts.reshape(-1, self.k).sum(axis=1).tolist()
        value = self.value.reshape(-1, self.k)
        total = value[:, 0].copy()
        for part in range(1, self.k):
            total += value[:, part]
        draws = []
        at = 0
        for v, c in zip(total.tolist(), counts):
            draws.append(FptDraw(v, RunStats(c, tuple(points[at:at + c]))))
            at += c
        return draws


def optimal_split_count(gap, kappa):
    """Slice count floor(gap*sqrt(2*kappa)) + 1 that tames the iteration growth."""
    if not (gap > 0.0 and kappa > 0.0):
        raise ConfigError("optimal_split_count needs gap > 0 and kappa > 0")
    return int(math.floor(gap * math.sqrt(2.0 * kappa))) + 1


def sample(config, stream):
    """Draw one first-passage time according to the configured variant."""
    return _draw(_prepare(config), stream)


def sample_batch(config, n, stream, start=0):
    """n independent draws; draw i consumes substream (stream, start + i).

    The offset lets workers produce disjoint blocks of one deterministic
    sequence: the draws depend only on (stream address, index), never on the
    partitioning.  The config is validated and resolved once per batch.
    Time-ordered variants run on the lane kernel, which gives the same draws
    as ``sample`` on each substream; ``stream`` must be a RandomStream.
    """
    plan = _prepare(config)
    if plan.scan is _thin_time_ordered and plan.ceiling > 0.0 \
            and n * len(plan.slices) >= _LANE_MIN:
        try:
            return _Lanes(plan, n, stream, start).run()
        except FptsimError:
            pass  # some draw fails: the scalar path raises the first failure in draw order
    return [_draw(plan, stream.substream(start + i)) for i in range(n)]


def poisson_time_points(stream, horizon, kappa):
    """Arrival times of a rate-kappa Poisson stream on [0, horizon], time order.

    This is the time-marginal of the rectangle point process both thinning
    engines consume; the increment overshooting the horizon is drawn (its
    count is the caller's business) but not returned.
    """
    if not kappa > 0.0:
        raise ConfigError("poisson_time_points needs kappa > 0")
    mean = 1.0 / kappa
    times = []
    t = stream.exponential(mean)
    while t <= horizon:
        times.append(t)
        t += stream.exponential(mean)
    return times
