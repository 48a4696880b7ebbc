"""Closed-form references, goodness-of-fit machinery and efficiency reports.

Everything here sits outside the samplers' hot path and exists to check them:
inverse-Gaussian and reflection-principle references for drifted/driftless
Brownian motion, exact Kolmogorov-Smirnov distances, the iteration-count
identities, a coupled comparator for the two thinning mechanizations, and an
Euler-Maruyama oracle with the Brownian-bridge crossing correction for models
without a closed form.

Importing this module, and with it ``fptsim``, loads numpy only.  The
reference CDFs (``ig_cdf``, ``brownian_fpt_cdf`` and its truncated form) and
``geometric_iteration_gof`` import ``scipy.stats`` when they are called;
nothing else here does.

The comparator is the one heavy user here.  Its scalar side is one loop,
``_coupled_iteration``: both scans walk one lazily drawn set of Poisson
points and refine one bridge skeleton through the ``a2`` kernel's own
``bisect_insert``.  It also has a lane kernel like ``sample_batch``'s
(``_CoupledLanes``): from _LANE_MIN replicates on, ``delta_compare`` runs
them as numpy lanes, and every replicate's totals are the scalar
``_coupled_totals`` on its substream, bit for bit.
"""

import csv
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .bridge import BridgeSkeleton, bisect_insert, bisect_lanes
from .drift import eval_beta, eval_scale_p
from .errors import BudgetError, ConfigError, NumericError
from .rng import EXPONENTIAL, NORMAL, UNIFORM
from .samplers import _Lanes, _bessel, _point_field, _prepare, _run_batch


# ---------------------------------------------------------------------------
# closed-form references
# ---------------------------------------------------------------------------


def ig_pdf(t, gap, mu_drift):
    """Hitting-time density of Brownian motion with drift mu through a level gap away."""
    t = np.asarray(t, dtype=float)
    out = gap / np.sqrt(2.0 * math.pi * t**3) * np.exp(-((gap - mu_drift * t) ** 2) / (2.0 * t))
    return out if out.ndim else float(out)

def ig_cdf(t, gap, mu_drift):
    """Matching CDF via the standard two-Gaussian-CDF composition for IG laws.

    At ``mu_drift == 0`` this is its limit, the driftless ``brownian_fpt_cdf``.
    A drift away from the level (``mu_drift < 0``) gives the defective CDF of a
    passage that may never happen: its mass is ``exp(2 * mu_drift * gap)``.
    """
    if mu_drift == 0.0:
        return brownian_fpt_cdf(t, gap)
    from scipy import stats as sstats
    t = np.asarray(t, dtype=float)
    mu = gap / mu_drift          # IG mean
    lam = gap * gap              # IG shape
    rt = np.sqrt(lam / t)
    a = sstats.norm.cdf(rt * (t / mu - 1.0))
    b = np.exp(2.0 * lam / mu + sstats.norm.logcdf(-rt * (t / mu + 1.0)))
    out = np.clip(a + b, 0.0, 1.0)
    return out if out.ndim else float(out)


def brownian_fpt_cdf(t, gap):
    """Reflection-principle CDF 2 Phi(-gap/sqrt(t)) of the driftless hitting time."""
    from scipy import stats as sstats
    t = np.asarray(t, dtype=float)
    out = 2.0 * sstats.norm.cdf(-gap / np.sqrt(t))
    return out if out.ndim else float(out)


def truncated_brownian_fpt_cdf(t, gap, t0):
    """CDF of the driftless hitting time conditioned on happening before t0."""
    t = np.minimum(np.asarray(t, dtype=float), t0)
    return brownian_fpt_cdf(t, gap) / brownian_fpt_cdf(t0, gap)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------


def _finite_sample(values, who):
    """The sample sorted; ConfigError unless it is non-empty and finite."""
    values = np.sort(np.asarray(values, dtype=float))
    if len(values) == 0 or not np.isfinite(values).all():
        raise ConfigError(f"{who} needs a non-empty sample of finite values")
    return values


def ks_statistic(values, cdf):
    """Exact sup-distance between the empirical CDF of values and a reference CDF."""
    values = _finite_sample(values, "ks_statistic")
    n = len(values)
    ref = np.asarray(cdf(values), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - ref), np.max(ref - (grid - 1.0 / n))))


def two_sample_ks(a, b):
    """Exact two-sample sup-distance, evaluated at every jump point."""
    a = _finite_sample(a, "two_sample_ks")
    b = _finite_sample(b, "two_sample_ks")
    support = np.concatenate([a, b])
    fa = np.searchsorted(a, support, side="right") / len(a)
    fb = np.searchsorted(b, support, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# iteration identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterationReport:
    observed_mean: float
    target_mean: float
    std_error: float
    z_score: float
    upper_bound: float
    bound_ok: bool
    n: int

    def text(self):
        return (f"mean iterations {self.observed_mean:.4g} vs identity "
                f"{self.target_mean:.4g} (z={self.z_score:+.2f}, n={self.n}); "
                f"upper bound {self.upper_bound:.4g} "
                f"{'holds' if self.bound_ok else 'VIOLATED'}")


def iteration_identity_target(model, x, L, gamma0=0.0):
    """exp{beta(L) - beta(x) - (L-x) sqrt(2 gamma0)}; gamma0=0 for unshifted runs."""
    expo = eval_beta(model, L) - eval_beta(model, x)
    if gamma0 > 0.0:
        expo -= (L - x) * math.sqrt(2.0 * gamma0)
    return math.exp(expo)


def iteration_identity_check(iterations, model, x, L, gamma0=0.0, kappa=None):
    """Compare mean(I) against its identity and the exp((L-x) sqrt(2 kappa)) bound.

    ``iterations`` holds one iteration count per draw, each a whole number >= 1.
    """
    iters = _whole_numbers(iterations, "iteration counts")
    n = len(iters)
    mean = float(iters.mean())
    se = float(iters.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    target = iteration_identity_target(model, x, L, gamma0)
    z = (mean - target) / se if se > 0 else 0.0
    if kappa is None:
        bound = math.inf
    else:
        # shifted runs: the ceiling drops to kappa - gamma0
        bound = math.exp((L - x) * math.sqrt(2.0 * max(kappa - gamma0, 0.0)))
    return IterationReport(mean, target, se, z, bound, mean <= bound + 3.0 * se, n)


def _whole_numbers(values, what):
    """values as floats; ConfigError unless there are some and each is a whole number >= 1."""
    values = np.asarray(values, dtype=float)
    if not (values.size and np.all(np.isfinite(values) & (values >= 1)
                                   & (values == np.floor(values)))):
        raise ConfigError(f"{what} must be whole numbers >= 1")
    return values


def geometric_iteration_gof(iterations, min_expected=5.0):
    """Chi-square goodness of fit of iteration counts against Geometric(p_hat).

    p_hat is fitted by the sample mean, so the chi-square loses one extra
    degree of freedom.  Returns (chi2, dof, p_value).
    """
    iters = _whole_numbers(iterations, "iteration counts")
    n = len(iters)
    if not 0.0 < min_expected < math.inf:
        raise ConfigError(f"min_expected must be positive and finite, got {min_expected}")
    cells = _geometric_cells(n, 1.0 / float(iters.mean()), min_expected)
    # the counts below each cell's first point; the last cell runs to the end
    below = np.searchsorted(np.sort(iters), [lo for lo, _, _ in cells])
    observed = np.diff(np.append(below, n)).astype(float)
    expected = n * np.array([prob for _, _, prob in cells])
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    dof = max(len(cells) - 2, 1)
    from scipy import stats as sstats
    return chi2, dof, float(sstats.chi2.sf(chi2, dof))


def _geometric_cells(n, p_hat, min_expected):
    """The support of Geometric(p_hat) grouped into cells of enough expected mass.

    Returns (first, last, probability) per cell, the last cell open
    (``last`` None).  Walking k = 1, 2, ...: the open cell starts once
    ``n * (1 - p_hat)**k < min_expected``, and before that a cell ends at the
    first k where n times its mass reaches min_expected.  Each cell's end is
    found in closed form and then checked against its neighbours, so the
    cells are the walk's without visiting every k.
    """
    q = 1.0 - p_hat
    if not q < 1.0:
        raise ConfigError(f"mean iteration count {1.0 / p_hat:g} is too large for a geometric fit")
    log_q = math.log(q) if q > 0.0 else -math.inf
    scale = p_hat / (1.0 - q)

    def mass(first, k):
        """p_hat * sum_{j=first}^{k} q**(j-1), summed in closed form."""
        return scale * q ** (first - 1) * -math.expm1((k - first + 1) * log_q)

    # the first k whose tail beyond it is light: the walk ends there, in the open cell
    stop = max(1, math.ceil(math.log(min_expected / n) / log_q))
    while stop > 1 and n * q ** (stop - 1) < min_expected:
        stop -= 1
    while not n * q ** stop < min_expected:
        stop += 1
    cells = []
    first = 1
    while first < stop:
        need = min_expected / (n * mass(first, math.inf))
        k = stop if need >= 1.0 else min(stop, first - 1 + max(
            1, math.ceil(math.log1p(-need) / log_q)))
        while k > first and n * mass(first, k - 1) >= min_expected:
            k -= 1
        while k < stop and not n * mass(first, k) >= min_expected:
            k += 1
        if k == stop:
            break
        cells.append((first, k, mass(first, k)))
        first = k + 1
    cells.append((first, None, mass(first, stop) + q ** stop))
    return cells


# ---------------------------------------------------------------------------
# coupled comparator of the two thinning mechanizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaReport:
    mean_delta: float
    std_delta: float
    n: int
    t_statistic: float
    ratio: float
    mean_n1: float
    mean_n2: float

    def text(self):
        return (f"delta = N2 - N1 over {self.n} replicates: mean {self.mean_delta:.2f}, "
                f"std {self.std_delta:.2f}, t = {self.t_statistic:.2f}, "
                f"ratio mean_delta/mean_N1 = {self.ratio:.4f}")


_ORIGIN = (0.0, 0.0, 0.0)  # the bridge at its pins


def _coupled_iteration(plan, stream, done1, done2):
    """One iteration of both scans on shared randomness.

    Per iteration both mechanizations consume the same realization: the
    time-ordered scan reads the points (t_k, h_k) natively; the height-ordered
    scan reads their images (h_k T/kappa, t_k kappa/T), which is again the
    rectangle's Poisson process with the roles of the axes exchanged (and the
    image of the k-th point in time order is the k-th point in height order,
    so both scans walk the same index sequence).  Bridge values come from one
    shared skeleton so the runs stay tightly coupled; each run keeps its own
    acceptance decision, preserving its marginal law.  A scan that has
    accepted before does not run.

    Each scan walks the points by index and stops at its first hit.  A point
    is drawn the first time either scan needs it, its uniform height and then
    the next exponential arrival, so the heavy tail of the proposal T never
    forces a full enumeration of the rectangle.  A time outside (0, T), where
    an image may round to T, takes the pins' value.  Variate accounting
    mirrors the native engines: the proposal, the initial exponential and a
    5-scalar bundle per tested point, so 2 + 5k for k tested points.  A field
    outside the certified [0, kappa] raises the engines' breach error.
    Returns both acceptances and both costs.
    """
    part = plan.slices[0]
    kappa = plan.ceiling
    gap = part.gap
    level = part.level
    gamma = plan.gamma
    T = plan.proposal.draw(stream, *part.params)
    mean = 1.0 / kappa
    skel = BridgeSkeleton(T, gap)
    times = []
    heights = []
    arrival = stream.exponential(mean)
    done = [done1, done2]
    cost = [0, 0]
    for scan in (0, 1):  # the time-ordered scan, then the one on the images
        if done[scan]:
            continue
        k = 0
        while k < len(times) or arrival <= T:
            if k == len(times):
                times.append(arrival)
                heights.append(stream.uniform(kappa))
                arrival += stream.exponential(mean)
            time, height = times[k], heights[k]
            k += 1
            if scan:
                time, height = height * T / kappa, time * kappa / T
            value = bisect_insert(skel, time, stream) if 0.0 < time < T else _ORIGIN
            rx = time * gap / T + value[0]
            r = math.sqrt(rx * rx + value[1] * value[1] + value[2] * value[2])
            if height <= _point_field(gamma, level - r, 0.0, 0.0, kappa):
                break
        else:
            done[scan] = True
        cost[scan] = 2 + 5 * k
    return done[0], done[1], cost[0], cost[1]


def _coupled_totals(plan, stream, resume=(False, False, 0, 0, 0)):
    """One replicate: the total cost of each scan, iterations on shared randomness.

    ``resume`` is ``(done1, done2, total1, total2, iterations)`` after the
    iterations that already ran elsewhere (the lane comparator hands a
    replicate over between iterations); they count against the budget.
    """
    if plan.ceiling <= 0.0:
        return 1, 1  # empty thinning domain: both scans accept the first proposal
    done1, done2, total1, total2, ran = resume
    for _ in range(plan.max_iterations - ran):
        done1, done2, cost1, cost2 = _coupled_iteration(plan, stream, done1, done2)
        total1 += cost1
        total2 += cost2
        if done1 and done2:
            return total1, total2
    raise BudgetError(f"coupled comparator exceeded {plan.max_iterations} iterations")


# iterations a lane runs ahead in one step
_AHEAD = 12
_STEP = np.arange(_AHEAD)[:, None]
# places ahead, per iteration run ahead, of its draws past the proposal: three
# Gaussian triples, three exponentials and two uniforms
_NORMALS = np.arange(1, 10)[:, None, None]
_CLIMBS = np.arange(3)[:, None, None] + 2 * _STEP
_UNIFORMS = np.arange(2)[:, None, None] + _STEP
# the scan that tests each of the four points an iteration run ahead may test
_SCAN_OF_POINT = np.array([0, 1, 0, 1])


class _CoupledLanes(_Lanes):
    """``_coupled_totals`` on lanes, one replicate per lane.

    A lane waits between iterations.  Most iterations are short: each scan
    that runs ends at the first point, the time-ordered scan testing it and
    the height-ordered one its image, or (less often) the time-ordered scan
    ends at the second point.  A short iteration reads a fixed number of
    draws of each kind, so each step runs the next _AHEAD iterations of
    every lane at once, on draws it peeks at (``LaneStreams.peek``),
    supposing each is short with one point.  It keeps the leading ones that
    are, and then the first that is short with two points, has an empty
    feed or accepts a scan; no draw past them is taken.  An iteration that
    is not short runs on the scalar ``_coupled_iteration``, on the lane's
    own draws (``LaneStreams.lane``), as does one whose draws cross the end
    of a block.  The field tests go through ``_thin`` and its scalar
    recheck, so each lane yields ``_coupled_totals`` on its replicate's
    substream, bit for bit.

    ``done`` and ``total`` hold each scan's acceptance and running total,
    row 0 for the time-ordered scan.  A lane whose replicate is done takes
    the next one, and the engine's hand-off runs the last few replicates on
    ``_coupled_totals`` from their next iteration on.
    """

    def __init__(self, plan, n, stream, start):
        super().__init__(plan, n, stream, start)
        self.value = np.empty((n, 2))  # the two totals of each replicate, not a draw

    def _init_scan(self, m):
        self.done = np.zeros((2, m), dtype=bool)
        self.total = np.zeros((2, m), dtype=np.intp)
        self.state += ["done", "total"]

    def _restart(self, which, s):
        pass  # a fresh replicate waits for the next step like any other lane

    def _step(self, s):
        if self._handing_off():
            for j in range(len(self.key)):
                self._finish_scalar(j)
            return
        rng = self.rng
        kappa = self.ceiling
        mean = 1.0 / kappa
        gap = self.gap
        left = ~self.done  # the scans still to accept
        left1, left2 = left
        # normals per short iteration: the proposal and a triple per scan
        stride = 1 + 3 * left.sum(axis=0)
        # the iterations whose draws, a second point's included, lie in the blocks
        fit = np.minimum(np.minimum((rng.left(NORMAL) - 3) // stride,
                                    (rng.left(EXPONENTIAL) - 1) // 2), rng.left(UNIFORM) - 1)
        ok = _STEP < fit
        proposal = _STEP * stride  # (iterations, lanes): each proposal's normal
        g = rng.peek(NORMAL, proposal)
        n = rng.peek(NORMAL, proposal + _NORMALS)
        e = rng.peek(EXPONENTIAL, _CLIMBS)
        with np.errstate(divide="ignore", invalid="ignore"):
            g2 = g * g
            T = (gap * gap) / g2
            t0 = mean * e[0]
            t1 = t0 + mean * e[1]
            h0, h1 = kappa * rng.peek(UNIFORM, _UNIFORMS)
            fine = ok & (t0 <= T) & (g2 > 0.0)
            # the time-ordered scan's first point, between the pins at 0 and T,
            # and its second point, between the first and T
            value1, tested1 = bisect_lanes(0.0, 0.0, T, 0.0, t0, n[0:3])
            value2, tested2 = bisect_lanes(t0, value1, T, 0.0, t1, n[3:6])
            # the image of the first point, after the first point if its scan ran
            u = h0 * T / kappa
            lo = left1 & (u > t0)
            hi = left1 ^ lo
            tl = np.where(lo, t0, 0.0)
            tr = np.where(hi, t0, T)
            vl = np.where(lo, value1, 0.0)
            vr = np.where(hi, value1, 0.0)
            value3, tested3 = bisect_lanes(tl, vl, tr, vr, u, np.where(left1, n[3:6], n[0:3]))
            # the image of the first point after the first two points
            far = u > t1
            value4, tested4 = bisect_lanes(np.where(far, t1, tl), np.where(far, value2, vl),
                                           np.where(hi | far, tr, t1),
                                           np.where(hi | far, vr, value2), u, n[6:9])
            # a point within 1e-15 of a knot draws no bridge value: not short
            tested = np.stack((tested1, tested3, tested2, tested4))
            tested[1] &= tested[0] | ~left1
            tested[2] &= tested[0]
            tested[3] &= tested[2]
            tested &= left[_SCAN_OF_POINT, None] & fine
            drift = np.stack((t0, u, t1, u)) * gap / T
            y = self.level - _bessel(drift, np.stack((value1, value3, value2, value4), axis=1))
            image = t0 * kappa / T
            hit = self._thin(y, np.stack((h0, image, h1, image)), tested)
        out1 = t1 > T
        out2 = t1 + mean * e[2] > T
        # short: the scans left end at the first point and its image, or (two)
        # the time-ordered one at the second point and the other at the image
        end1 = tested[0] & (hit[0] | out1)
        end2 = tested[1] & (hit[1] | out1)
        short = (end1 | ~left1) & (end2 | ~left2)
        # with two points in the feed, the image scan ends at its first on a hit only
        two = tested[2] & ~hit[0] & ~out1 & (hit[2] | out2) & (tested[3] & hit[3] | ~left2)
        passed = np.stack((end1 & out1 & ~hit[0], end2 & out1 & ~hit[1]))
        stop = short & passed.any(axis=0)
        # iterations kept: the leading short ones, and then one that is two
        # points long, has an empty feed or accepts a scan
        kept = np.logical_and.accumulate(short & ~stop, axis=0).sum(axis=0)
        last = _STEP == kept
        ends = (stop & last).any(axis=0)
        twos = (two & last).any(axis=0)
        void = (ok & (t0 > T) & last).any(axis=0)
        full = kept + ends
        self.total += left * (7 * full + 2 * void)
        self.total[0] += 12 * twos
        self.total[1] += 7 * (twos & left2)
        self.done |= left & (void | (passed & last).any(axis=1))
        self.done[0] |= (two & out2 & ~hit[2] & last).any(axis=0)
        self.rejections += full + twos + void
        rng.skip(NORMAL, full * stride + twos * (stride + 3) + void)
        rng.skip(EXPONENTIAL, 2 * full + 3 * twos + void)
        rng.skip(UNIFORM, full + 2 * twos)
        ends |= twos | void
        # the iteration after those kept, where it is not short or its draws
        # cross the end of a block, runs on the scalar kernel
        finished = self.done[0] & self.done[1]
        lanes = (~finished & ~ends & (kept < _AHEAD)).nonzero()[0]
        if lanes.size:
            ran = []
            for j, done in zip(lanes.tolist(), self.done[:, lanes].T.tolist()):
                stream = rng.lane(j)
                ran.append(_coupled_iteration(self.plan, stream, *done))
                stream.commit()
            done1, done2, cost1, cost2 = zip(*ran)
            self.done[:, lanes] = done1, done2
            self.total[:, lanes] += cost1, cost2
            self.rejections[lanes] += 1
            finished[lanes] = self.done[0, lanes] & self.done[1, lanes]
        self.rejections -= finished  # the last iteration of a replicate is no rejection
        limit = self.plan.max_iterations
        if (self.rejections >= limit).any():
            raise BudgetError(f"no acceptance within {limit} iterations")
        lanes = finished.nonzero()[0]
        if lanes.size:
            self._accept(lanes, s)

    def _close(self, lanes, s):
        self.value[self.key[lanes]] = self.total[:, lanes].T
        self.total[:, lanes] = 0
        self.done[:, lanes] = False

    def _finish_scalar(self, j):
        key = int(self.key[j])
        done1, done2 = self.done[:, j].tolist()
        total1, total2 = self.total[:, j].tolist()
        resume = (done1, done2, total1, total2, int(self.rejections[j]))
        self.value[key] = _coupled_totals(self.plan, self.rng.lane(j), resume)
        self._kill(j)

    def _result(self):
        return self.value


def _delta_totals(plan, n, stream):
    """Both scans' totals of replicates 0..n-1, replicate rep on ``stream.substream(rep)``."""
    return np.asarray(_run_batch(_CoupledLanes, _coupled_totals, plan, n, stream, 0),
                      dtype=float)


def delta_compare(config, n, stream):
    """Replicated cost difference N2 - N1 between the two thinning mechanizations.

    Replicate rep runs on ``stream.substream(rep)``; ``stream`` must be a
    RandomStream, as for ``sample_batch``.  From _LANE_MIN replicates on
    they run on the lane kernel, which gives the scalar totals.
    """
    if n < 1:
        raise ConfigError(f"delta_compare needs n >= 1 replicates, got {n}")
    plan = _prepare(config)
    if config.variant not in ("a1", "a2") or config.split_k != 1 or config.rho is not None:
        raise ConfigError("delta_compare runs on the plain a1/a2 configuration")
    totals = _delta_totals(plan, n, stream)
    totals1 = np.ascontiguousarray(totals[:, 0])
    totals2 = np.ascontiguousarray(totals[:, 1])
    deltas = totals2 - totals1
    mean = float(deltas.mean())
    std = float(deltas.std(ddof=1)) if n > 1 else 0.0
    t_stat = mean / (std / math.sqrt(n)) if std > 0 else 0.0
    mean_n1 = float(totals1.mean())
    return DeltaReport(mean, std, n, t_stat,
                       mean / mean_n1 if mean_n1 > 0 else math.nan,
                       mean_n1, float(totals2.mean()))


# ---------------------------------------------------------------------------
# Euler-Maruyama oracle
# ---------------------------------------------------------------------------


def em_fpt_oracle(model, x, L, t_max, step, n, stream):
    """Discretized first-passage times with the bridge crossing correction.

    Simulates Euler-Maruyama paths of the unit diffusion and flags a crossing
    either when a step ends at or above L or, with probability
    exp(-2 (L-X_i)(L-X_{i+1}) / step), when the pinned Brownian bridge between
    the endpoints would have touched L inside the step.  Returns the sorted
    crossing times, each at the right end of its step; paths alive at t_max
    are censored, so ``n - len(result)`` of them did not cross.
    """
    if not all(map(math.isfinite, (x, L, step, t_max))):
        raise ConfigError(f"em_fpt_oracle needs finite x, L, step and t_max, "
                          f"got {(x, L, step, t_max)}")
    if not (step > 0.0 and t_max > 0.0):
        raise ConfigError("em_fpt_oracle needs positive step and t_max")
    if not x < L:
        raise ConfigError(f"level L={L} must exceed the start x={x}")
    if not isinstance(n, Integral) or n < 0:
        raise ConfigError(f"em_fpt_oracle needs an integer n >= 0, got {n!r}")
    nsteps = int(math.ceil(t_max / step))
    b = model.b
    sqrt_h = math.sqrt(step)
    positions = np.full(n, float(x))
    alive = np.arange(n)
    crossing = np.full(n, np.nan)
    for i in range(nsteps):
        if len(alive) == 0:
            break
        xs = positions[alive]
        zs = stream.normals(len(alive))
        xnew = xs + np.asarray(b(xs), dtype=float) * step + sqrt_h * zs
        hit = xnew >= L
        below = ~hit
        if np.any(below):
            p_bridge = np.exp(-2.0 * (L - xs[below]) * (L - xnew[below]) / step)
            hit_below = stream.uniforms(int(below.sum())) < p_bridge
            hit[below] = hit_below
        t_now = (i + 1) * step
        crossing[alive[hit]] = t_now
        positions[alive] = xnew
        alive = alive[~hit]
    return np.sort(crossing[~np.isnan(crossing)])


# ---------------------------------------------------------------------------
# truncation distance bound and file outputs
# ---------------------------------------------------------------------------


def rho_distance_bound(model, x, L, rho):
    """Kolmogorov-distance bound 2 (p(L)-p(x)) / (p(L)-p(-rho)) for the frozen drift.

    This is the explicit two-barrier expression behind the truncation
    guarantee; it decays to 0 whenever the scale function diverges at -inf.
    """
    if not all(map(math.isfinite, (x, L, rho))):
        raise ConfigError(f"rho_distance_bound needs finite x, L and rho, got {(x, L, rho)}")
    if not rho > 0.0:
        raise ConfigError(f"rho must be positive, got {rho}")
    if not -rho < x <= L:
        raise ConfigError(f"the start x={x} must lie in (-rho, L] = ({-rho}, {L}]")
    try:
        p_level = eval_scale_p(model, L)
        p_start = eval_scale_p(model, x)
        p_cut = eval_scale_p(model, -rho)
    except NumericError as exc:
        raise NumericError(
            f"scale function not integrable to depth {rho}; try a smaller rho") from exc
    return 2.0 * (p_level - p_start) / (p_level - p_cut)


def histogram_export(values, bins, path):
    """Write a density-normalized histogram as CSV rows (bin_left, bin_right, density)."""
    bins = int(_whole_numbers(bins, f"bins ({bins})"))
    values = _finite_sample(values, "histogram_export")
    density, edges = np.histogram(values, bins=bins, density=True)
    if len(values) == 1:
        # degenerate support: histogram of a single point over its unit-width bin
        edges = np.array([values[0] - 0.5, values[0] + 0.5])
        density = np.array([1.0])
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "density"])
        for lo, hi, d in zip(edges[:-1], edges[1:], density):
            writer.writerow([f"{lo:.17g}", f"{hi:.17g}", f"{d:.17g}"])
    return path
