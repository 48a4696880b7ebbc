"""Closed-form references, goodness-of-fit machinery and efficiency reports.

Everything here sits outside the samplers' hot path and exists to check them:
inverse-Gaussian and reflection-principle references for drifted/driftless
Brownian motion, exact Kolmogorov-Smirnov distances, the iteration-count
identities, a coupled comparator for the two thinning mechanizations, and an
Euler-Maruyama oracle with the Brownian-bridge crossing correction for models
without a closed form.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sstats

from .bridge import BridgeSkeleton, bisect_insert
from .drift import eval_beta, eval_scale_p, gamma_fn
from .errors import BudgetError, ConfigError, FptsimError, NumericError
from .rng import _brownian_fpt_value
from .samplers import _FIELD_NEG_TOL, _FIELD_POS_TOL, _field_breach, validate_config


# ---------------------------------------------------------------------------
# sample containers
# ---------------------------------------------------------------------------


@dataclass
class SampleSet:
    """Draw values plus their run statistics and a provenance fingerprint."""

    values: np.ndarray
    stats: list
    fingerprint: str
    n_censored: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.stats and len(self.stats) != len(self.values):
            raise FptsimError("values and stats length mismatch")

    def __len__(self):
        return len(self.values)

    @classmethod
    def from_draws(cls, draws, fingerprint=""):
        return cls(np.array([d.value for d in draws]),
                   [d.stats for d in draws], fingerprint)

    def iterations(self):
        return np.array([s.iterations for s in self.stats], dtype=float)

    def total_points(self):
        return np.array([s.total_points for s in self.stats], dtype=float)


# ---------------------------------------------------------------------------
# closed-form references
# ---------------------------------------------------------------------------


def ig_pdf(t, gap, mu_drift):
    """Hitting-time density of Brownian motion with drift mu through a level gap away."""
    t = np.asarray(t, dtype=float)
    out = gap / np.sqrt(2.0 * math.pi * t**3) * np.exp(-((gap - mu_drift * t) ** 2) / (2.0 * t))
    return out if out.ndim else float(out)

def ig_cdf(t, gap, mu_drift):
    """Matching CDF via the standard two-Gaussian-CDF composition for IG laws."""
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


def ks_statistic(values, cdf):
    """Exact sup-distance between the empirical CDF of values and a reference CDF."""
    values = np.sort(np.asarray(values, dtype=float))
    n = len(values)
    if n == 0:
        raise ValueError("ks_statistic needs a non-empty sample")
    ref = np.asarray(cdf(values), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - ref), np.max(ref - (grid - 1.0 / n))))


def two_sample_ks(a, b):
    """Exact two-sample sup-distance, evaluated at every jump point."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("two_sample_ks needs non-empty samples")
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


def iteration_identity_check(samples, model, x, L, gamma0=0.0, kappa=None):
    """Compare mean(I) against its identity and the exp((L-x) sqrt(2 kappa)) bound.

    ``samples`` is either a SampleSet carrying run statistics or a bare array
    of iteration counts.
    """
    if isinstance(samples, SampleSet):
        if not samples.stats:
            raise ValueError("iteration_identity_check needs run statistics")
        iters = samples.iterations()
    else:
        iters = np.asarray(samples, dtype=float)
        if iters.size == 0:
            raise ValueError("iteration_identity_check needs iteration counts")
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


def geometric_iteration_gof(iterations, min_expected=5.0):
    """Chi-square goodness of fit of iteration counts against Geometric(p_hat).

    p_hat is fitted by the sample mean, so the chi-square loses one extra
    degree of freedom.  Returns (chi2, dof, p_value).
    """
    iters = np.asarray(iterations, dtype=int)
    n = len(iters)
    if n == 0 or iters.min() < 1:
        raise ValueError("iteration counts must be >= 1")
    p_hat = 1.0 / float(iters.mean())
    # group the geometric support into cells with enough expected mass
    cells = []
    k = 1
    acc_prob = 0.0
    start = 1
    while True:
        prob_k = p_hat * (1.0 - p_hat) ** (k - 1)
        acc_prob += prob_k
        tail = (1.0 - p_hat) ** k
        if n * tail < min_expected:
            cells.append((start, None, acc_prob + tail))
            break
        if n * acc_prob >= min_expected:
            cells.append((start, k, acc_prob))
            start = k + 1
            acc_prob = 0.0
        k += 1
    observed = []
    expected = []
    for lo, hi, prob in cells:
        if hi is None:
            observed.append(int(np.sum(iters >= lo)))
        else:
            observed.append(int(np.sum((iters >= lo) & (iters <= hi))))
        expected.append(n * prob)
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    dof = max(len(cells) - 2, 1)
    return chi2, dof, float(sstats.chi2.sf(chi2, dof))


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


class _PointFeed:
    """Lazily materialized Poisson points on [0, T] x [0, kappa], index order.

    Each scan walks the points by index and stops at its first hit, so only
    the prefix either scan actually visits is ever generated; the heavy tail
    of the proposal T never forces a full enumeration of the rectangle.
    """

    __slots__ = ("stream", "T", "kappa", "mean", "times", "heights", "next_t", "done")

    def __init__(self, stream, T, kappa):
        self.stream = stream
        self.T = T
        self.kappa = kappa
        self.mean = 1.0 / kappa
        self.times = []
        self.heights = []
        self.next_t = stream.exponential(self.mean)
        self.done = self.next_t > T

    def has(self, k):
        while not self.done and len(self.times) <= k:
            self.times.append(self.next_t)
            self.heights.append(self.stream.uniform(self.kappa))
            self.next_t += self.stream.exponential(self.mean)
            self.done = self.next_t > self.T
        return k < len(self.times)


def _coupled_scan(feed, field_at, image):
    """One scan over the shared points; returns (accepted, variates_consumed).

    The time-ordered scan tests the points (t_k, h_k), the height-ordered one
    their images (h_k T/kappa, t_k kappa/T).  Variate accounting mirrors the
    native engines: 1 for the initial exponential and a 5-scalar bundle per
    tested point.  A field outside the certified [0, kappa] raises the
    engines' breach error.
    """
    T = feed.T
    kappa = feed.kappa
    lo = -_FIELD_NEG_TOL
    hi = kappa + _FIELD_POS_TOL
    k = 0
    while feed.has(k):
        time, height = feed.times[k], feed.heights[k]
        if image:
            time, height = height * T / kappa, time * kappa / T
        f = field_at(time)
        if not lo <= f <= hi:  # written so that a NaN field is a breach too
            raise _field_breach(f, kappa)
        if height <= f:
            return False, 1 + 5 * (k + 1)
        k += 1
    return True, 1 + 5 * len(feed.times)


def _coupled_totals(config, stream):
    """One replicate: total variate counts of both scans on shared randomness.

    Per iteration both mechanizations consume the same realization: the
    time-ordered scan reads the points (t_k, h_k) natively; the height-ordered
    scan reads their images (h_k T/kappa, t_k kappa/T), which is again the
    rectangle's Poisson process with the roles of the axes exchanged (and the
    image of the k-th point in time order is the k-th point in height order,
    so both scans walk the same index sequence).  Bridge values come from one
    shared skeleton so the runs stay tightly coupled; each run keeps its own
    acceptance decision, preserving its marginal law.
    """
    gap = config.gap
    level = config.L
    kappa = config.cert.kappa
    gamma = gamma_fn(config.model)
    done1 = done2 = False
    n1 = n2 = 0
    i1 = i2 = 0
    it = 0
    while not (done1 and done2):
        it += 1
        if it > config.max_iterations:
            raise BudgetError(f"coupled comparator exceeded {config.max_iterations} iterations")
        T = _brownian_fpt_value(stream, gap)
        if kappa <= 0.0:
            # empty thinning domain: both scans accept outright, zero variates
            if not done1:
                i1 += 1
                done1 = True
            if not done2:
                i2 += 1
                done2 = True
            break
        feed = _PointFeed(stream, T, kappa)
        skel = BridgeSkeleton(T, gap)

        def field_at(time):
            if time <= 0.0:
                value = (0.0, 0.0, 0.0)
            else:
                value = bisect_insert(skel, time, stream)
            rx = time * gap / T + value[0]
            r = math.sqrt(rx * rx + value[1] ** 2 + value[2] ** 2)
            return gamma(level - r)

        if not done1:
            i1 += 1
            done1, cost = _coupled_scan(feed, field_at, image=False)
            n1 += cost
        if not done2:
            i2 += 1
            done2, cost = _coupled_scan(feed, field_at, image=True)
            n2 += cost
    return i1 + n1, i2 + n2


def delta_compare(config, n, stream):
    """Replicated cost difference N2 - N1 between the two thinning mechanizations."""
    validate_config(config)
    if config.variant not in ("a1", "a2") or config.split_k != 1 or config.rho is not None:
        raise ConfigError("delta_compare runs on the plain a1/a2 configuration")
    totals1 = np.empty(n)
    totals2 = np.empty(n)
    for rep in range(n):
        totals1[rep], totals2[rep] = _coupled_totals(config, stream.substream(rep))
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
    the endpoints would have touched L inside the step.  Crossing times are
    reported at the right end of the step; paths alive at t_max are censored
    (count reported, values excluded).
    """
    if not (step > 0.0 and t_max > 0.0):
        raise ConfigError("em_fpt_oracle needs positive step and t_max")
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
    crossed = crossing[~np.isnan(crossing)]
    return SampleSet(np.sort(crossed), [],
                     f"em-oracle:{model.label()},x={x},L={L},step={step},n={n}",
                     n_censored=int(len(alive)))


# ---------------------------------------------------------------------------
# truncation distance bound and file outputs
# ---------------------------------------------------------------------------


def rho_distance_bound(model, x, L, rho):
    """Kolmogorov-distance bound 2 (p(L)-p(x)) / (p(L)-p(-rho)) for the frozen drift.

    This is the explicit two-barrier expression behind the truncation
    guarantee; it decays to 0 whenever the scale function diverges at -inf.
    """
    if not rho > 0.0:
        raise ConfigError(f"rho must be positive, got {rho}")
    try:
        p_level = eval_scale_p(model, L)
        p_start = eval_scale_p(model, x)
        p_cut = eval_scale_p(model, -rho)
    except NumericError as exc:
        raise NumericError(
            f"scale function overflowed at depth {rho}; try a smaller rho") from exc
    return 2.0 * (p_level - p_start) / (p_level - p_cut)


def histogram_export(samples, bins, path):
    """Write a density-normalized histogram as CSV rows (bin_left, bin_right, density)."""
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    values = np.asarray(samples.values if isinstance(samples, SampleSet) else samples,
                        dtype=float)
    if len(values) == 0:
        raise ValueError("histogram_export needs a non-empty sample")
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


def xi_normalization(model, x, L):
    """The acceptance mass Xi = exp{-(beta(L)-beta(x))}; 1/mean(I) estimates it."""
    return math.exp(-(eval_beta(model, L) - eval_beta(model, x)))
