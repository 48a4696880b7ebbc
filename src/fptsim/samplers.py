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

Cost accounting follows the elementary random variates: ``N_i`` counts the
scalar draws consumed by iteration i's thinning scan (a 3-d Gaussian counts
as three, each exponential and uniform as one), the proposals are counted
once each through the iteration count, and the headline cost figure is
``N_sigma = I + sum_i N_i``.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .bridge import BridgeSkeleton, bisect_insert
from .drift import BoundCertificate, DriftModel, gamma_fn, truncate_drift
from .errors import BudgetError, ConfigError, ModelError
from .rng import (_brownian_fpt_value, _inverse_gaussian_value,
                  _truncated_brownian_fpt_value)

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
    raise ModelError(
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
            _field_breach(f, ceiling)
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
            _field_breach(f, ceiling)
        if height <= f:
            return False, n
        height += e_next
    return True, n


# ---------------------------------------------------------------------------
# variants as data
# ---------------------------------------------------------------------------


def _brownian_proposal(gap, gamma0, t0):
    return lambda stream: _brownian_fpt_value(stream, gap)


def _inverse_gaussian_proposal(gap, gamma0, t0):
    mu = gap / math.sqrt(2.0 * gamma0)
    lam = gap * gap
    return lambda stream: _inverse_gaussian_value(stream, mu, lam)


def _truncated_proposal(gap, gamma0, t0):
    return lambda stream: _truncated_brownian_fpt_value(stream, gap, t0)


@dataclass(frozen=True)
class _Variant:
    """What sets one variant's rejection loop apart from another's.

    ``proposal(gap, gamma0, t0)`` builds the proposal draw of one slice;
    ``shifted`` thins gamma - gamma0 under the ceiling kappa - gamma0;
    ``lifted`` adds m*t0/T to the field and the ceiling (the a3 lift).
    """

    scan: Callable
    proposal: Callable
    shifted: bool = False
    lifted: bool = False


_VARIANTS = {
    "a1": _Variant(_thin_time_ordered, _brownian_proposal),
    "a2": _Variant(_thin_height_ordered, _brownian_proposal),
    "a1-shift": _Variant(_thin_time_ordered, _inverse_gaussian_proposal, shifted=True),
    "a2-shift": _Variant(_thin_height_ordered, _inverse_gaussian_proposal, shifted=True),
    "a3": _Variant(_thin_time_ordered, _truncated_proposal, lifted=True),
}
VARIANTS = tuple(_VARIANTS)


@dataclass(frozen=True)
class _Slice:
    """One sub-level passage: its gap, its target level and its proposal draw."""

    gap: float
    level: float
    propose: Callable


@dataclass(frozen=True)
class _Plan:
    """A validated config resolved to the data the rejection loop reads."""

    scan: Callable
    gamma: Callable
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
        slices.append(_Slice(hi - lo, hi, variant.proposal(hi - lo, gamma0, config.t0)))
    return _Plan(scan=variant.scan, gamma=gamma_fn(model), ceiling=cert.kappa - gamma0,
                 shift=gamma0, lift_mass=cert.m * config.t0 if variant.lifted else 0.0,
                 t0=config.t0, max_iterations=config.max_iterations,
                 slices=tuple(slices))


def _run_slice(plan, part, stream):
    """Rejection loop of one slice; returns the accepted T and the N_i list."""
    scan = plan.scan
    gamma = plan.gamma
    ceiling = plan.ceiling
    shift = plan.shift
    lift_mass = plan.lift_mass
    gap = part.gap
    level = part.level
    propose = part.propose
    points = []
    for _ in range(plan.max_iterations):
        T = propose(stream)
        lift = lift_mass / T
        accepted, n = scan(stream, T, gap, level, gamma, ceiling + lift, shift, lift)
        points.append(n)
        if accepted:
            if plan.t0 is not None and T > plan.t0:
                raise ModelError("conditional draw escaped its support (0, t0]")
            return T, points
    raise BudgetError(
        f"no acceptance within {plan.max_iterations} iterations",
        stats=RunStats(plan.max_iterations, tuple(points)))


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
    """
    plan = _prepare(config)
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
