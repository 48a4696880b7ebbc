"""Drift models for unit diffusions and the scalar fields derived from them.

A :class:`DriftModel` supplies the drift ``b`` and its derivative ``b_prime``
on the half-line up to the target level.  Everything the samplers need is
derived from those two callables:

* ``beta(y)  = int_0^y b(u) du``            (log of the Girsanov mean weight)
* ``p(y)     = int_0^y exp(-beta(u)) du``   (scale function, recurrence probe)
* ``gamma(y) = (b(y)^2 + b'(y)) / 2``       (the thinning intensity field)

Models come from a small fixed catalog (plus a custom-callable hook); there
is deliberately no expression parser so the numerical core stays auditable.
Catalog entries carry closed-form ``beta`` and a fast scalar ``gamma`` for
the samplers' inner loop; both are cross-checked against the generic
compositions in the test suite.

Importing this module, certifying bounds, evaluating the catalog's fields, the
Lamperti reduction and the recurrence diagnostic load numpy only.  scipy's
``quad`` is imported by the beta and scale-function quadratures, when they are
called for a model without a closed-form beta.  The Lamperti reduction takes
closed-form callables, ``eta_inv`` among them, and composes them with numpy.

Certification walks its grid in chunks of _GRID_CHUNK points and keeps only
the grid's extremes and its 32 highest and 32 lowest turning points, so the
scan's memory is O(chunk) whatever the grid's length or the field.  Those
64 turning points are polished on refined grids of the same vectorised field
(:func:`_refine`): 65 points within a grid step of each, then 32 times
narrower around the best, until the spacing is below 1e-12.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ModelError, NumericError

_CERT_TOL = 1e-9              # slack allowed before a scan point counts as a violation
_QUAD_TOL = 1e-10             # absolute tolerance of the beta quadrature
_GRID_CHUNK = 1 << 14         # grid points per numpy call: 128 KiB per array, the scan's O(chunk) memory
_POLISHED = 32                # turning points polished at each end of gamma's range
_GRID_MAX = 10**8             # most grid points one scan may take (the default grid has ~3e6)


# ---------------------------------------------------------------------------
# model container and catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftModel:
    """Drift of a unit diffusion on (-inf, L].

    ``b`` and ``b_prime`` accept floats or numpy arrays.  ``beta_closed`` and
    ``gamma_scalar`` are optional closed forms used when available (catalog
    entries always provide them); they must agree with the generic
    compositions, which the certification and test suites check.
    """

    kind: str
    params: dict
    b: Callable
    b_prime: Callable
    beta_closed: Optional[Callable] = None
    gamma_scalar: Optional[Callable] = None
    inner: Optional["DriftModel"] = None

    def label(self):
        if not self.params:
            return self.kind
        inside = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.kind}:{inside}"


def constant_drift(mu=1.0):
    mu = float(mu)
    return DriftModel(
        kind="constant",
        params={"mu": mu},
        b=lambda y: mu + 0.0 * np.asarray(y, dtype=float),
        b_prime=lambda y: 0.0 * np.asarray(y, dtype=float),
        beta_closed=lambda y: mu * y,
        gamma_scalar=lambda y, _g=0.5 * mu * mu: _g,
    )


def sine_drift():
    """b(y) = 2 + sin(y); gamma stays in [0, 5]."""
    def gamma(y):
        s = 2.0 + math.sin(y)
        return (s * s + math.cos(y)) / 2.0

    return DriftModel(
        kind="sine",
        params={},
        b=lambda y: 2.0 + np.sin(y),
        b_prime=lambda y: np.cos(y),
        beta_closed=lambda y: 2.0 * y + 1.0 - np.cos(y),
        gamma_scalar=gamma,
    )


def arctan_shift_drift():
    """b(y) = 1 + arctan(1 - y); gamma >= 0 on (-inf, 1]."""
    c = math.pi / 4.0 - 0.5 * math.log(2.0)

    def beta(y):
        v = 1.0 - y
        return y - v * np.arctan(v) + 0.5 * np.log1p(v * v) + c

    def gamma(y):
        v = 1.0 - y
        s = 1.0 + math.atan(v)
        return (s * s - 1.0 / (1.0 + v * v)) / 2.0

    return DriftModel(
        kind="arctan-shift",
        params={},
        b=lambda y: 1.0 + np.arctan(1.0 - y),
        b_prime=lambda y: -1.0 / (1.0 + (1.0 - y) ** 2),
        beta_closed=beta,
        gamma_scalar=gamma,
    )


def neg_arctan_drift():
    """b(y) = -arctan(y); gamma in [-1/2, pi^2/8]."""
    def gamma(y):
        a = math.atan(y)
        return (a * a - 1.0 / (1.0 + y * y)) / 2.0

    return DriftModel(
        kind="neg-arctan",
        params={},
        b=lambda y: -np.arctan(y),
        b_prime=lambda y: -1.0 / (1.0 + y * y),
        beta_closed=lambda y: -y * np.arctan(y) + 0.5 * np.log1p(y * y),
        gamma_scalar=gamma,
    )


def ou_drift(alpha=0.3, beta=1.0):
    """Ornstein-Uhlenbeck drift b(y) = -alpha*y + beta (unbounded below)."""
    alpha = float(alpha)
    beta = float(beta)

    def gamma(y):
        s = -alpha * y + beta
        return (s * s - alpha) / 2.0

    return DriftModel(
        kind="ou",
        params={"alpha": alpha, "beta": beta},
        b=lambda y: -alpha * np.asarray(y, dtype=float) + beta,
        b_prime=lambda y: -alpha + 0.0 * np.asarray(y, dtype=float),
        beta_closed=lambda y: -0.5 * alpha * y * y + beta * y,
        gamma_scalar=gamma,
    )


def custom_drift(b, b_prime, beta_closed=None, name="custom"):
    """Wrap user callables; they must be finite on the working half-line."""
    return DriftModel(kind=name, params={}, b=b, b_prime=b_prime, beta_closed=beta_closed)


def truncate_drift(model, rho):
    """Freeze the drift below -rho so it flattens to the bounded limit b(-rho).

    Below the cut the drift continues as
    ``b(-rho) + b'(-rho) (y+rho) exp(y+rho)``, which is C^1 at the joint and
    tends to ``b(-rho)`` at -infinity.  Derivative and (when the inner model
    has one) closed-form beta are the exact analytic expressions of that
    formula.
    """
    if not rho > 0.0:
        raise ConfigError(f"truncation depth rho must be positive, got {rho}")
    rho = float(rho)
    b_cut = float(model.b(-rho))
    bp_cut = float(model.b_prime(-rho))
    if not (math.isfinite(b_cut) and math.isfinite(bp_cut)):
        raise ModelError(f"inner drift not finite at the cut point {-rho}")

    def join(inner, tail):
        """``inner`` from the cut up, below it ``tail(s, exp(s))`` at s = y + rho."""
        def f(y):
            y = np.asarray(y, dtype=float)
            s = y + rho
            # the tail first: its temporaries are freed before the inner branch makes its own
            below = tail(s, np.exp(np.minimum(s, 0.0)))
            out = np.where(y >= -rho, inner(y), below)
            return out if out.ndim else float(out)
        return f

    b = join(model.b, lambda s, e: b_cut + bp_cut * s * e)
    b_prime = join(model.b_prime, lambda s, e: bp_cut * e * (1.0 + s))
    beta_closed = None
    if model.beta_closed is not None:
        beta_cut = float(model.beta_closed(-rho))
        beta_closed = join(model.beta_closed, lambda s, e: (
            beta_cut + b_cut * s + bp_cut * ((s - 1.0) * e + 1.0)))
    inner_gamma = gamma_fn(model)

    def gamma_scalar(y):
        if y >= -rho:
            return inner_gamma(y)
        s = y + rho
        e = math.exp(s)
        bv = b_cut + bp_cut * s * e
        return (bv * bv + bp_cut * e * (1.0 + s)) / 2.0

    return DriftModel(
        kind="truncated",
        params={**model.params, "rho": rho},
        b=b,
        b_prime=b_prime,
        beta_closed=beta_closed,
        gamma_scalar=gamma_scalar,
        inner=model,
    )


_CATALOG = {
    "constant": constant_drift,
    "sine": sine_drift,
    "arctan-shift": arctan_shift_drift,
    "neg-arctan": neg_arctan_drift,
    "ou": ou_drift,
}


def model_from_spec(spec):
    """Parse a CLI model string ``kind:param=value,...`` (e.g. ``ou:alpha=0.3,beta=1``)."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in _CATALOG:
        raise ConfigError(f"unknown model kind {kind!r}; choose from {sorted(_CATALOG)}")
    kwargs = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ConfigError(f"malformed model parameter {item!r} in {spec!r}")
            try:
                kwargs[key.strip()] = float(value)
            except ValueError as exc:
                raise ConfigError(f"non-numeric model parameter {item!r}") from exc
    try:
        return _CATALOG[kind](**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for model {kind!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# derived scalar fields
# ---------------------------------------------------------------------------


def eval_gamma(model, y):
    """(b^2 + b')/2 at y; ModelError if the drift is not finite there."""
    return _gamma_of(y, float(model.b(y)), float(model.b_prime(y)))


def _gamma_of(y, bv, bp):
    """(bv^2 + bp)/2, the field at y where b = bv and b' = bp; ModelError unless both are finite."""
    if not (math.isfinite(bv) and math.isfinite(bp)):
        raise ModelError(f"drift evaluation not finite at y={y} (b={bv}, b'={bp}); "
                         "the bound certificate does not hold there")
    return (bv * bv + bp) / 2.0


def gamma_fn(model):
    """Scalar gamma of a model: its closed form, else :func:`eval_gamma` on it."""
    if model.gamma_scalar is not None:
        return model.gamma_scalar
    return partial(eval_gamma, model)


def _integrate(f, a, b, epsabs=_QUAD_TOL, epsrel=0.0, limit=50):
    """int_a^b f(u) du by scipy ``quad``; NumericError if it reports non-convergence."""
    from scipy.integrate import quad
    value, _, _, *trouble = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                                 full_output=1)
    if trouble:
        raise NumericError(f"quadrature did not converge on [{a}, {b}]: "
                           f"{trouble[0].splitlines()[0]}")
    return value


def eval_beta(model, y):
    """beta(y) = int_0^y b(u) du, closed form when the model carries one."""
    if model.beta_closed is not None:
        return float(model.beta_closed(y))
    return _integrate(lambda u: float(model.b(u)), 0.0, float(y))


def eval_scale_p(model, y):
    """Scale function p(y) = int_0^y exp(-beta(u)) du."""
    y = float(y)
    if y == 0.0:
        return 0.0

    def integrand(u):
        return math.exp(-eval_beta(model, u))

    try:
        value = _integrate(integrand, 0.0, y, epsabs=1e-12, epsrel=1e-10, limit=400)
    except OverflowError as exc:
        raise NumericError(
            f"exp(-beta) overflowed while integrating to y={y}; try a smaller |y|") from exc
    if not math.isfinite(value):
        raise NumericError(
            f"scale-function integral not finite at y={y}; try a smaller |y|")
    return value


@dataclass(frozen=True)
class GammaField:
    """The thinning intensity gamma = (b^2 + b')/2 of a drift model."""

    source: DriftModel

    def eval_array(self, ys):
        ys = np.asarray(ys, dtype=float)
        return (np.asarray(self.source.b(ys)) ** 2 + np.asarray(self.source.b_prime(ys))) / 2.0


# ---------------------------------------------------------------------------
# Lamperti reduction
# ---------------------------------------------------------------------------


def lamperti_drift(b, b_prime, sigma, sigma_prime, sigma_second, eta_inv):
    """Reduce dX = b dt + sigma dB to a unit diffusion through the Lamperti map.

    ``eta_inv`` is the closed-form inverse of eta, an antiderivative of
    1/sigma; the caller maps its start and level through its own eta.  At
    ``w = eta_inv(z)`` the unit drift is ``b0 = b/sigma - sigma'/2`` and, by
    the chain rule with dw/dz = sigma, ``b0' = b' - b sigma'/sigma -
    sigma sigma''/2``.  Every callable takes numpy arrays.  ModelError names
    the first z where sigma(w) is not positive.  The scalar gamma maps z
    once and takes b0 and b0' from the same w and sigma(w); it gives what
    :func:`eval_gamma` gives, bit for bit, and raises the same errors.
    """
    def unit_b(w, s):
        return b(w) / s - 0.5 * sigma_prime(w)

    def unit_b_prime(w, s):
        return b_prime(w) - b(w) * sigma_prime(w) / s - 0.5 * s * sigma_second(w)

    def not_positive(s, z):
        return ModelError(f"sigma must be positive on the working interval; "
                          f"sigma(eta_inv(z))={s} at z={z}")

    def at(z, f):
        z = np.asarray(z, dtype=float)
        w = eta_inv(z)
        zs, s = np.broadcast_arrays(z, np.asarray(sigma(w), dtype=float))
        bad = ~(s > 0.0)
        if bad.any():
            raise not_positive(s[bad][0], zs[bad][0])
        out = np.broadcast_to(f(w, s), zs.shape).astype(float)
        return out if out.ndim else float(out)

    def gamma_scalar(z):
        z = float(z)
        w = eta_inv(z)
        s = float(sigma(w))
        if not s > 0.0:
            raise not_positive(s, z)
        return _gamma_of(z, float(unit_b(w, s)), float(unit_b_prime(w, s)))

    return DriftModel(
        kind="lamperti",
        params={},
        b=partial(at, f=unit_b),
        b_prime=partial(at, f=unit_b_prime),
        gamma_scalar=gamma_scalar,
    )


# ---------------------------------------------------------------------------
# bound certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    """Claimed bounds on gamma over [domain_hint, L].

    kappa is the upper bound, gamma0 the claimed lower bound (0 when none),
    m the magnitude of allowed negativity (conditional sampler only).
    """

    kappa: float
    gamma0: float = 0.0
    m: float = 0.0
    domain_hint: float = -1000.0

    def __post_init__(self):
        for name in ("kappa", "gamma0", "m", "domain_hint"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"certificate {name} must be finite, got {getattr(self, name)}")
        if self.kappa < 0.0 or self.gamma0 < 0.0 or self.m < 0.0:
            raise ConfigError("certificate constants must be non-negative")
        if self.gamma0 > self.kappa:
            raise ConfigError(f"gamma0={self.gamma0} exceeds kappa={self.kappa}")
        if self.gamma0 > 0.0 and self.m > 0.0:
            raise ConfigError("a certificate cannot claim both gamma0 > 0 and m > 0")


def default_domain_hint(level):
    """Left end of the certification scan grid used when the caller has no better hint."""
    return -1000.0 * (1.0 + abs(level))


@dataclass(frozen=True)
class CertificateReport:
    model_label: str
    claim: BoundCertificate
    level: float
    passed: bool
    worst_violation: float
    location: float
    analytic_kappa: Optional[float] = None

    def text(self):
        lines = [
            f"certificate check for {self.model_label} on [{self.claim.domain_hint:g}, {self.level:g}]",
            f"  claim: {-self.claim.m if self.claim.m > 0 else self.claim.gamma0:g}"
            f" <= gamma <= {self.claim.kappa:g}",
            f"  result: {'PASS' if self.passed else 'FAIL'}"
            f" (worst violation {self.worst_violation:.3e} at y={self.location:.6g})",
        ]
        if self.analytic_kappa is not None:
            lines.append(f"  analytic kappa for the truncated OU drift: {self.analytic_kappa:.6g}")
        return "\n".join(lines)


def truncated_ou_kappa(alpha, rho, beta):
    """Analytic gamma ceiling for the truncated OU drift."""
    return 0.5 * (alpha * rho + beta + alpha / math.e) ** 2 + alpha / (2.0 * math.e ** 2)


@dataclass(frozen=True)
class _GridScan:
    """The range of gamma that one pass over the grid lo, lo + step, ..., hi found."""

    lo: float
    hi: float
    gmin: float
    gmin_y: float             # where gmin occurs: its first grid point, or the refined one
    gmax: float
    gmax_y: float             # where gmax occurs: its first grid point, or the refined one


def _scan_grid(gamma, lo, hi, grid_step):
    """The range of gamma on the certification grid, walked in chunks so memory stays bounded."""
    if not grid_step > 0.0:
        raise ConfigError(f"grid_step must be positive, got {grid_step}")
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"certification grid [{lo}, {hi}] must have finite ends")
    if lo >= hi:
        raise ConfigError(f"domain_hint {lo} must lie below the level {hi}")
    span = (hi - lo) / grid_step
    if not span <= _GRID_MAX:
        raise ConfigError(f"certification grid [{lo}, {hi}] at step {grid_step} has more "
                          f"than {_GRID_MAX:.0e} points; raise grid_step or the domain hint")
    if lo + grid_step == lo:
        raise ConfigError(f"grid_step {grid_step} is below the float spacing at {lo}")
    n = int(math.ceil(span)) + 1
    gmin, gmax = math.inf, -math.inf
    gmin_y = gmax_y = lo
    tail_y = tail_g = np.empty(0)
    # rows gamma, grid index and y of the turning points of the sampled curve
    # kept so far: the _POLISHED highest, and the _POLISHED lowest
    high = low = np.empty((3, 0))
    for start in range(0, n, _GRID_CHUNK):
        idx = np.arange(start, min(start + _GRID_CHUNK, n))
        ys = np.minimum(lo + idx * grid_step, hi)
        gs = gamma.eval_array(ys)
        if not np.all(np.isfinite(gs)):
            bad = ys[~np.isfinite(gs)][0]
            raise ModelError(f"gamma not finite at y={bad}")
        k = int(np.argmin(gs))
        if gs[k] < gmin:
            gmin, gmin_y = float(gs[k]), float(ys[k])
        k = int(np.argmax(gs))
        if gs[k] > gmax:
            gmax, gmax_y = float(gs[k]), float(ys[k])
        # carry the last two points over so turning points at a chunk seam count
        ys_ext = np.concatenate((tail_y, ys))
        gs_ext = np.concatenate((tail_g, gs))
        d = np.diff(gs_ext)
        turn = np.where(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0] + 1
        found = np.stack((gs_ext[turn], turn + (start - len(tail_g)), ys_ext[turn]))
        high = _most_extreme(high, found, -1.0)
        low = _most_extreme(low, found, 1.0)
        tail_y = ys_ext[-2:]
        tail_g = gs_ext[-2:]
    kept = high.shape[1]
    if kept:
        # the highest and lowest turning points, refined within a grid step,
        # replace the grid's extreme where they go strictly beyond it
        ys, gs = _refine(gamma, np.concatenate((high[2], low[2])),
                         np.repeat((-1.0, 1.0), kept), lo, hi, grid_step)
        k = int(np.argmax(gs[:kept]))
        if gs[k] > gmax:
            gmax, gmax_y = float(gs[k]), float(ys[k])
        k = kept + int(np.argmin(gs[kept:]))
        if gs[k] < gmin:
            gmin, gmin_y = float(gs[k]), float(ys[k])
    return _GridScan(lo, hi, gmin, gmin_y, gmax, gmax_y)


def _most_extreme(kept, found, sign):
    """The _POLISHED columns of ``kept`` and ``found`` (rows gamma, grid index,
    y) with the least ``sign * gamma``, in that order, ties to the earlier
    grid point.  Merged chunk by chunk, this is ``sorted(points, key=sign *
    gamma)[:_POLISHED]`` of all the turning points in grid order."""
    both = np.concatenate((kept, found), axis=1)
    return both[:, np.lexsort((both[1], sign * both[0]))[:_POLISHED]]


def _refine(gamma, ys, sign, lo, hi, width):
    """Each point of ys moved to where ``sign * gamma`` is least near it, and gamma there.

    A round evaluates gamma on 65 points across +-width around every row's
    best point so far (clipped to [lo, hi]) and keeps the best of them; the
    next round searches 32 times narrower, i.e. one spacing either side of
    it.  The rounds stop once width is below 1e-12.
    """
    offsets = np.linspace(-1.0, 1.0, 65)
    rows = np.arange(len(ys))
    while width >= 1e-12:
        pts = np.clip(ys[:, None] + width * offsets, lo, hi)
        gs = gamma.eval_array(pts.ravel()).reshape(pts.shape)
        if not np.all(np.isfinite(gs)):
            raise ModelError(f"gamma not finite at y={pts[~np.isfinite(gs)][0]}")
        k = np.argmin(sign[:, None] * gs, axis=1)
        ys = pts[rows, k]
        width /= 32.0
    return ys, gs[rows, k]


def _certify_scan(gamma, claim, scan):
    """Judge the claimed bounds against the range a grid pass found."""
    lower = claim.gamma0 if claim.m == 0.0 else -claim.m
    # the worse violation, at the smaller y when the two tie
    candidates = ((scan.gmax - claim.kappa, scan.gmax_y), (lower - scan.gmin, scan.gmin_y))
    worst = max(v for v, _ in candidates)
    worst_y = min(y for v, y in candidates if v == worst)

    model = gamma.source
    analytic = None
    if model.kind == "truncated" and model.inner is not None and model.inner.kind == "ou":
        analytic = truncated_ou_kappa(model.params["alpha"], model.params["rho"],
                                      model.params["beta"])

    return CertificateReport(
        model_label=model.label(),
        claim=claim,
        level=scan.hi,
        passed=bool(worst <= _CERT_TOL),
        worst_violation=worst,
        location=worst_y,
        analytic_kappa=analytic,
    )


def certify_bounds(gamma, claim, grid_step=1e-3, *, level):
    """Judge the claimed bounds against the range of gamma on [domain_hint, level].

    The range is :func:`scan_gamma_range`'s on the same grid.  Failures are
    reported, not raised.
    """
    return _certify_scan(gamma, claim, _scan_grid(gamma, claim.domain_hint, level, grid_step))


def scan_gamma_range(model, level, lo=None, grid_step=1e-3):
    """(min, max) of gamma on a scan grid: the range certification judges claims against."""
    if lo is None:
        lo = default_domain_hint(level)
    scan = _scan_grid(GammaField(model), lo, level, grid_step)
    return scan.gmin, scan.gmax


# ---------------------------------------------------------------------------
# recurrence diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    verdict: str
    depths: tuple
    log_abs_p: tuple
    v_deepest: Optional[float]


def _from_zero(ys, fs):
    """int_{ys[i]}^0 f for each point of a grid ys that ends at 0, by the trapezoid rule."""
    out = np.zeros_like(ys)
    out[:-1] = np.cumsum((0.5 * (fs[1:] + fs[:-1]) * np.diff(ys))[::-1])[::-1]
    return out


def _beta_grid(model, depth):
    """(ys, beta(ys)) on the probes' grid of [-depth, 0]: the closed form, else a trapezoid of b."""
    ys = np.linspace(-depth, 0.0, int(min(400001, max(4001, 40 * depth))) | 1)
    if model.beta_closed is not None:
        return ys, np.asarray(model.beta_closed(ys), dtype=float)
    return ys, -_from_zero(ys, np.asarray(model.b(ys), dtype=float))


def _log_abs_p_neg(model, depth):
    """log |p(-depth)| computed in log space so exp(-beta) cannot overflow."""
    ys, betas = _beta_grid(model, depth)
    neg = -betas
    m = float(neg.max())
    integral = float(np.trapezoid(np.exp(neg - m), ys))
    return m + math.log(integral)


def recurrence_diagnostic(model, probe_depth=10.0):
    """Heuristic check that the scale function diverges at -inf (so tau_L < inf).

    Advisory only: probes |p| at geometrically growing depths and looks for
    sustained growth; when p plateaus, probes whether v stops growing instead.
    Never blocks sampling.
    """
    if not 0.0 < probe_depth < math.inf:
        raise ConfigError(f"probe_depth must be positive and finite, got {probe_depth}")
    depths = tuple(probe_depth * (10.0 ** j) for j in range(3))
    try:
        logs = tuple(_log_abs_p_neg(model, d) for d in depths)
    except (ModelError, NumericError, OverflowError, ValueError):
        return RecurrenceReport("inconclusive (numeric trouble probing p)", depths, (), None)
    if not all(map(math.isfinite, logs)):
        return RecurrenceReport("inconclusive (numeric trouble probing p)", depths, logs, None)

    growing = logs[2] > logs[1] > logs[0]
    substantial = logs[2] - logs[0] > math.log(5.0)
    if growing and substantial:
        return RecurrenceReport(
            "recurrent: yes (heuristic); p appears to diverge to -inf",
            depths, logs, None)

    # p plateaus: fall back to the v criterion (bounded v also implies tau < inf).
    # v at a finite depth is always finite, so look at its growth between probes:
    # v(-d) = int_{-d}^0 2 exp(-beta(s)) int_s^0 exp(beta(z)) dz ds, read at d0 and
    # 2 d0 (the middle and the start of a grid with an odd number of points)
    d0 = min(probe_depth, 10.0)
    try:
        ys, betas = _beta_grid(model, 2.0 * d0)
        with np.errstate(over="ignore", invalid="ignore"):
            v = _from_zero(ys, 2.0 * np.exp(-betas) * _from_zero(ys, np.exp(betas)))
        v1, v2 = float(v[len(v) // 2]), float(v[0])
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise NumericError("v overflowed")
    except Exception:
        return RecurrenceReport(
            "inconclusive (p plateaus and v could not be probed)", depths, logs, None)
    if abs(v2 - v1) < 1e-3 * (1.0 + abs(v1)):
        verdict = "recurrent: yes (heuristic); p plateaus but v appears bounded"
    else:
        verdict = "recurrent: no (heuristic); p plateaus and v keeps growing"
    return RecurrenceReport(verdict, depths, logs, v2)
