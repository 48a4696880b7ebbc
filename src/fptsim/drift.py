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

This module loads numpy only.  Its one quadrature is trapezoid sums on grids
that end at 0: cumulative ones for the recurrence probes (:func:`_beta_grid`),
and Simpson's rule by one Richardson step for ``eval_beta`` and ``eval_scale_p``
(:func:`_simpson`).  The Lamperti reduction composes closed-form callables.

Certification proves gamma's range on [domain_hint, L] (:func:`_gamma_range`)
from the model's bound on |gamma''| (``DriftModel.curvature``: every catalog
drift and their truncations carry one; a custom or Lamperti drift must be
given one) by branch and bound (:func:`_branch_and_bound`): cells are halved
until none can beat the best value found by more than _BNB_TOL, so the
reported extremes are values gamma takes and no narrow spike between
evaluations can hide.  A model with no bound is refused with ConfigError.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ModelError, NumericError

_CERT_TOL = 1e-9              # slack allowed before a range value counts as a violation
_EXP_ZERO = -746.0            # exp(x) rounds to +0.0 for every x <= this (for x < -745.14 already)
_BNB_TOL = 1e-10              # a cell whose bound beats the best value found by no more than this is closed
_BNB_CELLS = 1 << 18          # most cells the branch and bound may hold open at once


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
    ``curvature`` bounds |gamma''| piecewise: sorted pieces ``((from_y,
    M2), ...)``, the first from -inf, each with M2 >= sup |gamma''| from its
    from_y up to the next one; gamma must be C^1 inside each piece.
    Certification proves the range of gamma from it, and refuses a model
    without one.  ConfigError for pieces that are not sorted from -inf or
    whose bound is not finite and non-negative.
    """

    kind: str
    params: dict
    b: Callable
    b_prime: Callable
    beta_closed: Optional[Callable] = None
    gamma_scalar: Optional[Callable] = None
    inner: Optional["DriftModel"] = None
    curvature: Optional[tuple] = None

    def __post_init__(self):
        if self.curvature is None:
            return
        pieces = tuple((float(y), float(m2)) for y, m2 in self.curvature)
        starts = [y for y, _ in pieces]
        if not (starts and starts[0] == -math.inf and starts == sorted(set(starts))
                and all(0.0 <= m2 < math.inf for _, m2 in pieces)):
            raise ConfigError(f"curvature must be pieces (from_y, M2) sorted from -inf, "
                              f"with finite M2 >= 0; got {pieces}")
        object.__setattr__(self, "curvature", pieces)

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
        curvature=((-math.inf, 0.0),),
    )


def sine_drift():
    """b(y) = 2 + sin(y); gamma stays in [0, 5].

    gamma'' = (-4 sin y + 2 cos 2y - cos y)/2, so |gamma''| <= 3.5.
    """
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
        curvature=((-math.inf, 3.5),),
    )


def _flat_tails(core, tail, centre):
    """Curvature pieces for a field with |gamma''| <= core, and <= tail(d)
    where |y - centre| >= d: the tail's bounds from 10 and 100 away, so that
    certification need not resolve a flat tail with the core's bound."""
    near, far = tail(10.0), tail(100.0)
    return ((-math.inf, far), (centre - 100.0, near), (centre - 10.0, core),
            (centre + 10.0, near), (centre + 100.0, far))


def arctan_shift_drift():
    """b(y) = 1 + arctan(1 - y); gamma >= 0 on (-inf, 1].

    In v = 1 - y, gamma'' = 2 (1 - v^2)/(1 + v^2)^3 - 2 v (1 + arctan v)/(1 + v^2)^2.
    The first term is at most 2 in size, |1 + arctan v| < 1 + pi/2 and
    |2 v|/(1 + v^2)^2 peaks at 9/(8 sqrt 3), at v^2 = 1/3; a fine grid finds
    |gamma''| at most 2.000 on y <= 1 (at y = 1) and 2.10 near y = 1.1.  For
    |v| >= d >= 1 the terms are at most 2/(1 + d^2)^2 and 2 (1 + pi/2)/d^3 in size.
    """
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
        curvature=_flat_tails(2.0 + 9.0 * (1.0 + math.pi / 2.0) / (8.0 * math.sqrt(3.0)),
                              lambda d: 2.0 / (1.0 + d * d) ** 2 + (2.0 + math.pi) / d ** 3, 1.0),
    )


def neg_arctan_drift():
    """b(y) = -arctan(y); gamma in [-1/2, pi^2/8].

    gamma'' = 2 (1 - y^2)/(1 + y^2)^3 - 2 y arctan(y)/(1 + y^2)^2: for y^2 <= 1
    the first term lies in [0, 2] and the second in [-1/2, 0], and for y^2 > 1
    both are negative and at most 1/2 in size, so |gamma''| <= 2.  For
    |y| >= d >= 1 they are at most 2/(1 + d^2)^2 and pi/d^3 in size.
    """
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
        curvature=_flat_tails(2.0, lambda d: 2.0 / (1.0 + d * d) ** 2 + math.pi / d ** 3, 0.0),
    )


def ou_drift(alpha=0.3, beta=1.0):
    """Ornstein-Uhlenbeck drift b(y) = -alpha*y + beta (unbounded below); gamma'' = alpha^2."""
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
        curvature=((-math.inf, alpha * alpha),),
    )


def custom_drift(b, b_prime, beta_closed=None, name="custom", curvature=None):
    """Wrap user callables; they must be finite on the working half-line.

    ``curvature`` is a piecewise bound on |gamma''| (see :class:`DriftModel`);
    without one the model samples under a caller's certificate but cannot
    be certified.
    """
    return DriftModel(kind=name, params={}, b=b, b_prime=b_prime, beta_closed=beta_closed,
                      curvature=curvature)


def truncate_drift(model, rho):
    """Freeze the drift below -rho so it flattens to the bounded limit b(-rho).

    Below the cut the drift continues as
    ``b(-rho) + b'(-rho) (y+rho) exp(y+rho)``, which is C^1 at the joint and
    tends to ``b(-rho)`` at -infinity.  Derivative and (when the inner model
    has one) closed-form beta are the exact analytic expressions of that
    formula.

    When the inner model bounds |gamma''|, so does the truncated one: the
    inner pieces from -rho up, and below it, with s = y + rho <= 0,
    gamma'' = b'^2 + b b'' + b'''/2, where |s e^s| <= 1/e, |(1+s) e^s| <= 1,
    |(2+s) e^s| <= 2 and |(3+s) e^s| <= 3 give
    bp^2 + 2 |bp| (|b_cut| + |bp|/e) + 1.5 |bp| (bp = b'(-rho)).

    On an array each callable evaluates only the branch its points need,
    both joined by ``np.where`` only where the array straddles the cut, and
    leaves the tail's exp(y + rho) at 0.0 without calling exp where it
    underflows.  Every value is bit for bit what both branches evaluated at
    every point and joined by ``np.where`` give.
    """
    if not rho > 0.0:
        raise ConfigError(f"truncation depth rho must be positive, got {rho}")
    rho = float(rho)
    b_cut = float(model.b(-rho))
    bp_cut = float(model.b_prime(-rho))
    if not (math.isfinite(b_cut) and math.isfinite(bp_cut)):
        raise ModelError(f"inner drift not finite at the cut point {-rho}")

    def below(tail, y):
        """``tail(s, exp(s))`` at s = y + rho, for y <= -rho."""
        s = y + rho
        return tail(s, np.exp(s, out=np.zeros_like(s), where=s > _EXP_ZERO))

    def join(inner, tail):
        """``inner`` at the points from the cut up, the tail below it."""
        def f(y):
            y = np.asarray(y, dtype=float)
            up = y >= -rho  # False at NaN: the tail, which gives NaN
            if up.all():
                out = inner(y)
                if np.shape(out) != y.shape:  # an inner callable that does not broadcast
                    out = np.broadcast_to(out, y.shape).copy()
            elif up.any():
                out = np.where(up, inner(y), below(tail, np.minimum(y, -rho)))
            else:
                out = below(tail, y)
            out = np.asarray(out, dtype=float)
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
    curvature = None
    if model.curvature is not None:
        bp = abs(bp_cut)
        tail = bp * bp + 2.0 * bp * (abs(b_cut) + bp / math.e) + 1.5 * bp
        at_cut = [m2 for y, m2 in model.curvature if y <= -rho][-1]
        curvature = ((-math.inf, tail), (-rho, at_cut),
                     *((y, m2) for y, m2 in model.curvature if y > -rho))

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
        curvature=curvature,
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


def eval_beta(model, y):
    """beta(y) = int_0^y b(u) du, closed form when the model carries one."""
    if model.beta_closed is not None:
        return float(model.beta_closed(y))
    return _simpson(y, lambda ys: np.asarray(model.b(ys), dtype=float))


def eval_scale_p(model, y):
    """Scale function p(y) = int_0^y exp(-beta(u)) du, beta taken on each of the
    Richardson step's grids, so that the step cancels beta's error too."""
    return _simpson(y, lambda ys: np.exp(-_beta_on(model, ys)))


def _simpson(y, integrand):
    """int_0^y f by Simpson's rule, where ``integrand(ys)`` is f on a grid ys from y to 0.

    The grid has 4j + 1 points, ~400 per unit (4001 to 400001).  Trapezoid
    sums T on every point, every other point and every fourth point give two
    Simpson values (4 T_h - T_2h) / 3.  NumericError ("did not converge")
    unless both are finite and agree within 1e-6 of int_0^y |f|.
    """
    y = float(y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ys = np.linspace(y, 0.0, 4 * int(min(100000, max(1000, 100 * abs(y)))) + 1)
        fs = [integrand(ys[::s]) for s in (1, 2, 4)]
        t1, t2, t4 = (-float(np.trapezoid(f, ys[::s])) for f, s in zip(fs, (1, 2, 4)))
        fine, coarse = (4.0 * t1 - t2) / 3.0, (4.0 * t2 - t4) / 3.0
        if not abs(fine - coarse) <= 1e-6 * abs(float(np.trapezoid(np.abs(fs[0]), ys))):
            raise NumericError(f"quadrature did not converge on [0, {y}]: Simpson's rule gave "
                               f"{fine:.9g} and {coarse:.9g} at steps h, 2h; try a smaller |y|")
    return fine


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
    """Left end of the certified interval used when the caller has no better hint."""
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
            f"certificate check for {self.model_label} on [{self.claim.domain_hint:g}, "
            f"{self.level:g}] (proved)",
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
class _GammaRange:
    """The range of gamma on [lo, hi], proved by :func:`_branch_and_bound`."""

    lo: float
    hi: float
    gmin: float
    gmin_y: float             # where gmin occurs: the first point evaluated with it
    gmax: float
    gmax_y: float             # where gmax occurs: the first point evaluated with it


def _gamma_range(gamma, lo, hi):
    """The range of gamma on [lo, hi] that certification judges claims against,
    proved by branch and bound on the model's bound on |gamma''|.

    ConfigError, before gamma is evaluated, for a model with no such bound
    or an interval whose ends are not finite and increasing.
    """
    pieces = gamma.source.curvature
    if pieces is None:
        raise ConfigError(f"{gamma.source.label()} has no curvature bound to prove gamma's "
                          "range from: give the model curvature=((-inf, M2), ...) with "
                          "M2 >= sup |gamma''|")
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"certified interval [{lo}, {hi}] must have finite ends")
    if lo >= hi:
        raise ConfigError(f"domain_hint {lo} must lie below the level {hi}")
    # an overflow on the way, in the slack of a cell ~1e300 wide or in a drift
    # far out (-1/(1 + y^2) at y = -1e300), is judged by what it leads to, with
    # no warning: an infinite slack keeps its cell open, and a gamma that is
    # not finite raises ModelError
    with np.errstate(over="ignore"):
        return _branch_and_bound(gamma, lo, hi, pieces)


def _field(gamma, ys):
    """gamma at the points ys; ModelError naming the first where it is not finite."""
    gs = gamma.eval_array(ys)
    bad = ~np.isfinite(gs)
    if bad.any():
        raise ModelError(f"gamma not finite at y={ys[bad][0]}")
    return gs


def _branch_and_bound(gamma, lo, hi, pieces):
    """The range of gamma on [lo, hi], proved from the bounds M2 >= |gamma''| of ``pieces``.

    The cells start as [lo, hi] cut at the pieces' breakpoints, so no cell
    straddles one.  On a cell of width w with end values ga, gb, gamma lies
    within max(ga, gb) + M2 w^2/8 above and min(ga, gb) - M2 w^2/8 below.
    Each round halves every cell whose bound could beat the best value
    found by more than _BNB_TOL, evaluating gamma at the midpoints in one
    call, until no cell is open.  So gamma's sup is within _BNB_TOL of the
    gmax returned, and its inf of gmin; both are values gamma takes, at the
    first point found with them.  NumericError, before halving, when that
    would leave more than _BNB_CELLS cells open, or when a cell is too
    narrow to halve: the bound is too loose to prove the range.
    """
    starts = np.array([y for y, _ in pieces])
    ys = np.array([lo, *(y for y in starts if lo < y < hi), hi])
    m2 = np.array([m for _, m in pieces])[np.searchsorted(starts, ys[:-1], side="right") - 1]
    gs = _field(gamma, ys)
    # the cells, each as its ends, their values and its bound on |gamma''|
    a, b, ga, gb = ys[:-1], ys[1:], gs[:-1], gs[1:]
    k, j = int(np.argmax(gs)), int(np.argmin(gs))
    gmax, gmax_y, gmin, gmin_y = float(gs[k]), float(ys[k]), float(gs[j]), float(ys[j])
    while True:
        w = b - a
        slack = m2 * w * w / 8.0
        # as indices: gathering five arrays by them beats five boolean masks
        open_ = np.flatnonzero((np.maximum(ga, gb) + slack > gmax + _BNB_TOL)
                               | (np.minimum(ga, gb) - slack < gmin - _BNB_TOL))
        a, b, ga, gb, m2 = a[open_], b[open_], ga[open_], gb[open_], m2[open_]
        if not a.size:
            break
        mid = 0.5 * (a + b)
        if 2 * a.size > _BNB_CELLS or not np.all((a < mid) & (mid < b)):
            raise NumericError(
                f"the curvature bound does not prove gamma's range on [{lo}, {hi}]: "
                f"{a.size} cells open, the narrowest {float((b - a).min()):.3g} wide; "
                "give a tighter bound on |gamma''|")
        gm = _field(gamma, mid)
        k, j = int(np.argmax(gm)), int(np.argmin(gm))
        if gm[k] > gmax:
            gmax, gmax_y = float(gm[k]), float(mid[k])
        if gm[j] < gmin:
            gmin, gmin_y = float(gm[j]), float(mid[j])
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        ga, gb = np.concatenate((ga, gm)), np.concatenate((gm, gb))
        m2 = np.concatenate((m2, m2))
    return _GammaRange(lo, hi, gmin, gmin_y, gmax, gmax_y)


def _certify_range(gamma, claim, found):
    """Judge the claimed bounds against the range :func:`_gamma_range` found."""
    lower = claim.gamma0 if claim.m == 0.0 else -claim.m
    # the worse violation, at the smaller y when the two tie
    candidates = ((found.gmax - claim.kappa, found.gmax_y), (lower - found.gmin, found.gmin_y))
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
        level=found.hi,
        passed=bool(worst <= _CERT_TOL),
        worst_violation=worst,
        location=worst_y,
        analytic_kappa=analytic,
    )


def certify_bounds(gamma, claim, *, level):
    """Judge the claimed bounds against the range of gamma on [domain_hint, level],
    :func:`scan_gamma_range`'s, proved from the model's bound on |gamma''|.
    Failures are reported, not raised; a model with no bound raises ConfigError.
    """
    return _certify_range(gamma, claim, _gamma_range(gamma, claim.domain_hint, level))


def scan_gamma_range(model, level, lo=None):
    """(min, max) of gamma on [lo, level], the range certification judges claims against.

    Proved by branch and bound on the model's bound on |gamma''|: both are
    values gamma takes, within _BNB_TOL of its inf and sup.  ConfigError
    for a model with no bound.
    """
    if lo is None:
        lo = default_domain_hint(level)
    found = _gamma_range(GammaField(model), lo, level)
    return found.gmin, found.gmax


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
    """(ys, beta(ys)) on the probes' grid of [-depth, 0], ~40 points per unit."""
    ys = np.linspace(-depth, 0.0, int(min(400001, max(4001, 40 * depth))) | 1)
    return ys, _beta_on(model, ys)


def _beta_on(model, ys):
    """beta on a grid ys that ends at 0: the closed form, else a cumulative trapezoid of b."""
    if model.beta_closed is not None:
        return np.asarray(model.beta_closed(ys), dtype=float)
    return -_from_zero(ys, np.asarray(model.b(ys), dtype=float))


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
