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

Certification walks its grid in chunks of _GRID_CHUNK points and keeps only
the grid's extremes and its 32 highest and 32 lowest turning points, so the
scan's memory is O(chunk) whatever the grid's length or the field.  A grid
of _SPLIT_CHUNKS chunks or more, in a process allowed two CPUs, is walked in
two halves at once: a helper thread takes the first half of the chunks
(``rng._in_halves``), and the halves merge into what one walk finds, bit for
bit.  The drift callables are then called from two threads at once, so they
must be pure functions of their argument, as the catalog's, the truncated
and the Lamperti models are.  The 64 kept turning points are polished on
refined grids of the same vectorised field (:func:`_refine`): 65 points
within a grid step of each, then 32 times narrower around the best, until
the spacing is below 1e-12.
"""

import ctypes
import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import ConfigError, ModelError, NumericError

_CERT_TOL = 1e-9              # slack allowed before a scan point counts as a violation
_GRID_CHUNK = 1 << 14         # grid points per numpy call: 128 KiB per array, the scan's O(chunk) memory
_SPLIT_CHUNKS = 4             # a grid of this many chunks or more is walked in two halves at once:
                              # ~2 ms of sine's field, against a thread's ~0.1 ms start and join
_POLISHED = 32                # turning points polished at each end of gamma's range
_GRID_MAX = 10**8             # most grid points one scan may take (the default grid has ~3e6)
_NO_TURNS = np.empty((3, 0))  # rows gamma, grid index and y of no turning point
_EXP_ZERO = -746.0            # exp(x) rounds to +0.0 for every x <= this (for x < -745.14 already)

try:  # glibc's; where the C library has none, a split scan keeps its helper's heap
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


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

    # b's and b''s tails, evaluated on every certification chunk, work in place
    # in the s and exp(s) that ``below`` made for them, with their formulas'
    # roundings, so that a chunk makes no 128 KiB temporaries beyond those two
    def b_tail(s, e):  # b_cut + bp_cut * s * e
        s *= bp_cut
        s *= e
        s += b_cut
        return s

    def b_prime_tail(s, e):  # bp_cut * e * (1.0 + s)
        e *= bp_cut
        s += 1.0
        e *= s
        return e

    b = join(model.b, b_tail)
    b_prime = join(model.b_prime, b_prime_tail)
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


@dataclass
class _Walk:
    """What a walk over the consecutive grid points start, start + 1, ... found.

    ``high`` and ``low`` hold the _POLISHED highest and lowest turning points
    of the sampled curve among the walk's points whose two neighbours it
    also walked (see :func:`_most_extreme`); ``head`` and ``tail`` hold
    (y, gamma) of its first and last two points, for the turning points at
    a seam.
    """

    start: int
    gmin: float
    gmin_y: float             # the first grid point where gmin occurs
    gmax: float
    gmax_y: float             # the first grid point where gmax occurs
    high: np.ndarray
    low: np.ndarray
    head: list
    tail: list

    def then(self, right):
        """The walk over this one's points and then ``right``'s, as one walk
        finds it: extremes tied in gamma keep the earlier grid point."""
        # the points either side of the seam turn on their neighbours across it
        seam = self.tail + right.head
        first = right.start - len(self.tail)
        found = [(g, first + i, y) for i, (y, g) in enumerate(seam)
                 if 0 < i < len(seam) - 1 and _turn(seam[i - 1][1], g, seam[i + 1][1])]
        found = np.array(found).reshape(-1, 3).T
        least = right if right.gmin < self.gmin else self
        most = right if right.gmax > self.gmax else self
        return _Walk(self.start, least.gmin, least.gmin_y, most.gmax, most.gmax_y,
                     _most_extreme(self.high, np.concatenate((right.high, found), axis=1), -1.0),
                     _most_extreme(self.low, np.concatenate((right.low, found), axis=1), 1.0),
                     (self.head + right.head)[:2], (self.tail + right.tail)[-2:])


def _turn(g0, g1, g2):
    """Whether the sampled curve turns at a point of value g1 between g0 and g2."""
    a = g1 - g0
    b = g2 - g1
    return a > 0.0 and b < 0.0 or a < 0.0 and b > 0.0


def _walk(gamma, lo, hi, grid_step, n, first, last):
    """The :class:`_Walk` over chunks first, ..., last - 1 of the grid of n points.

    ModelError names the walk's first grid point where gamma is not finite.
    """
    walk = None
    # the grid points and their differences go into arrays made once per
    # walk: a chunk allocates only what gamma's evaluation does, and the
    # heap has fewer megabytes to give back and fault in again
    base = np.arange(_GRID_CHUNK, dtype=float)
    grid = np.empty(_GRID_CHUNK)
    diff = np.empty(_GRID_CHUNK)
    for start in range(first * _GRID_CHUNK, min(last * _GRID_CHUNK, n), _GRID_CHUNK):
        m = min(_GRID_CHUNK, n - start)
        ys = np.add(base[:m], start, out=grid[:m])
        ys *= grid_step
        ys += lo
        np.minimum(ys, hi, out=ys)
        gs = gamma.eval_array(ys)
        kmin = int(np.argmin(gs))
        kmax = int(np.argmax(gs))
        # each stops at the first NaN, and an infinity is one's extreme
        if not (math.isfinite(gs[kmin]) and math.isfinite(gs[kmax])):
            raise ModelError(f"gamma not finite at y={ys[~np.isfinite(gs)][0]}")
        # _turn at every point with both neighbours in the chunk
        d = np.subtract(gs[1:], gs[:-1], out=diff[:m - 1])
        up = d > 0.0
        down = d < 0.0
        turn = ((up[:-1] & down[1:]) | (down[:-1] & up[1:])).nonzero()[0] + 1
        found = np.stack((gs[turn], turn + start, ys[turn]))
        part = _Walk(start, float(gs[kmin]), float(ys[kmin]), float(gs[kmax]), float(ys[kmax]),
                     _most_extreme(_NO_TURNS, found, -1.0), _most_extreme(_NO_TURNS, found, 1.0),
                     list(zip(ys[:2].tolist(), gs[:2].tolist())),
                     list(zip(ys[-2:].tolist(), gs[-2:].tolist())))
        walk = part if walk is None else walk.then(part)
    return walk


def _scan_grid(gamma, lo, hi, grid_step):
    """The range of gamma on the certification grid, walked in chunks so memory stays bounded.

    A grid of _SPLIT_CHUNKS chunks or more is walked in two halves at once
    (see ``rng._in_halves``); :meth:`_Walk.then` joins them into what one
    walk finds, and the error raised is the first in grid order.
    """
    if not 0.0 < grid_step < math.inf:
        raise ConfigError(f"grid_step must be positive and finite, got {grid_step}")
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
    halves = rng._in_halves(partial(_walk, gamma, lo, hi, grid_step, n),
                            -(-n // _GRID_CHUNK), _SPLIT_CHUNKS)
    walk = reduce(_Walk.then, halves)
    if len(halves) > 1 and _malloc_trim is not None:
        # the helper thread's malloc arena would keep the ~1 MB of chunks it
        # freed for the next thread to use it; give their pages back (~0.3 ms)
        _malloc_trim(0)
    gmin, gmin_y, gmax, gmax_y = walk.gmin, walk.gmin_y, walk.gmax, walk.gmax_y
    high, low = walk.high, walk.low
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
    grid point; ``kept`` is such a selection already.  Merged chunk by
    chunk, this is ``sorted(points, key=sign * gamma)[:_POLISHED]`` of all
    the turning points in grid order."""
    if not found.shape[1]:
        return kept
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
