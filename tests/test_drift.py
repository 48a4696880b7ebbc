"""Tests for the drift catalog and the derived fields beta, p, gamma."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fptsim import (BoundCertificate, GammaField, ModelError, NumericError,
                    RandomStream, SamplerConfig, arctan_shift_drift,
                    certify_bounds, constant_drift, custom_drift, eval_beta,
                    eval_gamma, eval_scale_p, gamma_fn, ig_cdf, ks_statistic,
                    lamperti_drift, model_from_spec, neg_arctan_drift, ou_drift,
                    recurrence_diagnostic, rho_distance_bound, sample_batch,
                    scan_gamma_range, sine_drift, truncate_drift, truncated_ou_kappa)
from fptsim import drift, rng
from fptsim.drift import _POLISHED, _most_extreme, _scan_grid
from fptsim.errors import ConfigError

CATALOG = [constant_drift(1.0), sine_drift(), arctan_shift_drift(),
           neg_arctan_drift(), ou_drift(0.3, 1.0),
           truncate_drift(ou_drift(0.3, 1.0), 5.0)]


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_constant_drift():
    assert eval_gamma(constant_drift(1.0), 0.0) == 0.5


def test_gamma_sine_at_zero():
    assert eval_gamma(sine_drift(), 0.0) == pytest.approx(2.5, abs=1e-15)


def test_gamma_sine_bounded_between_zero_and_five():
    model = sine_drift()
    grid = np.linspace(-50.0, 2.0, 20001)
    gam = GammaField(model).eval_array(grid)
    assert gam.max() <= 5.0
    assert gam.min() >= 0.0


def test_gamma_clamp_only_with_nonnegative_claim():
    # gamma is returned as computed: a value just below 0 is not clamped to 0
    wobble = custom_drift(lambda y: 0.0 * np.asarray(y, dtype=float),
                          lambda y: -1e-12 + 0.0 * np.asarray(y, dtype=float))
    assert eval_gamma(wobble, 1.0) == -5e-13


def test_gamma_nonfinite_drift_raises_naming_point():
    bad = custom_drift(lambda y: math.inf + 0.0 * np.asarray(y, dtype=float),
                       lambda y: 0.0 * np.asarray(y, dtype=float))
    with pytest.raises(ModelError, match="3.5"):
        eval_gamma(bad, 3.5)


# dX = (2 + sin X) dt + hypot(1, X) dB: eta = asinh, so eta^-1 = sinh;
# lamperti_drift's arguments b, b', sigma, sigma', sigma'', eta^-1
HYPOT_SINE_PARTS = (lambda y: 2.0 + np.sin(y), np.cos, lambda y: np.hypot(1.0, y),
                    lambda y: y / np.hypot(1.0, y), lambda y: np.hypot(1.0, y) ** -3, np.sinh)
HYPOT_SINE = lamperti_drift(*HYPOT_SINE_PARTS)


def _gbm_parts(mu, s):
    """dX = mu X dt + s X dB: eta = log(y)/s, eta^-1(z) = exp(s z), unit drift mu/s - s/2."""
    return (lambda y: mu * y, lambda y: mu + 0.0 * y, lambda y: s * y,
            lambda y: s + 0.0 * y, lambda y: 0.0 * y, lambda z: np.exp(s * z))


def _gbm(mu, s):
    return lamperti_drift(*_gbm_parts(mu, s))


def _no_closed_form_models():
    return [custom_drift(sine_drift().b, sine_drift().b_prime),
            HYPOT_SINE]


@pytest.mark.parametrize("model", _no_closed_form_models(), ids=["custom", "lamperti"])
def test_gamma_fn_without_closed_form_is_eval_gamma(model):
    gamma = gamma_fn(model)
    for y in (-7.25, -1.0, -0.1, 0.0, 0.37, 1.5):
        assert gamma(y).hex() == eval_gamma(model, y).hex()


def test_gamma_fn_checks_the_drift_is_finite():
    bad = custom_drift(lambda y: math.inf + 0.0 * np.asarray(y, dtype=float),
                       lambda y: 0.0 * np.asarray(y, dtype=float))
    with pytest.raises(ModelError, match="3.5"):
        gamma_fn(bad)(3.5)


def test_gamma_scalar_matches_composition():
    for model in CATALOG:
        fast = gamma_fn(model)
        for y in np.linspace(-30.0, 1.0, 301):
            ref = eval_gamma(model, float(y))
            assert fast(float(y)) == pytest.approx(ref, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------


def test_beta_linear_drift():
    assert eval_beta(constant_drift(1.0), 2.0) == 2.0


def test_beta_sine_against_quadrature_oracle():
    model = sine_drift()
    oracle, _ = quad(lambda u: 2.0 + math.sin(u), 0.0, 2.0, epsabs=1e-13, epsrel=1e-13)
    assert eval_beta(model, 2.0) == pytest.approx(oracle, abs=1e-9)
    assert oracle == pytest.approx(4.0 + 1.0 - math.cos(2.0), abs=1e-12)


def test_beta_zero_at_origin():
    for model in CATALOG:
        assert eval_beta(model, 0.0) == 0.0


def test_beta_fallback_quadrature_matches_closed_form():
    bare = custom_drift(sine_drift().b, sine_drift().b_prime)
    for y in (-3.0, -0.7, 1.9):
        assert eval_beta(bare, y) == pytest.approx(2 * y + 1 - math.cos(y), abs=1e-8)


def test_beta_quadrature_raises_when_it_does_not_converge():
    # int_0^2 dy/y diverges; an unchecked quadrature returns a finite number
    def b(y):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(y, dtype=float)

    model = custom_drift(b, lambda y: -b(y) ** 2)
    with pytest.raises(NumericError, match="converge"):
        eval_beta(model, 2.0)


def test_beta_closed_forms_match_quadrature_on_grid():
    for model in CATALOG:
        if model.beta_closed is None:
            continue
        for y in (-20.0, -6.5, -1.0, 0.5, 1.8):
            oracle, _ = quad(lambda u: float(model.b(u)), 0.0, y,
                             epsabs=1e-12, epsrel=1e-12, limit=400)
            assert abs(float(model.beta_closed(y)) - oracle) <= 1e-8 * (1 + abs(y))


def test_beta_additivity():
    for model in (sine_drift(), custom_drift(ou_drift(0.3, 1.0).b,
                                             ou_drift(0.3, 1.0).b_prime)):
        for y1, y2 in [(-4.0, -1.0), (-1.0, 1.5), (0.3, 2.0)]:
            seg, _ = quad(lambda u: float(model.b(u)), y1, y2, epsabs=1e-12)
            assert eval_beta(model, y2) - eval_beta(model, y1) == pytest.approx(seg, abs=1e-8)


# ---------------------------------------------------------------------------
# scale function
# ---------------------------------------------------------------------------


def test_scale_p_driftless():
    assert eval_scale_p(constant_drift(0.0), 3.0) == pytest.approx(3.0, abs=1e-9)


def test_scale_p_unit_drift_negative_side():
    assert eval_scale_p(constant_drift(1.0), -1.0) == pytest.approx(1.0 - math.e, abs=1e-9)


def test_scale_p_ou_against_quadrature_oracle():
    model = ou_drift(0.3, 1.0)
    oracle, _ = quad(lambda u: math.exp(0.15 * u * u - u), 0.0, -5.0, epsabs=1e-12)
    assert eval_scale_p(model, -5.0) == pytest.approx(oracle, rel=1e-8)


def test_scale_p_strictly_increasing():
    model = sine_drift()
    vals = [eval_scale_p(model, y) for y in np.linspace(-3.0, 2.5, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_scale_p_overflow_reports_numeric_error():
    with pytest.raises(NumericError, match="smaller"):
        eval_scale_p(constant_drift(1.0), -1000.0)
    # the rho bound passes it on: OU's p(-rho) is finite at depth 60, not at 80
    assert 0.0 < rho_distance_bound(ou_drift(0.3, 1.0), 0.0, 1.0, 60.0) < 1e-250
    with pytest.raises(NumericError, match="smaller rho"):
        rho_distance_bound(ou_drift(0.3, 1.0), 0.0, 1.0, 80.0)


def test_scale_integrals_raise_when_quad_does_not_converge():
    # exp(-beta(u)) = |u - 1|^-1.5 is not integrable across u = 1; unchecked,
    # quad returned p(1.7) = -4.39 for this positive, divergent integral
    model = custom_drift(lambda y: 1.5 / (y - 1.0), lambda y: -1.5 / (y - 1.0) ** 2,
                         beta_closed=lambda y: 1.5 * np.log(np.abs(y - 1.0)))
    with pytest.raises(NumericError, match="did not converge"):
        eval_scale_p(model, 1.7)


def _quiet(f, *args):
    """f(*args), or None when it raises NumericError."""
    try:
        return f(*args)
    except NumericError:
        return None


def test_quadrature_is_loud_where_its_grid_misses_the_drift():
    # a spike of width 1e-4 on a point of the finest grid, between points of
    # the coarsest: a quadrature that misses it gives beta(-1) = -0.995
    def b(y):
        y = np.asarray(y, dtype=float)
        return 1.0 + 0.01 * y + 3.0 * np.exp(-(((y + 0.5005) / 1e-4) ** 2))

    spike = custom_drift(b, lambda y: 0.0 * np.asarray(y, dtype=float))
    for f, want in ((eval_beta, -0.99553174), (eval_scale_p, -1.7152629)):
        got = _quiet(f, spike, -1.0)
        assert got is None or got == pytest.approx(want, rel=1e-6)
    # b = 2 + sin(1700 y) / 2: ~4 radians per grid step at y = -20
    fast = custom_drift(lambda y: 2.0 + 0.5 * np.sin(1700.0 * np.asarray(y, dtype=float)),
                        lambda y: 850.0 * np.cos(1700.0 * np.asarray(y, dtype=float)))
    for y in (-20.0, -5.0, -1.0, 2.0):
        got = _quiet(eval_beta, fast, y)
        assert got is None or got == pytest.approx(2.0 * y + (1.0 - math.cos(1700.0 * y)) / 3400.0,
                                                   rel=1e-6)


@pytest.mark.parametrize("model", CATALOG + [constant_drift(0.0), constant_drift(-1.0)],
                         ids=lambda m: m.label())
def test_quadrature_without_closed_beta_matches_closed_form(model):
    # the same drift with its beta left out: beta by Simpson's rule, and p by
    # the Richardson step over beta's trapezoids as well as p's
    bare = custom_drift(model.b, model.b_prime)
    for y in (-20.0, -5.0, -1.0, 2.0):
        assert eval_beta(bare, y) == pytest.approx(eval_beta(model, y), rel=1e-12, abs=1e-12)
        assert eval_scale_p(bare, y) == pytest.approx(eval_scale_p(model, y), rel=1e-8)


# ---------------------------------------------------------------------------
# derivative consistency and Lamperti reduction
# ---------------------------------------------------------------------------


def test_bprime_matches_finite_differences():
    h = 1e-5
    grid = np.linspace(-20.0, 2.0, 441)
    for model in CATALOG:
        pts = grid
        if model.kind == "truncated":
            # central differences carry an O(h) error across the curvature
            # jump at the cut; the joint itself is checked one-sidedly below
            pts = grid[np.abs(grid + model.params["rho"]) > 10 * h]
        fd = (np.asarray(model.b(pts + h)) - np.asarray(model.b(pts - h))) / (2 * h)
        assert np.max(np.abs(np.asarray(model.b_prime(pts)) - fd)) <= 1e-6


def test_lamperti_unit_sigma_is_identity():
    src = sine_drift()
    model = lamperti_drift(src.b, src.b_prime, np.ones_like, np.zeros_like, np.zeros_like,
                           lambda z: z)
    for z in (-2.0, 0.0, 1.3):
        assert float(model.b(z)) == pytest.approx(float(src.b(z)), abs=1e-8)


def test_lamperti_constant_sigma_zero_drift():
    model = lamperti_drift(np.zeros_like, np.zeros_like, lambda y: 2.0 + 0.0 * y,
                           np.zeros_like, np.zeros_like, lambda z: 2.0 * z)
    for z in (-1.0, 0.5):
        assert float(model.b(z)) == pytest.approx(0.0, abs=1e-10)


def test_lamperti_quadratic_sigma_at_anchor():
    model = lamperti_drift(np.zeros_like, np.zeros_like, lambda y: 1.0 + y * y,
                           lambda y: 2.0 * y, lambda y: 2.0 + 0.0 * y, np.tan)
    assert float(model.b(0.0)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("z", [-5.0, -1.0, 0.5, 2.0, 4.0])
def test_lamperti_closed_form_gbm(z):
    # geometric BM, dX = 0.3 X dt + X dB: eta(y) = log y, so eta^-1(z) = e^z and
    # the unit drift is 0.3 - 1/2
    gbm = _gbm(0.3, 1.0)
    assert float(gbm.b(z)) == pytest.approx(-0.2, abs=1e-10)
    # with b(y) = y^2 the unit drift is e^z - 1/2, which pins the inverse itself
    square = lamperti_drift(lambda y: y * y, lambda y: 2.0 * y, lambda y: y,
                            np.ones_like, np.zeros_like, np.exp)
    assert float(square.b(z)) == pytest.approx(math.exp(z) - 0.5, abs=1e-9)


LAMPERTI_PARTS = {"gbm": _gbm_parts(0.5, 0.5), "hypot-sine": HYPOT_SINE_PARTS}


def _counting_lamperti(name, count):
    """The model of LAMPERTI_PARTS[name], its sigma and eta_inv counting their calls in ``count``."""
    def counted(what, f):
        def g(y):
            count[what] += 1
            return f(y)
        return g

    b, b_prime, sigma, sigma_prime, sigma_second, eta_inv = LAMPERTI_PARTS[name]
    return lamperti_drift(b, b_prime, counted("sigma", sigma), sigma_prime, sigma_second,
                          counted("eta_inv", eta_inv))


@pytest.mark.parametrize("name", sorted(LAMPERTI_PARTS))
def test_lamperti_scalar_gamma_is_eval_gamma(name):
    # bit for bit on a grid, with one eta_inv and one sigma call per point
    count = {"eta_inv": 0, "sigma": 0}
    model = _counting_lamperti(name, count)
    zs = np.linspace(-20.0, 2.0, 441).tolist()
    want = [eval_gamma(model, z).hex() for z in zs]
    count.update(eta_inv=0, sigma=0)
    assert [gamma_fn(model)(z).hex() for z in zs] == want
    assert count == {"eta_inv": len(zs), "sigma": len(zs)}


@pytest.mark.parametrize("sigma, eta_inv, z", [(lambda y: -1.0 + 0.0 * y, lambda z: -z, 0.0),
                                               (lambda y: np.nan + 0.0 * y, lambda z: z, -0.25),
                                               (lambda y: 1.0 + 0.0 * y, lambda z: z, 0.5)],
                         ids=["sigma-negative", "sigma-nan", "drift-not-finite"])
def test_lamperti_scalar_gamma_raises_what_eval_gamma_raises(sigma, eta_inv, z):
    model = lamperti_drift(lambda y: np.inf + 0.0 * y, np.zeros_like, sigma,
                           np.ones_like, np.zeros_like, eta_inv)
    with pytest.raises(ModelError) as want:
        eval_gamma(model, z)
    with pytest.raises(ModelError) as got:
        gamma_fn(model)(z)
    assert str(got.value) == str(want.value)


def test_lamperti_rejects_nonpositive_sigma():
    model = lamperti_drift(np.zeros_like, np.zeros_like, lambda y: -1.0 + 0.0 * y,
                           np.zeros_like, np.zeros_like, lambda z: -z)
    with pytest.raises(ModelError):
        model.b(0.0)


def test_lamperti_derivative_is_the_closed_form():
    # at w = sinh z, sigma = cosh z and sigma' = tanh z; so b0(z) is
    # (2 + sin w)/cosh z - tanh(z)/2, differentiated here by hand
    z = np.linspace(-20.0, 2.0, 2201)
    w = np.sinh(z)
    want = np.cos(w) - (2.0 + np.sin(w)) * np.tanh(z) / np.cosh(z) - 0.5 / np.cosh(z) ** 2
    assert np.max(np.abs(HYPOT_SINE.b_prime(z) - want)) <= 1e-12
    assert np.max(np.abs(HYPOT_SINE.b(z) - (2.0 + np.sin(w)) / np.cosh(z)
                         + 0.5 * np.tanh(z))) <= 1e-12


def test_lamperti_gbm_draws_the_inverse_gaussian_law():
    # criterion 1 through the reduction: X0 = 1 and level e^2 are z = 0 and
    # z = 2 under eta = 2 log y, where the unit drift is 0.5/0.5 - 0.5/2 = 0.75
    model = _gbm(0.5, 0.5)
    cert = BoundCertificate(kappa=0.5, domain_hint=-100.0)
    assert certify_bounds(GammaField(model), cert, level=2.0).passed
    config = SamplerConfig(x=0.0, L=2.0, model=model, cert=cert, variant="a1")
    draws = sample_batch(config, 4000, RandomStream(20260810, 40))
    values = np.array([d.value for d in draws])
    assert ks_statistic(values, lambda t: ig_cdf(t, 2.0, 0.75)) < 0.025


def test_lamperti_grid_reaching_nonpositive_sigma_names_the_point():
    # exp(2z) underflows to 0 below z = -373, so sigma = 2 exp(2z) vanishes there
    model = _gbm(3.0, 2.0)
    with pytest.raises(ModelError, match=r"z=-500\.0"):
        GammaField(model).eval_array(np.array([0.0, -100.0, -500.0, -1000.0]))
    claim = BoundCertificate(kappa=2.0, domain_hint=-1000.0)
    with pytest.raises(ModelError, match=r"z=-1000\.0"):
        certify_bounds(GammaField(model), claim, level=2.0)


# ---------------------------------------------------------------------------
# drift truncation
# ---------------------------------------------------------------------------


class TestTruncateDrift:
    OU = ou_drift(0.3, 1.0)
    RHO = 5.0

    def test_branch_agreement_at_cut(self):
        tm = truncate_drift(self.OU, self.RHO)
        left = float(tm.b(-self.RHO - 1e-12))
        right = float(tm.b(-self.RHO))
        assert left == pytest.approx(right, abs=1e-9)
        assert right == pytest.approx(2.5, abs=1e-12)

    def test_value_below_cut(self):
        # b(-5) + b'(-5) * (y+5) * e^{y+5} at y = -6
        tm = truncate_drift(self.OU, self.RHO)
        expect = 2.5 + (-0.3) * (-1.0) * math.exp(-1.0)
        assert float(tm.b(-6.0)) == pytest.approx(expect, abs=1e-12)

    def test_limit_is_cut_value(self):
        tm = truncate_drift(self.OU, self.RHO)
        assert float(tm.b(-500.0)) == pytest.approx(2.5, abs=1e-12)

    def test_identical_above_cut(self):
        tm = truncate_drift(self.OU, self.RHO)
        grid = np.linspace(-self.RHO, 1.0, 101)
        assert np.array_equal(np.asarray(tm.b(grid)), np.asarray(self.OU.b(grid)))

    def test_c1_at_cut(self):
        tm = truncate_drift(self.OU, self.RHO)
        h = 1e-7
        left = (float(tm.b(-self.RHO)) - float(tm.b(-self.RHO - h))) / h
        right = (float(tm.b(-self.RHO + h)) - float(tm.b(-self.RHO))) / h
        assert abs(left - right) <= 1e-6

    def test_truncated_gamma_within_analytic_ceiling(self):
        tm = truncate_drift(self.OU, self.RHO)
        kappa = truncated_ou_kappa(0.3, self.RHO, 1.0)
        grid = np.linspace(-60.0, 1.0, 40001)
        gam = GammaField(tm).eval_array(grid)
        assert gam.min() >= 0.0
        assert gam.max() <= kappa

    def test_closed_beta_matches_quadrature_across_cut(self):
        tm = truncate_drift(self.OU, self.RHO)
        seg, _ = quad(lambda u: float(tm.b(u)), -7.0, -3.0, epsabs=1e-12)
        assert eval_beta(tm, -3.0) - eval_beta(tm, -7.0) == pytest.approx(seg, abs=1e-8)

    def test_requires_positive_rho(self):
        with pytest.raises(ConfigError):
            truncate_drift(self.OU, 0.0)

    def test_requires_an_inner_drift_finite_at_the_cut(self):
        nan_deep = custom_drift(lambda y: np.where(np.asarray(y) < -3.0, np.nan, 1.0),
                                lambda y: 0.0 * np.asarray(y, dtype=float))
        with pytest.raises(ModelError, match="cut point -5.0"):
            truncate_drift(nan_deep, self.RHO)


def _two_branch(model, rho):
    """b, b', beta and gamma of ``truncate_drift(model, rho)`` by the formula
    as first written: both branches at every point, exp(min(y + rho, 0)) at
    every point, joined by ``np.where``."""
    b_cut = float(model.b(-rho))
    bp_cut = float(model.b_prime(-rho))
    beta_cut = float(model.beta_closed(-rho))

    def join(inner, tail):
        def f(y):
            y = np.asarray(y, dtype=float)
            s = y + rho
            below = tail(s, np.exp(np.minimum(s, 0.0)))
            out = np.where(y >= -rho, inner(y), below)
            return out if out.ndim else float(out)
        return f

    b = join(model.b, lambda s, e: b_cut + bp_cut * s * e)
    b_prime = join(model.b_prime, lambda s, e: bp_cut * e * (1.0 + s))
    beta = join(model.beta_closed,
                lambda s, e: beta_cut + b_cut * s + bp_cut * ((s - 1.0) * e + 1.0))
    return {"b": b, "b_prime": b_prime, "beta_closed": beta,
            "gamma": lambda y: (np.asarray(b(y)) ** 2 + np.asarray(b_prime(y))) / 2.0}


def _truncated(model, rho):
    tm = truncate_drift(model, rho)
    return {"b": tm.b, "b_prime": tm.b_prime, "beta_closed": tm.beta_closed,
            "gamma": GammaField(tm).eval_array}


TRUNCATED = [(ou_drift(0.3, 1.0), 3.0), (ou_drift(0.3, 1.0), 5.0), (ou_drift(0.3, 1.0), 60.0),
             (sine_drift(), 5.0)]
TRUNCATED_IDS = ["ou-rho3", "ou-rho5", "ou-rho60", "sine-rho5"]


@pytest.mark.parametrize("model, rho", TRUNCATED, ids=TRUNCATED_IDS)
def test_truncated_drift_is_its_two_branch_formula_bit_for_bit(model, rho):
    # every 0.01 of [-3000, 1]: the tail where exp(y + rho) underflows (y + rho
    # <= -746) and where it does not, the cut and the inner model above it;
    # then the points next to the cut and to the underflow bound
    edges = [e for x in (-rho, -rho + drift._EXP_ZERO)
             for e in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]
    ys = np.concatenate((np.linspace(-3000.0, 1.0, 300101), edges))
    up = ys >= -rho
    ref = _two_branch(model, rho)
    for name, f in _truncated(model, rho).items():
        want = ref[name](ys)
        # both branches, the tail alone, the inner model alone, and chunks
        assert f(ys).tobytes() == want.tobytes(), name
        assert f(ys[~up]).tobytes() == want[~up].tobytes(), name
        assert f(ys[up]).tobytes() == want[up].tobytes(), name
        chunks = np.concatenate([f(ys[i:i + 16384]) for i in range(0, len(ys), 16384)])
        assert chunks.tobytes() == want.tobytes(), name
        for y in ys[np.r_[0:300101:101, 300101:len(ys)]].tolist():
            for arg in (y, np.asarray(y)):
                assert float(f(arg)).hex() == float(ref[name](arg)).hex(), (name, y)


def test_truncated_drift_keeps_its_inputs_and_their_shape():
    # the tails work in place: in arrays of their own, never in the caller's;
    # and an inner drift whose callables return one number for any input
    # still gives an array of the input's shape, on either side of the cut
    flat = custom_drift(lambda y: 0.5, lambda y: 0.0, beta_closed=lambda y: 0.5 * np.asarray(y))
    for model in (ou_drift(0.3, 1.0), flat):
        ref = _two_branch(model, 5.0)
        for name, f in _truncated(model, 5.0).items():
            for ys in ([-800.0, -6.0], [-6.0, 0.0], [-4.0, 0.0], [[-4.0], [-900.0]], []):
                ys = np.array(ys)
                kept = ys.copy()
                out = f(ys)
                assert ys.tobytes() == kept.tobytes(), (name, ys)
                assert out.shape == ys.shape and out.dtype == float, (name, ys)
                assert out.tobytes() == np.asarray(ref[name](ys)).tobytes(), (name, ys)


@pytest.mark.parametrize("model, rho", TRUNCATED, ids=TRUNCATED_IDS)
def test_truncated_drift_is_not_finite_at_nan_or_infinity(model, rho):
    with np.errstate(invalid="ignore"):
        for name, f in _truncated(model, rho).items():
            for bad in (math.nan, math.inf, -math.inf):
                assert not math.isfinite(float(f(bad))), (name, bad)
                assert not math.isfinite(float(f(np.asarray(bad)))), (name, bad)
                assert not np.isfinite(f(np.array([bad]))).any(), (name, bad)
                # a straddling input: both branches, and only the bad point not finite
                out = f(np.array([-2000.0, bad, 0.0]))
                assert np.isfinite(out).tolist() == [True, False, True], (name, bad)


@pytest.mark.parametrize("cpus", [1, 2])
def test_scan_of_a_truncated_drift_names_its_first_bad_point(cpus, monkeypatch):
    # NaN above 0.5 in the inner model; 18 chunks of 64 points, the first
    # ones wholly below the cut, one across it, the rest above it
    inner = custom_drift(lambda y: np.where(np.asarray(y) > 0.5, np.nan, 1.0),
                         lambda y: 0.0 * np.asarray(y, dtype=float))
    gamma = GammaField(truncate_drift(inner, 5.0))
    monkeypatch.setattr(drift, "_GRID_CHUNK", 64)
    walks = _walks(monkeypatch, cpus)
    with pytest.raises(ModelError, match=r"gamma not finite at y=0\.5[01]"):
        _scan_grid(gamma, -10.0, 1.0, 0.01)
    assert walks == [(threading.get_ident(), 0, 18)]


@pytest.mark.parametrize("x", [drift._EXP_ZERO, np.nextafter(drift._EXP_ZERO, -np.inf),
                               -1e4, -1e308, -np.inf])
def test_numpys_exp_is_plus_zero_at_and_below_the_truncation_bound(x):
    # the truncated drift leaves exp(y + rho) at +0.0 without calling exp for
    # y + rho <= _EXP_ZERO; a numpy whose exp gave anything else there would
    # move certificates without a word, so it fails here instead
    for v in [np.exp(x), np.exp(np.float64(x))] + np.exp(np.full(16384 + 7, x)).tolist():
        assert v == 0.0 and math.copysign(1.0, v) == 1.0


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_sine_passes_reference_claim():
    claim = BoundCertificate(kappa=5.0, gamma0=0.25, domain_hint=-50.0)
    report = certify_bounds(GammaField(sine_drift()), claim, grid_step=1e-3, level=2.0)
    assert report.passed


def test_certify_neg_arctan_with_negativity():
    claim = BoundCertificate(kappa=math.pi**2 / 8, m=0.5, domain_hint=-100.0)
    report = certify_bounds(GammaField(neg_arctan_drift()), claim, grid_step=1e-3, level=1.0)
    assert report.passed


def test_certify_truncated_ou_reports_analytic_kappa():
    tm = truncate_drift(ou_drift(0.3, 1.0), 5.0)
    kappa = truncated_ou_kappa(0.3, 5.0, 1.0)
    assert kappa == pytest.approx(0.5 * (0.3 * 5 + 1 + 0.3 / math.e) ** 2
                                  + 0.3 / (2 * math.e**2), rel=1e-15)
    claim = BoundCertificate(kappa=kappa, domain_hint=-80.0)
    report = certify_bounds(GammaField(tm), claim, grid_step=1e-3, level=1.0)
    assert report.passed
    assert report.analytic_kappa == pytest.approx(kappa)


def test_certify_reports_violation_with_location():
    claim = BoundCertificate(kappa=4.0, domain_hint=-30.0)
    report = certify_bounds(GammaField(sine_drift()), claim, grid_step=1e-3, level=2.0)
    assert not report.passed
    assert report.worst_violation > 0.5  # actual maximum is about 4.54
    assert eval_gamma(sine_drift(), report.location) == pytest.approx(
        4.0 + report.worst_violation, abs=1e-6)


def test_certificate_validation():
    with pytest.raises(ConfigError):
        BoundCertificate(kappa=1.0, gamma0=2.0)
    with pytest.raises(ConfigError):
        BoundCertificate(kappa=-1.0)
    with pytest.raises(ConfigError):
        BoundCertificate(kappa=1.0, gamma0=0.5, m=0.5)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["kappa", "gamma0", "m", "domain_hint"])
def test_certificate_rejects_non_finite_constants(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        BoundCertificate(**{"kappa": 5.0, name: value})


# sine's callables with no bound on |gamma''|: certified on the grid
GRID_SINE = custom_drift(sine_drift().b, sine_drift().b_prime, name="sine")


@pytest.mark.parametrize("kappa, passed, worst, location", [
    (5.0, True, "-0x1.8c0634cdfb826p-2", "-0x1.09145d87b0000p+3"),
    (4.0, False, "0x1.153c2ab54c8d0p-1", "-0x1.e02d27d708d4fp+4"),
], ids=["kappa5-holds", "kappa4-fails"])
def test_certificate_report_is_pinned(kappa, passed, worst, location):
    # the reports the grid route gives, field by field and bit for bit, since
    # it polishes extrema on refined grids of the vectorised field; sine's
    # extrema repeat every 2 pi, so the location is one of several equal ones
    claim = BoundCertificate(kappa=kappa, domain_hint=-50.0)
    report = certify_bounds(GammaField(GRID_SINE), claim, grid_step=1e-3, level=2.0)
    assert report.model_label == "sine"
    assert report.claim == claim
    assert report.level.hex() == (2.0).hex()
    assert report.passed is passed
    assert report.worst_violation.hex() == worst
    assert report.location.hex() == location
    assert report.analytic_kappa is None
    assert report.proved is False
    assert report.text().splitlines()[0].endswith("(grid-checked, not proved)")


@pytest.mark.parametrize("kappa, passed, worst, location", [
    (5.0, True, "-0x1.8c0634cdfbab1p-2", "-0x1.09145e0000000p+3"),
    (4.0, False, "0x1.153c2ab54c800p-1", "-0x1.652ac00000000p+3"),
], ids=["kappa5-holds", "kappa4-fails"])
def test_proved_certificate_report_is_pinned(kappa, passed, worst, location):
    # the catalog sine carries |gamma''| <= 3.5, so its range is proved by
    # branch and bound, within _BNB_TOL of the grid route's polished one
    claim = BoundCertificate(kappa=kappa, domain_hint=-50.0)
    report = certify_bounds(GammaField(sine_drift()), claim, grid_step=1e-3, level=2.0)
    assert (report.model_label, report.claim, report.level) == ("sine", claim, 2.0)
    assert report.passed is passed
    assert report.worst_violation.hex() == worst
    assert report.location.hex() == location
    assert report.proved is True
    assert report.text().splitlines()[0] == "certificate check for sine on [-50, 2] (proved)"


def _spike(curvature=None):
    """b = 1 + y/20 plus a Gaussian bump of height 2e-4 and width 1e-4 centred
    at 0.0005, midway between two points of the 1e-3 grid from -1: there gamma
    rises to ~1.1 and falls to ~-0.1, but on the grid it climbs from 0.476 to
    0.576 with no turning point for the scan to polish."""
    def b(y):
        y = np.asarray(y, dtype=float)
        return 1.0 + 0.05 * y + 2e-4 * np.exp(-0.5 * ((y - 5e-4) / 1e-4) ** 2)

    def b_prime(y):
        u = (np.asarray(y, dtype=float) - 5e-4) / 1e-4
        return 0.05 - 2.0 * u * np.exp(-0.5 * u * u)

    return custom_drift(b, b_prime, name="spike", curvature=curvature)


def test_a_spike_between_grid_points_fails_only_the_proof():
    claim = BoundCertificate(kappa=0.6, domain_hint=-1.0)
    scanned = certify_bounds(GammaField(_spike()), claim, level=1.0)
    assert scanned.passed and not scanned.proved
    assert scanned.text().splitlines()[0].endswith("(grid-checked, not proved)")
    # |gamma''| < 1.4e8 within 20 widths of the bump, and below 1 elsewhere
    proved = certify_bounds(GammaField(_spike(((-math.inf, 1.0), (-1.5e-3, 2e8),
                                               (2.5e-3, 1.0)))), claim, level=1.0)
    assert not proved.passed and proved.proved
    assert proved.worst_violation > 0.5 and abs(proved.location - 5e-4) < 2e-4
    assert proved.text().splitlines()[0].endswith("(proved)")


def test_a_loose_curvature_bound_raises_numeric_error_at_once():
    sine = sine_drift()
    loose = custom_drift(sine.b, sine.b_prime, curvature=((-math.inf, 1e30),))
    claim = BoundCertificate(kappa=5.0, domain_hint=drift.default_domain_hint(2.0))
    began = time.monotonic()
    with pytest.raises(NumericError, match="curvature bound"):
        certify_bounds(GammaField(loose), claim, level=2.0)
    assert time.monotonic() - began < 1.0


@pytest.mark.parametrize("curvature", [
    (), ((0.0, 1.0),), ((-math.inf, 1.0), (2.0, 1.0), (1.0, 1.0)), ((-math.inf, -1.0),),
    ((-math.inf, math.nan),)], ids=["empty", "not-from-inf", "unsorted", "negative", "nan"])
def test_custom_curvature_must_be_sorted_finite_pieces(curvature):
    with pytest.raises(ConfigError, match="curvature"):
        custom_drift(np.sin, np.cos, curvature=curvature)


BOUNDED = CATALOG + [truncate_drift(model, rho) for model, rho in TRUNCATED]


@pytest.mark.parametrize("lo", [-50.0, None], ids=["lo-50", "lo-default"])
@pytest.mark.parametrize("level", [1.0, 2.0])
@pytest.mark.parametrize("model", BOUNDED, ids=lambda m: m.label())
def test_proved_range_is_the_polished_grid_range(model, level, lo):
    # within the branch and bound's tolerance of the grid's polished range,
    # and made of values gamma takes at the points it reports
    lo = drift.default_domain_hint(level) if lo is None else lo
    proved = drift._gamma_range(GammaField(model), lo, level, 1e-3)
    scanned = _scan_grid(GammaField(model), lo, level, 1e-3)
    assert proved.proved and not scanned.proved
    assert abs(proved.gmax - scanned.gmax) <= 1e-10
    assert abs(proved.gmin - scanned.gmin) <= 1e-10
    for g, y in ((proved.gmax, proved.gmax_y), (proved.gmin, proved.gmin_y)):
        assert lo <= y <= level
        assert eval_gamma(model, y) == g


@pytest.mark.parametrize("model", BOUNDED, ids=lambda m: m.label())
def test_declared_curvature_bounds_the_field(model):
    # each piece's M2 against the finite-difference |gamma''| at spacing 1e-3
    # on the piece within 20 of its point nearest 0, where the fields curve most
    starts = [y for y, _ in model.curvature] + [math.inf]
    for (start, m2), end in zip(model.curvature, starts[1:]):
        near = min(max(0.0, start), end)
        left, right = max(start, near - 20.0), min(end, near + 20.0)
        ys = np.linspace(left, right, int(1000 * (right - left)) + 1)
        g = GammaField(model).eval_array(ys)
        fd = np.abs(g[2:] - 2.0 * g[1:-1] + g[:-2]) / (ys[1] - ys[0]) ** 2
        assert fd.max() <= m2 * (1.0 + 1e-6) + 1e-9, (model.label(), start)
    bare = custom_drift(sine_drift().b, sine_drift().b_prime)
    assert truncate_drift(bare, 5.0).curvature is None


@pytest.mark.parametrize("lo", [-10.0, -37.0, -50.0])
@pytest.mark.parametrize("model, level", [(sine_drift(), 2.0),
                                          (truncate_drift(ou_drift(0.3, 1.0), 5.0), 1.0)],
                         ids=["sine", "ou-trunc5"])
def test_scanned_range_passes_as_its_own_claim(model, level, lo):
    # certification judges a claim against the range scan_gamma_range gives,
    # so that range, taken as the claim, holds on the same grid with no slack
    gmin, gmax = scan_gamma_range(model, level, lo=lo)
    assert 0.0 < gmin < gmax
    for gamma0 in (0.0, gmin):
        claim = BoundCertificate(kappa=gmax, gamma0=gamma0, domain_hint=lo)
        report = certify_bounds(GammaField(model), claim, level=level)
        assert report.passed
        assert report.worst_violation == 0.0


@pytest.mark.parametrize("lo, hi, step", [(-1e300, 2.0, 1e-3), (-50.0, 2.0, 1e-300),
                                          (-1e12, -1e12 + 0.01, 1e-5), (-50.0, 2.0, math.inf)],
                         ids=["wide", "fine", "below-spacing", "inf-step"])
def test_scan_grid_refuses_grids_it_cannot_walk(lo, hi, step):
    # too many points to scan in bounded time, a step that lo + step rounds
    # away, or one that is not finite (0 * inf once put NaN on the grid)
    with pytest.raises(ConfigError, match="grid"):
        _scan_grid(GammaField(constant_drift(1.0)), lo, hi, step)


def test_scan_refuses_an_empty_grid_or_a_zero_step():
    # a grid from the level to itself, and a step that never moves
    with pytest.raises(ConfigError, match="below the level"):
        scan_gamma_range(sine_drift(), 2.0, lo=2.0)
    claim = BoundCertificate(kappa=5.0, domain_hint=-50.0)
    with pytest.raises(ConfigError, match="grid_step"):
        certify_bounds(GammaField(sine_drift()), claim, grid_step=0.0, level=2.0)


# b = 2 + sin(1700 y) / 2: a turning point every ~2 points of the default grid
OSCILLATING = custom_drift(lambda y: 2.0 + 0.5 * np.sin(1700.0 * np.asarray(y, dtype=float)),
                           lambda y: 850.0 * np.cos(1700.0 * np.asarray(y, dtype=float)),
                           name="oscillating")


def _tied_drift(step):
    """A drift constant on each grid cell, cycling through 7 levels: many
    turning points tie in gamma, on both sides of every chunk seam."""
    def b(y):
        return 1.0 + 0.25 * (np.rint(np.asarray(y, dtype=float) / step) % 7)
    return custom_drift(b, lambda y: 0.0 * np.asarray(y, dtype=float), name="tied")


SCAN_FIELDS = CATALOG + [OSCILLATING, _tied_drift(1e-3)]


@pytest.mark.parametrize("model", SCAN_FIELDS, ids=lambda m: m.label())
def test_scan_grid_does_not_depend_on_its_chunk(model, monkeypatch):
    # 31001 points: two chunks at the default size, one at 1 << 19
    scans = []
    for chunk in (5, 64, drift._GRID_CHUNK, 1 << 19):
        monkeypatch.setattr(drift, "_GRID_CHUNK", chunk)
        scan = _scan_grid(GammaField(model), -30.0, 1.0, 1e-3)
        scans.append(tuple(float(v).hex() for v in (scan.gmin, scan.gmin_y,
                                                    scan.gmax, scan.gmax_y)))
    assert scans.count(scans[0]) == len(scans)


def _walks(monkeypatch, cpus):
    """Scan in a process allowed ``cpus`` CPUs; returns the (thread id,
    first chunk, last chunk) of each walk over the grid's chunks."""
    monkeypatch.setattr(rng, "_CPUS", cpus)
    walks = []
    walk = drift._walk

    def spy(gamma, lo, hi, grid_step, n, first, last):
        walks.append((threading.get_ident(), first, last))
        return walk(gamma, lo, hi, grid_step, n, first, last)

    monkeypatch.setattr(drift, "_walk", spy)
    return walks


def _hex_range(scan):
    return tuple(float(v).hex() for v in (scan.gmin, scan.gmin_y, scan.gmax, scan.gmax_y))


@pytest.mark.parametrize("chunk", [5, 64, drift._GRID_CHUNK, 1 << 19])
@pytest.mark.parametrize("model", SCAN_FIELDS, ids=lambda m: m.label())
def test_scan_on_two_cores_is_the_scan_on_one(model, chunk, monkeypatch):
    # a second CPU changes nothing: the grid, of two chunks or more, is
    # walked once, on the calling thread, from its first chunk to its last
    monkeypatch.setattr(drift, "_GRID_CHUNK", chunk)
    lo = -30.0 if chunk < 1 << 19 else -600.0
    scans = []
    for cpus in (1, 2):
        walks = _walks(monkeypatch, cpus)
        scans.append(_hex_range(_scan_grid(GammaField(model), lo, 1.0, 1e-3)))
        assert len(walks) == 1 and walks[0][:2] == (threading.get_ident(), 0)
        assert walks[0][2] >= 2
    assert scans[0] == scans[1]


# gamma = b^2/2 on 0, 1, ..., 19: it turns only at 9 (a peak) and 10 (a trough).
# In chunks of 5 they are the last grid point of one chunk and the first of
# the next; in chunks of 3 the peak starts a chunk and in 4 both lie inside
# one; the two chunks of 10 meet between them
SEAM_B = np.array([1.0 + 0.01 * i for i in range(20)])
SEAM_B[9], SEAM_B[10] = 3.0, 0.5
SEAM = custom_drift(lambda y: np.interp(y, np.arange(20.0), SEAM_B),
                    lambda y: 0.0 * np.asarray(y, dtype=float), name="seam")


def test_turning_points_at_the_seam_of_the_halves_are_kept(monkeypatch):
    polished = []
    refine = drift._refine

    def spy(gamma, ys, sign, lo, hi, width):
        polished.append(ys.tolist())
        return refine(gamma, ys, sign, lo, hi, width)

    monkeypatch.setattr(drift, "_refine", spy)
    for chunk in (5, 3, 4, 10):
        monkeypatch.setattr(drift, "_GRID_CHUNK", chunk)
        polished.clear()
        scans = []
        for cpus in (1, 2):
            walks = _walks(monkeypatch, cpus)
            scans.append(_hex_range(_scan_grid(GammaField(SEAM), 0.0, 19.0, 1.0)))
            assert walks == [(threading.get_ident(), 0, -(-20 // chunk))]
        # the highest turning points first (9, 10), then the lowest (10, 9),
        # each once: a chunk's neighbour points are read but not its turns
        assert polished == [[9.0, 10.0, 10.0, 9.0]] * 2
        assert scans[0] == scans[1] == ((0.125).hex(), (10.0).hex(), (4.5).hex(), (9.0).hex())


@pytest.mark.parametrize("bad, named", [([-0.5, 0.5], r"-0\.5"), ([0.25, 0.5], r"0\.25"),
                                        ([0.05], r"0\.050000000000000044"), ([0.0], r"0\.0")],
                         ids=["both-halves", "right-half", "chunk-start", "half-start"])
def test_split_scan_names_the_first_grid_point_where_the_field_is_not_finite(
        bad, named, monkeypatch):
    # 201 points in 41 chunks of 5, walked once whatever the CPUs: 0.05 (grid
    # point 105) and 0.0 (100) start a chunk, and the chunk before reads them too
    def b(y):
        y = np.asarray(y, dtype=float)
        return np.where(np.isin(np.round(y, 9), bad), np.nan, 1.0)

    monkeypatch.setattr(drift, "_GRID_CHUNK", 5)
    gamma = GammaField(custom_drift(b, lambda y: 0.0 * np.asarray(y, dtype=float)))
    for cpus in (1, 2):
        _walks(monkeypatch, cpus)
        with pytest.raises(ModelError, match=rf"gamma not finite at y={named}$"):
            _scan_grid(gamma, -1.0, 1.0, 0.01)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("model, level, pinned", [
    (truncate_drift(ou_drift(0.3, 1.0), 5.0), 1.0,
     ("0x1.851eb851eb850p-4", "0x1.0000000000000p+0",
      "0x1.b4a271bc11346p+1", "-0x1.8a4adce228353p+2")),
    (sine_drift(), 2.0,
     ("0x1.8c0634cdfb826p-2", "-0x1.42716889776c4p+8",
      "0x1.22a78556a991bp+2", "-0x1.949020d8b020ap+9")),
], ids=["ou-trunc5-L1", "sine-L2"])
def test_default_grid_range_is_pinned(model, level, pinned, cpus, monkeypatch):
    # the whole default grid, from default_domain_hint(level): ~2e6 points for
    # OU, all but 6e3 of them below the cut and most where the tail's exp
    # underflows; ~3e6 for sine.  The pins were taken with the truncated drift
    # of _two_branch's formula, and hold in a process allowed one CPU or two
    walks = _walks(monkeypatch, cpus)
    scan = _scan_grid(GammaField(model), drift.default_domain_hint(level), level, 1e-3)
    assert _hex_range(scan) == pinned
    assert len(walks) == 1 and walks[0][:2] == (threading.get_ident(), 0)


@pytest.mark.parametrize("model", CATALOG + [OSCILLATING], ids=lambda m: m.label())
def test_refined_range_is_scipys_bounded_brent(model, monkeypatch):
    # the scan's range against the same scan with each kept turning point
    # polished by scipy's bounded Brent method within the same grid step
    from scipy.optimize import minimize_scalar

    def brent(gamma, ys, sign, lo, hi, width):
        best = []
        for y0, s in zip(ys.tolist(), sign.tolist()):
            # in u = y - y0: Brent's x tolerance grows with sqrt(eps) |x|, and at
            # |y| ~ 50 that misses the oscillating field's extremes by up to 5e-9
            res = minimize_scalar(lambda u: s * float(gamma.eval_array(y0 + u)),
                                  bounds=(max(lo, y0 - width) - y0, min(hi, y0 + width) - y0),
                                  method="bounded", options={"xatol": 1e-12})
            best.append((y0 + res.x, s * res.fun))
        return np.array(best).T

    refined = _scan_grid(GammaField(model), -50.0, 2.0, 1e-3)
    monkeypatch.setattr(drift, "_refine", brent)
    polished = _scan_grid(GammaField(model), -50.0, 2.0, 1e-3)
    assert abs(refined.gmin - polished.gmin) <= 1e-12
    assert abs(refined.gmax - polished.gmax) <= 1e-12


def test_scan_grid_names_the_first_grid_point_where_the_field_is_not_finite():
    gamma = GammaField(custom_drift(lambda y: np.where(np.asarray(y) > 0.5, np.nan, 1.0),
                                    lambda y: 0.0 * np.asarray(y, dtype=float)))
    with pytest.raises(ModelError, match=r"gamma not finite at y=0\.5[01]"):
        _scan_grid(gamma, -1.0, 1.0, 0.01)


def test_refinement_checks_the_field_between_grid_points():
    # gamma = (y^2 - 1)/2 turns at the grid point 0, and b is NaN only on
    # (0.004, 0.006): no grid point hits it, the first refinement round does
    def b(y):
        y = np.asarray(y, dtype=float)
        return np.where((y > 0.004) & (y < 0.006), np.nan, -y)

    gamma = GammaField(custom_drift(b, lambda y: -1.0 + 0.0 * np.asarray(y, dtype=float)))
    assert np.all(np.isfinite(gamma.eval_array(-1.0 + 0.01 * np.arange(201))))
    with pytest.raises(ModelError, match=r"gamma not finite at y=0\.00[45]"):
        _scan_grid(gamma, -1.0, 1.0, 0.01)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 1.0, 3.0]), max_size=150),
       st.lists(st.integers(1, 40), max_size=8), st.sampled_from([-1.0, 1.0]))
def test_bounded_selection_is_the_sorted_prefix(values, cuts, sign):
    # turning points found chunk by chunk, ties in gamma and in its sign
    points = [(g, i, 0.25 * i - 7.0) for i, g in enumerate(values)]
    kept = np.empty((3, 0))
    at = 0
    for size in cuts + [len(points)]:
        found = np.array(points[at:at + size], dtype=float).reshape(-1, 3).T
        kept = _most_extreme(kept, found, sign)
        at += size
    expected = sorted(points, key=lambda p: sign * p[0])[:_POLISHED]
    assert [(g.hex(), int(i), y.hex()) for g, i, y in kept.T.tolist()] == \
        [(g.hex(), i, y.hex()) for g, i, y in expected]


def _traced_peak(run):
    """The most memory, in bytes, that numpy and Python objects held during run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", [sine_drift(), OSCILLATING], ids=lambda m: m.label())
def test_certification_memory_does_not_grow_with_the_grid(model):
    # the default grid of L=2, ~3e6 points; the scan holds O(chunk) of it
    claim = BoundCertificate(kappa=5.0, domain_hint=-3000.0)
    peak = _traced_peak(lambda: certify_bounds(GammaField(model), claim, level=2.0))
    assert peak < 8 << 20


# ---------------------------------------------------------------------------
# recurrence diagnostic
# ---------------------------------------------------------------------------


def test_recurrence_unit_drift_recurrent():
    report = recurrence_diagnostic(constant_drift(1.0), 10.0)
    assert "yes" in report.verdict


def test_recurrence_negative_drift_transient():
    report = recurrence_diagnostic(constant_drift(-1.0), 10.0)
    assert "no" in report.verdict
    # v(-d) = 2 (d - 1 + exp(-d)) for beta(y) = -y, probed at d = 20
    assert report.v_deepest == pytest.approx(38.0 + 2.0 * math.exp(-20.0), rel=1e-5)


def test_recurrence_sine_diverges():
    report = recurrence_diagnostic(sine_drift(), 10.0)
    assert "yes" in report.verdict


DIVERGES = "recurrent: yes (heuristic); p appears to diverge to -inf"
V_GROWS = "recurrent: no (heuristic); p plateaus and v keeps growing"
RECURRENCE_CASES = [
    *[(model, DIVERGES) for model in CATALOG],
    (constant_drift(0.0), DIVERGES),
    (constant_drift(-1.0), V_GROWS),
    # custom twins, with no closed-form beta
    (custom_drift(lambda y: 2.0 + np.sin(y), np.cos, name="bare-sine"), DIVERGES),
    (custom_drift(lambda y: 1.0 + 0.0 * y, lambda y: 0.0 * y, name="bare-mu=1"), DIVERGES),
    (custom_drift(lambda y: -1.0 + 0.0 * y, lambda y: 0.0 * y, name="bare-mu=-1"), V_GROWS),
    # geometric BM through the Lamperti map: unit drift 0.75, no closed-form beta
    (_gbm(0.5, 0.5), DIVERGES),
]


@pytest.mark.parametrize("model, verdict", RECURRENCE_CASES,
                         ids=[m.label() for m, _ in RECURRENCE_CASES])
def test_recurrence_verdicts(model, verdict):
    report = recurrence_diagnostic(model, 10.0)
    assert report.verdict == verdict
    assert report.depths == (10.0, 100.0, 1000.0)
    assert all(map(math.isfinite, report.log_abs_p))
    assert (report.v_deepest is None) == (verdict == DIVERGES)


@pytest.mark.parametrize("depth", [math.inf, math.nan, -math.inf, 0.0, -1.0])
def test_recurrence_refuses_a_probe_depth_that_is_not_positive_and_finite(depth):
    with pytest.raises(ConfigError, match="probe_depth"):
        recurrence_diagnostic(sine_drift(), depth)


def test_recurrence_reports_a_nan_log_p_as_inconclusive():
    # a closed-form beta that turns NaN below -50 once read as a plateau and
    # gave "recurrent: no"; a NaN log|p| is numeric trouble, not a verdict
    model = custom_drift(lambda y: 1.0 + 0.0 * np.asarray(y, dtype=float),
                         lambda y: 0.0 * np.asarray(y, dtype=float),
                         beta_closed=lambda y: np.where(np.asarray(y) < -50.0, np.nan, y))
    report = recurrence_diagnostic(model, 10.0)
    assert report.verdict == "inconclusive (numeric trouble probing p)"
    assert math.isfinite(report.log_abs_p[0])
    assert not any(map(math.isfinite, report.log_abs_p[1:]))
    assert report.v_deepest is None


def test_recurrence_reports_model_trouble_as_inconclusive():
    # sigma = 2 exp(2z) underflows to 0 on the deepest probe's grid, where the
    # Lamperti reduction raises ModelError: numeric trouble, not a crash
    report = recurrence_diagnostic(_gbm(3.0, 2.0), 10.0)
    assert report.verdict == "inconclusive (numeric trouble probing p)"
    assert report.log_abs_p == ()


@pytest.mark.parametrize("mu", [1.0, -1.0])
def test_recurrence_without_closed_beta_matches_closed_form(mu):
    # with no closed-form beta the probes integrate b on the same grid;
    # they must reach the constant drift's verdict and its log|p|
    bare = custom_drift(lambda y: mu + 0.0 * np.asarray(y, dtype=float),
                        lambda y: 0.0 * np.asarray(y, dtype=float))
    got = recurrence_diagnostic(bare, 10.0)
    want = recurrence_diagnostic(constant_drift(mu), 10.0)
    assert got.verdict == want.verdict
    assert got.log_abs_p == pytest.approx(want.log_abs_p, abs=1e-3)


@pytest.mark.parametrize("model", [constant_drift(-1.0), constant_drift(-0.5), sine_drift(),
                                   neg_arctan_drift(), ou_drift(0.3, 1.0)],
                         ids=lambda m: m.label())
def test_recurrence_v_matches_nested_quadrature(model):
    # v(-d) = int_{-d}^0 2 exp(-beta(s)) int_s^0 exp(beta(z)) dz ds, which the
    # probe reads off two cumulative trapezoids of one beta grid
    from fptsim.drift import _beta_grid, _from_zero
    for depth in (5.0, 10.0, 20.0):
        ys, betas = _beta_grid(model, depth)
        grid_v = _from_zero(ys, 2.0 * np.exp(-betas) * _from_zero(ys, np.exp(betas)))[0]
        beta = model.beta_closed
        want, _ = quad(lambda s: 2.0 * math.exp(-beta(s)) * quad(
            lambda z: math.exp(beta(z)), s, 0.0, epsabs=1e-10, epsrel=1e-10)[0],
            -depth, 0.0, epsabs=1e-10, epsrel=1e-10, limit=200)
        assert grid_v == pytest.approx(want, rel=2e-4)


# ---------------------------------------------------------------------------
# model spec strings
# ---------------------------------------------------------------------------


def test_model_from_spec_roundtrip():
    model = model_from_spec("ou:alpha=0.3,beta=1")
    assert float(model.b(0.0)) == pytest.approx(1.0)
    assert float(model.b(2.0)) == pytest.approx(0.4)
    assert model_from_spec("sine").kind == "sine"
    assert model_from_spec("constant:mu=2").params["mu"] == 2.0


def test_model_from_spec_errors():
    with pytest.raises(ConfigError):
        model_from_spec("polynomial:a=1")
    with pytest.raises(ConfigError):
        model_from_spec("ou:alpha")
    with pytest.raises(ConfigError):
        model_from_spec("ou:alpha=x")
    with pytest.raises(ConfigError):
        model_from_spec("ou:speed=1")
