"""Tests for the reference distributions, KS machinery and efficiency reports."""

import csv
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fptsim import (BoundCertificate, RandomStream, SamplerConfig,
                    constant_drift, custom_drift, delta_compare, em_fpt_oracle,
                    arctan_shift_drift, ig_cdf, ig_pdf,
                    iteration_identity_check, iteration_identity_target,
                    ks_statistic, ou_drift, rho_distance_bound, sample_batch,
                    sine_drift, two_sample_ks)
from fptsim import harness
from fptsim import rng as rng_module
from fptsim import samplers
from fptsim.errors import ConfigError, FptsimError
from fptsim.harness import (_CoupledLanes, _coupled_iteration, _coupled_totals,
                            _delta_totals, brownian_fpt_cdf, geometric_iteration_gof,
                            histogram_export)
from fptsim.rng import NORMAL
from fptsim.samplers import _prepare, poisson_time_points
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

import dataclasses


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_ig_pdf_normalizes():
    mass, _ = quad(lambda t: ig_pdf(t, 2.0, 1.0), 0.0, np.inf, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_ig_cdf_is_antiderivative_of_pdf():
    grid = np.linspace(0.05, 12.0, 240)
    h = 1e-5
    fd = (ig_cdf(grid + h, 2.0, 1.0) - ig_cdf(grid - h, 2.0, 1.0)) / (2 * h)
    assert np.max(np.abs(fd - ig_pdf(grid, 2.0, 1.0))) < 1e-6


def test_ig_cdf_limits():
    assert ig_cdf(1e-12, 2.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert ig_cdf(1e9, 2.0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_ig_cdf_without_drift_is_the_driftless_cdf():
    grid = np.linspace(0.05, 12.0, 40)
    assert np.array_equal(ig_cdf(grid, 2.0, 0.0), brownian_fpt_cdf(grid, 2.0))
    assert ig_cdf(3.0, 2.0, 0.0) == brownian_fpt_cdf(3.0, 2.0)


def test_ig_cdf_with_drift_away_is_defective():
    # drift away from the level: the passage happens with probability exp(2 mu gap)
    gap, mu = 1.5, -0.4
    for t in (0.3, 2.0, 9.0):
        want, _ = quad(lambda s: ig_pdf(s, gap, mu), 0.0, t, limit=200)
        assert ig_cdf(t, gap, mu) == pytest.approx(want, abs=1e-9)
    assert ig_cdf(1e7, gap, mu) == pytest.approx(math.exp(2.0 * mu * gap), abs=1e-9)


def test_ig_mean_and_median_sanity():
    # IG(mu=gap/drift, lambda=gap^2): mean = 2 for gap=2, drift=1
    mean, _ = quad(lambda t: t * ig_pdf(t, 2.0, 1.0), 0.0, np.inf, limit=400)
    assert mean == pytest.approx(2.0, abs=1e-7)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------


def test_ks_statistic_under_the_null():
    rng = np.random.default_rng(5)
    sample = rng.exponential(1.0, size=10**5)
    d = ks_statistic(sample, lambda t: 1.0 - np.exp(-np.asarray(t)))
    assert d < 1.36 / math.sqrt(10**5) * 1.5


def test_two_sample_ks_degenerate_cases():
    a = [0.3, 1.2, 2.2, 4.0]
    assert two_sample_ks(a, a) == 0.0
    assert two_sample_ks([1.0, 2.0], [5.0, 6.0]) == 1.0


def test_two_sample_ks_hand_value():
    assert two_sample_ks([1.0, 2.0, 3.0], [1.5, 2.5]) == pytest.approx(1.0 / 3.0)


def test_ks_requires_data():
    with pytest.raises(ValueError):
        ks_statistic([], lambda t: t)
    with pytest.raises(ValueError):
        two_sample_ks([], [1.0])
    # a NaN or an infinity would give a wrong distance, not an error
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite"):
            ks_statistic([0.2, bad, 0.7], lambda t: t)
        with pytest.raises(ConfigError, match="finite"):
            two_sample_ks([1.0, 2.0, bad], [1.5, 2.5, 3.0])
        with pytest.raises(ConfigError, match="finite"):
            two_sample_ks([1.5, 2.5, 3.0], [1.0, bad])


EMPTY_OR_INVALID = {
    "ks": lambda path: ks_statistic([], lambda t: t),
    "two-sample-ks": lambda path: two_sample_ks([1.0], []),
    "identity-no-counts": lambda path: iteration_identity_check(
        np.array([]), constant_drift(1.0), 0.0, 2.0),
    "geometric-empty": lambda path: geometric_iteration_gof([]),
    "geometric-zero": lambda path: geometric_iteration_gof([0, 1, 2]),
    "geometric-no-mass": lambda path: geometric_iteration_gof([1, 2, 3, 1, 1, 2] * 50,
                                                              min_expected=0.0),
    "histogram-empty": lambda path: histogram_export(np.array([]), 5, path),
    "histogram-no-bins": lambda path: histogram_export([1.0, 2.0], 0, path),
    "histogram-nan": lambda path: histogram_export([1.0, math.nan], 5, path),
    "geometric-mean-too-large": lambda path: geometric_iteration_gof([10**17] * 10),
    "geometric-nan": lambda path: geometric_iteration_gof([1, 2, math.nan, 1] * 50),
    "split-count-zero-gap": lambda path: samplers.optimal_split_count(0.0, 5.0),
    "split-count-inf-gap": lambda path: samplers.optimal_split_count(math.inf, 1.0),
    "poisson-zero-rate": lambda path: poisson_time_points(RandomStream(1), 1.0, 0.0),
    "poisson-inf-rate": lambda path: poisson_time_points(RandomStream(1), 1.0, math.inf),
    "poisson-inf-horizon": lambda path: poisson_time_points(RandomStream(1), math.inf, 5.0),
    "poisson-nan-horizon": lambda path: poisson_time_points(RandomStream(1), math.nan, 5.0),
    "poisson-negative-horizon": lambda path: poisson_time_points(RandomStream(1), -1.0, 5.0),
    "histogram-fractional-bins": lambda path: histogram_export([1.0, 2.0], 2.5, path),
    "histogram-nan-bins": lambda path: histogram_export([1.0, 2.0], math.nan, path),
    # each of these once returned a number that read as an answer
    "identity-nan-count": lambda path: iteration_identity_check(
        [1, 2, math.nan], constant_drift(1.0), 0.0, 2.0),
    "identity-zero-count": lambda path: iteration_identity_check(
        [1, 0, 3], constant_drift(1.0), 0.0, 2.0),
    "geometric-fractional": lambda path: geometric_iteration_gof([1.7, 2.9, 3.2, 1.1] * 50),
    "identity-fractional-count": lambda path: iteration_identity_check(
        [1.5, 2.5, 3.5], constant_drift(1.0), 0.0, 2.0),
    "rho-bound-x-above-level": lambda path: rho_distance_bound(constant_drift(1.0), 3.0, 1.0, 5.0),
    "rho-bound-x-below-cut": lambda path: rho_distance_bound(constant_drift(1.0), -5.0, 1.0, 5.0),
    "rho-bound-nan-level": lambda path: rho_distance_bound(constant_drift(1.0), 0.0, math.nan, 5.0),
    "rho-bound-inf-rho": lambda path: rho_distance_bound(constant_drift(1.0), 0.0, 1.0, math.inf),
    "rho-bound-zero-rho": lambda path: rho_distance_bound(constant_drift(1.0), 0.0, 1.0, 0.0),
    "rho-bound-negative-rho": lambda path: rho_distance_bound(constant_drift(1.0), 0.0, 1.0, -2.0),
    **{f"em-oracle-{name}": lambda path, kw=kw: em_fpt_oracle(**{
        "model": constant_drift(1.0), "x": 0.0, "L": 2.0, "t_max": 1.0, "step": 1e-2, "n": 10,
        "stream": RandomStream(1), **kw})
       for name, kw in [("nan-x", {"x": math.nan}), ("inf-level", {"L": math.inf}),
                        ("inf-step", {"step": math.inf}), ("nan-t-max", {"t_max": math.nan}),
                        ("zero-step", {"step": 0.0}), ("negative-t-max", {"t_max": -1.0}),
                        ("fractional-n", {"n": 2.5})]},
}


@pytest.mark.parametrize("name", sorted(EMPTY_OR_INVALID))
def test_empty_or_invalid_input_is_a_config_error(name, tmp_path):
    with pytest.raises(ConfigError):
        EMPTY_OR_INVALID[name](tmp_path / "h.csv")


# ---------------------------------------------------------------------------
# iteration identities
# ---------------------------------------------------------------------------


def test_iteration_identity_targets():
    assert iteration_identity_target(constant_drift(1.0), 0.0, 2.0) == pytest.approx(
        math.e**2, rel=1e-12)
    # flat shifted field: exponent collapses to zero
    assert iteration_identity_target(constant_drift(1.0), 0.0, 2.0,
                                     gamma0=0.5) == pytest.approx(1.0, rel=1e-12)
    oracle, _ = quad(lambda u: 2.0 + math.sin(u), 0.0, 2.0, epsabs=1e-13)
    assert iteration_identity_target(sine_drift(), 0.0, 2.0) == pytest.approx(
        math.exp(oracle), rel=1e-10)


def test_iteration_identity_check_report():
    cfg = SamplerConfig(x=0.0, L=2.0, model=constant_drift(1.0),
                        cert=BoundCertificate(kappa=0.5, domain_hint=-50.0))
    draws = sample_batch(cfg, 3000, RandomStream(61))
    iterations = [d.stats.iterations for d in draws]
    report = iteration_identity_check(iterations, cfg.model, 0.0, 2.0, kappa=0.5)
    assert abs(report.z_score) < 3.0
    assert report.bound_ok
    assert report.upper_bound == pytest.approx(math.e**2, rel=1e-12)


def test_xi_estimate_matches_normalization():
    cfg = SamplerConfig(x=0.0, L=2.0, model=constant_drift(1.0),
                        cert=BoundCertificate(kappa=0.5, domain_hint=-50.0))
    draws = sample_batch(cfg, 4000, RandomStream(62))
    iters = np.array([d.stats.iterations for d in draws], dtype=float)
    xi = 1.0 / iteration_identity_target(cfg.model, 0.0, 2.0)
    assert xi == pytest.approx(math.exp(-2.0), rel=1e-12)
    se = iters.std(ddof=1) / math.sqrt(len(iters))
    assert abs(1.0 / iters.mean() - xi) < 3.0 * se / iters.mean() ** 2


def test_geometric_gof_accepts_geometric_rejects_constant():
    rng = np.random.default_rng(7)
    geo = rng.geometric(0.2, size=5000)
    _, _, p_geo = geometric_iteration_gof(geo)
    assert p_geo > 0.01
    _, _, p_flat = geometric_iteration_gof(np.full(5000, 5))
    assert p_flat < 0.01


def _walked_gof(iters, min_expected=5.0):
    """Cells and (chi2, dof) of the fit found by walking the support one point
    at a time: the reference for the closed-form cell ends."""
    n = len(iters)
    p_hat = 1.0 / float(iters.mean())
    cells = []
    k = 1
    acc_prob = 0.0
    start = 1
    while True:
        acc_prob += p_hat * (1.0 - p_hat) ** (k - 1)
        tail = (1.0 - p_hat) ** k
        if n * tail < min_expected:
            cells.append((start, None, acc_prob + tail))
            break
        if n * acc_prob >= min_expected:
            cells.append((start, k, acc_prob))
            start = k + 1
            acc_prob = 0.0
        k += 1
    observed = np.array([np.sum(iters >= lo) if hi is None else
                         np.sum((iters >= lo) & (iters <= hi)) for lo, hi, _ in cells], dtype=float)
    expected = n * np.array([prob for _, _, prob in cells])
    return cells, float(np.sum((observed - expected) ** 2 / expected)), max(len(cells) - 2, 1)


def _unit_a1_iterations(n, stream):
    cfg = SamplerConfig(x=0.0, L=2.0, model=constant_drift(1.0),
                        cert=BoundCertificate(kappa=0.5, domain_hint=-100.0), variant="a1")
    return [d.stats.iterations for d in sample_batch(cfg, n, stream)]


GOF_INPUTS = {
    # the inputs the suite fits: geometric and constant counts, and sampled
    # unit-drift a1 iteration counts as test_samplers and criterion 8d draw them
    "geometric-0.2": lambda: np.random.default_rng(7).geometric(0.2, size=5000),
    "constant-5": lambda: np.full(5000, 5),
    "unit-a1-4000": lambda: _unit_a1_iterations(4000, RandomStream(104)),
    "unit-a1-10000": lambda: _unit_a1_iterations(10**4, RandomStream(20260810, 10)),
    **{f"constant-1e{e}": (lambda e=e: np.full(1000, 10**e)) for e in range(2, 7)},
}


@pytest.mark.parametrize("name", sorted(GOF_INPUTS))
def test_geometric_gof_cells_are_the_walks(name):
    iters = np.asarray(GOF_INPUTS[name](), dtype=int)
    walked, walked_chi2, walked_dof = _walked_gof(iters)
    cells = harness._geometric_cells(len(iters), 1.0 / float(iters.mean()), 5.0)
    assert [cell[:2] for cell in cells] == [cell[:2] for cell in walked]
    chi2, dof, p_value = geometric_iteration_gof(iters)
    assert dof == walked_dof
    assert chi2 == pytest.approx(walked_chi2, rel=1e-12)
    # whole-number counts read as floats fit as the integers do
    assert geometric_iteration_gof(iters.astype(float)) == (chi2, dof, p_value)


# ---------------------------------------------------------------------------
# coupled comparator
# ---------------------------------------------------------------------------


def test_delta_zero_for_empty_field():
    cfg = SamplerConfig(x=0.0, L=2.0, model=constant_drift(0.0),
                        cert=BoundCertificate(kappa=0.0, domain_hint=-50.0))
    report = delta_compare(cfg, 200, RandomStream(63))
    assert report.mean_delta == 0.0
    assert report.std_delta == 0.0


def _fixed_horizon_plan(T, kappa):
    # a zero field under ceiling kappa, with every proposal equal to T
    cfg = SamplerConfig(x=0.0, L=1.0, model=constant_drift(0.0),
                        cert=BoundCertificate(kappa=kappa, domain_hint=-50.0))
    plan = _prepare(cfg)
    fixed = dataclasses.replace(plan.proposal, draw=lambda stream, *params: T)
    return dataclasses.replace(plan, proposal=fixed)


def _feed_times(stream, T, kappa):
    # the points the comparator draws for its time-ordered scan: on a zero
    # field the scan tests every point and accepts, at a cost of 2 + 5k
    accepted, _, cost, _ = _coupled_iteration(_fixed_horizon_plan(T, kappa), stream,
                                              False, True)
    assert accepted and cost % 5 == 2
    return range((cost - 2) // 5)


@pytest.mark.parametrize("points", [poisson_time_points, _feed_times],
                         ids=["poisson_time_points", "point_feed"])
def test_delta_comparator_point_counts_are_poisson(points):
    # the time marginal feeding both scans is a rate-kappa Poisson stream
    T, kappa = 3.0, 5.0
    s = RandomStream(64)
    counts = np.array([len(points(s, T, kappa)) for _ in range(3000)])
    lam = kappa * T
    ks = np.arange(0, counts.max() + 1)
    pmf = sstats.poisson.pmf(ks, lam)
    # group cells so every expected count is at least 5
    observed, expected = [], []
    obs_acc = exp_acc = 0.0
    for k in ks:
        obs_acc += np.sum(counts == k)
        exp_acc += 3000 * pmf[k]
        if exp_acc >= 5.0:
            observed.append(obs_acc)
            expected.append(exp_acc)
            obs_acc = exp_acc = 0.0
    observed[-1] += obs_acc + 0.0
    expected[-1] += exp_acc + 3000 * sstats.poisson.sf(int(ks[-1]), lam)
    chi2 = float(np.sum((np.array(observed) - np.array(expected)) ** 2
                        / np.array(expected)))
    p = sstats.chi2.sf(chi2, len(observed) - 1)
    assert p > 0.01


def test_delta_comparator_marginals_match_native_costs():
    model = sine_drift()
    cert = BoundCertificate(kappa=5.0, gamma0=0.25, domain_hint=-100.0)
    cfg = SamplerConfig(x=0.0, L=2.0, model=model, cert=cert, variant="a1")
    report = delta_compare(cfg, 1500, RandomStream(65))
    native1 = sample_batch(cfg, 1500, RandomStream(66))
    native2 = sample_batch(dataclasses.replace(cfg, variant="a2"), 1500, RandomStream(67))
    m1 = np.mean([d.stats.total_points for d in native1])
    m2 = np.mean([d.stats.total_points for d in native2])
    # loose agreement: the iteration count is heavy-tailed at this replication size
    assert report.mean_n1 == pytest.approx(m1, rel=0.25)
    assert report.mean_n2 == pytest.approx(m2, rel=0.25)
    assert report.mean_delta < 0


def _clamped_arctan_config():
    model = arctan_shift_drift()
    base_gamma = model.gamma_scalar
    clamped = dataclasses.replace(model,
                                  gamma_scalar=lambda y: max(0.0, base_gamma(y)))
    kappa = 0.5 * (1.0 + math.pi / 2.0) ** 2
    return SamplerConfig(x=0.0, L=2.0, model=clamped,
                         cert=BoundCertificate(kappa=kappa, domain_hint=-100.0))


def test_delta_comparator_wide_level_with_clamped_field():
    # characterization: widening the level to 2 while clamping the field at
    # zero (it dips negative near the level) produces the strong cost
    # asymmetry between the two scans: mean about -170, ratio about -0.67
    report = delta_compare(_clamped_arctan_config(), 2000, RandomStream(68))
    assert -203.6 < report.mean_delta < -135.8
    assert -0.77 < report.ratio < -0.57


def _nan_below_drift():
    # b is NaN below y = -0.5, as in test_nan_field_is_a_certificate_breach
    def b(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < -0.5, np.nan, 1.0)

    def b_prime(y):
        return 0.0 * np.asarray(y, dtype=float)

    return custom_drift(b, b_prime)


BREACH_CASES = {
    # sine's field reaches about 4.5 near L=2, above the claimed ceiling 3
    "kappa3": (SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                             cert=BoundCertificate(kappa=3.0, domain_hint=-100.0)),
               50, 5),
    "nan": (SamplerConfig(x=0.0, L=1.0, model=_nan_below_drift(),
                          cert=BoundCertificate(kappa=0.5, domain_hint=-100.0)),
            200, 131),
}


@pytest.mark.parametrize("name", sorted(BREACH_CASES))
def test_delta_compare_raises_on_certificate_breach(name):
    from fptsim.errors import ModelError
    cfg, n, seed = BREACH_CASES[name]
    with pytest.raises(ModelError, match="certificate does not hold"):
        sample_batch(cfg, n, RandomStream(seed))
    with pytest.raises(ModelError, match="certificate does not hold"):
        delta_compare(cfg, n, RandomStream(seed))


def _last_bits_config():
    # a field set by the last bits of its argument: a point whose arithmetic
    # moves it by an ulp is decided afresh, so the totals show any such change
    def b_prime(y):
        mantissa = np.frexp(y)[0]
        k = np.mod(mantissa * 2.0 ** 53, 2.0 ** 20)
        z = k * 0.6180339887498949
        return 7.0 * (z - np.floor(z))

    model = custom_drift(lambda y: 0.0 * np.asarray(y, dtype=float), b_prime)
    return SamplerConfig(x=0.0, L=1.0, model=model,
                         cert=BoundCertificate(kappa=3.5, domain_hint=-100.0))


_SINE_COMPARE = SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                              cert=BoundCertificate(kappa=5.0, domain_hint=-100.0))
COMPARE_CONFIGS = {
    "sine-a1": (_SINE_COMPARE, 400),
    "sine-a2": (dataclasses.replace(_SINE_COMPARE, variant="a2"), 300),
    "clamped-arctan": (_clamped_arctan_config(), 300),
    "last-bits": (_last_bits_config(), 300),
}
# (mean_delta, std_delta, mean_n1, mean_n2).hex() of delta_compare on stream
# (20261018, 11); any change here changes the comparator's realized draws
PINNED_COMPARE = {
    "sine-a1": ["-0x1.edf0a3d70a3d7p+7", "0x1.b7ab61956ec7ep+10",
                "0x1.bf44ccccccccdp+10", "0x1.8186b851eb852p+10"],
    "sine-a2": ["-0x1.0c75c28f5c28fp+8", "0x1.bbae5e6dc42a6p+10",
                "0x1.bc3e147ae147bp+10", "0x1.7920a3d70a3d7p+10"],
    "clamped-arctan": ["-0x1.51947ae147ae1p+7", "0x1.a245b23bc08f5p+7",
                       "0x1.ff2aaaaaaaaabp+7", "0x1.5b2c5f92c5f93p+6"],
    "last-bits": ["-0x1.1c00000000000p+4", "0x1.b9ee65fb39449p+5",
                  "0x1.11740da740da7p+6", "0x1.94e81b4e81b4fp+5"],
}


@pytest.mark.parametrize("name", sorted(PINNED_COMPARE))
def test_compare_output_is_pinned(name):
    cfg, n = COMPARE_CONFIGS[name]
    report = delta_compare(cfg, n, RandomStream(20261018, 11))
    got = [v.hex() for v in (report.mean_delta, report.std_delta,
                             report.mean_n1, report.mean_n2)]
    assert got == PINNED_COMPARE[name]


# lane widths the lane-vs-scalar tests run at: the narrow ones queue
# replicates at the batch sizes below, which the default width does not
LANE_WIDTHS = (16, 128, samplers._LANE_WIDTH)


def _scalar_totals(plan, n, stream):
    return np.array([_coupled_totals(plan, stream.substream(rep)) for rep in range(n)],
                    dtype=float)


@pytest.mark.parametrize("name", sorted(COMPARE_CONFIGS))
def test_lane_comparator_is_the_scalar_one(name, monkeypatch):
    # per replicate, bit for bit, below, at and above _LANE_MIN, at every
    # width of LANE_WIDTHS: n = 129 and 300 run above the widths 16 and 128,
    # so replicates queue for a lane; the lane kernel runs directly, so
    # n = 15 runs it too, and hands off at once
    cfg = COMPARE_CONFIGS[name][0]
    plan = _prepare(cfg)
    rechecked = []
    recheck = _CoupledLanes._recheck

    def counted(self, f, y, lanes):
        rechecked.append(len(lanes))
        return recheck(self, f, y, lanes)

    monkeypatch.setattr(_CoupledLanes, "_recheck", counted)
    for n in (15, 16, 129, 300):
        stream = RandomStream(20261018, 12).substream(n)
        want = _scalar_totals(plan, n, stream)
        for width in LANE_WIDTHS:
            monkeypatch.setattr(samplers, "_LANE_WIDTH", width)
            assert np.array_equal(_CoupledLanes(plan, n, stream, 0).run(), want)
    if name == "clamped-arctan":
        # numpy's unclamped field dips below 0 near the level, where the
        # scalar gamma clamps it: those points are decided by the recheck
        assert sum(rechecked) > 100
    if not name.startswith("sine"):
        return
    # sine replicates run ~500 points: some read past their first 1024
    # normals, so the lanes above cross a refill
    blocks = []
    block = rng_module._block

    def counting(gen, kind, out=None):
        blocks[-1] += kind == NORMAL
        return block(gen, kind, out)

    monkeypatch.setattr(rng_module, "_block", counting)
    stream = RandomStream(20261018, 12).substream(300)
    for rep in range(300):
        blocks.append(0)
        _coupled_totals(plan, stream.substream(rep))
    assert max(blocks) > 1


class _StubStream:
    """The scalar draw methods the comparator reads, giving the listed draws in turn."""

    def __init__(self, normals, exponentials, uniforms):
        self.draws = [iter(normals), iter(exponentials), iter(uniforms)]

    def normal3(self):
        return tuple(next(self.draws[0]) for _ in range(3))

    def exponential(self, mean):
        return mean * next(self.draws[1])

    def uniform(self, hi=1.0):
        return hi * next(self.draws[2])


def test_image_rounding_to_the_horizon_takes_the_pin():
    # with the largest uniform below 1, the image time h T / kappa of the one
    # point rounds to exactly T, where the bridge is pinned
    T, kappa, top = 22.611159256555982, 3.5, 1.0 - 2.0 ** -53
    assert kappa * top * T / kappa == T
    stream = _StubStream([0.3, -0.2, 0.1], [1.0, 1000.0], [top])
    assert _coupled_iteration(_fixed_horizon_plan(T, kappa), stream,
                              False, False) == (True, True, 7, 7)


# L=1 keeps each replicate short
_PREFIX_CONFIG = dataclasses.replace(_SINE_COMPARE, L=1.0)
_prefix_reference = {}


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), m=st.integers(1, 40))
def test_delta_totals_do_not_depend_on_batch_size(n, m):
    # the first m totals of an n-replicate run are those of an m-replicate run,
    # on either side of _LANE_MIN: a replicate's totals do not depend on which
    # other replicates share its lanes, or on whether lanes run at all
    plan = _prepare(_PREFIX_CONFIG)
    if not _prefix_reference:
        _prefix_reference["totals"] = _scalar_totals(plan, 40, RandomStream(20261018, 13))
    m = min(m, n)
    got = _delta_totals(plan, n, RandomStream(20261018, 13))
    assert np.array_equal(got[:m], _delta_totals(plan, m, RandomStream(20261018, 13))[:m])
    assert np.array_equal(got, _prefix_reference["totals"][:n])


FAILING_COMPARE = {
    "budget": (dataclasses.replace(_SINE_COMPARE, max_iterations=60), 100, 14),
    **BREACH_CASES,
}


@pytest.mark.parametrize("name", sorted(FAILING_COMPARE))
def test_lane_comparator_fails_as_the_scalar_one(name):
    # the lane path fails, and delta_compare raises what the scalar path
    # raises at its first failing replicate
    cfg, n, seed = FAILING_COMPARE[name]
    plan = _prepare(cfg)
    with pytest.raises(FptsimError):
        _CoupledLanes(plan, n, RandomStream(seed), 0).run()
    with pytest.raises(FptsimError) as lanes:
        delta_compare(cfg, n, RandomStream(seed))
    with pytest.raises(FptsimError) as scalar:
        _scalar_totals(plan, n, RandomStream(seed))
    assert type(lanes.value) is type(scalar.value)
    assert str(lanes.value) == str(scalar.value)


@pytest.mark.parametrize("n", [0, -2])
def test_delta_compare_needs_a_replicate(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="n >= 1"):
            delta_compare(_SINE_COMPARE, n, RandomStream(1))


def test_delta_compare_rejects_nonplain_configs():
    cfg = SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                        cert=BoundCertificate(kappa=5.0, gamma0=0.25),
                        variant="a1-shift")
    with pytest.raises(ConfigError):
        delta_compare(cfg, 10, RandomStream(1))


# ---------------------------------------------------------------------------
# Euler-Maruyama oracle
# ---------------------------------------------------------------------------


def test_em_oracle_unit_drift_matches_closed_form():
    em = em_fpt_oracle(constant_drift(1.0), 0.0, 2.0, t_max=15.0, step=1e-3,
                       n=5 * 10**4, stream=RandomStream(71))
    assert 5 * 10**4 - len(em) < 100
    assert ks_statistic(em, lambda t: ig_cdf(t, 2.0, 1.0)) < 0.015


@pytest.mark.slow
def test_em_oracle_driftless_matches_reflection():
    t_max = 50.0
    em = em_fpt_oracle(constant_drift(0.0), 0.0, 2.0, t_max=t_max, step=1e-3,
                       n=3 * 10**4, stream=RandomStream(72))
    cond = brownian_fpt_cdf(t_max, 2.0)
    assert ks_statistic(em, lambda t: brownian_fpt_cdf(t, 2.0) / cond) < 0.015


def test_em_oracle_refinement_trend():
    coarse = em_fpt_oracle(constant_drift(1.0), 0.0, 2.0, t_max=15.0, step=4e-3,
                           n=2 * 10**4, stream=RandomStream(73))
    fine = em_fpt_oracle(constant_drift(1.0), 0.0, 2.0, t_max=15.0, step=1e-3,
                         n=2 * 10**4, stream=RandomStream(74))
    ks_c = ks_statistic(coarse, lambda t: ig_cdf(t, 2.0, 1.0))
    ks_f = ks_statistic(fine, lambda t: ig_cdf(t, 2.0, 1.0))
    assert ks_f <= ks_c + 0.01


def test_em_oracle_batch_size():
    with pytest.raises(ConfigError, match="n >= 0"):
        em_fpt_oracle(constant_drift(1.0), 0.0, 2.0, t_max=1.0, step=1e-2, n=-1,
                      stream=RandomStream(75))
    empty = em_fpt_oracle(constant_drift(1.0), 0.0, 2.0, t_max=1.0, step=1e-2, n=0,
                          stream=RandomStream(75))
    assert isinstance(empty, np.ndarray) and len(empty) == 0


@pytest.mark.parametrize("x", [3.0, 2.0])
def test_em_oracle_refuses_a_start_at_or_above_the_level(x):
    # the bridge probability exp(-2 (L-x)(L-x') / step) is >= 1 there, so
    # every path used to read as crossing at the first step
    with pytest.raises(ConfigError, match="must exceed the start"):
        em_fpt_oracle(constant_drift(1.0), x, 2.0, t_max=1.0, step=1e-2, n=5,
                      stream=RandomStream(75))


# ---------------------------------------------------------------------------
# truncation distance bound
# ---------------------------------------------------------------------------


def test_rho_distance_bound_unit_drift_closed_form():
    # p(y) = 1 - e^{-y}: bound = 2 (1 - e^{-1}) / (e^5 - e^{-1})
    expect = 2.0 * (1.0 - math.exp(-1.0)) / (math.exp(5.0) - math.exp(-1.0))
    got = rho_distance_bound(constant_drift(1.0), 0.0, 1.0, 5.0)
    assert got == pytest.approx(expect, rel=1e-8)
    assert got == pytest.approx(0.00854, abs=2e-5)


def test_rho_distance_bound_monotone_and_degenerate():
    ou = ou_drift(0.3, 1.0)
    bounds = [rho_distance_bound(ou, 0.0, 1.0, r) for r in (3.0, 5.0, 8.0)]
    assert bounds[0] > bounds[1] > bounds[2] > 0.0
    assert rho_distance_bound(constant_drift(1.0), 1.0, 1.0, 5.0) == 0.0


# ---------------------------------------------------------------------------
# histogram export
# ---------------------------------------------------------------------------


def _read_hist(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_left", "bin_right", "density"]
    return [(float(a), float(b), float(d)) for a, b, d in rows[1:]]


def test_histogram_single_point(tmp_path):
    path = tmp_path / "single.csv"
    histogram_export(np.array([3.0]), 1, path)
    rows = _read_hist(path)
    assert len(rows) == 1
    lo, hi, density = rows[0]
    assert density == pytest.approx(1.0 / (hi - lo))


def test_histogram_uniform_sample(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "uniform.csv"
    histogram_export(rng.random(2 * 10**4), 10, path)
    rows = _read_hist(path)
    assert len(rows) == 10
    for _, _, density in rows:
        assert density == pytest.approx(1.0, abs=0.1)
    total = sum((hi - lo) * d for lo, hi, d in rows)
    assert total == pytest.approx(1.0, rel=1e-12)


def test_histogram_tracks_reference_density(tmp_path):
    cfg = SamplerConfig(x=0.0, L=2.0, model=constant_drift(1.0),
                        cert=BoundCertificate(kappa=0.5, domain_hint=-50.0))
    draws = sample_batch(cfg, 10**4, RandomStream(75))
    values = np.array([d.value for d in draws])
    path = tmp_path / "ig.csv"
    histogram_export(values, 60, path)
    n = len(values)
    for lo, hi, density in _read_hist(path):
        width = hi - lo
        p_bin = float(ig_cdf(hi, 2.0, 1.0) - ig_cdf(lo, 2.0, 1.0))
        se = math.sqrt(max(p_bin * (1 - p_bin), 1e-12) / n) / width
        assert abs(density - p_bin / width) <= 3.0 * se + 0.02


def test_histogram_validates_input(tmp_path):
    with pytest.raises(Exception):
        histogram_export(np.array([]), 5, tmp_path / "x.csv")
