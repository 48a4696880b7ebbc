"""Tests for the rejection samplers and their run statistics."""

import dataclasses
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptsim import rng as rng_module
from fptsim import samplers
from fptsim import (BoundCertificate, BudgetError, ConfigError, FptDraw, ModelError,
                    NumericError, ProposalDraw, RandomStream, RunStats, SamplerConfig,
                    constant_drift,
                    custom_drift, delta_compare, ig_cdf, neg_arctan_drift, optimal_split_count, ou_drift,
                    sample, sample_batch, sine_drift, truncate_drift,
                    truncated_ou_kappa, validate_config)
from fptsim.harness import (brownian_fpt_cdf, geometric_iteration_gof,
                            ks_statistic, two_sample_ks)

UNIT = constant_drift(1.0)
CERT_HALF = BoundCertificate(kappa=0.5, domain_hint=-100.0)


def _values(draws):
    return [d.value for d in draws]


def test_driftless_accepts_first_proposal():
    model = constant_drift(0.0)
    cert = BoundCertificate(kappa=0.0, domain_hint=-100.0)
    for variant in ("a1", "a2"):
        cfg = SamplerConfig(x=0.0, L=2.0, model=model, cert=cert, variant=variant)
        draws = sample_batch(cfg, 4000, RandomStream(101))
        assert all(d.stats.iterations == 1 for d in draws)
        assert all(d.stats.points_per_iteration == (0,) for d in draws)
        ks = ks_statistic(_values(draws), lambda t: brownian_fpt_cdf(t, 2.0))
        assert ks < 0.025


@pytest.mark.parametrize("variant", ["a1", "a2"])
def test_unit_drift_matches_closed_form(variant):
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF, variant=variant)
    draws = sample_batch(cfg, 4000, RandomStream(102))
    assert ks_statistic(_values(draws), lambda t: ig_cdf(t, 2.0, 1.0)) < 0.025


def test_unit_drift_iteration_identity():
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF, variant="a1")
    draws = sample_batch(cfg, 4000, RandomStream(103))
    iters = np.array([d.stats.iterations for d in draws], dtype=float)
    target = math.e**2
    se = iters.std(ddof=1) / math.sqrt(len(iters))
    assert abs(iters.mean() - target) < 3 * se


def test_iteration_counts_are_geometric():
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF, variant="a1")
    draws = sample_batch(cfg, 4000, RandomStream(104))
    _, _, p_value = geometric_iteration_gof([d.stats.iterations for d in draws])
    assert p_value > 0.01


def test_shift_with_flat_field_accepts_immediately():
    # gamma == gamma0 == kappa: the shifted field vanishes, every proposal
    # is accepted and the output is exactly the inverse-Gaussian law
    cert = BoundCertificate(kappa=0.5, gamma0=0.5, domain_hint=-100.0)
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=cert, variant="a1-shift")
    draws = sample_batch(cfg, 4000, RandomStream(105))
    assert all(d.stats.iterations == 1 for d in draws)
    assert all(d.stats.points_per_iteration == (0,) for d in draws)
    assert ks_statistic(_values(draws), lambda t: ig_cdf(t, 2.0, 1.0)) < 0.02


def test_shift_variants_match_plain_law():
    model = sine_drift()
    cert = BoundCertificate(kappa=5.0, gamma0=0.25, domain_hint=-100.0)
    plain = sample_batch(
        SamplerConfig(x=0.0, L=2.0, model=model, cert=cert, variant="a1"),
        1500, RandomStream(106))
    shifted = sample_batch(
        SamplerConfig(x=0.0, L=2.0, model=model, cert=cert, variant="a2-shift"),
        1500, RandomStream(107))
    assert two_sample_ks(_values(plain), _values(shifted)) < 0.05


def test_split_k1_delegates_to_base_path():
    # one slice runs on the caller's stream itself, not on its substream 1
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                        variant="a1", split_k=1)
    d_split = sample(cfg, RandomStream(108))
    d_base = sample(SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                                  variant="a1"), RandomStream(108))
    d_sub = sample(cfg, RandomStream(108).substream(1))
    assert d_split.value == d_base.value
    assert d_split.stats == d_base.stats
    assert d_sub.value != d_base.value


def test_split_preserves_law_and_aggregates_stats():
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                        variant="a1", split_k=3)
    draws = sample_batch(cfg, 4000, RandomStream(109))
    assert ks_statistic(_values(draws), lambda t: ig_cdf(t, 2.0, 1.0)) < 0.025
    for d in draws[:50]:
        assert len(d.stats.points_per_iteration) == d.stats.iterations
        assert d.stats.total_points == d.stats.iterations + sum(d.stats.points_per_iteration)


def test_optimal_split_count():
    assert optimal_split_count(2.0, 5.0) == 7
    assert optimal_split_count(2.0, 0.5) == 3
    assert optimal_split_count(1e-9, 5.0) == 1


def test_optimal_split_linearizes_iteration_count():
    # at k = floor(gap sqrt(2 kappa)) + 1 the mean total iteration count is
    # bounded by k * e
    model = sine_drift()
    cert = BoundCertificate(kappa=5.0, domain_hint=-100.0)
    k = optimal_split_count(2.0, 5.0)
    cfg = SamplerConfig(x=0.0, L=2.0, model=model, cert=cert, variant="a1",
                        split_k=k)
    draws = sample_batch(cfg, 2000, RandomStream(130))
    iters = np.array([d.stats.iterations for d in draws], dtype=float)
    se = iters.std(ddof=1) / math.sqrt(len(iters))
    assert iters.mean() <= k * math.e + 3 * se


class TestConditional:
    MODEL = neg_arctan_drift()
    CERT = BoundCertificate(kappa=math.pi**2 / 8, m=0.5, domain_hint=-100.0)

    def test_support(self):
        cfg = SamplerConfig(x=0.0, L=1.0, model=self.MODEL, cert=self.CERT,
                            variant="a3", t0=1.0)
        draws = sample_batch(cfg, 2000, RandomStream(110))
        assert all(0.0 < d.value <= 1.0 for d in draws)

    def test_loose_horizon_matches_unconditional_sampler(self):
        # with m = 0 and t0 huge the conditional sampler reduces to the plain one
        cert = BoundCertificate(kappa=0.5, domain_hint=-100.0)
        cond = sample_batch(
            SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=cert, variant="a3", t0=1e6),
            4000, RandomStream(111))
        plain = sample_batch(
            SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=cert, variant="a1"),
            4000, RandomStream(112))
        assert two_sample_ks(_values(cond), _values(plain)) < 0.03


    def test_rounding_at_horizon_is_not_a_support_breach(self):
        # G^2 = z passes z >= gap^2/t0, yet gap^2/z rounds one ulp above t0;
        # the proposal clamps to t0 instead of the draw escaping its support
        t0 = 7.493860291067043
        g = 0.36529792381166565
        assert 1.0 / (g * g) > t0

        class NoPointStream:
            def normal(self):
                return g

            def exponential(self, mean):
                return math.inf

        cfg = SamplerConfig(x=0.0, L=1.0, model=UNIT, cert=CERT_HALF,
                            variant="a3", t0=t0)
        assert sample(cfg, NoPointStream()).value == t0


def test_rho_wrapper_inactive_for_bounded_model():
    cfg_rho = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                            variant="a1", rho=50.0)
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF, variant="a1")
    wrapped = sample_batch(cfg_rho, 10**4, RandomStream(113))
    plain = sample_batch(cfg, 10**4, RandomStream(114))
    assert two_sample_ks(_values(wrapped), _values(plain)) < 0.02
    # rho runs the same path as the explicitly truncated model
    d = sample(cfg_rho, RandomStream(115))
    frozen = SamplerConfig(x=0.0, L=2.0, model=truncate_drift(UNIT, 50.0),
                           cert=CERT_HALF, variant="a1")
    assert d.value > 0
    assert d == sample(frozen, RandomStream(115))


def _scalar_batch(cfg, n, base, start=0):
    """sample_batch's contract spelled out: draw i is sample() on substream start + i."""
    return [sample(cfg, base.substream(start + i)) for i in range(n)]


def _raised(fn, *args):
    with pytest.raises((BudgetError, ModelError)) as err:
        fn(*args)
    return err.value


def test_budget_error_carries_partial_stats():
    cfg = SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                        cert=BoundCertificate(kappa=5.0, domain_hint=-100.0),
                        variant="a1", max_iterations=1)
    with pytest.raises(BudgetError) as err:
        sample(cfg, RandomStream(116))
    assert err.value.stats.iterations == 1
    assert len(err.value.stats.points_per_iteration) == 1


# (variant, split_k, max_iterations); the ids name the variant unless it is a1
BUDGET_CASES = [pytest.param(variant, k, i, id=f"{k}-{i}" if variant == "a1" else f"{variant}-{k}-{i}")
                for variant in ("a1", "a2") for k, i in [(1, 1), (3, 1), (3, 4)]]


@pytest.mark.parametrize("variant, split_k, max_iterations", BUDGET_CASES)
def test_batch_budget_error_is_the_scalar_one(variant, split_k, max_iterations):
    # the batch raises the error of the first draw, in index order, that
    # exhausts its budget, with that slice's partial stats
    cfg = SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                        cert=BoundCertificate(kappa=5.0, domain_hint=-100.0),
                        variant=variant, split_k=split_k, max_iterations=max_iterations)
    base = RandomStream(116, 1)
    batch = _raised(sample_batch, cfg, 200, base, 3)
    single = _raised(_scalar_batch, cfg, 200, base, 3)
    assert type(batch) is BudgetError
    assert str(batch) == str(single)
    assert batch.stats == single.stats
    assert batch.stats.iterations == max_iterations


@pytest.mark.parametrize("variant", ["a1", "a2"])
def test_batch_budget_error_in_the_longest_draw(variant):
    # a budget only the longest of 40 draws exceeds: that draw is among the
    # last live ones, so the error comes out of the batch's last iterations
    cfg = SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                        cert=BoundCertificate(kappa=5.0, domain_hint=-100.0),
                        variant=variant)
    base = RandomStream(116, 2)
    longest = max(d.stats.iterations for d in sample_batch(cfg, 40, base))
    tight = dataclasses.replace(cfg, max_iterations=longest - 1)
    batch = _raised(sample_batch, tight, 40, base)
    single = _raised(_scalar_batch, tight, 40, base)
    assert type(batch) is BudgetError
    assert batch.stats == single.stats
    assert batch.stats.iterations == longest - 1


def test_runtime_certificate_breach_detected():
    # gamma is -0.05 everywhere but the certificate claims gamma >= 0
    dipped = custom_drift(lambda y: 0.0 * np.asarray(y, dtype=float),
                          lambda y: -0.1 + 0.0 * np.asarray(y, dtype=float))
    cfg = SamplerConfig(x=0.0, L=1.0, model=dipped,
                        cert=BoundCertificate(kappa=1.0, domain_hint=-100.0),
                        variant="a1")
    with pytest.raises(ModelError, match="certificate"):
        sample_batch(cfg, 50, RandomStream(117))
    batch = _raised(sample_batch, cfg, 50, RandomStream(117))
    single = _raised(_scalar_batch, cfg, 50, RandomStream(117))
    assert type(batch) is ModelError
    assert str(batch) == str(single)


def test_total_points_is_derived_not_given():
    assert RunStats(2, (5, 6)).total_points == 13
    with pytest.raises(TypeError):
        RunStats(2, (5, 6), total_points=999)


@pytest.mark.parametrize("build", [lambda: FptDraw(0.0, RunStats(1, (6,))),
                                   lambda: RunStats(2, (6,)), lambda: ProposalDraw(0.0)],
                         ids=["FptDraw", "RunStats", "ProposalDraw"])
def test_draw_records_fail_with_a_typed_error(build):
    # a bare ValueError would escape the CLI's handler and the scalar rerun
    # of a failed lane batch, both of which catch FptsimError
    with pytest.raises(NumericError):
        build()


def test_negative_batch_size_is_a_config_error():
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF)
    assert sample_batch(cfg, 0, RandomStream(1)) == []
    with pytest.raises(ConfigError, match="n >= 0"):
        sample_batch(cfg, -3, RandomStream(1))


class _StreamLike:
    """A stream with RandomStream's substreams that is not a RandomStream."""

    def __init__(self, seed):
        self.base = RandomStream(seed)

    def substream(self, *path):
        return self.base.substream(*path)


@pytest.mark.parametrize("n", [1, 15, 16, 200])
@pytest.mark.parametrize("run", ["sample_batch", "delta_compare"])
def test_batches_need_a_random_stream(run, n):
    # the lane kernel reads the stream's keys, the scalar one only its
    # substreams; either way a stream-like object is refused up front
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF)
    with pytest.raises(ConfigError, match="RandomStream"):
        (sample_batch if run == "sample_batch" else delta_compare)(cfg, n, _StreamLike(2))


# a config field, or a batch's size ``n`` or offset ``start``: a float is
# refused (a fractional offset once repeated the draws of its floor), as is
# a count below 1, and a numpy integer works as the plain int
@pytest.mark.parametrize("field, value", [("max_iterations", 1e6), ("split_k", 2.0),
                                          ("max_iterations", np.int64(10**6)),
                                          ("split_k", np.int32(2)),
                                          ("max_iterations", 0), ("split_k", 0),
                                          ("n", 20.0), ("start", 0.5), ("start", np.int64(5))])
def test_integer_fields_take_integers_only(field, value):
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF)

    def batch(value):
        if field in ("n", "start"):
            return sample_batch(cfg, stream=RandomStream(3), **{"n": 40, "start": 0, field: value})
        return sample_batch(dataclasses.replace(cfg, **{field: value}), 40, RandomStream(3))

    if not isinstance(value, float) and value >= 1:  # numpy integers are integers
        assert _values(batch(value)) == _values(batch(int(value)))
        return
    runs = [batch]
    if field == "n":
        runs.append(lambda value: delta_compare(cfg, value, RandomStream(3)))
    elif field != "start":
        runs.append(lambda value: sample(dataclasses.replace(cfg, **{field: value}),
                                         RandomStream(3)))
    match = f"{field} must be an integer" if isinstance(value, float) else f"{field} must be >= 1"
    for run in runs:
        with pytest.raises(ConfigError, match=match):
            run(value)


def test_total_points_identity_on_every_draw():
    model = sine_drift()
    cert = BoundCertificate(kappa=5.0, gamma0=0.25, domain_hint=-100.0)
    for variant, kwargs in [("a1", {}), ("a2", {}), ("a1-shift", {}),
                            ("a1", {"split_k": 4})]:
        cfg = SamplerConfig(x=0.0, L=2.0, model=model, cert=cert,
                            variant=variant, **kwargs)
        for d in sample_batch(cfg, 40, RandomStream(118)):
            assert d.stats.total_points == d.stats.iterations + sum(
                d.stats.points_per_iteration)


def test_a1_a2_same_law_cheap_model():
    d1 = sample_batch(SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                                    variant="a1"), 10**4, RandomStream(119))
    d2 = sample_batch(SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                                    variant="a2"), 10**4, RandomStream(120))
    assert two_sample_ks(_values(d1), _values(d2)) < 0.025


def test_reproducible_draws():
    cfg = SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                        cert=BoundCertificate(kappa=5.0, domain_hint=-100.0),
                        variant="a2")
    a = sample_batch(cfg, 50, RandomStream(121))
    b = sample_batch(cfg, 50, RandomStream(121))
    assert _values(a) == _values(b)
    assert [d.stats for d in a] == [d.stats for d in b]


class TestConfigValidation:
    def test_level_must_exceed_start(self):
        with pytest.raises(ConfigError):
            sample(SamplerConfig(x=2.0, L=2.0, model=UNIT, cert=CERT_HALF),
                   RandomStream(1))

    def test_shift_needs_positive_floor(self):
        cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                            variant="a1-shift")
        with pytest.raises(ConfigError):
            sample(cfg, RandomStream(1))

    def test_a3_needs_horizon(self):
        cfg = SamplerConfig(x=0.0, L=1.0, model=neg_arctan_drift(),
                            cert=BoundCertificate(kappa=2.0, m=0.5), variant="a3")
        with pytest.raises(ConfigError):
            sample(cfg, RandomStream(1))

    def test_negativity_only_for_a3(self):
        cfg = SamplerConfig(x=0.0, L=1.0, model=neg_arctan_drift(),
                            cert=BoundCertificate(kappa=2.0, m=0.5), variant="a1")
        with pytest.raises(ConfigError):
            sample(cfg, RandomStream(1))

    def test_horizon_only_for_a3(self):
        cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                            variant="a1", t0=1.0)
        with pytest.raises(ConfigError):
            sample(cfg, RandomStream(1))

    def test_a3_rejects_split_and_rho(self):
        cert = BoundCertificate(kappa=2.0, m=0.5)
        with pytest.raises(ConfigError):
            sample(SamplerConfig(x=0.0, L=1.0, model=neg_arctan_drift(), cert=cert,
                                 variant="a3", t0=1.0, split_k=2), RandomStream(1))
        with pytest.raises(ConfigError):
            sample(SamplerConfig(x=0.0, L=1.0, model=neg_arctan_drift(), cert=cert,
                                 variant="a3", t0=1.0, rho=5.0), RandomStream(1))

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            sample(SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                                 variant="a0"), RandomStream(1))

    def test_rho_positive(self):
        with pytest.raises(ConfigError):
            sample(SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF,
                                 variant="a1", rho=-1.0), RandomStream(1))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["x", "L", "t0"])
    def test_non_finite_field(self, name, value):
        # validated only: a run on such a config need not end
        cfg = SamplerConfig(x=0.0, L=1.0, model=neg_arctan_drift(),
                            cert=BoundCertificate(kappa=2.0, m=0.5), variant="a3", t0=1.0)
        with pytest.raises(ConfigError, match="finite"):
            validate_config(dataclasses.replace(cfg, **{name: value}))


_ANY = st.floats(-10.0, 10.0) | st.sampled_from([math.inf, -math.inf, math.nan])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(x=_ANY, L=_ANY, t0=st.none() | _ANY, kappa=_ANY, gamma0=_ANY, m=_ANY, hint=_ANY,
       variant=st.sampled_from(["a1", "a3"]))
def test_validation_admits_exactly_the_finite_well_posed_configs(x, L, t0, kappa, gamma0,
                                                                  m, hint, variant):
    try:
        cert = BoundCertificate(kappa=kappa, gamma0=gamma0, m=m, domain_hint=hint)
        validate_config(SamplerConfig(x=x, L=L, model=UNIT, cert=cert, variant=variant,
                                      t0=t0))
        admitted = True
    except ConfigError:
        admitted = False
    finite = all(map(math.isfinite, (x, L, kappa, gamma0, m, hint, 0.0 if t0 is None else t0)))
    posed = (L > x and 0.0 <= gamma0 <= kappa and m >= 0.0 and not (gamma0 > 0.0 and m > 0.0)
             and (t0 is not None and t0 > 0.0 if variant == "a3" else t0 is None and m == 0.0))
    assert admitted == (finite and posed)


SINE = sine_drift()
SINE_CERT = BoundCertificate(kappa=5.0, gamma0=0.25, domain_hint=-100.0)
LAYOUT_CONFIGS = {
    "a1": SamplerConfig(x=0.0, L=1.0, model=SINE, cert=SINE_CERT, variant="a1"),
    "a2": SamplerConfig(x=0.0, L=1.0, model=SINE, cert=SINE_CERT, variant="a2"),
    "a1-shift": SamplerConfig(x=0.0, L=1.0, model=SINE, cert=SINE_CERT,
                              variant="a1-shift"),
    "a2-shift": SamplerConfig(x=0.0, L=1.0, model=SINE, cert=SINE_CERT,
                              variant="a2-shift"),
    "a3": SamplerConfig(x=0.0, L=1.0, model=neg_arctan_drift(),
                        cert=BoundCertificate(kappa=math.pi ** 2 / 8, m=0.5,
                                              domain_hint=-100.0),
                        variant="a3", t0=1.0),
    "split3": SamplerConfig(x=0.0, L=2.0, model=SINE, cert=SINE_CERT,
                            variant="a1", split_k=3),
    "a2-split3": SamplerConfig(x=0.0, L=2.0, model=SINE, cert=SINE_CERT,
                               variant="a2", split_k=3),
    "rho": SamplerConfig(x=0.0, L=1.0, model=ou_drift(0.3, 1.0),
                         cert=BoundCertificate(kappa=truncated_ou_kappa(0.3, 5.0, 1.0),
                                               domain_hint=-100.0),
                         variant="a1", rho=5.0),
}

# (value.hex(), iterations, total_points) of draws 5, 6, 7 on stream
# (20261018, 7); any change here changes every realized sample of that variant
PINNED_LAYOUT = {
    "a1": [
        ("0x1.6680c9191c2eep-2", 11, 92),
        ("0x1.f234cbbac62adp-3", 13, 131),
        ("0x1.493801e2e0aedp-1", 8, 61),
    ],
    "a2": [
        ("0x1.820bafa069d9bp-2", 12, 79),
        ("0x1.feb6c04b4d568p-4", 20, 140),
        ("0x1.d3c2f75fe551ap-1", 4, 33),
    ],
    "a1-shift": [
        ("0x1.03e8b243a03d5p-2", 9, 83),
        ("0x1.0276efd2897edp-1", 12, 124),
        ("0x1.f93ec18515d42p-2", 26, 247),
    ],
    "a2-shift": [
        ("0x1.e0a388d45e478p-3", 3, 16),
        ("0x1.194695d8a723dp-1", 3, 21),
        ("0x1.22585bcf9d84dp-1", 12, 89),
    ],
    "a3": [
        ("0x1.fd5b0baa25d2ep-2", 1, 2),
        ("0x1.69480b511cc7bp-3", 1, 2),
        ("0x1.6e5e74004045dp-1", 4, 33),
    ],
    "split3": [
        ("0x1.4dca2116f2d50p-1", 51, 392),
        ("0x1.445f18a1e6153p+0", 18, 131),
        ("0x1.8180c7eb33542p+0", 12, 69),
    ],
    "a2-split3": [
        ("0x1.fdd65b3126362p-2", 9, 48),
        ("0x1.c3d3513eb3b3bp-3", 17, 104),
        ("0x1.3b876e3ce85fap+0", 15, 90),
    ],
    "rho": [
        ("0x1.e9a11f8d9f38dp-1", 3, 51),
        ("0x1.50e795fc4fedep+0", 10, 275),
        ("0x1.70f57f9063329p-2", 2, 34),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_LAYOUT))
def test_stream_layout_is_pinned(name):
    cfg = LAYOUT_CONFIGS[name]
    base = RandomStream(20261018, 7)
    batch = sample_batch(cfg, 3, base, start=5)
    single = [sample(cfg, base.substream(5 + i)) for i in range(3)]
    for draws in (batch, single):
        got = [(d.value.hex(), d.stats.iterations, d.stats.total_points) for d in draws]
        assert got == PINNED_LAYOUT[name]


@pytest.mark.parametrize("variant", ["a1", "a2"])
def test_nan_field_is_a_certificate_breach(variant):
    # b is NaN below y = -0.5, so gamma(L - R_t) is NaN wherever the Bessel
    # functional reaches past L + 0.5; such a point must not count as "no hit"
    def b(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < -0.5, np.nan, 1.0)

    def b_prime(y):
        return 0.0 * np.asarray(y, dtype=float)

    cfg = SamplerConfig(x=0.0, L=1.0, model=custom_drift(b, b_prime),
                        cert=BoundCertificate(kappa=0.5, domain_hint=-100.0),
                        variant=variant)
    with pytest.raises(ModelError, match="certificate"):
        sample_batch(cfg, 2000, RandomStream(131))
    batch = _raised(sample_batch, cfg, 2000, RandomStream(131))
    single = _raised(_scalar_batch, cfg, 2000, RandomStream(131))
    assert str(batch) == str(single)


def test_batch_resolves_config_once(monkeypatch):
    calls = {"validate_config": 0, "truncate_drift": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(samplers, name, counted(getattr(samplers, name)))
    cfg = SamplerConfig(x=0.0, L=2.0, model=UNIT, cert=CERT_HALF, variant="a1",
                        split_k=3, rho=50.0)
    sample_batch(cfg, 20, RandomStream(132))
    assert calls == {"validate_config": 1, "truncate_drift": 1}


# The lane kernel behind sample_batch must reproduce the scalar kernel draw
# for draw: value, iteration count and the points of every iteration.  Sine
# at L=2 runs ~270 points per draw, more than one 1024-normal block.
LANE_CONFIGS = {
    "a1": SamplerConfig(x=0.0, L=2.0, model=SINE, cert=SINE_CERT, variant="a1"),
    "a1-shift": SamplerConfig(x=0.0, L=2.0, model=SINE, cert=SINE_CERT,
                              variant="a1-shift"),
    "a3": LAYOUT_CONFIGS["a3"],
    "split3": LAYOUT_CONFIGS["split3"],
    "split20": SamplerConfig(x=0.0, L=2.0, model=SINE, cert=SINE_CERT,
                             variant="a1", split_k=20),
    "rho": LAYOUT_CONFIGS["rho"],
    "a2": SamplerConfig(x=0.0, L=2.0, model=SINE, cert=SINE_CERT, variant="a2"),
    "a2-shift": SamplerConfig(x=0.0, L=2.0, model=SINE, cert=SINE_CERT,
                              variant="a2-shift"),
    "a2-split3": LAYOUT_CONFIGS["a2-split3"],
    "a2-rho": dataclasses.replace(LAYOUT_CONFIGS["rho"], variant="a2"),
}


# at the default width an unsplit batch of 1000 runs on one wave of lanes;
# at 128 every config queues items for the lanes accepted items free
LANE_CASES = [pytest.param(name, width, id=name if width == samplers._LANE_WIDTH
                           else f"{name}-width{width}")
              for name in sorted(LANE_CONFIGS) for width in (128, samplers._LANE_WIDTH)]


@pytest.mark.parametrize("name, width", LANE_CASES)
def test_batch_is_bit_identical_to_single_draws(name, width, monkeypatch):
    monkeypatch.setattr(samplers, "_LANE_WIDTH", width)
    cfg = LANE_CONFIGS[name]
    base = RandomStream(20261018, 8)
    n = 1000
    batch = sample_batch(cfg, n, base, start=17)
    single = _scalar_batch(cfg, n, base, start=17)
    assert [d.value for d in batch] == [d.value for d in single]
    assert [d.stats for d in batch] == [d.stats for d in single]
    if name in ("a1", "a2"):
        # normals used: 3 per tested point (a2: per knot it inserts, one per
        # point unless two fall within 1e-15) plus 1 per proposal
        normals = [3 * (d.stats.total_points - 2 * d.stats.iterations) // 5
                   + d.stats.iterations for d in batch]
        assert sum(k > 1024 for k in normals) > 100
    if name.startswith("a2"):
        # iterations testing two or more points, which the height-ordered
        # lanes finish on the scalar kernel from their first knot on
        assert sum(n >= 11 for d in batch for n in d.stats.points_per_iteration) > 100


@pytest.mark.parametrize("name", ["split3", "a2-split3"])
def test_split_draw_runs_its_slices_in_turn_on_its_stream(name):
    # the reference chain: each slice's rejection loop starts on the draw's
    # stream where the previous slice's stopped, and no substream is read
    cfg = LANE_CONFIGS[name]
    plan = samplers._prepare(cfg)
    base = RandomStream(20261018, 11)
    for i in range(20):
        stream = base.substream(i)
        total = 0.0
        points = []
        for part in plan.slices:
            T, part_points = samplers._run_slice(plan, part, stream)
            total += T
            points += part_points
        chained = FptDraw(total, RunStats(len(points), tuple(points)))
        assert sample(cfg, base.substream(i)) == chained


@pytest.mark.parametrize("name", ["split3", "split20", "a2-split3"])
def test_split_batch_keys_one_stream_per_draw(name, monkeypatch):
    # a lane batch of n split draws derives n stream keys, not n * k, and
    # keys each draw's generator once, however many slices run on it
    n = 40
    base = RandomStream(20261018, 12)
    want = sorted(map(tuple, base.substream_keys(np.arange(n))))
    derived = []
    keyed = []
    substream_keys = RandomStream.substream_keys
    keyed_fn = rng_module._keyed

    def derive(self, index):
        keys = substream_keys(self, index)
        derived.append(len(keys))
        return keys

    def key(words, gen=None):
        keyed.append(tuple(words))
        return keyed_fn(words, gen)

    monkeypatch.setattr(RandomStream, "substream_keys", derive)
    monkeypatch.setattr(rng_module, "_keyed", key)
    draws = sample_batch(LANE_CONFIGS[name], n, base)
    assert len(draws) == n
    assert derived == [n]
    assert sorted(keyed) == want


@pytest.mark.parametrize("width", [16, samplers._LANE_WIDTH])
@pytest.mark.parametrize("variant", ["a1", "a2"])
def test_hand_off_mid_draw_is_bit_identical(variant, width, monkeypatch):
    # 17 draws of split-5: the lanes hand off to the scalar kernel with
    # draws part-way through, some at the start of a slice (between slices)
    # and some with iterations of the slice already run (inside a slice)
    monkeypatch.setattr(samplers, "_LANE_WIDTH", width)
    cfg = SamplerConfig(x=0.0, L=2.0, model=SINE, cert=SINE_CERT, variant=variant, split_k=5)
    handed = []
    finish = samplers._Lanes._finish_scalar

    def spy(self, j):
        handed.append((int(self.part[j]), int(self.rejections[j])))
        finish(self, j)

    monkeypatch.setattr(samplers._Lanes, "_finish_scalar", spy)
    base = RandomStream(20261018, 15)
    batch = sample_batch(cfg, 17, base, start=4)
    assert batch == _scalar_batch(cfg, 17, base, start=4)
    assert any(part > 0 and done == 0 for part, done in handed)
    assert any(done > 0 for part, done in handed)


def test_concurrent_batches_draw_what_serial_ones_do():
    # batches in two threads take their generators from one pool, never the
    # same one at once: each gives what it gives alone
    jobs = [(LANE_CONFIGS[name], 20261018, 10 + i)
            for i, name in enumerate(["a1", "split20", "a2", "a3"])]

    def run(cfg, seed, stream_id):
        return sample_batch(cfg, 60, RandomStream(seed, stream_id), start=3)

    serial = [run(*job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so their refills interleave
    try:
        with ThreadPoolExecutor(2) as pool:
            threaded = [f.result() for f in [pool.submit(run, *job) for job in jobs]]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def _refill_waves(monkeypatch, cpus, wave_min):
    """Let the lane streams refill on ``cpus`` CPUs, with a helper for waves of ``wave_min`` lanes or more;
    returns the ids of the threads that make blocks, one per block."""
    monkeypatch.setattr(rng_module, "_CPUS", cpus)
    monkeypatch.setattr(rng_module, "_WAVE_MIN", wave_min)
    makers = []
    block = rng_module._block

    def spy(gen, kind, out=None):
        makers.append(threading.get_ident())
        return block(gen, kind, out)

    monkeypatch.setattr(rng_module, "_block", spy)
    return makers


WAVE_VARIANTS = ["a1", "a2", "a1-shift", "a2-shift", "a3", "split20", "rho"]


@pytest.mark.parametrize("name", WAVE_VARIANTS + ["compare"])
def test_refill_waves_on_a_helper_draw_what_one_thread_draws(name, monkeypatch):
    # every refill wave split between two threads, or none: the same draws
    # and comparator totals, and no thread left running; the comparator
    # refills one lane at a time, through lane views, so it makes no wave
    base = RandomStream(20261018, 16)
    before = threading.active_count()
    runs = []
    for wave_min in (1, 10**9):
        makers = _refill_waves(monkeypatch, 2, wave_min)
        if name == "compare":
            runs.append(delta_compare(LANE_CONFIGS["a1"], 40, base))
        else:
            runs.append(sample_batch(LANE_CONFIGS[name], 200, base, start=5))
        helped = set(makers) - {threading.main_thread().ident}
        assert bool(helped) == (wave_min == 1 and name != "compare")
        assert threading.active_count() == before
    assert runs[0] == runs[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_refill_fails_the_batch_on_any_thread(cpus, monkeypatch):
    # a generator that fails while it makes a block fails the batch with its
    # own error, on one thread as on a wave's helper, and leaves no thread
    _refill_waves(monkeypatch, cpus, 1)
    block = rng_module._block

    def failing(gen, kind, out=None):
        if cpus == 1 or threading.current_thread() is not threading.main_thread():
            raise RuntimeError("generator failed")
        return block(gen, kind, out)

    monkeypatch.setattr(rng_module, "_block", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="generator failed"):
        sample_batch(LANE_CONFIGS["a3"], 100, RandomStream(20261018, 17))
    assert threading.active_count() == before


def test_concurrent_batches_with_refill_helpers_draw_what_serial_ones_do(monkeypatch):
    # batches in three threads, each splitting every refill wave with helpers
    # of its own, switching often: each gives what it gives alone
    _refill_waves(monkeypatch, 2, 1)
    jobs = [(LANE_CONFIGS[name], 20261018, 20 + i)
            for i, name in enumerate(["a1", "a3", "rho", "a2"])]

    def run(cfg, seed, stream_id):
        return sample_batch(cfg, 100, RandomStream(seed, stream_id), start=3)

    serial = [run(*job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            threaded = [f.result(timeout=300) for f in [pool.submit(run, *job) for job in jobs]]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_repeated_batch_builds_no_generator(monkeypatch):
    # generators are pooled: a second batch re-keys the first one's
    cfg = LANE_CONFIGS["split20"]
    sample_batch(cfg, 30, RandomStream(136))
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    sample_batch(cfg, 30, RandomStream(136))
    assert built == []


PARTITION_CONFIGS = {
    "a1": SamplerConfig(x=0.0, L=1.0, model=SINE, cert=SINE_CERT, variant="a1"),
    "a2": SamplerConfig(x=0.0, L=1.0, model=SINE, cert=SINE_CERT, variant="a2"),
    "split20": SamplerConfig(x=0.0, L=1.0, model=SINE, cert=SINE_CERT,
                             variant="a1", split_k=20),
}
PARTITION_N = 300
# the default width runs an unsplit batch of PARTITION_N on one wave of lanes;
# the narrow ones queue its items
LANE_WIDTHS = (16, 128, samplers._LANE_WIDTH)
_partition_reference = {}


def _partition_draws(name):
    if name not in _partition_reference:
        _partition_reference[name] = sample_batch(
            PARTITION_CONFIGS[name], PARTITION_N, RandomStream(20261018, 9), start=11)
    return _partition_reference[name]


@pytest.mark.slow
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(PARTITION_CONFIGS)),
       cuts=st.lists(st.integers(0, PARTITION_N), max_size=6))
def test_batch_partition_invariance(name, cuts):
    # consecutive calls over any cut of [11, 11 + n), at every lane width,
    # give the one-call draws at the default width, so neither lane width
    # nor queue order reaches the output
    bounds = [0, *sorted(cuts), PARTITION_N]
    base = RandomStream(20261018, 9)
    want = _partition_draws(name)
    for width in LANE_WIDTHS:
        got = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(samplers, "_LANE_WIDTH", width)
            for lo, hi in zip(bounds, bounds[1:]):
                got += sample_batch(PARTITION_CONFIGS[name], hi - lo, base, start=11 + lo)
        assert got == want


@pytest.mark.parametrize("name, n", [
    ("a1", 100), ("a2", samplers._LANE_WIDTH), ("a1", samplers._LANE_WIDTH + 1),
    ("split20", 30), ("split20", 100)])
def test_lanes_start_at_the_batch_size_up_to_the_width(name, n):
    # a batch of n draws starts on min(n, _LANE_WIDTH) lanes, holding draws
    # 0, 1, ... at their first slice; the rest queue for a lane
    cfg = LANE_CONFIGS[name]
    plan = samplers._prepare(cfg)
    lanes = plan.scan.lanes(plan, n, RandomStream(134), 0)
    width = min(n, samplers._LANE_WIDTH)
    assert lanes.key.tolist() == list(range(width))
    assert lanes.part.tolist() == [0] * width
    assert lanes.next_draw == width
    assert len(lanes.T) == len(lanes.rng.end) == width


def test_lane_batch_frees_its_rows_before_building_draws():
    # the lane rows (three kinds of 1032 floats per lane) are the batch's
    # largest allocation; the draws are built from the log once they are gone
    cfg = SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                        cert=BoundCertificate(kappa=4.5416), variant="a2")
    rows = 3 * samplers._LANE_WIDTH * rng_module._ROW * 8
    tracemalloc.start()
    try:
        draws = sample_batch(cfg, 3000, RandomStream(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(draws) == 3000
    assert peak < 1.5 * rows


@pytest.mark.parametrize("variant", ["a1", "a2", "a3"])
def test_lane_decides_as_the_scalar_gamma_does(variant):
    # numpy's arctan is an ulp off libm's at some points, so neg-arctan's
    # field on lanes and its scalar gamma can differ; a threshold between the
    # two must be decided as the scalar kernel decides it.  a3 lifts each
    # lane's field by m * t0 / T and raises its ceiling by as much
    from fptsim.drift import GammaField, gamma_fn
    model = neg_arctan_drift()
    lifted = variant == "a3"
    cfg = SamplerConfig(x=0.0, L=1.0, model=model,
                        cert=BoundCertificate(kappa=math.pi ** 2 / 8, m=0.5 if lifted else 0.0,
                                              domain_hint=-100.0),
                        variant=variant, t0=1.0 if lifted else None)
    plan = samplers._prepare(cfg)
    lanes = plan.scan.lanes(plan, 1, RandomStream(133), 0)
    lanes._propose(np.ones(1, dtype=bool), -1)
    lift, ceiling = lanes._bounds(0)
    assert (lift > 0.0) == lifted
    ys = np.linspace(-6.0, 6.0, 20001)
    vector = GammaField(model).eval_array(ys) + lift
    gamma = gamma_fn(model)
    scalar = np.array([gamma(float(y)) + lift for y in ys])
    differ = ((vector != scalar) & (scalar > 0.0)).nonzero()[0]
    if not differ.size:
        pytest.skip("numpy's and libm's arctan agree on this build")
    for j in differ:
        y = np.array([ys[j]])
        threshold = max(vector[j], scalar[j])
        assert (threshold <= vector[j]) != (threshold <= scalar[j])
        rejected = lanes._thin(y, np.array([threshold]))
        f = samplers._point_field(gamma, float(ys[j]), plan.shift, lift, ceiling)
        assert rejected.tolist() == [threshold <= f]


def test_lane_first_point_at_a_pin_takes_no_gaussian():
    # a height-ordered lane whose first point lies at u == 0, or within
    # 1e-15 of T, takes the pin's bridge value and no Gaussian, and decides
    # its iteration as the scalar kernel does on the lane's stream; at this
    # seed lane 0 rejects there and lane 1 runs on, past its first point
    from fptsim.bridge import BridgeSkeleton
    from fptsim.rng import NORMAL, UNIFORM, _brownian_fpt_value
    plan = samplers._prepare(LANE_CONFIGS["a2"])
    base = RandomStream(918)
    lanes = plan.scan.lanes(plan, 2, base, 0)
    both = np.ones(2, dtype=bool)
    lanes._propose(both, -1)
    lanes._arrive(both)
    rng = lanes.rng
    rng.take(UNIFORM)  # each lane's first refill
    T = lanes.T.copy()
    v = [0.0, np.nextafter(1.0, 0.0)]
    assert T[0] * v[0] == 0.0 and 0.0 < T[1] - T[1] * v[1] <= 1e-15
    assert (lanes.height <= plan.ceiling).all()
    # each twin draws its proposal, its first height and a uniform, refilling
    # in the lane's order; the next uniform of both is v
    twins = [base.substream(j) for j in range(2)]
    heights = []
    for j, twin in enumerate(twins):
        assert _brownian_fpt_value(twin, 2.0) == T[j]
        heights.append(twin.exponential(1.0 / T[j]))
        assert heights[j] == lanes.height[j]
        twin.uniform()
        twin._ubuf[twin._ui] = rng._flat[UNIFORM][rng.pos[UNIFORM][j]] = v[j]
    normals = rng.pos[NORMAL].copy()
    lanes._step(0)
    keys = np.concatenate(lanes.log_keys)
    tested = np.concatenate(lanes.log_tested)
    ran = []
    for j, twin in enumerate(twins):
        at = twin._ni
        # the rest of _thin_height_ordered, past its first height
        accepted, n = samplers._climb(twin, BridgeSkeleton(float(T[j]), 2.0), heights[j], 1,
                                      2.0, plan.gamma, plan.ceiling, plan.shift, 0.0)
        ran.append((accepted, n))
        # the normals the iteration took, the lane's past its first point included
        assert rng.pos[NORMAL][j] - normals[j] == twin._ni - at
        assert (lanes.rejections[j] == 0) == accepted
        assert tested[keys == j][0] == (n - 1) // 5
    assert ran == [(False, 6), (True, 21)]


# log-uniform over nine decades: the slices of a fine split and floors near
# zero as well as wide gaps and long horizons
_DECADES = st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gap=_DECADES, gamma0=_DECADES, t0=_DECADES, seed=st.integers(0, 2**32 - 1))
def test_proposals_draw_on_their_support_and_alike_on_lanes(gap, gamma0, t0, seed):
    # every proposal law gives a finite time > 0, the truncated one <= t0, and
    # its lane form gives each marked lane what draw gives on the lane's stream
    from fptsim.rng import LaneStreams
    base = RandomStream(seed, 7)
    which = np.array([True, False, True, True])
    laws = (samplers._BROWNIAN, samplers._INVERSE_GAUSSIAN, samplers._TRUNCATED)
    for path, law in enumerate(laws):
        params = law.params(gap, gamma0, t0)
        lanes = LaneStreams(base.substream(path).substream_keys(np.arange(4)))
        twins = [base.substream(path, j) for j in range(4)]
        for _ in range(5):
            got = law.lanes(lanes, which, *params)
            for j in which.nonzero()[0]:
                value = law.draw(twins[j], *params)
                assert math.isfinite(value) and value > 0.0
                assert law is not samplers._TRUNCATED or value <= t0
                assert float(got[j]).hex() == value.hex()
