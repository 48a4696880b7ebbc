"""Tests for the rejection samplers and their run statistics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptsim import (BoundCertificate, BudgetError, ConfigError, ModelError,
                    RandomStream, SamplerConfig, constant_drift, custom_drift,
                    ig_cdf, neg_arctan_drift, optimal_split_count, ou_drift,
                    sample, sample_batch, sine_drift, truncate_drift,
                    truncated_ou_kappa)
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


@pytest.mark.parametrize("split_k, max_iterations", [(1, 1), (3, 1), (3, 4)])
def test_batch_budget_error_is_the_scalar_one(split_k, max_iterations):
    # the batch raises the error of the first draw, in index order, that
    # exhausts its budget, with that slice's partial stats
    cfg = SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                        cert=BoundCertificate(kappa=5.0, domain_hint=-100.0),
                        variant="a1", split_k=split_k, max_iterations=max_iterations)
    base = RandomStream(116, 1)
    batch = _raised(sample_batch, cfg, 200, base, 3)
    single = _raised(_scalar_batch, cfg, 200, base, 3)
    assert type(batch) is BudgetError
    assert str(batch) == str(single)
    assert batch.stats == single.stats
    assert batch.stats.iterations == max_iterations


def test_batch_budget_error_in_the_longest_draw():
    # a budget only the longest of 40 draws exceeds: that draw is among the
    # last live ones, so the error comes out of the batch's last iterations
    cfg = SamplerConfig(x=0.0, L=2.0, model=sine_drift(),
                        cert=BoundCertificate(kappa=5.0, domain_hint=-100.0),
                        variant="a1")
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
        ("0x1.03e8b243a03d8p-2", 9, 83),
        ("0x1.0276efd2897eep-1", 12, 124),
        ("0x1.f93ec18515d44p-2", 26, 247),
    ],
    "a2-shift": [
        ("0x1.e0a388d45e480p-3", 3, 16),
        ("0x1.194695d8a723ep-1", 3, 21),
        ("0x1.22585bcf9d84ap-1", 12, 89),
    ],
    "a3": [
        ("0x1.fd5b0baa25d2ep-2", 1, 2),
        ("0x1.69480b511cc7bp-3", 1, 2),
        ("0x1.6e5e74004045dp-1", 4, 33),
    ],
    "split3": [
        ("0x1.ae23fcad5a148p-1", 14, 128),
        ("0x1.8387f0c68dbb5p-1", 23, 171),
        ("0x1.742840ccab614p-2", 28, 231),
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
    import fptsim.samplers as samplers
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
}


@pytest.mark.parametrize("name", sorted(LANE_CONFIGS))
def test_batch_is_bit_identical_to_single_draws(name):
    cfg = LANE_CONFIGS[name]
    base = RandomStream(20261018, 8)
    n = 1000
    batch = sample_batch(cfg, n, base, start=17)
    single = _scalar_batch(cfg, n, base, start=17)
    assert [d.value for d in batch] == [d.value for d in single]
    assert [d.stats for d in batch] == [d.stats for d in single]
    if name == "a1":
        # normals used: 3 per tested point plus 1 per proposal
        normals = [3 * (d.stats.total_points - 2 * d.stats.iterations) // 5
                   + d.stats.iterations for d in batch]
        assert sum(k > 1024 for k in normals) > 100


PARTITION_CONFIGS = {
    "a1": SamplerConfig(x=0.0, L=1.0, model=SINE, cert=SINE_CERT, variant="a1"),
    "split20": SamplerConfig(x=0.0, L=1.0, model=SINE, cert=SINE_CERT,
                             variant="a1", split_k=20),
}
PARTITION_N = 300
_partition_reference = {}


def _partition_draws(name):
    if name not in _partition_reference:
        _partition_reference[name] = sample_batch(
            PARTITION_CONFIGS[name], PARTITION_N, RandomStream(20261018, 9), start=11)
    return _partition_reference[name]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(PARTITION_CONFIGS)),
       cuts=st.lists(st.integers(0, PARTITION_N), max_size=6))
def test_batch_partition_invariance(name, cuts):
    # consecutive calls over any cut of [11, 11 + n) give the one-call draws,
    # so neither lane width nor queue order reaches the output
    bounds = [0, *sorted(cuts), PARTITION_N]
    base = RandomStream(20261018, 9)
    got = []
    for lo, hi in zip(bounds, bounds[1:]):
        got += sample_batch(PARTITION_CONFIGS[name], hi - lo, base, start=11 + lo)
    assert got == _partition_draws(name)
