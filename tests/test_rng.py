"""Tests for the reproducible stream and the distribution-specific draws."""

import decimal
import math
import threading

import numpy as np
import pytest
from scipy import stats as sstats
from scipy.integrate import quad

from fptsim import (ConfigError, FptsimError, RandomStream, draw_brownian_fpt,
                    draw_inverse_gaussian, draw_truncated_brownian_fpt)
from fptsim.rng import (_BUFLEN, EXPONENTIAL, NORMAL, UNIFORM, LaneStreams, _in_halves,
                        _inverse_gaussian_lanes, _inverse_gaussian_value, _keyed, _philox_key,
                        _philox_keys, _truncated_brownian_fpt_lanes, _truncated_brownian_fpt_value)
from fptsim.harness import brownian_fpt_cdf, ks_statistic, truncated_brownian_fpt_cdf, two_sample_ks
from hypothesis import given, settings
from hypothesis import strategies as st


def test_bitwise_reproducibility():
    a = RandomStream(123, 7)
    b = RandomStream(123, 7)
    seq_a = [a.normal() for _ in range(2000)] + [a.exponential(2.0) for _ in range(2000)]
    seq_b = [b.normal() for _ in range(2000)] + [b.exponential(2.0) for _ in range(2000)]
    assert seq_a == seq_b
    pa = [draw_brownian_fpt(a, 2.0).value for _ in range(500)]
    pb = [draw_brownian_fpt(b, 2.0).value for _ in range(500)]
    assert pa == pb


def test_distinct_streams_and_substreams_differ():
    base = RandomStream(123, 0)
    other = RandomStream(123, 1)
    sub = RandomStream(123, 0).substream(0)
    subsub = RandomStream(123, 0).substream(0).substream(0)
    seqs = [[s.normal() for _ in range(16)]
            for s in (base, other, sub, subsub)]
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            assert seqs[i] != seqs[j]


def test_substream_is_reproducible():
    a = RandomStream(5, 2).substream(13, 4)
    b = RandomStream(5, 2).substream(13, 4)
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]


# the first two normals, exponentials and uniforms, as float hex, of
# substreams 5, 6 and 7 of stream (20261018, 7), whose key words lie below
# 2**63, at or above it, and one on each side; a change here changes every
# realized sample
PINNED_STREAMS = {
    5: (["0x1.9047505b8a63dp-2", "-0x1.f8aa3fb2bf25bp-1"],
        ["0x1.0ed78b092d03ap+1", "0x1.107fac12858b2p-2"],
        ["0x1.c51f521a3a300p-5", "0x1.ef38a53d03a87p-1"]),
    6: (["-0x1.a4253fe5f6a73p-1", "-0x1.30c1830c1c11bp+1"],
        ["0x1.b4c9a03f86cc3p-1", "0x1.b6767b3863314p+1"],
        ["0x1.f9f4312728350p-5", "0x1.fa614c26d42c6p-1"]),
    7: (["0x1.1a3619c5beaa4p-3", "-0x1.d6b13ca4d1d55p+0"],
        ["0x1.3b901f02b8266p-1", "0x1.14026264121a7p-1"],
        ["0x1.20dcacfe686fcp-3", "0x1.ee09a1e154280p-2"]),
}


@pytest.mark.parametrize("sub", sorted(PINNED_STREAMS))
def test_stream_values_are_pinned(sub):
    s = RandomStream(20261018, 7).substream(sub)
    normals, exponentials, uniforms = PINNED_STREAMS[sub]
    assert [s.normal().hex() for _ in range(2)] == normals
    assert [s.exponential(1.0).hex() for _ in range(2)] == exponentials
    assert [s.uniform().hex() for _ in range(2)] == uniforms


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")  # words near 2**64
@pytest.mark.parametrize("key", [[1, 2], [2**63, 2**64 - 1], [2**63 - 1, 2**63],
                                 [2**64 - 1, 5], [3, 2**64 - 2**10], [2**64 - 2**11 - 1, 2**62]])
def test_pooled_generator_runs_the_philox_of_the_key(key):
    # a pooled generator keyed through its state gives what a Philox built
    # from the key list gives, numpy's rounding of a key with one word on
    # each side of 2**63 included
    pooled = _keyed(_philox_key(*key))
    pooled.random(7)  # a pooled generator starts over when re-keyed
    pooled = _keyed(_philox_key(*key), pooled)
    fresh = np.random.Generator(np.random.Philox(key=key))
    assert pooled.standard_normal(40).tolist() == fresh.standard_normal(40).tolist()
    assert pooled.random(40).tolist() == fresh.random(40).tolist()


# key words where float64 rounding turns: around 2**53, to 2**63 from below,
# across 2**63, and up to 2**64
EDGE_WORDS = [0, 1, 2**53 + 1, 2**63 - 2**9 - 1, 2**63 - 2**9, 2**63 - 1, 2**63, 2**63 + 1,
              2**63 + 2**10, 2**64 - 2**10 - 1, 2**64 - 2**10, 2**64 - 1]
WORDS = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(keys=st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=30))
def test_batch_key_conversion_is_the_per_key_one(keys):
    # the Philox words of a batch of keys, converted in one numpy pass, and
    # those of each key alone are what np.asarray makes of the key list
    with np.errstate(invalid="ignore"):  # a word rounded up to 2**64
        want = [np.asarray(key).astype(np.uint64).tolist() for key in keys]
    k0, k1 = (np.array(words, dtype=np.uint64) for words in zip(*keys))
    assert _philox_keys(k0, k1) == want
    assert [_philox_key(*key) for key in keys] == want


@pytest.mark.parametrize("address", [lambda: RandomStream(1).substream(0.5),
                                     lambda: RandomStream(1.9),
                                     lambda: RandomStream(1).substream_keys(np.array([0.5, 1.7]))],
                         ids=["path-word", "seed", "index-array"])
def test_fractional_stream_address_is_refused(address):
    # a fractional address used to draw what its floor draws
    with pytest.raises(ConfigError, match="integer"):
        address()


@pytest.mark.parametrize("address", [lambda: RandomStream(-1),
                                     lambda: RandomStream(2**64 + 5),
                                     lambda: RandomStream(3, -2),
                                     lambda: RandomStream(3, 2**64),
                                     lambda: RandomStream(np.int64(-1))],
                         ids=["seed-neg", "seed-wide", "stream-neg", "stream-wide", "numpy-neg"])
def test_seed_or_stream_id_outside_64_bits_is_refused(address):
    # both used to be taken modulo 2**64: seed -1 drew what seed 2**64 - 1
    # draws, and seed 2**64 + 5 what seed 5 draws
    with pytest.raises(ConfigError, match=r"\[0, 2\*\*64\)"):
        address()


def test_seed_and_stream_id_span_64_bits():
    # the ends of the range are streams of their own
    ends = [RandomStream(word, word) for word in (0, 2**64 - 1)]
    assert ends[0]._key != ends[1]._key


def test_numpy_integer_addresses_are_the_int_ones():
    a = RandomStream(np.int64(5), np.uint8(2)).substream(np.int32(13))
    b = RandomStream(5, 2).substream(13)
    assert [a.normal() for _ in range(5)] == [b.normal() for _ in range(5)]
    keys = RandomStream(5, 2).substream_keys(np.array([13, 14], dtype=np.uint16))
    assert keys == RandomStream(5, 2).substream_keys([13, 14])
    assert keys[0] == b._key


# a step on a few streams that come and go: read one kind, or drop the stream
STEPS = st.tuples(st.integers(0, 3),
                  st.sampled_from(["normal", "normal3", "exponential", "uniform", "normals", "drop"]))


def _read(stream, what):
    if what == "normal3":
        return list(stream.normal3())
    if what == "normals":
        return stream.normals(5).tolist()
    return [stream.normal() if what == "normal" else getattr(stream, what)(1.0)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(steps=st.lists(STEPS, max_size=120))
def test_pooled_streams_read_their_own_philox(steps):
    # streams that take and give back pooled generators, in any interleaving,
    # each read what a stream on a Philox built for its own key reads
    live, twins, made = {}, {}, [0] * 4
    for i, what in steps:
        if what == "drop":
            live.pop(i, None)
            continue
        if i not in live:
            made[i] += 1
            live[i] = RandomStream(49, i).substream(made[i])
            twins[i] = RandomStream(49, i).substream(made[i])
            twins[i]._own = np.random.Generator(np.random.Philox(key=twins[i]._key))
        for _ in range(300):  # enough reads to cross a refill now and then
            assert _read(live[i], what) == _read(twins[i], what)


def test_exponential_mean_convention():
    s = RandomStream(11)
    n = 10**6
    total = 0.0
    for _ in range(n):
        total += s.exponential(2.0)
    assert abs(total / n - 2.0) < 0.01


def test_gaussian_moments():
    s = RandomStream(12)
    n = 10**6
    draws = np.array([s.normal() for _ in range(n)])
    assert abs(draws.var() - 1.0) < 0.01
    sq = 0.0
    for _ in range(n):
        g1, g2, g3 = s.normal3()
        sq += g1 * g1 + g2 * g2 + g3 * g3
    assert abs(sq / n - 3.0) < 0.02


def test_parameter_errors():
    s = RandomStream(1)
    with pytest.raises(FptsimError) as err:
        s.exponential(0.0)
    assert type(err.value) is ConfigError
    with pytest.raises(FptsimError) as err:
        s.uniform(-1.0)
    assert type(err.value) is ConfigError
    with pytest.raises(FptsimError) as err:
        draw_brownian_fpt(s, 0.0)
    assert type(err.value) is ConfigError
    with pytest.raises(FptsimError) as err:
        draw_inverse_gaussian(s, 0.0, 1.0)
    assert type(err.value) is ConfigError
    with pytest.raises(FptsimError) as err:
        draw_truncated_brownian_fpt(s, 1.0, 0.0)
    assert type(err.value) is ConfigError


class TestBrownianFpt:
    def test_positive_support(self):
        s = RandomStream(21)
        assert all(draw_brownian_fpt(s, 0.5).value > 0 for _ in range(10**4))

    def test_matches_reflection_principle(self):
        s = RandomStream(22)
        vals = [draw_brownian_fpt(s, 2.0).value for _ in range(10**5)]
        assert ks_statistic(vals, lambda t: brownian_fpt_cdf(t, 2.0)) < 0.01

    def test_median(self):
        # quantile transform of G^2: median = gap^2 / (Phi^-1(0.75))^2
        target = 4.0 / sstats.norm.ppf(0.75) ** 2
        s = RandomStream(23)
        vals = np.array([draw_brownian_fpt(s, 2.0).value for _ in range(10**5)])
        assert abs(np.median(vals) - target) < 0.3


class TestInverseGaussian:
    MU, LAM = 2.0, 4.0

    def test_mean(self):
        s = RandomStream(31)
        n = 10**6
        total = 0.0
        for _ in range(n):
            total += draw_inverse_gaussian(s, self.MU, self.LAM).value
        assert abs(total / n - self.MU) < 0.01

    def test_variance(self):
        s = RandomStream(32)
        vals = np.array([draw_inverse_gaussian(s, self.MU, self.LAM).value
                         for _ in range(10**6)])
        assert abs(vals.var() - self.MU**3 / self.LAM) < 0.05

    def test_cdf(self):
        s = RandomStream(33)
        vals = [draw_inverse_gaussian(s, self.MU, self.LAM).value for _ in range(10**5)]
        # IG(mu, lam) via the two-Gaussian-CDF composition
        def cdf(t):
            t = np.asarray(t, dtype=float)
            rt = np.sqrt(self.LAM / t)
            return (sstats.norm.cdf(rt * (t / self.MU - 1.0))
                    + np.exp(2.0 * self.LAM / self.MU)
                    * sstats.norm.cdf(-rt * (t / self.MU + 1.0)))
        assert ks_statistic(vals, cdf) < 0.01

    def test_branch_probability_matches_quadrature(self):
        # the generator keeps the smaller root X <= mu with prob mu/(mu+X),
        # so the fraction of draws <= mu estimates E[mu/(mu+X)]
        mu, lam = self.MU, self.LAM

        def smaller_root(nv):
            n2 = nv * nv
            return mu + mu * mu * n2 / (2 * lam) \
                - (mu / (2 * lam)) * math.sqrt(4 * mu * lam * n2 + mu * mu * n2 * n2)

        expect, _ = quad(lambda nv: mu / (mu + smaller_root(nv)) * sstats.norm.pdf(nv),
                         -40, 40, limit=200)
        s = RandomStream(34)
        n = 10**6
        hits = sum(draw_inverse_gaussian(s, mu, lam).value <= mu for _ in range(n))
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(hits / n - expect) < 3 * se


class _FixedDraws:
    """A stream, and lanes of streams, whose every normal is n and every uniform 0,
    so that the inverse-Gaussian generator returns its smaller root."""

    def __init__(self, n):
        self.n = n

    def normal(self):
        return self.n

    def uniform(self):
        return 0.0

    def take(self, kind, which):
        return np.full(len(which), self.n if kind == NORMAL else 0.0)


@pytest.mark.parametrize("r", [1e2, 1e4, 1e6, 1e7, 1e8])
def test_inverse_gaussian_smaller_root_is_accurate_at_large_r(r):
    # r = mu*n^2/(2*lam) grows as gap*sqrt(gamma0) shrinks; the root
    # mu*(1 + r - sqrt(r^2 + 2r)) cancels there, its stable form does not
    mu, lam = 2.0, 4.0
    n = 2.0 * math.sqrt(r)
    with decimal.localcontext(decimal.Context(prec=60)):
        rd = decimal.Decimal(mu) * decimal.Decimal(n) ** 2 / (2 * decimal.Decimal(lam))
        want = float(decimal.Decimal(mu) / (1 + rd + (rd * (rd + 2)).sqrt()))
    got = _inverse_gaussian_value(_FixedDraws(n), mu, lam)
    assert abs(got - want) <= 1e-15 * want
    lanes = _inverse_gaussian_lanes(_FixedDraws(n), np.ones(3, dtype=bool), mu, lam)
    assert [v.hex() for v in lanes.tolist()] == [got.hex()] * 3


class TestTruncatedBrownianFpt:
    def test_hard_support(self):
        s = RandomStream(41)
        vals = [draw_truncated_brownian_fpt(s, 1.0, 1.0).value for _ in range(10**4)]
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_conditional_cdf(self):
        s = RandomStream(42)
        vals = [draw_truncated_brownian_fpt(s, 1.0, 1.0).value for _ in range(10**5)]
        assert ks_statistic(vals, lambda t: truncated_brownian_fpt_cdf(t, 1.0, 1.0)) < 0.01

    def test_loose_truncation_recovers_unconditional_law(self):
        s = RandomStream(43)
        trunc = [draw_truncated_brownian_fpt(s, 1.0, 1e6).value for _ in range(10**5)]
        plain = [draw_brownian_fpt(s, 1.0).value for _ in range(10**5)]
        assert two_sample_ks(trunc, plain) < 0.01

    def test_tight_truncation_uses_envelope_branch(self):
        # gap^2/t0 > 1 exercises the shifted-exponential envelope
        s = RandomStream(44)
        vals = [draw_truncated_brownian_fpt(s, 2.0, 0.5).value for _ in range(10**4)]
        assert all(0.0 < v <= 0.5 for v in vals)
        assert ks_statistic(vals, lambda t: truncated_brownian_fpt_cdf(t, 2.0, 0.5)) < 0.02

    def test_rounding_past_t0_is_clamped(self):
        # an exponential and a uniform of 0 accept z = a = gap^2/t0 at once,
        # and gap^2/a rounds to one ulp above t0: both kernels return t0
        gap, t0 = 4.890096716420745, 5.235216568147999
        assert (gap * gap) / ((gap * gap) / t0) > t0

        class Zeros:
            def exponential(self, mean):
                return 0.0

            def uniform(self):
                return 0.0

            def take(self, kind, which, count=1):
                return np.zeros(len(which))

        assert _truncated_brownian_fpt_value(Zeros(), gap, t0) == t0
        which = np.ones(3, dtype=bool)
        assert _truncated_brownian_fpt_lanes(Zeros(), which, gap, t0).tolist() == [t0] * 3


def test_lane_streams_masked_triple_read():
    # each marked lane reads what normal3 gives its stream, across refills
    # too; an unmarked lane stays where it is
    twins = [RandomStream(45, 1).substream(i) for i in range(5)]
    lanes = LaneStreams(RandomStream(45, 1).substream_keys(np.arange(5)))
    pick = np.random.default_rng(46)
    # single reads put the lanes at different offsets from the block end
    for count in range(5):
        which = np.arange(5) < count
        got = lanes.take(NORMAL, which)
        for j in which.nonzero()[0]:
            assert got[j] == twins[j].normal()
    straddled = 0
    for _ in range(800):
        which = pick.random(5) < 0.7
        before = lanes.pos[NORMAL].copy()
        got = lanes.take(NORMAL, which, 3)
        assert got.shape == (3, 5)
        for j in range(5):
            if which[j]:
                left = len(twins[j]._nbuf) - twins[j]._ni
                straddled += 0 < left < 3  # the triple runs past the block's end
                assert tuple(got[:, j]) == twins[j].normal3()
            else:
                assert lanes.pos[NORMAL][j] == before[j]
    assert straddled >= 3


def test_lane_view_draws_what_its_stream_draws():
    # LaneStreams.lane carries every hand-off from lanes to scalar code:
    # each draw is the lane's stream's next, across refills too; after
    # commit the lane's bulk reads go on from the view's place, and the
    # other lanes stay where they were
    lanes = LaneStreams(RandomStream(47, 2).substream_keys(np.arange(3)))
    twins = [RandomStream(47, 2).substream(i) for i in range(3)]
    got = [lanes.take(kind) for kind in (NORMAL, EXPONENTIAL, UNIFORM)]
    for j, twin in enumerate(twins):
        assert [g[j] for g in got] == [twin.normal(), twin.exponential(1.0), twin.uniform()]
    view = lanes.lane(1)
    twin = twins[1]
    for _ in range(1021):  # two normals left in the block: the triple straddles a refill
        assert view.normal() == twin.normal()
    assert len(twin._nbuf) - twin._ni == 2
    assert tuple(view.normal3()) == twin.normal3()
    pick = np.random.default_rng(48)
    for kind in pick.integers(4, size=5000).tolist():  # every kind refills
        if kind == 0:
            got = [view.normal()]
            assert got == [twin.normal()]
        elif kind == 1:
            got = list(view.normal3())
            assert tuple(got) == twin.normal3()
        elif kind == 2:
            got = [view.exponential(0.5)]
            assert got == [twin.exponential(0.5)]
        else:
            got = [view.uniform(3.0)]
            assert got == [twin.uniform(3.0)]
        assert all(type(g) is float for g in got)  # read as Python floats, not numpy scalars
    before = [pos.copy() for pos in lanes.pos]
    view.commit()
    for pos, was in zip(lanes.pos, before):
        assert pos[[0, 2]].tolist() == was[[0, 2]].tolist()
    normals = lanes.take(NORMAL, None, 3)
    exponentials = lanes.take(EXPONENTIAL)
    uniforms = lanes.take(UNIFORM)
    for j, twin in enumerate(twins):
        assert tuple(normals[:, j]) == twin.normal3()
        assert exponentials[j] == twin.exponential(1.0)
        assert uniforms[j] == twin.uniform()


def test_lane_streams_reuse_a_released_buffer_as_new():
    # a LaneStreams takes its rows from the buffer of a released one: the
    # slack past each block, all a lane reads before its first refill, starts
    # as ones whatever the last owner left there, and the lanes read their
    # streams' draws
    keys = RandomStream(50, 4).substream_keys(np.arange(4))
    first = LaneStreams(keys + keys)
    first.take(NORMAL)
    for flat in first._flat:
        flat[:] = 0.0
    buf = first._buf
    del first
    lanes = LaneStreams(keys)
    assert np.shares_memory(lanes._rows, buf)
    assert (lanes._rows[:, :, _BUFLEN:] == 1.0).all()
    twins = [RandomStream(50, 4).substream(i) for i in range(4)]
    got = [lanes.take(kind) for kind in (NORMAL, EXPONENTIAL, UNIFORM)]
    for j, twin in enumerate(twins):
        assert [g[j] for g in got] == [twin.normal(), twin.exponential(1.0), twin.uniform()]


@pytest.mark.parametrize("cpus, n, parts", [(1, 10, [(0, 10)]), (2, 3, [(0, 3)]),
                                             (2, 4, [(0, 2), (2, 4)]), (2, 9, [(0, 4), (4, 9)])])
def test_in_halves_splits_from_the_least_size_on_two_cpus(cpus, n, parts, monkeypatch):
    from fptsim import rng
    monkeypatch.setattr(rng, "_CPUS", cpus)
    threads = []

    def run(lo, hi):
        threads.append(threading.get_ident())
        return lo, hi

    assert _in_halves(run, n, 4) == parts
    assert len(set(threads)) == len(parts)


@pytest.mark.parametrize("failing", [{0}, {5}, {0, 5}], ids=["helper", "caller", "both"])
def test_in_halves_raises_the_first_halfs_error(failing, monkeypatch):
    # what a single pass from 0 to n would meet first
    from fptsim import rng
    monkeypatch.setattr(rng, "_CPUS", 2)

    def run(lo, hi):
        if lo in failing:
            raise ValueError(f"half from {lo}")
        return lo

    with pytest.raises(ValueError, match=f"half from {min(failing)}$"):
        _in_halves(run, 10, 2)


def test_wide_lane_rows_are_freed_not_pooled():
    # rows wider than _POOLED_LANES neither take a pooled buffer nor join the pool
    from fptsim.rng import _IDLE_ROWS, _POOLED_LANES
    small = LaneStreams(RandomStream(51, 4).substream_keys(np.arange(2)))
    del small
    pooled = list(_IDLE_ROWS)
    wide = LaneStreams(RandomStream(51, 4).substream_keys(np.arange(_POOLED_LANES + 1)))
    assert [b is p for b, p in zip(_IDLE_ROWS, pooled)] == [True] * len(pooled)
    assert not any(np.shares_memory(wide._rows, buf) for buf in pooled)
    del wide
    assert [b is p for b, p in zip(_IDLE_ROWS, pooled)] == [True] * len(pooled)
    assert len(_IDLE_ROWS) == len(pooled)


def test_brownian_proposal_redraws_an_exact_zero():
    # G = 0 would give an infinite time gap^2 / G^2: the scalar and the lane
    # proposal both take the next normal instead, and the same one
    from fptsim.rng import _brownian_fpt_lanes, _brownian_fpt_value
    lanes = LaneStreams(RandomStream(49, 3).substream_keys(np.arange(3)))
    twins = [RandomStream(49, 3).substream(i) for i in range(3)]
    first = lanes.take(NORMAL)  # each lane's first refill
    for j, twin in enumerate(twins):
        assert first[j] == twin.normal()
    twin = twins[1]
    lanes._flat[NORMAL][lanes.pos[NORMAL][1]] = twin._nbuf[twin._ni] = 0.0
    before = lanes.pos[NORMAL].copy()
    got = _brownian_fpt_lanes(lanes, np.ones(3, dtype=bool), 2.0)
    for j, twin in enumerate(twins):
        at = twin._ni
        want = _brownian_fpt_value(twin, 2.0)
        assert float(got[j]).hex() == want.hex()
        assert math.isfinite(want) and want > 0.0
        assert lanes.pos[NORMAL][j] - before[j] == twin._ni - at == (2 if j == 1 else 1)


# one operation on a LaneStreams of three lanes: (what, lane, kind, count, seed)
LANE_OPS = st.tuples(st.sampled_from(["take1", "take3", "peek", "view", "attach"]),
                     st.integers(0, 2), st.integers(0, 2), st.integers(0, 1100),
                     st.integers(0, 2**32 - 1))


def _twin_draw(stream, kind):
    if kind == NORMAL:
        return stream.normal()
    return stream.exponential(1.0) if kind == EXPONENTIAL else stream.uniform()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ops=st.lists(LANE_OPS, max_size=25))
def test_lanes_read_what_their_streams_read(ops):
    # any interleaving of masked bulk reads, peek/skip, scalar reads through
    # a committed lane view and fresh keys: each lane reads exactly what a
    # RandomStream on its key reads
    base = RandomStream(50, 3)
    lanes = LaneStreams(base.substream_keys(np.arange(3)))
    twins = [base.substream(i) for i in range(3)]
    fresh = 3
    for what, lane, kind, count, seed in ops:
        pick = np.random.default_rng(seed)
        if what in ("take1", "take3"):  # count masked reads, enough to cross refills
            for which in pick.random((count, 3)) < 0.7:
                if what == "take1":
                    got = lanes.take(kind, which)[None]
                else:
                    got = lanes.take(kind, which, 3)
                for j in which.nonzero()[0]:
                    if what == "take3" and kind == NORMAL:
                        want = list(twins[j].normal3())
                    else:
                        want = [_twin_draw(twins[j], kind) for _ in range(len(got))]
                    assert got[:, j].tolist() == want
        elif what == "peek":
            skip = np.minimum(pick.integers(0, count + 1, size=3), lanes.left(kind))
            got = lanes.peek(kind, np.arange(skip.max())[:, None])
            for j in range(3):
                assert got[:skip[j], j].tolist() == [_twin_draw(twins[j], kind)
                                                     for _ in range(skip[j])]
            lanes.skip(kind, skip)
        elif what == "view":
            view = lanes.lane(lane)
            for read in pick.integers(4, size=count).tolist():
                if read == 3:
                    assert view.normal3() == twins[lane].normal3()
                else:
                    assert _twin_draw(view, read) == _twin_draw(twins[lane], read)
            view.commit()
        else:
            lanes.attach(lane, base.substream_keys(np.array([fresh]))[0])
            twins[lane] = base.substream(fresh)
            fresh += 1
        # take skips its refill check while every lane has room left; that
        # room must never exceed what a lane has left
        for kind in (NORMAL, EXPONENTIAL, UNIFORM):
            assert lanes._room[kind] <= lanes.left(kind).min()
    for kind in (NORMAL, EXPONENTIAL, UNIFORM):  # every lane ends where its stream is
        got = lanes.take(kind)
        assert got.tolist() == [_twin_draw(twin, kind) for twin in twins]
