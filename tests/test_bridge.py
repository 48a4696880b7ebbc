"""Tests for the pinned bridge skeleton and the Bessel-norm functional."""

import math

import numpy as np
import pytest

from fptsim import (BridgeSkeleton, ConfigError, RandomStream, SequentialBridgeState,
                    bessel_norm, bisect_insert, sequential_advance)
from fptsim.bridge import bisect_lanes


def test_terminal_pin_is_exact():
    s = RandomStream(1)
    state = SequentialBridgeState(horizon=3.0)
    sequential_advance(state, 1.0, s)
    value = sequential_advance(state, 3.0, s)
    assert value == (0.0, 0.0, 0.0)


def test_sequential_midpoint_variance():
    # bridge variance t(T-t)/T = T/4 at the midpoint, pooled over coordinates
    T = 4.0
    s = RandomStream(2)
    n = 10**5
    acc = 0.0
    for _ in range(n):
        state = SequentialBridgeState(T)
        v = sequential_advance(state, T / 2.0, s)
        acc += v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    assert acc / (3 * n) == pytest.approx(T / 4.0, rel=0.01)


def test_sequential_two_step_covariance():
    # cov(beta_s, beta_t) = s(T-t)/T for s < t
    T = 3.0
    s_time, t_time = 1.0, 2.0
    target = s_time * (T - t_time) / T
    s = RandomStream(3)
    n = 10**5
    acc = 0.0
    for _ in range(n):
        state = SequentialBridgeState(T)
        v1 = sequential_advance(state, s_time, s)
        v2 = sequential_advance(state, t_time, s)
        acc += v1[0] * v2[0] + v1[1] * v2[1] + v1[2] * v2[2]
    assert acc / (3 * n) == pytest.approx(target, rel=0.02)


def test_sequential_requires_increasing_times():
    s = RandomStream(4)
    state = SequentialBridgeState(2.0)
    sequential_advance(state, 1.5, s)
    with pytest.raises(ValueError) as err:
        sequential_advance(state, 1.0, s)
    assert type(err.value) is ConfigError
    with pytest.raises(ValueError) as err:
        sequential_advance(state, 2.5, s)
    assert type(err.value) is ConfigError
    with pytest.raises(ConfigError, match="horizon"):
        SequentialBridgeState(0.0)


def test_bisect_midpoint_variance():
    T = 4.0
    s = RandomStream(5)
    n = 10**5
    acc = 0.0
    for _ in range(n):
        skel = BridgeSkeleton(T, drift_gap=1.0)
        v = bisect_insert(skel, T / 2.0, s)
        acc += v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    assert acc / (3 * n) == pytest.approx(T / 4.0, rel=0.01)


def test_bisect_duplicate_returns_stored_knot():
    s = RandomStream(6)
    skel = BridgeSkeleton(2.0, 1.0)
    first = bisect_insert(skel, 0.7, s)
    count = len(skel)
    again = bisect_insert(skel, 0.7, s)
    assert again == first
    assert len(skel) == count


def test_bisect_between_equal_knots_interpolates_their_value():
    T = 4.0
    s = RandomStream(7)
    n = 2 * 10**4
    acc = np.zeros(3)
    for _ in range(n):
        skel = BridgeSkeleton(T, 1.0)
        skel.times = [0.0, 1.0, 3.0, T]
        skel.values = [(0.0, 0.0, 0.0), (2.0, 2.0, 2.0), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0)]
        acc += bisect_insert(skel, 2.0, s)
    assert np.allclose(acc / n, 2.0, atol=0.02)


def test_bisect_rejects_times_outside_open_interval():
    s = RandomStream(8)
    skel = BridgeSkeleton(2.0, 1.0)
    for bad in (0.0, 2.0, -0.5, 3.0):
        with pytest.raises(ValueError) as err:
            bisect_insert(skel, bad, s)
        assert type(err.value) is ConfigError
    for horizon, gap in ((0.0, 1.0), (2.0, -1.0)):
        with pytest.raises(ConfigError, match="must be positive"):
            BridgeSkeleton(horizon, gap)


class _Given:
    """A stream whose ``normal3`` returns one fixed triple, counting its calls."""

    def __init__(self, g):
        self.g = g
        self.calls = 0

    def normal3(self):
        self.calls += 1
        return self.g


def _lane_cases(rng, n):
    """Knots (tl, vl), (tr, vr) on [0, T] and a time u in (tl, tr], n cases.

    A knot is a pin (time 0 or T, value 0) in about a third of the cases.
    The time is uniform in the gap, or it lies on, next to or within 1e-15
    (the knot tolerance) of a knot, or just past it.
    """
    cases = []
    while len(cases) < n:
        T = rng.uniform(0.5, 5.0)
        tl = 0.0 if rng.random() < 0.35 else rng.uniform(0.0, T)
        tr = T if rng.random() < 0.35 else rng.uniform(tl, T)
        vl = (0.0, 0.0, 0.0) if tl == 0.0 else tuple(rng.normal(size=3))
        vr = (0.0, 0.0, 0.0) if tr == T else tuple(rng.normal(size=3))
        u = [rng.uniform(tl, tr), tl + 5e-16, tl + 1e-15, tl + 2e-15,
             np.nextafter(tl, T), tr - 5e-16, tr - 1e-15, tr - 2e-15, tr,
             np.nextafter(tr, 0.0)][rng.integers(10)]
        if tl < u <= tr and 0.0 < u < T:
            cases.append((T, tl, vl, tr, vr, float(u), tuple(rng.normal(size=3))))
    return cases


def test_lane_draw_is_bisect_insert_bit_for_bit():
    cases = _lane_cases(np.random.default_rng(11), 4000)
    T, tl, vl, tr, vr, u, g = (np.array(c) for c in zip(*cases))
    value, drawn = bisect_lanes(tl, vl.T, tr, vr.T, u, g.T)
    for j, (T, tl, vl, tr, vr, u, g) in enumerate(cases):
        skel = BridgeSkeleton(T, 1.0)
        skel.times = sorted({0.0, tl, tr, T})
        skel.values = [{0.0: (0.0, 0.0, 0.0), tl: vl, tr: vr, T: (0.0, 0.0, 0.0)}[t]
                       for t in skel.times]
        stream = _Given(g)
        scalar = bisect_insert(skel, u, stream)
        assert bool(drawn[j]) == (stream.calls == 1), (tl, u, tr)
        if drawn[j]:
            assert np.array(scalar).tobytes() == value[:, j].tobytes(), (tl, u, tr)
        else:
            assert scalar in (vl, vr)
    assert 0 < np.count_nonzero(drawn) < len(cases)


def test_bessel_norm_endpoint_pins():
    assert bessel_norm(1.5, 2.0, 2.0, (0.0, 0.0, 0.0)) == 1.5
    assert bessel_norm(1.5, 2.0, 0.0, (0.0, 0.0, 0.0)) == 0.0
    for t in (-0.5, 2.5):
        with pytest.raises(ValueError) as err:
            bessel_norm(1.5, 2.0, t, (0.0, 0.0, 0.0))
        assert type(err.value) is ConfigError


def test_bessel_norm_hand_value():
    # (1/4)*2 + 1 = 1.5 on the first coordinate, then ||(1.5, 2, 2)||
    assert bessel_norm(2.0, 4.0, 1.0, (1.0, 2.0, 2.0)) == pytest.approx(
        math.sqrt(10.25), abs=1e-12)


def test_bessel_norm_triangle_inequality():
    s = RandomStream(9)
    T, gap = 2.0, 1.7
    for _ in range(1000):
        t = s.uniform(T)
        beta = s.normal3()
        lhs = bessel_norm(gap, T, t, beta)
        rhs = (t / T) * gap + math.sqrt(sum(b * b for b in beta))
        assert lhs <= rhs + 1e-12


def test_refinement_order_exchangeability():
    # the joint law at fixed times is the same whether the bridge is built
    # forward or by bisection in scrambled order
    T, gap = 2.0, 1.5
    times = (0.4, 1.0, 1.6)
    n = 4 * 10**4
    s = RandomStream(10)

    seq = np.empty((n, 3, 3))
    for i in range(n):
        state = SequentialBridgeState(T)
        for j, t in enumerate(times):
            seq[i, j] = sequential_advance(state, t, s)

    bis = np.empty((n, 3, 3))
    order = (1.0, 1.6, 0.4)
    idx = {1.0: 1, 1.6: 2, 0.4: 0}
    for i in range(n):
        skel = BridgeSkeleton(T, gap)
        for t in order:
            bis[i, idx[t]] = bisect_insert(skel, t, s)

    # means are zero; compare every pairwise covariance pooled over coordinates
    for a in range(3):
        for b in range(3):
            c_seq = np.mean(seq[:, a, :] * seq[:, b, :])
            c_bis = np.mean(bis[:, a, :] * bis[:, b, :])
            v = np.std(seq[:, a, :] * seq[:, b, :]) / math.sqrt(3 * n)
            w = np.std(bis[:, a, :] * bis[:, b, :]) / math.sqrt(3 * n)
            tol = 4.0 * math.hypot(v, w)
            assert abs(c_seq - c_bis) <= tol, (a, b, c_seq, c_bis, tol)
            target = min(times[a], times[b]) * (T - max(times[a], times[b])) / T
            assert abs(c_seq - target) <= tol

