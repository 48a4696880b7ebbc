"""Pinned 3-dimensional Brownian-bridge skeletons and the Bessel-norm functional.

Both thinning mechanizations evaluate the same path functional
``R_t = ||(t/T) (L-x) e1 + beta_t||`` where ``beta`` is a 3-d Brownian bridge
pinned to zero at both ends of [0, T].  Two refinement orders realize it:
forward conditional steps (:func:`sequential_advance` on a
:class:`SequentialBridgeState`) and conditional bisection at arbitrary
interior times (:func:`bisect_insert` on a :class:`BridgeSkeleton`, or its
draw on lanes, :func:`bisect_lanes`).  The height-ordered kernels and the
comparator bisect; the time-ordered kernels inline the forward step rather than
call ``sequential_advance``.  Either refinement order realizes the same bridge
law, which the test suite checks empirically.

A skeleton lives for a single rejection iteration and is discarded when the
iteration restarts with a fresh proposal.
"""

import bisect
import math

import numpy as np

from .errors import ConfigError

# two query times closer than this are treated as the same knot
_TIME_EPS = 1e-15


class SequentialBridgeState:
    """Forward-only bridge state: current time, current value, terminal pin at T."""

    __slots__ = ("horizon", "current_time", "bx", "by", "bz")

    def __init__(self, horizon):
        if not horizon > 0.0:
            raise ConfigError(f"bridge horizon must be positive, got {horizon}")
        self.horizon = horizon
        self.current_time = 0.0
        self.bx = 0.0
        self.by = 0.0
        self.bz = 0.0


def sequential_advance(state, new_time, stream):
    """Advance the bridge to new_time conditionally on its state and the pin at T.

    Uses the forward conditional update
    ``beta <- ((T-t1)/(T-t0)) beta + sqrt((T-t1)(t1-t0)/(T-t0)) G``;
    mutates the state and returns the new 3-vector value.
    """
    t0 = state.current_time
    T = state.horizon
    if not t0 < new_time <= T:
        raise ConfigError(
            f"bridge times must advance: current {t0}, requested {new_time}, horizon {T}")
    a = (T - new_time) / (T - t0)
    s = math.sqrt((T - new_time) * (new_time - t0) / (T - t0))
    g1, g2, g3 = stream.normal3()
    state.bx = a * state.bx + s * g1
    state.by = a * state.by + s * g2
    state.bz = a * state.bz + s * g3
    state.current_time = new_time
    return (state.bx, state.by, state.bz)


class BridgeSkeleton:
    """Lazily refined set of pinned bridge evaluations on [0, T].

    Knots are kept sorted and unique in time; the endpoints (0, 0) and (T, 0)
    are always present.  Inserting at an existing time returns the stored
    value without consuming randomness.
    """

    __slots__ = ("horizon", "drift_gap", "times", "values")

    def __init__(self, horizon, drift_gap):
        if not horizon > 0.0:
            raise ConfigError(f"bridge horizon must be positive, got {horizon}")
        if not drift_gap > 0.0:
            raise ConfigError(f"drift gap must be positive, got {drift_gap}")
        self.horizon = horizon
        self.drift_gap = drift_gap
        self.times = [0.0, horizon]
        self.values = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)]

    def __len__(self):
        return len(self.times)


def bisect_insert(skel, u, stream):
    """Draw the bridge value at interior time u by conditional bisection.

    Locates the neighbouring knots, draws the value from the conditional
    (linear interpolation plus independent Gaussian of the bridged variance),
    inserts the new knot and returns the value.  A time matching an existing
    knot within 1e-15 returns the stored value unchanged.
    """
    T = skel.horizon
    if not 0.0 < u < T:
        raise ConfigError(f"insertion time must lie strictly inside (0, {T}), got {u}")
    times = skel.times
    values = skel.values
    # the knots at 0 and T bound u, so t0 < u <= t1
    i = bisect.bisect_left(times, u)
    t0 = times[i - 1]
    t1 = times[i]
    if u - t0 <= _TIME_EPS:
        return values[i - 1]
    if t1 - u <= _TIME_EPS:
        return values[i]
    v0 = values[i - 1]
    v1 = values[i]
    w = (u - t0) / (t1 - t0)
    s = math.sqrt((t1 - u) * (u - t0) / (t1 - t0))
    g1, g2, g3 = stream.normal3()
    value = (v0[0] + (v1[0] - v0[0]) * w + s * g1,
             v0[1] + (v1[1] - v0[1]) * w + s * g2,
             v0[2] + (v1[2] - v0[2]) * w + s * g3)
    times.insert(i, u)
    values.insert(i, value)
    return value


def off_knots(a, b):
    """Where times a past a left knot and b short of a right one draw in ``bisect_insert``."""
    return np.minimum(a, b) > _TIME_EPS


def bisect_lanes(tl, vl, tr, vr, u, g):
    """``bisect_insert``'s draw at times u between knots (tl, vl) and (tr, vr) on
    lanes, term for term from Gaussians g, and the ``off_knots`` mask of where it holds."""
    a = u - tl
    b = tr - u
    span = tr - tl
    return vl + (vr - vl) * (a / span) + np.sqrt(b * a / span) * g, off_knots(a, b)


def bessel_norm(drift_gap, horizon, t, beta_t):
    """||(t/T) gap e1 + beta_t||, the Bessel-bridge functional the thinning tests use."""
    if not 0.0 <= t <= horizon:
        raise ConfigError(f"time {t} outside [0, {horizon}]")
    rx = (t / horizon) * drift_gap + beta_t[0]
    return math.sqrt(rx * rx + beta_t[1] * beta_t[1] + beta_t[2] * beta_t[2])

