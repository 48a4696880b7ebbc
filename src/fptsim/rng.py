"""Reproducible randomness and the distribution-specific draws the samplers consume.

All randomness flows through :class:`RandomStream`, a thin wrapper around a
counter-based Philox bit generator.  A stream is addressed by a ``(seed,
stream_id)`` pair (plus an optional substream path): equal addresses replay
bitwise-identical draw sequences, distinct addresses give statistically
independent sequences.  Replicas, split slices and helper processes therefore
never share mutable generator state; they derive their own substreams.

Scalar draws are served from internal buffers refilled in blocks, which keeps
the per-draw cost low enough for the samplers' inner loops while preserving
determinism (the refill pattern depends only on the call sequence).
:class:`LaneStreams` holds the same buffers for many streams side by side so
that a vectorized sampler can read them in bulk; ``_block`` makes the refill
blocks of both, so a lane sees exactly the values its stream would give.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FptsimError, NumericError

_MASK64 = (1 << 64) - 1
_BUFLEN = 1024

# the three scalar buffers of a stream, in the order of _BLOCK_DRAWS
NORMAL, EXPONENTIAL, UNIFORM = 0, 1, 2
_BLOCK_DRAWS = ("standard_normal", "standard_exponential", "random")
# a lane row holds one block plus room for a bulk read that runs past its end
_ROW = _BUFLEN + 8
_TRIPLE = np.arange(3)[:, None]

# attempts cap for the truncated-proposal rejection loop; unreachable in practice
_TRUNC_ATTEMPT_CAP = 10**6


def _splitmix64(x):
    """One SplitMix64 step; used to derive well-mixed Philox keys."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _derive_key(seed, stream_id, path):
    """Mix (seed, stream_id, *path) into a 2-word Philox key."""
    s = _splitmix64(seed & _MASK64)
    for w in (stream_id, *path):
        s = _splitmix64(s ^ ((w & _MASK64) * 0xD1B54A32D192ED03 & _MASK64))
    return [_splitmix64(s), _splitmix64(s ^ 0xA5A5A5A5A5A5A5A5)]


def _block(gen, kind, out=None):
    """The next refill block of a stream's NORMAL, EXPONENTIAL or UNIFORM buffer.

    Written into ``out`` (a lane row) when given; the values are the same.
    """
    draw = getattr(gen, _BLOCK_DRAWS[kind])
    return draw(_BUFLEN) if out is None else draw(out=out)


@dataclass
class ProposalDraw:
    """A candidate first-passage time and the law it was drawn from.

    ``params`` records the gap L - x plus the variant-specific parameter
    (gamma0 for the inverse-Gaussian proposal, t0 for the truncated one).
    """

    value: float
    law_tag: str
    params: tuple

    def __post_init__(self):
        if not self.value > 0.0:
            raise FptsimError(f"proposal draw must be positive, got {self.value}")


class RandomStream:
    """Single-owner stream of reproducible random scalars.

    Never share an instance across concurrent workers; allocate one
    substream per worker/replicate instead via :meth:`substream`.
    """

    __slots__ = ("seed", "stream_id", "_path", "_gen",
                 "_nbuf", "_ni", "_ebuf", "_ei", "_ubuf", "_ui")

    def __init__(self, seed, stream_id=0, _path=()):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._path = tuple(int(p) for p in _path)
        key = _derive_key(self.seed, self.stream_id, self._path)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._nbuf = []
        self._ni = 0
        self._ebuf = []
        self._ei = 0
        self._ubuf = []
        self._ui = 0

    def substream(self, *path):
        """Derive an independent stream addressed by (seed, stream_id, *path)."""
        return RandomStream(self.seed, self.stream_id, self._path + path)

    # -- raw scalar draws ----------------------------------------------------

    def normal(self):
        """One standard Gaussian."""
        i = self._ni
        if i >= len(self._nbuf):
            self._nbuf = _block(self._gen, NORMAL).tolist()
            i = 0
        self._ni = i + 1
        return self._nbuf[i]

    def normal3(self):
        """Three independent standard Gaussians."""
        i = self._ni
        buf = self._nbuf
        if i + 3 <= len(buf):
            self._ni = i + 3
            return buf[i], buf[i + 1], buf[i + 2]
        return self.normal(), self.normal(), self.normal()

    def exponential(self, mean):
        """Exponential with the given MEAN (i.e. rate 1/mean)."""
        if not mean > 0.0:
            raise FptsimError(f"exponential mean must be positive, got {mean}")
        i = self._ei
        if i >= len(self._ebuf):
            self._ebuf = _block(self._gen, EXPONENTIAL).tolist()
            i = 0
        self._ei = i + 1
        return mean * self._ebuf[i]

    def uniform(self, hi=1.0):
        """Uniform on [0, hi)."""
        if not hi > 0.0:
            raise FptsimError(f"uniform bound must be positive, got {hi}")
        i = self._ui
        if i >= len(self._ubuf):
            self._ubuf = _block(self._gen, UNIFORM).tolist()
            i = 0
        self._ui = i + 1
        return hi * self._ubuf[i]

    # -- vectorized draws (used by the Euler-Maruyama oracle) -----------------

    def normals(self, n):
        return self._gen.standard_normal(n)

    def uniforms(self, n):
        return self._gen.random(n)


class LaneStreams:
    """The scalar buffers of many RandomStreams side by side, read in bulk.

    Each lane reads one attached stream whose NORMAL, EXPONENTIAL and
    UNIFORM buffers sit in a row of the matching array; the lane's place in
    each is a flat index into it.  A read that runs past a row's end refills
    the row from that stream's generator at the very draw where
    RandomStream's lazy refill would happen, so a lane sees exactly the
    values its stream would give scalar by scalar.  Lanes can be dropped
    (:meth:`keep`); rows are never moved.
    """

    def __init__(self, streams):
        # the slack past each block is read, and its value ignored, by lanes
        # that do not consume; ones keep such reads finite and nonzero
        self._rows = np.ones((3, len(streams), _ROW))
        self._flat = [rows.reshape(-1) for rows in self._rows]
        self._streams = list(streams)
        # a row's end is where its block stops; a fresh stream starts there,
        # so its first read of each kind refills like RandomStream's does
        self.end = np.arange(len(streams)) * _ROW + _BUFLEN
        self.pos = [self.end.copy() for _ in _BLOCK_DRAWS]
        # per kind, a lower bound on the draws every lane has left in its block
        self._room = [0, 0, 0]

    def attach(self, lane, stream):
        """Let a lane read a fresh stream from its row on."""
        end = self.end[lane]
        self._streams[end // _ROW] = stream
        for pos in self.pos:
            pos[lane] = end
        self._room = [0, 0, 0]

    def keep(self, lanes):
        """Drop every lane not listed; the listed ones are renumbered in order."""
        self.end = self.end[lanes]
        self.pos = [pos[lanes] for pos in self.pos]

    def take(self, kind, which=None, count=1):
        """The next draw of one kind on every lane, consumed where ``which`` is True.

        Without ``which`` every lane consumes ``count`` draws; ``count=3``
        gives them as a (3, lanes) array.  Lanes that do not consume get a
        value to ignore.
        """
        pos = self.pos[kind]
        flat = self._flat[kind]
        vals = flat[pos] if count == 1 else flat.take(_TRIPLE + pos)
        nxt = pos + (count if which is None else which)
        room = self._room[kind] - count
        if room < 0:
            over = nxt > self.end
            if np.count_nonzero(over):
                for j in over.nonzero()[0]:
                    nxt[j] = self._refill(kind, vals, j, int(pos[j]), int(self.end[j]), count)
            room = int((self.end - nxt).min())
        self._room[kind] = room
        self.pos[kind] = nxt
        return vals

    def _refill(self, kind, vals, j, at, end, count):
        """Finish lane j's read across a refill; returns its new position."""
        row = self._rows[kind, end // _ROW]
        left = end - at
        head = row[at - end + _BUFLEN:_BUFLEN].copy()
        _block(self._streams[end // _ROW]._gen, kind, row[:_BUFLEN])
        if count == 1:
            vals[j] = row[0]
        else:
            vals[:, j] = np.concatenate((head, row[:count - left]))
        return end - _BUFLEN + count - left

    def stream(self, lane):
        """The lane's RandomStream, its buffers set to where the lane stands."""
        end = int(self.end[lane])
        stream = self._streams[end // _ROW]
        bufs = [self._rows[kind, end // _ROW, :_BUFLEN].tolist() for kind in range(3)]
        at = [int(pos[lane]) - end + _BUFLEN for pos in self.pos]
        stream._nbuf, stream._ebuf, stream._ubuf = bufs
        stream._ni, stream._ei, stream._ui = at
        return stream


# -- proposal laws ------------------------------------------------------------


def _brownian_fpt_value(stream, gap):
    """gap^2 / G^2 with G standard Gaussian; redraws on the fp-zero event."""
    g = stream.normal()
    g2 = g * g
    while g2 == 0.0:
        g = stream.normal()
        g2 = g * g
    return (gap * gap) / g2


def _brownian_fpt_lanes(lanes, which, gap):
    """_brownian_fpt_value on the lanes of a LaneStreams that ``which`` marks."""
    g = lanes.take(NORMAL, which)
    g2 = g * g
    if not g2.min() > 0.0:
        for j in ((g2 == 0.0) & which).nonzero()[0]:
            one = np.zeros_like(which)
            one[j] = True
            while g2[j] == 0.0:
                g = lanes.take(NORMAL, one)[j]
                g2[j] = g * g
    return (gap * gap) / g2


def draw_brownian_fpt(stream, gap):
    """First-passage time of standard Brownian motion through a level gap > 0 away."""
    if not gap > 0.0:
        raise FptsimError(f"gap must be positive, got {gap}")
    return ProposalDraw(_brownian_fpt_value(stream, gap), "brownian-fpt", (gap,))


def _inverse_gaussian_value(stream, mu, lam):
    # Michael-Schucany-Haas many-to-one transform: keep the smaller root with
    # probability mu/(mu+X), else return the conjugate root mu^2/X.
    n = stream.normal()
    n2 = n * n
    x = mu + (mu * mu * n2) / (2.0 * lam) \
        - (mu / (2.0 * lam)) * math.sqrt(4.0 * mu * lam * n2 + mu * mu * n2 * n2)
    u = stream.uniform()
    if u <= mu / (mu + x):
        return x
    return (mu * mu) / x


def _inverse_gaussian_lanes(lanes, which, mu, lam):
    """_inverse_gaussian_value on the lanes of a LaneStreams that ``which`` marks."""
    n = lanes.take(NORMAL, which)
    n2 = n * n
    x = mu + (mu * mu * n2) / (2.0 * lam) \
        - (mu / (2.0 * lam)) * np.sqrt(4.0 * mu * lam * n2 + mu * mu * n2 * n2)
    u = lanes.take(UNIFORM, which)
    return np.where(u <= mu / (mu + x), x, (mu * mu) / x)


def draw_inverse_gaussian(stream, mu, lam):
    """Inverse-Gaussian IG(mu, lam) variate via the Michael-Schucany-Haas generator."""
    if not (mu > 0.0 and lam > 0.0):
        raise FptsimError(f"IG parameters must be positive, got mu={mu}, lambda={lam}")
    return ProposalDraw(_inverse_gaussian_value(stream, mu, lam), "inverse-gaussian", (mu, lam))


def _truncated_brownian_fpt_value(stream, gap, t0):
    """gap^2/G^2 conditioned on being <= t0, i.e. G^2 conditioned on G^2 >= a.

    The squared-Gaussian rejection is exact; the bound t0 can only be
    overshot by rounding in gap^2/z, so the value is clamped to it.
    """
    a = (gap * gap) / t0
    if a <= 1.0:
        # conditioning is mild: plain redraw of G^2 has acceptance >= P(chi2_1 >= 1)
        for _ in range(_TRUNC_ATTEMPT_CAP):
            g = stream.normal()
            z = g * g
            if z >= a and z > 0.0:
                return min((gap * gap) / z, t0)
    else:
        # shifted-exponential envelope on [a, inf): the chi2_1 tail decays like
        # exp(-z/2), so rate 1/2 shifted to a dominates with ratio sqrt(a/z)
        for _ in range(_TRUNC_ATTEMPT_CAP):
            z = a + stream.exponential(2.0)
            if stream.uniform() <= math.sqrt(a / z):
                return min((gap * gap) / z, t0)
    raise NumericError("truncated-proposal rejection loop exceeded its attempts cap")


def _truncated_brownian_fpt_lanes(lanes, which, gap, t0):
    """_truncated_brownian_fpt_value on the lanes of a LaneStreams that ``which`` marks.

    Every lane makes the same sequence of attempts as the scalar loop; the
    lanes still pending after an attempt retry together.
    """
    a = (gap * gap) / t0
    out = np.ones(len(which))
    pending = which.copy()
    for _ in range(_TRUNC_ATTEMPT_CAP):
        if a <= 1.0:
            g = lanes.take(NORMAL, pending)
            z = g * g
            ok = (z >= a) & (z > 0.0)
        else:
            z = a + 2.0 * lanes.take(EXPONENTIAL, pending)
            ok = lanes.take(UNIFORM, pending) <= np.sqrt(a / z)
        done = pending & ok
        out[done] = np.minimum((gap * gap) / z[done], t0)
        pending &= ~ok
        if not pending.any():
            return out
    raise NumericError("truncated-proposal rejection loop exceeded its attempts cap")


def draw_truncated_brownian_fpt(stream, gap, t0):
    """Brownian first-passage time conditioned on occurring before t0."""
    if not (gap > 0.0 and t0 > 0.0):
        raise FptsimError(f"gap and t0 must be positive, got gap={gap}, t0={t0}")
    return ProposalDraw(_truncated_brownian_fpt_value(stream, gap, t0),
                        "truncated-brownian-fpt", (gap, t0))
