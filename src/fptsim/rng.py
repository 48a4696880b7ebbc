"""Reproducible randomness and the distribution-specific draws the samplers consume.

All randomness flows through :class:`RandomStream`, a thin wrapper around a
counter-based Philox bit generator.  A stream is addressed by a ``(seed,
stream_id)`` pair (plus an optional substream path), which ``_derive_key``
mixes into a Philox key: equal addresses replay bitwise-identical draw
sequences, distinct addresses give statistically independent sequences.
Draws, replicas and helper processes therefore never share mutable
generator state; they derive their own substreams.

Scalar draws are served from internal buffers refilled in blocks, which keeps
the per-draw cost low enough for the samplers' inner loops while preserving
determinism (the refill pattern depends only on the call sequence).
:class:`LaneStreams` holds the same buffers for many streams side by side so
that a vectorized sampler can read them in bulk; ``_block`` makes the refill
blocks of both, so a lane sees exactly the values its stream would give.
The scalar draw methods and the refill rule are written once, in ``_Draws``:
a :class:`RandomStream` keeps its blocks as lists, and the view that
:meth:`LaneStreams.lane` gives scalar code reads one lane's blocks in place.

A stream's sequence is that of ``Philox(key=key)`` from counter 0, but no
Philox is built per stream: building one costs about ten times as much as
re-keying one through its state, most of it seeding from OS entropy that
the key then overrides.  Streams and lane rows take a generator from a
process-wide idle pool at their first refill, re-key it, and give it back
when they are done; each generator has one owner at a time, so concurrent
threads never share one.  A LaneStreams of up to _POOLED_LANES lanes takes
the memory of its rows from a pool of idle buffers in the same way.

A stream's key is kept as the words its Philox runs on (``_philox_key``);
:meth:`RandomStream.substream_keys` derives and converts the keys of a whole
batch in one numpy pass, so keying a generator only sets its state.

A :meth:`LaneStreams.take` that refills _WAVE_MIN lanes or more at once, in a
process allowed two CPUs or more (_CPUS), makes half of the wave's blocks on
a helper thread (``_in_halves``).
numpy fills a block without holding the GIL, each row and its generator are
touched by one thread only, and every block is the one its lane's stream
would make, so the lanes read the same values bit for bit; no thread
outlives the call.
"""

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

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

# generators no stream or lane row holds (list.pop and list.append are atomic)
_IDLE = []
# flat float64 buffers no LaneStreams holds, each room for some lanes' rows
_IDLE_ROWS = []
# rows of at most this many lanes (~12.7 MB) go back to the idle pool; wider
# ones are freed, so that a full-width batch frees its rows before it builds
# its draws
_POOLED_LANES = 512

# a take that refills this many lanes or more makes half of their blocks on a
# helper thread: ~0.6 ms of work or more, against a thread's ~0.1 ms start and join
_WAVE_MIN = 64
# the CPUs this process may use, the one switch of ``_in_halves``: refill waves
# use a helper thread only when it is 2 or more; the CLI gives each of w
# workers c // w of them
_CPUS = len(os.sched_getaffinity(0))

with np.errstate(invalid="ignore"):
    # what numpy casts a key word that float64 rounds up to 2**64 into (0 on x86-64)
    _WRAPPED = int(np.array([2.0**64]).astype(np.uint64)[0])


def _splitmix64(x):
    """One SplitMix64 step; used to derive well-mixed Philox keys.

    Works on a Python int and, word for word, on a uint64 array.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _derive_key(seed, stream_id, path):
    """Mix (seed, stream_id, *path) into a 2-word Philox key.

    A path word may be a uint64 array; the key words are then arrays too,
    one key per element.
    """
    s = _splitmix64(seed & _MASK64)
    for w in (stream_id, *path):
        s = _splitmix64(s ^ ((w & _MASK64) * 0xD1B54A32D192ED03 & _MASK64))
    return [_splitmix64(s), _splitmix64(s ^ 0xA5A5A5A5A5A5A5A5)]


def _rounded(word):
    """A key word as numpy casts it through float64 and back to uint64."""
    word = int(float(word))
    return word if word <= _MASK64 else _WRAPPED


def _philox_key(k0, k1):
    """The words ``Philox(key=[k0, k1])`` runs on, for a ``_derive_key`` pair.

    Philox takes the key list through ``np.asarray``: two words on one side
    of 2**63 stay exact, while a pair with one word on each side becomes
    float64, both words rounded to 53 bits.
    """
    if (k0 ^ k1) >> 63:
        return [_rounded(k0), _rounded(k1)]
    return [k0, k1]


def _philox_keys(k0, k1):
    """``_philox_key`` of each pair of the uint64 arrays k0 and k1, in one numpy pass."""
    mixed = ((k0 ^ k1) >> 63).astype(bool)
    with np.errstate(invalid="ignore"):  # a word rounded up to 2**64, as in Philox
        k0, k1 = [np.where(mixed, k.astype(np.float64).astype(np.uint64), k) for k in (k0, k1)]
    return [list(key) for key in zip(k0.tolist(), k1.tolist())]


def _keyed(key, gen=None):
    """``gen``, or else a pooled generator, keyed with ``key``'s words at counter 0.

    The pooled generator is an idle one, or a new one when none is idle.
    ``key`` is a ``_philox_key`` list, so the generator gives what
    ``Philox(key=key)`` gives.
    """
    if gen is None:
        try:
            gen = _IDLE.pop()
        except IndexError:
            gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": (0, 0, 0, 0), "key": key},
                               "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen


def _release(gen):
    """Give a generator back to the pool; None is ignored."""
    if gen is not None:
        _IDLE.append(gen)


def _pooled_rows(lanes):
    """(buffer, rows): the rows of ``lanes`` lanes at the start of a buffer.

    Up to _POOLED_LANES lanes the buffer is an idle one with room for them,
    or else a new one; a batch that allocated and freed its megabytes of
    rows would leave the heap laid out differently from run to run, and
    with it the process's peak memory.  A new buffer is all ones.  In a
    reused one only the slack past each block is set to ones: it is all a
    lane reads before its first refill, and the rest holds values an
    earlier batch left, finite like the ones.
    """
    size = 3 * lanes * _ROW
    buf = None
    if lanes <= _POOLED_LANES:
        try:
            buf = _IDLE_ROWS.pop()
        except IndexError:
            pass
    if buf is None or len(buf) < size:
        buf = np.ones(size)
    rows = buf[:size].reshape(3, lanes, _ROW)
    rows[:, :, _BUFLEN:] = 1.0
    return buf, rows


def _block(gen, kind, out=None):
    """The next refill block of a stream's NORMAL, EXPONENTIAL or UNIFORM buffer.

    Written into ``out`` (a lane row) when given; the values are the same.
    """
    draw = getattr(gen, _BLOCK_DRAWS[kind])
    return draw(_BUFLEN) if out is None else draw(out=out)


def _in_halves(run, n, least):
    """``[run(0, n)]``, or ``[run(0, half), run(half, n)]`` on two threads.

    With ``n >= least`` and _CPUS 2 or more, a helper thread runs the first
    half while this one runs the second.  The helper is started and joined
    within the call, and the halves' results come back in order.  If a half
    raises, so does this call, with the first half's error when both do:
    the one a single pass from 0 to n would meet first.
    """
    if n < least or _CPUS < 2:
        return [run(0, n)]
    half = n // 2
    left = []
    failed = []

    def first():
        try:
            left.append(run(0, half))
        except BaseException as exc:  # re-raised on the calling thread
            failed.append(exc)

    helper = threading.Thread(target=first)
    helper.start()
    try:
        right = run(half, n)
    finally:
        helper.join()
        if failed:
            raise failed[0]
    return [left[0], right]


def _blocks(kind, rows):
    """``_block`` for each (generator, row) pair of ``rows``; a wave of
    _WAVE_MIN pairs or more makes its first half on a helper thread (see
    ``_in_halves``)."""
    def fill(lo, hi):
        for gen, row in rows[lo:hi]:
            _block(gen, kind, row)

    _in_halves(fill, len(rows), _WAVE_MIN)


@dataclass
class ProposalDraw:
    """A candidate first-passage time."""

    value: float

    def __post_init__(self):
        if not self.value > 0.0:
            raise NumericError(f"proposal draw must be positive, got {self.value}")


class _Draws:
    """The scalar draws of a stream: three buffers, each read in order.

    A draw past a buffer's end replaces it with ``self._refill(kind)``, the
    stream's next block of that kind, and reads on from its start.
    """

    __slots__ = ("_nbuf", "_ni", "_ebuf", "_ei", "_ubuf", "_ui")

    def normal(self):
        """One standard Gaussian."""
        i = self._ni
        if i >= len(self._nbuf):
            self._nbuf = self._refill(NORMAL)
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
            raise ConfigError(f"exponential mean must be positive, got {mean}")
        i = self._ei
        if i >= len(self._ebuf):
            self._ebuf = self._refill(EXPONENTIAL)
            i = 0
        self._ei = i + 1
        return mean * self._ebuf[i]

    def uniform(self, hi=1.0):
        """Uniform on [0, hi)."""
        if not hi > 0.0:
            raise ConfigError(f"uniform bound must be positive, got {hi}")
        i = self._ui
        if i >= len(self._ubuf):
            self._ubuf = self._refill(UNIFORM)
            i = 0
        self._ui = i + 1
        return hi * self._ubuf[i]


class RandomStream(_Draws):
    """Single-owner stream of reproducible random scalars.

    Never share an instance across concurrent workers; allocate one
    substream per worker/replicate instead via :meth:`substream`.  The seed,
    stream id and path words are integers; any other value raises
    ConfigError rather than address the stream of its floor.  The seed and
    stream id lie in [0, 2**64), where each names a stream of its own; a
    path word is taken modulo 2**64.
    """

    __slots__ = ("_own", "seed", "stream_id", "_path", "_key")

    def __init__(self, seed, stream_id=0, _path=()):
        self._own = None  # the pooled generator, from the first refill on
        for word in (seed, stream_id, *_path):
            # the exact type first: an abstract-class check costs ~0.5 us
            if type(word) is not int and not isinstance(word, numbers.Integral):
                raise ConfigError(f"stream addresses are integers, got {word!r}")
        for word in (seed, stream_id):
            if not 0 <= word <= _MASK64:
                raise ConfigError(f"seeds and stream ids lie in [0, 2**64), got {word!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._path = tuple(int(p) for p in _path)
        self._key = _philox_key(*_derive_key(self.seed, self.stream_id, self._path))
        self._nbuf = []
        self._ni = 0
        self._ebuf = []
        self._ei = 0
        self._ubuf = []
        self._ui = 0

    def __del__(self):
        _release(self._own)

    @property
    def _gen(self):
        """The stream's generator, taken from the pool at its first use."""
        if self._own is None:
            self._own = _keyed(self._key)
        return self._own

    def _refill(self, kind):
        return _block(self._gen, kind).tolist()

    def substream(self, *path):
        """Derive an independent stream addressed by (seed, stream_id, *path)."""
        return RandomStream(self.seed, self.stream_id, self._path + path)

    def substream_keys(self, index):
        """The key of ``substream(i)`` for each i of the integer array ``index``, in its order.

        One numpy pass derives them all, as the words their Philox runs on
        (see ``_philox_key``).  An index array of any non-integer dtype raises
        ConfigError.
        """
        index = np.asarray(index)
        if not np.issubdtype(index.dtype, np.integer):
            raise ConfigError(f"substream indices are integers, got dtype {index.dtype}")
        k0, k1 = _derive_key(self.seed, self.stream_id, (*self._path, index.astype(np.uint64)))
        return _philox_keys(k0, k1)

    # -- vectorized draws (used by the Euler-Maruyama oracle) -----------------

    def normals(self, n):
        return self._gen.standard_normal(n)

    def uniforms(self, n):
        return self._gen.random(n)


class LaneStreams:
    """The scalar buffers of many RandomStreams side by side, read in bulk.

    Each lane reads the stream of one key (see ``RandomStream.substream_keys``),
    whose NORMAL, EXPONENTIAL and UNIFORM buffers sit in a row of the
    matching array, drawn by the row's pooled generator; the lane's place in
    each is a flat index into it.  A read that runs past a row's end refills
    the row from that generator at the very draw where RandomStream's lazy
    refill would happen, so a lane sees exactly the values its stream would
    give scalar by scalar.  Lanes can be dropped (:meth:`keep`); rows are
    never moved, so the memoryviews :meth:`lane` reads them through are built once.
    """

    def __init__(self, keys):
        # the slack past each block is read, and its value ignored, by lanes
        # that do not consume; ones keep such reads finite and nonzero
        self._buf, self._rows = _pooled_rows(len(keys))
        self._flat = [rows.reshape(-1) for rows in self._rows]
        self._views = [memoryview(flat) for flat in self._flat]
        self._gens = [_keyed(key) for key in keys]
        # a row's end is where its block stops; a fresh stream starts there,
        # so its first read of each kind refills like RandomStream's does
        self.end = np.arange(len(keys)) * _ROW + _BUFLEN
        self.pos = [self.end.copy() for _ in _BLOCK_DRAWS]
        # per kind, a lower bound on the draws every lane has left in its block
        self._room = [0, 0, 0]

    def __del__(self):
        for gen in self._gens:
            _release(gen)
        if len(self._buf) <= 3 * _POOLED_LANES * _ROW:
            _IDLE_ROWS.append(self._buf)

    def attach(self, lane, key):
        """Let a lane read the stream of a fresh key from its row on."""
        end = self.end[lane]
        r = end // _ROW
        self._gens[r] = _keyed(key, self._gens[r])
        for pos in self.pos:
            pos[lane] = end
        self._room = [0, 0, 0]

    def keep(self, lanes):
        """Drop every lane not listed; the listed ones are renumbered in order."""
        self.end = self.end[lanes]
        self.pos = [pos[lanes] for pos in self.pos]

    def take(self, kind, which=None, count=1):
        """The next ``count`` draws of one kind on every lane, consumed where ``which`` is True.

        Without ``which`` every lane consumes; ``count=3`` gives the draws
        as a (3, lanes) array.  Lanes that do not consume get values to
        ignore and stay where they are.  The lanes whose reads run past
        their blocks refill together; a wave of _WAVE_MIN of them or more
        makes half of its blocks on a helper thread when the process may
        use two CPUs (see ``_blocks``), which changes no value read.
        """
        pos = self.pos[kind]
        flat = self._flat[kind]
        vals = flat[pos] if count == 1 else flat.take(_TRIPLE + pos)
        if which is None:
            nxt = pos + count
        else:
            nxt = pos + (which if count == 1 else count * which)
        room = self._room[kind] - count
        if room < 0:
            over = nxt > self.end
            if np.count_nonzero(over):
                self._refill(kind, vals, over.nonzero()[0], pos, nxt, count)
            room = int((self.end - nxt).min())
        self._room[kind] = room
        self.pos[kind] = nxt
        return vals

    def left(self, kind):
        """The draws of one kind each lane has left in its block."""
        return self.end - self.pos[kind]

    def peek(self, kind, ahead):
        """The draws ``ahead`` places on from each lane's place, without consuming them.

        ``ahead`` broadcasts against the lanes (last axis).  Only draws within
        a lane's block (see :meth:`left`) are its stream's; others are junk.
        """
        return self._flat[kind].take(self.pos[kind] + ahead, mode="clip")

    def skip(self, kind, count):
        """Consume ``count`` draws of one kind on each lane, never past a
        lane's block: draws :meth:`peek` showed."""
        self.pos[kind] += count
        self._room[kind] = 0

    def lane(self, lane):
        """A stream that draws on one lane, as the lane's own stream does (see :class:`_LaneStream`)."""
        return _LaneStream(self, lane)

    def _refill(self, kind, vals, lanes, pos, nxt, count):
        """Finish the reads of ``lanes``, which run past their blocks, across a refill.

        A lane's head, what it reads of its old block, is copied before the
        wave of new blocks is made (see ``_blocks``); then the lanes' values
        and new positions are spliced in.
        """
        ends = self.end[lanes]
        rows = (ends // _ROW).tolist()
        blocks = [self._rows[kind, r, :_BUFLEN] for r in rows]
        if count > 1:
            left = (ends - pos[lanes]).tolist()
            heads = [block[_BUFLEN - k:].copy() for block, k in zip(blocks, left)]
        _blocks(kind, [(self._gens[r], block) for r, block in zip(rows, blocks)])
        if count == 1:
            vals[lanes] = self._rows[kind, rows, 0]
        else:
            for j, block, head, k in zip(lanes.tolist(), blocks, heads, left):
                vals[:, j] = np.concatenate((head, block[:count - k]))
        nxt[lanes] = pos[lanes] + count - _BUFLEN


class _LaneStream(_Draws):
    """A stream that draws on one lane of a LaneStreams, as the lane's own stream does.

    Its buffers are the lane's three blocks, read in place through the
    memoryviews of the LaneStreams; a refill writes the lane's next block
    into its row, where the lane's stream would refill.  The lane's places
    move when :meth:`commit` is called.
    """

    __slots__ = ("_lanes", "_lane", "_row")

    def __init__(self, lanes, lane):
        self._lanes = lanes
        self._lane = lane
        end = int(lanes.end[lane])
        self._row = end // _ROW
        self._nbuf, self._ebuf, self._ubuf = [view[end - _BUFLEN:end] for view in lanes._views]
        self._ni, self._ei, self._ui = [int(pos[lane]) - end + _BUFLEN for pos in lanes.pos]

    def _refill(self, kind):
        _block(self._lanes._gens[self._row], kind, self._lanes._rows[kind, self._row, :_BUFLEN])
        return (self._nbuf, self._ebuf, self._ubuf)[kind]

    def commit(self):
        """Move the lane's places past the draws taken here."""
        start = self._row * _ROW
        for pos, at in zip(self._lanes.pos, (self._ni, self._ei, self._ui)):
            pos[self._lane] = start + at
        self._lanes._room = [0, 0, 0]


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
        raise ConfigError(f"gap must be positive, got {gap}")
    return ProposalDraw(_brownian_fpt_value(stream, gap))


def _inverse_gaussian_value(stream, mu, lam):
    # Michael-Schucany-Haas many-to-one transform: with r = mu*n^2/(2*lam),
    # keep the smaller root X = mu/(1 + r + sqrt(r^2 + 2r)) with probability
    # mu/(mu+X), else return the conjugate root mu^2/X.  X is written as mu^2
    # over the larger root, a sum of positive terms, so it cancels at no r.
    n = stream.normal()
    n2 = n * n
    r = (mu * n2) / (2.0 * lam)
    x = mu / (1.0 + r + math.sqrt(r * (r + 2.0)))
    u = stream.uniform()
    if u <= mu / (mu + x):
        return x
    return (mu * mu) / x


def _inverse_gaussian_lanes(lanes, which, mu, lam):
    """_inverse_gaussian_value on the lanes of a LaneStreams that ``which`` marks."""
    n = lanes.take(NORMAL, which)
    n2 = n * n
    r = (mu * n2) / (2.0 * lam)
    x = mu / (1.0 + r + np.sqrt(r * (r + 2.0)))
    u = lanes.take(UNIFORM, which)
    return np.where(u <= mu / (mu + x), x, (mu * mu) / x)


def draw_inverse_gaussian(stream, mu, lam):
    """Inverse-Gaussian IG(mu, lam) variate via the Michael-Schucany-Haas generator."""
    if not (mu > 0.0 and lam > 0.0):
        raise ConfigError(f"IG parameters must be positive, got mu={mu}, lambda={lam}")
    return ProposalDraw(_inverse_gaussian_value(stream, mu, lam))


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
        raise ConfigError(f"gap and t0 must be positive, got gap={gap}, t0={t0}")
    return ProposalDraw(_truncated_brownian_fpt_value(stream, gap, t0))
