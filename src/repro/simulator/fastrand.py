"""Bit-exact vectorized replication of :class:`random.Random` draws.

The vectorized simulator must consume randomness in batches, yet produce
*the same file sequence* as the reference engine, which calls
``Random.randrange`` / ``Random.random`` one step at a time. CPython's
``random.Random`` is a Mersenne Twister (MT19937) whose state is fully
exposed by ``getstate()``, and every draw the simulator performs maps to
a deterministic consumption of the generator's 32-bit word stream:

- ``random()`` consumes two words ``a, b`` and returns
  ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
- ``randrange(n)`` (via ``_randbelow``) repeatedly consumes one word,
  keeps its top ``n.bit_length()`` bits, and rejects values ``>= n``.

:class:`MTStream` regenerates that exact word stream by seating the
``getstate()`` tuple (624 key words + position) directly into numpy's
own ``np.random.MT19937`` bit generator — the identical algorithm, so
its bulk ``integers`` fill emits CPython's stream at C speed (~125M
words/s, verified word-for-word in tests). The samplers then replay the
*consumption pattern* of the access patterns in
:mod:`repro.simulator.patterns`:

- :class:`UniformSampler` — ``randrange(n)`` per step. Rejection
  sampling is order-preserving over the word stream, so a batch is just
  ``values[values < n]`` with the consumed-word count tracked.
- :class:`HotColdSampler` — ``random() < hot_access_fraction`` then a
  branch-dependent ``randrange``. Word offsets depend on earlier
  rejections, so the per-offset successor function (``next offset and
  sample value if a draw started here``) is precomputed vectorized and
  the actual chain of offsets is walked in a tight scalar loop.
- :class:`GenericSampler` — fallback for custom patterns: calls
  ``next_file()`` per step (still batched into an array, not fast but
  always bit-identical).

Every sampler's output for any call sequence ``take(k1), take(k2), ...``
equals the first ``k1+k2+...`` results of the corresponding pattern's
``next_file()`` stream — asserted in tests/test_fast_simulator.py.
"""

from __future__ import annotations

import random

import numpy as np

_N = 624
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53, the constant random() uses
_FULL_RANGE = 1 << 32


class MTStream:
    """The 32-bit output word stream of ``random.Random(seed)``.

    Words come out in the exact order ``genrand_uint32`` would produce
    them, so any consumer that mirrors CPython's draw logic gets
    bit-identical results. CPython's state tuple is seated directly into
    ``np.random.MT19937`` (the same twist and tempering); a full-range
    ``integers`` fill then consumes exactly one untouched word per
    output, and the generator position carries across calls.
    """

    def __init__(self, seed: int) -> None:
        version, internal, _gauss = random.Random(seed).getstate()
        if version != 3:  # pragma: no cover - stable since Python 2.6
            raise RuntimeError(f"unsupported random.Random state version {version}")
        bg = np.random.MT19937()
        bg.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.array(internal[:_N], dtype=np.uint32),
                "pos": internal[_N],
            },
        }
        self._gen = np.random.Generator(bg)

    def words(self, count: int) -> "np.ndarray":
        """The next ``count`` output words as a ``uint32`` array."""
        return self._gen.integers(0, _FULL_RANGE, size=count, dtype=np.uint32)


class _BufferedWords:
    """A growable prefix of a word stream with a consumed-position cursor."""

    def __init__(self, seed: int) -> None:
        self._stream = MTStream(seed)
        self._words = np.empty(0, dtype=np.uint32)
        self._pos = 0

    @property
    def pending(self) -> "np.ndarray":
        return self._words[self._pos :]

    def ensure(self, count: int) -> None:
        """Grow the unconsumed window to at least ``count`` words."""
        short = count - (len(self._words) - self._pos)
        if short > 0:
            fresh = self._stream.words(max(short, 512))
            self._words = np.concatenate([self._words[self._pos :], fresh])
            self._pos = 0

    def consume(self, count: int) -> None:
        self._pos += count


class UniformSampler:
    """Batched, bit-exact ``randrange(num_files)`` (uniform pattern)."""

    def __init__(self, num_files: int, seed: int) -> None:
        if num_files < 1:
            raise ValueError("need at least one file")
        if num_files.bit_length() > 32:
            raise ValueError("population too large for 32-bit draws")
        self._n = num_files
        self._shift = np.uint32(32 - num_files.bit_length())
        # expected words per draw: 2**bit_length / n, always in [1, 2)
        self._per = float(1 << num_files.bit_length()) / num_files
        self._buf = _BufferedWords(seed)

    def take(self, count: int) -> "np.ndarray":
        """The next ``count`` file indices, as an int64 array."""
        n = self._n
        out = np.empty(count, dtype=np.int64)
        if count == 0:
            return out
        got = 0
        self._buf.ensure(int(count * self._per * 1.02) + 16)
        while True:
            vals = self._buf.pending >> self._shift
            hits = np.flatnonzero(vals < n)
            need = count - got
            if len(hits) >= need:
                out[got:] = vals[hits[:need]]
                self._buf.consume(int(hits[need - 1]) + 1)
                return out
            # everything pending after the last acceptance is a rejection,
            # so the whole window is consumed before refilling
            out[got : got + len(hits)] = vals[hits]
            got += len(hits)
            self._buf.consume(len(vals))
            self._buf.ensure(int((count - got) * self._per * 1.1) + 16)


class HotColdSampler:
    """Batched, bit-exact hot-and-cold draws.

    Per step the pattern consumes two words for ``random()`` and then a
    rejection-sampled ``randrange`` whose modulus depends on the branch.
    For a window of pending words this precomputes, for every offset
    ``o`` at which a step could start, the offset the *next* step starts
    at (rejection runs resolved with a vectorized next-acceptance index,
    a reverse ``minimum.accumulate``). The inherently sequential chain of
    start offsets is then walked with pointer doubling: composing the
    successor table with itself four times yields a table that jumps 16
    samples at once, so the scalar walk only touches every 16th offset
    and the intermediate ones are reconstructed by vectorized gathers.
    Sample values never enter the walk at all — they are gathered in one
    shot from the accepted word of each collected start offset.
    """

    _STRIDE = 16  # samples per composed pointer-doubling jump

    def __init__(
        self,
        num_files: int,
        hot_fraction: float,
        hot_access_fraction: float,
        seed: int,
    ) -> None:
        if num_files < 2:
            raise ValueError("need at least two files for two groups")
        self._num_hot = max(1, round(num_files * hot_fraction))
        self._num_cold = num_files - self._num_hot
        if self._num_cold < 1:
            raise ValueError("hot_fraction leaves no cold files")
        self._haf = hot_access_fraction
        self._sh_hot = np.uint32(32 - self._num_hot.bit_length())
        self._sh_cold = np.uint32(32 - self._num_cold.bit_length())
        self._buf = _BufferedWords(seed)
        self._idx = np.empty(0, dtype=np.int32)

    def _estimate(self, count: int) -> int:
        nh, nc = self._num_hot, self._num_cold
        per_hot = (1 << nh.bit_length()) / nh
        per_cold = (1 << nc.bit_length()) / nc
        per = 2.0 + self._haf * per_hot + (1.0 - self._haf) * per_cold
        return int(count * per * 1.2) + 64

    # successor arrays cost ~15 temporaries of 8 bytes/word; chunking
    # large requests keeps the working set bounded (and window-sized
    # requests, the simulator's usage, pass through untouched)
    _CHUNK = 1 << 16

    def take(self, count: int) -> "np.ndarray":
        if count <= self._CHUNK:
            return self._take_chunk(count)
        parts = []
        left = count
        while left > 0:
            parts.append(self._take_chunk(min(left, self._CHUNK)))
            left -= self._CHUNK
        return np.concatenate(parts)

    def _take_chunk(self, count: int) -> "np.ndarray":
        out = np.empty(count, dtype=np.int64)
        got = 0
        offset = 0  # position within the pending window
        stride = self._STRIDE
        self._buf.ensure(self._estimate(count))
        while got < count:
            w = self._buf.pending
            m = len(w)
            hv, cv, hb, j1 = self._successors(w, m)
            sent = m + 3
            # pointer doubling: j2 jumps 2 samples, ..., j16 jumps 16;
            # the sentinel self-loop survives every composition (take is
            # measurably faster than fancy indexing for this gather)
            j2 = j1.take(j1)
            j4 = j2.take(j2)
            j8 = j4.take(j4)
            j16 = j8.take(j8)
            need = count - got
            o = offset
            anchors: list[int] = []
            jump = j16.item
            append = anchors.append
            while need >= stride:
                nx = jump(o)
                if nx == sent:
                    break
                append(o)
                o = nx
                need -= stride
            # the tail (and any run that outgrew the window) walks the
            # single-sample table until it hits the sentinel
            tail: list[int] = []
            jump1 = j1.item
            append = tail.append
            while need > 0:
                nx = jump1(o)
                if nx == sent:
                    break
                append(o)
                o = nx
                need -= 1
            if anchors:
                s = np.array(anchors, dtype=np.int64)
                for jt in (j8, j4, j2, j1):
                    d = np.empty(2 * len(s), dtype=np.int64)
                    d[0::2] = s
                    d[1::2] = jt[s]
                    s = d
                if tail:
                    s = np.concatenate([s, np.array(tail, dtype=np.int64)])
            elif tail:
                s = np.array(tail, dtype=np.int64)
            else:
                s = None
            if s is not None:
                # value of the sample starting at o: the accepted word is
                # j1[o] - 1, interpreted under the branch taken at o
                e = j1[s]
                e -= 1
                vals = np.where(hb[s], hv[e], cv[e] + np.int64(self._num_hot))
                out[got : got + len(s)] = vals
                got += len(s)
            offset = o
            if got < count:
                # ran off the window tail mid-chain: grow it and rebuild
                # (already-taken samples stay valid — the prefix is fixed)
                self._buf.ensure(m + self._estimate(count - got))
        self._buf.consume(offset)
        return out

    def _successors(self, w: "np.ndarray", m: int):
        """``(hot_vals, cold_vals, hot_branch, next_start)`` per offset.

        ``next_start[o]`` is the offset the following step starts at if a
        step starts at ``o``; entries whose draw cannot be resolved
        inside the window (and every out-of-range index up to the
        sentinel itself) map to the sentinel ``m + 3``, which self-loops
        under composition.
        """
        nh, nc = self._num_hot, self._num_cold
        hv = w >> self._sh_hot
        cv = w >> self._sh_cold
        if m > len(self._idx):
            self._idx = np.arange(max(m, 2 * len(self._idx)), dtype=np.int32)
        idx = self._idx[:m]
        big = np.int32(m + 2)
        # next index >= j whose draw is accepted, per modulus
        nxt_hot = np.minimum.accumulate(np.where(hv < nh, idx, big)[::-1])[::-1]
        nxt_cold = np.minimum.accumulate(np.where(cv < nc, idx, big)[::-1])[::-1]
        # random() over word pairs (j, j+1), exactly CPython's arithmetic
        u = (w[:-1] >> np.uint32(5)).astype(np.float64) * 67108864.0
        u += (w[1:] >> np.uint32(6)).astype(np.float64)
        u *= _INV_2_53
        hb = u < self._haf  # branch for a step starting at each offset
        j1 = np.full(m + 4, m + 3, dtype=np.int32)
        if m >= 3:
            # accepted index + 1; unresolved entries land exactly on the
            # sentinel (big + 1 == m + 3)
            j1[: m - 2] = np.where(hb[: m - 2], nxt_hot[2:], nxt_cold[2:]) + 1
        return hv, cv, hb, j1


class GenericSampler:
    """Fallback for arbitrary patterns: per-step calls, batched output."""

    def __init__(self, pattern, num_files: int, seed: int) -> None:
        self._pattern = pattern
        pattern.bind(num_files, random.Random(seed))

    def take(self, count: int) -> "np.ndarray":
        next_file = self._pattern.next_file
        return np.fromiter(
            (next_file() for _ in range(count)), dtype=np.int64, count=count
        )


def make_sampler(pattern, num_files: int, seed: int):
    """A batched sampler replicating ``pattern`` bound to ``Random(seed)``.

    Exact-type matches get the vectorized implementation; subclasses (or
    any custom pattern) fall back to :class:`GenericSampler`, which is
    slower but equally bit-identical.
    """
    from repro.simulator.patterns import HotColdPattern, UniformPattern

    if type(pattern) is UniformPattern:
        return UniformSampler(num_files, seed)
    if type(pattern) is HotColdPattern:
        return HotColdSampler(
            num_files, pattern.hot_fraction, pattern.hot_access_fraction, seed
        )
    return GenericSampler(pattern, num_files, seed)
