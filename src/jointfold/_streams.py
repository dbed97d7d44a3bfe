"""numpy's spawned PCG64 streams, as arrays: one row per draw.

Row ``r`` of :class:`Streams` yields the uniforms that
``Generator(PCG64(SeedSequence(seed, spawn_key=(keys[r],)))).random()``
yields, bit for bit, and all rows are seeded and stepped together:

- ``SeedSequence`` hashes the entropy words (the seed's 32-bit words, padded
  with zeros to the pool size, then the spawn key's words) into a pool of
  four 32-bit words and expands the pool into the generator's seed.  Its
  hash constants advance by call count, not by data, so the same code hashes
  a Python int (the seed words, shared by all rows) or an array of per-row
  words.  Products of 32-bit words are taken in uint64 and masked.
- PCG64 is a 128-bit LCG, ``x <- x * _MUL + inc``, with the XSL-RR output
  (O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient Statistically
  Good Algorithms for Random Number Generation").  Each 128-bit value is held
  in two uint64 arrays, ``(hi, lo)``.  ``t`` steps at once are one affine map,
  ``x_t = _MUL**t * x + (1 + _MUL + ... + _MUL**(t-1)) * inc``, so a refill
  steps once and then doubles the block of states drawn so far, jumping it
  by its length: five broadcasts draw ``_UNIFORMS`` = 32 values per row.
- ``Generator.random()`` is ``(next64 >> 11) * 2**-53``.

The uniforms are drawn ahead, ``_UNIFORMS`` per row (see
:meth:`Streams.take` for the refills).
"""

from __future__ import annotations

import operator

import numpy as np

# uniforms held drawn ahead per row
_UNIFORMS = 32
# rows topped up at once
_CHUNK = 256

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier (PCG_DEFAULT_MULTIPLIER_128)
_MUL = (2549297995355413924 << 64) | 4865540595714422341


def _words(x: int) -> list[int]:
    """The little-endian 32-bit words of ``x >= 0``; ``[0]`` for 0.

    Raises:
        TypeError: x is not an integer (a numpy integer is taken as a
            Python int).
        ValueError: x < 0, as in ``SeedSequence``.
    """
    x = operator.index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    out = []
    while x:
        out.append(x & _M32)
        x >>= 32
    return out or [0]


class _Hash:
    """SeedSequence's ``hashmix``: the constant advances on every call."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _M32
        value = (value * self.const) & _M32
        return value ^ (value >> 16)


def _mix(x, y):
    x = (_MIX_L * x - _MIX_R * y) & _M32
    return x ^ (x >> 16)


def _seed_words(seed: int, key_words: list[np.ndarray]) -> list:
    """``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)``
    for every row of ``key_words``, the key's 32-bit words (uint64 arrays).
    """
    run = _words(seed)
    entropy = run + [0] * (_POOL - len(run)) + key_words
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    expand = _Hash(_INIT_B, _MULT_B)
    state = [expand(pool[i % _POOL]) for i in range(8)]
    return [state[2 * i] | (state[2 * i + 1] << 32) for i in range(4)]


def _split(x: int) -> tuple[np.uint64, np.uint64]:
    return np.uint64(x >> 64), np.uint64(x & _M64)


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products of uint64 arrays."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _affine(mul, add, hi, lo, inc_hi, inc_lo):
    """``mul * (hi, lo) + add * (inc_hi, inc_lo)`` mod 2**128; ``mul`` and
    ``add`` are ``(hi, lo)`` pairs of uint64 arrays or scalars."""
    a = mul[1] * lo
    b = add[1] * inc_lo
    out_lo = a + b
    out_hi = (
        _mulhi(mul[1], lo) + mul[1] * hi + mul[0] * lo
        + _mulhi(add[1], inc_lo) + add[1] * inc_hi + add[0] * inc_lo
        + (out_lo < a)
    )
    return out_hi, out_lo


def _jumps(t: int) -> list[tuple]:
    """The affine maps of 1, 2, 4, ... steps, as many as doubling one state
    into ``t`` needs, as (hi, lo) pairs of their two terms."""
    mul, add, out = _MUL, 1, []
    while len(out) < max((t - 1).bit_length(), 1):
        out.append((_split(mul), _split(add)))
        mul, add = (mul * mul) & _M128, (add * mul + add) & _M128
    return out


class Streams:
    """Uniforms of ``Generator(PCG64(SeedSequence(seed, spawn_key=(k,))))``
    for every ``k`` of ``keys``, drawn ahead ``_UNIFORMS`` at a time."""

    def __init__(self, seed: int, keys: np.ndarray):
        keys = np.asarray(keys, np.uint64)
        words = np.empty((4, keys.size), np.uint64)
        for wide in (False, True):
            rows = (keys > _M32) == wide
            if rows.any():
                k = keys[rows]
                words[:, rows] = _seed_words(seed, [k & _M32, k >> 32] if wide else [k])
        # pcg64_set_seed: state = (w0, w1), inc = 2 * (w2, w3) + 1; the
        # seeding steps the LCG from 0, adds the state and steps again
        self.inc_hi = (words[2] << 1) | (words[3] >> 63)
        self.inc_lo = (words[3] << 1) | 1
        lo = self.inc_lo + words[1]
        hi = self.inc_hi + words[0] + (lo < words[1])
        self.hi, self.lo = _affine(_split(_MUL), _split(1), hi, lo, self.inc_hi, self.inc_lo)
        self.jumps = _jumps(_UNIFORMS)
        self.uniforms = np.empty((keys.size, _UNIFORMS))
        self.flat = self.uniforms.reshape(-1)
        # the flat index of each row's next uniform, and of its first
        self.start = np.arange(keys.size) * _UNIFORMS
        self.next = self.start + _UNIFORMS
        self._top_up(np.arange(keys.size))
        self.fresh = _UNIFORMS

    def __len__(self) -> int:
        return self.start.size

    def _states(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The next ``_UNIFORMS`` states of ``rows``, as (hi, lo) arrays:
        one step, then each block of states so far jumped by its length."""
        size = self.uniforms.shape[1]
        hi = np.empty((rows.size, size), np.uint64)
        lo = np.empty_like(hi)
        inc = self.inc_hi[rows, None], self.inc_lo[rows, None]
        mul, add = self.jumps[0]
        hi[:, :1], lo[:, :1] = _affine(mul, add, self.hi[rows, None], self.lo[rows, None], *inc)
        done = 1
        for mul, add in self.jumps:
            step = min(done, size - done)
            hi[:, done:done + step], lo[:, done:done + step] = _affine(
                mul, add, hi[:, :step], lo[:, :step], *inc)
            done += step
        return hi, lo

    def _top_up(self, rows: np.ndarray) -> None:
        """Move the unused uniforms of ``rows`` to the front of their
        buffers and fill the rest with the next values of their streams."""
        # in chunks, which bound the temporaries to ~10 blocks of uniforms
        for start in range(0, rows.size, _CHUNK):
            self._top_up_chunk(rows[start:start + _CHUNK])

    def _top_up_chunk(self, rows: np.ndarray) -> None:
        size = self.uniforms.shape[1]
        used = self.next[rows] - self.start[rows]
        hi, lo = self._states(rows)
        # XSL-RR: rotate hi ^ lo right by the top six bits of the state
        rot = hi >> 58
        x = hi ^ lo
        x = (x >> rot) | (x << ((64 - rot) & 63))
        fresh = (x >> 11) * (1.0 / 9007199254740992.0)
        at = np.arange(rows.size)
        both = np.hstack([self.uniforms[rows], fresh])
        self.uniforms[rows] = both[at[:, None], used[:, None] + np.arange(size)]
        # the state that gave the last fresh value kept
        self.hi[rows], self.lo[rows] = hi[at, used - 1], lo[at, used - 1]
        self.next[rows] = self.start[rows]

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each row of ``rows`` (distinct row indices).

        ``fresh`` counts the takes that no row can run out in, since a take
        moves each row by one.  When it reaches 0 and a row has run out,
        every row that has used at least half of its uniforms is topped up,
        so that the rows, which advance at about the same pace, are not
        refilled a few at a time.
        """
        if not self.fresh:
            size = self.uniforms.shape[1]
            used = self.next - self.start
            if used.max() == size:
                self._top_up(np.flatnonzero(used >= max(size // 2, 1)))
                used = self.next - self.start
            self.fresh = size - int(used.max())
        self.fresh -= 1
        at = self.next[rows]
        self.next[rows] = at + 1
        return self.flat.take(at)
