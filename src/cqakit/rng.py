"""Seeded, splittable random streams.

All randomness in the package flows through numpy's PCG64 generator seeded
via ``SeedSequence``. Streams are derived from a non-negative integer seed
plus an optional tuple of stream ids, so independent substreams (one per
sampled record, per training epoch, ...) are reproducible across platforms
and independent of scheduling order.

:func:`stream_states` computes the PCG64 states of many streams at once,
with numpy's ``SeedSequence`` hash run on ``uint32`` arrays; :func:`streams`
drives one reused generator through them. Both give the states
:func:`make_rng` gives, which the tests check against numpy itself.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash: a pool of four 32-bit words, its hash and mix
# constants and its output hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a PCG64 generator for ``(seed, *stream)``.

    Distinct ``stream`` tuples give statistically independent streams.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


def _words(n: int) -> list[int]:
    """A non-negative int as ``SeedSequence`` reads it: little-endian 32-bit
    words, with 0 giving one word."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _seed_words(seed: int, ids: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, *row]).generate_state(4, np.uint64)`` for each
    row of ``ids``, as an ``(n, 4)`` array: numpy's hash run on ``uint32``
    arrays, one row per lane."""
    n = len(ids)
    entropy = [np.full(n, w, dtype=np.uint32) for w in _words(seed)]
    entropy += list(ids.T.astype(np.uint32))
    const = _INIT_A  # the same for every row, as every row hashes as many words

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # eight output words, paired little-endian into four uint64 words
    const, out = _INIT_B, np.empty((n, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        out[:, i] = value ^ (value >> np.uint32(16))
    return out.astype("<u4").view("<u8").astype(np.uint64)


def stream_states(seed: int, ids) -> Iterator[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``make_rng(seed, *row)`` for each row of ``ids``.

    ``seed`` is an int >= 0 and ``ids`` an ``(n, m)`` array of stream ids,
    each in ``[0, 2**32)``, so that every row hashes as many words. The
    ``SeedSequence`` hash runs over all rows in one pass, at the first
    state asked for; PCG64's 128-bit seeding step then runs per row, on
    Python ints, as the states are taken.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if seed < 0 or ids.ndim != 2 or ids.size and (ids.min() < 0 or ids.max() > _MASK32):
        raise ValueError("stream_states takes a seed >= 0 and an (n, m) array of stream ids in [0, 2**32)")
    for state_hi, state_lo, seq_hi, seq_lo in _seed_words(seed, ids).tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        yield ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128, inc


def streams(seed: int, ids) -> Iterator[np.random.Generator]:
    """For each row of ``ids``, a generator in the state of ``make_rng(seed, *row)``.

    One ``Generator`` is yielded again for every row, its state set from
    :func:`stream_states`; a row's draws must be taken before the next row
    is asked for.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in stream_states(seed, ids):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng
