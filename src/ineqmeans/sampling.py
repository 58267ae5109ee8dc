"""Seeded random sampling used by every randomized check.

The generator is numpy's PCG64 (O'Neill's permuted congruential generator,
128-bit state, 64-bit output).  Every draw reads its raw 64-bit words, which
numpy's NEP 19 keeps stable across versions (``Generator`` methods get no
such promise), through numpy's own readings: ``_unit``, a double
``(w >> 11) * 2**-53`` per word, and ``_lemire``, an integer in [0, n) per
32-bit half, low half first.  Magnitudes are log-uniform over [1e-3, 1e3]
unless a caller overrides the range.

Trial ``i`` of a seeded search is defined by the raw words of its stream
``spawn_rng(seed, i)``, a PCG64 seeded by ``SeedSequence((seed, i))`` (the
comparator's layout: ``integral._draw_block``), so a witness ``(seed, i)``
reproduces alone.  ``spawn_raw`` gives the first eight words of a range of
trials at once: it runs the SeedSequence hash (32-bit ``hashmix``/``mix``
on a pool of four words) vectorised over the indices and hands each row's
state to numpy's own PCG64, so no ``SeedSequence`` or ``Generator`` is built
per trial and every word equals ``spawn_rng(seed, i).bit_generator.random_raw()``
bit for bit.  ``numpy.random`` is imported on first use, not with this
module: the CLI loads it only for the commands that sample.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .errors import ParameterError

SAMPLE_LO = 1e-3
SAMPLE_HI = 1e3


def _nonnegative_int(value, name: str) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return value


def make_rng(seed: int) -> np.random.Generator:
    """Build the package's reference generator for a nonnegative seed."""
    return np.random.Generator(np.random.PCG64(_nonnegative_int(seed, "seed")))


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial child generator (independent of scheduling)."""
    entropy = (_nonnegative_int(seed, "seed"), _nonnegative_int(index, "trial index"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def log_uniform(rng: np.random.Generator, lo: float = SAMPLE_LO, hi: float = SAMPLE_HI,
                size=None) -> np.ndarray:
    """Log-uniform samples in [lo, hi]: exp(uniform(ln lo, ln hi)) on raw words."""
    low = np.log(lo)
    return np.exp(low + (np.log(hi) - low) * _unit(rng.bit_generator.random_raw(size)))


def _unit(words) -> np.ndarray:
    """Doubles in [0, 1) from raw 64-bit words: their top 53 bits times 2**-53."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0 ** -53


def _lemire(draws: np.ndarray, n: int) -> tuple:
    """Integers in [0, n) from 32-bit draws, by Lemire's multiply-shift as
    numpy's ``integers(0, n)`` does it: the values, and where numpy rejects
    the draw and takes the next one."""
    m = draws * np.uint64(n)
    return (m >> np.uint64(32)).astype(np.int64), (m & np.uint64(_MASK32)) < (2**32 - n) % n


# ---------------------------------------------------------------------------
# raw words of many spawn_rng streams at once
# ---------------------------------------------------------------------------

# numpy's SeedSequence hash (bit_generator.pyx): the k-th hashmix call xors
# with INIT * MULT**k and multiplies by INIT * MULT**(k + 1), modulo 2**32
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # drawing state words from the pool
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, rows: int) -> np.ndarray:
    """Hash calls k..k+rows-1, one per row of ``value`` (broadcast if 1-D)."""
    value = (value ^ consts[k:k + rows]) * consts[k + 1:k + rows + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _seed_state(seed: int, index: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for each
    i < 2**32 of ``index``, as an (n, 4) array."""
    entropy = []
    while True:  # the seed's little-endian 32-bit words, at least one
        entropy.append(np.full(len(index), seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(index.astype(np.uint32))
    extra = max(len(entropy) - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * extra)
    pool = np.zeros((_POOL_SIZE, len(index)), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, consts, 0, _POOL_SIZE)
    k = _POOL_SIZE
    # every pool word into every other one; a source row is not changed by
    # its own round, so its three hash calls run as one (3, n) operation
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, k, _POOL_SIZE - 1))
        k += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:  # entropy past the pool size (seeds >= 2**96)
        pool = _mix(pool, _hashmix(word, consts, k, _POOL_SIZE))
        k += _POOL_SIZE
    words = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 8), 0, 8)
    words = words.astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | (words[1::2] << np.uint64(32))).T)


class _StateWords:
    """A numpy ``ISeedSequence`` (registered on first use) that hands a bit
    generator the state words it was built with."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def spawn_raw(seed: int, start: int, stop: int) -> np.ndarray:
    """The first eight raw 64-bit outputs of the streams spawn_rng(seed, i)
    for i in start..stop-1: row i - start equals
    ``spawn_rng(seed, i).bit_generator.random_raw(8)`` bit for bit."""
    from numpy.random import PCG64, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    seed = _nonnegative_int(seed, "seed")
    start = _nonnegative_int(start, "start")
    stop = max(_nonnegative_int(stop, "stop"), start)
    ISeedSequence.register(_StateWords)
    split = max(start, min(stop, 1 << 32))  # from 2**32 on an index is two words
    index = np.arange(start, split, dtype=np.uint64) if split > start else np.zeros(0, np.uint64)
    state = _seed_state(seed, index)
    wide = [SeedSequence((seed, i)).generate_state(4, np.uint64) for i in range(split, stop)]
    if wide:
        state = np.concatenate([state, np.stack(wide)])
    out = np.empty((stop - start, 8), dtype=np.uint64)
    for row, s in zip(out, state):
        row[:] = PCG64(_StateWords(s)).random_raw(8)
    return out
