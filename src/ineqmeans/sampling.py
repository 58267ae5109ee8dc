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
on a pool of four words) and PCG64's seeding and output (128-bit state as
two uint64 words) vectorised over the indices, so no ``SeedSequence``,
``PCG64`` or ``Generator`` is built per trial and every word equals
``spawn_rng(seed, i).bit_generator.random_raw()`` bit for bit.
``numpy.random`` is imported on first use, not with this module: the CLI
loads it only for the commands that sample.
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


# PCG64, numpy's default bit generator: a 128-bit LCG, state <- state * MULT +
# inc modulo 2**128, whose output is the XSL-RR permutation of the new state.
# 128-bit values are (high, low) uint64 words, which wrap modulo 2**64.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _words128(values) -> tuple:
    values = [v % 2**128 for v in values]
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & 2**64 - 1 for v in values], dtype=np.uint64))


@lru_cache(maxsize=None)
def _pcg_jumps(n: int) -> tuple:
    """MULT**(k+1) and 1 + MULT + ... + MULT**k for k = 1..n: numpy seeds
    PCG64 from state 0 by a step, + the initial state and a step, so its
    k-th output state is MULT**(k+1) (seed + inc) + (1 + ... + MULT**k) inc."""
    powers = [_PCG_MULT ** j for j in range(n + 2)]
    return (_words128(powers[2:]),
            _words128([sum(powers[:k + 1]) for k in range(1, n + 1)]))


def _mul128(x: tuple, c: tuple) -> tuple:
    """x * c modulo 2**128 (broadcasting), the high word of the low words'
    product from their 32-bit halves."""
    (x_hi, x_lo), (c_hi, c_lo) = x, c
    x0, x1 = x_lo & _LOW32, x_lo >> _SHIFT32
    c0, c1 = c_lo & _LOW32, c_lo >> _SHIFT32
    p01, p10 = x0 * c1, x1 * c0
    mid = ((x0 * c0) >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    carried = x1 * c1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return carried + x_hi * c_lo + x_lo * c_hi, x_lo * c_lo


def _add128(x: tuple, y: tuple) -> tuple:
    low = x[1] + y[1]
    return x[0] + y[0] + (low < x[1]).astype(np.uint64), low


def _pcg64_raw(state: np.ndarray, n: int) -> np.ndarray:
    """The first n raw outputs (rows, n) of numpy's PCG64 built from each
    row of state words (rows, 4), ``SeedSequence.generate_state(4, uint64)``:
    ``pcg64_set_seed`` takes the initial state from words 0-1 and the stream
    from words 2-3, high word first, and inc = 2 stream + 1.  All n states
    come at once from the jumps (``_pcg_jumps``)."""
    seed_hi, seed_lo, seq_hi, seq_lo = (w[:, None] for w in state.T)
    one = np.uint64(1)
    inc = (seq_hi << one) | (seq_lo >> np.uint64(63)), (seq_lo << one) | one
    powers, sums = _pcg_jumps(n)
    hi, lo = _add128(_mul128(_add128((seed_hi, seed_lo), inc), powers), _mul128(inc, sums))
    mixed, turn = hi ^ lo, hi >> np.uint64(58)
    return (mixed >> turn) | (mixed << ((np.uint64(64) - turn) & np.uint64(63)))


def spawn_raw(seed: int, start: int, stop: int) -> np.ndarray:
    """The first eight raw 64-bit outputs of the streams spawn_rng(seed, i)
    for i in start..stop-1: row i - start equals
    ``spawn_rng(seed, i).bit_generator.random_raw(8)`` bit for bit."""
    seed = _nonnegative_int(seed, "seed")
    start = _nonnegative_int(start, "start")
    stop = max(_nonnegative_int(stop, "stop"), start)
    split = max(start, min(stop, 1 << 32))  # from 2**32 on an index is two words
    index = np.arange(start, split, dtype=np.uint64) if split > start else np.zeros(0, np.uint64)
    state = _seed_state(seed, index)
    if stop > split:
        from numpy.random import SeedSequence
        state = np.concatenate([state] + [SeedSequence((seed, i)).generate_state(4, np.uint64)[None]
                                          for i in range(split, stop)])
    return _pcg64_raw(state, 8)
