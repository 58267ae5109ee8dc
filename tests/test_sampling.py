"""The seeded samplers: raw stream words against numpy's own generators, the
comparator's raw-word trial reading against the Generator-method reading of
the same streams, and seed validation.

The library reads numpy's stable raw stream only (NEP 19); the Generator
methods that read the same words today are kept here, as the reference the
raw-word reading is tested against, and as the samplers other tests use.
"""

import ast
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

from ineqmeans import ParameterError, integral, sampling
from ineqmeans.integral import _KIND_FAMILIES, _catalog_member, _draw_block
from ineqmeans.sampling import _lemire, log_uniform, make_rng, spawn_raw, spawn_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _draw_member(rng) -> tuple:
    # positive increasing catalog member: its kind, then three coefficients
    # log-uniform in [0.1, 10]
    return int(rng.integers(0, len(_KIND_FAMILIES))), 10.0 ** rng.uniform(-1.0, 1.0, size=3)


def _sample_function(rng):
    """The next catalog member drawn from ``rng`` by Generator methods."""
    return _catalog_member(*_draw_member(rng))


def _draw_trial(rng) -> tuple:
    # f's and g's (kind, coefficients), then the interval index
    return _draw_member(rng), _draw_member(rng), int(rng.integers(0, 3))


def _sample_trials(seed: int, start: int, stop: int) -> tuple:
    """Kinds (2, n), coefficients (2, n, 3) and interval indices (n,) of
    trials start..stop-1, drawn by Generator methods from spawn_rng(seed, i)."""
    n = stop - start
    kinds = np.empty((2, n), dtype=np.int64)
    coeffs = np.empty((2, n, 3))
    intervals = np.empty(n, dtype=np.int64)
    for row in range(n):
        f, g, intervals[row] = _draw_trial(spawn_rng(seed, start + row))
        (kinds[0, row], coeffs[0, row]), (kinds[1, row], coeffs[1, row]) = f, g
    return kinds, coeffs, intervals


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**100 + 12345])
@pytest.mark.parametrize("start", [0, 5, 2**31])
def test_spawn_raw_equals_spawn_rng_words(seed, start):
    # seeds of one to four 32-bit words, and 2**100 + 12345 past the pool size
    got = spawn_raw(seed, start, start + 9)
    want = [spawn_rng(seed, i).bit_generator.random_raw(8) for i in range(start, start + 9)]
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.stack(want))


def test_spawn_raw_across_two_word_indices_and_empty_ranges():
    # from index 2**32 on the index is two entropy words
    start = 2**32 - 2
    want = [spawn_rng(3, i).bit_generator.random_raw(8) for i in range(start, start + 4)]
    assert np.array_equal(spawn_raw(3, start, start + 4), np.stack(want))
    assert spawn_raw(3, 7, 7).shape == (0, 8)
    assert spawn_raw(3, 2**70, 2**70).shape == (0, 8)


@pytest.mark.parametrize("seed", [1, 2, 42, 2**40 + 3])
def test_block_draws_equal_sample_function_draws(seed):
    trials = 10_000
    kinds, coeffs, intervals = _draw_block(seed, 0, trials)
    for i in range(trials):
        rng = spawn_rng(seed, i)
        assert _catalog_member(kinds[0, i], coeffs[0, i]) == _sample_function(rng), i
        assert _catalog_member(kinds[1, i], coeffs[1, i]) == _sample_function(rng), i
        assert intervals[i] == rng.integers(0, 3), i
    # and as arrays, the per-trial path bit for bit
    k, c, j = _sample_trials(seed, 9000, 9100)
    assert np.array_equal(kinds[:, 9000:9100], k)
    assert np.array_equal(coeffs[:, 9000:9100], c)
    assert np.array_equal(intervals[9000:9100], j)


@pytest.mark.parametrize("n", [3, 4, 5, 1000, 2**31 + 1, 2**32 - 5])
def test_lemire_matches_generator_integers(n):
    # integers(0, n) draws 32-bit halves of the raw words, low half first;
    # a rejected half is replaced by the next one (about half of them for
    # n = 2**31 + 1)
    draws = 400
    rng = np.random.Generator(np.random.PCG64(77))
    want = [int(rng.integers(0, n)) for _ in range(draws)]
    words = np.random.PCG64(77).random_raw(2 * draws)
    halves = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=1).ravel()
    values, rejected = _lemire(halves, n)
    got = [int(v) for v, r in zip(values, rejected) if not r][:draws]
    assert got == want


def test_lemire_rejects_only_below_its_threshold():
    # numpy redraws when (draw * n) mod 2**32 < (2**32 - n) mod n: for n = 3
    # that is the draw 0 alone; 0xAAAAAAAB = 3**-1 mod 2**32 leaves 1
    values, rejected = _lemire(np.array([0, 0xAAAAAAAB, 2**32 - 1], dtype=np.uint64), 3)
    assert rejected.tolist() == [True, False, False]
    assert values.tolist()[1:] == [2, 2]


def test_rejected_interval_draw_reads_on_through_its_stream(monkeypatch):
    # a low half 0 in word 7 is the one interval draw numpy rejects; the
    # interval is then integers(0, 3)'s next draw on the same stream, which
    # the unmodified stream reaches as the Generator's second integers(0, 3)
    words = spawn_raw(5, 0, 8)
    crafted = words.copy()
    crafted[3, 7] &= ~np.uint64(0xFFFFFFFF)
    assert _lemire(crafted[:, 7] & np.uint64(0xFFFFFFFF), 3)[1].tolist() == [
        False, False, False, True, False, False, False, False]
    monkeypatch.setattr(integral, "spawn_raw", lambda seed, start, stop: crafted[start:stop])
    streams = []

    def traced_spawn_rng(seed, index):
        streams.append((seed, index))
        return spawn_rng(seed, index)

    monkeypatch.setattr(integral, "spawn_rng", traced_spawn_rng)
    got = _draw_block(5, 0, 8)
    assert streams == [(5, 3)]
    want = _sample_trials(5, 0, 8)
    rng = spawn_rng(5, 3)
    _draw_trial(rng)
    want[2][3] = rng.integers(0, 3)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_read_on_equals_the_generators_next_interval_draw():
    # read on from a rejected word 7 of 2000 trials: the same value as the
    # Generator's interval draw after the trial's own (accepted) one
    for i in range(2000):
        rng = spawn_rng(11, i)
        _draw_trial(rng)
        assert integral._read_on(11, i, 3) == rng.integers(0, 3), i


def test_read_on_skips_rejected_halves_in_numpys_order(monkeypatch):
    # the high half of word 7, then word 8 low half first: with n = 2**31 + 1
    # about half the draws are rejected, so several halves are read
    class Bits:
        def __init__(self, seed):
            self.bit_generator = np.random.PCG64(seed)

    monkeypatch.setattr(integral, "spawn_rng", lambda seed, index: Bits(seed))
    for seed in range(40):
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.bit_generator.random_raw(7)
        rng.integers(0, 2)  # the low half of word 7, taken as rejected
        assert integral._read_on(seed, 0, 2**31 + 1) == rng.integers(0, 2**31 + 1), seed


@pytest.mark.parametrize("seed", [0, 7, 2024, 2**40 + 3])
@pytest.mark.parametrize("size", [None, 0, 1, 5, (3, 4), 1000])
def test_log_uniform_is_generator_uniform_bit_for_bit(seed, size):
    # after a 32-bit draw has left a buffered half, as the tests' samplers do
    for lo, hi in [(1e-3, 1e3), (1e-2, 1e2), (0.05, 20.0), (1e-300, 1e300)]:
        mine, reference = make_rng(seed), make_rng(seed)
        for rng in (mine, reference):
            rng.integers(0, 5)
        got = log_uniform(mine, lo, hi, size=size)
        want = np.exp(reference.uniform(np.log(lo), np.log(hi), size=size))
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert mine.integers(0, 2**40) == reference.integers(0, 2**40)


GENERATOR_DRAWS = {"integers", "uniform", "random", "normal", "choice"}


def test_no_generator_draw_method_is_called_in_the_package():
    # the package reads raw words only; a Generator draw would be a second
    # sampler on a stream numpy does not keep stable
    calls = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "ineqmeans", "**", "*.py"),
                                 recursive=True)):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        calls += [f"{os.path.basename(path)}:{node.lineno} {node.func.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in GENERATOR_DRAWS]
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda: make_rng(-1), lambda: make_rng(1.5), lambda: spawn_rng(-1, 0),
    lambda: spawn_rng(0, -1), lambda: spawn_raw(-1, 0, 4), lambda: spawn_raw(0, -2, 4),
    lambda: spawn_raw(0, 0, -1), lambda: sampling.spawn_raw("1", 0, 4)])
def test_negative_or_non_integer_seeds_are_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()


def test_cli_import_leaves_numpy_random_unloaded():
    code = "import sys, ineqmeans.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
