"""The seeded samplers: raw stream words against numpy's own generators, the
comparator's block draws against its per-trial draws, and seed validation."""

import os
import subprocess
import sys

import numpy as np
import pytest

from ineqmeans import ChainKind, ParameterError, integral, parse_mean, sampling
from ineqmeans.cli import dispatch
from ineqmeans.errors import ReproducibilityError
from ineqmeans.integral import (_catalog_member, _draw_block, _lemire, _sample_function,
                                _sample_trials, compare_generalizations)
from ineqmeans.sampling import make_rng, spawn_raw, spawn_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_rejected_interval_draw_takes_the_per_trial_path(monkeypatch):
    # a low half 0 in word 7 is the one interval draw numpy rejects
    words = spawn_raw(5, 0, 8)
    crafted = words.copy()
    crafted[3, 7] &= ~np.uint64(0xFFFFFFFF)
    assert _lemire(crafted[:, 7] & np.uint64(0xFFFFFFFF), 3)[1].tolist() == [
        False, False, False, True, False, False, False, False]
    monkeypatch.setattr(integral, "spawn_raw", lambda seed, start, stop: crafted[start:stop])
    calls = []

    def traced_trials(seed, start, stop):
        calls.append((seed, start, stop))
        return _sample_trials(seed, start, stop)

    monkeypatch.setattr(integral, "_sample_trials", traced_trials)
    got = _draw_block(5, 0, 8)
    assert calls == [(5, 3, 4)]
    want = _sample_trials(5, 0, 8)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_witness_that_does_not_rebuild_raises(monkeypatch):
    # the witness is rebuilt through spawn_rng; a stream other than the one
    # the block read is a typed error (exit 3), never a wrong certificate
    monkeypatch.setattr(integral, "spawn_rng", lambda seed, index: spawn_rng(seed + 1, index))
    with pytest.raises(ReproducibilityError):
        compare_generalizations(parse_mean("power:0"), parse_mean("power:2"), 20, 5,
                                ChainKind.MEAN_FORM)
    result = dispatch(["compare", "--a", "power:0", "--b", "power:2", "--trials", "20",
                       "--seed", "5"])
    assert result.exit_code == 3
    assert result.stderr.startswith("error: trial ")


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
