import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import unpack_word, words_of_length

from selfaffine import BudgetExceededError, pack_word
from selfaffine.symbolic import check_budget


def test_words_of_length_zero_is_single_empty_word():
    assert list(words_of_length(2, 0)) == [()]


def test_words_of_length_lexicographic():
    assert list(words_of_length(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_words_of_length_count_and_extremes():
    words = list(words_of_length(3, 5))
    assert len(words) == 243
    assert words[0] == (0,) * 5
    assert words[-1] == (2,) * 5


def test_words_of_length_streams_lazily():
    stream = words_of_length(2, 10)
    assert iter(stream) is stream  # an iterator, not a materialized list


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        check_budget(2, 5, budget=31)
    assert check_budget(2, 5, budget=32) == 32


@given(st.integers(1, 5), st.integers(0, 80), st.integers(1, 1 << 40))
def test_budget_guard_matches_the_word_count(m, n, budget):
    if m**n > budget:
        with pytest.raises(BudgetExceededError):
            check_budget(m, n, budget)
    else:
        assert check_budget(m, n, budget) == m**n


def test_budget_guard_never_forms_a_huge_power():
    """3^(10^8) takes minutes to form; the guard refuses the length first."""
    script = ("from selfaffine import BudgetExceededError\n"
              "from selfaffine.symbolic import check_budget\n"
              "try:\n    check_budget(3, 10**8, 1 << 24)\n"
              "except BudgetExceededError:\n    raise SystemExit(0)\n"
              "raise SystemExit(1)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, timeout=10)
    assert run.returncode == 0


@pytest.mark.parametrize("m", [2, 3])
def test_enumeration_unique_and_ordered_all_levels(m):
    # hashing proves distinctness, the packed index proves strict lex order
    for n in range(0, 13):
        if m**n <= 30000:
            seen = set()
            for expected_idx, w in enumerate(words_of_length(m, n)):
                assert pack_word(w, m) == expected_idx
                seen.add(w)
            assert len(seen) == m**n
        else:
            count = 0
            first = last = None
            for w in words_of_length(m, n):
                if first is None:
                    first = w
                last = w
                count += 1
            assert count == m**n
            assert first == (0,) * n
            assert last == (m - 1,) * n
            for idx in (0, 1, m**n // 2, m**n - 1):
                assert pack_word(unpack_word(idx, m, n), m) == idx


@given(st.integers(2, 5), st.lists(st.integers(0, 100), min_size=0, max_size=8))
def test_pack_unpack_roundtrip(m, raw):
    w = tuple(s % m for s in raw)
    assert unpack_word(pack_word(w, m), m, len(w)) == w


def test_pack_rejects_bad_symbol():
    with pytest.raises(ValueError):
        pack_word((0, 3), 3)


@pytest.mark.parametrize("n", [-1, -7])
def test_word_count_rejects_negative_length(n):
    with pytest.raises(ValueError, match=f"word length must be nonnegative, got {n}"):
        check_budget(2, n, budget=32)
