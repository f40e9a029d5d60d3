"""Words over a finite alphabet, cylinder indexing, the shift, and the symbolic metric.

Finite words are plain tuples of symbol indices.  A word of length k over an
alphabet of m symbols is also addressable as a packed integer in [0, m^k)
(base-m, most significant digit first), so lexicographic order coincides with
numeric order of the packed index.  The potentials are constant in the tail,
so no infinite word is ever represented.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import BudgetExceededError

Word = tuple[int, ...]

#: Default cap on the number of words enumerated per level.
DEFAULT_WORD_BUDGET = 1 << 24


@dataclass(frozen=True)
class Alphabet:
    """The finite index set; the shift space is the full shift over it."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"alphabet needs at least two symbols, got {self.size}")


def alphabet_size(alphabet: Union[Alphabet, int]) -> int:
    """Accept an Alphabet or a bare symbol count (>= 1 for degenerate systems)."""
    size = alphabet.size if isinstance(alphabet, Alphabet) else int(alphabet)
    if size < 1:
        raise ValueError(f"symbol count must be positive, got {size}")
    return size


def word_count(alphabet: Union[Alphabet, int], n: int) -> int:
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    return alphabet_size(alphabet) ** n


def check_budget(alphabet: Union[Alphabet, int], n: int, budget: int | None = None) -> int:
    """Return #I^n, or raise BudgetExceededError if it exceeds the budget."""
    budget = DEFAULT_WORD_BUDGET if budget is None else budget
    count = word_count(alphabet, n)
    if count > budget:
        raise BudgetExceededError(alphabet_size(alphabet), n, budget)
    return count


def words_of_length(
    alphabet: Union[Alphabet, int], n: int, budget: int | None = None
) -> Iterator[Word]:
    """Stream all words of length n in strict lexicographic order."""
    check_budget(alphabet, n, budget)
    return itertools.product(range(alphabet_size(alphabet)), repeat=n)


def shift_word(w: Word) -> Word:
    """Drop the first symbol."""
    if len(w) < 1:
        raise ValueError("cannot shift the empty word")
    return w[1:]


def concat(i: Word, j: Word) -> Word:
    return tuple(i) + tuple(j)


def word_metric(i: Word, j: Word) -> float:
    """Distance 2^-(k-1) where k is the first disagreement position (1-based)."""
    if len(i) != len(j):
        raise ValueError(f"words must have equal length, got {len(i)} and {len(j)}")
    for k, (a, b) in enumerate(zip(i, j), start=1):
        if a != b:
            return 2.0 ** (-(k - 1))
    return 0.0


def pack_word(w: Word, alphabet: Union[Alphabet, int]) -> int:
    """Packed base-m index of w; lexicographic order == numeric order."""
    m = alphabet_size(alphabet)
    index = 0
    for s in w:
        if not 0 <= s < m:
            raise ValueError(f"symbol {s} outside alphabet of size {m}")
        index = index * m + s
    return index


def unpack_word(index: int, alphabet: Union[Alphabet, int], length: int) -> Word:
    m = alphabet_size(alphabet)
    if not 0 <= index < m**length:
        raise ValueError(f"index {index} out of range for {m}^{length} words")
    symbols = []
    for _ in range(length):
        index, s = divmod(index, m)
        symbols.append(s)
    return tuple(reversed(symbols))


def word_str(w: Word, alphabet: Union[Alphabet, int]) -> str:
    """Render a word for CSV output (digit string for small alphabets)."""
    if alphabet_size(alphabet) <= 10:
        return "".join(str(s) for s in w)
    return "-".join(str(s) for s in w)
