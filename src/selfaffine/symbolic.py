"""Words over a finite alphabet and cylinder indexing.

Finite words are plain tuples of symbol indices.  A word of length k over an
alphabet of m symbols is also addressable as a packed integer in [0, m^k)
(base-m, most significant digit first), so lexicographic order coincides with
numeric order of the packed index.  The potential is constant in the tail,
so no infinite word is ever represented.
"""

from __future__ import annotations

from .errors import BudgetExceededError

Word = tuple[int, ...]

#: Default cap on the number of words enumerated per level.
DEFAULT_WORD_BUDGET = 1 << 24


def check_budget(m: int, n: int, budget: int) -> int:
    """Return m^n, the number of words of length n over m symbols, or raise
    BudgetExceededError if it exceeds the budget.  For m >= 2 a length of at
    least the budget's bit length is refused first (m^n >= 2^n > budget), so
    a huge n never forms m^n."""
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    if m >= 2 and n >= budget.bit_length():
        raise BudgetExceededError(m, n, budget)
    count = m**n
    if count > budget:
        raise BudgetExceededError(m, n, budget)
    return count


def pack_word(w: Word, m: int) -> int:
    """Packed base-m index of w; lexicographic order == numeric order."""
    index = 0
    for s in w:
        if not 0 <= s < m:
            raise ValueError(f"symbol {s} outside alphabet of size {m}")
        index = index * m + s
    return index


def word_str(w: Word, m: int) -> str:
    """Render a word for CSV output (digit string for small alphabets)."""
    if m <= 10:
        return "".join(str(s) for s in w)
    return "-".join(str(s) for s in w)
