"""The natural cylinder function: a positive word-indexed potential with
certified constants.

The potential assigns every nonempty word ``w`` and parameter ``t >= 0`` a
log-value, the log of the singular value function of the word's matrix
product, and certifies parameter bounds ``0 < s_lo <= s_hi < 1`` controlling
the response to a shift ``t -> t + delta`` (``value = exp(log_value)``):

    value(t, w) * s_lo^(delta * |w|)  <=  value(t + delta, w)
                                      <=  value(t, w) * s_hi^(delta * |w|)

It is constant in the tail: a word's value does not vary over the infinite
words it begins.  A value never exceeds the product of the values of its
parts, ``value(t, ij) <= value(t, i) * value(t, j)`` (submultiplicativity,
the subchain rule).  ``verify_axioms`` spot-checks the parameter bounds and
the subchain rule on random words; constancy in the tail holds by
construction.  On a 1-D system the value is the product
``prod_i |a_{w_i}|^t``, which is multiplicative.  The word budget ``budget``,
the most words a level may have (at most ``MAX_WORD_BUDGET``), and the
partition-sum ``cache`` ride on the potential; they change work, not values,
so ``content_hash`` ignores both.
The potential reads the maps once, at construction, and keeps no reference to
the caller's array, so a later in-place edit of the IFS moves neither its
values nor its ``content_hash``, the key its cached sums are filed under.

The potential is exponents times level features: ``log_value(t, w)`` is the
sum of ``c_k * F_k[w]`` over ``(k, c_k)`` in ``terms(t) = svf_compound_terms(t,
d)``, and ``level_features(k, n)`` is the read-only ``F_k = log(a_1...a_k)`` of
every level-n word in packed-index order, built per ``k`` as the terms ask.
``log_value_block`` takes that sum from zeros, in ``terms`` order, over the
slice of a level that a prefix spans.  ``log_value`` evaluates one word
without building its level, with the same bits as its level entry, and
raises ``LevelOverflowError`` when that value overflows.

The k = d feature is additive: ``log|det A_w|`` is the left-to-right sum from
0 of the per-map ``log|det A_{w_i}|``, taken once with ``slogdet``, so it
never underflows.  A k < d feature is the log of the top singular value of a
product of k-th compounds, from ``top_singular_values`` (closed forms within a
few ulps of LAPACK's a_1 up to 3 x 3, LAPACK above).  The compound products
behind a level take ``C(d, k)^2`` floats per word, so they are formed at most
``PRODUCT_CHUNK_WORDS`` words at a time.  A product that underflows to the
zero matrix has feature ``-inf``, and its level or word raises
``NumericallySingularError``.  The potential keeps the features of each
``(k, n)``, so a level's features are computed once however many parameters
are asked for.  The kept bytes are capped by ``FEATURE_MEMO_BYTES``: the memo
is cleared when storing a level would pass the cap, and a level larger than
the cap is never kept, so it is rebuilt at every parameter.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import LevelOverflowError, NumericallySingularError
from .linalg import (
    compound_matrix,
    rounding_allowance,
    singular_values,
    svf_compound_terms,
    top_singular_values,
    word_matrix,
)
from .symbolic import DEFAULT_WORD_BUDGET, MAX_WORD_BUDGET, Word, pack_word

#: Cap on the bytes of level features a ``NaturalCylinderFunction`` keeps.
FEATURE_MEMO_BYTES = 64 << 20

#: Most words whose compound products are formed at once.
PRODUCT_CHUNK_WORDS = 1 << 12


class NaturalCylinderFunction:
    """Singular-value-function potential of an affine IFS: alpha^t of the word's
    matrix product, which is submultiplicative.  alpha^t is read off the
    maps' determinants and top singular values of compound (exterior-power)
    products, never off the small singular values of the product itself,
    which lose relative accuracy with its condition number, exponential in
    the word length."""

    def __init__(self, maps, budget: int | None = None, cache=None):
        self.budget = DEFAULT_WORD_BUDGET if budget is None else budget
        if not 1 <= self.budget <= MAX_WORD_BUDGET:
            raise ValueError(
                f"word budget must be in 1..{MAX_WORD_BUDGET} (MAX_WORD_BUDGET), got {budget}"
            )
        self.cache = cache
        mats = np.asarray(getattr(maps, "matrices", maps), dtype=float)
        if mats.ndim != 3 or len(mats) < 1 or mats.shape[1] != mats.shape[2]:
            raise ValueError(
                f"expected a nonempty stack of square matrices, got shape {mats.shape}"
            )
        svals = [singular_values(A) for A in mats]  # raises on singular input
        for i, sv in enumerate(svals):
            if sv[0] >= 1.0:
                raise ValueError(f"map {i} is not contractive (largest singular value {sv[0]:g})")
        self.n_symbols = mats.shape[0]
        self.dimension = mats.shape[1]
        self._map_svals = np.array(svals)
        self._log_dets = np.linalg.slogdet(mats)[1]  # the k = d feature of each map
        self._compounds = {
            k: np.stack([compound_matrix(A, k) for A in mats]) for k in range(1, self.dimension)
        }
        self._features: dict[tuple[int, int], np.ndarray] = {}
        self._feature_bytes = 0
        h = hashlib.sha256(b"natural-cylinder-function")
        h.update(np.int64(self.n_symbols).tobytes())
        h.update(np.int64(self.dimension).tobytes())
        h.update(mats.tobytes())
        self._hash = h.hexdigest()

    def terms(self, t: float) -> list[tuple[int, float]]:
        """The exponents ``[(k, c_k(t))]`` of ``log_value = sum_k c_k * F_k``."""
        return svf_compound_terms(t, self.dimension)

    def level_features(self, k: int, n: int) -> np.ndarray:
        """Read-only ``F_k`` of every level-n word, in packed-index order."""
        if (k, n) in self._features:
            return self._features[k, n]
        if k == self.dimension:  # sum_i log|det A_{w_i}|
            feats = np.zeros(1)
            for _ in range(n):
                feats = (feats[:, None] + self._log_dets[None, :]).reshape(-1)
        else:
            feats = self._compound_features(k, n)
        feats.flags.writeable = False
        if feats.nbytes <= FEATURE_MEMO_BYTES:
            if self._feature_bytes + feats.nbytes > FEATURE_MEMO_BYTES:
                self._features.clear()
                self._feature_bytes = 0
            self._features[k, n] = feats
            self._feature_bytes += feats.nbytes
        return feats

    def _compound_features(self, k, n):
        comps = self._compounds[k]

        def extend(prods, levels):
            for _ in range(levels):
                prods = (prods[:, None, :, :] @ comps[None, :, :, :]).reshape(-1, *comps.shape[1:])
            return prods

        inner = 0  # extend each head product by every inner-symbol tail at once
        while inner < n and self.n_symbols ** (inner + 1) <= PRODUCT_CHUNK_WORDS:
            inner += 1
        heads = extend(np.eye(comps.shape[1])[None, :, :], n - inner)
        feats = np.empty((len(heads), self.n_symbols**inner))
        for head, row in zip(heads, feats):
            row[:] = self._log_top(extend(head[None, :, :], inner), k, n)
        return feats.reshape(-1)

    def log_value(self, t: float, w: Word) -> float:
        self._check_word(w)
        out = 0.0  # a Python float: overflow gives -inf with no warning
        for k, coeff in self.terms(t):
            if k == self.dimension:
                feat = 0.0
                for s in w:  # left to right from 0, as in level_features
                    feat += self._log_dets[s]
            else:
                feat = self._log_top(word_matrix(self._compounds[k], w)[None], k, len(w))[0]
            out += coeff * float(feat)
        if not math.isfinite(out):
            raise LevelOverflowError(f"word of length {len(w)} at t = {t!r}: log-value overflows")
        return out

    def log_value_block(self, t: float, prefix: Word, depth: int) -> np.ndarray:
        """Log-values of all words ``prefix + suffix``, suffixes of the given
        depth in lexicographic order; the prefix may be empty."""
        size = self.n_symbols**depth
        start = pack_word(prefix, self.n_symbols) * size  # checks the prefix's symbols
        out = np.zeros(size)
        for k, coeff in self.terms(t):
            out += coeff * self.level_features(k, len(prefix) + depth)[start:start + size]
        return out

    @staticmethod
    def _log_top(prods, k, n):  # log(a_1...a_k) of the words of level n
        with np.errstate(divide="ignore"):
            feats = np.log(top_singular_values(prods))
        if not np.all(np.isfinite(feats)):
            raise NumericallySingularError(
                f"level {n}: the product of the top {k} singular value(s) "
                "of some word matrix underflows double precision"
            )
        return feats

    def _check_word(self, w: Word) -> None:
        if len(w) < 1:
            raise ValueError("cylinder functions are defined on nonempty words")
        for s in w:
            if not 0 <= s < self.n_symbols:
                raise ValueError(f"invalid symbol {s} for alphabet of size {self.n_symbols}")

    def constants(self) -> tuple[float, float]:
        """Certified (s_lo, s_hi)."""
        return float(self._map_svals[:, -1].min()), float(self._map_svals[:, 0].max())

    def content_hash(self) -> str:
        return self._hash


@dataclass
class AxiomReport:
    """Worst signed slack of each sampled check, in log scale less its rounding
    allowance: the subchain rule and the two-sided parameter bounds.  A value
    <= 0 means the check held on every sample.  The tail axiom holds by
    construction, since the potential is constant in the tail, so it is not sampled."""

    worst_subchain_violation: float
    worst_param_violation: float

    def max_slack(self) -> float:
        """The worst slack, at least 0."""
        return max(0.0, self.worst_subchain_violation, self.worst_param_violation)

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_slack() <= tol


def verify_axioms(
    cf: NaturalCylinderFunction,
    t_grid,
    n_max: int = 8,
    samples: int = 1000,
    seed: int = 0,
) -> AxiomReport:
    """Property-check the subchain rule and the parameter bounds on random
    words.

    Per sample: a random word, a random split point, a parameter from the
    grid, and a parameter increment taken from the grid spacing (0.25 for a
    one-point grid).  The bounds are checked at the increment actually
    evaluated, ``(t0 + delta) - t0``, which rounding may shrink at large
    ``t0``.  Each slack is less the ``rounding_allowance`` of its terms.  All
    samples are drawn in order from one ``np.random.default_rng(seed)``.  A
    word log-value or a slack that overflows raises ``LevelOverflowError``.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly ascending")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")

    worst_subchain = -math.inf
    worst_param = -math.inf
    log_lo, log_hi = (math.log(s) for s in cf.constants())

    rng = np.random.default_rng(seed)
    for _ in range(samples):
        length = int(rng.integers(2, n_max + 1))
        w = tuple(rng.integers(0, cf.n_symbols, size=length))
        j = int(rng.integers(1, length))
        t = t_grid[int(rng.integers(0, len(t_grid)))]

        # subchain rule on the split w = w[:j] + w[j:]
        whole, head, tail = cf.log_value(t, w), cf.log_value(t, w[:j]), cf.log_value(t, w[j:])
        subchain = whole - head - tail - rounding_allowance(length, whole, head, tail)

        # two-sided parameter bound at a grid-spacing increment
        if len(t_grid) >= 2:
            gi = int(rng.integers(0, len(t_grid) - 1))
            t0, delta = t_grid[gi], t_grid[gi + 1] - t_grid[gi]
        else:
            t0, delta = t, 0.25
        t1 = t0 + delta
        delta = t1 - t0  # the increment evaluated; rounding may absorb some of it
        base = cf.log_value(t0, w)
        shifted = cf.log_value(t1, w)
        # length * log s first: delta * length alone may overflow
        drop, fall = delta * (length * log_lo), delta * (length * log_hi)
        param = max(base + drop - shifted - rounding_allowance(length, base, shifted, drop),
                    shifted - base - fall - rounding_allowance(length, base, shifted, fall))
        if not (math.isfinite(subchain) and math.isfinite(param)):
            raise LevelOverflowError(
                f"word of length {length}: an axiom slack at t = {t!r} or t = {t0!r} overflows"
            )
        worst_subchain = max(worst_subchain, subchain)
        worst_param = max(worst_param, param)

    return AxiomReport(worst_subchain, worst_param)
