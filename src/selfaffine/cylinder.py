"""Cylinder functions: positive word-indexed potentials with certified constants.

A cylinder function assigns every nonempty word ``w`` and parameter ``t >= 0``
a positive value and certifies three constants: a distortion bound ``K_t``
(how much the value may vary over infinite tails), and parameter bounds
``0 < s_lo <= s_hi < 1`` controlling the response to a shift ``t -> t + delta``:

    value(t, w) * s_lo^(delta * |w|)  <=  value(t + delta, w)
                                      <=  value(t, w) * s_hi^(delta * |w|)

A cylinder function also holds the word budget ``budget``, the most words a
level may have; it limits work, not values, so ``content_hash`` ignores it.

Both implementations here are constant in the tail (``K_t = 1`` exactly); the
``tail`` argument is accepted and ignored so that a future tail-dependent
potential with ``K_t > 1`` can slot into the same interface.

The value of a word must never exceed the product of the values of its parts:
``value(t, ij) <= K_t * value(t, i) * value(t, j)`` (submultiplicativity; with
equality and K_t = 1 this is the multiplicative chain rule of similarity
weights).  ``verify_axioms`` spot-checks all three properties on random words
and reports the worst signed slack per axiom.

The natural potential is ``log value(t, w) = sum_k c_k(t) * log(a_1...a_k)(w)``
(``svf_compound_terms``), and the features ``log(a_1...a_k)(w)`` do not depend
on ``t``.  ``NaturalCylinderFunction`` therefore keeps the feature array of
each ``(k, prefix, depth)`` block it evaluates (a whole level is the block
``((), n)``), so the batched singular values of a block are computed once
however many parameters are asked for.  The kept bytes are capped by
``FEATURE_MEMO_BYTES``: the memo is cleared when storing a block would pass
the cap, and a block larger than the cap is never kept, so such a block is
recomputed at every parameter.  Single-word ``log_value`` calls do not fill
the memo.  The compound products behind a block take ``C(d, k)^2`` floats
per word, so they are formed at most ``PRODUCT_CHUNK_WORDS`` words at a time.

A feature is the log of the top singular value of a compound product, from
``top_singular_values``.  Compounds up to 3 x 3 (every k when d <= 3, and
k = 4 when d = 4) take closed forms: ``|a|`` for 1 x 1, a sum of two
``hypot`` terms for 2 x 2, and for 3 x 3 the largest eigenvalue of the Gram
matrix of the product scaled to largest entry 1, by the trigonometric formula.
Each is within a few ulps of LAPACK's a_1, for the reasons its docstring
gives; the 3 x 3 rows whose top two singular values nearly meet, and the
4 x 4 and 6 x 6 compounds of d = 4, go to LAPACK.  A product that underflows
to the zero matrix has top singular value 0, so its feature is ``-inf`` and
the block raises ``NumericallySingularError``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericallySingularError
from .linalg import (
    compound_matrix,
    singular_values,
    svf_compound_terms,
    top_singular_values,
    word_matrix,
)
from .symbolic import DEFAULT_WORD_BUDGET, Word

#: Cap on the bytes of block features a ``NaturalCylinderFunction`` keeps.
FEATURE_MEMO_BYTES = 64 << 20

#: Most suffix words whose compound products are formed at once.
PRODUCT_CHUNK_WORDS = 1 << 12


class CylinderFunction:
    """Interface: positive potential on words, with certified constants."""

    #: number of symbols in the underlying alphabet
    n_symbols: int

    def __init__(self, budget: int | None = None):
        self.budget = DEFAULT_WORD_BUDGET if budget is None else budget
        if self.budget < 1:
            raise ValueError(f"word budget must be >= 1, got {budget}")

    def log_value(self, t: float, w: Word, tail: Word | None = None) -> float:
        raise NotImplementedError

    def value(self, t: float, w: Word, tail: Word | None = None) -> float:
        return math.exp(self.log_value(t, w, tail))

    def constants(self, t: float) -> tuple[float, float, float]:
        """Certified (K_t, s_lo, s_hi)."""
        raise NotImplementedError

    def content_hash(self) -> str:
        raise NotImplementedError

    def log_value_block(self, t: float, prefix: Word, depth: int) -> np.ndarray:
        """Log-values of all words ``prefix + suffix``, suffixes of the given
        depth in lexicographic order."""
        raise NotImplementedError

    def _check_word(self, w: Word) -> None:
        if len(w) < 1:
            raise ValueError("cylinder functions are defined on nonempty words")
        for s in w:
            if not 0 <= s < self.n_symbols:
                raise ValueError(f"invalid symbol {s} for alphabet of size {self.n_symbols}")


class NaturalCylinderFunction(CylinderFunction):
    """Singular-value-function potential of an affine IFS: alpha^t of the word's
    matrix product.  Submultiplicativity of alpha^t makes K_t = 1.

    alpha^t of a product is evaluated through top singular values of
    exterior-power (compound) products, never through the small singular
    values of the explicitly formed product; the latter lose relative accuracy
    with the product's condition number, which grows exponentially with word
    length."""

    def __init__(self, maps, budget: int | None = None):
        super().__init__(budget)
        mats = np.asarray(getattr(maps, "matrices", maps), dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected a stack of square matrices, got shape {mats.shape}")
        svals = [singular_values(A) for A in mats]  # raises on singular input
        for i, sv in enumerate(svals):
            if sv[0] >= 1.0:
                raise ValueError(f"map {i} is not contractive (largest singular value {sv[0]:g})")
        self.matrices = mats
        self.n_symbols = mats.shape[0]
        self.dimension = mats.shape[1]
        self._map_svals = np.array(svals)
        self._compounds = {
            k: np.stack([compound_matrix(A, k) for A in mats])
            for k in range(1, self.dimension + 1)
        }
        self._features: dict[tuple, np.ndarray] = {}
        self._feature_bytes = 0

    def _log_partial_products(self, k: int, prefix: Word, depth: int, memo: bool) -> np.ndarray:
        """log(a_1 ... a_k) of the word matrix for every ``prefix + suffix``,
        via top singular values of k-th compound products; kept in the feature
        memo when ``memo`` is set.  Each product of the prefix and the first
        ``depth - inner`` suffix symbols is extended by all ``inner``-symbol
        tails at once, at most ``PRODUCT_CHUNK_WORDS`` words."""
        key = (k, tuple(prefix), depth)
        if key in self._features:
            return self._features[key]
        comps = self._compounds[k]
        m = comps.shape[1]

        def extend(prods, levels):
            for _ in range(levels):
                prods = (prods[:, None, :, :] @ comps[None, :, :, :]).reshape(-1, m, m)
            return prods

        inner = 0
        while inner < depth and self.n_symbols ** (inner + 1) <= PRODUCT_CHUNK_WORDS:
            inner += 1
        heads = extend(word_matrix(comps, prefix)[None, :, :], depth - inner)
        feats = np.empty((len(heads), self.n_symbols**inner))
        with np.errstate(divide="ignore"):
            for head, row in zip(heads, feats):
                row[:] = np.log(top_singular_values(extend(head[None, :, :], inner)))
        feats = feats.reshape(-1)
        if not np.all(np.isfinite(feats)):
            raise NumericallySingularError(
                f"level {len(prefix) + depth}: the product of the top {k} singular value(s) "
                "of some word matrix underflows double precision"
            )
        if memo and feats.nbytes <= FEATURE_MEMO_BYTES:
            if self._feature_bytes + feats.nbytes > FEATURE_MEMO_BYTES:
                self._features.clear()
                self._feature_bytes = 0
            feats.flags.writeable = False
            self._features[key] = feats
            self._feature_bytes += feats.nbytes
        return feats

    def _log_values(self, t, prefix, depth, memo):
        out = np.zeros(self.n_symbols**depth)
        for k, coeff in svf_compound_terms(t, self.dimension):
            out += coeff * self._log_partial_products(k, prefix, depth, memo)
        return out

    def log_value(self, t, w, tail=None):
        self._check_word(w)
        return float(self._log_values(t, w, 0, memo=False)[0])

    def log_value_block(self, t, prefix, depth):
        return self._log_values(t, prefix, depth, memo=True)

    def constants(self, t):
        return 1.0, float(self._map_svals[:, -1].min()), float(self._map_svals[:, 0].max())

    def content_hash(self):
        h = hashlib.sha256(b"natural-cylinder-function")
        h.update(np.int64(self.n_symbols).tobytes())
        h.update(np.int64(self.dimension).tobytes())
        h.update(self.matrices.tobytes())
        return h.hexdigest()


class ProductCylinderFunction(CylinderFunction):
    """Similarity-weight potential: value(t, w) = prod_k s_{w_k}^t.

    Satisfies the chain rule with equality, so it doubles as the additive
    reference case (classical similarity pressure)."""

    def __init__(self, weights, budget: int | None = None):
        super().__init__(budget)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) < 1:
            raise ValueError("weights must be a nonempty 1-D sequence")
        if not np.all((weights > 0) & (weights < 1)):
            raise ValueError("weights must lie strictly inside (0, 1)")
        self.weights = weights
        self.n_symbols = len(weights)
        self._log_weights = np.log(weights)

    def log_value(self, t, w, tail=None):
        self._check_word(w)
        return t * float(self._log_weights[list(w)].sum())

    def log_value_block(self, t, prefix, depth):
        base = self._log_weights[list(prefix)].sum() if prefix else 0.0
        out = np.array([base])
        for _ in range(depth):
            out = (out[:, None] + self._log_weights[None, :]).reshape(-1)
        return t * out

    def constants(self, t):
        return 1.0, float(self.weights.min()), float(self.weights.max())

    def content_hash(self):
        h = hashlib.sha256(b"product-cylinder-function")
        h.update(np.int64(self.n_symbols).tobytes())
        h.update(self.weights.tobytes())
        return h.hexdigest()


@dataclass
class AxiomReport:
    """Worst signed slack per axiom over the sampled checks.

    Slacks are in log scale; a value <= 0 means the axiom held with margin on
    every sample.  ``bvp_max_ratio`` is the largest value ratio observed over
    pairs of tails (exactly 1 for tail-constant potentials)."""

    bvp_max_ratio: float
    worst_subchain_violation: float
    worst_param_violation: float
    samples: int
    seed: int
    t_grid: tuple[float, ...] = field(default=())
    k_t: float = 1.0

    def max_slack(self) -> float:
        return max(
            math.log(self.bvp_max_ratio) - math.log(self.k_t),
            self.worst_subchain_violation,
            self.worst_param_violation,
        )

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_slack() <= tol


def verify_axioms(
    cf: CylinderFunction,
    t_grid,
    n_max: int = 8,
    samples: int = 1000,
    seed: int = 0,
) -> AxiomReport:
    """Property-check the three cylinder-function axioms on random words.

    Per sample: a random word, a random split point, a parameter from the
    grid, and a parameter increment taken from the grid spacing.  Each sample
    draws from its own seed stream, so the report is identical for a fixed
    seed no matter how the samples are scheduled.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")

    worst_bvp = 1.0
    worst_subchain = -math.inf
    worst_param = -math.inf
    k_t = max(cf.constants(t)[0] for t in t_grid)

    streams = np.random.SeedSequence(seed).spawn(samples)
    for stream in streams:
        rng = np.random.default_rng(stream)
        length = int(rng.integers(2, n_max + 1))
        w = tuple(rng.integers(0, cf.n_symbols, size=length))
        j = int(rng.integers(1, length))
        t = t_grid[int(rng.integers(0, len(t_grid)))]

        # (1) BVP: the value may vary over tails by at most K_t
        tail_a = tuple(rng.integers(0, cf.n_symbols, size=4))
        tail_b = tuple(rng.integers(0, cf.n_symbols, size=4))
        va = cf.log_value(t, w, tail=tail_a)
        vb = cf.log_value(t, w, tail=tail_b)
        worst_bvp = max(worst_bvp, math.exp(abs(va - vb)))

        # (2) subchain rule on the split w = w[:j] + w[j:]
        slack = cf.log_value(t, w) - cf.log_value(t, w[:j]) - cf.log_value(t, w[j:])
        worst_subchain = max(worst_subchain, slack - math.log(k_t))

        # (3) two-sided parameter bound at a grid-spacing increment
        if len(t_grid) >= 2:
            gi = int(rng.integers(0, len(t_grid) - 1))
            t0, delta = t_grid[gi], t_grid[gi + 1] - t_grid[gi]
        else:
            t0, delta = t, 0.25
        _, s_lo, s_hi = cf.constants(t0)
        base = cf.log_value(t0, w)
        shifted = cf.log_value(t0 + delta, w)
        worst_param = max(
            worst_param,
            base + delta * length * math.log(s_lo) - shifted,
            shifted - base - delta * length * math.log(s_hi),
        )

    return AxiomReport(
        bvp_max_ratio=worst_bvp,
        worst_subchain_violation=worst_subchain,
        worst_param_violation=worst_param,
        samples=samples,
        seed=seed,
        t_grid=tuple(t_grid),
        k_t=k_t,
    )
