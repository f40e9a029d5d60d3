"""Small dense matrices, singular values, and the singular value function.

The singular value function of a d x d non-singular matrix A interpolates the
partial products of its singular values a_1 >= ... >= a_d > 0:

    t in [l-1, l], l = 1..d:   a_1 ... a_{l-1} * a_l^(t-l+1)
    t > d:                     (a_1 ... a_d)^(t/d)

with the convention that the value at t = 0 is 1 (empty product), so the
level-n partition sum at t = 0 equals the number of words.  All evaluation is
done in log space; products of contractive matrices at useful depths would
otherwise underflow.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NumericallySingularError

#: Relative threshold below which the smallest singular value counts as zero.
SINGULAR_RTOL = 1e-14

#: Supported ambient dimensions.
MAX_DIM = 4

#: Rows of the 3 x 3 closed form whose r = cos(3 phi) lies below this go to
#: LAPACK: there the top two Gram eigenvalues nearly meet, the slope of
#: acos(r) blows up, and the trigonometric formula loses up to half its digits.
_TRIG_R_MIN = -1 + 1e-3


def singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of A, sorted non-increasing, all strictly positive.

    Raises NumericallySingularError if the smallest value is below
    SINGULAR_RTOL times the largest.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not 1 <= A.shape[0] <= MAX_DIM:
        raise ValueError(f"supported dimensions are 1..{MAX_DIM}, got {A.shape[0]}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    svals = np.linalg.svd(A, compute_uv=False)
    if svals[-1] <= SINGULAR_RTOL * svals[0]:
        raise NumericallySingularError(
            f"numerically singular: smallest singular value {svals[-1]:.3e} "
            f"vs largest {svals[0]:.3e}"
        )
    return svals


def top_singular_values(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (N, m, m) stack.

    Closed forms serve m <= 3, each within a few ulps of LAPACK's value, and
    LAPACK serves m >= 4.  A zero matrix gives 0, with no floating-point
    warning.

    - m = 1: ``|a|``, the same bits as the 1 x 1 SVD.
    - m = 2: ``(hypot(a + d, b - c) + hypot(a - d, b + c)) / 2``.  The two
      hypotenuses are a_1 + a_2 and a_1 - a_2.  The sums a + d, ..., b + c
      are rounded by at most an ulp of a_1, ``hypot`` squares nothing (so
      entries near 1e-160 do not underflow), and the final sum adds two
      non-negative terms, so a_1 is within a few ulps.  (The textbook
      ``sqrt((|M|_F^2 + sqrt(|M|_F^4 - 4 det^2)) / 2)`` subtracts near-equal
      squares for near-conformal matrices and is off by about 1.5e-8 there.)
    - m = 3: see ``_top_singular_values_3x3``.
    """
    mats = np.asarray(mats, dtype=float)
    n, m = mats.shape[:2]
    if m == 1:
        return np.abs(mats[:, 0, 0])
    if m == 2:
        a, b, c, d = mats.reshape(n, 4).T
        return (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2
    if m == 3:
        return _top_singular_values_3x3(mats)
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def _top_singular_values_3x3(mats: np.ndarray) -> np.ndarray:
    """Top singular values of an (N, 3, 3) stack: the square root of the
    largest eigenvalue of the Gram matrix G = M^T M, by the trigonometric
    formula for symmetric 3 x 3 matrices (O. K. Smith, CACM 4(4), 1961):

        q = tr G / 3,  p^2 = |G - qI|_F^2 / 6,  r = det(G - qI) / (2 p^3),
        lambda_1 = q + 2 p cos(acos(r) / 3).

    Each matrix is first divided by its largest |entry|, because entries of
    deep word products reach 1e-160 and their squares would underflow.  Then
    lambda_1 lies in [1, 9], and the Gram entries, q, p and p * r are all
    correct to a few ulps of 1 (r's own error grows like 1/p, but it enters
    lambda_1 multiplied by p).  So lambda_1 is correct to a few ulps wherever
    r -> cos(acos(r) / 3) has a bounded slope.  That slope is 1/9 at r = 1
    and grows without bound as r -> -1, where the top two eigenvalues meet;
    rows with r below ``_TRIG_R_MIN`` (slope about 6.4) go to LAPACK."""
    n = len(mats)
    flat = mats.reshape(n, 9)
    scale = np.abs(flat).max(axis=1)
    scale[scale == 0] = 1.0  # a zero matrix stays zero
    # row 3i + j holds entry (i, j) of every matrix, so column j is rows j::3
    e = np.ascontiguousarray((flat / scale[:, None]).T)
    c0, c1, c2 = e[0::3], e[1::3], e[2::3]
    g00, g11, g22 = (np.einsum("kn,kn->n", c, c) for c in (c0, c1, c2))
    g01, g02, g12 = (np.einsum("kn,kn->n", a, b) for a, b in ((c0, c1), (c0, c2), (c1, c2)))
    q = (g00 + g11 + g22) / 3
    b00, b11, b22 = g00 - q, g11 - q, g22 - q
    p2 = (b00 * b00 + b11 * b11 + b22 * b22 + 2 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6
    det = (b00 * (b11 * b22 - g12 * g12) - g01 * (g01 * b22 - g12 * g02)
           + g02 * (g01 * g12 - b11 * g02))
    p = np.sqrt(p2)
    p3 = p2 * p
    r = np.ones(n)  # G = qI (p = 0): lambda_1 = q
    np.divide(det, 2 * p3, out=r, where=p3 > 0)
    np.clip(r, -1.0, 1.0, out=r)
    out = np.sqrt(q + 2 * p * np.cos(np.arccos(r) / 3)) * scale
    near = np.flatnonzero(r < _TRIG_R_MIN)
    if len(near):
        out[near] = np.linalg.svd(mats[near], compute_uv=False)[:, 0]
    return out


def svf_exponents(t: float, d: int) -> np.ndarray:
    """Exponent vector e with log alpha^t(A) = e . log(singular values)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    e = np.zeros(d)
    if t == 0:
        return e
    if t > d:
        e[:] = t / d
        return e
    # smallest integer >= t; for integer t this is t itself
    l = math.ceil(t)
    e[: l - 1] = 1.0
    e[l - 1] = t - l + 1
    return e


def log_svf_from_singular_values(svals: np.ndarray, t: float) -> float:
    return float(svf_exponents(t, len(svals)) @ np.log(svals))


def svf_alpha_t(A: np.ndarray, t: float) -> float:
    """The singular value function alpha^t(A)."""
    return math.exp(log_svf_from_singular_values(singular_values(A), t))


def log_svf_alpha_t(A: np.ndarray, t: float) -> float:
    return log_svf_from_singular_values(singular_values(A), t)


def compound_matrix(A: np.ndarray, k: int) -> np.ndarray:
    """k-th multiplicative compound (exterior power): the matrix of k x k
    minors over lexicographically ordered index subsets.

    Multiplicative by Cauchy-Binet, and its largest singular value is the
    product of the k largest singular values of A.  Products of compounds
    therefore give partial singular-value products of matrix products without
    condition-number amplification (only top singular values are ever read
    off), which keeps the singular value function of long products accurate.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"compound order must be in 1..{d}, got {k}")
    if k == 1:
        return A.copy()
    subsets = list(itertools.combinations(range(d), k))
    M = np.empty((len(subsets), len(subsets)))
    for r, rows in enumerate(subsets):
        for c, cols in enumerate(subsets):
            M[r, c] = np.linalg.det(A[np.ix_(rows, cols)])
    return M


def svf_compound_terms(t: float, d: int) -> list[tuple[int, float]]:
    """The singular value function as a product of powers of partial products:

        alpha^t(A) = prod over (k, c) of (a_1 ... a_k)^c

    with a_1...a_k read off as the top singular value of the k-th compound.
    Valid for every t >= 0 (empty list at t = 0)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return []
    if t > d:
        return [(d, t / d)]
    l = math.ceil(t)
    terms = [(l, t - l + 1)]
    if l > 1 and l - t > 0:
        terms.append((l - 1, l - t))
    return terms


def word_matrix(maps, w) -> np.ndarray:
    """Left-to-right product A_{w_1} ... A_{w_n}; the empty word gives identity.

    ``maps`` is a stack of matrices of shape (k, d, d) or any object with a
    ``matrices`` attribute holding one (e.g. an affine IFS).
    """
    mats = np.asarray(getattr(maps, "matrices", maps), dtype=float)
    if mats.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got shape {mats.shape}")
    d = mats.shape[1]
    out = np.eye(d)
    for s in w:
        out = out @ mats[s]
    return out
