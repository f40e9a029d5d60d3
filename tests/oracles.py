"""Reference implementations that tests compare the library against.

Each one computes its object from the definition, one word or one matrix at
a time, and shares no code with the level tables, compound products and
closed-form kernels of ``selfaffine``; ``jensen_residual``, whose subject
is the variational inequality and not the sweep, reads one level's values,
and the two-pass tables, whose subject is the one-sweep equilibrium builder,
read a level twice.
"""

import itertools
import math

import numpy as np

from selfaffine.pressure import level_log_values, log_partition_sum


def words_of_length(m, n):
    """Stream all words of length n over m symbols in lexicographic order."""
    return itertools.product(range(m), repeat=n)


def unpack_word(index, m, length):
    """The word of the given length whose packed base-m index is ``index``."""
    symbols = []
    for _ in range(length):
        index, s = divmod(index, m)
        symbols.append(s)
    return tuple(reversed(symbols))


def svf_exponents(t, d):
    """Exponent vector e with log alpha^t(A) = e . log(singular values of A):

        t in [l-1, l], l = 1..d:   a_1 ... a_{l-1} * a_l^(t-l+1)
        t > d:                     (a_1 ... a_d)^(t/d)
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    e = np.zeros(d)
    if t == 0:
        return e
    if t > d:
        e[:] = t / d
        return e
    l = math.ceil(t)  # smallest integer >= t; for integer t this is t itself
    e[: l - 1] = 1.0
    e[l - 1] = t - l + 1
    return e


def log_svf_alpha_t(A, t):
    """log alpha^t(A) from LAPACK's singular values of A itself (Falconer 1988).

    The smallest singular values are accurate only to about eps * a_1, so
    compare against it within a multiple of eps times the condition number."""
    svals = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    return float(svf_exponents(t, len(svals)) @ np.log(svals))


def marginal(measure, depth):
    """Masses of the depth-``depth`` marginal of a cylinder table: each
    shallower cylinder sums its continuations."""
    return measure.masses.reshape(measure.n_symbols**depth, -1).sum(axis=1)


def jensen_residual(cf, t, n, m):
    """The finite-level Jensen slack log S_n / n - H_n / n - E_n / n of the
    depth-n table ``m``: >= 0 for every table, = 0 at the nu weights."""
    log_s, lv = level_log_values(cf, t, n)
    nz = m.masses[m.masses > 0]
    return (log_s + float(nz @ np.log(nz)) - float(m.masses @ lv)) / n


def two_pass_nu(cf, t, n):
    """The level-n weights from two passes: log S_n from ``log_partition_sum``,
    then the word values from a second sweep."""
    return np.exp(cf.log_value_block(t, (), n) - log_partition_sum(cf, t, n))


def wrapped_by_rotation(nu, m, k, q):
    """Rotate each word (head, middle, tail) to (tail, head) after summing out
    its middle n - k symbols."""
    return nu.reshape(m ** (k - q), -1, m**q).sum(axis=1).T.ravel()


def wrapped_by_padding(nu, m, k, q):
    """Pad each word (head, middle, tail) with its own head: the window (tail,
    head) then lies inside the padded word, and the other symbols sum out."""
    blocks = nu.reshape(m ** (k - q), -1, m**q)
    heads = np.arange(blocks.shape[0])
    padded = np.zeros(blocks.shape + blocks.shape[:1])
    padded[heads, :, :, heads] = blocks
    return padded.sum(axis=(0, 1)).ravel()


def two_pass_cesaro(cf, t, n, k, wrapped=wrapped_by_rotation):
    """The depth-k table of the cyclic windows (w + w)[j : j + k] of the
    ``two_pass_nu`` weights, summed shift by shift in the order the library
    sums them.  ``wrapped`` gives the table of the windows at a shift with
    q < k symbols left, which wrap round the end of the word."""
    nu, m = two_pass_nu(cf, t, n), cf.n_symbols
    table = np.zeros(m**k)
    for j in range(n):
        q = n - j
        if q >= k:
            table += nu.reshape(m**j, m**k, -1).sum(axis=(0, 2))
        else:
            table += wrapped(nu, m, k, q)
    return table / n


def mp_planar_log_partition_sum(mats, t_values, n, dps=50):
    """log S_n(t) of a planar system at each t, at ``dps`` digits (mpmath,
    n <= 8): every level-n word product, formed exactly from the float
    entries, gives a_1 = (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2 and
    a_2 = |det| / a_1, and the singular value function is summed over words."""
    import mpmath

    if not (np.shape(mats)[1:] == (2, 2) and 1 <= n <= 8):
        raise ValueError("the mpmath oracle serves 2 x 2 maps at levels 1..8")
    with mpmath.workdps(dps):
        maps = [mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in A]) for A in mats]
        prods = maps
        for _ in range(n - 1):
            prods = [P * A for P in prods for A in maps]
        pairs = []
        for P in prods:
            (a, b), (c, d) = (P[0, 0], P[0, 1]), (P[1, 0], P[1, 1])
            a1 = (mpmath.hypot(a + d, b - c) + mpmath.hypot(a - d, b + c)) / 2
            pairs.append((a1, abs(a * d - b * c) / a1))
        out = []
        for t in map(mpmath.mpf, t_values):
            if t <= 1:
                terms = (a1**t for a1, _ in pairs)
            elif t <= 2:
                terms = (a1 * a2 ** (t - 1) for a1, a2 in pairs)
            else:
                terms = ((a1 * a2) ** (t / 2) for a1, a2 in pairs)
            out.append(mpmath.log(mpmath.fsum(terms)))
        return out
