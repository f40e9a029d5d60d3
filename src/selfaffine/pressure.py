"""Finite-level topological pressure, Fekete envelope, and the affinity dimension.

The level-n pressure of a cylinder function is

    P_n(t) = (1/n) * log( sum over all words w of length n of value(t, w) ),

computed entirely in log space.  The potential is constant in the tail,
so the subchain rule makes ``log S_n`` subadditive and the limit
pressure P(t) equals ``inf_n P_n(t)``: every computed level is a rigorous
upper bound, and the running minimum (the Fekete envelope) is the best one.
No finite-level lower bound is available.  Every run that holds
``log S_1 .. log S_N`` at one t checks ``log S_{i+j} <= log S_i + log S_j``
(``check_subadditive``), and ``affinity_dimension`` checks ``t_{jn} <= t_n``,
each up to ``linalg.rounding_allowance``; a breach raises ``SelfCheckError``.

A level is the flat array ``cf.log_value_block(t, (), n)`` of word log-values
``sum_k c_k * F_k`` (``terms`` times ``level_features``) in packed-index order;
``log_sum_exp`` reduces it around its maximum in a fixed order, so results are
bit-for-bit reproducible.  ``level_log_values`` returns the array with
``log S_n``, for consumers that need every word's value as well.  A level of
more than ``cf.budget`` words raises ``BudgetExceededError``, and one whose
log-values overflow double precision raises ``LevelOverflowError``.  Every
function takes the potential and its mathematical arguments only; the one
reader of the potential's partition-sum cache is ``log_partition_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylinder import NaturalCylinderFunction
from .errors import BudgetExceededError, LevelOverflowError, SelfCheckError
from .linalg import rounding_allowance
from .symbolic import check_budget


def log_sum_exp(values: np.ndarray) -> float:
    """log of the sum of exp over all entries, reduced around their maximum
    (exponentiated in place: a level can hold 2^24 entries)."""
    m = float(values.max())
    terms = values - m
    return m + math.log(float(np.exp(terms, out=terms).sum()))


def log_partition_sum(cf: NaturalCylinderFunction, t: float, n: int) -> float:
    """log of the level-n partition sum, through ``cf.cache`` when it has one."""
    check_budget(cf.n_symbols, n, cf.budget)  # also on a cache hit
    if cf.cache is None:
        return level_log_values(cf, t, n)[0]
    key = (cf.content_hash(), float(t), int(n))
    hit = cf.cache.get(key)
    if hit is not None:
        return hit
    out = level_log_values(cf, t, n)[0]
    cf.cache.put(key, out)
    return out


def level_log_values(cf, t, n) -> tuple[float, np.ndarray]:
    """``(log S_n, values)``: the log-value of every level-n word in
    lexicographic (packed-index) order, and their log-sum-exp."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if not math.isfinite(t):
        raise ValueError(f"parameter t must be finite, got {t}")
    check_budget(cf.n_symbols, n, cf.budget)
    # a finite least value rules out nan and -inf; a +inf value makes log S_n nan
    with np.errstate(over="ignore", invalid="ignore"):
        values = cf.log_value_block(t, (), n)
        log_s = log_sum_exp(values)
    if not (math.isfinite(log_s) and math.isfinite(values.min())):
        raise LevelOverflowError(f"level {n} at t = {t!r}: word log-values overflow")
    return log_s, values


def pressure_level(cf, t, n) -> float:
    """P_n(t) = (1/n) log S_n(t)."""
    return log_partition_sum(cf, t, n) / n


def _budget_levels(cf, n_max) -> tuple[range, bool]:
    """The levels 1..n_max within ``cf.budget`` (a prefix), and whether any is cut."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    top = 0
    while top < n_max and cf.n_symbols ** (top + 1) <= cf.budget:
        top += 1
    if top == 0:
        raise BudgetExceededError(cf.n_symbols, 1, cf.budget)
    return range(1, top + 1), top < n_max


def check_subadditive(cf, t, log_s) -> None:
    """``log S_{i+j} <= log S_i + log S_j`` for all ``i + j <= N``, given
    ``log_s = [log S_1, .., log S_N]`` at ``t``, up to the three levels'
    rounding allowances summed; else ``SelfCheckError``."""
    log_s = [0.0, *log_s]  # indexed by level
    room = [rounding_allowance(n, v, n * math.log(cf.n_symbols)) for n, v in enumerate(log_s)]
    for k in range(2, len(log_s)):
        for i in range(1, k // 2 + 1):
            excess = log_s[k] - log_s[i] - log_s[k - i] - room[i] - room[k - i] - room[k]
            if excess > 0:
                raise SelfCheckError(f"log S_{k} exceeds log S_{i} + log S_{k - i} by "
                                     f"{excess!r} beyond rounding at t = {t!r}")


@dataclass
class PressureReport:
    """Per-level pressure values at a fixed parameter.

    ``fekete_upper`` is the minimum over computed levels, a rigorous upper
    bound on the limit pressure (the potential is tail-constant)."""

    t: float
    per_level: list[tuple[int, float]]
    fekete_upper: float
    truncated: bool = False


def pressure_sequence(cf, t, n_max) -> PressureReport:
    levels, truncated = _budget_levels(cf, n_max)
    log_s = [log_partition_sum(cf, t, n) for n in levels]
    check_subadditive(cf, t, log_s)
    per_level = [(n, v / n) for n, v in zip(levels, log_s)]
    return PressureReport(float(t), per_level, min(p for _, p in per_level), truncated)


def pressure_root(cf, n, t_tol) -> float:
    """The zero of t -> P_n(t), located by bisection to bracket width t_tol.

    P_n is strictly decreasing with P_n(0) = log #I > 0, and the parameter
    bound s_hi < 1 forces P_n(t) -> -inf, so a sign change always exists.  The
    initial bracket [0, 1] is grown by doubling until the upper end is
    negative.  The upper end of the final bracket is returned (or a point
    where P_n is exactly 0): P_n <= 0 there, so it is an upper bound on the
    level root, at most max(t_tol, one float spacing) above it."""
    if not 0 < t_tol < math.inf:
        raise ValueError(f"t_tol must be positive and finite, got {t_tol}")
    if cf.n_symbols < 2:
        raise ValueError("pressure root needs at least two symbols")

    def P(t):
        return pressure_level(cf, t, n)

    lo, hi = 0.0, 1.0
    p_hi = P(hi)
    while p_hi > 0.0:
        lo, hi = hi, 2.0 * hi
        p_hi = P(hi)
    if p_hi == 0.0:
        return hi
    while hi - lo > t_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # the bracket is one float spacing wide
            break
        p_mid = P(mid)
        if p_mid > 0.0:
            lo = mid
        elif p_mid < 0.0:
            hi = mid
        else:
            return mid
    return hi


@dataclass
class DimensionReport:
    """Affinity-dimension computation over levels 1..n_max.

    Every root t_n is a rigorous upper bound on the zero of the limit
    pressure; ``upper_bound`` is their minimum.  ``prediction`` clamps at the
    ambient dimension, which is the generic Hausdorff dimension of the
    attractor when the norm-1/2 hypothesis holds."""

    roots: list[tuple[int, float]]
    upper_bound: float
    prediction: float
    norm_half_satisfied: bool
    truncated: bool = False


def affinity_dimension(cf: NaturalCylinderFunction, n_max, t_tol) -> DimensionReport:
    """Roots of the level pressures of the potential ``cf``.  Subadditivity
    gives ``t_{jn} <= t_n``; P_n falls with slope at most ``log s_hi``, so
    rounding moves t_n by at most its allowance over ``-n log s_hi``."""
    levels, truncated = _budget_levels(cf, n_max)
    roots = [(n, pressure_root(cf, n, t_tol)) for n in levels]
    s_hi = cf.constants()[1]
    room = {n: rounding_allowance(n, 0.0, n * math.log(cf.n_symbols)) / (n * -math.log(s_hi))
            for n in levels}
    for n, t_n in roots:
        for jn, t_jn in roots[2 * n - 1::n]:
            if t_jn > t_n + t_tol + room[n] + room[jn]:
                raise SelfCheckError(f"level root t_{jn} = {t_jn!r} exceeds t_{n} = {t_n!r} "
                                     "beyond tolerance and rounding: P_n is not subadditive")
    upper = min(r for _, r in roots)
    return DimensionReport(roots=roots, upper_bound=upper, norm_half_satisfied=s_hi < 0.5,
                           prediction=min(float(cf.dimension), upper), truncated=truncated)


def pressure_curve(cf, t_grid, n) -> list[tuple[float, float]]:
    """P_n sampled on an ascending parameter grid."""
    t_grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly ascending")
    return [(t, pressure_level(cf, t, n)) for t in t_grid]
