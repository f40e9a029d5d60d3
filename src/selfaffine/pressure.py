"""Finite-level topological pressure, Fekete envelope, and the affinity dimension.

The level-n pressure of a cylinder function is

    P_n(t) = (1/n) * log( sum over all words w of length n of value(t, w) ),

computed entirely in log space.  For tail-constant potentials (K_t = 1) the
subchain rule makes ``log S_n`` subadditive, so the limit pressure P(t) equals
``inf_n P_n(t)``: every computed level is a rigorous upper bound, and the
running minimum (the Fekete envelope) is the best one.  No finite-level lower
bound is available, so the 1/n extrapolation attached to reports is labeled an
estimate, never a bound.

Enumeration is a serial, fixed-order reduction over the #I^p prefix blocks of
level n, p = min(n, 4), in lexicographic order (``level_blocks``), folded by
``log_sum_exp``, so results are bit-for-bit reproducible.  ``log_partition_sum``
streams the blocks through the fold; ``level_log_values`` keeps them as the
rows of one level table, for consumers that need every word's value as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cylinder import CylinderFunction, NaturalCylinderFunction
from .errors import BudgetExceededError
from .symbolic import check_budget, words_of_length

#: Prefix depth at which the word space is split into blocks.
PREFIX_SPLIT_DEPTH = 4


def level_blocks(cf: CylinderFunction, t: float, n: int) -> Iterator[np.ndarray]:
    """Log-values of the level-n prefix blocks, in lexicographic (packed-index) order."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if not math.isfinite(t):
        raise ValueError(f"parameter t must be finite, got {t}")
    p = min(n, PREFIX_SPLIT_DEPTH)
    return (cf.log_value_block(t, prefix, n - p) for prefix in words_of_length(cf.n_symbols, p))


def log_sum_exp(blocks: Iterable[np.ndarray]) -> float:
    """log-sum-exp of all entries: each block is reduced around its own maximum
    and the (max, sum) pairs are folded left to right; callers pass blocks in
    lexicographic order to pin the float rounding sequence."""
    m_acc, s_acc = -math.inf, 0.0
    for lv in blocks:
        m = float(lv.max())
        s = float(np.exp(lv - m).sum())
        if m <= m_acc:
            s_acc += s * math.exp(m - m_acc)
        else:
            s_acc = s_acc * math.exp(m_acc - m) + s
            m_acc = m
    return m_acc + math.log(s_acc)


def log_partition_sum(
    cf: CylinderFunction,
    t: float,
    n: int,
    budget: int | None = None,
    cache=None,
) -> float:
    """log of the level-n partition sum, streamed block by block."""
    check_budget(cf.n_symbols, n, budget)
    key = (cf.content_hash(), float(t), int(n))
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    out = log_sum_exp(level_blocks(cf, t, n))
    if cache is not None:
        cache.put(key, out)
    return out


def level_log_values(cf, t, n, budget=None) -> tuple[float, np.ndarray]:
    """``(log S_n, table)`` from one sweep of level n: one table row per block
    of ``level_blocks``, and ``log S_n`` bit-equal to ``log_partition_sum``."""
    rows = cf.n_symbols ** min(n, PREFIX_SPLIT_DEPTH)
    table = np.empty((rows, check_budget(cf.n_symbols, n, budget) // rows))
    for row, lv in zip(table, level_blocks(cf, t, n)):
        row[:] = lv
    return log_sum_exp(table), table


def pressure_level(cf, t, n, budget=None, cache=None) -> float:
    """P_n(t) = (1/n) log S_n(t)."""
    return log_partition_sum(cf, t, n, budget, cache) / n


def _extrapolate(ns: Sequence[int], values: Sequence[float]) -> tuple[float, str]:
    """Linear least-squares fit of value against 1/n over the top half of the
    levels; the intercept is the 1/n -> 0 point estimate."""
    if len(ns) == 1:
        return float(values[0]), "single-level"
    lo = len(ns) // 2
    if len(ns) - lo < 2:
        lo = len(ns) - 2
    x = 1.0 / np.asarray(ns[lo:], dtype=float)
    y = np.asarray(values[lo:], dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    return float(intercept), "least-squares-in-1/n-top-half"


@dataclass
class PressureReport:
    """Per-level pressure values at a fixed parameter.

    ``fekete_upper`` is the minimum over computed levels; it is a rigorous
    upper bound on the limit pressure exactly when ``k_t_is_one``.  The
    extrapolated value is a point estimate only."""

    t: float
    per_level: list[tuple[int, float]]
    fekete_upper: float
    extrapolated: float
    extrapolation_method: str
    k_t_is_one: bool
    truncated: bool = False

    def levels(self) -> list[int]:
        return [n for n, _ in self.per_level]


def pressure_sequence(cf, t, n_max, budget=None, cache=None) -> PressureReport:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    per_level: list[tuple[int, float]] = []
    truncated = False
    for n in range(1, n_max + 1):
        try:
            per_level.append((n, pressure_level(cf, t, n, budget, cache)))
        except BudgetExceededError:
            truncated = True
            break
    if not per_level:
        raise BudgetExceededError(cf.n_symbols, 1, budget or 0)
    values = [v for _, v in per_level]
    extrapolated, method = _extrapolate([n for n, _ in per_level], values)
    return PressureReport(
        t=float(t),
        per_level=per_level,
        fekete_upper=min(values),
        extrapolated=extrapolated,
        extrapolation_method=method,
        k_t_is_one=(cf.constants(t)[0] == 1.0),
        truncated=truncated,
    )


def pressure_root(cf, n, t_tol, budget=None, cache=None) -> float:
    """The zero of t -> P_n(t), located by bisection to bracket width t_tol.

    P_n is strictly decreasing with P_n(0) = log #I > 0, and the parameter
    bound s_hi < 1 forces P_n(t) -> -inf, so a sign change always exists.  The
    initial bracket [0, 1] is grown by doubling until the upper end is
    negative."""
    if not 0 < t_tol < math.inf:
        raise ValueError(f"t_tol must be positive and finite, got {t_tol}")
    if cf.n_symbols < 2:
        raise ValueError("pressure root needs at least two symbols")

    def P(t):
        return pressure_level(cf, t, n, budget, cache)

    lo, hi = 0.0, 1.0
    p_hi = P(hi)
    while p_hi > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise RuntimeError("pressure failed to become negative; potential not contractive?")
        p_hi = P(hi)
    if p_hi == 0.0:
        return hi
    while hi - lo > t_tol:
        mid = 0.5 * (lo + hi)
        p_mid = P(mid)
        if p_mid > 0.0:
            lo = mid
        elif p_mid < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


@dataclass
class DimensionReport:
    """Affinity-dimension computation over levels 1..n_max.

    Every root t_n is a rigorous upper bound on the zero of the limit
    pressure; ``upper_bound`` is their minimum.  ``prediction`` clamps at the
    ambient dimension, which is the generic Hausdorff dimension of the
    attractor when the norm-1/2 hypothesis holds."""

    dimension: int
    roots: list[tuple[int, float]]
    upper_bound: float
    extrapolated: float
    extrapolation_method: str
    prediction: float
    norm_half_satisfied: bool
    t_tol: float
    n_max: int
    truncated: bool = False

    def levels(self) -> list[int]:
        return [n for n, _ in self.roots]


def affinity_dimension(ifs, n_max, t_tol, budget=None, cache=None) -> DimensionReport:
    """Roots of the level pressures for the natural (singular-value) potential."""
    cf = NaturalCylinderFunction(ifs)
    roots: list[tuple[int, float]] = []
    truncated = False
    for n in range(1, n_max + 1):
        try:
            check_budget(cf.n_symbols, n, budget)
        except BudgetExceededError:
            truncated = True
            break
        roots.append((n, pressure_root(cf, n, t_tol, budget, cache)))
    if not roots:
        raise BudgetExceededError(cf.n_symbols, 1, budget or 0)
    values = [r for _, r in roots]
    extrapolated, method = _extrapolate([n for n, _ in roots], values)
    upper = min(values)
    d = cf.dimension
    norm_half = bool(np.all(cf._map_svals[:, 0] < 0.5))
    return DimensionReport(
        dimension=d,
        roots=roots,
        upper_bound=upper,
        extrapolated=extrapolated,
        extrapolation_method=method,
        prediction=min(float(d), upper),
        norm_half_satisfied=norm_half,
        t_tol=t_tol,
        n_max=n_max,
        truncated=truncated,
    )


def pressure_curve(cf, t_grid, n, budget=None, cache=None) -> list[tuple[float, float]]:
    """P_n sampled on an ascending parameter grid."""
    t_grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly ascending")
    return [(t, pressure_level(cf, t, n, budget, cache)) for t in t_grid]
