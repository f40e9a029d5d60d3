"""Finite-level equilibrium-measure approximants and their diagnostics.

The existence proof for equilibrium measures is constructive at every finite
level, and this module exposes exactly those finite objects:

* ``nu_weights``: the level-n Gibbs-like weights, mass proportional to the
  potential value of each word (the equality case of the finite-level Jensen
  inequality).
* ``mu_cesaro``: the Cesaro average of the shifted weights,
  (1/n) * sum_{j=0..n-1} nu_n o shift^-j, materialized as a depth-k cylinder
  table.  Shifts whose window extends past the end of a word are completed by
  the designated constant tail (symbol 0 repeated); passing
  ``tail_mode="drop"`` instead discards those shifts and renormalizes over the
  n-k+1 full windows.  The drop variant is exactly shift-invariant for
  symmetric inputs but carries no defect guarantee and its tables at different
  depths average different window counts, so only the default mode is
  marginal-consistent across independently built depths.
* ``invariance_defect``: max over level-k cylinders of
  |mu_n([i]) - mu_n(shift^-1 [i])|; under the default tail convention this
  telescopes to (1/n)|nu_n([i]) - [i == 0^k]| and is therefore <= 1/n.

Entropy and energy are the finite-depth quotients (natural log throughout);
``jensen_residual`` is the finite-level slack P_n - h - E, nonnegative for
every probability assignment and zero exactly at the nu weights.
Each consumer of level-n word values reads them, and ``log S_n``, from one
``pressure.level_log_values`` sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylinder import CylinderFunction
from .pressure import level_log_values, pressure_sequence
from .symbolic import Word, pack_word, word_str


@dataclass
class CylinderMeasure:
    """Mass assignment to all cylinders of one depth, addressed by packed word
    index (so table order is lexicographic word order)."""

    n_symbols: int
    depth: int
    masses: np.ndarray
    provenance: str = "custom"

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        expected = self.n_symbols**self.depth
        if self.masses.shape != (expected,):
            raise ValueError(
                f"expected {expected} masses for depth {self.depth}, got shape {self.masses.shape}"
            )
        if self.masses.min(initial=0.0) < -1e-12:
            raise ValueError("masses must be nonnegative")
        total = float(self.masses.sum())
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"masses must sum to 1, got {total!r}")

    def mass(self, w: Word) -> float:
        if len(w) != self.depth:
            raise ValueError(f"word length {len(w)} != table depth {self.depth}")
        return float(self.masses[pack_word(w, self.n_symbols)])

    def marginal(self, depth: int) -> "CylinderMeasure":
        """Restrict to a shallower depth by summing over continuations."""
        if not 1 <= depth <= self.depth:
            raise ValueError(f"marginal depth must be in 1..{self.depth}, got {depth}")
        masses = self.masses.reshape(
            self.n_symbols**depth, self.n_symbols ** (self.depth - depth)
        ).sum(axis=1)
        return CylinderMeasure(
            self.n_symbols, depth, masses, provenance=f"marginal({depth}) of {self.provenance}"
        )

    def rows(self):
        """(word string, mass) pairs in lexicographic order, for CSV output."""
        from .symbolic import unpack_word

        for idx in range(len(self.masses)):
            w = unpack_word(idx, self.n_symbols, self.depth)
            yield word_str(w, self.n_symbols), float(self.masses[idx])

    @classmethod
    def point_mass(cls, n_symbols: int, w: Word) -> "CylinderMeasure":
        masses = np.zeros(n_symbols ** len(w))
        masses[pack_word(w, n_symbols)] = 1.0
        return cls(n_symbols, len(w), masses, provenance=f"point({w})")

    @classmethod
    def bernoulli(cls, p, depth: int) -> "CylinderMeasure":
        p = np.asarray(p, dtype=float)
        masses = np.array([1.0])
        for _ in range(depth):
            masses = (masses[:, None] * p[None, :]).reshape(-1)
        return cls(len(p), depth, masses, provenance=f"bernoulli({p.tolist()})")


def nu_weights(cf: CylinderFunction, t: float, n: int, budget=None) -> CylinderMeasure:
    """Level-n weights with mass proportional to value(t, w), normalized in
    log space."""
    log_s, lv = level_log_values(cf, t, n, budget)
    masses = np.exp(lv.reshape(-1) - log_s)
    return CylinderMeasure(cf.n_symbols, n, masses, provenance=f"nu(n={n},t={t:g})")


def mu_cesaro(
    cf: CylinderFunction,
    t: float,
    n: int,
    k: int,
    tail_mode: str = "pad",
    budget=None,
) -> CylinderMeasure:
    """Depth-k table of the Cesaro average of the shifted level-n weights."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if tail_mode not in ("pad", "drop"):
        raise ValueError(f"tail_mode must be 'pad' or 'drop', got {tail_mode!r}")
    m_sym = cf.n_symbols
    size_k = m_sym**k
    log_s, lv = level_log_values(cf, t, n, budget)
    shifts = range(n) if tail_mode == "pad" else range(n - k + 1)

    table = np.zeros(size_k)
    for b, row in enumerate(lv):
        weights = np.exp(row - log_s)
        packed = np.arange(row.size, dtype=np.int64) + b * row.size
        part = np.zeros(size_k)
        for j in shifts:
            if j <= n - k:
                idx = (packed // m_sym ** (n - j - k)) % size_k
            else:
                # window runs past the end; complete with tail symbol 0
                q = n - j
                idx = (packed % m_sym**q) * m_sym ** (k - q)
            part += np.bincount(idx, weights=weights, minlength=size_k)
        table += part
    table /= n if tail_mode == "pad" else (n - k + 1)
    return CylinderMeasure(
        m_sym, k, table, provenance=f"mu_cesaro(n={n},t={t:g},k={k},tail={tail_mode})"
    )


def entropy_table(masses: np.ndarray) -> float:
    """-sum m log m over a mass table, with 0 log 0 = 0."""
    masses = np.asarray(masses, dtype=float)
    nz = masses[masses > 0]
    return float(-(nz * np.log(nz)).sum())


def entropy_depth(m: CylinderMeasure) -> float:
    """Finite-depth entropy quotient, in [0, log #I] (nats)."""
    return entropy_table(m.masses) / m.depth


def energy_depth(cf: CylinderFunction, t: float, m: CylinderMeasure, budget=None) -> float:
    """Finite-depth energy quotient (1/k) sum m([i]) log value(t, i)."""
    _, lv = level_log_values(cf, t, m.depth, budget)
    return float(m.masses @ lv.reshape(-1)) / m.depth


def jensen_residual(
    cf: CylinderFunction, t: float, n: int, m: CylinderMeasure, budget=None
) -> float:
    """P_n(t) - entropy - energy at depth n; >= 0 for every probability
    assignment, = 0 at the nu weights."""
    if m.depth != n:
        raise ValueError(f"measure depth {m.depth} != level {n}")
    log_s, lv = level_log_values(cf, t, n, budget)
    return log_s / n - entropy_depth(m) - float(m.masses @ lv.reshape(-1)) / n


def invariance_defect(
    cf: CylinderFunction,
    t: float,
    n: int,
    k: int,
    tail_mode: str = "pad",
    budget=None,
) -> float:
    """max over level-k words of |mu_n([i]) - mu_n(shift^-1 [i])|, both sides
    read from one depth-(k+1) table.  Under the default tail convention the
    value is at most 1/n."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    deep = mu_cesaro(cf, t, n, k + 1, tail_mode, budget).masses
    m_sym = cf.n_symbols
    direct = deep.reshape(m_sym**k, m_sym).sum(axis=1)
    preimage = deep.reshape(m_sym, m_sym**k).sum(axis=0)
    return float(np.abs(direct - preimage).max())


@dataclass
class LocalDimensionSamples:
    """Ratios log nu_n([w]) / log value(t, w) for words drawn from nu_n."""

    ratios: np.ndarray
    mean: float
    std: float


def local_dimension_samples(
    cf: CylinderFunction, t_star: float, n: int, count: int, seed: int, budget=None
) -> LocalDimensionSamples:
    """Monte Carlo check of the local-dimension ratio at a pressure root.

    Words are drawn from the level-n weights by sequential conditional
    sampling over the prefix tree: the children of each prefix are weighted by
    their total log-sum over continuations, built once by a backward sweep."""
    if count < 1:
        raise ValueError("count must be >= 1")
    m_sym = cf.n_symbols
    lv = level_log_values(cf, t_star, n, budget)[1].reshape(-1)

    # tables[k][u] = log sum of values over all continuations of prefix u
    tables = [np.empty(0)] * (n + 1)
    tables[n] = lv
    for k in range(n - 1, -1, -1):
        child = tables[k + 1].reshape(-1, m_sym)
        mx = child.max(axis=1)
        tables[k] = mx + np.log(np.exp(child - mx[:, None]).sum(axis=1))
    log_s = float(tables[0][0])

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ratios = np.empty(count)
    for i in range(count):
        u = 0
        for k in range(n):
            children = tables[k + 1][u * m_sym : (u + 1) * m_sym]
            probs = np.exp(children - tables[k][u])
            cum = np.cumsum(probs)
            cum[-1] = max(cum[-1], 1.0)
            u = u * m_sym + int(np.searchsorted(cum, rng.random(), side="right"))
        log_mass = lv[u] - log_s
        ratios[i] = log_mass / lv[u]
    return LocalDimensionSamples(ratios=ratios, mean=float(ratios.mean()), std=float(ratios.std()))


def bernoulli_lower_estimate(
    cf: CylinderFunction, t: float, k: int, iterations: int = 50, budget=None
) -> tuple[np.ndarray, float]:
    """Best product (Bernoulli) measure for the depth-k score h(p) + E_k(p).

    Softmax-parameterized fixed-point ascent from the uniform start: each step
    moves p to softmax of the energy gradient, which lands exactly on the
    optimum for additive potentials.  The best iterate is returned.  The score
    is a finite-depth ESTIMATE of the variational value, not a bound, but it
    never exceeds P_k(t)."""
    if k < 1:
        raise ValueError("depth must be >= 1")
    m_sym = cf.n_symbols
    lv = level_log_values(cf, t, k, budget)[1].reshape(-1)
    counts = np.zeros((1, m_sym))
    eye = np.eye(m_sym)
    for _ in range(k):
        counts = (counts[:, None, :] + eye[None, :, :]).reshape(-1, m_sym)

    def score_of(p):
        log_p = np.log(p)
        weights = np.exp(counts @ log_p)
        return float(-(p * log_p).sum() + (weights @ lv) / k), weights

    p = np.full(m_sym, 1.0 / m_sym)
    best_p, (best_score, _) = p, score_of(p)
    for _ in range(iterations):
        _, weights = score_of(p)
        grad = ((weights * lv) @ counts) / (k * p)
        grad -= grad.max()
        p = np.exp(grad)
        p /= p.sum()
        p = np.clip(p, 1e-300, None)
        score, _ = score_of(p)
        if score > best_score:
            best_score, best_p = score, p.copy()
    return best_p, best_score


@dataclass
class EquilibriumDiagnostics:
    """Finite-level snapshot of the variational quantities at one (t, n, k);
    ``measure`` is the depth-k Cesaro table the snapshot was computed from."""

    t: float
    level: int
    depth: int
    entropy_k: float
    energy_k: float
    pressure_upper: float
    gap: float
    invariance_defect_max: float
    measure: CylinderMeasure


def diagnostics(
    cf: CylinderFunction,
    t: float,
    n: int,
    k: int,
    tail_mode: str = "pad",
    budget=None,
) -> EquilibriumDiagnostics:
    mu = mu_cesaro(cf, t, n, k, tail_mode, budget)
    h = entropy_depth(mu)
    e = energy_depth(cf, t, mu, budget)
    upper = pressure_sequence(cf, t, n, budget).fekete_upper
    defect = invariance_defect(cf, t, n, k, tail_mode, budget) if k <= n - 1 else math.nan
    return EquilibriumDiagnostics(
        t=float(t),
        level=n,
        depth=k,
        entropy_k=h,
        energy_k=e,
        pressure_upper=upper,
        gap=upper - h - e,
        invariance_defect_max=defect,
        measure=mu,
    )
