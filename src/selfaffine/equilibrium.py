"""Finite-level equilibrium-measure approximants and their diagnostics.

The existence proof for equilibrium measures is constructive at every finite
level, and ``diagnostics`` builds exactly those finite objects, as the two
tables of its snapshot:

* ``nu``: the level-n Gibbs-like weights, mass proportional to the potential
  value of each word (the equality case of the finite-level Jensen
  inequality).
* ``measure``: the Cesaro average of the shifted weights,
  (1/n) * sum_{j=0..n-1} nu_n o shift^-j, with nu_n placed on the periodic
  points w w w ..., materialized as a depth-k cylinder table.  The window at
  shift j is the cyclic window (w + w)[j : j + k], so the table is the
  average over the n rotations of each word.  Since shift^n fixes every
  periodic point, the table is exactly shift-invariant at every n and its
  tables at different depths are marginals of one another; its weak-* limits
  are those of the construction in the proof.

Entropy and energy are the finite-depth quotients (natural log throughout).
Each consumer of level-n word values reads them, and ``log S_n``, from one
``pressure.level_log_values`` sweep, which reads no cache.  ``diagnostics``
builds its depth-k table from one ``nu`` and sweeps each level 1..n once:
each sweep gives a term of the Fekete envelope, and level k's sweep also
gives ``log S_k`` and the depth-k energy.  The sweeps pass ``check_subadditive``,
and the Jensen residual and the invariance defect are checked against their bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cylinder import NaturalCylinderFunction
from .errors import LevelOverflowError, SelfCheckError
from .linalg import rounding_allowance
from .pressure import check_subadditive, level_log_values
from .symbolic import word_str


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
        if not np.isfinite(self.masses).all():
            raise ValueError("masses must be finite")
        if self.masses.min(initial=0.0) < -1e-12:
            raise ValueError("masses must be nonnegative")
        total = float(self.masses.sum())
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"masses must sum to 1, got {total!r}")

    def rows(self):
        """(word string, mass) pairs in lexicographic (packed) order, for CSV output."""
        words = itertools.product(range(self.n_symbols), repeat=self.depth)
        for w, mass in zip(words, self.masses.tolist()):
            yield word_str(w, self.n_symbols), mass


def _cesaro(nu: CylinderMeasure, t: float, k: int) -> CylinderMeasure:
    """The depth-k cyclic Cesaro table of the level-n weights ``nu``, for
    1 <= k <= n; its provenance ``mu_cesaro(..)`` is the tag reports print."""
    m_sym, n = nu.n_symbols, nu.depth
    table = np.zeros(m_sym**k)
    for j in range(n):
        q = n - j
        if q >= k:
            table += nu.masses.reshape(m_sym**j, m_sym**k, -1).sum(axis=(0, 2))
        else:  # the window wraps: the last q symbols, then the first k - q
            wrapped = nu.masses.reshape(m_sym ** (k - q), m_sym ** (n - k), m_sym**q)
            table += wrapped.sum(axis=1).T.ravel()
    table /= n
    return CylinderMeasure(m_sym, k, table, provenance=f"mu_cesaro(n={n},t={t:g},k={k})")


def entropy_table(masses: np.ndarray) -> float:
    """-sum m log m over a mass table, with 0 log 0 = 0."""
    masses = np.asarray(masses, dtype=float)
    nz = masses[masses > 0]
    return float(-(nz * np.log(nz)).sum())


def entropy_depth(m: CylinderMeasure) -> float:
    """Finite-depth entropy quotient, in [0, log #I] (nats)."""
    return entropy_table(m.masses) / m.depth


def _energy(m: CylinderMeasure, lv: np.ndarray) -> float:
    """The energy quotient of ``m`` from the log values of its level."""
    return float(m.masses @ lv) / m.depth


def _defect(nu: CylinderMeasure, t: float, mu: CylinderMeasure) -> float:
    """max |mu([i]) - mu(shift^-1 [i])| over the words i of ``mu``, read from the depth-(k+1)
    table of ``nu``; at k = n its windows are rotated words, so it is max |mu(i) - mu(rot i)|."""
    m_sym, k = mu.n_symbols, mu.depth
    if k == nu.depth:
        return float(np.abs(mu.masses - mu.masses.reshape(-1, m_sym).T.ravel()).max())
    deep = _cesaro(nu, t, k + 1).masses
    direct = deep.reshape(m_sym**k, m_sym).sum(axis=1)
    preimage = deep.reshape(m_sym, m_sym**k).sum(axis=0)
    return float(np.abs(direct - preimage).max())


@dataclass
class EquilibriumDiagnostics:
    """Finite-level snapshot of the variational quantities at one (t, n, k);
    ``measure`` is the depth-k Cesaro table the snapshot was computed from
    and ``nu`` the level-n weights it averages.

    ``jensen_residual_k`` is log S_k / k - entropy_k - energy_k, at least 0
    by the finite-level Jensen inequality.  ``invariance_defect_max`` is the
    max over level-k words i of |mu_n([i]) - mu_n(shift^-1 [i])|, two sums of
    the same nu masses: rounding error only, at most 2 (n + m^(n-k)) eps for
    an m-symbol system, with eps the double-precision machine epsilon."""

    entropy_k: float
    energy_k: float
    pressure_upper: float
    jensen_residual_k: float
    invariance_defect_max: float
    measure: CylinderMeasure
    nu: CylinderMeasure


def diagnostics(cf: NaturalCylinderFunction, t: float, n: int, k: int) -> EquilibriumDiagnostics:
    """The depth-k Cesaro table of the level-n weights at ``t``, with its
    entropy and energy quotients, the Fekete upper bound on the pressure
    through level n, the Jensen residual and the invariance defect, for
    1 <= k <= n.  Raises ``LevelOverflowError`` if the weights do not sum to
    1 (at large ``t``, log S_n is rounded to an ulp of the largest log-value),
    and ``SelfCheckError`` if the residual is below minus its rounding
    allowance (the masses of ``nu`` carry the rounding of log S_n, which the
    energy scales) or the defect is above its bound."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    log_s, lv = level_log_values(cf, t, n)
    try:
        nu = CylinderMeasure(cf.n_symbols, n, np.exp(lv - log_s), provenance=f"nu(n={n},t={t:g})")
    except ValueError as exc:  # the masses are finite and nonnegative: it is their sum
        raise LevelOverflowError(
            f"level {n} at t = {t!r}: log S_n = {log_s!r} is too coarse to normalize "
            f"the word weights ({exc})"
        ) from exc
    mu = _cesaro(nu, t, k)
    defect = _defect(nu, t, mu)
    h = entropy_depth(mu)
    e = _energy(mu, lv) if k == n else None
    del lv  # not held while the lower levels are swept
    sums = []  # log S_1 .. log S_n, the last from the sweep above
    for j in range(1, n):
        log_s_j, lv = level_log_values(cf, t, j)
        sums.append(log_s_j)
        if j == k:
            e = _energy(mu, lv)
    sums.append(log_s)
    check_subadditive(cf, t, sums)
    p_k, log_m = sums[k - 1] / k, math.log(cf.n_symbols)
    residual = p_k - h - e
    allowance = (rounding_allowance(n, log_s, n * log_m) * (1 + abs(e) + abs(p_k))
                 + rounding_allowance(k, sums[k - 1], k * log_m) / k)
    if residual < -allowance:
        raise SelfCheckError(f"Jensen residual {residual!r} < -{allowance!r} at t = {t!r}, k = {k}")
    bound = 2 * (n + cf.n_symbols ** (n - k)) * math.ulp(1.0)
    if defect > bound:
        raise SelfCheckError(f"invariance defect {defect!r} > {bound!r} at t = {t!r}, k = {k}")
    return EquilibriumDiagnostics(entropy_k=h, energy_k=e, jensen_residual_k=residual,
                                  pressure_upper=min(v / j for j, v in enumerate(sums, 1)),
                                  invariance_defect_max=defect, measure=mu, nu=nu)
