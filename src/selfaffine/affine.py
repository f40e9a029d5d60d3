"""Affine iterated function systems and the geometric cross-checks.

An affine IFS is a list of maps x -> A_i x + a_i with non-singular contractive
linear parts.  The attractor is realized by the chaos game (random iteration),
optionally driven by the depth-k conditional masses of a cylinder measure so
that the sampled orbit follows the projected equilibrium approximant rather
than the uniform Bernoulli measure.  Box counting over corner-anchored grids
gives the numerical dimension estimate used to cross-check the affinity
dimension on sampled generic translations.

Randomness: numpy's PCG64 behind ``default_rng``; 64-bit seeds.  Chains of the
chaos game draw from per-chain streams created with ``SeedSequence.spawn``, so
a fixed (seed, chains) pair reproduces the cloud bit for bit regardless of how
the chains are scheduled.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCloudError, IFSValidationError, NumericallySingularError
from .linalg import singular_values

#: Number of independent chaos-game chains (a config value, not a worker count:
#: it changes the sampled cloud, so it is fixed by default).
DEFAULT_CHAINS = 512

#: Smallest raster side ``render_pgm`` accepts.
MIN_RESOLUTION = 16


@dataclass
class AffineIFS:
    """Maps x -> A_i x + a_i in dimension d.

    Construction checks only shapes and finiteness; run ``validate_ifs`` for
    the mathematical preconditions (tests may bypass it deliberately)."""

    dimension: int
    matrices: np.ndarray
    translations: np.ndarray
    name: str = "ifs"

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=float)
        self.translations = np.asarray(self.translations, dtype=float)
        d = self.dimension
        if self.matrices.ndim != 3 or self.matrices.shape[1:] != (d, d):
            raise ValueError(f"matrices must have shape (k, {d}, {d}), got {self.matrices.shape}")
        if self.translations.shape != (self.matrices.shape[0], d):
            raise ValueError(
                f"translations must have shape ({self.matrices.shape[0]}, {d}), "
                f"got {self.translations.shape}"
            )
        if self.matrices.shape[0] < 1:
            raise ValueError("an IFS needs at least one map")
        if not (np.all(np.isfinite(self.matrices)) and np.all(np.isfinite(self.translations))):
            raise ValueError("IFS entries must be finite")

    @property
    def n_maps(self) -> int:
        return self.matrices.shape[0]

    def contraction_ratios(self) -> np.ndarray:
        """Largest singular value of each linear part."""
        return np.linalg.svd(self.matrices, compute_uv=False)[:, 0]

    def bounding_radius(self) -> float:
        """Radius of a ball around the origin mapped into itself by every map."""
        s_max = float(self.contraction_ratios().max())
        if s_max >= 1.0:
            raise IFSValidationError(f"IFS is not contractive (max ratio {s_max:g})")
        a_max = float(np.linalg.norm(self.translations, axis=1).max())
        return a_max / (1.0 - s_max)

    def with_translations(self, flat) -> "AffineIFS":
        """Same linear parts with a new translation bundle (k*d flat coords)."""
        flat = np.asarray(flat, dtype=float).reshape(self.n_maps, self.dimension)
        return AffineIFS(self.dimension, self.matrices.copy(), flat, name=self.name)

    def content_hash(self) -> str:
        h = hashlib.sha256(b"affine-ifs")
        h.update(np.int64(self.dimension).tobytes())
        h.update(np.int64(self.n_maps).tobytes())
        h.update(self.matrices.tobytes())
        h.update(self.translations.tobytes())
        return h.hexdigest()


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_ifs(ifs: AffineIFS) -> ValidationReport:
    """Hard errors: fewer than two maps, singular or expanding linear part.
    The operator-norm < 1/2 hypothesis is only a warning; the dimension
    computation is defined without it."""
    report = ValidationReport()
    if ifs.n_maps < 2:
        report.errors.append(f"IFS has {ifs.n_maps} map(s); at least 2 required")
    for i, A in enumerate(ifs.matrices):
        try:
            svals = singular_values(A)
        except NumericallySingularError as exc:
            report.errors.append(f"map {i}: {exc}")
            continue
        if svals[0] >= 1.0:
            report.errors.append(
                f"map {i}: not contractive (largest singular value {svals[0]:.6g})"
            )
        elif svals[0] >= 0.5:
            report.warnings.append(
                f"map {i}: operator norm {svals[0]:.6g} >= 1/2; the norm-1/2 "
                "hypothesis behind the generic-translation dimension guarantee fails"
            )
    return report


def sample_translations(d: int, n_maps: int, count: int, radius: float, seed: int) -> np.ndarray:
    """Uniform samples from the cube [-radius, radius]^(d * n_maps), one row
    per sampled translation bundle."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.uniform(-radius, radius, size=(count, d * n_maps))


@dataclass
class PointCloud:
    points: np.ndarray
    seed: int
    driver: str


def _driver_tables(ifs: AffineIFS, driver):
    """Resolve a chaos-game driver into (iid cumulative probs, conditional
    cumulative masses, context depth, provenance tag).  The conditional table
    is (m, contexts): column c holds context c's cumulative masses."""
    from .equilibrium import CylinderMeasure

    m = ifs.n_maps
    if driver is None:
        probs = np.full(m, 1.0 / m)
        return np.cumsum(probs), None, 0, "uniform"
    if isinstance(driver, CylinderMeasure):
        if driver.n_symbols != m:
            raise ValueError("driver measure is over a different alphabet")
        k = driver.depth
        if k == 1:
            return np.cumsum(driver.masses), None, 0, driver.provenance
        rows = driver.masses.reshape(m ** (k - 1), m)
        row_sums = rows.sum(axis=1, keepdims=True)
        cond = np.where(row_sums > 0, rows / np.where(row_sums > 0, row_sums, 1.0), 1.0 / m)
        return None, np.ascontiguousarray(np.cumsum(cond, axis=1).T), k - 1, driver.provenance
    probs = np.asarray(driver, dtype=float)
    with np.errstate(all="ignore"):
        total = probs.sum()  # inf when finite weights overflow
    if (probs.shape != (m,) or not np.isfinite(probs).all() or probs.min() < 0
            or not 0 < total < math.inf):
        raise ValueError(
            "weight driver must be a finite, nonnegative vector with positive, finite sum, "
            "one entry per map"
        )
    probs = probs / total
    return np.cumsum(probs), None, 0, f"weights({probs.tolist()})"


def attractor_points(
    ifs: AffineIFS,
    count: int,
    burn_in: int = 200,
    seed: int = 0,
    driver=None,
    chains: int = DEFAULT_CHAINS,
) -> PointCloud:
    """Chaos-game realization of the attractor.

    Runs ``chains`` independent chains from the origin, discards ``burn_in``
    iterates per chain, and writes the chains' tails in place, chain-major,
    into ``count`` points: the first ``count % chains`` chains keep one
    iterate more than the rest.  All points stay inside the invariant ball."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")
    ifs.bounding_radius()  # raises if not contractive
    m = ifs.n_maps
    n_chains = min(chains, count)
    base, extra = divmod(count, n_chains)
    keep = base + (1 if extra else 0)
    total_steps = burn_in + keep

    iid_cum, cond_cum, ctx_depth, tag = _driver_tables(ifs, driver)
    # step-major: row ``step`` holds every chain's uniform for that step
    uniforms = np.empty((total_steps, n_chains))
    for c, stream in enumerate(np.random.SeedSequence(seed).spawn(n_chains)):
        uniforms[:, c] = np.random.default_rng(stream).random(total_steps)

    d = ifs.dimension
    points = np.empty((count, d))
    longer = points[: extra * keep].reshape(extra, keep, d)  # (chain, step, d) views
    shorter = points[extra * keep :].reshape(n_chains - extra, base, d)
    x = np.zeros((n_chains, d))
    ctx = np.zeros(n_chains, dtype=np.int64)
    ctx_size = m**ctx_depth if ctx_depth else 1
    for step in range(total_steps):
        r = uniforms[step]
        if cond_cum is None:
            sym = np.searchsorted(iid_cum, r, side="right")
        else:
            # the number of the context row's cumulative masses below r
            sym = (cond_cum.take(ctx, axis=1) < r).sum(axis=0)
            ctx = (ctx * m + sym) % ctx_size
        sym = np.minimum(sym, m - 1)
        maps = ifs.matrices.take(sym, axis=0)
        x = np.einsum("cij,cj->ci", maps, x) + ifs.translations.take(sym, axis=0)
        i = step - burn_in
        if i >= 0:
            longer[:, i] = x[:extra]
            if i < base:
                shorter[:, i] = x[extra:]
    return PointCloud(points=points, seed=seed, driver=tag)


@dataclass
class BoxDimensionResult:
    estimate: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    residual: float


def check_scales(scales) -> list[float]:
    """The box-counting scales as floats: at least 3, finite, positive and
    strictly decreasing, else ValueError."""
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    if not all(0 < s < math.inf for s in scales) or any(
        b >= a for a, b in zip(scales, scales[1:])
    ):
        raise ValueError("scales must be finite, positive and strictly decreasing")
    return scales


def _occupied_cells(columns, radices: list[int]) -> np.ndarray:
    """The distinct cells of a grid, as a (K, d) integer array in sorted order.

    ``columns`` is an iterator over the d per-axis cell-index arrays of the
    same N items, each a fresh int64 array; the axis-j entries lie in
    [0, radices[j]).  They are packed into one mixed-radix key as they come,
    so only one of them is alive beside the key.  The distinct keys are the
    sorted keys that differ from their predecessor."""
    if math.prod(radices) >= 2**62:  # mixed-radix key would overflow int64
        return np.unique(np.stack(list(columns), axis=1), axis=0)
    key = next(columns)
    for radix, column in zip(radices[1:], columns):
        key *= radix
        key += column
    key.sort()
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    return np.stack(np.unravel_index(key, radices), axis=1)


def box_dimension(cloud, scales) -> BoxDimensionResult:
    """Least-squares slope of log N(delta) against log(1/delta) over
    corner-anchored grid covers.

    The cloud's lower corner and extent are taken one coordinate column at a
    time, and a cloud with a non-finite coordinate is rejected, as is a scale
    at which an axis would need 2^63 or more cells.  The scales
    are counted from finest to coarsest.  A scale with the same float mantissa
    as the next finer one is that scale times 2^s, and its occupied cells are
    the finer grid's cells shifted right by s bits, so only the finer grid's
    few occupied cells are read.  The count is the one a pass over the points
    would give: dividing by 2^s is exact in floating point (barring subnormal
    quotients, whose floors are 0 either way), so
    floor(u / (delta * 2^s)) == floor(u / delta) >> s for every coordinate
    offset u >= 0 from the cloud's lower corner.  Any other scale costs one
    pass over the points, one column at a time.  Either way the occupied cells
    are the distinct packed cell keys, found by sorting the keys in place."""
    points = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    scales = check_scales(scales)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError(f"expected a nonempty (N, d) point array, got shape {points.shape}")
    # nan and inf propagate into a column's min or its extent
    mins = [float(column.min()) for column in points.T]
    extent = [float(column.max()) - lo for column, lo in zip(points.T, mins)]
    if not all(math.isfinite(v) for v in mins + extent):
        raise ValueError("cannot box-count a cloud with non-finite coordinates or extent")
    if not any(e > 0 for e in extent):
        raise DegenerateCloudError("degenerate cloud: all points coincide")

    counts = []
    cells, finer = None, (None, None)  # occupied cells and frexp of the finer scale
    for delta in reversed(scales):
        if not all(e / delta < 2**63 for e in extent):
            raise ValueError(
                f"box scale {delta!r} is too small for the cloud: its cell indices "
                "overflow 64-bit integers"
            )
        radices = [math.floor(e / delta) + 1 for e in extent]
        mantissa, exponent = math.frexp(delta)
        if mantissa == finer[0]:
            shift = exponent - finer[1]
            cells = _occupied_cells((column >> shift for column in cells.T), radices)
        else:
            # the quotients are >= 0, so the truncating cast is the floor
            cells = _occupied_cells(
                (((column - lo) / delta).astype(np.int64) for column, lo in zip(points.T, mins)),
                radices,
            )
        counts.append(len(cells))
        finer = mantissa, exponent
    counts.reverse()
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return BoxDimensionResult(
        estimate=float(slope), scales=tuple(scales), counts=tuple(counts), residual=residual
    )


def render_pgm(cloud, resolution: int, bounds=None) -> bytes:
    """Binary PGM (P5) raster of hit counts, log-scaled to 8 bits.

    Byte-exact for fixed inputs: header ``P5\\n<w> <h>\\n255\\n`` followed by
    row-major bytes, top row = largest y."""
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    points = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    header = b"P5\n%d %d\n255\n" % (resolution, resolution)
    if len(points) == 0:
        return header + bytes(resolution * resolution)

    xs = points[:, 0]
    ys = points[:, 1] if points.shape[1] >= 2 else np.zeros(len(points))
    if bounds is None:
        bounds = ((float(xs.min()), float(xs.max())), (float(ys.min()), float(ys.max())))
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_lo + 0.5

    px = np.clip(((xs - x_lo) / (x_hi - x_lo) * resolution).astype(np.int64), 0, resolution - 1)
    py = np.clip(((ys - y_lo) / (y_hi - y_lo) * resolution).astype(np.int64), 0, resolution - 1)
    row = resolution - 1 - py
    hits = np.bincount(row * resolution + px, minlength=resolution * resolution)
    c_max = hits.max()
    if c_max == 0:
        img = np.zeros(resolution * resolution, dtype=np.uint8)
    else:
        img = np.rint(255.0 * np.log1p(hits) / np.log1p(c_max)).astype(np.uint8)
    return header + img.tobytes()
