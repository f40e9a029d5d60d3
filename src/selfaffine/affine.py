"""Affine iterated function systems and the geometric cross-checks.

An affine IFS is a list of maps x -> A_i x + a_i with non-singular contractive
linear parts.  The attractor is realized by the chaos game (random iteration),
driven by the depth-k conditional masses of a cylinder measure: the uniform
Bernoulli measure (depth 1) by default, or the projected equilibrium
approximant.  Box counting over corner-anchored grids gives the numerical
dimension estimate used to cross-check the affinity dimension on sampled
generic translations.

Randomness: numpy's PCG64 behind ``default_rng``; 64-bit seeds.  The chains
of a chaos game draw from one ``default_rng(seed)``, one ``random`` call per
chunk of steps into a (step, chain) array; a stream split across ``random``
calls gives the same doubles as one call, so a fixed (seed, chains) pair
reproduces the cloud bit for bit.

``ChaosGame`` plays the game in one stepping loop and keeps no points: what
grows with the number of points is a tape of the chains' symbols (b bits per
point, for the least power of two b with 2^b >= m: one bit for two maps, a
byte for 17 to 256) and each chain's state at the start of each chunk of
steps (d / 8 bytes per point), from which it replays the points, many
chunks at once.  Beside these the loop holds one chunk's uniforms, symbols
and states and one step's maps.  ``ChaosGame.points``
scatters one replay into the chain-major cloud, 8 d bytes per point, for a
caller that needs the array.  Box counting and rendering read a point array
``CHUNK_POINTS`` rows at a time, or a replay ``CHUNK_POINTS // 8`` lanes at
a time, holding one chunk's temporaries and the occupied cells (box
counting) or the hit counts (rendering).  On the 2,000,000-point equilibrium
``boxdim`` of the benchmark, with 512 chains, the tape takes 0.25 MB and the
checkpoints 0.51 MB; the play pass peaks at 2.6 MiB traced, these included,
and box counting at 3.0 MiB.

The chains step in lockstep, in chunks of ``CHUNK_STEPS`` steps.  A chain in
context c walks the state c * m through tables linear in the number of
contexts (one context for a depth-1 driver).  It emits the number s of its
row's cumulative masses at or below its uniform, of those below the row's
last: the symbol whose interval holds the uniform or, for a uniform at or
above the last mass (a normalized row can end just below 1), the row's last
symbol of positive mass.  So no symbol of zero mass is ever drawn, and the
next context carries the symbol drawn.  A step maps each chain's column
(x, 1) by its map's [A | a] in one einsum, summing each row left to right
with a * 1 last: for d <= 2 that is the arithmetic of A x + a, and for
d >= 3 it may differ in the last bits from numpy's pairwise-ordered ``A x``
of the earlier step-at-a-time loop (whose d = 3 pinned clouds,
``conditional-11-d3`` and ``no-burn-in-d3``, were re-recorded).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloudError, IFSValidationError, NumericallySingularError
from .linalg import MAX_DIM, singular_values

#: Number of independent chaos-game chains (a config value, not a worker count:
#: it changes the sampled cloud, so it is fixed by default).
DEFAULT_CHAINS = 512

#: Lockstep chaos-game steps per chunk: one tape record serves this many steps.
CHUNK_STEPS = 64

#: Rows per chunk of a pass over a point or cell array (box counting,
#: rendering): the pass's temporaries have this many rows, whatever the count.
CHUNK_POINTS = 2**16

#: Smallest raster side ``render_pgm`` accepts.
MIN_RESOLUTION = 16

#: Largest raster side ``render_pgm`` accepts: 16 Mi pixels, whose int64 hit
#: counts take 128 MiB.
MAX_RESOLUTION = 4096

#: Most points (``--count``) of the CLI's chaos game: at d = 4 the cloud
#: ``points`` scatters then takes 512 MiB.
MAX_POINTS = 2**24
#: Most chains (``--chains``): 4.8 KiB of play state each at d = 4, 305 MiB in all.
MAX_CHAINS = 2**16


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

    def content_hash(self) -> str:
        h = hashlib.sha256(b"affine-ifs")
        h.update(np.int64(self.dimension).tobytes())
        h.update(np.int64(self.n_maps).tobytes())
        h.update(self.matrices.tobytes())
        h.update(self.translations.tobytes())
        return h.hexdigest()


def validate_ifs(ifs: AffineIFS) -> None:
    """Raise ``IFSValidationError`` naming every hard error: fewer than two
    maps, a dimension above ``MAX_DIM`` (the per-map checks are then
    skipped), a singular or expanding linear part.  Else log a warning to
    ``selfaffine.affine`` for each operator norm >= 1/2, a hypothesis the
    dimension computation is defined without."""
    errors, warnings = [], []
    if ifs.n_maps < 2:
        errors.append(f"IFS has {ifs.n_maps} map(s); at least 2 required")
    if ifs.dimension > MAX_DIM:
        errors.append(f"dimension {ifs.dimension} is not supported (1..{MAX_DIM})")
    else:
        for i, A in enumerate(ifs.matrices):
            try:
                norm = singular_values(A)[0]
            except NumericallySingularError as exc:
                errors.append(f"map {i}: {exc}")
                continue
            if norm >= 1.0:
                errors.append(f"map {i}: not contractive (largest singular value {norm:.6g})")
            elif norm >= 0.5:
                warnings.append(
                    f"warning: map {i}: operator norm {norm:.6g} >= 1/2; the norm-1/2 "
                    "hypothesis behind the generic-translation dimension guarantee fails"
                )
    if errors:
        raise IFSValidationError("; ".join(errors))
    for warning in warnings:
        import logging  # only here: an IFS of norms below 1/2 never loads it

        logging.getLogger(__name__).warning(warning)


def sample_translations(d: int, n_maps: int, count: int, radius: float, seed: int) -> np.ndarray:
    """Uniform samples from the cube [-radius, radius]^(d * n_maps), one row
    per sampled translation bundle."""
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.uniform(-radius, radius, size=(count, d * n_maps))


def _driver_tables(ifs: AffineIFS, driver) -> tuple[np.ndarray, str]:
    """Resolve a chaos-game driver, None (the uniform Bernoulli measure) or a
    ``CylinderMeasure`` of depth k, into its (contexts, m) table of cumulative
    conditional masses and its provenance tag.  Row c holds context c's
    normalized cumulative masses (uniform if c has no mass); context c packs
    the last k - 1 symbols, so a depth-1 driver has one context."""
    from .equilibrium import CylinderMeasure

    m = ifs.n_maps
    if driver is None:
        driver = CylinderMeasure(m, 1, np.full(m, 1.0 / m), provenance="uniform")
    if not isinstance(driver, CylinderMeasure):
        raise TypeError(f"driver must be None or a CylinderMeasure, got {type(driver).__name__}")
    if driver.n_symbols != m:
        raise ValueError("driver measure is over a different alphabet")
    rows = driver.masses.reshape(-1, m)
    row_sums = rows.sum(axis=1, keepdims=True)
    cond = np.where(row_sums > 0, rows / np.where(row_sums > 0, row_sums, 1.0), 1.0 / m)
    return np.cumsum(cond, axis=1), driver.provenance


def _context_walk(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of the conditional walk, each linear in the number of contexts.

    A chain in context c is in state z = c * m.  Column z of the
    (m, (contexts - 1) * m + 1) view ``cum_rows`` is context c's cumulative
    row (a window on one flat array of the rows), with +inf for every entry
    that reaches the row's last value.  So the number s of its entries at or
    below a uniform is a symbol of positive mass, and the chain emits
    ``symbol[z + s] = s`` and moves to ``next_state[z + s]``, the state of
    context (c * m + s) mod contexts."""
    contexts, m = cum.shape
    flat = np.where(cum < cum[:, -1:], cum, np.inf).ravel()
    cum_rows = np.lib.stride_tricks.sliding_window_view(flat, m).T
    z = np.arange(contexts * m)
    return cum_rows, z % contexts * m, z % m


class ChaosGame:
    """The chaos game, played once and kept as a tape to replay.

    ``chains`` independent chains start from the origin, all drawing from
    one stream, and discard ``burn_in`` iterates; their tails are the
    ``count`` kept points, and the first ``count % chains`` chains keep one
    more than the rest.  All points stay inside the invariant ball.
    ``count`` is at most ``MAX_POINTS`` and ``chains`` at most
    ``MAX_CHAINS``, checked before anything is allocated.

    The play pass moves the chains in lockstep, ``CHUNK_STEPS`` steps at a
    time.  For each chunk that keeps an iterate it records every chain's
    symbols on a tape and every chain's state at the chunk's start, and it
    keeps each coordinate's least and greatest kept iterate in ``mins`` and
    ``maxs``.  A symbol takes b bits, the least power of two with 2^b >= m,
    and the tape packs a chain's steps 8 / b to a byte (b = 16 and up take
    a word of b bits each): the play pass ORs each chunk's symbols, shifted
    into place, onto the tape.  ``replay`` restarts all recorded chunks from
    their checkpoints at once, one lane per (chunk, chain), in groups of at
    most ``CHUNK_POINTS // 8`` lanes.  A group's step shifts and masks one
    tape row into the step's symbols, then makes one gather of the maps'
    ``[A | a]`` and one einsum laid out as the play pass's, so the lanes give
    the played points bit for bit.  At 8192 lanes a group takes under 1 MiB
    in d = 2, and the benchmark's game is box-counted as fast as with groups
    of 2^16 lanes, at under half the traced peak.  ``points`` scatters one
    replay into the chain-major cloud."""

    def __init__(self, ifs: AffineIFS, count: int, burn_in: int = 200, seed: int = 0,
                 driver=None, chains: int = DEFAULT_CHAINS):
        if not 1 <= count <= MAX_POINTS:
            raise ValueError(f"count must be in 1..{MAX_POINTS} (MAX_POINTS), got {count}")
        if burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {burn_in}")
        if not 1 <= chains <= MAX_CHAINS:
            raise ValueError(f"chains must be in 1..{MAX_CHAINS} (MAX_CHAINS), got {chains}")
        ifs.bounding_radius()  # raises if not contractive
        d = ifs.dimension
        self.count = count
        n_chains = self._n_chains = min(chains, count)
        base, extra = self._base, self._extra = divmod(count, n_chains)
        total_steps = burn_in + base + (1 if extra else 0)
        chunk = min(CHUNK_STEPS, total_steps)
        cum, self.driver = _driver_tables(ifs, driver)
        # [:, :, i] is the transpose of [A_i | a_i].  With the summed index j
        # outermost in the gathered maps, numpy's einsum adds the terms in
        # order of j for any number of chains; with j innermost it pairs them
        # when the chain axis has length 1
        columns = np.concatenate((ifs.matrices, ifs.translations[:, :, None]), axis=2)
        self._columns = np.ascontiguousarray(columns.transpose(2, 1, 0))
        first = burn_in // chunk  # the first chunk that keeps an iterate
        lanes = (-(-total_steps // chunk) - first) * n_chains
        #: tail index of the iterate after step 0 of the first recorded chunk
        self._lead = first * chunk - burn_in
        # column (chunk - first) * n_chains + c is lane (chunk, chain c), and
        # its step s is in row s // per, from bit s % per * bits up; the steps
        # past the end of the game stay on symbol 0 and keep nothing
        bits = self._bits = 1 << (max(ifs.n_maps - 1, 1).bit_length() - 1).bit_length()
        word = np.dtype(f"uint{max(bits, 8)}")
        per = word.itemsize * 8 // bits
        self._chunk = chunk
        self._tape = np.zeros((-(-chunk // per), lanes), dtype=word)
        self._starts = np.empty((d, lanes))
        # the least and greatest kept coordinates; nan propagates
        lowest, highest = np.full(d, math.inf), np.full(d, -math.inf)
        for start, sym, states in self._play(seed, total_steps, chunk, cum):
            lane = (start // chunk - first) * n_chains
            if lane < 0:
                continue
            packed, sym = self._tape[:, lane : lane + n_chains], sym.astype(word)
            for j in range(min(per, len(sym))):  # steps j, j + per, ... at bit j * b
                rows = sym[j::per]
                packed[: len(rows)] |= rows << j * bits
            self._starts[:, lane : lane + n_chains] = states[0, :d]
            # the chunk's kept iterates, from tail index lo on: every chain
            # keeps those before tail index base, the longer chains also base
            steps = len(sym)
            lo, hi = max(start - burn_in, 0), start + steps - burn_in
            kept = states[steps + 1 - max(hi - lo, 0) :, :d]
            every, longer_only = kept[: base - lo], kept[base - lo :, :, :extra]
            for iterates in (every, longer_only):
                if iterates.size:
                    np.minimum(lowest, iterates.min(axis=(0, 2)), out=lowest)
                    np.maximum(highest, iterates.max(axis=(0, 2)), out=highest)
        self.mins, self.maxs = tuple(lowest.tolist()), tuple(highest.tolist())

    @property
    def dimension(self) -> int:
        return len(self.mins)

    def _play(self, seed, total_steps, chunk, cum):
        """Play the game: for each chunk, yield its first step ``start``, its
        symbols (step, chain) and its states (step + 1, d + 1, chain).  Row 0
        of the states is the state carried into the chunk, row s + 1 the
        state after its step s, and coordinate row d stays 1.  The arrays are
        overwritten by the next chunk."""
        n_chains, columns = self._n_chains, self._columns
        _, d, m = columns.shape
        rng = np.random.default_rng(seed)
        uniforms = np.empty((chunk, n_chains))  # (step, chain)
        states = np.ones((chunk + 1, d + 1, n_chains))
        states[0, :d] = 0.0
        maps = np.empty((d + 1, d, n_chains))  # one step's [A | a] columns
        cum_rows, next_state, symbol = _context_walk(cum)
        state = np.zeros(n_chains, dtype=np.intp)
        cum_row = np.empty((m, n_chains))
        reached = np.empty((m, n_chains), dtype=bool)
        n_reached = np.empty(n_chains, dtype=np.intp)
        for start in range(0, total_steps, chunk):
            steps = min(chunk, total_steps - start)
            u = rng.random(out=uniforms[:steps])
            moved = np.empty((steps, n_chains), dtype=np.intp)
            for r, z_s in zip(u, moved):
                # z + s, with s the number of the context row's masses at or below r
                # mode="clip": indices are in range, and "raise" would buffer ``out``
                cum_rows.take(state, axis=1, out=cum_row, mode="clip")
                np.less_equal(cum_row, r, out=reached)
                np.add.reduce(reached, axis=0, out=n_reached)
                np.add(state, n_reached, out=z_s)
                next_state.take(z_s, out=state, mode="clip")
            sym = symbol.take(moved)
            for s in range(steps):
                columns.take(sym[s], axis=2, out=maps, mode="clip")
                np.einsum("jic,jc->ic", maps, states[s], out=states[s + 1, :d])
            yield start, sym, states[: steps + 1]
            states[0] = states[steps]

    def _replay(self):
        """Replay the recorded chunks: for each step s of each lane group,
        yield the lanes that keep their iterate after step s, one run
        ``lane[begin:end]`` of the group's lane indices, with s and those
        iterates, a fresh (rows, d) array."""
        d, n_chains, columns = self.dimension, self._n_chains, self._columns
        chunk, bits, (_, lanes) = self._chunk, self._bits, self._tape.shape
        per, mask = self._tape.itemsize * 8 // bits, (1 << bits) - 1
        width = max(CHUNK_POINTS // 8, 1)  # lanes per group
        for offset in range(0, lanes, width):
            lane = np.arange(offset, min(offset + width, lanes))
            group = slice(offset, offset + len(lane))
            # a lane keeps the iterate after its step s when tail + s >= 0 and
            # past_end + s < 0: ``tail`` is its tail index after step 0, and
            # ``past_end`` that minus its chain's kept count.  Neither
            # decreases along the lanes, so the lanes kept at step s are one
            # run, between two binary searches
            tail = lane // n_chains * chunk + self._lead
            past_end = tail - np.where(lane % n_chains < self._extra, self._base + 1, self._base)
            state = np.ones((d + 1, len(lane)))
            state[:d] = self._starts[:, group]
            maps = np.empty((d + 1, d, len(lane)))
            sym = np.empty(len(lane), dtype=self._tape.dtype)
            for s in range(chunk):
                row, slot = divmod(s, per)
                np.right_shift(self._tape[row, group], slot * bits, out=sym)
                np.bitwise_and(sym, mask, out=sym)
                columns.take(sym, axis=2, out=maps, mode="clip")
                state, carried = np.empty_like(state), state
                state[d] = 1.0
                np.einsum("jic,jc->ic", maps, carried, out=state[:d])
                begin, end = np.searchsorted(tail, -s), np.searchsorted(past_end, -s)
                if begin < end:
                    yield lane[begin:end], s, state[:d, begin:end].T

    def replay(self):
        """Yield the kept iterates as (rows, d) arrays of at most
        ``CHUNK_POINTS // 8`` rows, each a fresh array.  Together they are
        the rows of ``points()``, in an order of their own."""
        return (rows for _, _, rows in self._replay())

    def points(self) -> np.ndarray:
        """The kept iterates as the chain-major (count, d) cloud, from one
        replay: chain c's tail starts at row c * base + min(c, extra)."""
        points = np.empty((self.count, self.dimension))
        chunk, n_chains = self._chunk, self._n_chains
        for lane, s, rows in self._replay():
            chain = lane % n_chains
            points[chain * self._base + np.minimum(chain, self._extra)
                   + lane // n_chains * chunk + (self._lead + s)] = rows
        return points


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


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D key array (sorted in place) or the
    distinct rows of a 2-D one, in sorted order."""
    if keys.ndim == 2:
        return np.unique(keys, axis=0)
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _row_chunks(rows: np.ndarray):
    """The rows of an array, ``CHUNK_POINTS`` at a time."""
    return (rows[start : start + CHUNK_POINTS] for start in range(0, len(rows), CHUNK_POINTS))


def _chunked(cloud):
    """A cloud's lower and upper corners and a function that reads its points
    as (rows, d) arrays of at most ``CHUNK_POINTS`` rows; None for a cloud
    without points.

    A ``ChaosGame`` brings the corners of its play pass and is replayed by
    each read.  A point array is read in row slices, and its corners are
    taken one column at a time; nan and inf propagate into them."""
    if isinstance(cloud, ChaosGame):
        return cloud.mins, cloud.maxs, cloud.replay
    points = np.asarray(cloud, dtype=float)
    if len(points) == 0:
        return None
    if points.ndim != 2:
        raise ValueError(f"expected an (N, d) point array, got shape {points.shape}")
    mins = tuple(float(column.min()) for column in points.T)
    maxs = tuple(float(column.max()) for column in points.T)
    return mins, maxs, lambda: _row_chunks(points)


def _occupied_cells(chunks, grids) -> list[np.ndarray]:
    """The distinct cells of each of several grids over the same items, each
    as a (K, d) integer array in sorted order, from one read of ``chunks``.

    The items are the rows of the (rows, d) arrays ``chunks`` yields.  A grid
    is a pair ``(to_cells, radices)``: ``to_cells(j, column)`` maps a chunk's
    axis-j column to a fresh int64 array of cell indices in [0, radices[j]).
    For each grid in turn a chunk's indices are packed into one mixed-radix
    key as they come, so only one of them is alive beside the key, or, when
    the key would overflow int64, stacked into (rows, d) cells.  A pass holds
    one chunk's temporaries and, per grid, the distinct keys found so far:
    each chunk's, merged into one sorted set whenever the unmerged ones
    outnumber it and ``CHUNK_POINTS``, so with K occupied cells and chunks of
    at most ``CHUNK_POINTS`` rows they are at most 2 K + 2 ``CHUNK_POINTS``
    keys per grid, whatever the number of rows."""
    packed = [math.prod(radices) < 2**62 for _, radices in grids]
    found = [[] for _ in grids]  # per grid, distinct keys; [0] is the merged set
    for chunk in chunks:
        for (to_cells, radices), pack, keys in zip(grids, packed, found):
            columns = (to_cells(j, column) for j, column in enumerate(chunk.T))
            if pack:
                key = next(columns)
                for radix, column in zip(radices[1:], columns):
                    key *= radix
                    key += column
            else:
                key = np.stack(list(columns), axis=1)
            keys.append(_distinct(key))
            if sum(map(len, keys[1:])) > max(len(keys[0]), CHUNK_POINTS):
                keys[:] = [_distinct(np.concatenate(keys))]
    cells = []
    for (_, radices), pack, keys in zip(grids, packed, found):
        keys = _distinct(np.concatenate(keys))
        cells.append(np.stack(np.unravel_index(keys, radices), axis=1) if pack else keys)
    return cells


def box_dimension(cloud, scales) -> BoxDimensionResult:
    """Least-squares slope of log N(delta) against log(1/delta) over
    corner-anchored grid covers.

    ``cloud`` is a point array or a ``ChaosGame``.  An array's lower corner
    and extent are taken one coordinate column at a time; a ``ChaosGame``
    keeps them from its play pass.  A cloud with a non-finite coordinate is
    rejected, as is a scale at which an axis would need 2^63 or more cells.
    The scales are counted from finest to coarsest.  A scale with the same
    float mantissa as the next finer one is that scale times 2^s, and its
    occupied cells are the finer grid's cells shifted right by s bits, so
    only the finer grid's few occupied cells are read.  The count is the one a pass over the points
    would give: dividing by 2^s is exact in floating point (barring subnormal
    quotients, whose floors are 0 either way), so
    floor(u / (delta * 2^s)) == floor(u / delta) >> s for every coordinate
    offset u >= 0 from the cloud's lower corner.  All other scales, the
    finest always among them, are counted together in one pass over the
    points, ``CHUNK_POINTS`` rows at a time; for a ``ChaosGame`` that pass is
    one replay.  Either way the occupied cells are the distinct packed cell keys,
    found by sorting each chunk's keys in place and merging the chunks'
    distinct keys (see ``_occupied_cells``), so beside the cloud, or the
    game's tape and checkpoints, the pass holds one chunk's columns and keys
    and the distinct keys of each grid it counts."""
    scales = check_scales(scales)
    chunked = _chunked(cloud)
    if chunked is None:
        raise ValueError("cannot box-count a cloud without points")
    mins, maxs, read = chunked
    # nan and inf propagate into a corner or the extent
    extent = [hi - lo for lo, hi in zip(mins, maxs)]
    if not all(math.isfinite(v) for v in (*mins, *extent)):
        raise ValueError("cannot box-count a cloud with non-finite coordinates or extent")
    if not any(e > 0 for e in extent):
        raise DegenerateCloudError("degenerate cloud: all points coincide")

    grids = []  # (delta, radices, shift from the finer grid or None), finest first
    finer = None, None  # frexp of the finer scale
    for delta in reversed(scales):
        if not all(e / delta < 2**63 for e in extent):
            raise ValueError(
                f"box scale {delta!r} is too small for the cloud: its cell indices "
                "overflow 64-bit integers"
            )
        mantissa, exponent = math.frexp(delta)
        shift = exponent - finer[1] if mantissa == finer[0] else None
        grids.append((delta, [math.floor(e / delta) + 1 for e in extent], shift))
        finer = mantissa, exponent
    # the quotients are >= 0, so the truncating cast is the floor
    counted = _occupied_cells(read(), [
        (lambda j, column, delta=delta: ((column - mins[j]) / delta).astype(np.int64), radices)
        for delta, radices, shift in grids if shift is None
    ])
    counts = []
    for delta, radices, shift in grids:
        if shift is None:
            cells = counted.pop(0)
        else:
            (cells,) = _occupied_cells(
                _row_chunks(cells), [(lambda j, column: column >> shift, radices)]
            )
        counts.append(len(cells))
    counts.reverse()
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return BoxDimensionResult(
        estimate=float(slope), scales=tuple(scales), counts=tuple(counts), residual=residual
    )


def render_pgm(cloud, resolution: int) -> bytes:
    """Binary PGM (P5) raster of hit counts, log-scaled to 8 bits.

    Byte-exact for fixed inputs: header ``P5\\n<w> <h>\\n255\\n`` followed by
    row-major bytes, top row = largest y.  ``cloud`` is a point array or a
    ``ChaosGame``, read as ``box_dimension`` reads it: the bounds are an
    array's column extremes or the game's play-pass ones, and the pixels are
    hit ``CHUNK_POINTS`` points at a time (a ``ChaosGame`` is replayed once).
    So beside the cloud, or the game's tape and checkpoints, it holds the
    integer hit counts, the raster and one chunk's temporaries.  The side
    is ``MIN_RESOLUTION`` to ``MAX_RESOLUTION`` pixels."""
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ValueError(
            f"resolution must be in {MIN_RESOLUTION}..{MAX_RESOLUTION}, got {resolution}"
        )
    header = b"P5\n%d %d\n255\n" % (resolution, resolution)
    chunked = _chunked(cloud)
    if chunked is None:
        return header + bytes(resolution * resolution)
    mins, maxs, read = chunked

    flat = len(mins) < 2  # a 1-D cloud is drawn at y = 0
    x_lo, x_hi = mins[0], maxs[0]
    y_lo, y_hi = (0.0, 0.0) if flat else (mins[1], maxs[1])
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_lo + 0.5

    def pixel(values, lo, hi):
        return np.clip(((values - lo) / (hi - lo) * resolution).astype(np.int64), 0, resolution - 1)

    hits = np.zeros(resolution * resolution, dtype=np.int64)
    for rows in read():
        px = pixel(rows[:, 0], x_lo, x_hi)
        py = pixel(np.zeros(len(rows)) if flat else rows[:, 1], y_lo, y_hi)
        np.add.at(hits, (resolution - 1 - py) * resolution + px, 1)
    # every point hits a pixel, so the largest count is at least 1
    img = np.rint(255.0 * np.log1p(hits) / np.log1p(hits.max())).astype(np.uint8)
    return header + img.tobytes()
