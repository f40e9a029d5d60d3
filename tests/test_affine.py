import hashlib
import importlib
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from systems import (
    cantor_ifs,
    generic_pair_ifs,
    random_affine_ifs,
    swap_pair_ifs,
    with_translations,
)

from selfaffine import (
    AffineIFS,
    ChaosGame,
    CylinderMeasure,
    DegenerateCloudError,
    IFSValidationError,
    box_dimension,
    diagnostics,
    NaturalCylinderFunction,
    pack_word,
    render_pgm,
    sample_translations,
    validate_ifs,
)
from selfaffine import affine
from selfaffine.affine import CHUNK_STEPS, DEFAULT_CHAINS, _driver_tables


class TestAffineIFS:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AffineIFS(2, [np.eye(3)], [[0, 0]])
        with pytest.raises(ValueError):
            AffineIFS(2, [0.5 * np.eye(2)], [[0, 0, 0]])
        with pytest.raises(ValueError):
            AffineIFS(2, [np.full((2, 2), np.nan)], [[0, 0]])

    def test_contraction_property(self):
        rng = np.random.default_rng(40)
        ifs = random_affine_ifs(rng, 3, 3)
        ratios = ifs.contraction_ratios()
        for i in range(ifs.n_maps):
            for _ in range(50):
                x, y = rng.standard_normal((2, 3))
                fx = ifs.matrices[i] @ x + ifs.translations[i]
                fy = ifs.matrices[i] @ y + ifs.translations[i]
                assert np.linalg.norm(fx - fy) <= ratios[i] * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_bounding_radius_invariance(self):
        rng = np.random.default_rng(41)
        ifs = random_affine_ifs(rng, 2, 3)
        R = ifs.bounding_radius()
        x = np.zeros(2)
        for _ in range(500):
            i = int(rng.integers(0, 3))
            x = ifs.matrices[i] @ x + ifs.translations[i]
            assert np.linalg.norm(x) <= R + 1e-9

    def test_content_hash_sensitivity(self):
        a = swap_pair_ifs()
        b = swap_pair_ifs()
        assert a.content_hash() == b.content_hash()
        c = with_translations(a, np.zeros(4))
        assert c.content_hash() != a.content_hash()


class TestValidateIFS:
    """``validate_ifs`` raises ``IFSValidationError`` naming every hard error,
    and otherwise logs one warning per map of operator norm >= 1/2."""

    @staticmethod
    def warnings(caplog, ifs):
        with caplog.at_level(logging.WARNING, logger="selfaffine.affine"):
            validate_ifs(ifs)
        return caplog.messages

    def test_boundary_norm_is_warning(self, caplog):
        ifs = AffineIFS(2, [0.5 * np.eye(2)] * 2, [[0, 0], [1, 0]])
        assert len(self.warnings(caplog, ifs)) == 2  # 0.5 is not < 0.5

    def test_mixed_warnings(self, caplog):
        ifs = AffineIFS(
            2, [np.diag([0.5, 0.25]), np.diag([0.4, 0.2])], [[0, 0], [1, 0]]
        )
        assert self.warnings(caplog, ifs) == [
            "warning: map 0: operator norm 0.5 >= 1/2; the norm-1/2 hypothesis behind "
            "the generic-translation dimension guarantee fails"
        ]

    def test_all_small_pass(self, caplog):
        ifs = AffineIFS(2, [np.diag([0.4, 0.2])] * 2, [[0, 0], [1, 0]])
        assert not self.warnings(caplog, ifs)

    def test_singular_map_is_error(self):
        ifs = AffineIFS(2, [np.diag([0.5, 0.0]), np.diag([0.4, 0.2])], [[0, 0], [1, 0]])
        with pytest.raises(IFSValidationError, match="^map 0"):
            validate_ifs(ifs)

    def test_expanding_map_is_error(self):
        ifs = AffineIFS(2, [np.diag([1.2, 0.5])] * 2, [[0, 0], [1, 0]])
        with pytest.raises(IFSValidationError):
            validate_ifs(ifs)

    def test_unsupported_dimension_is_error(self, caplog):
        """Above ``MAX_DIM`` the error names the dimension, and no per-map
        check runs (``singular_values`` does not take 5 x 5 matrices)."""
        ifs = AffineIFS(5, [0.3 * np.eye(5), 0.4 * np.eye(5)], np.zeros((2, 5)))
        message = re.escape("dimension 5 is not supported (1..4)")
        with pytest.raises(IFSValidationError, match=f"^{message}$"):
            self.warnings(caplog, ifs)
        assert not caplog.messages

    def test_single_map_is_error(self):
        ifs = AffineIFS(2, [0.5 * np.eye(2)], [[0, 0]])
        with pytest.raises(IFSValidationError):
            validate_ifs(ifs)

    def test_errors_are_joined_and_suppress_warnings(self, caplog):
        """Every hard error is named, and a rejected IFS logs no warning."""
        ifs = AffineIFS(2, [0.6 * np.eye(2), 1.2 * np.eye(2), 0.3 * np.eye(2)], np.zeros((3, 2)))
        with pytest.raises(IFSValidationError,
                           match=r"^map 1: not contractive \(largest singular value 1\.2\)$"):
            self.warnings(caplog, ifs)
        assert not caplog.messages
        message = re.escape("IFS has 1 map(s); at least 2 required; map 0: not contractive")
        with pytest.raises(IFSValidationError, match=f"^{message}"):
            validate_ifs(AffineIFS(1, [[[1.5]]], [[0.0]]))


class TestSampleTranslations:
    def test_deterministic(self):
        a = sample_translations(2, 2, 5, radius=1.0, seed=7)
        b = sample_translations(2, 2, 5, radius=1.0, seed=7)
        assert np.array_equal(a, b)

    def test_shape(self):
        samples = sample_translations(2, 2, 3, radius=1.0, seed=0)
        assert samples.shape == (3, 4)
        assert np.all(np.abs(samples) <= 1.0)

    def test_mean_statistics(self):
        radius = 2.0
        samples = sample_translations(1, 2, 10000, radius=radius, seed=1)
        sigma_mean = (radius / math.sqrt(3)) / math.sqrt(len(samples))
        assert np.all(np.abs(samples.mean(axis=0)) <= 3 * sigma_mean)

    def test_rejects_bad_radius(self):
        for radius in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="radius"):
                sample_translations(2, 2, 3, radius=radius, seed=0)


class TestAttractorPoints:
    def test_single_map_converges_to_fixed_point(self):
        # degenerate system, validation deliberately bypassed
        ifs = AffineIFS(2, [0.5 * np.eye(2)], [[1.0, 0.0]], name="single")
        points = ChaosGame(ifs, 300, burn_in=200, seed=1).points()
        fixed_point = np.array([2.0, 0.0])
        assert np.abs(points - fixed_point).max() <= 1e-9

    def test_cantor_middle_gap(self):
        xs = ChaosGame(cantor_ifs(), 100000, burn_in=200, seed=3).points()[:, 0]
        assert xs.min() >= -1e-9 and xs.max() <= 1 + 1e-9
        eps = 1e-6
        assert np.sum((xs > 1 / 3 + eps) & (xs < 2 / 3 - eps)) == 0

    def test_points_inside_bounding_ball(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            ifs = random_affine_ifs(rng, 2, 3)
            points = ChaosGame(ifs, 5000, burn_in=100, seed=9).points()
            radii = np.linalg.norm(points, axis=1)
            assert radii.max() <= ifs.bounding_radius() + 1e-9

    def test_deterministic_and_count(self):
        ifs = cantor_ifs()
        a = ChaosGame(ifs, 1001, burn_in=50, seed=5, chains=16).points()
        b = ChaosGame(ifs, 1001, burn_in=50, seed=5, chains=16).points()
        assert np.array_equal(a, b)
        assert a.shape == (1001, 1)

    def test_measure_driver(self):
        ifs = generic_pair_ifs()
        cf = NaturalCylinderFunction(ifs)
        measure = diagnostics(cf, 0.86, 8, 3).measure
        game = ChaosGame(ifs, 2000, burn_in=100, seed=2, driver=measure)
        assert game.points().shape == (2000, 2)
        assert game.driver == measure.provenance
        again = ChaosGame(ifs, 2000, burn_in=100, seed=2, driver=measure)
        assert np.array_equal(game.points(), again.points())

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="burn_in"):
            ChaosGame(cantor_ifs(), 100, burn_in=-3)
        assert len(ChaosGame(cantor_ifs(), 100, burn_in=0).points()) == 100

    def test_non_positive_chains_rejected(self):
        for chains in (0, -5):
            with pytest.raises(ValueError, match="chains"):
                ChaosGame(cantor_ifs(), 100, chains=chains)
        assert len(ChaosGame(cantor_ifs(), 100, chains=1).points()) == 100

    def test_size_limits_refused_before_the_game(self):
        """``count`` above ``MAX_POINTS`` and ``chains`` above ``MAX_CHAINS``
        are refused by name; both limits are accepted."""
        for kwargs, limit in ((dict(count=affine.MAX_POINTS + 1), "MAX_POINTS"),
                              (dict(count=100, chains=affine.MAX_CHAINS + 1), "MAX_CHAINS")):
            with pytest.raises(ValueError, match=limit):
                ChaosGame(cantor_ifs(), **kwargs)
        game = ChaosGame(cantor_ifs(), affine.MAX_POINTS, burn_in=0, chains=affine.MAX_CHAINS)
        assert (game.count, game._n_chains) == (affine.MAX_POINTS, affine.MAX_CHAINS)

    def test_one_stream_per_game(self, monkeypatch):
        """Every chain draws from one ``default_rng(seed)``, and no seed is
        spawned into per-chain streams."""
        made, spawned = [], []
        default_rng = np.random.default_rng

        class Sequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        def counted(seed=None):
            made.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(affine.np.random, "SeedSequence", Sequence)
        monkeypatch.setattr(affine.np.random, "default_rng", counted)
        assert ChaosGame(generic_pair_ifs(), 5000, seed=3, chains=64).count == 5000
        assert (made, spawned) == ([3], [])

    def test_weight_list_driver_rejected(self):
        """A driver is None or a ``CylinderMeasure``; weights become a depth-1 one."""
        with pytest.raises(TypeError, match="CylinderMeasure"):
            ChaosGame(cantor_ifs(), 100, driver=[0.9, 0.1])
        game = ChaosGame(cantor_ifs(), 500, burn_in=50, seed=1,
                         driver=CylinderMeasure(2, 1, [0.9, 0.1]))
        assert game.points().shape == (500, 1)


def _reference_attractor_points(ifs, count, burn_in=200, seed=0, driver=None,
                                chains=DEFAULT_CHAINS):
    """The chain-major cloud and driver tag of the chaos game played one
    lockstep step at a time, with the uniforms of one stream in a step-major
    array: the loop the chaos game ran before it stepped in chunks.  The
    cumulative rows come from the measure itself; one context draws i.i.d.
    symbols by ``searchsorted``, and a deeper driver counts the row's masses
    at or below each uniform.  A uniform at or above a row's last mass draws
    the first symbol whose cumulative mass reaches the row's end, the row's
    last symbol of positive mass."""
    m = ifs.n_maps
    n_chains = min(chains, count)
    base, extra = divmod(count, n_chains)
    keep = base + (1 if extra else 0)
    total_steps = burn_in + keep
    if driver is None:
        driver = CylinderMeasure(m, 1, np.full(m, 1.0 / m), provenance="uniform")
    rows = driver.masses.reshape(-1, m)
    sums = rows.sum(axis=1, keepdims=True)
    cum = np.cumsum(np.where(sums > 0, rows / np.where(sums > 0, sums, 1.0), 1.0 / m), axis=1)
    last = (cum < cum[:, -1:]).sum(axis=1)  # per row, the first index at its end
    uniforms = np.random.default_rng(seed).random((total_steps, n_chains))
    d = ifs.dimension
    points = np.empty((count, d))
    longer = points[: extra * keep].reshape(extra, keep, d)
    shorter = points[extra * keep :].reshape(n_chains - extra, base, d)
    x = np.zeros((n_chains, d))
    ctx = np.zeros(n_chains, dtype=np.int64)
    for step in range(total_steps):
        r = uniforms[step]
        if len(cum) == 1:
            sym = np.minimum(np.searchsorted(cum[0], r, side="right"), last[0])
        else:
            sym = np.minimum((cum.take(ctx, axis=0) <= r[:, None]).sum(axis=1), last.take(ctx))
            ctx = (ctx * m + sym) % len(cum)
        maps = ifs.matrices.take(sym, axis=0)
        x = np.einsum("cij,cj->ci", maps, x) + ifs.translations.take(sym, axis=0)
        i = step - burn_in
        if i >= 0:
            longer[:, i] = x[:extra]
            if i < base:
                shorter[:, i] = x[extra:]
    return points, driver.provenance


def _assert_reference_rows(points, reference):
    """Bit-equal rows for d <= 2; for d >= 3 the chaos game sums a row of
    ``[A | a]`` in another order than the reference, so only rounding may
    differ."""
    if points.shape[1] <= 2:
        assert points.tobytes() == reference.tobytes()
    else:
        scale = np.abs(reference).max()
        assert np.abs(points - reference).max() <= 4 * np.finfo(float).eps * scale


def _patch_uniforms(monkeypatch, first, then):
    """Make every stream's ``random`` call draw a first row of ``first``,
    then ``then`` for the rest of the call."""

    class Stream:
        def __init__(self, seed):
            pass

        def random(self, size=None, out=None):
            values = np.full(size if out is None else out.shape, then)
            values[:1] = first
            if out is None:
                return values
            out[:] = values
            return out

    monkeypatch.setattr(affine.np.random, "default_rng", Stream)


def _decimal_symbols(points):
    """The symbols that moved a 1-D game of the maps x -> x / 10 + i from the
    origin to ``points``."""
    x = np.concatenate(([0.0], points[:, 0]))
    return np.rint(x[1:] - x[:-1] / 10).astype(int).tolist()


def _sweep_driver(rng, kind, m):
    if kind == "uniform":
        return None
    if kind == "weights":
        weights = rng.random(m) * (rng.random(m) < 0.7)
        weights[rng.integers(m)] += 0.1  # a positive sum
        return CylinderMeasure(m, 1, weights / weights.sum())
    depth = int(kind[-1])
    masses = rng.random(m**depth) * (rng.random(m**depth) < 0.6)  # rows of zero mass
    masses[rng.integers(m**depth)] += 0.1
    return CylinderMeasure(m, depth, masses / masses.sum())


class TestChunkedChaosGame:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        m=st.integers(1, 5),
        chains=st.integers(1, 9),
        count=st.integers(1, 3 * CHUNK_STEPS),
        burn_in=st.sampled_from([0, 1, CHUNK_STEPS - 1, CHUNK_STEPS + 3]),
        kind=st.sampled_from(["uniform", "weights", "depth-1", "depth-2", "depth-3"]),
    )
    # one chain: numpy's einsum reduces innermost over a summed axis, pairing terms
    @example(seed=0, d=2, m=1, chains=1, count=2, burn_in=CHUNK_STEPS - 1, kind="uniform")
    def test_matches_step_at_a_time_loop(self, seed, d, m, chains, count, burn_in, kind):
        """``points()`` is the reference cloud (see ``_assert_reference_rows``)."""
        rng = np.random.default_rng(seed)
        ifs = random_affine_ifs(rng, d, m)
        driver = _sweep_driver(rng, kind, m)
        kwargs = dict(burn_in=burn_in, seed=seed, driver=driver, chains=chains)
        game = ChaosGame(ifs, count, **kwargs)
        points = game.points()
        reference, tag = _reference_attractor_points(ifs, count, **kwargs)
        assert game.driver == tag
        assert points.shape == reference.shape == (count, d)
        _assert_reference_rows(points, reference)

    @pytest.mark.parametrize("kind", ["uniform", "weights", "depth-2"])
    @pytest.mark.parametrize("m, bits", [(2, 1), (3, 2), (5, 4), (17, 8), (257, 16)])
    def test_every_tape_width_replays_the_reference(self, monkeypatch, m, bits, kind):
        """A symbol takes the least of 1, 2, 4, 8 and 16 bits that holds m
        symbols.  With chunks of 7 steps a chunk ends inside a tape word, and
        ``replay()`` and ``points()`` are still the reference cloud."""
        monkeypatch.setattr(affine, "CHUNK_STEPS", 7)
        rng = np.random.default_rng([m, len(kind)])
        ifs = random_affine_ifs(rng, 2, m)
        kwargs = dict(burn_in=5, seed=int(rng.integers(2**32)), driver=_sweep_driver(rng, kind, m),
                      chains=3)
        count = 3 * 40 + 2  # two longer chains
        game = ChaosGame(ifs, count, **kwargs)
        assert game._tape.nbytes == game._tape.shape[1] * -(-7 * bits // 8)
        reference, tag = _reference_attractor_points(ifs, count, **kwargs)
        assert game.driver == tag
        _assert_reference_rows(game.points(), reference)
        replayed = np.concatenate(list(game.replay()))
        _assert_reference_rows(_sorted_rows(replayed), _sorted_rows(reference))

    def test_context_carries_the_clamped_symbol(self, monkeypatch):
        """A uniform at or above a context row's last cumulative mass draws
        the row's last symbol of positive mass, here its last symbol, and
        the next context is that symbol's, not a carry into the previous
        context digit."""
        ifs = AffineIFS(1, np.full((5, 1, 1), 0.1), np.arange(5.0)[:, None], name="decimal")
        masses = np.random.default_rng(8).random(25)
        masses[20:] = (1, 0, 0, 0, 0)
        driver = CylinderMeasure(5, 2, masses / masses.sum())
        top = np.nextafter(1.0, 0.0)
        # normalized, context 0's cumulative row ends below the largest uniform
        assert _driver_tables(ifs, driver)[0][0, -1] < top
        _patch_uniforms(monkeypatch, top, 0.5)
        points = ChaosGame(ifs, 3, burn_in=0, driver=driver, chains=1).points()
        reference, _ = _reference_attractor_points(ifs, 3, burn_in=0, driver=driver, chains=1)
        assert points.tobytes() == reference.tobytes()
        symbols = _decimal_symbols(points)
        assert symbols[:2] == [4, 0]  # context 4 sends all its mass to symbol 0
        assert driver.masses[pack_word(symbols[1:3], 5)] > 0

    @pytest.mark.parametrize("depth", [1, 2])
    def test_symbol_of_zero_mass_never_emitted(self, monkeypatch, depth):
        """A uniform of 0.0 draws the first symbol of positive mass at every
        depth: a symbol is the number of its row's cumulative masses at or
        below the uniform, the rule of ``searchsorted(side="right")``."""
        ifs = AffineIFS(1, np.full((3, 1, 1), 0.1), np.arange(3.0)[:, None], name="ternary")
        masses = np.random.default_rng(9).random(3**depth) + 0.1
        masses[::3] = 0.0  # no mass on symbol 0 in any context
        driver = CylinderMeasure(3, depth, masses / masses.sum())
        _patch_uniforms(monkeypatch, 0.0, 0.0)
        points = ChaosGame(ifs, 4, burn_in=0, driver=driver, chains=1).points()
        assert _decimal_symbols(points) == [1, 1, 1, 1]
        reference, _ = _reference_attractor_points(ifs, 4, burn_in=0, driver=driver, chains=1)
        assert points.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("depth", [1, 2])
    def test_no_draw_of_zero_mass_past_the_row_end(self, monkeypatch, depth):
        """Context 0's normalized row ends an ulp below 1 and gives the last
        map no mass.  A uniform at or above the row's end draws map 2, the
        last of positive mass, and no map of zero mass in its context is
        ever drawn.  (The other contexts of depth 2 are uniform.)"""
        ifs = AffineIFS(1, np.full((4, 1, 1), 0.1), np.arange(4.0)[:, None], name="decimal")
        masses = np.full((4 ** (depth - 1), 4), 0.25)
        masses[0] = (0.07396306519631642, 0.4835753438551581, 0.4424615909485256, 0)
        driver = CylinderMeasure(4, depth, masses.ravel() / len(masses))
        top = np.nextafter(1.0, 0.0)
        assert _driver_tables(ifs, driver)[0][0, -1] < top
        _patch_uniforms(monkeypatch, top, top)
        points = ChaosGame(ifs, 3, burn_in=0, driver=driver, chains=1).points()
        reference, _ = _reference_attractor_points(ifs, 3, burn_in=0, driver=driver, chains=1)
        assert points.tobytes() == reference.tobytes()
        symbols = _decimal_symbols(points)
        assert symbols[0] == 2
        # every drawn word of length ``depth``, from the all-zero context on
        walk = [0] * (depth - 1) + symbols
        for i in range(len(symbols)):
            assert driver.masses[pack_word(walk[i : i + depth], 4)] > 0, symbols


def _sorted_rows(points):
    """The rows of a point array in lexicographic order."""
    return points[np.lexsort(points.T[::-1])]


class TestReplayedChaosGame:
    """A ``ChaosGame`` replays the step-at-a-time reference cloud, in an order
    of its own.  Box counts alone are a weak oracle: a replay with a broken
    walk can still give a cloud's counts."""

    @pytest.mark.parametrize("kind", ["uniform", "weights", "depth-2"])
    @pytest.mark.parametrize("burn_in", [0, CHUNK_STEPS + 3])
    # count % chains != 0 for 7 and 512 chains; 16 chains over 5 points run 5
    @pytest.mark.parametrize(
        "chains, count", [(1, 300), (7, 7 * 45 + 3), (512, 3 * 512 + 77), (16, 5)]
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_replay_is_the_cloud(self, d, chains, count, burn_in, kind):
        rng = np.random.default_rng([d, chains, burn_in, len(kind)])
        ifs = random_affine_ifs(rng, d, 3)
        driver = None  # drivers that use every map: no cloud collapses to a point
        if kind == "weights":
            weights = rng.random(3) + 0.1
            driver = CylinderMeasure(3, 1, weights / weights.sum())
        elif kind == "depth-2":
            masses = rng.random(9) + 0.05
            driver = CylinderMeasure(3, 2, masses / masses.sum())
        kwargs = dict(burn_in=burn_in, seed=int(rng.integers(2**32)), driver=driver, chains=chains)
        reference, tag = _reference_attractor_points(ifs, count, **kwargs)
        scales = [1.0, 0.5, 0.3, 0.25, 0.125, 0.1, 0.0625]  # passes and shifted grids
        boxes, raster = box_dimension(reference, scales), render_pgm(reference, 64)
        # lane groups that split the chains and straddle chunks
        for patched in ({}, {"CHUNK_STEPS": 7, "CHUNK_POINTS": 37}):
            with pytest.MonkeyPatch.context() as patch:
                for name, value in patched.items():
                    patch.setattr(affine, name, value)
                game = ChaosGame(ifs, count, **kwargs)
                assert (game.count, game.dimension, game.driver) == (count, d, tag)
                chunks = list(game.replay())
                assert max(map(len, chunks)) <= affine.CHUNK_POINTS
                replayed = np.concatenate(chunks)
                assert game.mins == tuple(replayed.min(axis=0).tolist())
                assert game.maxs == tuple(replayed.max(axis=0).tolist())
                _assert_reference_rows(_sorted_rows(replayed), _sorted_rows(reference))
                _assert_reference_rows(game.points(), reference)
                assert box_dimension(game, scales) == boxes
                assert render_pgm(game, 64) == raster

    def test_scales_off_the_shift_path_share_one_replay(self, monkeypatch):
        """Every scale that is not a power-of-two multiple of the next finer
        one is counted in a single replay, and the counts are the reference
        cloud's."""
        ifs = random_affine_ifs(np.random.default_rng(3), 3, 3)
        kwargs = dict(burn_in=200, seed=0)
        game = ChaosGame(ifs, 20000, **kwargs)
        reference, _ = _reference_attractor_points(ifs, 20000, **kwargs)
        replays = []
        replay = ChaosGame.replay

        def counted(self):
            replays.append(self)
            return replay(self)

        monkeypatch.setattr(ChaosGame, "replay", counted)
        for scales in ([0.3, 0.1, 0.03, 0.01], SCALE_LISTS["mixed"]):
            replays.clear()
            assert box_dimension(game, scales) == box_dimension(reference, scales)
            assert replays == [game]
        assert box_dimension(reference, SCALE_LISTS["mixed"]).counts == per_scale_counts(
            reference, SCALE_LISTS["mixed"]
        )

    def test_same_checks_as_the_cloud(self):
        for kwargs in (dict(count=0), dict(count=10, burn_in=-1), dict(count=10, chains=0)):
            with pytest.raises(ValueError):
                ChaosGame(cantor_ifs(), **kwargs)
        expanding = AffineIFS(1, [[[1.5]], [[0.2]]], [[0.0], [1.0]])
        with pytest.raises(IFSValidationError, match="not contractive"):
            ChaosGame(expanding, 10)


def _cesaro_driver(ifs, t, n, k):
    return diagnostics(NaturalCylinderFunction(ifs), t, n, k).measure


def _pin_case(name):
    """(ifs, count, keyword arguments) of one pinned chaos-game run."""
    if name == "uniform-d2":  # default 512 chains; 1500 % 512 != 0
        return generic_pair_ifs(), 1500, dict(burn_in=50, seed=3)
    if name == "weights-d1":
        driver = CylinderMeasure(2, 1, [0.3, 0.7], provenance="weights([0.3, 0.7])")
        return cantor_ifs(), 777, dict(burn_in=20, seed=4, driver=driver, chains=10)
    if name == "cesaro-depth1-d2":  # count % chains == 0
        ifs = generic_pair_ifs()
        return ifs, 600, dict(burn_in=30, seed=5, driver=_cesaro_driver(ifs, 0.86, 6, 1), chains=8)
    if name == "cesaro-depth3-d2":
        ifs = generic_pair_ifs()
        return ifs, 1001, dict(burn_in=40, seed=6, driver=_cesaro_driver(ifs, 0.86, 8, 3), chains=16)
    if name == "conditional-11-d3":
        ifs = random_affine_ifs(np.random.default_rng(5), 3, 11)
        return ifs, 500, dict(burn_in=25, seed=7, driver=_cesaro_driver(ifs, 1.5, 3, 2), chains=7)
    if name == "chains-over-count":
        return swap_pair_ifs(), 5, dict(burn_in=10, seed=8, chains=16)
    if name == "no-burn-in-d3":
        ifs = random_affine_ifs(np.random.default_rng(6), 3, 3)
        driver = CylinderMeasure(3, 1, [0.5, 0.2, 0.3], provenance="weights([0.5, 0.2, 0.3])")
        return ifs, 300, dict(burn_in=0, seed=9, driver=driver, chains=12)
    raise KeyError(name)


# sha256 of points.tobytes() and the driver tag, recorded when the chains
# came to draw from one stream: for d <= 2 the digests of the step-at-a-time
# reference fed by that stream's step-major uniforms
PINNED_CLOUDS = {
    "uniform-d2": (
        "f9097e5558bb8919370dcc43854cd821dbb1458379a89627517115c72866ec24",
        "uniform",
    ),
    "weights-d1": (
        "1ab1a9da091700f215589392715123a8288a3897bbd103f1ed5ef909c351cb77",
        "weights([0.3, 0.7])",
    ),
    "cesaro-depth1-d2": (
        "9f2c6923ce6fc062a4b8f5482f3c098787153e736624f86b7914dd8848bdcef0",
        "mu_cesaro(n=6,t=0.86,k=1)",
    ),
    "cesaro-depth3-d2": (
        "d436a3c8d3897732c0b57937fe96b6476ea5c2414f172c56439138de69471b61",
        "mu_cesaro(n=8,t=0.86,k=3)",
    ),
    "conditional-11-d3": (
        "b9c2bd41f757422e993d0709b45701cbf5c44ee7161055827e5eef8e1b3bcbc9",
        "mu_cesaro(n=3,t=1.5,k=2)",
    ),
    "chains-over-count": (
        "5f93ab8450f8112dc7e0a886a3ff9b99e35ea01b3fbb2e8fd89cf3f595164047",
        "uniform",
    ),
    "no-burn-in-d3": (
        "490169dc1eac498c64adba4790673b9365129e438253058a881a16d456150535",
        "weights([0.5, 0.2, 0.3])",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CLOUDS))
def test_chaos_game_bits_pinned(name):
    ifs, count, kwargs = _pin_case(name)
    game = ChaosGame(ifs, count, **kwargs)
    points = game.points()
    assert points.shape == (count, ifs.dimension)
    digest = hashlib.sha256(points.tobytes()).hexdigest()
    assert (digest, game.driver) == PINNED_CLOUDS[name]


class TestBoxDimension:
    def test_uniform_square(self):
        rng = np.random.default_rng(99)
        points = rng.random((100000, 2))
        result = box_dimension(points, [2.0**-k for k in range(2, 8)])
        assert 1.85 <= result.estimate <= 2.0

    def test_cantor_cloud(self):
        game = ChaosGame(cantor_ifs(), 100000, burn_in=200, seed=3)
        result = box_dimension(game, [3.0**-k for k in range(1, 7)])
        assert abs(result.estimate - math.log(2) / math.log(3)) <= 0.1

    def test_degenerate_cloud(self):
        with pytest.raises(DegenerateCloudError):
            box_dimension(np.zeros((10, 2)), [0.5, 0.25, 0.125])

    def test_scale_validation(self):
        points = np.random.default_rng(0).random((100, 2))
        with pytest.raises(ValueError):
            box_dimension(points, [0.5, 0.25])  # too few
        with pytest.raises(ValueError):
            box_dimension(points, [0.25, 0.5, 0.125])  # not decreasing

    def test_scales_too_fine_for_the_cloud_rejected(self):
        """Cell indices at the finest scale must fit int64; the finest
        offending scale is named."""
        points = np.random.default_rng(0).random((100, 2))
        for scales in ([1e-300, 1e-310, 1e-320], [0.5, 0.25, 1e-19]):
            message = re.escape(f"box scale {scales[-1]!r} is too small")
            with pytest.raises(ValueError, match=message):
                box_dimension(points, scales)

    def test_non_finite_scales_rejected(self):
        points = np.random.default_rng(0).random((100, 2))
        for scales in ([math.inf, 0.5, 0.25], [0.5, math.nan, 0.25]):
            with pytest.raises(ValueError, match="finite"):
                box_dimension(points, scales)

    def test_non_finite_cloud_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            for column in (0, 1):
                points = np.random.default_rng(0).random((100, 2))
                points[17, column] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    box_dimension(points, [0.5, 0.25, 0.125])
        with pytest.raises(ValueError, match="non-finite"):
            box_dimension(np.full((3, 2), math.inf), [0.5, 0.25, 0.125])

    def test_counts_monotone(self):
        rng = np.random.default_rng(7)
        result = box_dimension(rng.random((20000, 2)), [2.0**-k for k in range(1, 7)])
        assert all(a <= b for a, b in zip(result.counts, result.counts[1:]))

    def test_extreme_scale_ratio(self):
        # per-axis box counts too large for a packed int64 key
        rng = np.random.default_rng(8)
        points = rng.random((2000, 4)) * 1e6
        result = box_dimension(points, [1e5, 1.0, 1e-4])
        assert result.counts[-1] == 2000


def per_scale_counts(points, scales):
    """Box counts with one pass over the points per scale (the reference)."""
    mins = points.min(axis=0)
    counts = []
    for delta in scales:
        idx = np.floor((points - mins) / delta).astype(np.int64)
        radices = [int(idx[:, axis].max()) + 1 for axis in range(points.shape[1])]
        if np.prod(radices, dtype=object) < 2**62:
            key = idx[:, 0].copy()
            for axis in range(1, points.shape[1]):
                key = key * radices[axis] + idx[:, axis]
            counts.append(len(np.unique(key)))
        else:
            counts.append(len(np.unique(idx, axis=0)))
    return tuple(counts)


SCALE_LISTS = {
    "dyadic": [2.0**-k for k in range(-2, 9)],
    "non-dyadic": [3.0**-k for k in range(-1, 7)],
    "mixed": sorted({2.0**-k for k in range(0, 8)} | {3.0**-k for k in range(0, 5)}
                    | {0.3 * 2.0**-k for k in range(0, 6)}, reverse=True),
    # the finest grids need an unpacked key in d = 3 (radices near 2^25 per axis)
    "dyadic-overflow": [2.0**-k for k in range(18, 26)],
}


class TestBoxCountNesting:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        size=st.integers(2, 400),
        scales=st.sampled_from(sorted(SCALE_LISTS)),
        offset=st.sampled_from([0.0, -7.25, 1e6, -3.0e8]),
        lattice=st.sampled_from([None, 2.0**-6, 2.0**-10]),
    )
    def test_counts_match_per_scale_passes(self, seed, d, size, scales, offset, lattice):
        rng = np.random.default_rng(seed)
        points = rng.random((size, d)) * rng.uniform(0.5, 4.0, size=d)
        if lattice is not None:  # points on grid lines: floors at exact integers
            points = np.round(points / lattice) * lattice
        points = points + offset
        if not np.any(points.max(axis=0) - points.min(axis=0) > 0):
            points[0] += 1.0
        scales = SCALE_LISTS[scales]
        expected = per_scale_counts(points, scales)
        assert box_dimension(points, scales).counts == expected
        with pytest.MonkeyPatch.context() as patch:  # chunk boundaries inside the cloud
            patch.setattr(affine, "CHUNK_POINTS", 7)
            assert box_dimension(points, scales).counts == expected

    def test_equilibrium_cloud_counts_pinned(self):
        # counts recorded with one pass over the points per scale, on the
        # cloud driven by the cyclic Cesaro table and one stream of uniforms
        bundle = sample_translations(2, 2, 1, radius=0.6, seed=7)[0]
        ifs = with_translations(generic_pair_ifs(), bundle)
        driver = _cesaro_driver(ifs, 1.3, 8, 3)
        game = ChaosGame(ifs, 200000, burn_in=300, seed=7, driver=driver)
        result = box_dimension(game, [2.0**-k for k in range(3, 11)])
        assert result.counts == (12, 20, 35, 61, 113, 189, 343, 605)


def _traced_peak(function, *args, **kwargs):
    """The result of ``function`` and the peak bytes traced while it ran.

    numpy 2 imports ``numpy.random`` on first use (0.45 MiB or more traced), so
    it is imported before the trace starts, whatever test ran before."""
    importlib.import_module("numpy.random")
    tracemalloc.start()
    try:
        result = function(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """Beside its input or its cloud, each pass holds a bounded amount,
    whatever the number of points."""

    def test_box_counting_holds_chunks_not_columns(self):
        points = np.random.default_rng(12).random((2**20, 2))  # 16 MiB
        result, peak = _traced_peak(box_dimension, points, [2.0**-k for k in range(1, 7)])
        assert result.counts == (4, 16, 64, 256, 1024, 4096)
        assert peak < 4 * 2**20  # full-length columns and keys took 24 MiB

    def test_streamed_box_counting_holds_no_cloud(self):
        """Played and box-counted without a cloud, 10^6 equilibrium-driven
        points peak at 4.2 MiB traced (22.2 MiB through the cloud): the tape
        and checkpoints, the play pass's uniforms, states and one step's
        maps, then one lane group's replay."""
        ifs = generic_pair_ifs()
        driver = _cesaro_driver(ifs, 0.86, 8, 3)
        scales = [2.0**-k for k in range(3, 11)]

        def streamed():
            return box_dimension(ChaosGame(ifs, 10**6, seed=3, driver=driver), scales)

        result, peak = _traced_peak(streamed)
        assert len(result.counts) == len(scales)
        assert peak < 10**6 * 2 * 8  # the 15.3 MiB cloud it does not build

    def test_streamed_working_set_beside_tape_and_checkpoints(self):
        """Beside the tape and checkpoints, playing and box-counting 10^6
        equilibrium-driven points holds 3.0 MiB traced (7.0 MiB when the play
        pass gathered a whole chunk's maps at once and a replay ran
        ``CHUNK_POINTS`` lanes at a time)."""
        ifs = generic_pair_ifs()
        driver = _cesaro_driver(ifs, 0.86, 8, 3)
        scales = [2.0**-k for k in range(3, 11)]
        ChaosGame(ifs, 10, seed=3, driver=driver)  # numpy.random is imported outside the trace

        def streamed():
            game = ChaosGame(ifs, 10**6, seed=3, driver=driver)
            return game, box_dimension(game, scales)

        (game, result), peak = _traced_peak(streamed)
        assert len(result.counts) == len(scales)
        assert peak - game._tape.nbytes - game._starts.nbytes < 4 * 2**20

    def test_two_map_tape_takes_a_bit_a_step(self):
        """10^6 points of a two-map game keep a 0.13 MB tape (1.0 MB at a
        byte a step)."""
        game = ChaosGame(generic_pair_ifs(), 10**6, seed=3)
        assert game._tape.nbytes <= game._tape.shape[1] * -(-CHUNK_STEPS // 8)

    def test_chaos_game_draws_uniforms_in_blocks(self):
        game, peak = _traced_peak(ChaosGame, generic_pair_ifs(), 10**6, seed=3)
        assert (game.count, game.dimension) == (10**6, 2)
        # 512 chains: all uniforms at once took 12.5 MiB beside the points
        assert peak - game._tape.nbytes - game._starts.nbytes < 8 * 2**20


class TestCloudInvariance:
    def test_mapped_cloud_stays_near_cloud(self):
        # image of the cloud under each map lies close to the cloud itself,
        # measured against the cloud's own covering granularity (loose, 10x)
        from scipy.spatial import cKDTree

        ifs = generic_pair_ifs()
        points = ChaosGame(ifs, 20000, burn_in=300, seed=17).points()
        tree = cKDTree(points)
        probe = points[::40]
        cover_scale = cKDTree(points[::2]).query(points[1::2][:500])[0].max()
        for i in range(ifs.n_maps):
            mapped = probe @ ifs.matrices[i].T + ifs.translations[i]
            dist = tree.query(mapped)[0].max()
            assert dist <= 10 * cover_scale + 1e-9


class TestRenderPGM:
    def test_empty_cloud(self):
        raster = render_pgm(np.empty((0, 2)), 16)
        assert raster == b"P5\n16 16\n255\n" + bytes(256)

    def test_single_point_center(self):
        raster = render_pgm(np.array([[0.0, 0.0]]), 32)
        body = raster[len(b"P5\n32 32\n255\n") :]
        assert sum(1 for b in body if b != 0) == 1

    def test_header_and_size(self):
        raster = render_pgm(ChaosGame(cantor_ifs(), 5000, burn_in=100, seed=3), 256)
        assert raster.startswith(b"P5\n256 256\n255\n")
        assert len(raster) == len(b"P5\n256 256\n255\n") + 256 * 256

    def test_checksum_stable_across_runs(self):
        a = ChaosGame(cantor_ifs(), 50000, burn_in=200, seed=11)
        b = ChaosGame(cantor_ifs(), 50000, burn_in=200, seed=11)
        digest_a = hashlib.sha256(render_pgm(a, 256)).hexdigest()
        digest_b = hashlib.sha256(render_pgm(b, 256)).hexdigest()
        assert digest_a == digest_b

    def test_chunked_hits_match_one_pass(self):
        """Hits counted chunk by chunk give the bytes of one pass over the
        cloud, for 2-D and 1-D clouds."""
        cloud = ChaosGame(generic_pair_ifs(), 3000, burn_in=50, seed=4).points()
        for points in (cloud, cloud[:, :1]):
            raster = render_pgm(points, 64)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(affine, "CHUNK_POINTS", 7)
                assert render_pgm(points, 64) == raster
            assert raster == _one_pass_pgm(points, 64)

    def test_resolution_floor(self):
        """A side below ``MIN_RESOLUTION`` or above ``MAX_RESOLUTION`` is
        rejected before the hit counts are allocated (10^6 pixels a side
        would take 7.3 TiB)."""
        for resolution in (8, affine.MAX_RESOLUTION + 1, 10**6):
            with pytest.raises(ValueError, match="resolution"):
                render_pgm(np.array([[0.0, 0.0]]), resolution)


def _one_pass_pgm(points, resolution):
    """The raster from full-length pixel columns and one ``np.bincount``."""
    xs = points[:, 0]
    ys = points[:, 1] if points.shape[1] >= 2 else np.zeros(len(points))
    (x_lo, x_hi), (y_lo, y_hi) = (xs.min(), xs.max()), (ys.min(), ys.max())
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_lo + 0.5
    px = np.clip(((xs - x_lo) / (x_hi - x_lo) * resolution).astype(np.int64), 0, resolution - 1)
    py = np.clip(((ys - y_lo) / (y_hi - y_lo) * resolution).astype(np.int64), 0, resolution - 1)
    hits = np.bincount((resolution - 1 - py) * resolution + px, minlength=resolution**2)
    img = np.rint(255.0 * np.log1p(hits) / np.log1p(hits.max())).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (resolution, resolution) + img.tobytes()


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: AffineIFS(1, np.empty((0, 1, 1)), np.empty((0, 1))),
            "an IFS needs at least one map",
        ),
        (
            lambda: ChaosGame(cantor_ifs(), 10, driver=CylinderMeasure(3, 1, np.full(3, 1 / 3))),
            "driver measure is over a different alphabet",
        ),
        (
            lambda: box_dimension(np.zeros((4, 2, 1)), [0.5, 0.25, 0.125]),
            re.escape("expected an (N, d) point array, got shape (4, 2, 1)"),
        ),
        (
            lambda: box_dimension(np.empty((0, 2)), [0.5, 0.25, 0.125]),
            "cannot box-count a cloud without points",
        ),
    ],
    ids=["no-maps", "driver-alphabet", "point-shape", "no-points"],
)
def test_affine_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
