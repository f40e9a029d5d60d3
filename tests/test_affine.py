import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from systems import cantor_ifs, generic_pair_ifs, random_affine_ifs, swap_pair_ifs

from selfaffine import (
    AffineIFS,
    DegenerateCloudError,
    attractor_points,
    box_dimension,
    mu_cesaro,
    NaturalCylinderFunction,
    render_pgm,
    sample_translations,
    validate_ifs,
)


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
        c = a.with_translations(np.zeros(4))
        assert c.content_hash() != a.content_hash()


class TestValidateIFS:
    def test_boundary_norm_is_warning(self):
        ifs = AffineIFS(2, [0.5 * np.eye(2)] * 2, [[0, 0], [1, 0]])
        report = validate_ifs(ifs)
        assert report.ok
        assert len(report.warnings) == 2  # 0.5 is not < 0.5

    def test_mixed_warnings(self):
        ifs = AffineIFS(
            2, [np.diag([0.5, 0.25]), np.diag([0.4, 0.2])], [[0, 0], [1, 0]]
        )
        report = validate_ifs(ifs)
        assert report.ok
        assert len(report.warnings) == 1

    def test_all_small_pass(self):
        ifs = AffineIFS(2, [np.diag([0.4, 0.2])] * 2, [[0, 0], [1, 0]])
        report = validate_ifs(ifs)
        assert report.ok and not report.warnings

    def test_singular_map_is_error(self):
        ifs = AffineIFS(2, [np.diag([0.5, 0.0]), np.diag([0.4, 0.2])], [[0, 0], [1, 0]])
        report = validate_ifs(ifs)
        assert not report.ok
        assert "map 0" in report.errors[0]

    def test_expanding_map_is_error(self):
        ifs = AffineIFS(2, [np.diag([1.2, 0.5])] * 2, [[0, 0], [1, 0]])
        assert not validate_ifs(ifs).ok

    def test_single_map_is_error(self):
        ifs = AffineIFS(2, [0.5 * np.eye(2)], [[0, 0]])
        assert not validate_ifs(ifs).ok


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
        with pytest.raises(ValueError):
            sample_translations(2, 2, 3, radius=0.0, seed=0)


class TestAttractorPoints:
    def test_single_map_converges_to_fixed_point(self):
        # degenerate system, validation deliberately bypassed
        ifs = AffineIFS(2, [0.5 * np.eye(2)], [[1.0, 0.0]], name="single")
        cloud = attractor_points(ifs, 300, burn_in=200, seed=1)
        fixed_point = np.array([2.0, 0.0])
        assert np.abs(cloud.points - fixed_point).max() <= 1e-9

    def test_cantor_middle_gap(self):
        cloud = attractor_points(cantor_ifs(), 100000, burn_in=200, seed=3)
        xs = cloud.points[:, 0]
        assert xs.min() >= -1e-9 and xs.max() <= 1 + 1e-9
        eps = 1e-6
        assert np.sum((xs > 1 / 3 + eps) & (xs < 2 / 3 - eps)) == 0

    def test_points_inside_bounding_ball(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            ifs = random_affine_ifs(rng, 2, 3)
            cloud = attractor_points(ifs, 5000, burn_in=100, seed=9)
            radii = np.linalg.norm(cloud.points, axis=1)
            assert radii.max() <= ifs.bounding_radius() + 1e-9

    def test_deterministic_and_count(self):
        ifs = cantor_ifs()
        a = attractor_points(ifs, 1001, burn_in=50, seed=5, chains=16)
        b = attractor_points(ifs, 1001, burn_in=50, seed=5, chains=16)
        assert np.array_equal(a.points, b.points)
        assert a.points.shape == (1001, 1)

    def test_measure_driver(self):
        ifs = generic_pair_ifs()
        cf = NaturalCylinderFunction(ifs)
        measure = mu_cesaro(cf, 0.86, 8, 3)
        cloud = attractor_points(ifs, 2000, burn_in=100, seed=2, driver=measure)
        assert cloud.points.shape == (2000, 2)
        assert cloud.driver == measure.provenance
        again = attractor_points(ifs, 2000, burn_in=100, seed=2, driver=measure)
        assert np.array_equal(cloud.points, again.points)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="burn_in"):
            attractor_points(cantor_ifs(), 100, burn_in=-3)
        assert len(attractor_points(cantor_ifs(), 100, burn_in=0).points) == 100

    def test_non_positive_chains_rejected(self):
        for chains in (0, -5):
            with pytest.raises(ValueError, match="chains"):
                attractor_points(cantor_ifs(), 100, chains=chains)
        assert len(attractor_points(cantor_ifs(), 100, chains=1).points) == 100

    def test_weight_driver_and_mismatch(self):
        ifs = cantor_ifs()
        cloud = attractor_points(ifs, 500, burn_in=50, seed=1, driver=[0.9, 0.1])
        assert cloud.points.shape == (500, 1)
        with pytest.raises(ValueError):
            attractor_points(ifs, 100, driver=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            attractor_points(ifs, 100, driver=[0.0, 0.0])
        for weights in ([math.nan, 1.0], [math.inf, 1.0]):
            with pytest.raises(ValueError, match="finite"):
                attractor_points(ifs, 100, driver=weights)
        # finite weights whose sum overflows, with no overflow warning
        with np.errstate(all="raise"), pytest.raises(ValueError, match="finite sum"):
            attractor_points(ifs, 100, driver=[1e308, 1e308])


def _cesaro_driver(ifs, t, n, k):
    return mu_cesaro(NaturalCylinderFunction(ifs), t, n, k)


def _pin_case(name):
    """(ifs, count, keyword arguments) of one pinned chaos-game run."""
    if name == "uniform-d2":  # default 512 chains; 1500 % 512 != 0
        return generic_pair_ifs(), 1500, dict(burn_in=50, seed=3)
    if name == "weights-d1":
        return cantor_ifs(), 777, dict(burn_in=20, seed=4, driver=[0.3, 0.7], chains=10)
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
        return ifs, 300, dict(burn_in=0, seed=9, driver=[0.5, 0.2, 0.3], chains=12)
    raise KeyError(name)


# sha256 of points.tobytes() and the driver tag, recorded with the per-step
# fancy-index chaos game and np.concatenate of the chains' tails
PINNED_CLOUDS = {
    "uniform-d2": (
        "a6015f42533a7836f93e2218c03c48a5435d9ff63124fb1504401b8388702d09",
        "uniform",
    ),
    "weights-d1": (
        "b74f3528185478b8e9206f0313ba31ee38fd80cef3c3ea8476ea9b104ed271a2",
        "weights([0.3, 0.7])",
    ),
    "cesaro-depth1-d2": (
        "1ff6e95b89da8c6dcc3d8d7d1a204698ab5b557f38d9b1e19c80e27837d40483",
        "mu_cesaro(n=6,t=0.86,k=1,tail=pad)",
    ),
    "cesaro-depth3-d2": (
        "3471bb1f27b4e85c93b108554c0ba63713ef60b8a8aa2186163c7a12fd5bfdfa",
        "mu_cesaro(n=8,t=0.86,k=3,tail=pad)",
    ),
    "conditional-11-d3": (
        "dfc54b2530ba8297ec7e511398d595ec79d63800a1570d88201fbd0e75ba319c",
        "mu_cesaro(n=3,t=1.5,k=2,tail=pad)",
    ),
    "chains-over-count": (
        "e71a2630372d84a3db2b49bd6e0324df0a320ebf022f5e1b012d3be90ff04217",
        "uniform",
    ),
    "no-burn-in-d3": (
        "9158933f22f9ba5de02f59b567d4db664a1acb5a8748524270ae8e2e1d04eb96",
        "weights([0.5, 0.2, 0.3])",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CLOUDS))
def test_chaos_game_bits_pinned(name):
    ifs, count, kwargs = _pin_case(name)
    cloud = attractor_points(ifs, count, **kwargs)
    assert cloud.points.shape == (count, ifs.dimension)
    digest = hashlib.sha256(cloud.points.tobytes()).hexdigest()
    assert (digest, cloud.driver) == PINNED_CLOUDS[name]


class TestBoxDimension:
    def test_uniform_square(self):
        rng = np.random.default_rng(99)
        points = rng.random((100000, 2))
        result = box_dimension(points, [2.0**-k for k in range(2, 8)])
        assert 1.85 <= result.estimate <= 2.0

    def test_cantor_cloud(self):
        cloud = attractor_points(cantor_ifs(), 100000, burn_in=200, seed=3)
        result = box_dimension(cloud, [3.0**-k for k in range(1, 7)])
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
        assert box_dimension(points, scales).counts == per_scale_counts(points, scales)

    def test_equilibrium_cloud_counts_pinned(self):
        # counts recorded with one pass over the points per scale
        bundle = sample_translations(2, 2, 1, radius=0.6, seed=7)[0]
        ifs = generic_pair_ifs().with_translations(bundle)
        driver = mu_cesaro(NaturalCylinderFunction(ifs), 1.3, 8, 3)
        cloud = attractor_points(ifs, 200000, burn_in=300, seed=7, driver=driver)
        result = box_dimension(cloud, [2.0**-k for k in range(3, 11)])
        assert result.counts == (12, 20, 35, 61, 113, 190, 343, 606)


class TestCloudInvariance:
    def test_mapped_cloud_stays_near_cloud(self):
        # image of the cloud under each map lies close to the cloud itself,
        # measured against the cloud's own covering granularity (loose, 10x)
        from scipy.spatial import cKDTree

        ifs = generic_pair_ifs()
        cloud = attractor_points(ifs, 20000, burn_in=300, seed=17)
        tree = cKDTree(cloud.points)
        probe = cloud.points[::40]
        cover_scale = cKDTree(cloud.points[::2]).query(cloud.points[1::2][:500])[0].max()
        for i in range(ifs.n_maps):
            mapped = probe @ ifs.matrices[i].T + ifs.translations[i]
            dist = tree.query(mapped)[0].max()
            assert dist <= 10 * cover_scale + 1e-9


class TestRenderPGM:
    def test_empty_cloud(self):
        raster = render_pgm(np.empty((0, 2)), 16)
        assert raster == b"P5\n16 16\n255\n" + bytes(256)

    def test_single_point_center(self):
        raster = render_pgm(np.array([[0.0, 0.0]]), 32, bounds=((-1, 1), (-1, 1)))
        body = raster[len(b"P5\n32 32\n255\n") :]
        assert sum(1 for b in body if b != 0) == 1

    def test_header_and_size(self):
        cloud = attractor_points(cantor_ifs(), 5000, burn_in=100, seed=3)
        raster = render_pgm(cloud, 256)
        assert raster.startswith(b"P5\n256 256\n255\n")
        assert len(raster) == len(b"P5\n256 256\n255\n") + 256 * 256

    def test_checksum_stable_across_runs(self):
        a = attractor_points(cantor_ifs(), 50000, burn_in=200, seed=11)
        b = attractor_points(cantor_ifs(), 50000, burn_in=200, seed=11)
        digest_a = hashlib.sha256(render_pgm(a, 256)).hexdigest()
        digest_b = hashlib.sha256(render_pgm(b, 256)).hexdigest()
        assert digest_a == digest_b

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            render_pgm(np.array([[0.0, 0.0]]), 8)
