import math

import numpy as np
import pytest
from systems import (
    conformal_pair_ifs,
    half_product_cf,
    random_affine_ifs,
    similar_ifs_06,
    swap_pair_cf,
    triple_diag_ifs,
)

from selfaffine import (
    AffineIFS,
    BudgetExceededError,
    NaturalCylinderFunction,
    NumericallySingularError,
    PartitionSumCache,
    ProductCylinderFunction,
    affinity_dimension,
    log_partition_sum,
    pressure_curve,
    pressure_level,
    pressure_root,
    pressure_sequence,
    validate_ifs,
    words_of_length,
)
from selfaffine.pressure import level_blocks, level_log_values


def brute_force_log_sum(cf, t, n):
    """Independent oracle: plain enumeration and direct summation."""
    return math.log(sum(cf.value(t, w) for w in words_of_length(cf.n_symbols, n)))


def test_log_partition_product_cancellation():
    assert abs(log_partition_sum(half_product_cf(), 1.0, 5)) <= 1e-12


def test_log_partition_triple_diag():
    cf = NaturalCylinderFunction(triple_diag_ifs())
    # 9 words, each alpha^1.5(diag(1/4,1/16)) = 1/16
    assert log_partition_sum(cf, 1.5, 2) == pytest.approx(math.log(0.5625), rel=1e-12)


def test_log_partition_t_zero_counts_words():
    cf = swap_pair_cf()
    assert log_partition_sum(cf, 0.0, 3) == pytest.approx(3 * math.log(2), rel=1e-13)


def test_log_partition_matches_brute_force():
    rng = np.random.default_rng(20)
    for _ in range(5):
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 3))
        for n in (1, 2, 3):
            t = float(rng.uniform(0, 3))
            assert log_partition_sum(cf, t, n) == pytest.approx(
                brute_force_log_sum(cf, t, n), abs=1e-11
            )


def test_pressure_sequence_product():
    rep = pressure_sequence(half_product_cf(), 1.0, 6)
    assert all(abs(p) <= 1e-12 for _, p in rep.per_level)
    assert abs(rep.fekete_upper) <= 1e-12
    assert rep.k_t_is_one
    assert not rep.truncated


def test_pressure_sequence_triple_diag_constant():
    cf = NaturalCylinderFunction(triple_diag_ifs())
    rep = pressure_sequence(cf, 1.0, 6)
    for _, p in rep.per_level:
        assert p == pytest.approx(math.log(1.5), rel=1e-12)


def test_pressure_sequence_fekete_envelope():
    rng = np.random.default_rng(21)
    cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
    rep = pressure_sequence(cf, 1.2, 8)
    values = [p for _, p in rep.per_level]
    smoothed = np.minimum.accumulate(values)
    assert all(b <= a + 1e-12 for a, b in zip(smoothed, smoothed[1:]))
    assert rep.fekete_upper == min(values)


def test_submultiplicative_partition_sums():
    rng = np.random.default_rng(22)
    cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
    t = 1.3
    logs = {n: log_partition_sum(cf, t, n) for n in range(1, 10)}
    for n in range(1, 9):
        for m in range(1, 10 - n):
            assert logs[n + m] <= logs[n] + logs[m] + 1e-10


def test_parameter_bound_transfers_to_partition_sums():
    rng = np.random.default_rng(23)
    cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
    for _ in range(20):
        t = float(rng.uniform(0, 2))
        delta = float(rng.uniform(0.05, 0.8))
        n = int(rng.integers(1, 8))
        _, s_lo, s_hi = cf.constants(t)
        base = log_partition_sum(cf, t, n)
        shifted = log_partition_sum(cf, t + delta, n)
        assert shifted >= base + delta * n * math.log(s_lo) - 1e-10
        assert shifted <= base + delta * n * math.log(s_hi) + 1e-10


def test_pressure_root_product_half():
    cf = half_product_cf()
    for n in (1, 3, 6):
        assert abs(pressure_root(cf, n, 1e-10) - 1.0) <= 1e-10


def test_pressure_root_product_thirds():
    cf = ProductCylinderFunction([1 / 3, 1 / 3])
    expected = math.log(2) / math.log(3)
    assert pressure_root(cf, 4, 1e-10) == pytest.approx(expected, abs=1e-10)


def test_pressure_root_triple_diag_closed_form():
    cf = NaturalCylinderFunction(triple_diag_ifs())
    expected = 1 + math.log(1.5) / math.log(4)
    for n in (1, 2, 5):
        assert abs(pressure_root(cf, n, 1e-8) - expected) <= 1e-8


def test_root_brackets_sign_change():
    rng = np.random.default_rng(24)
    t_tol = 1e-6
    for _ in range(5):
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        n = int(rng.integers(1, 6))
        root = pressure_root(cf, n, t_tol)
        assert pressure_level(cf, root - t_tol, n) > 0 > pressure_level(cf, root + t_tol, n)


def test_affinity_dimension_conformal():
    rep = affinity_dimension(conformal_pair_ifs(), 8, 1e-9)
    for _, t_n in rep.roots:
        assert abs(t_n - 1.0) <= 1e-9
    assert rep.prediction == pytest.approx(1.0, abs=1e-9)


def test_affinity_dimension_clamps_at_ambient_dimension():
    rep = affinity_dimension(similar_ifs_06(), 4, 1e-7)
    expected_root = math.log(3) / math.log(5 / 3)
    assert rep.upper_bound == pytest.approx(expected_root, abs=1e-6)
    assert rep.prediction == 1.0


def test_affinity_dimension_upper_bound_and_ordering():
    rng = np.random.default_rng(25)
    rep = affinity_dimension(random_affine_ifs(rng, 2, 2), 6, 1e-7)
    assert all(rep.upper_bound <= t_n for _, t_n in rep.roots)
    # for a product-like (conformal) system all roots coincide
    conf = affinity_dimension(conformal_pair_ifs(), 6, 1e-7)
    roots = [t for _, t in conf.roots]
    assert max(roots) - min(roots) <= 2e-7


def test_affinity_dimension_norm_half_flag():
    rng = np.random.default_rng(26)
    small = affinity_dimension(random_affine_ifs(rng, 2, 2, lo=0.2, hi=0.45), 3, 1e-6)
    assert small.norm_half_satisfied
    big = affinity_dimension(triple_diag_ifs(), 3, 1e-6)
    assert not big.norm_half_satisfied


def test_pressure_curve_product():
    curve = pressure_curve(half_product_cf(), [0.0, 1.0, 2.0], 4)
    expected = [math.log(2), 0.0, -math.log(2)]
    for (_, p), e in zip(curve, expected):
        assert p == pytest.approx(e, abs=1e-12)


def test_pressure_curve_triple_diag():
    cf = NaturalCylinderFunction(triple_diag_ifs())
    curve = pressure_curve(cf, [1.0, 2.0], 3)
    assert curve[0][1] == pytest.approx(math.log(1.5), rel=1e-12)
    assert curve[1][1] == pytest.approx(math.log(1.5) - math.log(4), rel=1e-12)


def test_pressure_curve_strictly_decreasing():
    rng = np.random.default_rng(27)
    cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
    curve = pressure_curve(cf, list(np.linspace(0, 3, 13)), 5)
    values = [p for _, p in curve]
    assert all(b < a + 1e-12 for a, b in zip(values, values[1:]))


def test_pressure_curve_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        pressure_curve(half_product_cf(), [1.0, 0.5], 3)


def test_budget_exceeded_flags_partial_report():
    cf = NaturalCylinderFunction(triple_diag_ifs())
    with pytest.raises(BudgetExceededError):
        log_partition_sum(cf, 1.0, 4, budget=80)
    rep = pressure_sequence(cf, 1.0, 6, budget=80)  # 3^4 = 81 > 80
    assert rep.truncated
    assert rep.levels() == [1, 2, 3]
    dim = affinity_dimension(triple_diag_ifs(), 6, 1e-6, budget=80)
    assert dim.truncated and dim.levels() == [1, 2, 3]


def test_deterministic_cold_and_warm():
    """A potential whose feature memo is warm from other parameters and levels
    gives the same bits as a fresh one, on repeated runs."""
    rng = np.random.default_rng(28)
    ifs = random_affine_ifs(rng, 2, 3)
    reference = log_partition_sum(NaturalCylinderFunction(ifs), 1.37, 7)
    root = pressure_root(NaturalCylinderFunction(ifs), 6, 1e-10)
    warm = NaturalCylinderFunction(ifs)
    for t in (0.4, 1.9, 1.37, 2.6):
        for n in (3, 6, 7):
            log_partition_sum(warm, t, n)
    assert warm._features
    for _ in range(2):
        assert log_partition_sum(warm, 1.37, 7) == reference
        assert pressure_root(warm, 6, 1e-10) == root
    assert log_partition_sum(NaturalCylinderFunction(ifs), 1.37, 7) == reference


def test_underflowing_word_products_raise_named_error():
    """Ratio 1e-150 passes validation, but level-3 products underflow to 0; the
    partition sum must fail with a named error instead of returning nan."""
    ifs = AffineIFS(1, [[[1e-150]], [[1e-150]]], [[0.0], [0.5]], name="tiny")
    assert not validate_ifs(ifs).errors
    cf = NaturalCylinderFunction(ifs)
    assert math.isfinite(log_partition_sum(cf, 1.0, 2))
    with pytest.raises(NumericallySingularError, match="level 3"):
        log_partition_sum(cf, 1.0, 3)
    with pytest.raises(NumericallySingularError, match="level 3"):
        affinity_dimension(ifs, 3, 1e-6)


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize(
    "cf",
    [
        NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(29), 2, 3)),
        ProductCylinderFunction([0.3, 0.5, 0.15]),
    ],
    ids=["natural", "product"],
)
def test_level_table_matches_streamed_sum(cf, n):
    """One sweep gives log S_n bit-equal to the streamed sum, and the table
    rows are the level's blocks in packed-index order."""
    log_s, table = level_log_values(cf, 1.37, n)
    assert log_s == log_partition_sum(cf, 1.37, n)
    assert table.reshape(-1).tobytes() == np.concatenate(list(level_blocks(cf, 1.37, n))).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad):
    cf = swap_pair_cf()
    with pytest.raises(ValueError, match="finite"):
        log_partition_sum(cf, bad, 3)
    with pytest.raises(ValueError, match="finite"):
        level_log_values(cf, bad, 3)
    with pytest.raises(ValueError):
        pressure_root(cf, 3, bad)


def test_cache_round_trip_and_reuse():
    cf = swap_pair_cf()
    cache = PartitionSumCache()
    first = log_partition_sum(cf, 1.23, 5, cache=cache)
    assert len(cache) == 1
    assert log_partition_sum(cf, 1.23, 5, cache=cache) == first
    key = (cf.content_hash(), 1.23, 5)
    assert cache.get(key) == first
