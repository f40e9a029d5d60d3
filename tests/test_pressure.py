import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mp_planar_log_partition_sum, words_of_length
from systems import (
    cantor_ifs,
    conformal_pair_ifs,
    generic_pair_ifs,
    half_product_cf,
    product_cf,
    random_affine_ifs,
    similar_ifs_06,
    swap_pair_cf,
    swap_pair_ifs,
    tiny_pair_ifs,
    triple_diag_ifs,
)

from selfaffine import (
    AffineIFS,
    BudgetExceededError,
    LevelOverflowError,
    NaturalCylinderFunction,
    NumericallySingularError,
    PartitionSumCache,
    affinity_dimension,
    diagnostics,
    log_partition_sum,
    pressure,
    pressure_curve,
    pressure_level,
    pressure_root,
    pressure_sequence,
    validate_ifs,
)
from selfaffine.errors import SelfCheckError
from selfaffine.linalg import rounding_allowance
from selfaffine.pressure import level_log_values


def brute_force_log_sum(cf, t, n):
    """Independent oracle: plain enumeration and direct summation."""
    return math.log(sum(math.exp(cf.log_value(t, w)) for w in words_of_length(cf.n_symbols, n)))


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
    assert [n for n, _ in rep.per_level] == [1, 2, 3, 4, 5, 6]


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
        s_lo, s_hi = cf.constants()
        base = log_partition_sum(cf, t, n)
        shifted = log_partition_sum(cf, t + delta, n)
        assert shifted >= base + delta * n * math.log(s_lo) - 1e-10
        assert shifted <= base + delta * n * math.log(s_hi) + 1e-10


def test_pressure_root_product_half():
    cf = half_product_cf()
    for n in (1, 3, 6):
        assert abs(pressure_root(cf, n, 1e-10) - 1.0) <= 1e-10


def test_pressure_root_product_thirds():
    cf = product_cf([1 / 3, 1 / 3])
    expected = math.log(2) / math.log(3)
    assert pressure_root(cf, 4, 1e-10) == pytest.approx(expected, abs=1e-10)


def test_pressure_root_triple_diag_closed_form():
    cf = NaturalCylinderFunction(triple_diag_ifs())
    expected = 1 + math.log(1.5) / math.log(4)
    for n in (1, 2, 5):
        assert abs(pressure_root(cf, n, 1e-8) - expected) <= 1e-8


def _triangular_root(a, d):
    """The affinity dimension of upper-triangular planar maps with diagonals
    (a_i, d_i), when it is below 2: the zero of the Falconer-Miao pressure

        max(log sum a_i^t, log sum d_i^t)                   on [0, 1],
        max(log sum a_i d_i^(t-1), log sum d_i a_i^(t-1))   on [1, 2],

    bisected to float spacing; the lower end, where the pressure is > 0."""

    def pressure(t):
        if t <= 1:
            return max(math.log(np.sum(a**t)), math.log(np.sum(d**t)))
        return max(math.log(np.sum(a * d ** (t - 1))), math.log(np.sum(d * a ** (t - 1))))

    lo, hi = 0.0, 2.0
    assert pressure(hi) < 0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if pressure(mid) > 0 else (lo, mid)
    return lo


@pytest.mark.parametrize("seed", range(6))
def test_pressure_root_triangular_oracle(seed):
    """Level roots of upper-triangular systems bound the exact affinity
    dimension from above, and fall as the level doubles (P_2n <= P_n)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    a, d = rng.uniform(0.1, 0.45, size=(2, m))
    mats = np.zeros((m, 2, 2))
    mats[:, 0, 0], mats[:, 1, 1], mats[:, 0, 1] = a, d, rng.uniform(-0.3, 0.3, size=m)
    cf = NaturalCylinderFunction(AffineIFS(2, mats, rng.uniform(-1, 1, size=(m, 2))))
    exact = _triangular_root(a, d)
    roots = [pressure_root(cf, n, 1e-12) for n in (1, 2, 4, 8)]
    assert all(root >= exact for root in roots), (exact, roots)
    assert all(finer <= coarser for coarser, finer in zip(roots, roots[1:])), roots


def test_root_brackets_sign_change():
    rng = np.random.default_rng(24)
    t_tol = 1e-6
    for _ in range(5):
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        n = int(rng.integers(1, 6))
        root = pressure_root(cf, n, t_tol)
        assert pressure_level(cf, root - t_tol, n) > 0 > pressure_level(cf, root + t_tol, n)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 3]),
    t=st.floats(0.0, 3.5),
    a=st.integers(1, 3),
    b=st.integers(1, 3),
)
def test_fekete_subadditivity_random_systems(seed, d, t, a, b):
    """log S_{a+b} <= log S_a + log S_b for the natural potential."""
    cf = NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(seed), d, 3))
    lhs = log_partition_sum(cf, t, a + b)
    assert lhs <= log_partition_sum(cf, t, a) + log_partition_sum(cf, t, b) + 1e-12


@pytest.mark.parametrize("system", ["generic-pair", "swap-pair"])
def test_root_is_upper_end_of_bracket(system):
    """The reported level root is where P_n <= 0, within t_tol of the sign change."""
    ifs = generic_pair_ifs() if system == "generic-pair" else swap_pair_ifs()
    cf = NaturalCylinderFunction(ifs)
    for n in range(1, 9):
        for t_tol in (1e-2, 1e-3, 1e-4, 1e-9):
            root = pressure_root(cf, n, t_tol)
            assert pressure_level(cf, root, n) <= 0.0, (n, t_tol)
            assert pressure_level(cf, root - t_tol, n) > 0.0, (n, t_tol)


def test_affinity_dimension_conformal():
    rep = affinity_dimension(NaturalCylinderFunction(conformal_pair_ifs()), 8, 1e-9)
    for _, t_n in rep.roots:
        assert abs(t_n - 1.0) <= 1e-9
    assert rep.prediction == pytest.approx(1.0, abs=1e-9)


def test_affinity_dimension_clamps_at_ambient_dimension():
    rep = affinity_dimension(NaturalCylinderFunction(similar_ifs_06()), 4, 1e-7)
    expected_root = math.log(3) / math.log(5 / 3)
    assert rep.upper_bound == pytest.approx(expected_root, abs=1e-6)
    assert rep.prediction == 1.0


def test_affinity_dimension_upper_bound_and_ordering():
    rng = np.random.default_rng(25)
    rep = affinity_dimension(NaturalCylinderFunction(random_affine_ifs(rng, 2, 2)), 6, 1e-7)
    assert all(rep.upper_bound <= t_n for _, t_n in rep.roots)
    # for a product-like (conformal) system all roots coincide
    conf = affinity_dimension(NaturalCylinderFunction(conformal_pair_ifs()), 6, 1e-7)
    roots = [t for _, t in conf.roots]
    assert max(roots) - min(roots) <= 2e-7


def test_affinity_dimension_norm_half_flag():
    rng = np.random.default_rng(26)
    small_cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2, lo=0.2, hi=0.45))
    small = affinity_dimension(small_cf, 3, 1e-6)
    assert small.norm_half_satisfied
    big = affinity_dimension(NaturalCylinderFunction(triple_diag_ifs()), 3, 1e-6)
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


def test_budget_exceeded_flags_partial_report(monkeypatch):
    """A sweep to a level past the budget is refused before its first level,
    though levels 1..3 fit: there is no partial report."""
    cf = NaturalCylinderFunction(triple_diag_ifs(), budget=80)
    with pytest.raises(BudgetExceededError):
        log_partition_sum(cf, 1.0, 4)
    assert [n for n, _ in pressure_sequence(cf, 1.0, 3).per_level] == [1, 2, 3]
    assert [n for n, _ in affinity_dimension(cf, 3, 1e-6).roots] == [1, 2, 3]

    def no_level(*args):
        raise AssertionError("a level was computed before the budget check")

    monkeypatch.setattr(pressure, "log_partition_sum", no_level)
    for sweep in (lambda: pressure_sequence(cf, 1.0, 6), lambda: affinity_dimension(cf, 6, 1e-6)):
        with pytest.raises(BudgetExceededError) as info:  # 3^6 = 729 > 80
            sweep()
        assert (info.value.length, info.value.budget) == (6, 80)


#: Every library function that reads a level of a given potential, asked
#: for level 4 of triple-diag (3^4 = 81 words).
LEVEL_CONSUMERS = {
    "log_partition_sum": lambda cf: log_partition_sum(cf, 1.0, 4),
    "level_log_values": lambda cf: level_log_values(cf, 1.0, 4),
    "pressure_level": lambda cf: pressure_level(cf, 1.0, 4),
    "pressure_root": lambda cf: pressure_root(cf, 4, 1e-6),
    "pressure_curve": lambda cf: pressure_curve(cf, [0.5, 1.0], 4),
    "diagnostics": lambda cf: diagnostics(cf, 1.0, 4, 2),
    "pressure_sequence": lambda cf: pressure_sequence(cf, 1.0, 4),
    "affinity_dimension": lambda cf: affinity_dimension(cf, 4, 1e-6),
}


@pytest.mark.parametrize("name", sorted(LEVEL_CONSUMERS))
def test_level_consumers_hold_the_potential_budget(name):
    consume = LEVEL_CONSUMERS[name]
    consume(NaturalCylinderFunction(triple_diag_ifs(), budget=81))
    with pytest.raises(BudgetExceededError) as info:
        consume(NaturalCylinderFunction(triple_diag_ifs(), budget=80))
    assert (info.value.length, info.value.budget) == (4, 80)


def test_budget_holds_on_a_cache_hit():
    cache = PartitionSumCache()
    full = NaturalCylinderFunction(triple_diag_ifs(), cache=cache)
    small = NaturalCylinderFunction(triple_diag_ifs(), budget=80, cache=cache)
    assert small.content_hash() == full.content_hash()
    log_partition_sum(full, 1.0, 4)
    with pytest.raises(BudgetExceededError):
        log_partition_sum(small, 1.0, 4)
    uncached = NaturalCylinderFunction(triple_diag_ifs())
    assert log_partition_sum(small, 1.0, 3) == log_partition_sum(uncached, 1.0, 3)


@pytest.mark.parametrize(
    "budget,top", [(3, 1), (8, 1), (9, 2), (26, 2), (27, 3), (80, 3), (81, 4), (729, 6), (None, 6)]
)
def test_sequence_and_dimension_share_one_truncation(budget, top):
    """Both sweep levels 1..6 when 3^6 words fit the budget, and both refuse
    level 6 otherwise; ``top`` is the highest level that fits."""
    cf = NaturalCylinderFunction(triple_diag_ifs(), budget=budget)
    sweeps = (lambda: [n for n, _ in pressure_sequence(cf, 1.0, 6).per_level],
              lambda: [n for n, _ in affinity_dimension(cf, 6, 1e-6).roots])
    for sweep in sweeps:
        if top < 6:
            with pytest.raises(BudgetExceededError) as info:
                sweep()
            assert (info.value.length, info.value.budget) == (6, budget)
        else:
            assert sweep() == list(range(1, 7))


def test_no_level_within_budget_raises():
    cf = NaturalCylinderFunction(triple_diag_ifs(), budget=2)
    with pytest.raises(BudgetExceededError):
        pressure_sequence(cf, 1.0, 3)
    with pytest.raises(BudgetExceededError):
        affinity_dimension(cf, 3, 1e-6)


def test_root_search_ends_at_float_spacing(level_call_limit):
    """A bracket width below the float spacing at the root ends the
    bisection once the midpoint equals an end."""
    cf = NaturalCylinderFunction(triple_diag_ifs())
    root = pressure_root(cf, 1, 1e-300)
    assert pressure_level(cf, root, 1) <= 0
    assert root == pytest.approx(1 + math.log(1.5) / math.log(4), rel=1e-15)
    assert len(level_call_limit) < 100


def test_root_search_has_no_parameter_cap(level_call_limit):
    """Norms just below 1 put the root far above any fixed cap: here at
    ln 2 / -ln 0.9999999, about 6.93e6."""
    a = 0.9999999
    ifs = AffineIFS(1, [[[a]], [[a]]], [[0.0], [0.5]], name="slow")
    validate_ifs(ifs)  # raises on a hard error
    root = pressure_root(NaturalCylinderFunction(ifs), 1, 1e-3)
    assert root == pytest.approx(math.log(2) / -math.log(a), rel=1e-9)


@pytest.mark.parametrize(
    "cf,t,n",
    [
        (NaturalCylinderFunction(generic_pair_ifs()), 1e308, 3),
        (product_cf([0.3, 0.5]), 1e308, 2),
    ],
    ids=["natural", "product"],
)
def test_overflowing_level_raises_named_error(cf, t, n):
    """Log-values past double precision raise an error naming the level and
    t, not a nan partition sum (and no RuntimeWarning: the suite makes those
    errors)."""
    with pytest.raises(LevelOverflowError, match=re.escape(f"level {n} at t = {t!r}")):
        level_log_values(cf, t, n)
    with pytest.raises(LevelOverflowError):
        pressure_sequence(cf, t, n)


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
    """At d = 2 the k = 1 feature reads level-3 products, which underflow; the
    partition sum must fail with a named error instead of returning nan."""
    ifs = tiny_pair_ifs(2)
    validate_ifs(ifs)  # raises on a hard error
    cf = NaturalCylinderFunction(ifs)
    assert math.isfinite(log_partition_sum(cf, 1.0, 2))
    with pytest.raises(NumericallySingularError, match="level 3"):
        log_partition_sum(cf, 1.0, 3)
    with pytest.raises(NumericallySingularError, match="level 3"):
        affinity_dimension(cf, 3, 1e-6)


def test_tiny_one_dimensional_pair_has_closed_form_root():
    """At d = 1 every feature is the additive k = d one, so the word products
    that underflow are never formed: P_n(t) = log 2 + t log 1e-150 at every
    level, with root log 2 / (150 log 10)."""
    ifs = tiny_pair_ifs(1)
    root = math.log(2) / (150 * math.log(10))
    cf = NaturalCylinderFunction(ifs)
    for n in (1, 3, 6):
        assert pressure_level(cf, 1.0, n) == pytest.approx(math.log(2) + math.log(1e-150), rel=1e-15)
    report = affinity_dimension(cf, 3, 1e-9)
    assert [n for n, _ in report.roots] == [1, 2, 3]
    for _, r in report.roots:
        assert root <= r <= root + 1e-9


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize(
    "cf",
    [
        NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(29), 2, 3)),
        product_cf([0.3, 0.5, 0.15]),
    ],
    ids=["natural", "product"],
)
def test_level_table_matches_streamed_sum(cf, n):
    """One sweep gives log S_n bit-equal to the partition sum, and the values
    are the level's block in packed-index order."""
    log_s, values = level_log_values(cf, 1.37, n)
    assert log_s == log_partition_sum(cf, 1.37, n)
    assert values.tobytes() == cf.log_value_block(1.37, (), n).tobytes()


def test_negative_parameters_rejected():
    """alpha^t is defined for t >= 0, the 1-D product potential included."""
    for cf in (half_product_cf(), swap_pair_cf()):
        with pytest.raises(ValueError, match="nonnegative"):
            level_log_values(cf, -1e308, 4)


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
    cache = PartitionSumCache()
    cf = NaturalCylinderFunction(swap_pair_ifs(), cache=cache)
    first = log_partition_sum(cf, 1.23, 5)
    assert len(cache) == 1
    assert log_partition_sum(cf, 1.23, 5) == first
    key = (cf.content_hash(), 1.23, 5)
    assert cache.get(key) == first


def test_uncached_root_hashes_nothing(monkeypatch):
    """The cache key, a hash of the potential, is built only for a cache:
    an uncached root search on generic-pair hashed 31 times."""
    hashes = []
    content_hash = NaturalCylinderFunction.content_hash

    def counted(self):
        hashes.append(self)
        return content_hash(self)

    monkeypatch.setattr(NaturalCylinderFunction, "content_hash", counted)
    cf = NaturalCylinderFunction(generic_pair_ifs())
    pressure_root(cf, 10, 1e-9)
    assert hashes == []
    cached = NaturalCylinderFunction(generic_pair_ifs(), cache=PartitionSumCache())
    log_partition_sum(cached, 1.0, 3)
    assert hashes == [cached]


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: level_log_values(swap_pair_cf(), 1.0, 0), "level must be >= 1, got 0"),
        (lambda: pressure_sequence(swap_pair_cf(), 1.0, 0), "n_max must be >= 1, got 0"),
        (lambda: affinity_dimension(swap_pair_cf(), -1, 1e-6), "n_max must be >= 1, got -1"),
        (lambda: pressure_root(product_cf([0.5]), 2, 1e-6), "pressure root needs at least two"),
    ],
    ids=["level", "sequence-levels", "dimension-levels", "root-symbols"],
)
def test_pressure_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "make",
    [generic_pair_ifs, swap_pair_ifs, conformal_pair_ifs]
    + [lambda seed=seed: random_affine_ifs(np.random.default_rng(seed), 2, 2) for seed in range(3)],
    ids=["generic-pair", "swap-pair", "conformal-pair", "random-0", "random-1", "random-2"],
)
@pytest.mark.parametrize("n", [4, 8])
def test_log_partition_sum_within_allowance_of_mpmath(make, n):
    """The float level sum is within ``rounding_allowance`` of a 50-digit
    one; the worst ratio over these cases is 7.5e-3."""
    ifs = make()
    cf = NaturalCylinderFunction(ifs)
    t_values = (0.5, 1.37, 2.5)
    for t, exact in zip(t_values, mp_planar_log_partition_sum(ifs.matrices, t_values, n)):
        log_s = log_partition_sum(cf, t, n)
        assert abs(log_s - exact) <= rounding_allowance(n, log_s, n * math.log(2)), t


@pytest.mark.parametrize(
    "make,n_max",
    [(cantor_ifs, 12), (conformal_pair_ifs, 12), (triple_diag_ifs, 8), (generic_pair_ifs, 12)],
)
def test_self_checks_hold_on_subadditive_systems(make, n_max):
    """Equality cases (Cantor, conformal-pair, triple-diag) and generic-pair
    pass every self-check up to t = 1e7, where rounding alone breaks
    subadditivity of the float sums by up to 4e-8."""
    cf = NaturalCylinderFunction(make())
    affinity_dimension(cf, n_max, 1e-9)
    affinity_dimension(cf, n_max, 1e-15)
    for t in (0.0, 0.5, 1.0, 1.37, 2.5, 10.0, 1e3, 1e5, 1e7):
        pressure_sequence(cf, t, n_max)
        diagnostics(cf, t, 8, 2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda cf: pressure_sequence(cf, 1.0, 4), r"log S_2 exceeds log S_1 \+ log S_1 by"),
        (lambda cf: diagnostics(cf, 1.0, 4, 2), r"log S_2 exceeds log S_1 \+ log S_1 by"),
        (lambda cf: affinity_dimension(cf, 4, 1e-9), r"level root t_2 = .* exceeds t_1"),
    ],
    ids=["sequence", "diagnostics", "dimension"],
)
def test_superadditive_level_sums_raise_self_check_error(monkeypatch, call, message):
    """Level sums lifted by 1e-3 n^2 are superadditive: log S_{i+j} exceeds
    log S_i + log S_j by 2e-3 ij, and the level roots rise with n."""
    cf = NaturalCylinderFunction(conformal_pair_ifs())
    block = cf.log_value_block
    monkeypatch.setattr(cf, "log_value_block",
                        lambda t, prefix, depth: block(t, prefix, depth) + 1e-3 * depth**2)
    with pytest.raises(SelfCheckError, match=message):
        call(cf)
