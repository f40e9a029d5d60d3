import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import words_of_length
from systems import (
    cantor_ifs,
    generic_pair_ifs,
    product_cf,
    random_affine_ifs,
    swap_pair_cf,
    triple_diag_ifs,
)

from selfaffine import cylinder
from selfaffine.cli import parse_t_grid
from selfaffine.symbolic import MAX_WORD_BUDGET

from selfaffine import (
    DEFAULT_WORD_BUDGET,
    AxiomReport,
    LevelOverflowError,
    NaturalCylinderFunction,
    PartitionSumCache,
    log_partition_sum,
    pack_word,
    verify_axioms,
)


def test_natural_rejects_expanding_maps():
    with pytest.raises(ValueError, match="not contractive"):
        NaturalCylinderFunction(np.stack([np.diag([1.5, 0.5])]))


def test_product_rejects_bad_weights():
    with pytest.raises(ValueError, match="not contractive"):
        product_cf([0.5, 1.0])
    with pytest.raises(ValueError, match="nonempty"):
        product_cf([])


def test_product_value():
    cf = product_cf([0.5, 0.5])
    assert math.exp(cf.log_value(1.0, (0, 1, 0, 1, 1))) == pytest.approx(2.0**-5, rel=1e-14)


def test_natural_value_diag():
    cf = NaturalCylinderFunction(np.stack([np.diag([0.5, 0.25])] * 2))
    # word (0,0) has matrix diag(1/4, 1/16); alpha^1.5 = 0.25 * 0.25
    assert math.exp(cf.log_value(1.5, (0, 0))) == pytest.approx(0.0625, rel=1e-13)
    assert math.exp(cf.log_value(0.0, (1,))) == 1.0


def test_value_rejects_bad_words():
    cf = product_cf([0.5, 0.5])
    with pytest.raises(ValueError):
        cf.log_value(1.0, ())
    with pytest.raises(ValueError):
        cf.log_value(1.0, (0, 2))


def test_constants_product():
    assert product_cf([0.3, 0.5]).constants() == (0.3, 0.5)


def test_constants_natural():
    s_lo, s_hi = swap_pair_cf().constants()
    assert s_lo == pytest.approx(0.25, abs=1e-14)
    assert s_hi == pytest.approx(0.5, abs=1e-14)
    conformal = NaturalCylinderFunction(np.stack([0.5 * np.eye(2)]))
    assert conformal.constants() == pytest.approx((0.5, 0.5), abs=1e-14)


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_block_values_match_per_word(depth):
    for cf in (swap_pair_cf(), product_cf([0.3, 0.6])):
        for prefix in [(0,), (1, 0)]:
            block = cf.log_value_block(1.3, prefix, depth)
            direct = [cf.log_value(1.3, prefix + s) for s in words_of_length(2, depth)]
            assert np.allclose(block, direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "cf", [product_cf([0.3, 0.5]), swap_pair_cf()], ids=["product", "natural"]
)
def test_block_rejects_bad_prefix(cf):
    """A prefix is checked as a word is: ``(-1,)`` wrapped round to the block
    of ``(1,)``, and ``(2,)`` raised a bare ``IndexError``."""
    for bad in [(-1,), (2,), (0, 5)]:
        with pytest.raises(ValueError, match="alphabet of size 2"):
            cf.log_value_block(1.0, bad, 1)
        with pytest.raises(ValueError, match="alphabet of size 2"):
            cf.log_value(1.0, bad)
    assert len(cf.log_value_block(1.0, (), 1)) == 2  # the empty prefix stays valid


#: The potential at d = 1 through 4 (d = 4 reaches LAPACK), the 1-D product
#: potential included, as factories so that each test starts from an empty
#: feature memo.
POTENTIALS = {
    "product": lambda: product_cf([0.3, 0.5, 0.15]),
    "natural-d1": lambda: NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(1), 1, 3)),
    "generic-pair": lambda: NaturalCylinderFunction(generic_pair_ifs()),
    "natural-d3": lambda: NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(3), 3, 3)),
    "natural-d4": lambda: NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(4), 4, 2)),
}

#: Parameters in (0, 1), at every integer up to 4, between integers, and past d.
LEVEL_TS = (0.0, 0.6, 1.0, 1.37, 2.0, 2.5, 3.0, 3.4, 4.0, 5.5)


@pytest.mark.parametrize("make", POTENTIALS.values(), ids=POTENTIALS.keys())
def test_level_is_exponents_times_features(make):
    """A level's log-values are sum_k c_k * F_k, summed from zeros in
    ``terms`` order, bit for bit, and the features are read-only."""
    cf = make()
    for t in LEVEL_TS:
        for n in range(1, 7):
            want = np.zeros(cf.n_symbols**n)
            for k, coeff in cf.terms(t):
                feats = cf.level_features(k, n)
                assert not feats.flags.writeable
                want += coeff * feats
            assert cf.log_value_block(t, (), n).tobytes() == want.tobytes()


@pytest.mark.parametrize("make", POTENTIALS.values(), ids=POTENTIALS.keys())
def test_single_word_is_its_level_entry(make):
    """``log_value`` forms one product per compound, without the level, and
    gives the bits of the word's entry in the level."""
    cf = make()
    for t in LEVEL_TS:
        for n in range(1, 5):
            level = cf.log_value_block(t, (), n)
            for index, w in enumerate(words_of_length(cf.n_symbols, n)):
                assert np.float64(cf.log_value(t, w)).tobytes() == level[index].tobytes()


@pytest.mark.parametrize("make", POTENTIALS.values(), ids=POTENTIALS.keys())
def test_prefix_block_is_a_slice_of_its_level(make):
    """A prefix block is its level's slice, and taken after the level it
    builds no features: the memo stays keyed by (k, n)."""
    cf = make()
    for t in (0.6, 2.5):
        level = cf.log_value_block(t, (), 5)
        kept = dict(cf._features)
        for prefix in [(0,), (1, 0), (1, 1, 0), (0, 1, 1, 0, 1)]:
            depth = 5 - len(prefix)
            start = pack_word(prefix, cf.n_symbols) * cf.n_symbols**depth
            block = cf.log_value_block(t, prefix, depth)
            assert block.tobytes() == level[start:start + cf.n_symbols**depth].tobytes()
        assert cf._features.keys() == kept.keys()
        assert all(cf._features[key] is feats for key, feats in kept.items())
    # built per k, as the terms ask
    assert sorted(kept) == [(k, 5) for k in range(1, min(cf.dimension, 3) + 1)]


def test_chain_rule_equality_product():
    rng = np.random.default_rng(10)
    cf = product_cf([0.3, 0.5, 0.7])
    for _ in range(300):
        i = tuple(rng.integers(0, 3, size=rng.integers(1, 6)))
        j = tuple(rng.integers(0, 3, size=rng.integers(1, 6)))
        t = float(rng.uniform(0, 3))
        lhs = math.exp(cf.log_value(t, i + j))
        rhs = math.exp(cf.log_value(t, i)) * math.exp(cf.log_value(t, j))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_subchain_rule_natural():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 3))
        for _ in range(50):
            i = tuple(rng.integers(0, 3, size=rng.integers(1, 5)))
            j = tuple(rng.integers(0, 3, size=rng.integers(1, 5)))
            t = float(rng.uniform(0, 3))
            lhs = math.exp(cf.log_value(t, i + j))
            rhs = math.exp(cf.log_value(t, i)) * math.exp(cf.log_value(t, j))
            assert lhs <= rhs * (1 + 1e-12)


def test_parameter_bound_two_sided():
    rng = np.random.default_rng(12)
    delta = 0.25
    for cf in (swap_pair_cf(), product_cf([0.3, 0.6])):
        for _ in range(200):
            w = tuple(rng.integers(0, 2, size=rng.integers(1, 8)))
            t = float(rng.uniform(0, 2.5))
            s_lo, s_hi = cf.constants()
            base = cf.log_value(t, w)
            shifted = cf.log_value(t + delta, w)
            assert shifted >= base + delta * len(w) * math.log(s_lo) - 1e-10
            assert shifted <= base + delta * len(w) * math.log(s_hi) + 1e-10


def test_verify_axioms_product_chain_rule_is_tight():
    report = verify_axioms(product_cf([0.4, 0.6]), [0.5, 1.0, 1.5], samples=400, seed=3)
    assert abs(report.worst_subchain_violation) <= 1e-12
    assert report.worst_param_violation <= 1e-10
    assert report.passed()


def test_max_slack_is_at_least_zero():
    """The worst slack is +0.0 when both sampled axioms hold with margin."""
    report = AxiomReport(-0.5, -0.25)
    assert report.max_slack() == 0.0
    assert math.copysign(1.0, report.max_slack()) == 1.0
    assert AxiomReport(2e-9, -0.25).max_slack() == 2e-9
    assert AxiomReport(-0.5, 3e-9).max_slack() == 3e-9


def test_verify_axioms_rejects_unsorted_grid():
    """A descending grid took negative increments and reported a parameter
    violation of 1.419 where the ascending grid passes."""
    cf = product_cf([0.4, 0.6])
    for grid in ([1.5, 1.0, 0.5], [0.5, 1.0, 1.0], [1.0, 0.5, 1.5]):
        with pytest.raises(ValueError, match="strictly ascending"):
            verify_axioms(cf, grid, samples=400, seed=3)


def test_verify_axioms_natural_random_maps():
    rng = np.random.default_rng(13)
    cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
    report = verify_axioms(cf, [0.5, 1.0, 1.5, 2.0, 2.5], n_max=10, samples=1000, seed=7)
    assert report.worst_subchain_violation <= 1e-12
    assert report.worst_param_violation <= 1e-10
    assert report.passed()


def test_verify_axioms_param_bound_uses_evaluated_increment():
    """At t0 = 1e16 rounding absorbs a one-point grid's increment of 0.25, so
    both parameter slacks are taken at a zero shift.  Checking the nominal
    increment reported a violation of 1.444."""
    cf = NaturalCylinderFunction(generic_pair_ifs())
    report = verify_axioms(cf, [1e16], samples=50)
    assert report.worst_param_violation <= 0


def test_verify_axioms_passes_on_rounding_at_huge_t():
    """At t = 1e16 the log-values are of order 1e16, so an absolute threshold
    fails on rounding alone; each slack is taken less its allowance."""
    cf = NaturalCylinderFunction(generic_pair_ifs())
    assert verify_axioms(cf, [1e16], samples=50).passed()


def test_log_value_overflow_raises_named_error():
    """A word log-value that overflows was -inf with a RuntimeWarning; it
    now names the word length and t, as a level does."""
    for ifs in (generic_pair_ifs(), cantor_ifs()):
        cf = NaturalCylinderFunction(ifs)
        assert math.isfinite(cf.log_value(1e307, (0,)))
        with pytest.raises(LevelOverflowError, match=r"word of length 8 at t = 1e\+308"):
            cf.log_value(1e308, (0,) * 8)
        with pytest.raises(LevelOverflowError, match=r"at t = 1e\+308"):
            verify_axioms(cf, [1e308], samples=5)


def test_verify_axioms_overflowing_slack_is_named_error(monkeypatch):
    """A parameter slack past the float range is a named error, not an inf
    in the report; a lower bound past it held, and is no error."""
    cf = NaturalCylinderFunction(cantor_ifs())
    monkeypatch.setattr(cf, "constants", lambda: (1e-300, 1e-300))
    with pytest.raises(LevelOverflowError, match=r"axiom slack at t = .* or t = 0\.0 overflows"):
        verify_axioms(cf, [0.0, 1e306], samples=5)
    monkeypatch.setattr(cf, "constants", lambda: (1e-300, 0.5))
    report = verify_axioms(cf, [0.0, 1e306], samples=5)
    assert report.worst_param_violation <= 0


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    n_maps=st.integers(2, 3),
    system_seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.0, 1.7e308),
    b=st.floats(0.0, 1.7e308),
    points=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
# delta * length overflowed before it met log s, although the product is finite
@example(d=1, n_maps=2, system_seed=1, a=0.0, b=2.9961552247705263e+307, points=2, seed=0)
def test_verify_axioms_slacks_finite_or_named_overflow(d, n_maps, system_seed, a, b, points, seed):
    """On any grid that ``parse_t_grid`` accepts up to 1.7e308, both worst
    slacks are finite or the overflow is named."""
    a, b = min(a, b), max(a, b)
    if points == 1 or a == b:
        b, step = a, 1.0
    else:
        step = (b - a) / (points - 1)
    grid = parse_t_grid(f"{a!r}:{b!r}:{step!r}")
    cf = NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(system_seed), d, n_maps))
    try:
        report = verify_axioms(cf, grid, n_max=6, samples=20, seed=seed)
    except LevelOverflowError:
        return
    assert math.isfinite(report.worst_subchain_violation)
    assert math.isfinite(report.worst_param_violation)


def test_verify_axioms_deterministic():
    cf = swap_pair_cf()
    a = verify_axioms(cf, [0.5, 1.0], samples=100, seed=42)
    b = verify_axioms(cf, [0.5, 1.0], samples=100, seed=42)
    assert a == b


def test_content_hash_distinguishes_content():
    a = product_cf([0.5, 0.5])
    b = product_cf([0.5, 0.25])
    assert a.content_hash() != b.content_hash()
    assert a.content_hash() == product_cf([0.5, 0.5]).content_hash()
    n1 = NaturalCylinderFunction(triple_diag_ifs())
    assert n1.content_hash() == NaturalCylinderFunction(triple_diag_ifs()).content_hash()
    assert n1.content_hash() != a.content_hash()


def test_potential_ignores_later_edits_of_the_maps():
    """The potential reads the maps once: an in-place edit of the IFS moves
    neither its hash nor its values, so the cache keeps one record under the
    key of the maps its values came from."""
    ifs = generic_pair_ifs()
    cf = NaturalCylinderFunction(ifs, cache=PartitionSumCache())
    key = cf.content_hash()
    first = log_partition_sum(cf, 0.8, 6)
    ifs.matrices[0, 0, 0] = 0.1
    assert cf.content_hash() == key
    assert log_partition_sum(cf, 0.8, 6) == first
    assert len(cf.cache) == 1 and cf.cache.get((key, 0.8, 6)) == first
    assert NaturalCylinderFunction(ifs).content_hash() != key


#: (t, prefix, depth) block calls that cover every compound order of a d=3
#: potential and several block sizes.
MEMO_CALLS = [
    (t, prefix, depth)
    for t in (0.7, 1.6, 2.5, 3.4, 1.25)
    for prefix, depth in [((0,), 3), ((1, 2), 4), ((2,), 0), ((0, 1), 2), ((2, 2, 1), 5), ((0,), 5)]
]


def _stored_bytes(cf):
    return sum(a.nbytes for a in cf._features.values())


def test_feature_memo_warm_matches_fresh():
    ifs = random_affine_ifs(np.random.default_rng(12), 3, 3)
    warm = NaturalCylinderFunction(ifs)
    for t, prefix, depth in MEMO_CALLS[::-1]:
        warm.log_value_block(t, prefix, depth)
    for t, prefix, depth in MEMO_CALLS:
        fresh = NaturalCylinderFunction(ifs).log_value_block(t, prefix, depth)
        assert warm.log_value_block(t, prefix, depth).tobytes() == fresh.tobytes()


@pytest.mark.parametrize("blocks", [0, 1, 4])
def test_feature_memo_cap(monkeypatch, blocks):
    """Values do not depend on the cap, and the kept bytes never pass it."""
    ifs = random_affine_ifs(np.random.default_rng(13), 3, 3)
    expected = [NaturalCylinderFunction(ifs).log_value_block(*c).tobytes() for c in MEMO_CALLS]
    cap = blocks * 3**4 * 8  # a few depth-4 feature arrays
    monkeypatch.setattr(cylinder, "FEATURE_MEMO_BYTES", cap)
    cf = NaturalCylinderFunction(ifs)
    peak = 0
    for _ in range(2):
        for call, want in zip(MEMO_CALLS, expected):
            assert cf.log_value_block(*call).tobytes() == want
            assert cf._feature_bytes == _stored_bytes(cf) <= cap
            peak = max(peak, _stored_bytes(cf))
    assert (peak > 0) == (blocks > 0)


def test_feature_memo_skips_level_over_cap(monkeypatch):
    """A level whose features pass the cap gives the same bits at every t and
    is never stored, so it does not evict what the memo holds."""
    ifs = generic_pair_ifs()
    ts = (1.5, 0.6, 1.2, 1.9, 1.5)
    expected = [log_partition_sum(NaturalCylinderFunction(ifs), t, 10) for t in ts]
    monkeypatch.setattr(cylinder, "FEATURE_MEMO_BYTES", 4096)  # level 10: 8192 B per k
    cf = NaturalCylinderFunction(ifs)
    log_partition_sum(cf, 1.5, 6)
    kept = dict(cf._features)
    assert kept
    for t, want in zip(ts, expected):
        assert log_partition_sum(cf, t, 10) == want
        assert cf._features.keys() == kept.keys()
        assert all(cf._features[key] is feats for key, feats in kept.items())
    assert cf._feature_bytes == _stored_bytes(cf) <= 4096


@pytest.mark.parametrize("chunk", [1, 2, 5, 1 << 12])
def test_product_chunks_do_not_change_values(monkeypatch, chunk):
    """Products formed a few words at a time give the bits of one batch, and a
    level is its prefix blocks laid end to end."""
    ifs = random_affine_ifs(np.random.default_rng(14), 3, 3)
    fresh = NaturalCylinderFunction(ifs)
    blocks = {t: np.concatenate([fresh.log_value_block(t, w, 4) for w in words_of_length(3, 2)])
              for t in (1.6, 2.5)}
    monkeypatch.setattr(cylinder, "PRODUCT_CHUNK_WORDS", chunk)
    cf = NaturalCylinderFunction(ifs)
    for t, want in blocks.items():
        assert cf.log_value_block(t, (), 6).tobytes() == want.tobytes()
        assert cf.log_value_block(t, (2,), 5).tobytes() == want[-(3**5):].tobytes()


def test_single_word_values_do_not_fill_memo():
    cf = swap_pair_cf()
    verify_axioms(cf, [0.5, 1.0, 1.5], n_max=6, samples=50)
    assert cf.log_value(1.3, (0, 1, 1)) == cf.log_value_block(1.3, (0, 1, 1), 0)[0]
    assert len(cf._features) == 2  # only the block call above, for k = 1 and 2


@pytest.mark.parametrize(
    "make",
    [
        lambda budget: NaturalCylinderFunction(triple_diag_ifs(), budget=budget),
        lambda budget: product_cf([0.5, 0.25], budget=budget),
    ],
    ids=["natural", "product"],
)
def test_potential_holds_its_word_budget(make):
    assert make(None).budget == DEFAULT_WORD_BUDGET
    assert make(80).budget == 80
    assert make(80).content_hash() == make(None).content_hash()
    for bad in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            make(bad)
    assert make(MAX_WORD_BUDGET).budget == MAX_WORD_BUDGET
    with pytest.raises(ValueError, match="MAX_WORD_BUDGET"):
        make(MAX_WORD_BUDGET + 1)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"t_grid": []}, "t_grid must be nonempty"),
        ({"t_grid": [1.0], "n_max": 1}, "n_max must be at least 2"),
    ],
)
def test_verify_axioms_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        verify_axioms(swap_pair_cf(), **kwargs)


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_axioms_needs_a_sample(samples):
    """With nothing sampled the report was (-inf, -inf), which passed."""
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        verify_axioms(swap_pair_cf(), [1.0], samples=samples)
