import math

import numpy as np
import pytest
from systems import generic_pair_ifs, random_affine_ifs, swap_pair_cf, triple_diag_ifs

from selfaffine import cylinder

from selfaffine import (
    NaturalCylinderFunction,
    ProductCylinderFunction,
    log_partition_sum,
    verify_axioms,
    words_of_length,
)


def test_natural_rejects_expanding_maps():
    with pytest.raises(ValueError, match="not contractive"):
        NaturalCylinderFunction(np.stack([np.diag([1.5, 0.5])]))


def test_product_rejects_bad_weights():
    with pytest.raises(ValueError):
        ProductCylinderFunction([0.5, 1.0])
    with pytest.raises(ValueError):
        ProductCylinderFunction([])


def test_product_value():
    cf = ProductCylinderFunction([0.5, 0.5])
    assert cf.value(1.0, (0, 1, 0, 1, 1)) == pytest.approx(2.0**-5, rel=1e-14)


def test_natural_value_diag():
    cf = NaturalCylinderFunction(np.stack([np.diag([0.5, 0.25])] * 2))
    # word (0,0) has matrix diag(1/4, 1/16); alpha^1.5 = 0.25 * 0.25
    assert cf.value(1.5, (0, 0)) == pytest.approx(0.0625, rel=1e-13)
    assert cf.value(0.0, (1,)) == 1.0


def test_value_rejects_bad_words():
    cf = ProductCylinderFunction([0.5, 0.5])
    with pytest.raises(ValueError):
        cf.value(1.0, ())
    with pytest.raises(ValueError):
        cf.value(1.0, (0, 2))


def test_tail_is_accepted_and_ignored():
    cf = swap_pair_cf()
    w = (0, 1, 0)
    assert cf.value(1.3, w, tail=(0, 0)) == cf.value(1.3, w, tail=(1, 1, 1))


def test_constants_product():
    assert ProductCylinderFunction([0.3, 0.5]).constants(1.7) == (1.0, 0.3, 0.5)


def test_constants_natural():
    k_t, s_lo, s_hi = swap_pair_cf().constants(1.0)
    assert k_t == 1.0
    assert s_lo == pytest.approx(0.25, abs=1e-14)
    assert s_hi == pytest.approx(0.5, abs=1e-14)
    conformal = NaturalCylinderFunction(np.stack([0.5 * np.eye(2)]))
    assert conformal.constants(2.0) == pytest.approx((1.0, 0.5, 0.5), abs=1e-14)


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_block_values_match_per_word(depth):
    for cf in (swap_pair_cf(), ProductCylinderFunction([0.3, 0.6])):
        for prefix in [(0,), (1, 0)]:
            block = cf.log_value_block(1.3, prefix, depth)
            direct = [cf.log_value(1.3, prefix + s) for s in words_of_length(2, depth)]
            assert np.allclose(block, direct, rtol=0, atol=1e-12)


def test_chain_rule_equality_product():
    rng = np.random.default_rng(10)
    cf = ProductCylinderFunction([0.3, 0.5, 0.7])
    for _ in range(300):
        i = tuple(rng.integers(0, 3, size=rng.integers(1, 6)))
        j = tuple(rng.integers(0, 3, size=rng.integers(1, 6)))
        t = float(rng.uniform(0, 3))
        lhs = cf.value(t, i + j)
        rhs = cf.value(t, i) * cf.value(t, j)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_subchain_rule_natural():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 3))
        for _ in range(50):
            i = tuple(rng.integers(0, 3, size=rng.integers(1, 5)))
            j = tuple(rng.integers(0, 3, size=rng.integers(1, 5)))
            t = float(rng.uniform(0, 3))
            assert cf.value(t, i + j) <= cf.value(t, i) * cf.value(t, j) * (1 + 1e-12)


def test_parameter_bound_two_sided():
    rng = np.random.default_rng(12)
    delta = 0.25
    for cf in (swap_pair_cf(), ProductCylinderFunction([0.3, 0.6])):
        for _ in range(200):
            w = tuple(rng.integers(0, 2, size=rng.integers(1, 8)))
            t = float(rng.uniform(0, 2.5))
            _, s_lo, s_hi = cf.constants(t)
            base = cf.log_value(t, w)
            shifted = cf.log_value(t + delta, w)
            assert shifted >= base + delta * len(w) * math.log(s_lo) - 1e-10
            assert shifted <= base + delta * len(w) * math.log(s_hi) + 1e-10


def test_verify_axioms_product_chain_rule_is_tight():
    report = verify_axioms(ProductCylinderFunction([0.4, 0.6]), [0.5, 1.0, 1.5], samples=400, seed=3)
    assert report.bvp_max_ratio == 1.0
    assert abs(report.worst_subchain_violation) <= 1e-12
    assert report.worst_param_violation <= 1e-10
    assert report.passed()


def test_verify_axioms_natural_random_maps():
    rng = np.random.default_rng(13)
    cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
    report = verify_axioms(cf, [0.5, 1.0, 1.5, 2.0, 2.5], n_max=10, samples=1000, seed=7)
    assert report.worst_subchain_violation <= 1e-12
    assert report.worst_param_violation <= 1e-10
    assert report.passed()
    assert report.samples == 1000


def test_verify_axioms_deterministic():
    cf = swap_pair_cf()
    a = verify_axioms(cf, [0.5, 1.0], samples=100, seed=42)
    b = verify_axioms(cf, [0.5, 1.0], samples=100, seed=42)
    assert a == b


def test_content_hash_distinguishes_content():
    a = ProductCylinderFunction([0.5, 0.5])
    b = ProductCylinderFunction([0.5, 0.25])
    assert a.content_hash() != b.content_hash()
    assert a.content_hash() == ProductCylinderFunction([0.5, 0.5]).content_hash()
    n1 = NaturalCylinderFunction(triple_diag_ifs())
    assert n1.content_hash() == NaturalCylinderFunction(triple_diag_ifs()).content_hash()
    assert n1.content_hash() != a.content_hash()


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


def test_feature_memo_keeps_level_in_progress(monkeypatch):
    """A level larger than the cap keeps the blocks stored at the first t for
    every later t, so they are never recomputed; other levels are evicted."""
    monkeypatch.setattr(cylinder, "FEATURE_MEMO_BYTES", 4096)
    cf = NaturalCylinderFunction(generic_pair_ifs())
    log_partition_sum(cf, 1.5, 10)
    kept = dict(cf._features)
    assert 0 < cf._feature_bytes <= 4096
    for t in (0.6, 1.2, 1.9, 1.5):
        log_partition_sum(cf, t, 10)
        assert all(cf._features.get(key) is feats for key, feats in kept.items())
    log_partition_sum(cf, 1.5, 9)
    assert not kept.keys() & cf._features.keys()
    assert cf._feature_bytes == _stored_bytes(cf) <= 4096


def test_single_word_values_do_not_fill_memo():
    cf = swap_pair_cf()
    verify_axioms(cf, [0.5, 1.0, 1.5], n_max=6, samples=50)
    assert cf.log_value(1.3, (0, 1, 1)) == cf.log_value_block(1.3, (0, 1, 1), 0)[0]
    assert len(cf._features) == 2  # only the block call above, for k = 1 and 2
