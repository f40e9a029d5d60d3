import math

import numpy as np
import pytest
from oracles import log_svf_alpha_t, svf_exponents, words_of_length
from systems import random_affine_ifs, random_contractive_matrix, tiny_pair_ifs

from selfaffine import (
    NaturalCylinderFunction,
    NumericallySingularError,
    log_partition_sum,
    singular_values,
    word_matrix,
)
from selfaffine.linalg import compound_matrix, svf_compound_terms, top_singular_values


def test_singular_values_identity():
    assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0], rtol=0, atol=1e-14)


def test_singular_values_diagonal():
    sv = singular_values(np.diag([0.5, 1.0 / 3.0]))
    assert sv[0] == pytest.approx(0.5, abs=1e-14)
    assert sv[1] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_singular_values_signed_permutation():
    sv = singular_values(np.array([[0.0, 1.0], [-0.25, 0.0]]))
    assert sv[0] == pytest.approx(1.0, abs=1e-12)
    assert sv[1] == pytest.approx(0.25, abs=1e-12)


def test_singular_matrix_flagged():
    with pytest.raises(NumericallySingularError):
        singular_values(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_operator_norm_agreement():
    rng = np.random.default_rng(1)
    for _ in range(200):
        A = random_contractive_matrix(rng, int(rng.integers(1, 5)))
        sv = singular_values(A)
        opnorm = np.linalg.norm(A, 2)
        assert abs(sv[0] - opnorm) <= 1e-10 * max(1.0, opnorm)


def test_determinant_multiplicativity():
    rng = np.random.default_rng(2)
    for _ in range(300):
        d = int(rng.integers(1, 5))
        A = random_contractive_matrix(rng, d)
        B = random_contractive_matrix(rng, d)
        pa, pb = np.prod(singular_values(A)), np.prod(singular_values(B))
        pab = np.prod(singular_values(A @ B))
        assert pab == pytest.approx(pa * pb, rel=1e-10)
        assert pa == pytest.approx(abs(np.linalg.det(A)), rel=1e-10)


def test_orthogonal_invariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        A = random_contractive_matrix(rng, d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        assert np.allclose(singular_values(Q @ A), singular_values(A), rtol=1e-10)


def test_top_singular_value_submultiplicative():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        A = random_contractive_matrix(rng, d)
        B = random_contractive_matrix(rng, d)
        assert singular_values(A @ B)[0] <= singular_values(A)[0] * singular_values(B)[0] * (
            1 + 1e-12
        )


def svf_alpha_t(A, t):
    """alpha^t(A) as the natural potential of the one-map system {A} gives it."""
    return math.exp(NaturalCylinderFunction(np.stack([A])).log_value(t, (0,)))


def test_svf_diagonal_cases():
    A = np.diag([0.5, 1.0 / 3.0])
    assert svf_alpha_t(A, 1.5) == pytest.approx(0.5 * (1.0 / 3.0) ** 0.5, rel=1e-13)
    assert svf_alpha_t(A, 3.0) == pytest.approx((1.0 / 6.0) ** 1.5, rel=1e-13)
    assert svf_alpha_t(A, 0.0) == 1.0


def test_svf_integer_parameter_is_partial_product():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        A = random_contractive_matrix(rng, d)
        sv = singular_values(A)
        for l in range(1, d + 1):
            assert svf_alpha_t(A, float(l)) == pytest.approx(np.prod(sv[:l]), rel=1e-12)
        # above d both formulas agree at the junction
        assert svf_alpha_t(A, float(d)) == pytest.approx(np.prod(sv) ** 1.0, rel=1e-12)


def test_svf_branch_continuity():
    rng = np.random.default_rng(6)
    eps = 1e-13
    for _ in range(50):
        d = int(rng.integers(2, 5))
        # keep the spectrum away from 0 so the local slope stays small
        A = random_contractive_matrix(rng, d, lo=0.4, hi=0.9)
        for l in range(1, d + 1):
            lo = svf_alpha_t(A, l - eps)
            hi = svf_alpha_t(A, l + eps)
            assert abs(lo - hi) < 1e-12


def test_svf_strictly_decreasing():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 6.0, 25)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        A = random_contractive_matrix(rng, d)
        vals = [svf_alpha_t(A, t) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_log_svf_matches_direct():
    rng = np.random.default_rng(8)
    for _ in range(50):
        A = random_contractive_matrix(rng, 3)
        t = float(rng.uniform(0, 4))
        assert math.log(svf_alpha_t(A, t)) == pytest.approx(log_svf_alpha_t(A, t), abs=1e-12)


def test_svf_exponents_reject_negative_t():
    for exponents in (svf_exponents, svf_compound_terms):
        with pytest.raises(ValueError):
            exponents(-0.5, 2)


def test_word_matrix():
    mats = np.stack([np.diag([0.5, 0.25]), np.diag([0.25, 0.5])])
    assert np.array_equal(word_matrix(mats, ()), np.eye(2))
    assert np.array_equal(word_matrix(mats, (1,)), mats[1])
    assert np.allclose(word_matrix(np.stack([np.diag([0.5, 0.25])] * 2), (0, 0)),
                       np.diag([0.25, 0.0625]), rtol=0, atol=1e-15)


def test_word_matrix_order():
    rng = np.random.default_rng(9)
    A = random_contractive_matrix(rng, 2)
    B = random_contractive_matrix(rng, 2)
    assert np.allclose(word_matrix(np.stack([A, B]), (0, 1)), A @ B, rtol=1e-14)


def _svd_top(mats):
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def _kernel_reference(mats):
    """``|a|`` for a 1 x 1 stack, which ``top_singular_values`` hands to
    LAPACK; LAPACK for every other size."""
    return np.abs(mats[:, 0, 0]) if mats.shape[1] == 1 else _svd_top(mats)


def _kernel_cases(m, count=2000):
    """Named (count, m, m) stacks: Gaussian, near-conformal (scaled orthogonal
    plus noise), and for m = 3 a top singular-value pair of ratio 1 - 1e-6."""
    rng = np.random.default_rng(10 + m)

    def orthogonal():
        return np.linalg.qr(rng.standard_normal((count, m, m)))[0]

    cases = {"gaussian": rng.standard_normal((count, m, m))}
    for noise in (0.0, 1e-12, 1e-8, 1e-4):
        scale = rng.uniform(0.1, 2.0, (count, 1, 1))
        cases[f"conformal+{noise:g}"] = scale * (
            orthogonal() + noise * rng.standard_normal((count, m, m))
        )
    if m == 3:
        svals = np.stack(
            [np.ones(count), np.full(count, 1 - 1e-6), rng.uniform(0.0, 1 - 1e-6, count)], axis=1
        )
        cases["top-pair"] = (orthogonal() * svals[:, None, :]) @ orthogonal().transpose(0, 2, 1)
    return cases


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_top_singular_values_match_svd(m, scale):
    for name, mats in _kernel_cases(m).items():
        mats = mats * scale
        np.testing.assert_allclose(
            top_singular_values(mats), _kernel_reference(mats), rtol=1e-13, atol=0, err_msg=name
        )


@pytest.mark.parametrize("m", [1, 4, 6])
def test_top_singular_values_bit_equal_to_svd(m):
    mats = np.random.default_rng(m).standard_normal((500, m, m))
    assert np.array_equal(top_singular_values(mats), _kernel_reference(mats))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_top_singular_value_of_zero_matrix_is_zero(m):
    mats = np.zeros((3, m, m))
    mats[1] = np.eye(m)
    with np.errstate(all="raise"):
        assert top_singular_values(mats).tolist() == [0.0, 1.0, 0.0]


@pytest.mark.parametrize("d", [2, 3])
def test_underflowing_closed_form_products_raise_named_error(d):
    """Level-3 products of 1e-150 times a permutation underflow to the zero
    matrix; levels 1 and 2 must not."""
    cf = NaturalCylinderFunction(tiny_pair_ifs(d))
    assert math.isfinite(log_partition_sum(cf, 1.0, 2))
    with pytest.raises(NumericallySingularError, match="level 3"):
        log_partition_sum(cf, 1.0, 3)


def test_underflowing_products_are_not_formed_for_the_determinant():
    """At t = d the one term is the additive k = d feature, the sum of the maps'
    log|det|: the level-3 products of the system above are never formed, and
    P_n(3) = log 2 + 3 log 1e-150 at every level."""
    cf = NaturalCylinderFunction(tiny_pair_ifs(3))
    for n in (1, 3, 5):
        assert log_partition_sum(cf, 3.0, n) / n == math.log(2) + 3 * math.log(1e-150)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_level_features_match_svd_reference(d):
    """log(a_1...a_k) of every level-6 word, read off ``log_value_block`` at
    t = k, against LAPACK's top singular value of the word's k-th compound
    product."""
    rng = np.random.default_rng(40 + d)
    ifs = random_affine_ifs(rng, d, 3)
    cf = NaturalCylinderFunction(ifs)
    words = list(words_of_length(3, 6))
    for k in range(1, d + 1):
        comps = np.stack([compound_matrix(A, k) for A in ifs.matrices])
        reference = np.log(_svd_top(np.stack([word_matrix(comps, w) for w in words])))
        assert np.max(np.abs(cf.log_value_block(float(k), (), 6) - reference)) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_log_value_block_matches_direct_svd_at_non_integer_t(d):
    """Every word of levels 1..4 at non-integer t, and at t > d: the level sum
    of compound features against ``svf_exponents . log(singular values)`` of
    the word's matrix product.  LAPACK's smallest singular values are accurate
    only to about eps * a_1, so the bound scales with the word's condition
    number."""
    ifs = random_affine_ifs(np.random.default_rng(40 + d), d, 3)
    cf = NaturalCylinderFunction(ifs)
    eps = np.finfo(float).eps
    for n in range(1, 5):
        words = list(words_of_length(3, n))
        products = [word_matrix(ifs, w) for w in words]
        cond = np.array([np.linalg.cond(A, 2) for A in products])
        for t in (0.3, 1.5, 2.7, 3.2, d + 0.6):
            reference = np.array([log_svf_alpha_t(A, t) for A in products])
            error = np.abs(cf.log_value_block(t, (), n) - reference)
            assert np.all(error <= 64 * d * eps * cond), (n, t, np.max(error / (d * eps * cond)))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: singular_values(np.ones(3)), r"expected a square matrix, got shape \(3,\)"),
        (lambda: singular_values(np.ones((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
        (lambda: singular_values(0.5 * np.eye(5)), "supported dimensions are 1..4, got 5"),
        (lambda: singular_values(np.array([[math.nan]])), "matrix has non-finite entries"),
        (lambda: compound_matrix(np.eye(2), 0), "compound order must be in 1..2, got 0"),
        (lambda: compound_matrix(np.eye(2), 3), "compound order must be in 1..2, got 3"),
        (lambda: word_matrix(np.eye(2), (0,)), r"expected a stack of matrices, got shape \(2, 2\)"),
    ],
)
def test_linalg_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
