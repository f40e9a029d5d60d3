"""Reference systems and random-matrix helpers shared across the test suite."""

import numpy as np

from selfaffine import AffineIFS, NaturalCylinderFunction


def with_translations(ifs, flat):
    """``ifs`` with the same linear parts and a new translation bundle (k*d flat coords)."""
    flat = np.asarray(flat, dtype=float).reshape(ifs.n_maps, ifs.dimension)
    return AffineIFS(ifs.dimension, ifs.matrices.copy(), flat, name=ifs.name)


def random_contractive_matrix(rng, d, lo=0.15, hi=0.6):
    """Random non-singular matrix with largest singular value in [lo, hi]."""
    while True:
        G = rng.standard_normal((d, d))
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[-1] < 1e-4 * sv[0]:
            continue
        return G * (rng.uniform(lo, hi) / sv[0])


def random_affine_ifs(rng, d=2, n_maps=2, lo=0.15, hi=0.6):
    mats = [random_contractive_matrix(rng, d, lo, hi) for _ in range(n_maps)]
    trans = rng.uniform(-1, 1, size=(n_maps, d))
    return AffineIFS(d, np.stack(mats), trans, name="random")


def swap_pair_ifs():
    """Two diagonal maps that exchange axes' contraction rates; swap-symmetric."""
    return AffineIFS(
        2,
        [np.diag([0.5, 0.25]), np.diag([0.25, 0.5])],
        [[0.0, 0.0], [1.0, 1.0]],
        name="swap-pair",
    )


def triple_diag_ifs():
    """Three copies of diag(1/2, 1/4); pressure root 1 + ln(3/2)/ln 4."""
    A = np.diag([0.5, 0.25])
    return AffineIFS(2, [A, A, A], [[0.0, 0.0], [0.4, 0.0], [0.0, 0.6]], name="triple-diag")


def conformal_pair_ifs(theta=1.0):
    """Two copies of 0.5 * rotation; affinity dimension exactly 1."""
    R = 0.5 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return AffineIFS(2, [R, R], [[0.0, 0.0], [1.0, 0.0]], name="conformal-pair")


def cantor_ifs():
    """Middle-thirds Cantor system on the line."""
    return AffineIFS(1, [[[1.0 / 3.0]], [[1.0 / 3.0]]], [[0.0], [2.0 / 3.0]], name="cantor")


def similar_ifs_06():
    """Three similarities of ratio 0.6 in d=1 (dimension clamps at 1)."""
    A = [[0.6]]
    return AffineIFS(1, [A, A, A], [[0.0], [0.2], [0.4]], name="similar-0.6")


def tiny_pair_ifs(d):
    """Two copies of 1e-150 times the reversed identity: ratio 1e-150 passes
    validation, but level-3 word products underflow to 0."""
    return AffineIFS(d, [1e-150 * np.eye(d)[::-1]] * 2, np.zeros((2, d)), name="tiny")


def generic_pair_ifs():
    """Fixed non-commuting 2x2 pair with operator norms below 1/2."""
    mats = [
        np.array([[0.48, 0.04], [0.0, 0.36]]),
        np.array([[0.36, 0.0], [0.05, 0.48]]),
    ]
    return AffineIFS(2, mats, [[0.0, 0.0], [0.5, 0.5]], name="generic-pair")


def swap_pair_cf():
    return NaturalCylinderFunction(swap_pair_ifs())


def product_cf(weights, budget=None):
    """The product potential prod_i s_{w_i}^t: the natural potential of the
    1-D maps x -> s_i x."""
    return NaturalCylinderFunction(np.reshape(weights, (-1, 1, 1)), budget)


def half_product_cf():
    return product_cf([0.5, 0.5])


def third_product_cf():
    return product_cf([1.0 / 3.0, 1.0 / 3.0])
