import math

import numpy as np
import pytest
from systems import (
    half_product_cf,
    random_affine_ifs,
    swap_pair_cf,
    third_product_cf,
    triple_diag_ifs,
)

from selfaffine import (
    CylinderMeasure,
    NaturalCylinderFunction,
    ProductCylinderFunction,
    bernoulli_lower_estimate,
    diagnostics,
    energy_depth,
    entropy_depth,
    entropy_table,
    invariance_defect,
    jensen_residual,
    local_dimension_samples,
    log_partition_sum,
    mu_cesaro,
    nu_weights,
    pressure_level,
    pressure_root,
)
from selfaffine import pressure

SWAP_MASS_OUTER = 0.2928932188134525  # 1/(2 + sqrt 2), computed by direct enumeration
SWAP_MASS_INNER = 0.20710678118654754
SWAP_ENTROPY_K2 = 0.6857513293769083  # -(1/2) sum m log m at the masses above


class TestCylinderMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            CylinderMeasure(2, 2, np.array([0.5, 0.5]))  # wrong table size
        with pytest.raises(ValueError):
            CylinderMeasure(2, 1, np.array([0.9, 0.2]))  # sums to 1.1
        with pytest.raises(ValueError):
            CylinderMeasure(2, 1, np.array([1.5, -0.5]))  # negative mass

    def test_mass_lookup_and_marginal(self):
        m = CylinderMeasure(2, 2, np.array([0.4, 0.1, 0.2, 0.3]))
        assert m.mass((0, 0)) == 0.4
        assert m.mass((1, 0)) == 0.2
        marg = m.marginal(1)
        assert np.allclose(marg.masses, [0.5, 0.5])
        with pytest.raises(ValueError):
            m.mass((0,))

    def test_bernoulli_builder(self):
        m = CylinderMeasure.bernoulli([0.25, 0.75], 3)
        assert m.masses.sum() == pytest.approx(1.0, abs=1e-14)
        assert m.mass((1, 1, 1)) == pytest.approx(0.75**3, rel=1e-14)


class TestNuWeights:
    def test_product_is_uniform(self):
        nu = nu_weights(half_product_cf(), 1.7, 4)
        assert np.allclose(nu.masses, 1 / 16, rtol=0, atol=1e-15)

    def test_swap_pair_hand_enumeration(self):
        nu = nu_weights(swap_pair_cf(), 1.5, 2)
        expected = [SWAP_MASS_OUTER, SWAP_MASS_INNER, SWAP_MASS_INNER, SWAP_MASS_OUTER]
        assert np.allclose(nu.masses, expected, rtol=0, atol=1e-12)

    def test_single_map_point_mass(self):
        cf = NaturalCylinderFunction(np.stack([np.diag([0.5, 0.25])]))
        nu = nu_weights(cf, 1.0, 3)
        assert nu.masses.shape == (1,)
        assert nu.masses[0] == pytest.approx(1.0, abs=1e-15)

    def test_sums_to_one_and_matches_direct_ratio(self):
        rng = np.random.default_rng(30)
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        nu = nu_weights(cf, 1.3, 6)
        assert abs(nu.masses.sum() - 1.0) <= 1e-12
        # oracle: mass ratio equals value ratio
        w1, w2 = (0, 1, 1, 0, 1, 0), (1, 1, 0, 0, 0, 1)
        assert nu.mass(w1) / nu.mass(w2) == pytest.approx(
            cf.value(1.3, w1) / cf.value(1.3, w2), rel=1e-10
        )


class TestMuCesaro:
    def test_product_pad_depth_one_uniform(self):
        mu = mu_cesaro(half_product_cf(), 1.0, 6, 1)
        assert np.allclose(mu.masses, 0.5, rtol=0, atol=1e-14)

    def test_product_drop_uniform_at_every_depth(self):
        for k in (1, 2, 3):
            mu = mu_cesaro(half_product_cf(), 1.0, 6, k, tail_mode="drop")
            assert np.allclose(mu.masses, 2.0**-k, rtol=0, atol=1e-14)

    def test_pad_tail_accounting_oracle(self):
        # independent oracle: enumerate words, slide windows, pad with 0s
        cf = swap_pair_cf()
        t, n, k = 1.5, 4, 2
        nu = nu_weights(cf, t, n)
        table = np.zeros(4)
        for idx in range(16):
            w = [(idx >> (n - 1 - b)) & 1 for b in range(n)]
            for j in range(n):
                window = (w[j:] + [0] * k)[:k]
                table[window[0] * 2 + window[1]] += nu.masses[idx] / n
        mu = mu_cesaro(cf, t, n, k)
        assert np.allclose(mu.masses, table, rtol=0, atol=1e-14)

    def test_swap_symmetry_depth_one(self):
        mu = mu_cesaro(swap_pair_cf(), 1.5, 2, 1)
        assert np.allclose(mu.masses, [0.5, 0.5], rtol=0, atol=1e-12)

    def test_marginal_consistency_across_depths(self):
        cf = swap_pair_cf()
        mu3 = mu_cesaro(cf, 1.3, 8, 3)
        mu2 = mu_cesaro(cf, 1.3, 8, 2)
        assert np.allclose(mu3.marginal(2).masses, mu2.masses, rtol=0, atol=1e-12)
        assert abs(mu3.masses.sum() - 1.0) <= 1e-12

    def test_rejects_bad_depth_and_mode(self):
        cf = half_product_cf()
        with pytest.raises(ValueError):
            mu_cesaro(cf, 1.0, 3, 4)
        with pytest.raises(ValueError):
            mu_cesaro(cf, 1.0, 3, 1, tail_mode="wrap")


class TestEntropyEnergy:
    def test_entropy_uniform_and_point(self):
        uniform = CylinderMeasure(2, 3, np.full(8, 0.125))
        assert entropy_depth(uniform) == pytest.approx(math.log(2), rel=1e-14)
        point = CylinderMeasure.point_mass(2, (0, 1, 1))
        assert entropy_depth(point) == 0.0

    def test_entropy_zero_mass_convention(self):
        m = CylinderMeasure(2, 1, np.array([1.0, 0.0]))
        assert entropy_depth(m) == 0.0

    def test_entropy_swap_masses_frozen(self):
        masses = np.array(
            [SWAP_MASS_OUTER, SWAP_MASS_INNER, SWAP_MASS_INNER, SWAP_MASS_OUTER]
        )
        m = CylinderMeasure(2, 2, masses)
        assert entropy_depth(m) == pytest.approx(SWAP_ENTROPY_K2, abs=1e-12)

    def test_entropy_range(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = CylinderMeasure(2, 4, rng.dirichlet(np.ones(16)))
            assert 0.0 <= entropy_depth(m) <= math.log(2) + 1e-12

    def test_energy_product(self):
        cf = half_product_cf()
        rng = np.random.default_rng(32)
        m = CylinderMeasure(2, 4, rng.dirichlet(np.ones(16)))
        assert energy_depth(cf, 1.0, m) == pytest.approx(-math.log(2), rel=1e-12)

    def test_energy_point_mass(self):
        cf = NaturalCylinderFunction(np.stack([np.diag([0.5, 0.25])] * 2))
        m = CylinderMeasure.point_mass(2, (0, 0))
        # (1/2) log alpha^1(diag(1/4, 1/16)) = (1/2) log(1/4)
        assert energy_depth(cf, 1.0, m) == pytest.approx(-math.log(2), rel=1e-12)

    def test_energy_uniform_depth_one_triple(self):
        cf = NaturalCylinderFunction(triple_diag_ifs())
        m = CylinderMeasure(3, 1, np.full(3, 1 / 3))
        assert energy_depth(cf, 1.5, m) == pytest.approx(math.log(0.25), rel=1e-12)


class TestJensen:
    def test_zero_at_nu(self):
        cf = swap_pair_cf()
        nu = nu_weights(cf, 1.3, 6)
        assert abs(jensen_residual(cf, 1.3, 6, nu)) <= 1e-12

    def test_point_mass_formula(self):
        cf = swap_pair_cf()
        w = (0, 1, 1, 0)
        m = CylinderMeasure.point_mass(2, w)
        expected = (log_partition_sum(cf, 1.3, 4) - cf.log_value(1.3, w)) / 4
        assert jensen_residual(cf, 1.3, 4, m) == pytest.approx(expected, rel=1e-12)
        assert expected >= 0

    def test_nonnegative_on_random_vectors(self):
        cf = swap_pair_cf()
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = CylinderMeasure(2, 6, rng.dirichlet(np.ones(64)))
            assert jensen_residual(cf, 1.3, 6, m) >= -1e-12


class TestInvarianceDefect:
    def test_product_drop_exactly_invariant(self):
        assert invariance_defect(half_product_cf(), 1.0, 6, 2, tail_mode="drop") == 0.0

    def test_pad_matches_analytic_telescope(self):
        # under the pad convention the defect telescopes to
        # (1/n) |nu([u]) - [u == 0^k]|, maximized over u
        cf = swap_pair_cf()
        t, n, k = 1.3, 8, 2
        nu_k = nu_weights(cf, t, n).marginal(k).masses
        analytic = np.abs(nu_k - np.eye(1, len(nu_k), 0)[0]).max() / n
        assert invariance_defect(cf, t, n, k) == pytest.approx(analytic, abs=1e-13)

    @pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (8, 2), (12, 3)])
    def test_bound_one_over_n(self, n, k):
        cf = swap_pair_cf()
        assert invariance_defect(cf, 1.5, n, k) <= 1 / n + 1e-12
        rng = np.random.default_rng(34)
        cf2 = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        assert invariance_defect(cf2, 1.1, n, k) <= 1 / n + 1e-12

    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            invariance_defect(half_product_cf(), 1.0, 4, 4)


class TestShiftAverageConstruction:
    """Exact finite-level steps of the equilibrium-existence construction:
    the Cesaro table is the average of the shifted-window tables, the energy
    average is linear (equality), and entropy averaging only gains (concavity).
    """

    @staticmethod
    def shifted_window_tables(cf, t, n, k):
        nu = nu_weights(cf, t, n)
        m = cf.n_symbols
        tables = []
        for j in range(n):
            table = np.zeros(m**k)
            for idx, mass in enumerate(nu.masses):
                w = [(idx // m ** (n - 1 - b)) % m for b in range(n)]
                window = (w[j:] + [0] * k)[:k]
                packed = 0
                for s in window:
                    packed = packed * m + s
                table[packed] += mass
            tables.append(table)
        return tables

    def test_cesaro_is_average_of_shifted_tables(self):
        cf = swap_pair_cf()
        t, n, k = 1.5, 6, 2
        tables = self.shifted_window_tables(cf, t, n, k)
        mu = mu_cesaro(cf, t, n, k)
        assert np.allclose(np.mean(tables, axis=0), mu.masses, rtol=0, atol=1e-13)

    def test_energy_average_is_exact(self):
        cf = swap_pair_cf()
        t, n, k = 1.5, 6, 2
        tables = self.shifted_window_tables(cf, t, n, k)
        mu = mu_cesaro(cf, t, n, k)
        averaged = np.mean([energy_depth(cf, t, CylinderMeasure(2, k, tb)) for tb in tables])
        assert averaged == pytest.approx(energy_depth(cf, t, mu), abs=1e-12)

    def test_entropy_average_bounded_by_cesaro_entropy(self):
        cf = swap_pair_cf()
        t, n, k = 1.5, 6, 2
        tables = self.shifted_window_tables(cf, t, n, k)
        mu = mu_cesaro(cf, t, n, k)
        averaged = np.mean([entropy_table(tb) for tb in tables])
        assert averaged <= entropy_table(mu.masses) + 1e-12


class TestEntropySubadditivity:
    def test_exact_split_inequality(self):
        # joint entropy of one table vs entropies of its two block marginals
        cf = swap_pair_cf()
        table = mu_cesaro(cf, 1.3, 10, 6).masses
        for n1 in range(1, 6):
            n2 = 6 - n1
            joint = entropy_table(table)
            first = entropy_table(table.reshape(2**n1, 2**n2).sum(axis=1))
            second = entropy_table(table.reshape(2**n1, 2**n2).sum(axis=0))
            assert joint <= first + second + 1e-10

    def test_prefix_form_on_reference_systems(self):
        # H_{n+m} <= H_n + H_m with both entropies from prefix tables; holds
        # on these systems (approximately invariant tables)
        for cf in (swap_pair_cf(), NaturalCylinderFunction(triple_diag_ifs())):
            deep = mu_cesaro(cf, 1.2, 9, 6)
            h6 = entropy_table(deep.masses)
            for n1 in (2, 3, 4):
                h_a = entropy_table(deep.marginal(n1).masses)
                h_b = entropy_table(deep.marginal(6 - n1).masses)
                assert h6 <= h_a + h_b + 1e-10


class TestLocalDimension:
    def test_product_half_exact(self):
        ld = local_dimension_samples(half_product_cf(), 1.0, 12, 50, seed=7)
        assert np.abs(ld.ratios - 1.0).max() <= 1e-12

    def test_product_thirds_exact(self):
        t_star = math.log(2) / math.log(3)
        ld = local_dimension_samples(third_product_cf(), t_star, 12, 50, seed=7)
        assert np.abs(ld.ratios - 1.0).max() <= 1e-12

    def test_natural_mean_near_one(self):
        rng = np.random.default_rng(35)
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        t12 = pressure_root(cf, 12, 1e-9)
        ld = local_dimension_samples(cf, t12, 12, 200, seed=5)
        assert abs(ld.mean - 1.0) <= 0.1
        assert len(ld.ratios) == 200

    def test_deterministic(self):
        cf = swap_pair_cf()
        a = local_dimension_samples(cf, 1.2, 8, 40, seed=11)
        b = local_dimension_samples(cf, 1.2, 8, 40, seed=11)
        assert np.array_equal(a.ratios, b.ratios)


class TestBernoulliEstimate:
    def test_product_closed_form(self):
        cf = ProductCylinderFunction([0.3, 0.5])
        for t in (0.7, 1.0, 2.2):
            p, score = bernoulli_lower_estimate(cf, t, 5, iterations=5)
            st = np.array([0.3, 0.5]) ** t
            assert np.allclose(p, st / st.sum(), rtol=0, atol=1e-12)
            assert score == pytest.approx(math.log(st.sum()), abs=1e-12)

    def test_symmetric_natural_uniform(self):
        p, _ = bernoulli_lower_estimate(swap_pair_cf(), 1.3, 5, iterations=20)
        assert np.allclose(p, 0.5, rtol=0, atol=1e-6)

    def test_score_below_level_pressure(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
            t = float(rng.uniform(0.5, 2.5))
            _, score = bernoulli_lower_estimate(cf, t, 5, iterations=30)
            assert score <= pressure_level(cf, t, 5) + 1e-10


def test_diagnostics_snapshot():
    cf = swap_pair_cf()
    diag = diagnostics(cf, 1.4, 8, 2)
    assert 0.0 <= diag.entropy_k <= math.log(2)
    assert diag.energy_k < 0
    assert diag.invariance_defect_max <= 1 / 8 + 1e-12
    assert math.isfinite(diag.gap)
    assert diag.measure.masses.tobytes() == mu_cesaro(cf, 1.4, 8, 2).masses.tobytes()
    diag_full = diagnostics(cf, 1.4, 4, 4)
    assert math.isnan(diag_full.invariance_defect_max)


class TestOnePassMatchesTwoPass:
    """The one-sweep consumers give the bits of the two-pass formulas: log S_n
    from ``log_partition_sum`` and the word values from a second sweep."""

    CF = NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(37), 2, 3))
    T, N = 1.21, 6

    def two_pass(self):
        cf, t, n = self.CF, self.T, self.N
        return log_partition_sum(cf, t, n), list(pressure.level_blocks(cf, t, n))

    def test_nu_weights(self):
        log_s, blocks = self.two_pass()
        expected = np.exp(np.concatenate(blocks) - log_s)
        assert nu_weights(self.CF, self.T, self.N).masses.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("tail_mode", ["pad", "drop"])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_mu_cesaro(self, tail_mode, k):
        log_s, blocks = self.two_pass()
        m_sym, n = self.CF.n_symbols, self.N
        size_k = m_sym**k
        shifts = range(n) if tail_mode == "pad" else range(n - k + 1)
        table, offset = np.zeros(size_k), 0
        for lv in blocks:
            weights = np.exp(lv - log_s)
            packed = np.arange(len(lv), dtype=np.int64) + offset
            part = np.zeros(size_k)
            for j in shifts:
                if j <= n - k:
                    idx = (packed // m_sym ** (n - j - k)) % size_k
                else:
                    q = n - j
                    idx = (packed % m_sym**q) * m_sym ** (k - q)
                part += np.bincount(idx, weights=weights, minlength=size_k)
            table += part
            offset += len(lv)
        table /= n if tail_mode == "pad" else (n - k + 1)
        mu = mu_cesaro(self.CF, self.T, n, k, tail_mode)
        assert mu.masses.tobytes() == table.tobytes()

    def test_jensen_residual(self):
        log_s, blocks = self.two_pass()
        m = CylinderMeasure(3, self.N, np.random.default_rng(38).dirichlet(np.ones(3**self.N)))
        energy = float(m.masses @ np.concatenate(blocks)) / self.N
        expected = log_s / self.N - entropy_depth(m) - energy
        assert jensen_residual(self.CF, self.T, self.N, m) == expected


def test_diagnostics_sweeps_top_level_at_most_three_times():
    """mu_cesaro, the level-n pressure and the depth-(k+1) defect table each
    walk the 2^4 prefix blocks of level n once."""
    cf = swap_pair_cf()
    levels = []
    block = cf.log_value_block

    def counting(t, prefix, depth):
        levels.append(len(prefix) + depth)
        return block(t, prefix, depth)

    cf.log_value_block = counting
    diagnostics(cf, 1.4, 8, 2)
    assert levels.count(8) <= 3 * 2**4
