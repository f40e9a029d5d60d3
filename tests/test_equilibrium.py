import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    jensen_residual,
    marginal,
    two_pass_cesaro,
    two_pass_nu,
    unpack_word,
    wrapped_by_padding,
    wrapped_by_rotation,
)
from systems import (
    cantor_ifs,
    conformal_pair_ifs,
    generic_pair_ifs,
    half_product_cf,
    random_affine_ifs,
    swap_pair_cf,
    third_product_cf,
    triple_diag_ifs,
)

from selfaffine import (
    CylinderMeasure,
    LevelOverflowError,
    NaturalCylinderFunction,
    PartitionSumCache,
    diagnostics,
    entropy_depth,
    entropy_table,
    log_partition_sum,
    pressure_root,
)
from selfaffine import equilibrium, pressure
from selfaffine.errors import SelfCheckError
from selfaffine.linalg import rounding_allowance
from selfaffine.pressure import level_log_values
from selfaffine.symbolic import pack_word, word_str

SWAP_MASS_OUTER = 0.2928932188134525  # 1/(2 + sqrt 2), computed by direct enumeration
SWAP_MASS_INNER = 0.20710678118654754
SWAP_ENTROPY_K2 = 0.6857513293769083  # -(1/2) sum m log m at the masses above


def energy(cf, t, m):
    """The energy quotient that ``diagnostics`` reports, for the table ``m``."""
    return equilibrium._energy(m, level_log_values(cf, t, m.depth)[1])


def nu_table(cf, t, n):
    """The level-n weights of the checked ``diagnostics`` snapshot."""
    return diagnostics(cf, t, n, n).nu


def cesaro_table(cf, t, n, k):
    """The depth-k Cesaro table of the checked ``diagnostics`` snapshot."""
    return diagnostics(cf, t, n, k).measure


def fresh_defect(cf, t, n, k):
    """The invariance defect read from a fresh depth-(k+1) Cesaro table; at
    k = n that table puts the mass of each rotated word on the word followed
    by its own first symbol."""
    m = cf.n_symbols
    if k < n:
        deep = two_pass_cesaro(cf, t, n, k + 1)
    else:
        rho = two_pass_cesaro(cf, t, n, n)
        r = np.arange(rho.size)
        deep = np.zeros(m ** (n + 1))
        deep[r * m + r // m ** (n - 1)] = rho
    direct = deep.reshape(m**k, m).sum(axis=1)
    preimage = deep.reshape(m, m**k).sum(axis=0)
    return float(np.abs(direct - preimage).max())


class TestCylinderMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            CylinderMeasure(2, 2, np.array([0.5, 0.5]))  # wrong table size
        with pytest.raises(ValueError):
            CylinderMeasure(2, 1, np.array([0.9, 0.2]))  # sums to 1.1
        with pytest.raises(ValueError):
            CylinderMeasure(2, 1, np.array([1.5, -0.5]))  # negative mass
        # a NaN mass fails no sign or sum comparison, so it is checked by name:
        # neither an i.i.d. (depth-1) nor a conditional chaos-game driver holds one
        for depth, masses in ((1, [math.nan, 1.0]), (2, [math.nan, 0.5, 0.25, 0.25]),
                              (1, [math.inf, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                CylinderMeasure(2, depth, np.array(masses))

    def test_mass_lookup_and_marginal(self):
        m = CylinderMeasure(2, 2, np.array([0.4, 0.1, 0.2, 0.3]))
        assert m.masses[pack_word((0, 0), 2)] == 0.4
        assert m.masses[pack_word((1, 0), 2)] == 0.2
        assert np.allclose(marginal(m, 1), [0.5, 0.5])

    @pytest.mark.parametrize("m_sym,depth", [(3, 3), (11, 2)])
    def test_rows_in_packed_order(self, m_sym, depth):
        masses = np.arange(1.0, m_sym**depth + 1)
        m = CylinderMeasure(m_sym, depth, masses / masses.sum())
        expected = [
            (word_str(unpack_word(idx, m_sym, depth), m_sym), float(m.masses[idx]))
            for idx in range(m_sym**depth)
        ]
        assert list(m.rows()) == expected


class TestNuWeights:
    def test_product_is_uniform(self):
        nu = nu_table(half_product_cf(), 1.7, 4)
        assert np.allclose(nu.masses, 1 / 16, rtol=0, atol=1e-15)

    def test_swap_pair_hand_enumeration(self):
        nu = nu_table(swap_pair_cf(), 1.5, 2)
        expected = [SWAP_MASS_OUTER, SWAP_MASS_INNER, SWAP_MASS_INNER, SWAP_MASS_OUTER]
        assert np.allclose(nu.masses, expected, rtol=0, atol=1e-12)

    def test_single_map_point_mass(self):
        cf = NaturalCylinderFunction(np.stack([np.diag([0.5, 0.25])]))
        nu = nu_table(cf, 1.0, 3)
        assert nu.masses.shape == (1,)
        assert nu.masses[0] == pytest.approx(1.0, abs=1e-15)

    def test_weights_past_double_precision_raise_named_error(self):
        """At t = 1e10, log S_4 of generic-pair is about -3.5e10, a multiple of
        7.6e-6, and the weights summed to 0.9999980850345835."""
        cf = NaturalCylinderFunction(generic_pair_ifs())
        with pytest.raises(LevelOverflowError, match=r"level 4 at t = 10000000000\.0"):
            diagnostics(cf, 1e10, 4, 2)
        assert abs(nu_table(cf, 1e8, 4).masses.sum() - 1.0) <= 1e-8

    def test_sums_to_one_and_matches_direct_ratio(self):
        rng = np.random.default_rng(30)
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        nu = nu_table(cf, 1.3, 6)
        assert abs(nu.masses.sum() - 1.0) <= 1e-12
        # oracle: mass ratio equals value ratio
        w1, w2 = (0, 1, 1, 0, 1, 0), (1, 1, 0, 0, 0, 1)
        assert nu.masses[pack_word(w1, 2)] / nu.masses[pack_word(w2, 2)] == pytest.approx(
            math.exp(cf.log_value(1.3, w1)) / math.exp(cf.log_value(1.3, w2)), rel=1e-10
        )


class TestMuCesaro:
    def test_product_drop_uniform_at_every_depth(self):
        # in-word and wrapped windows alike: the table is uniform at every depth 1..n
        for k in range(1, 7):
            mu = cesaro_table(half_product_cf(), 1.0, 6, k)
            assert np.allclose(mu.masses, 2.0**-k, rtol=0, atol=1e-14)

    def test_product_pad_depth_one_uniform(self):
        # no depth-one window wraps, so the table is uniform at every level 1..8
        for n in range(1, 9):
            mu = cesaro_table(half_product_cf(), 1.0, n, 1)
            assert np.allclose(mu.masses, 0.5, rtol=0, atol=1e-14)

    def test_cyclic_window_oracle(self):
        # independent oracle: enumerate words, slide windows around each word
        cf = swap_pair_cf()
        t, n, k = 1.5, 4, 2
        nu = nu_table(cf, t, n)
        table = np.zeros(4)
        for idx in range(16):
            w = [(idx >> (n - 1 - b)) & 1 for b in range(n)]
            for j in range(n):
                window = (w + w)[j : j + k]
                table[window[0] * 2 + window[1]] += nu.masses[idx] / n
        mu = cesaro_table(cf, t, n, k)
        assert np.allclose(mu.masses, table, rtol=0, atol=1e-14)

    def test_swap_symmetry_depth_one(self):
        mu = cesaro_table(swap_pair_cf(), 1.5, 2, 1)
        assert np.allclose(mu.masses, [0.5, 0.5], rtol=0, atol=1e-12)

    def test_marginal_consistency_across_depths(self):
        cf = swap_pair_cf()
        mu3 = cesaro_table(cf, 1.3, 8, 3)
        mu2 = cesaro_table(cf, 1.3, 8, 2)
        assert np.allclose(marginal(mu3, 2), mu2.masses, rtol=0, atol=1e-12)
        assert abs(mu3.masses.sum() - 1.0) <= 1e-12

    def test_rejects_bad_depth_and_mode(self):
        cf = half_product_cf()
        for k in (0, 4):
            with pytest.raises(ValueError):
                cesaro_table(cf, 1.0, 3, k)


class TestEntropyEnergy:
    def test_entropy_uniform_and_point(self):
        uniform = CylinderMeasure(2, 3, np.full(8, 0.125))
        assert entropy_depth(uniform) == pytest.approx(math.log(2), rel=1e-14)
        point = CylinderMeasure(2, 3, np.eye(8)[pack_word((0, 1, 1), 2)])
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
        assert energy(cf, 1.0, m) == pytest.approx(-math.log(2), rel=1e-12)

    def test_energy_point_mass(self):
        cf = NaturalCylinderFunction(np.stack([np.diag([0.5, 0.25])] * 2))
        m = CylinderMeasure(2, 2, np.eye(4)[pack_word((0, 0), 2)])
        # (1/2) log alpha^1(diag(1/4, 1/16)) = (1/2) log(1/4)
        assert energy(cf, 1.0, m) == pytest.approx(-math.log(2), rel=1e-12)

    def test_energy_uniform_depth_one_triple(self):
        cf = NaturalCylinderFunction(triple_diag_ifs())
        m = CylinderMeasure(3, 1, np.full(3, 1 / 3))
        assert energy(cf, 1.5, m) == pytest.approx(math.log(0.25), rel=1e-12)


class TestJensen:
    def test_zero_at_nu(self):
        cf = swap_pair_cf()
        nu = nu_table(cf, 1.3, 6)
        assert abs(jensen_residual(cf, 1.3, 6, nu)) <= 1e-12

    def test_point_mass_formula(self):
        cf = swap_pair_cf()
        w = (0, 1, 1, 0)
        m = CylinderMeasure(2, 4, np.eye(16)[pack_word(w, 2)])
        expected = (log_partition_sum(cf, 1.3, 4) - cf.log_value(1.3, w)) / 4
        assert jensen_residual(cf, 1.3, 4, m) == pytest.approx(expected, rel=1e-12)
        assert expected >= 0

    def test_nonnegative_on_random_vectors(self):
        cf = swap_pair_cf()
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = CylinderMeasure(2, 6, rng.dirichlet(np.ones(64)))
            assert jensen_residual(cf, 1.3, 6, m) >= -1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3]),
        t=st.floats(0.0, 3.5),
        n=st.integers(1, 6),
    )
    def test_random_systems(self, seed, d, t, n):
        """Zero at nu and nonnegative at random probability vectors, on
        random 2-D and 3-D systems."""
        rng = np.random.default_rng(seed)
        cf = NaturalCylinderFunction(random_affine_ifs(rng, d, 2))
        assert abs(jensen_residual(cf, t, n, nu_table(cf, t, n))) <= 1e-12
        for _ in range(3):
            m = CylinderMeasure(2, n, rng.dirichlet(np.ones(2**n)))
            assert jensen_residual(cf, t, n, m) >= -1e-12


def jensen_allowance(cf, t, n, k, energy_k):
    """The rounding allowance of the depth-k Jensen residual: the masses of
    nu carry the rounding of log S_n, which the energy scales, and P_k its own."""
    log_m, log_s_n, log_s_k = math.log(cf.n_symbols), *(log_partition_sum(cf, t, j) for j in (n, k))
    return (rounding_allowance(n, log_s_n, n * log_m) * (1 + abs(energy_k) + abs(log_s_k / k))
            + rounding_allowance(k, log_s_k, k * log_m) / k)


class TestSelfChecks:
    """``diagnostics`` checks the Jensen residual and the invariance defect."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3]),
        maps=st.sampled_from([2, 3]),
        t=st.floats(0.0, 1e6),
        n=st.integers(1, 8),
        data=st.data(),
    )
    def test_hold_on_random_systems(self, seed, d, maps, t, n, data):
        """Neither check fires on random 2-D and 3-D systems for t up to 1e6,
        and at k = n the defect read off the depth-n table has the bits of a
        fresh depth-(n+1) table."""
        k = data.draw(st.integers(1, n))
        cf = NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(seed), d, maps))
        diag = diagnostics(cf, t, n, k)
        assert diag.jensen_residual_k >= -jensen_allowance(cf, t, n, k, diag.energy_k)
        assert diag.invariance_defect_max <= 2 * (n + maps ** (n - k)) * np.finfo(float).eps
        if k == n:
            assert diag.invariance_defect_max == fresh_defect(cf, t, n, k)

    @pytest.mark.parametrize("make", [cantor_ifs, triple_diag_ifs, conformal_pair_ifs])
    def test_residual_vanishes_on_bernoulli_weights(self, make):
        """Every word of a level has one value, so nu is uniform (Bernoulli), each
        depth-k table is the level-k Gibbs weights and the residual is 0 up to
        rounding."""
        cf = NaturalCylinderFunction(make())
        for t in (0.0, 0.63, 1.5, 3.0, 1e3, 1e6):
            for n in (1, 4, 7):
                for k in range(1, n + 1):
                    diag = diagnostics(cf, t, n, k)
                    assert abs(diag.jensen_residual_k) <= jensen_allowance(
                        cf, t, n, k, diag.energy_k), (t, n, k)

    @pytest.mark.parametrize(
        "name,breach,message",
        [("entropy_depth", lambda m: math.log(m.n_symbols) + 1.0, "Jensen residual"),
         ("_defect", lambda nu, t, mu: 1e-12, "invariance defect")],
        ids=["residual", "defect"],
    )
    def test_breach_raises(self, monkeypatch, name, breach, message):
        """An entropy above log #I breaks Jensen, and a defect of 1e-12 is
        far above 2 (n + m^(n-k)) eps = 9.8e-15."""
        monkeypatch.setattr(equilibrium, name, breach)
        with pytest.raises(SelfCheckError, match=message):
            diagnostics(swap_pair_cf(), 1.4, 6, 2)


class TestInvarianceDefect:
    def test_product_exactly_invariant(self):
        for k in range(1, 7):
            assert diagnostics(half_product_cf(), 1.0, 6, k).invariance_defect_max == 0.0

    @pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (8, 2), (12, 3)])
    def test_bound_one_over_n(self, n, k):
        cf = swap_pair_cf()
        assert diagnostics(cf, 1.5, n, k).invariance_defect_max <= 1 / n + 1e-12
        rng = np.random.default_rng(34)
        cf2 = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        assert diagnostics(cf2, 1.1, n, k).invariance_defect_max <= 1 / n + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3]),
        t=st.floats(0.0, 3.5),
        n=st.integers(2, 6),
        data=st.data(),
    )
    def test_bound_one_over_n_random_systems(self, seed, d, t, n, data):
        """The defect is within the rounding bound of ``EquilibriumDiagnostics``
        (so within 1/n), and the depth-(k+1) table's marginal is the depth-k
        table within the same bound, on random 2-D and 3-D systems."""
        k = data.draw(st.integers(1, n))
        cf = NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(seed), d, 2))
        rounding = 2 * (n + 2 ** (n - k)) * np.finfo(float).eps
        defect = diagnostics(cf, t, n, k).invariance_defect_max
        assert defect <= 1 / n + 1e-12
        assert defect <= rounding
        if k < n:
            gap = marginal(cesaro_table(cf, t, n, k + 1), k) - cesaro_table(cf, t, n, k).masses
            assert np.abs(gap).max() <= rounding

    def test_depth_precondition(self):
        cf = half_product_cf()
        assert diagnostics(cf, 1.0, 4, 4).invariance_defect_max == 0.0
        for k in (0, 5):
            with pytest.raises(ValueError):
                diagnostics(cf, 1.0, 4, k)


class TestShiftAverageConstruction:
    """Exact finite-level steps of the equilibrium-existence construction:
    the Cesaro table is the average of the shifted-window tables, the energy
    average is linear (equality), and entropy averaging only gains (concavity).
    """

    @staticmethod
    def shifted_window_tables(cf, t, n, k):
        nu = nu_table(cf, t, n)
        m = cf.n_symbols
        tables = []
        for j in range(n):
            table = np.zeros(m**k)
            for idx, mass in enumerate(nu.masses):
                w = [(idx // m ** (n - 1 - b)) % m for b in range(n)]
                window = (w + w)[j : j + k]
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
        mu = cesaro_table(cf, t, n, k)
        assert np.allclose(np.mean(tables, axis=0), mu.masses, rtol=0, atol=1e-13)

    def test_energy_average_is_exact(self):
        cf = swap_pair_cf()
        t, n, k = 1.5, 6, 2
        tables = self.shifted_window_tables(cf, t, n, k)
        mu = cesaro_table(cf, t, n, k)
        averaged = np.mean([energy(cf, t, CylinderMeasure(2, k, tb)) for tb in tables])
        assert averaged == pytest.approx(energy(cf, t, mu), abs=1e-12)

    def test_entropy_average_bounded_by_cesaro_entropy(self):
        cf = swap_pair_cf()
        t, n, k = 1.5, 6, 2
        tables = self.shifted_window_tables(cf, t, n, k)
        mu = cesaro_table(cf, t, n, k)
        averaged = np.mean([entropy_table(tb) for tb in tables])
        assert averaged <= entropy_table(mu.masses) + 1e-12


class TestEntropySubadditivity:
    def test_exact_split_inequality(self):
        # joint entropy of one table vs entropies of its two block marginals
        cf = swap_pair_cf()
        table = cesaro_table(cf, 1.3, 10, 6).masses
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
            deep = cesaro_table(cf, 1.2, 9, 6)
            h6 = entropy_table(deep.masses)
            for n1 in (2, 3, 4):
                h_a = entropy_table(marginal(deep, n1))
                h_b = entropy_table(marginal(deep, 6 - n1))
                assert h6 <= h_a + h_b + 1e-10


class TestLocalDimension:
    """The ratios log nu_n([w]) / log value(t, w) over every word of level 12."""

    def test_product_half_exact(self):
        log_s, lv = level_log_values(half_product_cf(), 1.0, 12)
        assert np.abs((lv - log_s) / lv - 1.0).max() <= 1e-12

    def test_product_thirds_exact(self):
        t_star = math.log(2) / math.log(3)
        log_s, lv = level_log_values(third_product_cf(), t_star, 12)
        assert np.abs((lv - log_s) / lv - 1.0).max() <= 1e-12

    def test_natural_mean_near_one(self):
        rng = np.random.default_rng(35)
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        t12 = pressure_root(cf, 12, 1e-9)
        log_s, lv = level_log_values(cf, t12, 12)
        assert abs(np.exp(lv - log_s) @ ((lv - log_s) / lv) - 1.0) <= 0.1


def test_diagnostics_snapshot():
    cf = swap_pair_cf()
    diag = diagnostics(cf, 1.4, 8, 2)
    assert 0.0 <= diag.entropy_k <= math.log(2)
    assert diag.energy_k < 0
    assert diag.invariance_defect_max <= 1 / 8 + 1e-12
    assert diag.jensen_residual_k >= 0
    assert diag.measure.masses.tobytes() == two_pass_cesaro(cf, 1.4, 8, 2).tobytes()
    diag_full = diagnostics(cf, 1.4, 4, 4)
    assert diag_full.invariance_defect_max == fresh_defect(cf, 1.4, 4, 4)
    assert diag_full.invariance_defect_max <= 2 * (4 + 1) * np.finfo(float).eps


# Two constructions of a window that wraps round the end of a level-n word,
# for shifts with q < k symbols left: rotate the word and drop what lies
# outside the window, or pad the word with its own head and slide along it.
WRAPPED_WINDOW_TABLES = dict(drop=wrapped_by_rotation, pad=wrapped_by_padding)
CYCLIC_WINDOWS = dict(
    drop=lambda w, j, k: (w[j:] + w[:j])[:k],
    pad=lambda w, j, k: (w + w[: k - 1])[j : j + k],
)


class TestOnePassMatchesTwoPass:
    """The one-sweep tables of ``diagnostics`` give the bits of the two-pass
    formulas: log S_n from ``log_partition_sum`` and the word values from a
    second sweep."""

    CF = NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(37), 2, 3))
    T, N = 1.21, 6

    def test_nu_weights(self):
        expected = two_pass_nu(self.CF, self.T, self.N)
        assert nu_table(self.CF, self.T, self.N).masses.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("wrapped", WRAPPED_WINDOW_TABLES.values(), ids=WRAPPED_WINDOW_TABLES)
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_mu_cesaro(self, k, wrapped):
        table = two_pass_cesaro(self.CF, self.T, self.N, k, wrapped)
        mu = cesaro_table(self.CF, self.T, self.N, k)
        assert mu.masses.tobytes() == table.tobytes()


@pytest.mark.parametrize("window", CYCLIC_WINDOWS.values(), ids=CYCLIC_WINDOWS)
@pytest.mark.parametrize("k", [1, 3, 5])
def test_mu_cesaro_matches_per_word_windows(k, window):
    """Per-word oracle: add each word's nu mass / n to the cylinder of each of
    its n cyclic windows (w + w)[j : j + k]."""
    cf = NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(39), 2, 3))
    t, n = 1.05, 5
    nu = nu_table(cf, t, n).masses
    table = np.zeros(3**k)
    for index, mass in enumerate(nu):
        w = unpack_word(index, 3, n)
        for j in range(n):
            table[pack_word(window(w, j, k), 3)] += mass / n
    mu = cesaro_table(cf, t, n, k)
    np.testing.assert_allclose(mu.masses, table, rtol=1e-13, atol=1e-16)


def test_diagnostics_sweeps_top_level_once():
    """The depth-k and depth-(k+1) tables and the level-n pressure share one
    read of level n."""
    cf = swap_pair_cf()
    levels = []
    block = cf.log_value_block

    def counting(t, prefix, depth):
        levels.append(len(prefix) + depth)
        return block(t, prefix, depth)

    cf.log_value_block = counting
    diag = diagnostics(cf, 1.4, 8, 2)
    assert levels.count(8) == 1
    assert diag.pressure_upper == pressure.pressure_sequence(swap_pair_cf(), 1.4, 8).fekete_upper


def test_diagnostics_at_full_depth_reads_top_level_once():
    """At k = n the energy and the level-n pressure come from the sweep that
    built ``nu``."""
    cf = swap_pair_cf()
    levels = []
    block = cf.log_value_block

    def counting(t, prefix, depth):
        levels.append(len(prefix) + depth)
        return block(t, prefix, depth)

    cf.log_value_block = counting
    diag = diagnostics(cf, 1.4, 4, 4)
    assert levels.count(4) == 1
    assert diag.energy_k == energy(swap_pair_cf(), 1.4, diag.measure)
    assert diag.nu.masses.tobytes() == two_pass_nu(swap_pair_cf(), 1.4, 4).tobytes()


def test_diagnostics_reads_each_level_once_and_no_cache():
    """Every level 1..n is swept once: level k gives the energy as well as its
    envelope term (levels read for n = 8, k = 3 were [8, 3, 1, 2, ..., 7]).
    The sweeps bypass the potential's cache, which keeps no record."""
    cache = PartitionSumCache()
    cf = NaturalCylinderFunction(generic_pair_ifs(), cache=cache)
    levels = []
    block = cf.log_value_block

    def counting(t, prefix, depth):
        levels.append(len(prefix) + depth)
        return block(t, prefix, depth)

    cf.log_value_block = counting
    diag = diagnostics(cf, 0.9, 8, 3)
    assert sorted(levels) == list(range(1, 9))
    assert len(cache) == 0
    fresh = NaturalCylinderFunction(generic_pair_ifs())
    assert diag.energy_k == energy(fresh, 0.9, diag.measure)
    assert diag.pressure_upper == pressure.pressure_sequence(fresh, 0.9, 8).fekete_upper


def test_diagnostics_at_full_depth_builds_each_cesaro_table_once(monkeypatch):
    """At k = n the defect is read off the depth-n table, so one Cesaro table
    is built, and it has the bits of a fresh depth-(n+1) build."""
    cf = NaturalCylinderFunction(random_affine_ifs(np.random.default_rng(31), 2, 3))
    defect = fresh_defect(cf, 1.2, 4, 4)
    measure = two_pass_cesaro(cf, 1.2, 4, 4)
    builds = []
    build = equilibrium._cesaro

    def counting(nu, t, k, *rest):
        builds.append(k)
        return build(nu, t, k, *rest)

    monkeypatch.setattr(equilibrium, "_cesaro", counting)
    diag = diagnostics(cf, 1.2, 4, 4)
    assert builds == [4]
    assert diag.invariance_defect_max == defect
    assert diag.measure.masses.tobytes() == measure.tobytes()
