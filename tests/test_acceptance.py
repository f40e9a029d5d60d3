"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import logging
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import jensen_residual
from systems import (
    conformal_pair_ifs,
    generic_pair_ifs,
    half_product_cf,
    random_affine_ifs,
    similar_ifs_06,
    swap_pair_cf,
    third_product_cf,
    triple_diag_ifs,
    with_translations,
)

from selfaffine import (
    ChaosGame,
    CylinderMeasure,
    NaturalCylinderFunction,
    affinity_dimension,
    box_dimension,
    diagnostics,
    log_partition_sum,
    pressure_curve,
    pressure_root,
    sample_translations,
    validate_ifs,
)
from selfaffine.cli import main
from selfaffine.ifsfile import write_ifs_file
from selfaffine.pressure import level_log_values


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS")


def test_c01_conformal_exactness():
    with criterion(1, "conformal exactness"):
        start = time.perf_counter()
        rep = affinity_dimension(NaturalCylinderFunction(conformal_pair_ifs()), 10, 1e-9)
        elapsed = time.perf_counter() - start
        assert [n for n, _ in rep.roots] == list(range(1, 11))
        for _, t_n in rep.roots:
            assert abs(t_n - 1.0) <= 1e-9
        assert elapsed < 1.0


def hand_partition_triple(t, n):
    """Hand enumeration for n copies of diag(1/2, 1/4): every length-n word has
    matrix diag(2^-n, 4^-n); alpha^t written out branch by branch."""
    a, b = 0.5**n, 0.25**n
    if t <= 1:
        alpha = a**t
    elif t <= 2:
        alpha = a * b ** (t - 1)
    else:
        alpha = (a * b) ** (t / 2)
    return 3**n * alpha


def hand_root_triple(n):
    lo, hi = 0.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hand_partition_triple(mid, n) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_c02_diagonal_closed_form():
    with criterion(2, "diagonal closed form"):
        start = time.perf_counter()
        expected = 1 + math.log(1.5) / math.log(4)
        # hand enumeration first: n = 1, 2 against the independent oracle
        cf = NaturalCylinderFunction(triple_diag_ifs())
        for n in (1, 2):
            for t in (1.0, 1.3, 1.8, 2.5):
                assert log_partition_sum(cf, t, n) == pytest.approx(
                    math.log(hand_partition_triple(t, n)), abs=1e-12
                )
            assert hand_root_triple(n) == pytest.approx(expected, abs=1e-12)
            assert abs(pressure_root(cf, n, 1e-8) - hand_root_triple(n)) <= 1e-7
        rep = affinity_dimension(NaturalCylinderFunction(triple_diag_ifs()), 8, 1e-8)
        for _, t_n in rep.roots:
            assert abs(t_n - expected) <= 1e-6
        assert time.perf_counter() - start < 5.0


def test_c03_clamp():
    with criterion(3, "similarity clamp"):
        rep = affinity_dimension(NaturalCylinderFunction(similar_ifs_06()), 4, 1e-7)
        assert rep.upper_bound == pytest.approx(math.log(3) / math.log(5 / 3), abs=1e-6)
        assert rep.prediction == 1.0


def test_c04_jensen_suite():
    with criterion(4, "Jensen inequality suite"):
        cf = swap_pair_cf()
        t, n = 1.3, 6
        rng = np.random.default_rng(404)
        for _ in range(100):
            m = CylinderMeasure(2, n, rng.dirichlet(np.ones(2**n)))
            assert jensen_residual(cf, t, n, m) >= -1e-12
        assert abs(jensen_residual(cf, t, n, diagnostics(cf, t, n, n).nu)) <= 1e-12


def test_c05_subchain_suite():
    with criterion(5, "subchain suite"):
        rng = np.random.default_rng(505)
        systems = [NaturalCylinderFunction(random_affine_ifs(rng, 2, 2)) for _ in range(10)]
        checked = 0
        while checked < 1000:
            cf = systems[checked % len(systems)]
            i = tuple(rng.integers(0, 2, size=int(rng.integers(1, 9))))
            j = tuple(rng.integers(0, 2, size=int(rng.integers(1, 9))))
            for t in (0.5, 1.3, 2.0, 2.7):
                lhs = math.exp(cf.log_value(t, i + j))
                rhs = math.exp(cf.log_value(t, i)) * math.exp(cf.log_value(t, j))
                assert lhs <= rhs * (1 + 1e-12)
            checked += 1


def test_c06_parameter_bound_suite():
    with criterion(6, "parameter-bound suite"):
        rng = np.random.default_rng(606)
        systems = [NaturalCylinderFunction(random_affine_ifs(rng, 2, 2)) for _ in range(5)]
        systems.append(swap_pair_cf())
        for sample in range(1000):
            cf = systems[sample % len(systems)]
            w = tuple(rng.integers(0, 2, size=int(rng.integers(1, 10))))
            t = float(rng.uniform(0, 2.5))
            delta = float(rng.uniform(0.05, 1.0))
            s_lo, s_hi = cf.constants()
            lo = math.exp(cf.log_value(t, w)) * s_lo ** (delta * len(w))
            hi = math.exp(cf.log_value(t, w)) * s_hi ** (delta * len(w))
            shifted = math.exp(cf.log_value(t + delta, w))
            assert shifted >= lo * (1 - 1e-10)
            assert shifted <= hi * (1 + 1e-10)


def test_c07_invariance_defect_bound():
    with criterion(7, "invariance defect bound"):
        rng = np.random.default_rng(707)
        systems = [swap_pair_cf(), NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))]
        for cf in systems:
            for n in (6, 8, 12):
                for k in (1, 2, 3):
                    assert diagnostics(cf, 1.2, n, k).invariance_defect_max <= 1 / n + 1e-12


def test_c08_fekete_and_monotonicity():
    with criterion(8, "Fekete and monotonicity"):
        rng = np.random.default_rng(808)
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        # strictly decreasing pressure on a sorted grid
        for n in (3, 5):
            values = [p for _, p in pressure_curve(cf, list(np.linspace(0.0, 3.0, 16)), n)]
            assert all(b < a + 1e-12 for a, b in zip(values, values[1:]))
        # submultiplicativity of log partition sums up to n + m <= 10
        for t in (0.8, 1.7):
            logs = {n: log_partition_sum(cf, t, n) for n in range(1, 10)}
            for n in range(1, 9):
                for m in range(1, 10 - n):
                    assert logs[n + m] <= logs[n] + logs[m] + 1e-10
        # reported upper bound is a lower envelope of the roots
        for ifs in (triple_diag_ifs(), random_affine_ifs(rng, 2, 2)):
            rep = affinity_dimension(NaturalCylinderFunction(ifs), 6, 1e-7)
            assert all(rep.upper_bound <= t_n for _, t_n in rep.roots)


def test_c09_local_dimension():
    with criterion(9, "local dimension"):
        start = time.perf_counter()
        # the ratio log nu_12([w]) / log value(t, w) at every word of level 12
        for cf, t in ((half_product_cf(), 1.0), (third_product_cf(), math.log(2) / math.log(3))):
            log_s, lv = level_log_values(cf, t, 12)
            assert np.abs((lv - log_s) / lv - 1.0).max() <= 1e-12
        rng = np.random.default_rng(910)
        cf = NaturalCylinderFunction(random_affine_ifs(rng, 2, 2))
        t12 = pressure_root(cf, 12, 1e-9)
        log_s, lv = level_log_values(cf, t12, 12)
        assert abs(np.exp(lv - log_s) @ ((lv - log_s) / lv) - 1.0) <= 0.1
        assert time.perf_counter() - start < 30.0


def test_c10_full_dimension_cross_check(caplog):
    with criterion(10, "full-dimension cross-check"):
        ifs = generic_pair_ifs()
        with caplog.at_level(logging.WARNING, logger="selfaffine.affine"):
            validate_ifs(ifs)  # raises on a hard error
        assert not caplog.messages  # operator norms < 1/2
        rep = affinity_dimension(NaturalCylinderFunction(ifs), 10, 1e-6)
        target = min(float(ifs.dimension), rep.upper_bound)
        driver = diagnostics(NaturalCylinderFunction(ifs), rep.upper_bound, 10, 4).measure
        translations = sample_translations(2, ifs.n_maps, 3, radius=0.6, seed=42)
        scales = [2.0**-k for k in range(3, 11)]
        passes = 0
        for i, bundle in enumerate(translations):
            start = time.perf_counter()
            game = ChaosGame(
                with_translations(ifs, bundle), 10**6, burn_in=300, seed=100 + i, driver=driver
            )
            estimate = box_dimension(game, scales).estimate
            elapsed = time.perf_counter() - start
            ok = abs(estimate - target) <= 0.2
            print(
                f"  translation {i}: box estimate {estimate:.4f} vs target {target:.4f} "
                f"-> {'ok' if ok else 'off'} ({elapsed:.1f}s)"
            )
            assert elapsed < 60.0
            passes += ok
        assert passes >= 2


def test_c11_determinism(tmp_path):
    with criterion(11, "bitwise determinism"):
        ifs_path = tmp_path / "system.json"
        write_ifs_file(triple_diag_ifs(), ifs_path)

        artifacts = {
            "dim": ["dimension_report.txt", "roots.csv"],
            "measure": ["measure_report.txt", "measure.csv"],
            "render": ["render_report.txt", "attractor.pgm"],
        }
        commands = {
            "dim": ["dim", "--nmax", "5", "--tol", "1e-9"],
            "measure": ["measure", "--nmax", "6", "--depth", "2"],
            "render": ["render", "--count", "30000", "--seed", "3", "--resolution", "128"],
        }
        reference: dict[tuple[str, str], bytes] = {}
        run = 0
        for repeat in range(2):
            for workers in (1, 2, 8):
                out = tmp_path / f"out{run}"
                run += 1
                for name, argv in commands.items():
                    code = main(
                        argv
                        + ["--ifs", str(ifs_path), "--workers", str(workers),
                           "--out", str(out / name)]
                    )
                    assert code == 0
                    for artifact in artifacts[name]:
                        data = (out / name / artifact).read_bytes()
                        key = (name, artifact)
                        if key in reference:
                            assert data == reference[key], (
                                f"{artifact} differs (workers={workers}, repeat={repeat})"
                            )
                        else:
                            reference[key] = data
