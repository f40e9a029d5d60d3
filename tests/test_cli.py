import hashlib
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import two_pass_nu
from systems import (
    cantor_ifs,
    conformal_pair_ifs,
    generic_pair_ifs,
    random_affine_ifs,
    swap_pair_ifs,
    tiny_pair_ifs,
    triple_diag_ifs,
)

from selfaffine import (
    DEFAULT_WORD_BUDGET,
    AffineIFS,
    AxiomReport,
    CylinderMeasure,
    NaturalCylinderFunction,
    cli,
    equilibrium,
)
from selfaffine.affine import DEFAULT_CHAINS, MAX_CHAINS, MAX_POINTS
from selfaffine.cli import _write_csv, build_parser, main, parse_t_grid
from selfaffine.errors import CLIUsageError
from selfaffine.ifsfile import write_ifs_file


@pytest.fixture
def conformal_path(tmp_path):
    path = tmp_path / "conformal.json"
    write_ifs_file(conformal_pair_ifs(), path)
    return path


@pytest.fixture
def triple_path(tmp_path):
    path = tmp_path / "triple.json"
    write_ifs_file(triple_diag_ifs(), path)
    return path


@pytest.fixture
def cantor_path(tmp_path):
    path = tmp_path / "cantor.json"
    write_ifs_file(cantor_ifs(), path)
    return path


def test_parse_t_grid():
    assert parse_t_grid("0.5:2.0:0.5") == pytest.approx([0.5, 1.0, 1.5, 2.0])
    assert parse_t_grid("1.0:1.0:0.5") == [1.0]
    with pytest.raises(CLIUsageError):
        parse_t_grid("2.0:1.0:0.5")  # descending
    with pytest.raises(CLIUsageError):
        parse_t_grid("0:1:-0.5")
    with pytest.raises(CLIUsageError):
        parse_t_grid("0:1")
    for spec in ("0:inf:1", "nan:1:0.5", "0:1:nan"):
        with pytest.raises(CLIUsageError, match="finite"):
            parse_t_grid(spec)
    with pytest.raises(CLIUsageError, match="too many points"):
        parse_t_grid("0:1e300:1e-300")  # the point count overflows
    # the cap is 10^6 points: one more is rejected before the list is built
    assert len(parse_t_grid("0:999999:1")) == 10**6
    with pytest.raises(CLIUsageError, match=r"too many points \(1000001,"):
        parse_t_grid("0:1e6:1")


def test_dim_conformal_reports_dimension_one(conformal_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["dim", "--ifs", str(conformal_path), "--nmax", "6",
                 "--tol", "1e-9", "--out", str(out)]) == 0
    report = (out / "dimension_report.txt").read_text()
    assert "prediction = 1\n" in report
    assert "upper_bound_label = rigorous upper bound" in report
    assert "tool = selfaffine" in report
    assert "ifs_hash = " in report
    roots = (out / "roots.csv").read_text().splitlines()
    assert roots[0] == "n,t_n"
    assert len(roots) == 7
    captured = capsys.readouterr()
    assert "hausdorff dimension prediction = 1" in captured.out
    assert captured.err.count("wall time") == 1


def test_verify_natural_exits_zero(triple_path, tmp_path):
    out = tmp_path / "out"
    code = main(["verify", "--ifs", str(triple_path), "--samples", "300", "--out", str(out)])
    assert code == 0
    report = (out / "verify_report.txt").read_text()
    assert "verdict = pass" in report


def test_verify_exit_two_on_violation(triple_path, tmp_path, monkeypatch):
    import selfaffine.cli as cli_mod

    bad = AxiomReport(worst_subchain_violation=1e-3, worst_param_violation=0.0)
    monkeypatch.setattr(cli_mod, "verify_axioms", lambda *a, **k: bad)
    code = main(["verify", "--ifs", str(triple_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "verdict = fail" in (tmp_path / "o" / "verify_report.txt").read_text()


@pytest.mark.parametrize("make", [cantor_ifs, generic_pair_ifs])
def test_verify_overflowing_log_value_is_named_error(make, tmp_path, capsys):
    """The Cantor system passed with a -inf subchain slack and generic-pair
    failed with a false parameter slack of 0.361."""
    path = tmp_path / "ifs.json"
    write_ifs_file(make(), path)
    out = tmp_path / "out"
    argv = ["verify", "--ifs", str(path), "--t-grid", "1e308:1.7e308:1e308", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: word of length" in err
    assert "at t = 1e+308" in err
    assert not out.exists()


def test_verify_report_finite_at_huge_t(tmp_path):
    """At t = 3e307 the parameter slack was inf: ``delta * length`` overflowed
    before it met ``log s``, although the whole product is finite."""
    path = tmp_path / "ifs.json"
    write_ifs_file(random_affine_ifs(np.random.default_rng(1), 1, 2), path)
    out = tmp_path / "out"
    grid = "0:2.9961552247705263e+307:2.9961552247705263e+307"
    argv = ["verify", "--ifs", str(path), "--t-grid", grid, "--nmax", "6", "--samples", "20"]
    assert main(argv + ["--out", str(out)]) in (0, 2)
    lines = (out / "verify_report.txt").read_text().splitlines()
    report = dict(line.split(" = ", 1) for line in lines)
    for key in ("worst_subchain_violation", "worst_param_violation", "max_slack"):
        assert math.isfinite(float(report[key])), (key, report[key])


def test_pressure_requires_exactly_one_t(triple_path, tmp_path):
    base = ["pressure", "--ifs", str(triple_path), "--out", str(tmp_path / "o")]
    assert main(base) == 1
    assert main(base + ["--t", "1.0", "--t-grid", "0:1:0.5"]) == 1


def test_pressure_unsorted_grid_is_usage_error(triple_path, tmp_path):
    code = main(["pressure", "--ifs", str(triple_path), "--t-grid", "2.0:1.0:0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 1


def test_pressure_sequence_csv(triple_path, tmp_path):
    out = tmp_path / "out"
    assert main(["pressure", "--ifs", str(triple_path), "--t", "1.0",
                 "--nmax", "4", "--out", str(out)]) == 0
    lines = (out / "pressure.csv").read_text().splitlines()
    assert lines[0] == "t,n,P_n"
    assert len(lines) == 5
    assert "fekete_label = rigorous upper bound\n" in (out / "pressure_report.txt").read_text()
    # P_n = log(3/2) at every level for this system
    for line in lines[1:]:
        assert float(line.split(",")[2]) == pytest.approx(np.log(1.5), rel=1e-12)


def test_pressure_curve_csv(triple_path, tmp_path):
    out = tmp_path / "out"
    assert main(["pressure", "--ifs", str(triple_path), "--t-grid", "1.0:2.0:1.0",
                 "--nmax", "3", "--out", str(out)]) == 0
    lines = (out / "pressure.csv").read_text().splitlines()
    assert len(lines) == 3


def test_measure_outputs(triple_path, tmp_path):
    out = tmp_path / "out"
    assert main(["measure", "--ifs", str(triple_path), "--nmax", "5", "--depth", "2",
                 "--out", str(out)]) == 0
    csv_lines = (out / "measure.csv").read_text().splitlines()
    assert csv_lines[0] == "word,mass"
    assert len(csv_lines) == 1 + 9  # all depth-2 words over 3 symbols
    masses = [float(line.split(",")[1]) for line in csv_lines[1:]]
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)
    report = (out / "measure_report.txt").read_text()
    for key in ("t_used", "entropy_k", "energy_k", "pressure_upper", "jensen_residual_k",
                "invariance_defect_max"):
        assert f"{key} = " in report


@pytest.mark.parametrize("depth", ["2", "3"])
def test_measure_report_values_are_finite_or_none(triple_path, tmp_path, depth):
    """Every number in the report is finite, and the defect is a number at
    --depth = --nmax too: its depth-(k+1) windows wrap around the word."""
    out = tmp_path / "out"
    assert main(["measure", "--ifs", str(triple_path), "--nmax", "3", "--depth", depth,
                 "--out", str(out)]) == 0
    lines = (out / "measure_report.txt").read_text().splitlines()
    report = dict(line.split(" = ", 1) for line in lines)
    for key, value in report.items():
        try:
            number = float(value)
        except ValueError:
            continue
        assert math.isfinite(number), key
    assert "none" not in report.values()
    # the rounding bound of ``EquilibriumDiagnostics.invariance_defect_max``
    # at n = 3 over 3 symbols
    bound = 2 * (3 + 3 ** (3 - int(depth))) * np.finfo(float).eps
    assert 0.0 <= float(report["invariance_defect_max"]) <= bound


def test_measure_explicit_t_and_nu(triple_path, tmp_path):
    out = tmp_path / "out"
    assert main(["measure", "--ifs", str(triple_path), "--t", "1.0", "--nmax", "3",
                 "--depth", "2", "--kind", "nu", "--out", str(out)]) == 0
    csv_lines = (out / "measure.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 27  # nu lives at depth nmax


def test_measure_nu_reads_top_level_once(tmp_path, monkeypatch):
    """``--kind nu`` writes the weights ``diagnostics`` built: level n is read
    once, for them and for the level-n pressure."""
    path = tmp_path / "swap.json"
    write_ifs_file(swap_pair_ifs(), path)
    expected = tmp_path / "expected.csv"
    nu = CylinderMeasure(2, 6, two_pass_nu(NaturalCylinderFunction(swap_pair_ifs()), 1.4, 6))
    _write_csv(expected, "word,mass", nu.rows())
    levels = []
    block = NaturalCylinderFunction.log_value_block

    def counting(self, t, prefix, depth):
        levels.append(len(prefix) + depth)
        return block(self, t, prefix, depth)

    monkeypatch.setattr(NaturalCylinderFunction, "log_value_block", counting)
    out = tmp_path / "out"
    assert main(["measure", "--ifs", str(path), "--t", "1.4", "--nmax", "6", "--depth", "2",
                 "--kind", "nu", "--out", str(out)]) == 0
    assert levels.count(6) == 1
    assert (out / "measure.csv").read_bytes() == expected.read_bytes()


def test_render_writes_pgm(cantor_path, tmp_path):
    out = tmp_path / "out"
    assert main(["render", "--ifs", str(cantor_path), "--count", "20000",
                 "--resolution", "64", "--out", str(out), "--save-points"]) == 0
    pgm = (out / "attractor.pgm").read_bytes()
    assert pgm.startswith(b"P5\n64 64\n255\n")
    points = (out / "points.csv").read_text().splitlines()
    assert points[0] == "x0"
    assert len(points) == 20001


@pytest.mark.parametrize(
    "system, argv, artifacts, digest",
    [
        (cantor_ifs, ["render", "--count", "20000", "--resolution", "64"],
         ["attractor.pgm", "render_report.txt"],
         "92f17afd0e042598dbe93cb1a5338e0772850a2b5d9dd7267108c8d7216c1780"),
        # 30001 points over the default 512 chains: the first 305 keep one more
        (generic_pair_ifs, ["boxdim", "--driver", "equilibrium", "--count", "30001",
                            "--nmax", "6", "--depth", "3"],
         ["boxdim_counts.csv", "boxdim_report.txt"],
         "e34d768668b360bdbf6a9eb49c058ae3c3aa28b113a73fdca52035faf0601abd"),
    ],
    ids=["render-cantor-d1", "boxdim-equilibrium-d2"],
)
def test_save_points_pinned(tmp_path, system, argv, artifacts, digest):
    """``points.csv`` keeps the bytes it had when the CLI wrote the chain-major
    cloud of the play pass, and the flag changes no other artifact."""
    path = tmp_path / "system.json"
    write_ifs_file(system(), path)
    runs = {}
    for flag in ([], ["--save-points"]):
        out = tmp_path / ("saved" if flag else "plain")
        assert main(argv + flag + ["--ifs", str(path), "--out", str(out)]) == 0
        runs[bool(flag)] = out
    assert not (runs[False] / "points.csv").exists()
    for artifact in artifacts:
        assert (runs[True] / artifact).read_bytes() == (runs[False] / artifact).read_bytes()
    points = (runs[True] / "points.csv").read_bytes()
    assert hashlib.sha256(points).hexdigest() == digest


def test_boxdim_report(cantor_path, tmp_path):
    out = tmp_path / "out"
    assert main(["boxdim", "--ifs", str(cantor_path), "--count", "50000",
                 "--scales", ",".join(str(3.0**-k) for k in range(1, 7)),
                 "--out", str(out)]) == 0
    report = (out / "boxdim_report.txt").read_text()
    estimate = float(next(l.split(" = ")[1] for l in report.splitlines()
                          if l.startswith("estimate")))
    assert abs(estimate - np.log(2) / np.log(3)) <= 0.1
    counts = (out / "boxdim_counts.csv").read_text().splitlines()
    assert counts[0] == "scale,count"
    assert len(counts) == 7


def test_boxdim_equilibrium_driver(tmp_path):
    path = tmp_path / "gp.json"
    write_ifs_file(generic_pair_ifs(), path)
    out = tmp_path / "out"
    assert main(["boxdim", "--ifs", str(path), "--count", "30000", "--driver",
                 "equilibrium", "--nmax", "6", "--depth", "3", "--out", str(out)]) == 0
    report = (out / "boxdim_report.txt").read_text()
    assert "cloud_driver = mu_cesaro" in report


def test_missing_and_malformed_inputs(tmp_path):
    assert main(["dim", "--ifs", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dim", "--ifs", str(bad), "--out", str(tmp_path)]) == 1
    assert main([]) == 1
    assert main(["dim"]) == 1  # --ifs required


@pytest.mark.parametrize(
    "argv,cause",
    [
        (["--ifs", "{dir}"], "Is a directory"),
        (["--cache", "{dir}"], "Is a directory"),
        (["--out", "{file}"], "File exists"),
        (["--out", "{file}/sub"], "Not a directory"),
    ],
    ids=["ifs-dir", "cache-dir", "out-file", "out-under-file"],
)
def test_os_errors_are_named_errors(triple_path, tmp_path, argv, cause):
    """Only ``FileNotFoundError`` was caught, so these four paths ended in an
    ``IsADirectoryError``, ``FileExistsError`` or ``NotADirectoryError``
    traceback."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file"}
    base = ["dim", "--ifs", str(triple_path), "--nmax", "2", "--out", str(tmp_path / "out")]
    run = subprocess.run(
        [sys.executable, "-m", "selfaffine.cli", *base, *(a.format(**paths) for a in argv)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
    )
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1].startswith("error: ") and cause in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("argv", [["dim", "--nmax", "4"], ["pressure", "--t", "1.0"],
                                  ["measure", "--t", "1.0", "--nmax", "4"]])
def test_superadditive_level_sums_are_named_error(conformal_path, tmp_path, capsys, monkeypatch,
                                                  argv):
    """A potential whose level sums are lifted by 1e-3 n^2 is superadditive:
    each command's self-check exits 1 and writes nothing."""
    block = NaturalCylinderFunction.log_value_block

    def lifted(self, t, prefix, depth):
        return block(self, t, prefix, depth) + 1e-3 * depth**2

    monkeypatch.setattr(NaturalCylinderFunction, "log_value_block", lifted)
    out = tmp_path / "out"
    assert main([*argv, "--ifs", str(conformal_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: (level root t_2 = .* exceeds t_1|log S_2 exceeds log S_1)", err,
                     re.MULTILINE)
    assert not out.exists()


@pytest.mark.parametrize(
    "name,breach,message",
    [("entropy_depth", lambda m: math.log(m.n_symbols) + 1.0, "Jensen residual"),
     ("_defect", lambda nu, t, mu: 1e-12, "invariance defect")],
    ids=["residual", "defect"],
)
def test_measure_self_check_breach_is_named_error(conformal_path, tmp_path, capsys, monkeypatch,
                                                  name, breach, message):
    """A Jensen residual below its allowance, or a defect above its bound,
    exits 1 and writes nothing."""
    monkeypatch.setattr(equilibrium, name, breach)
    out = tmp_path / "out"
    argv = ["measure", "--t", "1.0", "--nmax", "4", "--ifs", str(conformal_path), "--out", str(out)]
    assert main(argv) == 1
    assert re.search(f"^error: {message}", capsys.readouterr().err, re.MULTILINE)
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "boxdim"])
def test_equilibrium_driver_is_checked(tmp_path, capsys, monkeypatch, command):
    """The equilibrium chaos-game driver is the table ``diagnostics`` checks:
    a defect above its bound exits 1 and writes nothing."""
    path = tmp_path / "gp.json"
    write_ifs_file(generic_pair_ifs(), path)
    monkeypatch.setattr(equilibrium, "_defect", lambda nu, t, mu: 1.0)
    out = tmp_path / "out"
    assert main([command, "--ifs", str(path), "--count", "1000", "--driver", "equilibrium",
                 "--nmax", "6", "--depth", "3", "--out", str(out)]) == 1
    assert re.search("^error: invariance defect", capsys.readouterr().err, re.MULTILINE)
    assert not out.exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
@pytest.mark.parametrize("command", ["dim", "measure"])
def test_out_that_cannot_be_made_fails_before_the_work(triple_path, tmp_path, capsys, monkeypatch,
                                                       command, out):
    """A file in the way of --out is an error before any root is searched
    for; the directory was made only after the work, which then was lost."""
    def work(*args):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli, "affinity_dimension", work)
    monkeypatch.setattr(cli, "pressure_root", work)
    (tmp_path / "file").write_text("")
    argv = [command, "--nmax", "4", "--ifs", str(triple_path), "--out", str(tmp_path / out)]
    assert main(argv) == 1
    assert re.search(r"^error: \[Errno \d+\] (File exists|Not a directory)",
                     capsys.readouterr().err, re.MULTILINE)


def test_verify_passes_on_rounding_at_large_t(tmp_path):
    """At t up to 1e7 generic-pair's subchain slack is 1.49e-8 of rounding,
    past the absolute threshold; less its allowance, it passes."""
    path = tmp_path / "ifs.json"
    write_ifs_file(generic_pair_ifs(), path)
    argv = ["verify", "--ifs", str(path), "--t-grid", "0:1e7:1e6", "--out", str(tmp_path / "o")]
    assert main(argv) == 0


def test_dim_on_unsupported_dimension_is_validation_error(tmp_path, capsys):
    path = tmp_path / "five.json"
    write_ifs_file(AffineIFS(5, [0.3 * np.eye(5), 0.4 * np.eye(5)], np.zeros((2, 5))), path)
    out = tmp_path / "out"
    assert main(["dim", "--ifs", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: dimension 5 is not supported (1..4)" in err
    assert "supported dimensions" not in err  # not singular_values' own message
    assert not out.exists()


def test_dim_validates_the_ifs_once(triple_path, tmp_path, monkeypatch):
    """Every module's ``validate_ifs`` is counted: a run checks its IFS once."""
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("selfaffine")]:
        if hasattr(module, "validate_ifs"):
            validate = module.validate_ifs
            monkeypatch.setattr(module, "validate_ifs",
                                lambda ifs, validate=validate: calls.append(ifs) or validate(ifs))
    assert main(["dim", "--ifs", str(triple_path), "--nmax", "2", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_invalid_flag_values(triple_path, tmp_path):
    assert main(["dim", "--ifs", str(triple_path), "--nmax", "0",
                 "--out", str(tmp_path / "o")]) == 1
    assert main(["dim", "--ifs", str(triple_path), "--tol", "-1",
                 "--out", str(tmp_path / "o")]) == 1
    assert main(["dim", "--ifs", str(triple_path), "--workers", "0",
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--nmax", "3", "--tol", "nan"],
        ["dim", "--nmax", "3", "--tol", "inf"],
        ["measure", "--nmax", "3", "--t", "inf"],
        ["measure", "--nmax", "3", "--t", "nan"],
        ["pressure", "--nmax", "3", "--t-grid", "0:inf:1"],
        ["boxdim", "--count", "100", "--scales", "0.5,inf"],
    ],
    ids=["tol-nan", "tol-inf", "t-inf", "t-nan", "grid-inf", "scales-inf"],
)
def test_non_finite_flags_are_usage_errors(triple_path, tmp_path, capsys, argv):
    assert main(argv + ["--ifs", str(triple_path), "--out", str(tmp_path / "out")]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["pressure", "--t-grid", "2:1:0.5"],
        ["pressure", "--t-grid", "0:1e300:1e-300"],
        ["pressure", "--t-grid", "0:1e9:1"],
        ["boxdim", "--count", "100", "--scales", "0.5,0.25"],
        ["boxdim", "--count", "100", "--scales", "0.25,0.5,0.125"],
        ["render", "--count", "100", "--driver", "equilibrium", "--depth", "9", "--nmax", "4"],
        ["boxdim", "--count", "100", "--driver", "equilibrium", "--depth", "9", "--nmax", "4"],
        ["boxdim", "--count", "100", "--burn-in", "-300"],
        ["render", "--count", "100", "--burn-in", "-1"],
        ["render", "--count", "100", "--driver", "equilibrium", "--resolution", "8"],
        ["render", "--count", "100", "--resolution", "1000000"],  # 7.3 TiB of hit counts
        ["boxdim", "--count", "100", "--seed", "-1"],
        ["measure", "--nmax", "3", "--tail-mode", "pad"],  # one Cesaro convention, no knob
        # each command declares only the flags it reads
        ["dim", "--nmax", "3", "--seed", "3"],
        ["pressure", "--t", "1", "--nmax", "3", "--seed", "3"],
        ["measure", "--nmax", "3", "--seed", "3"],
        ["verify", "--nmax", "3", "--budget", "80"],
        # one case per declared numeric flag: its rule is its parse type
        ["dim", "--workers", "0"],
        ["dim", "--budget", "0"],
        ["dim", "--nmax", "0"],
        ["dim", "--nmax", "2.5"],
        ["dim", "--tol", "0"],
        ["pressure", "--nmax", "3", "--t", "inf"],
        ["measure", "--depth", "0"],
        ["measure", "--nmax", "3", "--tol", "0"],
        ["measure", "--nmax", "4", "--depth", "9"],
        ["measure", "--t", "1", "--nmax", "4", "--depth", "9"],
        ["verify", "--nmax", "0"],
        ["verify", "--samples", "0"],
        ["verify", "--seed", "-1"],
        ["render", "--chains", "0"],
        ["render", "--count", "100", "--depth", "0"],
        ["render", "--count", "100", "--driver", "equilibrium", "--t", "nan"],
        ["boxdim", "--count", "0"],
        ["boxdim", "--count", "100", "--tol", "0"],
        # the bounds on the sizes of verify and of the chaos game
        ["verify", "--nmax", "1000000000", "--samples", "10"],
        ["render", "--count", "1000000000000000000"],
        ["boxdim", "--count", "100", "--chains", str(MAX_CHAINS + 1)],
    ],
    ids=["grid-descending", "grid-overflow", "grid-too-many", "two-scales", "scales-unsorted", "render-depth",
         "boxdim-depth", "boxdim-burn-in", "render-burn-in", "render-resolution", "render-resolution-huge",
         "boxdim-seed", "measure-tail-mode", "dim-seed", "pressure-seed", "measure-seed",
         "verify-budget", "dim-workers", "dim-budget", "dim-nmax", "dim-nmax-float", "dim-tol",
         "pressure-t", "measure-depth-zero", "measure-tol", "measure-depth", "measure-depth-with-t",
         "verify-nmax", "verify-samples", "verify-seed", "render-chains", "render-depth-zero",
         "render-t-nan", "boxdim-count", "boxdim-tol", "verify-symbols", "render-count-huge",
         "boxdim-chains-huge"],
)
def test_bad_input_rejected_before_output(triple_path, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--ifs", str(triple_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err
    assert not out.exists()


def test_size_bounds_accept_their_limits(triple_path, tmp_path, monkeypatch):
    """The bounds admit their limits: the benchmark's 2,000,000 points in
    512 chains, and a verify run of exactly ``DEFAULT_WORD_BUDGET`` symbols."""
    for command in ("render", "boxdim"):
        for count, chains in ((MAX_POINTS, MAX_CHAINS), (2000000, 512)):
            args = build_parser().parse_args(
                [command, "--ifs", "x", "--count", str(count), "--chains", str(chains)])
            assert (args.count, args.chains) == (count, chains)
    drawn = []

    def verify_axioms(cf, grid, n_max, samples, seed):
        drawn.append((samples, n_max))
        return AxiomReport(worst_subchain_violation=0.0, worst_param_violation=0.0)

    monkeypatch.setattr(cli, "verify_axioms", verify_axioms)
    samples = DEFAULT_WORD_BUDGET // 2048
    assert main(["verify", "--ifs", str(triple_path), "--samples", str(samples), "--nmax", "2048",
                 "--out", str(tmp_path / "o")]) == 0
    assert drawn == [(samples, 2048)]


@pytest.mark.parametrize("command", ["measure", "render", "boxdim"])
def test_depth_rule_is_checked_before_the_root_search(triple_path, tmp_path, capsys, monkeypatch,
                                                       command):
    """``--depth <= --nmax`` is checked by the one equilibrium builder before
    it searches for a root."""

    def no_root_search(*args):
        raise AssertionError("root search ran before the depth check")

    monkeypatch.setattr(cli, "pressure_root", no_root_search)
    driver = [] if command == "measure" else ["--driver", "equilibrium", "--count", "100"]
    out = tmp_path / "out"
    assert main([command, *driver, "--nmax", "4", "--depth", "9", "--ifs", str(triple_path),
                 "--out", str(out)]) == 1
    assert "usage error: --depth must be <= --nmax, got 9 > 4" in capsys.readouterr().err
    assert not out.exists()


def test_huge_nmax_fails_fast_on_the_budget(triple_path, tmp_path, capsys):
    """A level far past the budget is refused without forming m^n."""
    out = tmp_path / "out"
    assert main(["measure", "--nmax", "30000000", "--ifs", str(triple_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: enumeration budget exceeded: 3^30000000 words > budget 16777216" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "boxdim"])
def test_chains_default_is_the_library_default(command):
    assert build_parser().parse_args([command, "--ifs", "x"]).chains == DEFAULT_CHAINS


def test_uniform_driver_ignores_depth_and_zero_burn_in_is_valid(cantor_path, tmp_path):
    out = tmp_path / "out"
    assert main(["render", "--ifs", str(cantor_path), "--count", "1000", "--depth", "9",
                 "--nmax", "4", "--burn-in", "0", "--resolution", "16", "--out", str(out)]) == 0
    assert (out / "attractor.pgm").exists()


def test_boxdim_scale_too_fine_is_named_error(cantor_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["boxdim", "--ifs", str(cantor_path), "--count", "100",
                 "--scales", "1e-300,1e-310,1e-320", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: box scale 1e-320" in err and "Traceback" not in err
    assert not out.exists()


def _tiny_pair_path(tmp_path, d):
    path = tmp_path / f"tiny{d}.json"
    write_ifs_file(tiny_pair_ifs(d), path)
    return path


def test_dim_underflow_is_named_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["dim", "--ifs", str(_tiny_pair_path(tmp_path, 2)), "--nmax", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "level 3" in err
    assert not (out / "roots.csv").exists()


def test_dim_of_tiny_one_dimensional_pair_is_closed_form(tmp_path):
    """At d = 1 no word product is formed: every level root lies within --tol
    above log 2 / (150 log 10)."""
    out = tmp_path / "out"
    assert main(["dim", "--ifs", str(_tiny_pair_path(tmp_path, 1)), "--nmax", "3",
                 "--tol", "1e-9", "--out", str(out)]) == 0
    rows = (out / "roots.csv").read_text().splitlines()[1:]
    root = math.log(2) / (150 * math.log(10))
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]
    assert all(root <= float(row.split(",")[1]) <= root + 1e-9 for row in rows)


def test_dim_root_search_ends_at_float_spacing(triple_path, tmp_path, level_call_limit):
    out = tmp_path / "out"
    assert main(["dim", "--ifs", str(triple_path), "--nmax", "1", "--tol", "1e-300",
                 "--out", str(out)]) == 0
    root = float((out / "roots.csv").read_text().splitlines()[1].split(",")[1])
    assert root == pytest.approx(1 + math.log(1.5) / math.log(4), rel=1e-15)


def test_dim_root_far_above_one(tmp_path, caplog, level_call_limit):
    """Norms 0.9999999 are accepted with a warning; the level-1 root is
    ln 2 / -ln 0.9999999, about 6.93e6."""
    a = 0.9999999
    path = tmp_path / "slow.json"
    write_ifs_file(AffineIFS(1, [[[a]], [[a]]], [[0.0], [0.5]], name="slow"), path)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="selfaffine.affine"):
        assert main(["dim", "--ifs", str(path), "--nmax", "1", "--out", str(out)]) == 0
    assert any(message.startswith("warning:") for message in caplog.messages)
    root = float((out / "roots.csv").read_text().splitlines()[1].split(",")[1])
    assert root == pytest.approx(math.log(2) / -math.log(a), rel=1e-9)


def test_pressure_overflow_is_named_error(tmp_path, capsys):
    path = tmp_path / "generic.json"
    write_ifs_file(generic_pair_ifs(), path)
    out = tmp_path / "out"
    assert main(["pressure", "--ifs", str(path), "--t", "1e308", "--nmax", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "level 3" in err and "1e+308" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--nmax", "4", "--depth", "2", "--t", "1e10"],
        ["boxdim", "--driver", "equilibrium", "--nmax", "10", "--depth", "3", "--t", "1e9",
         "--count", "1000"],
    ],
    ids=["measure", "boxdim"],
)
def test_weights_past_double_precision_are_named_error(tmp_path, capsys, argv):
    """The level's weights exp(v - log S_n) stopped summing to 1, and the run
    failed with "masses must sum to 1", naming neither the level nor t."""
    path = tmp_path / "generic.json"
    write_ifs_file(generic_pair_ifs(), path)
    out = tmp_path / "out"
    assert main([argv[0], "--ifs", str(path), *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    level, t = argv[argv.index("--nmax") + 1], float(argv[argv.index("--t") + 1])
    assert f"error: level {level} at t = {t!r}" in err and "Traceback" not in err


def test_budget_truncates_dim(triple_path, tmp_path):
    out = tmp_path / "out"
    assert main(["dim", "--ifs", str(triple_path), "--nmax", "6", "--budget", "80",
                 "--out", str(out)]) == 0
    report = (out / "dimension_report.txt").read_text()
    assert "truncated = true" in report
    assert "levels_computed = 3" in report


def test_cache_file_round_trip(triple_path, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cache = tmp_path / "cache.txt"
    args = ["dim", "--ifs", str(triple_path), "--nmax", "4", "--cache", str(cache)]
    assert main(args + ["--out", str(out1)]) == 0
    assert cache.exists()
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "dimension_report.txt").read_bytes() == (
        out2 / "dimension_report.txt"
    ).read_bytes()


def test_reports_embed_version_config_hash(triple_path, tmp_path):
    out = tmp_path / "out"
    main(["measure", "--ifs", str(triple_path), "--nmax", "4", "--depth", "2",
          "--out", str(out)])
    report = (out / "measure_report.txt").read_text()
    assert report.startswith("tool = selfaffine 0.1.0\n")
    assert "config.nmax = 4" in report
    assert "ifs_hash = " in report


#: Flags that change how a command runs or where it writes, never a report.
EXECUTION_ONLY = {"command", "ifs", "out", "workers", "cache", "save_points"}


@pytest.mark.parametrize(
    "argv, unset, report",
    [
        (["dim", "--nmax", "3"], set(), "dimension_report.txt"),
        (["pressure", "--t", "1", "--nmax", "3"], {"t_grid"}, "pressure_report.txt"),
        (["measure", "--nmax", "3", "--depth", "2"], {"t"}, "measure_report.txt"),
        (["verify", "--nmax", "3", "--samples", "20"], set(), "verify_report.txt"),
        (["render", "--count", "2000", "--resolution", "16"],
         {"t", "nmax", "depth", "tol", "budget"}, "render_report.txt"),
        (["boxdim", "--count", "2000", "--driver", "equilibrium", "--t", "0.7", "--nmax", "3",
          "--depth", "2", "--scales", "0.5,0.25,0.125", "--save-points"], set(),
         "boxdim_report.txt"),
    ],
    ids=["dim", "pressure", "measure", "verify", "render", "boxdim"],
)
def test_report_echoes_every_declared_flag_it_sets(triple_path, tmp_path, argv, unset, report):
    """A report has one ``config.<flag>`` line per flag its command declares,
    except the execution-only ones and the flags left unset.  A uniform
    ``render`` reads none of the equilibrium driver's flags, so it unsets
    them: its report echoes no ``--t``, ``--nmax``, ``--depth``, ``--tol`` or
    ``--budget``."""
    out = tmp_path / "out"
    cache = ["--cache", str(tmp_path / "c")] if argv[0] in ("dim", "pressure", "measure") else []
    assert main(argv + cache + ["--ifs", str(triple_path), "--workers", "2",
                                "--out", str(out)]) == 0
    declared = set(vars(build_parser().parse_args([argv[0], "--ifs", "x"])))
    lines = (out / report).read_text().splitlines()
    echoed = [line.split(" = ")[0][len("config."):] for line in lines if line.startswith("config.")]
    assert echoed == sorted(declared - EXECUTION_ONLY - unset)
    assert f"config.{argv[1][2:].replace('-', '_')} = {argv[2]}" in lines


@pytest.mark.parametrize("command", ["render", "boxdim"])
def test_equilibrium_cloud_report_echoes_tol(tmp_path, command):
    """``--tol`` sets the root the equilibrium driver runs at, so two runs
    that differ only in it write different reports."""
    path = tmp_path / "gp.json"
    write_ifs_file(generic_pair_ifs(), path)
    grid = ["--resolution", "64"] if command == "render" else ["--scales", "0.5,0.25,0.125"]
    reports = []
    for tol in ("1e-6", "1e-2"):
        out = tmp_path / tol
        assert main([command, "--ifs", str(path), "--driver", "equilibrium", "--nmax", "6",
                     "--depth", "3", "--count", "3000", *grid, "--tol", tol,
                     "--out", str(out)]) == 0
        lines = (out / f"{command}_report.txt").read_text().splitlines()
        reports.append({line for line in lines if line.startswith(("config.tol", "t_used"))})
    assert reports[0] != reports[1]
    assert {line.split(" = ")[0] for line in reports[0]} == {"config.tol", "t_used"}
    assert "config.tol = 0.01" in reports[1]


@pytest.mark.parametrize("command", ["render", "boxdim"])
def test_uniform_cloud_report_ignores_equilibrium_flags(tmp_path, command):
    """The uniform driver reads no equilibrium flag, so two runs that differ
    only in ``--tol`` and ``--nmax`` write byte-identical reports."""
    path = tmp_path / "gp.json"
    write_ifs_file(generic_pair_ifs(), path)
    grid = ["--resolution", "64"] if command == "render" else ["--scales", "0.5,0.25,0.125"]
    reports = []
    for name, flags in (("default", []), ("set", ["--tol", "1e-2", "--nmax", "4"])):
        out = tmp_path / name
        assert main([command, "--ifs", str(path), "--count", "3000", *grid, *flags,
                     "--out", str(out)]) == 0
        reports.append((out / f"{command}_report.txt").read_bytes())
    assert reports[0] == reports[1]
    assert b"config.tol" not in reports[0] and b"t_used = none" in reports[0]


def _fresh_cli(*args):
    """``selfaffine.cli.main(args)`` in a fresh interpreter on this checkout's
    ``src``, as the console script runs it, with no logging handler set up;
    its last stdout line says whether ``logging`` was imported."""
    script = ("import sys, selfaffine.cli; code = selfaffine.cli.main(sys.argv[1:]); "
              "print('logging' in sys.modules); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1] == "True", run.stderr


def test_logging_loaded_only_for_a_torn_cache_record(tmp_path, cantor_path):
    """A boxdim run never imports ``logging``; a torn cache record still
    reaches stderr, through logging's last-resort handler, without a prefix."""
    path = tmp_path / "gp.json"
    write_ifs_file(generic_pair_ifs(), path)
    loaded, _ = _fresh_cli("boxdim", "--ifs", path, "--count", "3000", "--driver", "equilibrium",
                           "--nmax", "4", "--depth", "2", "--out", tmp_path / "boxdim")
    assert not loaded
    cache = tmp_path / "cache.txt"
    args = ["pressure", "--ifs", cantor_path, "--t", "0.5", "--nmax", "3", "--cache", cache]
    assert main([*map(str, args), "--out", str(tmp_path / "first")]) == 0
    with cache.open("a") as fh:
        fh.write("cccc 0x1.0p+0 9 trunca")  # torn append
    loaded, stderr = _fresh_cli(*args, "--out", tmp_path / "second")
    assert loaded
    torn = len(cache.read_text().splitlines())
    assert stderr.splitlines()[0] == f"ignoring corrupted cache record at {cache}:{torn}"


def test_logging_loaded_only_for_a_norm_half_warning(tmp_path):
    """A measure run on generic-pair (norms below 1/2) never imports
    ``logging``; a norm of 0.6 reaches stderr as the CLI's ``warning:`` line,
    through logging's last-resort handler."""
    path = tmp_path / "gp.json"
    write_ifs_file(generic_pair_ifs(), path)
    loaded, stderr = _fresh_cli("measure", "--ifs", path, "--nmax", "4", "--out", tmp_path / "gp")
    assert not loaded and "warning" not in stderr
    write_ifs_file(AffineIFS(1, [[[0.6]], [[0.3]]], [[0.0], [0.5]], name="wide"), path)
    loaded, stderr = _fresh_cli("dim", "--ifs", path, "--nmax", "2", "--out", tmp_path / "wide")
    assert loaded
    assert stderr.splitlines()[0] == (
        "warning: map 0: operator norm 0.6 >= 1/2; the norm-1/2 hypothesis behind "
        "the generic-translation dimension guarantee fails"
    )


def test_non_finite_cache_record_never_reaches_the_output(cantor_path, tmp_path, caplog):
    """A cache record whose value reads ``nan`` is skipped as corrupted, so the
    warm run recomputes that level and writes the cold run's bytes."""
    cache = tmp_path / "cache.txt"
    args = ["pressure", "--ifs", str(cantor_path), "--t", "0.7", "--nmax", "3",
            "--cache", str(cache)]
    assert main(args + ["--out", str(tmp_path / "cold")]) == 0
    lines = cache.read_text().splitlines()
    lines[1] = " ".join(lines[1].split()[:3] + ["nan"])
    cache.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING, logger="selfaffine.cache"):
        assert main(args + ["--out", str(tmp_path / "warm")]) == 0
    assert caplog.messages == [f"ignoring corrupted cache record at {cache}:2"]
    cold, warm = ((tmp_path / d / "pressure.csv").read_bytes() for d in ("cold", "warm"))
    assert warm == cold and b"nan" not in warm


@pytest.mark.parametrize("spec", ["a:1:0.5", "0:b:0.5", "0:1:step"])
def test_parse_t_grid_rejects_non_numbers(spec):
    with pytest.raises(CLIUsageError, match=f"bad t-grid '{spec}'; entries must be numbers"):
        parse_t_grid(spec)
