import math

import numpy as np
import pytest
from systems import cantor_ifs, conformal_pair_ifs, generic_pair_ifs, swap_pair_ifs, triple_diag_ifs

from selfaffine import AffineIFS, AxiomReport, NaturalCylinderFunction, nu_weights
from selfaffine.cli import _write_csv, main, parse_t_grid
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

    bad = AxiomReport(
        bvp_max_ratio=1.0,
        worst_subchain_violation=1e-3,
        worst_param_violation=0.0,
        samples=10,
        seed=0,
    )
    monkeypatch.setattr(cli_mod, "verify_axioms", lambda *a, **k: bad)
    code = main(["verify", "--ifs", str(triple_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "verdict = fail" in (tmp_path / "o" / "verify_report.txt").read_text()


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
    for key in ("t_used", "entropy_k", "energy_k", "pressure_upper", "gap",
                "invariance_defect_max"):
        assert f"{key} = " in report


@pytest.mark.parametrize("depth", ["2", "3"])
def test_measure_report_values_are_finite_or_none(triple_path, tmp_path, depth):
    """At --depth = --nmax there is no depth-(k+1) table for the defect: the
    report says none instead of nan."""
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
    assert (report["invariance_defect_max"] == "none") == (depth == "3")


def test_measure_explicit_t_and_nu(triple_path, tmp_path):
    out = tmp_path / "out"
    assert main(["measure", "--ifs", str(triple_path), "--t", "1.0", "--nmax", "3",
                 "--depth", "2", "--kind", "nu", "--out", str(out)]) == 0
    csv_lines = (out / "measure.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 27  # nu lives at depth nmax


def test_measure_nu_reads_top_level_twice(tmp_path, monkeypatch):
    """``--kind nu`` writes the weights ``diagnostics`` built: level n is read
    once for them and once for the level-n pressure."""
    path = tmp_path / "swap.json"
    write_ifs_file(swap_pair_ifs(), path)
    expected = tmp_path / "expected.csv"
    nu = nu_weights(NaturalCylinderFunction(swap_pair_ifs()), 1.4, 6)
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
    assert levels.count(6) == 2
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
        ["boxdim", "--count", "100", "--scales", "0.5,0.25"],
        ["boxdim", "--count", "100", "--scales", "0.25,0.5,0.125"],
        ["render", "--count", "100", "--driver", "equilibrium", "--depth", "9", "--nmax", "4"],
        ["boxdim", "--count", "100", "--driver", "equilibrium", "--depth", "9", "--nmax", "4"],
        ["boxdim", "--count", "100", "--burn-in", "-300"],
        ["render", "--count", "100", "--burn-in", "-1"],
        ["render", "--count", "100", "--driver", "equilibrium", "--resolution", "8"],
        ["boxdim", "--count", "100", "--seed", "-1"],
    ],
    ids=["grid-descending", "two-scales", "scales-unsorted", "render-depth", "boxdim-depth",
         "boxdim-burn-in", "render-burn-in", "render-resolution", "boxdim-seed"],
)
def test_bad_input_rejected_before_output(triple_path, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--ifs", str(triple_path), "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


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


def test_dim_underflow_is_named_error(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    write_ifs_file(AffineIFS(1, [[[1e-150]], [[1e-150]]], [[0.0], [0.5]], name="tiny"), path)
    out = tmp_path / "out"
    assert main(["dim", "--ifs", str(path), "--nmax", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "level 3" in err
    assert not (out / "roots.csv").exists()


def test_dim_root_search_ends_at_float_spacing(triple_path, tmp_path, level_call_limit):
    out = tmp_path / "out"
    assert main(["dim", "--ifs", str(triple_path), "--nmax", "1", "--tol", "1e-300",
                 "--out", str(out)]) == 0
    root = float((out / "roots.csv").read_text().splitlines()[1].split(",")[1])
    assert root == pytest.approx(1 + math.log(1.5) / math.log(4), rel=1e-15)


def test_dim_root_far_above_one(tmp_path, capsys, level_call_limit):
    """Norms 0.9999999 are accepted with a warning; the level-1 root is
    ln 2 / -ln 0.9999999, about 6.93e6."""
    a = 0.9999999
    path = tmp_path / "slow.json"
    write_ifs_file(AffineIFS(1, [[[a]], [[a]]], [[0.0], [0.5]], name="slow"), path)
    out = tmp_path / "out"
    assert main(["dim", "--ifs", str(path), "--nmax", "1", "--out", str(out)]) == 0
    assert "warning:" in capsys.readouterr().err
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
