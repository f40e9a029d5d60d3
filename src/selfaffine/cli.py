"""Command-line surface: dim, pressure, measure, verify, render, boxdim.

Reports are flat ``key = value`` text with CSV side files.  Every report
embeds the tool version, the IFS content hash, and an echo of the
mathematically relevant configuration; execution-only knobs (worker count,
output paths) are excluded so identical computations produce byte-identical
artifacts.  ``--workers`` is accepted and must be positive, but the library
runs serially and the value has no effect.  Timing goes to stderr.

Exit codes: 0 success, 1 usage/input errors, 2 axiom violation in ``verify``.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
from pathlib import Path

from . import __version__
from .affine import attractor_points, box_dimension, render_pgm, validate_ifs
from .cache import PartitionSumCache
from .cylinder import NaturalCylinderFunction, verify_axioms
from .equilibrium import diagnostics, mu_cesaro, nu_weights
from .errors import (
    BudgetExceededError,
    CLIUsageError,
    DegenerateCloudError,
    IFSFormatError,
    IFSValidationError,
)
from .ifsfile import parse_ifs_file
from .pressure import affinity_dimension, pressure_curve, pressure_root, pressure_sequence
from .symbolic import DEFAULT_WORD_BUDGET

#: Axiom slack above which `verify` exits nonzero.
VERIFY_SLACK_THRESHOLD = 1e-9

DEFAULT_SCALES = "0.25,0.125,0.0625,0.03125,0.015625,0.0078125"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIUsageError(message)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write_report(path: Path, command: str, ifs, config: dict, body) -> None:
    lines = [
        f"tool = selfaffine {__version__}",
        f"command = {command}",
        f"ifs_name = {ifs.name}",
        f"ifs_hash = {ifs.content_hash()}",
        f"ambient_dimension = {ifs.dimension}",
    ]
    lines += [f"config.{k} = {_fmt(config[k])}" for k in sorted(config)]
    lines += [f"{k} = {_fmt(v)}" for k, v in body]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: str, rows) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def parse_t_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CLIUsageError(f"bad t-grid {spec!r}; expected A:B:STEP")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise CLIUsageError(f"bad t-grid {spec!r}; entries must be numbers") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise CLIUsageError(f"bad t-grid {spec!r}; entries must be finite")
    if step <= 0:
        raise CLIUsageError("t-grid step must be positive")
    if b < a:
        raise CLIUsageError("t-grid must be ascending (need A <= B)")
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return [a + i * step for i in range(count)]


def parse_scales(spec: str) -> list[float]:
    try:
        scales = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise CLIUsageError(f"bad scales {spec!r}; expected comma-separated numbers") from None
    if not all(map(math.isfinite, scales)):
        raise CLIUsageError(f"bad scales {spec!r}; entries must be finite")
    return scales


def _load_ifs(args):
    ifs = parse_ifs_file(args.ifs)
    for warning in validate_ifs(ifs).warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return ifs


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cache(args):
    return PartitionSumCache(args.cache) if getattr(args, "cache", None) else None


def _check_flags(args) -> None:
    """Each positive flag the subcommand has must be positive and finite, and
    ``--t`` finite."""
    for name in ("nmax", "tol", "workers", "budget", "depth", "samples", "count", "resolution",
                 "chains"):
        value = getattr(args, name, None)
        if value is not None and not 0 < value < math.inf:
            raise CLIUsageError(f"--{name} must be positive and finite, got {value}")
    t = getattr(args, "t", None)
    if t is not None and not math.isfinite(t):
        raise CLIUsageError(f"--t must be finite, got {t}")


def cmd_dim(args) -> int:
    ifs = _load_ifs(args)
    rep = affinity_dimension(ifs, args.nmax, args.tol, budget=args.budget, cache=_cache(args))
    out = _out_dir(args)
    _write_csv(out / "roots.csv", "n,t_n", rep.roots)
    config = {"nmax": args.nmax, "tol": args.tol, "budget": args.budget}
    body = [("levels_computed", len(rep.roots)), ("truncated", rep.truncated)]
    body += [(f"root.{n}", t_n) for n, t_n in rep.roots]
    body += [
        ("upper_bound", rep.upper_bound),
        ("upper_bound_label", "rigorous upper bound"),
        ("extrapolated", rep.extrapolated),
        ("extrapolated_label", "estimate"),
        ("extrapolation_method", rep.extrapolation_method),
        ("prediction", rep.prediction),
        ("norm_half_hypothesis", "satisfied" if rep.norm_half_satisfied else "violated"),
    ]
    _write_report(out / "dimension_report.txt", "dim", ifs, config, body)
    print(f"affinity dimension upper bound = {_fmt(rep.upper_bound)}")
    print(f"hausdorff dimension prediction = {_fmt(rep.prediction)}")
    print(f"wrote {out / 'dimension_report.txt'}")
    return 0


def cmd_pressure(args) -> int:
    if (args.t is None) == (args.t_grid is None):
        raise CLIUsageError("pass exactly one of --t and --t-grid")
    ifs = _load_ifs(args)
    cf = NaturalCylinderFunction(ifs)
    out = _out_dir(args)
    if args.t is not None:
        rep = pressure_sequence(cf, args.t, args.nmax, budget=args.budget, cache=_cache(args))
        _write_csv(out / "pressure.csv", "t,n,P_n", [(rep.t, n, p) for n, p in rep.per_level])
        config = {"t": args.t, "nmax": args.nmax, "budget": args.budget}
        body = [
            ("levels_computed", len(rep.per_level)),
            ("truncated", rep.truncated),
            ("fekete_upper", rep.fekete_upper),
            ("fekete_label", "rigorous upper bound" if rep.k_t_is_one else "estimate"),
            ("extrapolated", rep.extrapolated),
            ("extrapolated_label", "estimate"),
            ("extrapolation_method", rep.extrapolation_method),
        ]
    else:
        grid = parse_t_grid(args.t_grid)
        curve = pressure_curve(cf, grid, args.nmax, budget=args.budget, cache=_cache(args))
        _write_csv(out / "pressure.csv", "t,n,P_n", [(t, args.nmax, p) for t, p in curve])
        config = {"t_grid": args.t_grid, "nmax": args.nmax, "budget": args.budget}
        body = [
            ("grid_points", len(curve)),
            ("P_first", curve[0][1]),
            ("P_last", curve[-1][1]),
        ]
    _write_report(out / "pressure_report.txt", "pressure", ifs, config, body)
    print(f"wrote {out / 'pressure.csv'}")
    return 0


def cmd_measure(args) -> int:
    if args.depth > args.nmax:
        raise CLIUsageError(f"--depth must be <= --nmax, got {args.depth} > {args.nmax}")
    ifs = _load_ifs(args)
    cf = NaturalCylinderFunction(ifs)
    out = _out_dir(args)
    cache = _cache(args)
    t = args.t
    if t is None:
        t = pressure_root(cf, args.nmax, args.tol, budget=args.budget, cache=cache)
    diag = diagnostics(cf, t, args.nmax, args.depth, args.tail_mode, budget=args.budget)
    if args.kind == "nu":
        measure = nu_weights(cf, t, args.nmax, budget=args.budget)
    else:
        measure = diag.measure
    _write_csv(out / "measure.csv", "word,mass", measure.rows())
    config = {
        "t": "auto" if args.t is None else args.t,
        "nmax": args.nmax,
        "depth": args.depth,
        "kind": args.kind,
        "tail_mode": args.tail_mode,
        "tol": args.tol,
        "budget": args.budget,
    }
    body = [
        ("t_used", t),
        ("provenance", measure.provenance),
        ("entropy_k", diag.entropy_k),
        ("energy_k", diag.energy_k),
        ("pressure_upper", diag.pressure_upper),
        ("gap", diag.gap),
        ("invariance_defect_max", diag.invariance_defect_max),
    ]
    _write_report(out / "measure_report.txt", "measure", ifs, config, body)
    print(f"wrote {out / 'measure.csv'}")
    return 0


def cmd_verify(args) -> int:
    ifs = _load_ifs(args)
    cf = NaturalCylinderFunction(ifs)
    grid = parse_t_grid(args.t_grid)
    out = _out_dir(args)
    rep = verify_axioms(cf, grid, n_max=args.nmax, samples=args.samples, seed=args.seed)
    ok = rep.passed(VERIFY_SLACK_THRESHOLD)
    config = {
        "t_grid": args.t_grid,
        "nmax": args.nmax,
        "samples": args.samples,
        "seed": args.seed,
    }
    body = [
        ("bvp_max_ratio", rep.bvp_max_ratio),
        ("worst_subchain_violation", rep.worst_subchain_violation),
        ("worst_param_violation", rep.worst_param_violation),
        ("max_slack", rep.max_slack()),
        ("slack_threshold", VERIFY_SLACK_THRESHOLD),
        ("verdict", "pass" if ok else "fail"),
    ]
    _write_report(out / "verify_report.txt", "verify", ifs, config, body)
    print(f"axiom verification: {'pass' if ok else 'FAIL'} (max slack {_fmt(rep.max_slack())})")
    return 0 if ok else 2


def _make_cloud(args, ifs):
    driver = None
    t_used = None
    if args.driver == "equilibrium":
        cf = NaturalCylinderFunction(ifs)
        t_used = args.t
        if t_used is None:
            t_used = pressure_root(cf, args.nmax, args.tol, budget=args.budget)
        driver = mu_cesaro(cf, t_used, args.nmax, args.depth, budget=args.budget)
    cloud = attractor_points(
        ifs, args.count, burn_in=args.burn_in, seed=args.seed, driver=driver, chains=args.chains
    )
    return cloud, t_used


def _save_points(out: Path, cloud) -> None:
    d = cloud.points.shape[1]
    header = ",".join(f"x{i}" for i in range(d))
    _write_csv(out / "points.csv", header, cloud.points)


def _cloud_config(args) -> dict:
    return {
        "count": args.count,
        "burn_in": args.burn_in,
        "seed": args.seed,
        "chains": args.chains,
        "driver": args.driver,
        "t": "auto" if args.t is None else args.t,
        "nmax": args.nmax,
        "depth": args.depth,
        "budget": args.budget,
    }


def cmd_render(args) -> int:
    ifs = _load_ifs(args)
    out = _out_dir(args)
    cloud, t_used = _make_cloud(args, ifs)
    pgm = render_pgm(cloud, args.resolution)
    (out / "attractor.pgm").write_bytes(pgm)
    if args.save_points:
        _save_points(out, cloud)
    config = dict(_cloud_config(args), resolution=args.resolution)
    body = [
        ("points", len(cloud.points)),
        ("cloud_driver", cloud.driver),
        ("t_used", "none" if t_used is None else t_used),
    ]
    _write_report(out / "render_report.txt", "render", ifs, config, body)
    print(f"wrote {out / 'attractor.pgm'}")
    return 0


def cmd_boxdim(args) -> int:
    ifs = _load_ifs(args)
    scales = parse_scales(args.scales)
    out = _out_dir(args)
    cloud, t_used = _make_cloud(args, ifs)
    result = box_dimension(cloud, scales)
    if args.save_points:
        _save_points(out, cloud)
    _write_csv(out / "boxdim_counts.csv", "scale,count", zip(result.scales, result.counts))
    config = dict(_cloud_config(args), scales=args.scales)
    body = [
        ("estimate", result.estimate),
        ("fit_residual", result.residual),
        ("cloud_driver", cloud.driver),
        ("t_used", "none" if t_used is None else t_used),
    ]
    _write_report(out / "boxdim_report.txt", "boxdim", ifs, config, body)
    print(f"box-counting dimension estimate = {_fmt(result.estimate)}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="selfaffine", description=__doc__)
    parser.add_argument("--version", action="version", version=f"selfaffine {__version__}")
    sub = parser.add_subparsers(dest="command")

    common = _Parser(add_help=False)
    common.add_argument("--ifs", required=True, help="path to the IFS JSON document")
    common.add_argument("--out", default="out", help="output directory (default: ./out)")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; must be positive, has no effect")
    common.add_argument("--budget", type=int, default=DEFAULT_WORD_BUDGET,
                        help="max words enumerated per level")
    common.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")

    p = sub.add_parser("dim", parents=[common], help="affinity dimension report")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-9, help="root bracket width")
    p.add_argument("--cache", default=None, help="persistent partition-sum cache file")

    p = sub.add_parser("pressure", parents=[common], help="pressure levels or curve")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-grid", dest="t_grid", default=None, metavar="A:B:STEP")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--cache", default=None)

    p = sub.add_parser("measure", parents=[common], help="equilibrium-measure approximant")
    p.add_argument("--t", type=float, default=None, help="default: level-nmax pressure root")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--kind", choices=["mu", "nu"], default="mu")
    p.add_argument("--tail-mode", dest="tail_mode", choices=["pad", "drop"], default="pad")
    p.add_argument("--cache", default=None)

    p = sub.add_parser("verify", parents=[common], help="check the cylinder-function axioms")
    p.add_argument("--t-grid", dest="t_grid", default="0.5:3.0:0.5", metavar="A:B:STEP")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--samples", type=int, default=1000)

    for name, extra in (("render", "rasterize the attractor"), ("boxdim", "box-counting estimate")):
        p = sub.add_parser(name, parents=[common], help=extra)
        p.add_argument("--count", type=int, default=100000 if name == "render" else 200000)
        p.add_argument("--burn-in", dest="burn_in", type=int, default=200)
        p.add_argument("--chains", type=int, default=512)
        p.add_argument("--driver", choices=["uniform", "equilibrium"], default="uniform")
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--nmax", type=int, default=8)
        p.add_argument("--depth", type=int, default=3)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--save-points", dest="save_points", action="store_true")
        if name == "render":
            p.add_argument("--resolution", type=int, default=512)
        else:
            p.add_argument("--scales", default=DEFAULT_SCALES, metavar="S1,S2,...")

    return parser


HANDLERS = {
    "dim": cmd_dim,
    "pressure": cmd_pressure,
    "measure": cmd_measure,
    "verify": cmd_verify,
    "render": cmd_render,
    "boxdim": cmd_boxdim,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CLIUsageError("no subcommand given (try --help)")
        _check_flags(args)
        start = time.perf_counter()
        code = HANDLERS[args.command](args)
        print(f"[{args.command}] wall time {time.perf_counter() - start:.3f}s", file=sys.stderr)
        return code
    except CLIUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (IFSFormatError, IFSValidationError, BudgetExceededError, DegenerateCloudError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
