"""Command-line surface: dim, pressure, measure, verify, render, boxdim.

Reports are flat ``key = value`` text with CSV side files.  Every report
embeds the tool version, the IFS content hash, and a ``config.<flag>`` line
for every flag its command declares and the run sets, except the
execution-only ``--ifs``, ``--out``, ``--workers``, ``--cache`` and
``--save-points``, so identical computations produce byte-identical
artifacts.  Each command declares only the flags it reads: ``--budget`` where
a level is enumerated (all but ``verify``), ``--seed`` where random numbers
are drawn (``verify``, ``render``, ``boxdim``).  ``--workers`` is accepted and
must be positive, but the library runs serially and the value has no effect.
Each numeric flag's rule is its argparse ``type``, so a bad value is a usage
error at parse time.  The two rules that join two flags are checked before
the work: ``--depth <= --nmax`` by ``_equilibrium``, the one builder of an
equilibrium table, and ``--samples x --nmax <= DEFAULT_WORD_BUDGET`` by
``verify``.  ``parse_ifs_file`` checks the IFS.  Timing goes to stderr.

Exit codes: 0 success, 1 usage/input errors, 2 axiom violation in ``verify``.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .affine import (
    DEFAULT_CHAINS,
    MAX_CHAINS,
    MAX_POINTS,
    MAX_RESOLUTION,
    MIN_RESOLUTION,
    ChaosGame,
    box_dimension,
    check_scales,
    render_pgm,
)
from .cache import PartitionSumCache
from .cylinder import NaturalCylinderFunction, verify_axioms
from .equilibrium import diagnostics
from .errors import BudgetExceededError, CLIUsageError
from .ifsfile import parse_ifs_file
from .pressure import affinity_dimension, pressure_curve, pressure_root, pressure_sequence
from .symbolic import DEFAULT_WORD_BUDGET

#: Axiom slack above which `verify` exits nonzero.
VERIFY_SLACK_THRESHOLD = 1e-9

DEFAULT_SCALES = "0.25,0.125,0.0625,0.03125,0.015625,0.0078125"

#: Most points a ``--t-grid`` may have; each is one level evaluation.
MAX_T_GRID_POINTS = 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIUsageError(message)


def _checked(convert, ok, rule: str):
    """An argparse ``type=``: ``convert`` the flag's text and keep the value
    only if ``ok``, so a bad value is a usage error at parse time."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


_COUNT = _checked(int, lambda v: v > 0, "positive")
_NONNEGATIVE = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_FINITE = _checked(float, math.isfinite, "finite")
_RESOLUTION = _checked(int, lambda v: MIN_RESOLUTION <= v <= MAX_RESOLUTION,
                       f"in {MIN_RESOLUTION}..{MAX_RESOLUTION}")
_POINTS = _checked(int, lambda v: 0 < v <= MAX_POINTS, f"in 1..{MAX_POINTS}")
_CHAINS = _checked(int, lambda v: 0 < v <= MAX_CHAINS, f"in 1..{MAX_CHAINS}")


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write_report(path: Path, args, ifs, body) -> None:
    """The report: a header, one ``config.<flag>`` line per set flag of the
    command that is not execution-only, in name order, then ``body``."""
    lines = [
        f"tool = selfaffine {__version__}",
        f"command = {args.command}",
        f"ifs_name = {ifs.name}",
        f"ifs_hash = {ifs.content_hash()}",
        f"ambient_dimension = {ifs.dimension}",
    ]
    lines += [
        f"config.{k} = {_fmt(v)}" for k, v in sorted(vars(args).items())
        if v is not None and k not in ("command", "ifs", "out", "workers", "cache", "save_points")
    ]
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
    span = (b - a) / step + 1e-9
    if not math.isfinite(span):
        raise CLIUsageError(f"bad t-grid {spec!r}; too many points")
    count = int(math.floor(span)) + 1
    if count > MAX_T_GRID_POINTS:
        raise CLIUsageError(
            f"bad t-grid {spec!r}; too many points ({count}, at most {MAX_T_GRID_POINTS})"
        )
    return [a + i * step for i in range(count)]


def parse_scales(spec: str) -> list[float]:
    try:
        return check_scales(p for p in spec.split(",") if p.strip())
    except ValueError as exc:
        raise CLIUsageError(f"bad scales {spec!r}: {exc}") from None


def _out_dir(args) -> Path:
    """The output directory, created: handlers call this only once every
    input is checked and the results are computed."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _potential(args, ifs) -> NaturalCylinderFunction:
    """The potential of ``ifs`` with the run's ``--budget`` and ``--cache``."""
    cache = PartitionSumCache(args.cache) if getattr(args, "cache", None) else None
    return NaturalCylinderFunction(ifs, args.budget, cache)


def cmd_dim(args) -> int:
    ifs = parse_ifs_file(args.ifs)
    rep = affinity_dimension(_potential(args, ifs), args.nmax, args.tol)
    out = _out_dir(args)
    _write_csv(out / "roots.csv", "n,t_n", rep.roots)
    body = [("levels_computed", len(rep.roots)), ("truncated", rep.truncated)]
    body += [(f"root.{n}", t_n) for n, t_n in rep.roots]
    body += [
        ("upper_bound", rep.upper_bound),
        ("upper_bound_label", "rigorous upper bound"),
        ("prediction", rep.prediction),
        ("norm_half_hypothesis", "satisfied" if rep.norm_half_satisfied else "violated"),
    ]
    _write_report(out / "dimension_report.txt", args, ifs, body)
    print(f"affinity dimension upper bound = {_fmt(rep.upper_bound)}")
    print(f"hausdorff dimension prediction = {_fmt(rep.prediction)}")
    print(f"wrote {out / 'dimension_report.txt'}")
    return 0


def cmd_pressure(args) -> int:
    if (args.t is None) == (args.t_grid is None):
        raise CLIUsageError("pass exactly one of --t and --t-grid")
    grid = None if args.t_grid is None else parse_t_grid(args.t_grid)
    ifs = parse_ifs_file(args.ifs)
    cf = _potential(args, ifs)
    if grid is None:
        rep = pressure_sequence(cf, args.t, args.nmax)
        rows = [(rep.t, n, p) for n, p in rep.per_level]
        body = [
            ("levels_computed", len(rep.per_level)),
            ("truncated", rep.truncated),
            ("fekete_upper", rep.fekete_upper),
            ("fekete_label", "rigorous upper bound"),
        ]
    else:
        curve = pressure_curve(cf, grid, args.nmax)
        rows = [(t, args.nmax, p) for t, p in curve]
        body = [
            ("grid_points", len(curve)),
            ("P_first", curve[0][1]),
            ("P_last", curve[-1][1]),
        ]
    out = _out_dir(args)
    _write_csv(out / "pressure.csv", "t,n,P_n", rows)
    _write_report(out / "pressure_report.txt", args, ifs, body)
    print(f"wrote {out / 'pressure.csv'}")
    return 0


def _equilibrium(args, ifs):
    """``t``, from ``--t`` or else the level-``--nmax`` pressure root, and the
    checked ``diagnostics`` at it: the one builder of the tables of ``measure``
    and of the equilibrium chaos-game driver."""
    if args.depth > args.nmax:
        raise CLIUsageError(f"--depth must be <= --nmax, got {args.depth} > {args.nmax}")
    cf = _potential(args, ifs)
    t = args.t
    if t is None:
        t = pressure_root(cf, args.nmax, args.tol)
    return t, diagnostics(cf, t, args.nmax, args.depth)


def cmd_measure(args) -> int:
    ifs = parse_ifs_file(args.ifs)
    t, diag = _equilibrium(args, ifs)
    measure = diag.nu if args.kind == "nu" else diag.measure
    out = _out_dir(args)
    _write_csv(out / "measure.csv", "word,mass", measure.rows())
    body = [
        ("t_used", t),
        ("provenance", measure.provenance),
        ("entropy_k", diag.entropy_k),
        ("energy_k", diag.energy_k),
        ("pressure_upper", diag.pressure_upper),
        ("jensen_residual_k", diag.jensen_residual_k),
        ("invariance_defect_max", diag.invariance_defect_max),
    ]
    _write_report(out / "measure_report.txt", args, ifs, body)
    print(f"wrote {out / 'measure.csv'}")
    return 0


def cmd_verify(args) -> int:
    if args.samples * args.nmax > DEFAULT_WORD_BUDGET:  # the words' symbols, before any is drawn
        raise CLIUsageError(f"--samples x --nmax must be at most {DEFAULT_WORD_BUDGET} symbols, "
                            f"got {args.samples} x {args.nmax}")
    ifs = parse_ifs_file(args.ifs)
    cf = NaturalCylinderFunction(ifs)  # single words only: no level, so no budget
    grid = parse_t_grid(args.t_grid)
    rep = verify_axioms(cf, grid, n_max=args.nmax, samples=args.samples, seed=args.seed)
    ok = rep.passed(VERIFY_SLACK_THRESHOLD)
    body = [
        ("worst_subchain_violation", rep.worst_subchain_violation),
        ("worst_param_violation", rep.worst_param_violation),
        ("max_slack", rep.max_slack()),
        ("slack_threshold", VERIFY_SLACK_THRESHOLD),
        ("verdict", "pass" if ok else "fail"),
    ]
    out = _out_dir(args)
    _write_report(out / "verify_report.txt", args, ifs, body)
    print(f"axiom verification: {'pass' if ok else 'FAIL'} (max slack {_fmt(rep.max_slack())})")
    return 0 if ok else 2


def _make_cloud(args, ifs):
    """The ``ChaosGame`` of ``render`` and ``boxdim`` and the ``t`` of its
    equilibrium driver.  The uniform driver reads no equilibrium flag, so it
    clears them (its report then echoes none) and its ``t`` is None."""
    driver = t_used = None
    if args.driver == "equilibrium":
        t_used, diag = _equilibrium(args, ifs)
        driver = diag.measure
    else:
        args.t = args.nmax = args.depth = args.tol = args.budget = None
    game = ChaosGame(
        ifs, args.count, burn_in=args.burn_in, seed=args.seed, driver=driver, chains=args.chains
    )
    return game, t_used


def _save_points(out: Path, game) -> None:
    header = ",".join(f"x{i}" for i in range(game.dimension))
    _write_csv(out / "points.csv", header, game.points())


def cmd_render(args) -> int:
    ifs = parse_ifs_file(args.ifs)
    game, t_used = _make_cloud(args, ifs)
    pgm = render_pgm(game, args.resolution)
    out = _out_dir(args)
    (out / "attractor.pgm").write_bytes(pgm)
    if args.save_points:
        _save_points(out, game)
    body = [
        ("points", args.count),
        ("cloud_driver", game.driver),
        ("t_used", t_used),
    ]
    _write_report(out / "render_report.txt", args, ifs, body)
    print(f"wrote {out / 'attractor.pgm'}")
    return 0


def cmd_boxdim(args) -> int:
    ifs = parse_ifs_file(args.ifs)
    scales = parse_scales(args.scales)
    game, t_used = _make_cloud(args, ifs)
    result = box_dimension(game, scales)
    out = _out_dir(args)
    if args.save_points:
        _save_points(out, game)
    _write_csv(out / "boxdim_counts.csv", "scale,count", zip(result.scales, result.counts))
    body = [
        ("estimate", result.estimate),
        ("fit_residual", result.residual),
        ("cloud_driver", game.driver),
        ("t_used", t_used),
    ]
    _write_report(out / "boxdim_report.txt", args, ifs, body)
    print(f"box-counting dimension estimate = {_fmt(result.estimate)}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="selfaffine", description=__doc__)
    parser.add_argument("--version", action="version", version=f"selfaffine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--ifs", required=True, help="path to the IFS JSON document")
    common.add_argument("--out", default="out", help="output directory (default: ./out)")
    common.add_argument("--workers", type=_COUNT, default=1,
                        help="accepted for compatibility; must be positive, has no effect")
    levels = _Parser(add_help=False)  # the commands that enumerate a level
    levels.add_argument("--budget", type=_COUNT, default=DEFAULT_WORD_BUDGET,
                        help="max words enumerated per level")
    levels.add_argument("--nmax", type=_COUNT, default=8)
    seeded = _Parser(add_help=False)  # the commands that draw random numbers
    seeded.add_argument("--seed", type=_NONNEGATIVE, default=0, help="64-bit RNG seed")
    # the commands that build an equilibrium table; --depth and --tol defaults
    # differ among them, and parents share their actions, so each declares those
    equilibrium = _Parser(add_help=False)
    equilibrium.add_argument("--t", type=_FINITE, default=None,
                             help="default: level-nmax pressure root")

    p = sub.add_parser("dim", parents=[common, levels], help="affinity dimension report")
    p.add_argument("--tol", type=_POSITIVE, default=1e-9, help="root bracket width")
    p.add_argument("--cache", default=None, help="persistent partition-sum cache file")

    p = sub.add_parser("pressure", parents=[common, levels], help="pressure levels or curve")
    p.add_argument("--t", type=_FINITE, default=None)
    p.add_argument("--t-grid", dest="t_grid", default=None, metavar="A:B:STEP")
    p.add_argument("--cache", default=None)

    p = sub.add_parser("measure", parents=[common, levels, equilibrium],
                       help="equilibrium-measure approximant")
    p.add_argument("--depth", type=_COUNT, default=2)
    p.add_argument("--tol", type=_POSITIVE, default=1e-9)
    p.add_argument("--kind", choices=["mu", "nu"], default="mu")
    p.add_argument("--cache", default=None)

    p = sub.add_parser("verify", parents=[common, seeded],
                       help="check the cylinder-function axioms")
    p.add_argument("--t-grid", dest="t_grid", default="0.5:3.0:0.5", metavar="A:B:STEP")
    p.add_argument("--nmax", type=_COUNT, default=8)
    p.add_argument("--samples", type=_COUNT, default=1000)

    for name, extra in (("render", "rasterize the attractor"), ("boxdim", "box-counting estimate")):
        p = sub.add_parser(name, parents=[common, levels, seeded, equilibrium], help=extra)
        p.add_argument("--count", type=_POINTS, default=100000 if name == "render" else 200000)
        p.add_argument("--burn-in", dest="burn_in", type=_NONNEGATIVE, default=200)
        p.add_argument("--chains", type=_CHAINS, default=DEFAULT_CHAINS)
        p.add_argument("--driver", choices=["uniform", "equilibrium"], default="uniform")
        p.add_argument("--depth", type=_COUNT, default=3)
        p.add_argument("--tol", type=_POSITIVE, default=1e-6)
        p.add_argument("--save-points", dest="save_points", action="store_true")
        if name == "render":
            p.add_argument("--resolution", type=_RESOLUTION, default=512)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = Path(args.out)  # a file in the way of --out fails now, not after the work
        found = next(p for p in (out, *out.parents) if p.exists())
        if not found.is_dir():
            code = errno.EEXIST if found == out else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(found))
        start = time.perf_counter()
        code = HANDLERS[args.command](args)
        print(f"[{args.command}] wall time {time.perf_counter() - start:.3f}s", file=sys.stderr)
        return code
    except CLIUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceededError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
