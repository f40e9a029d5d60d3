"""The benchmark's workloads: seeded IFS fixtures, the CLI calls that make up
one job, and the checks on a job's artifacts.

The fixture systems repeat the definitions in ``tests/systems.py`` (generic
pair, Cantor, ``random_affine_ifs``) instead of importing them, so that the
benchmark's inputs stay fixed when the test helpers change.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from selfaffine import AffineIFS, sample_translations, write_ifs_file

#: Box-counting scales 2^-3 .. 2^-10, as in acceptance test c10.
SCALES = ",".join(repr(2.0**-k) for k in range(3, 11))

PRESSURE_LEVEL = 14
COARSE_GRID = "0:2:0.02"
FINE_GRID = "0:2:0.01"
COARSE_POINTS = 101

_NON_FINITE = re.compile(r"(?i)(?<![\w.])[-+]?(nan|inf(inity)?)(?!\w)")


def generic_pair(translations) -> AffineIFS:
    """Fixed non-commuting 2x2 pair with operator norms below 1/2."""
    mats = [
        np.array([[0.48, 0.04], [0.0, 0.36]]),
        np.array([[0.36, 0.0], [0.05, 0.48]]),
    ]
    return AffineIFS(2, mats, np.asarray(translations, dtype=float), name="generic-pair")


def cantor() -> AffineIFS:
    """Middle-thirds Cantor system on the line."""
    return AffineIFS(1, [[[1.0 / 3.0]], [[1.0 / 3.0]]], [[0.0], [2.0 / 3.0]], name="cantor")


def _random_contractive_matrix(rng, d, lo, hi):
    while True:
        G = rng.standard_normal((d, d))
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[-1] < 1e-4 * sv[0]:
            continue
        return G * (rng.uniform(lo, hi) / sv[0])


def random_affine(seed: int, d: int, n_maps: int, lo: float = 0.15, hi: float = 0.6) -> AffineIFS:
    rng = np.random.default_rng(seed)
    mats = [_random_contractive_matrix(rng, d, lo, hi) for _ in range(n_maps)]
    trans = rng.uniform(-1, 1, size=(n_maps, d))
    return AffineIFS(d, np.stack(mats), trans, name="random")


def translated_generic_pair(seed: int) -> AffineIFS:
    bundle = sample_translations(2, 2, 1, radius=0.6, seed=seed)[0]
    return generic_pair(bundle.reshape(2, 2))


# --- reading artifacts -------------------------------------------------------


def read_report(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {k: v for k, v in pairs}


def read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def non_finite(text: str) -> bool:
    return _NON_FINITE.search(text) is not None


# --- per-workload checks -----------------------------------------------------
# Each returns a list of problems; an empty list means the job's output is right.


def check_measure(out: Path, nmax: int) -> list[str]:
    problems = []
    total = math.fsum(float(mass) for _, mass in read_csv(out / "run" / "measure.csv"))
    if abs(total - 1.0) > 1e-12:
        problems.append(f"masses sum to {total!r}")
    report = read_report(out / "run" / "measure_report.txt")
    defect = float(report["invariance_defect_max"])
    if not defect <= 1.0 / nmax:
        problems.append(f"invariance_defect_max {defect!r} > 1/{nmax}")
    upper = float(report["pressure_upper"])
    if not abs(upper) <= 1e-6:
        problems.append(f"|pressure_upper| = {abs(upper)!r} > 1e-6")
    return problems


def check_boxdim(out: Path, nmax: int) -> list[str]:
    report = read_report(out / "run" / "boxdim_report.txt")
    estimate, t_used = float(report["estimate"]), float(report["t_used"])
    target = min(2.0, t_used)
    if not abs(estimate - target) <= 0.2:
        return [f"c10 miss: box estimate {estimate:.4f} vs min(2, upper bound) {target:.4f}"]
    return []


def check_pressure(out: Path, nmax: int) -> list[str]:
    problems = []
    curves = {}
    for name in ("coarse", "fine"):
        rows = read_csv(out / name / "pressure.csv")
        curves[name] = {t: p for t, _, p in rows}
        for t, _, p in rows:
            exact = math.log(2.0) - float(t) * math.log(3.0)
            if not abs(float(p) - exact) <= 1e-12:
                problems.append(f"{name} P_{nmax}({t}) = {p}, closed form {exact!r}")
                break
    shared = curves["coarse"].keys() & curves["fine"].keys()
    if len(shared) != COARSE_POINTS:
        problems.append(f"{len(shared)} grid points shared between passes, expected {COARSE_POINTS}")
    if any(float(curves["coarse"][t]) != float(curves["fine"][t]) for t in shared):
        problems.append("fine-grid values differ from coarse-grid values at shared t")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    nmax: int
    system: Callable[[int], AffineIFS]
    #: CLI argument lists of one job, given the IFS path, job directory,
    #: seed, worker count and level.
    calls: Callable[[str, Path, int, int, int], list[list[str]]]
    artifacts: tuple[str, ...]
    check: Callable[[Path, int], list[str]]
    #: A check failure that counts against the job but does not make the
    #: output wrong: c10 is a statistical criterion, not an exact one.
    statistical: bool = False
    #: (cli.main call, per-layer counter, exact value) checked in traced jobs;
    #: they catch a wrapper that misses a call bound by import.
    call_counts: tuple = ()

    def write_fixture(self, path: Path, seed: int) -> None:
        write_ifs_file(self.system(seed), path)

    def non_finite_artifacts(self, job_dir: Path) -> list[str]:
        return [a for a in self.artifacts if non_finite((job_dir / a).read_text(encoding="utf-8"))]


def _measure_calls(ifs, job, seed, workers, nmax):
    return [["measure", "--ifs", ifs, "--kind", "mu", "--depth", "3", "--nmax", str(nmax),
             "--workers", str(workers), "--out", str(job / "run")]]


def _boxdim_calls(ifs, job, seed, workers, nmax):
    return [["boxdim", "--ifs", ifs, "--driver", "equilibrium", "--count", "2000000",
             "--burn-in", "300", "--nmax", str(nmax), "--depth", "4", "--scales", SCALES,
             "--seed", str(seed), "--workers", str(workers), "--out", str(job / "run")]]


def _pressure_calls(ifs, job, seed, workers, nmax):
    common = ["--ifs", ifs, "--nmax", str(nmax), "--cache", str(job / "cache.txt"),
              "--workers", str(workers)]
    return [
        ["pressure", "--t-grid", COARSE_GRID, *common, "--out", str(job / "coarse")],
        ["pressure", "--t-grid", FINE_GRID, *common, "--out", str(job / "fine")],
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("measure-random3d", 2, 10, lambda seed: random_affine(seed, 3, 3, hi=0.45),
                 _measure_calls, ("run/measure_report.txt", "run/measure.csv"), check_measure),
        Workload("boxdim-equilibrium", 1, 10, translated_generic_pair, _boxdim_calls,
                 ("run/boxdim_report.txt", "run/boxdim_counts.csv"), check_boxdim,
                 statistical=True),
        Workload("pressure-refine", 1, PRESSURE_LEVEL, lambda seed: cantor(), _pressure_calls,
                 ("coarse/pressure_report.txt", "coarse/pressure.csv",
                  "fine/pressure_report.txt", "fine/pressure.csv"), check_pressure,
                 call_counts=((0, "cylinder.words_evaluated", COARSE_POINTS * 2**PRESSURE_LEVEL),
                              (0, "cache.misses", COARSE_POINTS),
                              (1, "cache.hits", COARSE_POINTS))),
    )
}
