"""Every artifact of a fixed matrix of CLI runs, pinned by its sha256.

The runs go through ``cli.main`` in this process, on five systems at small
levels and counts.  ``artifact_manifest.json`` holds the digest of every
artifact except those in ``UNPINNED``; a change that moves an artifact on
purpose rewrites it with

    PYTHONPATH=src python tests/test_artifacts.py

which prints the names of the digests it changed, added and dropped, for
the change to list.  Beside the digests, the runs that must agree
byte for byte (a cold cache, a warm one and none; a run with
``--save-points`` and one without) are checked against each other, and the
whole matrix runs once more in a fresh interpreter, under a new hash seed,
which must write every artifact byte for byte as this process did.
Unpinned artifacts take part in both checks.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from systems import cantor_ifs, generic_pair_ifs, random_affine_ifs, triple_diag_ifs

import selfaffine
from selfaffine.cli import main
from selfaffine.ifsfile import write_ifs_file

MANIFEST = Path(__file__).with_name("artifact_manifest.json")

SYSTEMS = {
    "generic-pair": generic_pair_ifs,
    "cantor": cantor_ifs,
    "triple-diag": triple_diag_ifs,
    # seeded d = 3 systems; five maps take 4 tape bits a symbol, three take 2
    "d3": lambda: random_affine_ifs(np.random.default_rng(3), 3, 3),
    "d3-m5": lambda: random_affine_ifs(np.random.default_rng(3), 3, 5),
}

#: The runs on ``d3-m5``: its chaos games, under both drivers.
M5_RUNS = frozenset({"boxdim-equilibrium", "boxdim-equilibrium--save-points",
                     "render-uniform", "render-uniform--save-points"})


def _runs(system):
    """(run name, argv) of every run on one system, in order: a warm-cache
    run follows the cold one that writes its cache."""
    nmax = "8" if system == "cantor" else "6"
    runs = [
        ("dim", ["dim", "--nmax", nmax]),
        ("pressure-t", ["pressure", "--t", "0.8", "--nmax", "5"]),
        ("pressure-grid", ["pressure", "--t-grid", "0.5:2:0.5", "--nmax", "4"]),
        ("measure", ["measure", "--nmax", "3", "--depth", "3"]),
        ("verify", ["verify", "--samples", "200"]),
    ]
    for command, size in (("boxdim", ["--scales", "0.5,0.25,0.125,0.1"]),
                          ("render", ["--resolution", "64"])):
        for driver, levels in (("uniform", []), ("equilibrium", ["--nmax", "5", "--depth", "3"])):
            argv = [command, "--driver", driver, "--count", "5000", "--chains", "7"] + size + levels
            runs += [(f"{command}-{driver}", argv),
                     (f"{command}-{driver}--save-points", argv + ["--save-points"])]
    for command in ("dim", "measure"):
        argv = dict(runs)[command]
        runs += [(f"{command}-{cache}", argv + ["--cache", f"{command}.cache"])
                 for cache in ("cold", "warm")]
    if system == "d3":
        runs += [
            # the default 200000 points, counted at non-dyadic scales over
            # many replay chunks
            ("boxdim-non-dyadic", ["boxdim", "--scales", "0.3,0.1,0.03,0.01"]),
            ("measure-t", ["measure", "--t", "0.6", "--nmax", "3", "--depth", "3"]),
            ("verify-seed5", ["verify", "--seed", "5", "--samples", "300"]),
            # t = 2.5 weighs the k = 2 and the k = 3 features
            ("pressure-t2.5", ["pressure", "--t", "2.5", "--nmax", "5"]),
        ]
    return runs


#: (system, run name, argv) of every run.  A cache file is
#: ``<system>/<command>.cache``, digested once the warm run has read it.
RUNS = [(system, name, argv) for system in SYSTEMS for name, argv in _runs(system)
        if system != "d3-m5" or name in M5_RUNS]

#: Artifacts left out of the manifest: their last bits follow numpy's SIMD
#: kernels for ``exp`` and ``log``, and they move on an x86-64 host when
#: ``NPY_DISABLE_CPU_FEATURES`` turns off the AVX-512 ones (and the same
#: files, no others, with AVX2 off as well).  The cache files hold level
#: log-sums bit for bit, the measures their masses and the d = 3 grid its
#: pressures.  Every report and raster, and the other CSV and cache files,
#: keep their digests.
UNPINNED = frozenset({
    "d3/dim.cache",
    "d3/measure-cold/measure.csv",
    "d3/measure-t/measure.csv",
    "d3/measure-warm/measure.csv",
    "d3/measure/measure.csv",
    "d3/pressure-grid/pressure.csv",
    "generic-pair/dim.cache",
    "generic-pair/measure.cache",
})


def run_matrix(root: Path) -> dict[str, str]:
    """The sha256 of every artifact of ``RUNS`` under ``root``, keyed by its
    path relative to ``root``."""
    for system, make in SYSTEMS.items():
        write_ifs_file(make(), root / f"{system}.json")
    for system, name, argv in RUNS:
        argv = [str(root / system / arg) if arg.endswith(".cache") else arg for arg in argv]
        argv += ["--ifs", str(root / f"{system}.json"), "--out", str(root / system / name)]
        assert main(argv) == 0, (system, name)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for system in SYSTEMS for path in sorted((root / system).rglob("*")) if path.is_file()
    }


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_matrix(tmp_path_factory.mktemp("artifacts"))


def test_artifacts_match_the_manifest(digests):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    pinned = {name: digest for name, digest in digests.items() if name not in UNPINNED}
    moved = sorted(name for name in pinned.keys() | manifest.keys()
                   if pinned.get(name) != manifest.get(name))
    assert not moved, f"artifacts that moved from {MANIFEST.name}: {moved}"


def test_cache_and_save_points_change_no_artifact(digests):
    """A run against a cold or a warm cache, or with ``--save-points``,
    writes the plain run's artifacts byte for byte; unpinned artifacts are
    compared too."""
    plain = {}
    for name, digest in digests.items():
        run, file = name.rsplit("/", 1)
        for suffix in ("-cold", "-warm", "--save-points"):
            run = run.removesuffix(suffix)
        plain.setdefault(f"{run}/{file}", {})[name] = digest
    compared = [group for group in plain.values() if len(group) > 1]
    # per system but d3-m5: dim 2, measure 2, boxdim 4, render 4; d3-m5: boxdim 2, render 2
    assert len(compared) == 4 * 12 + 4
    for group in compared:
        assert len(set(group.values())) == 1, group


def test_artifacts_match_a_fresh_interpreter(digests, tmp_path):
    """The matrix run again in a fresh interpreter, under a new hash seed,
    writes every artifact of this process byte for byte."""
    script = ("import json, sys; from pathlib import Path; from test_artifacts import run_matrix; "
              "print(json.dumps(run_matrix(Path(sys.argv[1]))))")
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(selfaffine.__file__).parents[1])])
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="random")
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == digests


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        found = run_matrix(Path(root))
    pinned = {name: digest for name, digest in sorted(found.items()) if name not in UNPINNED}
    MANIFEST.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} digests to {MANIFEST}", file=sys.stderr)
    for label, names in (("changed", {n for n in pinned.keys() & old.keys() if pinned[n] != old[n]}),
                         ("added", pinned.keys() - old.keys()),
                         ("dropped", old.keys() - pinned.keys())):
        print(f"{label}: {len(names)}", *sorted(names), sep="\n  ", file=sys.stderr)
