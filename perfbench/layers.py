"""Per-layer metrics of one traced job, computed from its spans.

A span's self time is its duration minus the part of that interval its child
spans cover; children that ran on pool threads count through the union of
their intervals.  A layer's ``calls`` count entries into the layer from
outside it, so nested calls inside the layer are not counted twice.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

#: name -> (unit, better); the per-layer metrics in BENCHMARK.json order.
METRICS = {
    "symbolic.calls": ("count", "lower"),
    "symbolic.s": ("s", "lower"),
    "linalg.svd_calls": ("count", "lower"),
    "linalg.svd_matrices": ("count", "lower"),
    "linalg.svd_s": ("s", "lower"),
    "linalg.svd_bytes_computed": ("B", "lower"),
    "cylinder.block_calls": ("count", "lower"),
    "cylinder.words_evaluated": ("count", "lower"),
    "cylinder.reeval_factor": ("ratio", "lower"),
    "cylinder.block_self_s": ("s", "lower"),
    "cylinder.max_block_bytes_computed": ("B", "lower"),
    "pressure.lps_calls": ("count", "lower"),
    "pressure.lps_self_s": ("s", "lower"),
    "pressure.root_calls": ("count", "lower"),
    "pressure.root_evals_per_root": ("count", "lower"),
    "pressure.root_s": ("s", "lower"),
    "pressure.pool_busy_s": ("s", "lower"),
    "pressure.pool_wall_s": ("s", "lower"),
    "pressure.pool_efficiency": ("ratio", "higher"),
    "pressure.pool_speedup": ("ratio", "higher"),
    "equilibrium.mu_cesaro_calls": ("count", "lower"),
    "equilibrium.mu_cesaro_self_s": ("s", "lower"),
    "equilibrium.level_passes": ("count", "lower"),
    "equilibrium.diagnostics_s": ("s", "lower"),
    "affine.chaos_game_s": ("s", "lower"),
    "affine.points_per_s": ("1/s", "higher"),
    "affine.box_count_s": ("s", "lower"),
    "ifsfile.parse_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.load_s": ("s", "lower"),
    "cache.put_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Counts that must repeat exactly from one job to the next.
COUNTS = [
    "symbolic.calls", "linalg.svd_calls", "linalg.svd_matrices", "linalg.svd_bytes_computed",
    "cylinder.block_calls", "cylinder.words_evaluated", "cylinder.max_block_bytes_computed",
    "pressure.lps_calls", "pressure.root_calls", "equilibrium.mu_cesaro_calls",
    "equilibrium.level_passes", "cache.hits", "cache.misses",
]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    call: int
    attrs: dict | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside the span."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def job_metrics(trace: dict) -> tuple[dict[str, float], dict[int, dict[str, int]]]:
    """Per-layer metrics of one job (all but the pair and overhead metrics,
    which need more than one job), and a few counters per ``cli.main`` call."""
    spans = [Span(*s) for s in trace["spans"]]
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def self_s(name: str) -> float:
        return sum(s.duration - _covered(s, children[s.id]) for s in spans if s.name == name)

    def total_s(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def under(s: Span, pred) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if pred(s):
                return True
        return False

    def entries(layer: str) -> list[Span]:
        return [s for s in spans if s.layer == layer
                and (s.parent is None or by_id[s.parent].layer != layer)]

    # spans of calls that raised carry no attrs
    svds = [s for s in named("linalg.singular_values") + named("linalg.singular_values_batch")
            if s.attrs]
    blocks = [b for b in named("cylinder.log_value_block") if b.attrs]
    words = sum(b.attrs["words"] for b in blocks)
    levels = {(b.attrs["symbols"], b.attrs["level"]) for b in blocks}
    distinct = sum(m**n for m, n in levels)
    top = max(levels, key=lambda mn: mn[1], default=None)
    roots = named("pressure.pressure_root")
    evals_in_roots = sum(
        1 for s in named("pressure.log_partition_sum")
        if under(s, lambda p: p.name == "pressure.pressure_root")
    )
    top_words_in_equilibrium = sum(
        b.attrs["words"] for b in blocks
        if top is not None and b.attrs["level"] == top[1] and under(b, lambda p: p.layer == "equilibrium")
    )
    pools = trace["pools"]
    busy = sum(p[3] for p in pools)
    wall = sum(p[1] - p[0] for p in pools)
    capacity = sum((p[1] - p[0]) * p[2] for p in pools)
    gets = named("cache.get")
    hits = sum(1 for g in gets if g.attrs and g.attrs["hit"])
    chaos = total_s("affine.attractor_points")
    points = sum(s.attrs["points"] for s in named("affine.attractor_points") if s.attrs)

    metrics = {
        "symbolic.calls": len(entries("symbolic")),
        "symbolic.s": sum(s.duration for s in entries("symbolic")),
        "linalg.svd_calls": len(svds),
        "linalg.svd_matrices": sum(s.attrs["matrices"] for s in svds),
        "linalg.svd_s": sum(s.duration for s in svds),
        "linalg.svd_bytes_computed": sum(s.attrs["bytes"] for s in svds),
        "cylinder.block_calls": len(blocks),
        "cylinder.words_evaluated": words,
        "cylinder.reeval_factor": _ratio(words, distinct),
        "cylinder.block_self_s": self_s("cylinder.log_value_block"),
        "cylinder.max_block_bytes_computed": max((b.attrs["bytes"] for b in blocks), default=0),
        "pressure.lps_calls": len(named("pressure.log_partition_sum")),
        "pressure.lps_self_s": self_s("pressure.log_partition_sum"),
        "pressure.root_calls": len(roots),
        "pressure.root_evals_per_root": _ratio(evals_in_roots, len(roots)),
        "pressure.root_s": total_s("pressure.pressure_root"),
        "pressure.pool_busy_s": busy,
        "pressure.pool_wall_s": wall,
        "pressure.pool_efficiency": _ratio(busy, capacity),
        "equilibrium.mu_cesaro_calls": len(named("equilibrium.mu_cesaro")),
        "equilibrium.mu_cesaro_self_s": self_s("equilibrium.mu_cesaro"),
        "equilibrium.level_passes": _ratio(top_words_in_equilibrium, top[0] ** top[1] if top else 0),
        "equilibrium.diagnostics_s": total_s("equilibrium.diagnostics"),
        "affine.chaos_game_s": chaos,
        "affine.points_per_s": _ratio(points, chaos),
        "affine.box_count_s": total_s("affine.box_dimension"),
        "ifsfile.parse_s": total_s("ifsfile.parse_ifs_file"),
        "cache.hits": hits,
        "cache.misses": len(gets) - hits,
        "cache.hit_ratio": _ratio(hits, len(gets)),
        "cache.load_s": total_s("cache.__init__"),
        "cache.put_s": total_s("cache.put"),
        "cli.self_s": self_s("cli.main"),
    }

    per_call: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for b in blocks:
        per_call[b.call]["cylinder.words_evaluated"] += b.attrs["words"]
    for g in gets:
        per_call[g.call]["cache.hits" if g.attrs and g.attrs["hit"] else "cache.misses"] += 1
    return metrics, per_call
