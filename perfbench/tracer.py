"""Span tracer that wraps the library's layer functions from outside.

``Tracer.install`` replaces each traced function in every ``selfaffine``
module namespace that bound it, so calls through names bound by import
(``from .linalg import singular_values_batch``) are traced as well; methods
are replaced on their class.  A span is ``(id, parent, name, start, end, call,
attrs)``: ``call`` is the index of the enclosing ``cli.main`` call within the
job.  Spans stay in memory and are written out when the job ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time

#: layer -> functions of ``selfaffine.<layer>`` traced as that layer's spans.
#: Small helpers that run once per block (``word_matrix``,
#: ``svf_compound_terms``, ``prefix_blocks``) are left out to keep the tracing
#: cost down; their time counts as their caller's self time.
FUNCTIONS = {
    "symbolic": ["words_of_length", "check_budget", "word_count", "pack_word", "unpack_word",
                 "word_str", "shift_word", "concat", "word_metric"],
    "linalg": ["singular_values", "singular_values_batch"],
    "pressure": ["log_partition_sum", "pressure_level", "pressure_root", "pressure_sequence",
                 "pressure_curve", "affinity_dimension"],
    "equilibrium": ["nu_weights", "mu_cesaro", "diagnostics", "energy_depth", "entropy_depth",
                    "invariance_defect"],
    "affine": ["validate_ifs", "attractor_points", "box_dimension", "render_pgm"],
    "ifsfile": ["parse_ifs_file"],
}

#: (layer, class, method) traced as spans named ``<layer>.<method>``.
METHODS = [
    ("cylinder", "NaturalCylinderFunction", "__init__"),
    ("cylinder", "NaturalCylinderFunction", "log_value_block"),
    ("cache", "PartitionSumCache", "__init__"),
    ("cache", "PartitionSumCache", "get"),
    ("cache", "PartitionSumCache", "put"),
]

#: The fixed-order block map whose worker pool is measured separately.
POOL = ("pressure", "map_blocks_ordered")


def _svd_attrs(args, kwargs, svals):
    n = 1 if svals.ndim == 1 else svals.shape[0]
    d = svals.shape[-1]
    return {"matrices": n, "bytes": n * d * d * 8}


def _block_attrs(svf_compound_terms, args, kwargs, values):
    """Words evaluated, their level, and the bytes of the compound-product
    stacks the block computes (from shapes, not measured)."""
    cf, t, prefix, depth = args[:4]
    compounds = [math.comb(cf.dimension, k) for k, _ in svf_compound_terms(t, cf.dimension)]
    words = len(values)
    return {
        "words": words,
        "level": len(prefix) + depth,
        "symbols": cf.n_symbols,
        "bytes": words * sum(m * m for m in compounds) * 8,
    }


def _cache_get_attrs(args, kwargs, value):
    return {"hit": value is not None}


def _points_attrs(args, kwargs, cloud):
    return {"points": len(cloud.points)}


ATTRS = {
    "linalg.singular_values": _svd_attrs,
    "linalg.singular_values_batch": _svd_attrs,
    "cache.get": _cache_get_attrs,
    "affine.attractor_points": _points_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        #: one (start, end, workers, busy seconds) per block map
        self.pools: list[tuple] = []
        #: traced names the library does not define
        self.missing: list[str] = []
        self.call = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((sid, parent, name, start, time.perf_counter(), self.call, None))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            info = attrs(args, kwargs, result) if attrs else None
            self.spans.append((sid, parent, name, start, end, self.call, info))
            return result

        return traced

    def wrap_pool(self, fn):
        """Time a block map and the busy time of its tasks.  Tasks that run
        on pool threads get the caller's span as their parent."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(task, *args, **kwargs):
            bound = signature.bind(task, *args, **kwargs)
            bound.apply_defaults()
            stack = self._stack()
            parent = stack[-1] if stack else None
            busy = []

            def timed(block):
                local = self._stack()
                local.append(parent)
                start = time.perf_counter()
                try:
                    return task(block)
                finally:
                    busy.append(time.perf_counter() - start)
                    local.pop()

            start = time.perf_counter()
            result = fn(timed, *args, **kwargs)
            self.pools.append(
                (start, time.perf_counter(), int(bound.arguments.get("workers", 1)), sum(busy))
            )
            return result

        return traced

    def install(self) -> None:
        import selfaffine.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "selfaffine"]

        def replace(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        attrs = dict(ATTRS)
        attrs["cylinder.log_value_block"] = functools.partial(
            _block_attrs, selfaffine.linalg.svf_compound_terms
        )
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"selfaffine.{layer}"]
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                span = f"{layer}.{name}"
                replace(original, self.wrap(span, original, attrs.get(span)))
        for layer, cls_name, name in METHODS:
            cls = getattr(sys.modules[f"selfaffine.{layer}"], cls_name, None)
            original = getattr(cls, name, None) if cls is not None else None
            if original is None:
                self.missing.append(f"{layer}.{cls_name}.{name}")
                continue
            span = f"{layer}.{name}"
            setattr(cls, name, self.wrap(span, original, attrs.get(span)))
        layer, name = POOL
        original = getattr(sys.modules[f"selfaffine.{layer}"], name, None)
        if original is None:
            self.missing.append(f"{layer}.{name}")
        else:
            replace(original, self.wrap_pool(original))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "pools": self.pools, "missing": self.missing}, fh)
