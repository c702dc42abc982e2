"""Span tracing of clusterperm from outside the package.

Each traced callable is replaced by a wrapper that appends one span
``[name, layer, start, end, parent, op]`` to an in-memory list; ``parent``
is the index of the enclosing span (-1 at the root) and ``op`` the id of
the benchmark op that was running.  Modules bind names with
``from .x import y``, so a function is patched in every ``clusterperm``
module that holds it, not only where it is defined.  :func:`traced`
restores every original binding on exit.

The program code is never edited: this file is the only place that knows
which functions form each layer's boundary.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# Wrapped module-level functions: (defining module, name, layer).
FUNCTIONS = [
    ("cli", "main", "cli"),
    ("io", "ingest_csv", "io"),
    ("io", "ingest_mask_csv", "io"),
    ("dyadic", "dyadic_test", "dyadic"),
    ("dyadic", "dyadic_ci", "dyadic"),
    ("dyadic", "invert_ci", "dyadic"),
    ("dyadic", "two_way_test", "dyadic"),
    ("dyadic", "permutation_test", "dyadic"),
    ("dyadic", "shifted_test", "dyadic"),
    ("projector", "residual_projector", "projector"),
    ("permgroup", "build_two_way_group", "permgroup"),
    ("permgroup", "build_cyclic_family", "permgroup"),
    ("permgroup", "default_num_perms", "permgroup"),
    ("missing", "biclique_decompose", "missing"),
    ("missing", "blockwise_test", "missing"),
    ("missing", "max_biclique_exact", "missing"),
    ("missing", "max_biclique_greedy", "missing"),
    ("multiway", "irregular_test", "multiway"),
    ("multiway", "suggest_cell_threshold", "multiway"),
    ("simulate", "run_null_size_panel", "simulate"),
    ("simulate", "run_power_panel", "simulate"),
    ("simulate", "run_irregular_size_panel", "simulate"),
    ("simulate", "mc_rejection_rate", "simulate"),
    ("simulate", "gen_dyadic_dataset", "simulate"),
    ("simulate", "gen_random_effects", "simulate"),
    ("simulate", "gen_irregular_dataset", "simulate"),
    ("rng", "derive_seed", "rng"),
    ("rng", "generator", "rng"),
    ("rng", "family_seed", "rng"),
    ("rng", "replicate_seed", "rng"),
    ("rng", "run_seed", "rng"),
    ("rng", "trim_seed", "rng"),
    ("rng", "mask_seed", "rng"),
    ("rng", "dgp_seed", "rng"),
]

# Wrapped class attributes: (module, class, attribute, layer).
METHODS = [
    ("dyadic", "PreparedTest", "__init__", "dyadic"),
    ("dyadic", "PreparedTest", "statistics", "dyadic"),
    ("dyadic", "PreparedTest", "min_stat", "dyadic"),
    ("dyadic", "_AffineStats", "__init__", "dyadic"),
    ("dyadic", "_AffineStats", "pvalues", "dyadic"),
    ("projector", "ResidualProjector", "annihilate", "projector"),
    ("model", "DyadArray", "__post_init__", "model"),
    ("model", "StackedDesign", "from_array", "model"),
    ("model", "TwoWayPermutation", "__post_init__", "model"),
    ("model", "PermutationFamily", "__post_init__", "model"),
    ("model", "PermutationFamily", "stacked", "model"),
    ("multiway", "MultiIndexDataset", "__post_init__", "multiway"),
    ("multiway", "MultiIndexDataset", "cell_sizes", "multiway"),
    ("missing", "BicliqueCover", "__post_init__", "missing"),
]

LAYERS = ("cli", "io", "model", "permgroup", "projector", "dyadic",
          "missing", "multiway", "simulate", "rng")

NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """Collects spans and per-op counters while :func:`traced` is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[int, str], float] = {}
        self.op = -1
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        key = (self.op, name)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        key = (self.op, name)
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def wrap(self, fn, name: str, layer: str, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


# Counter hooks: called after the wrapped call returns, outside its span.

def _after_ingest(tracer, args, result):
    y = result.y
    rows = int(result.observed.sum()) if y.ndim == 2 else int(y.shape[0])
    tracer.count("io.rows", rows)


def _after_projector(tracer, args, result):
    x = args[0]
    n = x.shape[0]
    p = x.shape[1] if x.ndim == 2 else 1
    tracer.count("projector.calls")
    tracer.count("projector.bytes_in", n * 2 * p * 8)


def _after_prepare(tracer, args, result):
    prepared = args[0]
    retained = prepared.pd.nbytes + sum(p.range_basis.nbytes for p in prepared.projectors)
    tracer.peak("dyadic.retained_bytes", retained)


def _after_family(tracer, args, result):
    tracer.count("permgroup.families")


def _after_decompose(tracer, args, result):
    import numpy as np

    tracer.count("missing.decompose_calls")
    tracer.count("missing.blocks", len(result))
    tracer.count("missing.cells_kept", result.cell_count)
    tracer.count("missing.cells_eligible", int(np.count_nonzero(np.asarray(args[0]))))


HOOKS = {
    "io.ingest_csv": _after_ingest,
    "projector.residual_projector": _after_projector,
    "dyadic.PreparedTest.__init__": _after_prepare,
    "permgroup.build_cyclic_family": _after_family,
    "missing.biclique_decompose": _after_decompose,
}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "clusterperm" or name.startswith("clusterperm."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every traced binding to record into ``tracer``; restore on exit."""
    saved = []
    try:
        for mod_name, attr, layer in FUNCTIONS:
            original = getattr(importlib.import_module(f"clusterperm.{mod_name}"), attr)
            name = f"{mod_name}.{attr}"
            wrapper = tracer.wrap(original, name, layer, HOOKS.get(name))
            for module in _package_modules():
                if module.__dict__.get(attr) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for mod_name, cls_name, attr, layer in METHODS:
            cls = getattr(importlib.import_module(f"clusterperm.{mod_name}"), cls_name)
            original = cls.__dict__[attr]
            name = f"{mod_name}.{cls_name}.{attr}"
            hook = HOOKS.get(name)
            if isinstance(original, classmethod):
                wrapper = classmethod(tracer.wrap(original.__func__, name, layer, hook))
            else:
                wrapper = tracer.wrap(original, name, layer, hook)
            saved.append((cls, attr, original))
            setattr(cls, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _outermost(spans, idx, pred) -> bool:
    """True when span ``idx`` matches ``pred`` and no ancestor does."""
    parent = spans[idx][PARENT]
    while parent >= 0:
        if pred(spans[parent]):
            return False
        parent = spans[parent][PARENT]
    return True


def layer_metrics(tracer: Tracer, op_wall: dict[int, float], count_ops) -> dict[str, float]:
    """Per-op layer metrics from ``tracer``.

    Times are means per op over every op in ``op_wall`` (op id -> traced
    wall seconds).  Counts are means per op over ``count_ops`` only, a fixed
    list of op ids, so they repeat exactly between runs of one seed.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    ops = set(op_wall)
    times: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for key in ("io.ingest_s", "projector.s", "dyadic.prepare_self_s", "dyadic.statistics_s",
                "dyadic.ci_self_s", "permgroup.family_s", "missing.decompose_s",
                "multiway.irregular_self_s", "simulate.dgp_s", "simulate.harness_self_s",
                "rng.s"):
        times[key] = 0.0

    def add(key, value):
        times[key] += value

    stats_names = ("dyadic.PreparedTest.statistics", "dyadic.PreparedTest.min_stat",
                   "dyadic._AffineStats.__init__", "dyadic._AffineStats.pvalues")
    dgp_names = ("simulate.gen_dyadic_dataset", "simulate.gen_random_effects",
                 "simulate.gen_irregular_dataset")
    for idx, span in enumerate(spans):
        if span[OP] not in ops:
            continue
        name, layer = span[NAME], span[LAYER]
        dur = span[END] - span[START]
        add(f"{layer}.self_s", selfs[idx])
        same_layer = lambda s, layer=layer: s[LAYER] == layer  # noqa: E731
        if layer == "io" and _outermost(spans, idx, same_layer):
            add("io.ingest_s", dur)
        elif layer == "projector" and _outermost(spans, idx, same_layer):
            add("projector.s", dur)
        elif layer == "permgroup" and _outermost(spans, idx, same_layer):
            add("permgroup.family_s", dur)
        elif layer == "rng" and _outermost(spans, idx, same_layer):
            add("rng.s", dur)
        if name == "dyadic.PreparedTest.__init__":
            add("dyadic.prepare_self_s", selfs[idx])
        elif name in stats_names:
            add("dyadic.statistics_s", dur)
        elif name == "dyadic.invert_ci":
            add("dyadic.ci_self_s", selfs[idx])
        elif name == "missing.biclique_decompose":
            add("missing.decompose_s", dur)
        elif name == "multiway.irregular_test":
            add("multiway.irregular_self_s", selfs[idx])
        elif name in dgp_names:
            if _outermost(spans, idx, lambda s: s[NAME] in dgp_names):
                add("simulate.dgp_s", dur)
        elif layer == "simulate":
            add("simulate.harness_self_s", selfs[idx])

    n_ops = max(len(ops), 1)
    metrics = {key: value / n_ops for key, value in times.items()}
    wall = sum(op_wall.values())
    metrics["trace.accounted_frac"] = (
        sum(metrics[f"{layer}.self_s"] for layer in LAYERS) * n_ops / wall if wall > 0 else 0.0
    )

    count_ops = list(count_ops)
    totals: dict[str, float] = {}
    for (op, name), value in tracer.counters.items():
        if op in count_ops:
            if name == "dyadic.retained_bytes":
                totals[name] = max(totals.get(name, 0.0), value)
            else:
                totals[name] = totals.get(name, 0.0) + value
    n_count = max(len(count_ops), 1)
    for name in ("io.rows", "projector.calls", "projector.bytes_in", "permgroup.families",
                 "missing.decompose_calls", "missing.blocks"):
        metrics[name] = totals.get(name, 0.0) / n_count
    metrics["dyadic.retained_bytes"] = totals.get("dyadic.retained_bytes", 0.0)
    eligible = totals.get("missing.cells_eligible", 0.0)
    metrics["missing.cells_kept_frac"] = totals.get("missing.cells_kept", 0.0) / eligible if eligible else 0.0
    metrics["rng.calls"] = sum(
        1 for idx, span in enumerate(spans)
        if span[OP] in count_ops and span[LAYER] == "rng"
        and _outermost(spans, idx, lambda s: s[LAYER] == "rng")
    ) / n_count
    return metrics
