"""Spans around calls into the swapnas modules, and the per-module metrics.

A traced run installs a wrapper around each public function listed in
``TRACED`` in every swapnas namespace that holds it, so calls the library
makes to itself are seen as well.  Nothing under ``src/`` changes, the
wrappers are removed after the run, and an untraced run installs none.
Spans are kept in memory and reduced to metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# Module (layer) -> public functions traced in it.
TRACED = {
    "cells": (
        "validate_cell",
        "assemble_descriptor",
        "trace_channels",
        "trace_shapes",
        "count_parameters",
        "count_flops",
        "random_cell",
    ),
    "network": ("build_network", "network_from_nodes", "forward_capture", "gaussian_batch"),
    "metric": ("swap_score", "standard_pattern_cardinality", "regularised_swap_score"),
    "scoring": ("make_batch", "score_cell"),
    "evolution": (
        "run_search",
        "mutate_operation",
        "mutate_connectivity",
        "crossover",
        "save_checkpoint",
    ),
    "evaluation": ("input_dim_ablation", "estimate_mu_sigma"),
}


# What a span keeps of its call besides its times: only small, immutable
# objects, read after the span has ended.
def _keep_forward(args, kwargs, capture):
    net, batch = args[0], args[1]
    return {"net": id(net), "dims": batch.dims, "v": capture.n_values, "s": capture.n_samples}


def _keep_build(args, kwargs, net):
    return {"net": id(net), "cell": args[0], "assembly": args[1]}


def _keep_capture(args, kwargs, count):
    capture = args[0]
    return {"v": capture.n_values, "s": capture.n_samples}


def _keep_checkpoint(args, kwargs, _):
    return {"bytes": os.path.getsize(args[0])}


KEEP = {
    "network.forward_capture": _keep_forward,
    "network.build_network": _keep_build,
    "metric.swap_score": _keep_capture,
    "metric.standard_pattern_cardinality": _keep_capture,
    "scoring.score_cell": lambda args, kwargs, record: {"cell": args[0]},
    "evolution.run_search": lambda args, kwargs, result: {"evaluations": result.evaluations},
    "evolution.save_checkpoint": _keep_checkpoint,
}


@dataclass
class Span:
    name: str
    layer: str
    op: int
    parent: int
    start: int
    end: int = 0
    child_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    """In-memory span recorder; ``op`` is the id of the operation running now."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, self.op, parent, time.perf_counter_ns()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.ns

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        keep = KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if keep is not None:
                self.spans[idx].attrs = keep(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("swapnas")
        modules = {layer: importlib.import_module(f"swapnas.{layer}") for layer in TRACED}
        namespaces = [package, *modules.values()]
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self._wrap(original, layer)
                for ns in namespaces:
                    if getattr(ns, fname, None) is original:
                        setattr(ns, fname, wrapper)
                        self._patches.append((ns, fname, original))

    def uninstall(self) -> None:
        for ns, fname, original in reversed(self._patches):
            setattr(ns, fname, original)
        self._patches.clear()


# Per-module metrics: name -> (unit, better, what it is, the end-to-end
# metric and workload it should move).  Metrics of a module a workload never
# calls read 0 there.
MODULE_METRICS = {
    "cells.assemble_calls_per_score": ("count", "lower", "assemble_descriptor calls per cell pass", "passes_per_s on search-small; no change on nb201-score"),
    "cells.assemble_ms_per_score": ("ms", "lower", "assemble_descriptor time per cell pass", "passes_per_s on search-small; under 1% of nb201-score, predict no change there"),
    "cells.size_ms_per_score": ("ms", "lower", "count_parameters plus count_flops time per cell pass", "passes_per_s on search-small; predict no change on nb201-score"),
    "cells.validate_ms": ("ms", "lower", "validate_cell time per cell pass, from assembly and mutation", "passes_per_s on search-small; predict no change on nb201-score"),
    "cells.self_ms": ("ms", "lower", "cells module self time per operation", "passes_per_s on search-small"),
    "network.build_ms": ("ms", "lower", "build_network p50 (assembly and weight draws)", "passes_per_s, step_ms_p50 on nb201-score; passes_per_s on ablate-dims"),
    "network.forward_ms": ("ms", "lower", "forward_capture p50 per pass", "passes_per_s, step_ms_p50 on nb201-score; passes_per_s on ablate-dims; search-small only via per-call overhead"),
    "network.forward_share": ("share", "lower", "forward_capture self time over operation time", "passes_per_s on nb201-score and ablate-dims"),
    "network.macs_per_s": ("MAC/s", "higher", "computed: count_flops MACs per second of forward_capture", "passes_per_s on nb201-score and ablate-dims"),
    "network.n_values": ("count", "lower", "V, values captured per pass (p50)", "peak_rss_mb on all workloads"),
    "network.capture_bytes": ("B", "lower", "computed: V * ceil(S/8) per pass (p50)", "peak_rss_mb on all workloads"),
    "network.self_ms": ("ms", "lower", "network module self time per operation", "passes_per_s on nb201-score and ablate-dims"),
    "metric.swap_ms": ("ms", "lower", "swap_score p50", "passes_per_s, step_ms_p50 on nb201-score"),
    "metric.swap_rows_per_s": ("rows/s", "higher", "capture rows deduplicated per second by swap_score", "passes_per_s on nb201-score"),
    "metric.per_sample_ms": ("ms", "lower", "standard_pattern_cardinality p50", "passes_per_s on ablate-dims only; predict no change elsewhere"),
    "metric.per_sample_bits_per_s": ("bit/s", "higher", "capture bits per second through standard_pattern_cardinality", "passes_per_s on ablate-dims only"),
    "metric.self_ms": ("ms", "lower", "metric module self time per operation", "passes_per_s on nb201-score and ablate-dims"),
    "scoring.score_cell_ms": ("ms", "lower", "score_cell p50", "step_ms_p50 on nb201-score; passes_per_s on search-small"),
    "scoring.self_ms": ("ms", "lower", "scoring module self time (glue) per operation", "passes_per_s on nb201-score and search-small"),
    "scoring.batch_ms": ("ms", "lower", "make_batch p50", "setup_s on nb201-score; passes_per_s on search-small"),
    "evolution.evaluations": ("count", "lower", "evaluations requested per search (fixed by the seed)", "passes_per_s on search-small"),
    "evolution.score_calls": ("count", "lower", "score_cell calls per search", "passes_per_s on search-small; a memo is bypassed on nb201-score"),
    "evolution.distinct_cells": ("count", "lower", "distinct cells scored per search", "passes_per_s on search-small"),
    "evolution.useful_ratio": ("share", "higher", "distinct cells over score_cell calls", "passes_per_s on search-small; predict no change on nb201-score"),
    "evolution.self_ms": ("ms", "lower", "evolution module self time per search: tournament, mutation, crossover", "passes_per_s on search-small"),
    "evolution.checkpoint_ms": ("ms", "lower", "save_checkpoint p50", "passes_per_s on search-small"),
    "evolution.checkpoint_bytes": ("B", "lower", "checkpoint file size p50", "passes_per_s on search-small"),
    "evaluation.passes": ("count", "lower", "cell x dims forward passes per input_dim_ablation call", "passes_per_s on ablate-dims"),
    "evaluation.ablation_self_ms": ("ms", "lower", "evaluation module self time per operation", "passes_per_s on ablate-dims"),
    "trace.spans_per_op": ("count", "lower", "spans recorded per operation", "none: cost of the traced run"),
    "trace.overhead_ms_per_op": ("ms", "lower", "traced minus untraced time per operation, same operations", "none: cost of the traced run"),
    "trace.overhead_share": ("share", "lower", "traced minus untraced time over untraced time", "none: cost of the traced run"),
}


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _p50_ms(spans: list[Span]) -> float:
    return _median([s.ns for s in spans]) / 1e6


def _rate(amount: float, spans: list[Span]) -> float:
    ns = sum(s.ns for s in spans)
    return amount / (ns / 1e9) if ns else 0.0


def module_metrics(tracer: Tracer, count_flops, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Reduce the spans of one traced replay to the ``MODULE_METRICS`` values.

    ``untraced_s`` and ``traced_s`` are the loop times of the same operations
    run without and with the wrappers.
    """
    ops = [s for s in tracer.spans if s.name == "bench.op"]
    n_ops = len(ops)
    op_ns = sum(s.ns for s in ops)
    by_name: dict[str, list[Span]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    n_spans = 0
    for s in tracer.spans:
        if s.op >= 0:
            by_name[s.name].append(s)
            self_ns[s.layer] += s.self_ns
            n_spans += 1

    forwards = by_name["network.forward_capture"]
    passes = len(forwards)
    per_pass = (lambda ns: ns / 1e6 / passes) if passes else (lambda ns: 0.0)
    per_op = (lambda ns: ns / 1e6 / n_ops) if n_ops else (lambda ns: 0.0)

    def total_ns(*names: str) -> int:
        return sum(s.ns for n in names for s in by_name[n])

    # A network id may be reused once the network is freed, so match each
    # pass to the latest build before it.
    builds: dict[int, dict] = {}
    macs = 0
    flops_cache: dict = {}
    for s in tracer.spans:
        if s.name == "network.build_network":
            builds[s.attrs["net"]] = s.attrs
        elif s.name == "network.forward_capture" and s.op >= 0:
            built = builds[s.attrs["net"]]
            key = (built["cell"], built["assembly"], s.attrs["dims"])
            if key not in flops_cache:
                flops_cache[key] = count_flops(*key)
            macs += flops_cache[key]
    swaps = by_name["metric.swap_score"]
    per_sample = by_name["metric.standard_pattern_cardinality"]
    scores = by_name["scoring.score_cell"]
    searches = by_name["evolution.run_search"]
    n_searches = len(searches)
    n_calls = len(scores) if n_searches else 0
    n_distinct = len({(s.op, s.attrs["cell"]) for s in scores}) if n_searches else 0
    ablations = by_name["evaluation.input_dim_ablation"]
    checkpoints = by_name["evolution.save_checkpoint"]
    spent = traced_s - untraced_s

    return {
        "cells.assemble_calls_per_score": len(by_name["cells.assemble_descriptor"]) / passes if passes else 0.0,
        "cells.assemble_ms_per_score": per_pass(total_ns("cells.assemble_descriptor")),
        "cells.size_ms_per_score": per_pass(total_ns("cells.count_parameters", "cells.count_flops")),
        "cells.validate_ms": per_pass(total_ns("cells.validate_cell")),
        "cells.self_ms": per_op(self_ns["cells"]),
        "network.build_ms": _p50_ms(by_name["network.build_network"]),
        "network.forward_ms": _p50_ms(forwards),
        "network.forward_share": sum(s.self_ns for s in forwards) / op_ns if op_ns else 0.0,
        "network.macs_per_s": _rate(macs, forwards),
        "network.n_values": _median([s.attrs["v"] for s in forwards]),
        "network.capture_bytes": _median([s.attrs["v"] * ((s.attrs["s"] + 7) // 8) for s in forwards]),
        "network.self_ms": per_op(self_ns["network"]),
        "metric.swap_ms": _p50_ms(swaps),
        "metric.swap_rows_per_s": _rate(sum(s.attrs["v"] for s in swaps), swaps),
        "metric.per_sample_ms": _p50_ms(per_sample),
        "metric.per_sample_bits_per_s": _rate(
            sum(s.attrs["v"] * s.attrs["s"] for s in per_sample), per_sample
        ),
        "metric.self_ms": per_op(self_ns["metric"]),
        "scoring.score_cell_ms": _p50_ms(scores),
        "scoring.self_ms": per_op(self_ns["scoring"]),
        "scoring.batch_ms": _p50_ms([s for s in tracer.spans if s.name == "scoring.make_batch"]),
        "evolution.evaluations": sum(s.attrs["evaluations"] for s in searches) / n_searches if n_searches else 0.0,
        "evolution.score_calls": n_calls / n_searches if n_searches else 0.0,
        "evolution.distinct_cells": n_distinct / n_searches if n_searches else 0.0,
        "evolution.useful_ratio": n_distinct / n_calls if n_calls else 0.0,
        "evolution.self_ms": per_op(self_ns["evolution"]),
        "evolution.checkpoint_ms": _p50_ms(checkpoints),
        "evolution.checkpoint_bytes": _median([s.attrs["bytes"] for s in checkpoints]),
        "evaluation.passes": passes / len(ablations) if ablations else 0.0,
        "evaluation.ablation_self_ms": per_op(self_ns["evaluation"]),
        "trace.spans_per_op": n_spans / n_ops if n_ops else 0.0,
        "trace.overhead_ms_per_op": spent * 1e3 / n_ops if n_ops else 0.0,
        "trace.overhead_share": spent / untraced_s if untraced_s else 0.0,
    }
