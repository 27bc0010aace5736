"""The program's layers as the traced run sees them, and the per-layer
metrics built from a finished trace.

Each layer is one module of the program.  The comment on each group
names the end-to-end metric and workload its numbers should move.
"""

from __future__ import annotations

from perfbench.tracing import Target, Tracer
from perfbench.workloads import CHECK_NAMES

TARGETS = [
    # diagram: wall_s and the export commands
    Target("kernels", "cyclat.kernels", "word_covers_up"),
    Target("kernels", "cyclat.kernels", "word_rank"),
    Target("kernels", "cyclat.kernels", "word_vector"),
    Target("kernels", "cyclat.kernels", "descent_count"),
    # verify: the semidistributive check; elements: op_p50_ms
    Target("kernels", "cyclat.kernels", "join_flat"),
    Target("kernels", "cyclat.kernels", "meet_flat"),
    Target("kernels", "cyclat.kernels", "sd_scan"),
    # verify: the mobius, interval and alpha checks
    Target("kernels", "cyclat.kernels", "leq_flat"),
    Target("kernels", "cyclat.kernels", "is_admitted_flat"),
    Target("kernels", "cyclat.kernels", "pair_index", timed=False),
    # diagram: wall_s, peak_rss_mb
    Target("perm", "cyclat.perm", "CircularPermutation.__post_init__"),
    Target("perm", "cyclat.perm", "covers_up"),
    Target("perm", "cyclat.perm", "covers_down"),
    # elements: wall_s and the op_p99_ms tail; verify: the lattice check
    Target("vectors", "cyclat.vectors", "AdmittedVector.__post_init__"),
    Target("vectors", "cyclat.vectors", "cycle_to_vector"),
    Target("vectors", "cyclat.vectors", "vector_to_cycle"),
    Target("vectors", "cyclat.vectors", "join"),
    Target("vectors", "cyclat.vectors", "meet"),
    # verify: the interval check; elements: wall_s
    Target("affine", "cyclat.affine", "window_of_vector"),
    Target("affine", "cyclat.affine", "vector_of_window"),
    Target("affine", "cyclat.affine", "weak_leq"),
    Target("affine", "cyclat.affine", "length"),
    # diagram: wall_s, peak_rss_mb, the export commands
    Target("poset", "cyclat.poset", "build"),
    Target("poset", "cyclat.poset", "HasseDiagram.__post_init__"),
    Target("poset", "cyclat.poset", "to_json"),
    Target("poset", "cyclat.poset", "to_dot"),
    # verify: the matching check; elements: wall_s
    Target("poset", "cyclat.poset", "mobius_from"),
    Target("poset", "cyclat.poset", "interval"),
    Target("poset", "cyclat.poset", "check_semidistributive"),
    Target("poset", "cyclat.poset", "check_modular"),
    Target("poset", "cyclat.poset", "compare"),
    # verify: the lattice check, wall_s
    Target("oracle", "cyclat.oracle", "order_by_closure"),
    Target("oracle", "cyclat.oracle", "join_by_search"),
    Target("oracle", "cyclat.oracle", "meet_by_search"),
    Target("oracle", "cyclat.oracle", "descents_by_scan"),
    # verify: wall_s, one entry per check
    Target("checks", "cyclat.checks", "run_check", span=True, per_arg=True),
    # elements: wall_s; diagram: the export commands
    Target("cli", "cyclat.cli", "main", span=True),
    Target("cli", "cyclat.cli", "parse_element", span=True),
    Target("cli", "cyclat.cli", "render_element", span=True),
]

# name -> (unit, better) of the metrics derived from several counters
DERIVED = {
    "poset.build.nodes": ("count", "higher"),
    "poset.build.edges": ("count", "higher"),
    "kernels.word_covers_up.per_node": ("ratio", "lower"),
    "vectors.AdmittedVector.per_op": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _function_names(target: Target) -> list[str]:
    if target.per_arg:
        return [f"{target.name}.{arg}" for arg in CHECK_NAMES]
    return [target.name]


def metric_specs() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it, in report order."""
    specs = []
    for target in TARGETS:
        for name in _function_names(target):
            specs.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
            if target.timed:
                specs.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


class BuildSizes:
    """Totals over every diagram `poset.build` returned."""

    def __init__(self) -> None:
        self.nodes = 0
        self.edges = 0

    def __call__(self, diagram) -> None:
        self.nodes += len(diagram.nodes)
        self.edges += len(diagram.edges)


def per_layer_metrics(tracer: Tracer, sizes: BuildSizes, ops: int,
                      overhead_s: float) -> dict[str, float]:
    """Values for every name `metric_specs` lists; absent functions read 0."""
    values: dict[str, float] = {}
    for target in TARGETS:
        for name in _function_names(target):
            values[f"{name}.calls"] = tracer.calls(name)
            if target.timed:
                values[f"{name}.self_s"] = tracer.self_seconds(name)
    covers = tracer.calls("kernels.word_covers_up")
    values["poset.build.nodes"] = sizes.nodes
    values["poset.build.edges"] = sizes.edges
    values["kernels.word_covers_up.per_node"] = covers / sizes.nodes if sizes.nodes else 0.0
    values["vectors.AdmittedVector.per_op"] = (
        tracer.calls("vectors.AdmittedVector.__post_init__") / ops)
    values["trace.overhead_s"] = overhead_s
    return values
