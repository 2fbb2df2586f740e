"""Tracing from outside the library: wrappers around regfree's public
functions record spans (name, start, end, parent) in memory, and the
per-layer metrics are derived from the spans afterwards.

Each wrapper is installed at the attribute its callers look up: a name a
module imported with `from .graph import k_core` is wrapped in that
module, and a method on its class.  `installed()` restores every original
on exit.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter


def _rows(args, result):
    return {"rows": len(args[0])}


def _search(args, result):
    return {"nodes": result.nodes_expanded, "outcome": result.outcome}


def _columns(args, result):
    return {"nonzero_columns": len(result[1].columns)}


def _kept(args, result):
    return {"x": len(result.x), "y": len(result.y)}


def _chain_steps(args, result):
    return {"steps": len(result.steps)}


def _union_steps(args, result):
    # the geometric closure, the partial-sum match, and one step per layer
    return {"steps": 2 + len(result.per_layer)}


# (module under regfree, class or None, attribute, span name, attributes)
TARGETS = (
    ("construction", None, "build", "construction.build", None),
    ("construction", "LayeredGraph", "check_invariants", "construction.check_invariants", None),
    ("construction", None, "bipartite_variant", "construction.bipartite_variant", None),
    ("density", None, "bipartite_variant", "construction.bipartite_variant", None),
    ("construction", None, "paper_weighting", "construction.paper_weighting", None),
    ("graph", None, "degeneracy", "graph.degeneracy", None),
    ("regular", None, "k_core", "graph.k_core", None),
    ("regular", None, "induced_subgraph", "graph.induced_subgraph", None),
    ("density", None, "induced_subgraph", "graph.induced_subgraph", None),
    ("subsample", None, "induced_subgraph", "graph.induced_subgraph", None),
    ("regular", None, "find_k_regular", "regular.find_k_regular", _search),
    ("flow", "FlowNetwork", "max_flow", "flow.max_flow", None),
    ("density", None, "max_density_subgraph", "density.max_density", None),
    ("density", None, "prefix_certificate_4reg", "density.certificate", None),
    ("density", None, "prefix_certificate_3reg_bipartite", "density.certificate", None),
    ("simplex", None, "solve_max", "simplex.solve_max", _rows),
    ("fractional", None, "mwis", "fractional.mwis", None),
    ("fractional", None, "chi_f_exact", "fractional.chi_f_exact", _columns),
    ("fractional", None, "chi_f_lower_bound", "fractional.chi_f_lower_bound", None),
    ("subsample", None, "harris_subsample", "subsample.harris", _kept),
    ("bounds", None, "reg_chain", "bounds.replay", _chain_steps),
    ("bounds", None, "frac_chain", "bounds.replay", _chain_steps),
    ("bounds", None, "union_bounds", "bounds.replay", _union_steps),
)

# Spans the benchmark opens around its own phases; their self time is the
# benchmark's overhead (loop, output checks, wrapper cost).
ROOTS = ("bench.setup", "bench.run")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def call(self, name, fn, args, kwargs, attrs):
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        if attrs is not None:
            span[4] = attrs(args, result)
        return result


def _wrapper(tracer: Tracer, name: str, fn, attrs):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Install a wrapper at every target for the duration of the block."""
    saved = []
    try:
        for module, cls, attr, name, attrs in TARGETS:
            owner = importlib.import_module(f"regfree.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


LAYER_METRICS = (
    ("construction.build_s", "s"),
    ("construction.check_invariants_s", "s"),
    ("construction.bipartite_variant_s", "s"),
    ("construction.paper_weighting_s", "s"),
    ("graph.degeneracy_s", "s"),
    ("graph.k_core_s", "s"),
    ("graph.induced_subgraph_s", "s"),
    ("regular.find_k_regular_s", "s"),
    ("regular.nodes_expanded", "count"),
    ("regular.nodes_per_s", "1/s"),
    ("regular.budget_exceeded", "count"),
    ("flow.max_flow_s", "s"),
    ("flow.max_flow_calls", "count"),
    ("density.max_density_self_s", "s"),
    ("density.max_density_calls", "count"),
    ("density.goldberg_rounds", "count"),
    ("density.certificate_s", "s"),
    ("simplex.solve_max_s", "s"),
    ("simplex.solves", "count"),
    ("simplex.rows_max", "count"),
    ("fractional.mwis_s", "s"),
    ("fractional.mwis_calls", "count"),
    ("fractional.chi_f_exact_self_s", "s"),
    ("fractional.chi_f_lower_bound_self_s", "s"),
    ("fractional.columns_generated", "count"),
    ("fractional.columns_used_ratio", "1"),
    ("subsample.harris_s", "s"),
    ("subsample.kept_ratio", "1"),
    ("bounds.replay_s", "s"),
    ("bounds.steps", "count"),
    ("bench.traced_wall_s", "s"),
    ("bench.overhead_s", "s"),
    ("bench.trace_overhead_frac", "1"),
)

# self-time metric -> span name; together with bench.overhead_s these add
# up to bench.traced_wall_s
SELF_TIME = {
    "construction.build_s": "construction.build",
    "construction.check_invariants_s": "construction.check_invariants",
    "construction.bipartite_variant_s": "construction.bipartite_variant",
    "construction.paper_weighting_s": "construction.paper_weighting",
    "graph.degeneracy_s": "graph.degeneracy",
    "graph.k_core_s": "graph.k_core",
    "graph.induced_subgraph_s": "graph.induced_subgraph",
    "regular.find_k_regular_s": "regular.find_k_regular",
    "flow.max_flow_s": "flow.max_flow",
    "density.max_density_self_s": "density.max_density",
    "density.certificate_s": "density.certificate",
    "simplex.solve_max_s": "simplex.solve_max",
    "fractional.mwis_s": "fractional.mwis",
    "fractional.chi_f_exact_self_s": "fractional.chi_f_exact",
    "fractional.chi_f_lower_bound_self_s": "fractional.chi_f_lower_bound",
    "subsample.harris_s": "subsample.harris",
    "bounds.replay_s": "bounds.replay",
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Totals over all spans: self times, counts and ratios per layer, plus
    the traced wall time and the part of it no layer accounts for."""
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), t in zip(spans, selfs):
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
    attr_sum: dict[str, float] = {}
    rows_max = 0
    last_rows: dict[int, int] = {}  # chi_f_exact span -> rows of its last LP
    for name, start, end, parent, attrs in spans:
        for key, value in (attrs or {}).items():
            if key == "outcome":
                value = value == "budget_exceeded"
            attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0) + value
        if name == "simplex.solve_max":
            rows_max = max(rows_max, attrs["rows"])
            if parent is not None and spans[parent][0] == "fractional.chi_f_exact":
                last_rows[parent] = attrs["rows"]
    columns = sum(last_rows.values())
    nodes = attr_sum.get("regular.find_k_regular.nodes", 0)

    m = {metric: self_s.get(span, 0.0) for metric, span in SELF_TIME.items()}
    m.update(
        {
            "regular.nodes_expanded": nodes,
            "regular.nodes_per_s": _ratio(nodes, m["regular.find_k_regular_s"]),
            "regular.budget_exceeded": attr_sum.get("regular.find_k_regular.outcome", 0),
            "flow.max_flow_calls": calls.get("flow.max_flow", 0),
            "density.max_density_calls": calls.get("density.max_density", 0),
            "density.goldberg_rounds": _ratio(
                calls.get("flow.max_flow", 0), calls.get("density.max_density", 0)
            ),
            "simplex.solves": calls.get("simplex.solve_max", 0),
            "simplex.rows_max": rows_max,
            "fractional.mwis_calls": calls.get("fractional.mwis", 0),
            "fractional.columns_generated": columns,
            "fractional.columns_used_ratio": _ratio(
                attr_sum.get("fractional.chi_f_exact.nonzero_columns", 0), columns
            ),
            "subsample.kept_ratio": _ratio(
                attr_sum.get("subsample.harris.x", 0), attr_sum.get("subsample.harris.y", 0)
            ),
            "bounds.steps": attr_sum.get("bounds.replay.steps", 0),
            "bench.traced_wall_s": sum(e - s for n, s, e, p, _ in spans if p is None),
            "bench.overhead_s": sum(self_s.get(root, 0.0) for root in ROOTS),
        }
    )
    return m
