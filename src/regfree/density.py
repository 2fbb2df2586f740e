"""Density certificates of regular-subgraph-freeness.

max_density_subgraph finds a vertex set maximizing e(S)/|S| exactly via
Goldberg's flow network: for a rational guess g = a/b, scale all capacities
by b so the min cut is computed in exact integer arithmetic.  Min cut
< m*n*b iff some S has density > g, and the source side of the cut is such
an S; iterating with g = best density found so far terminates at the
optimum because each round strictly improves.

prefix_certificate_* turn the density argument into a one-sided polynomial
certificate: if every layer-prefix of the construction has maximum subgraph
density below 11/10 (and the instance-level size inequalities behind the
argument hold), the graph can have no 4-regular subgraph (no 3-regular one
for the bipartite variant).  The converse does not hold; failures are
reported as Inconclusive, never as a claim that a regular subgraph exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .construction import LayeredGraph, bipartite_variant
from .flow import FlowNetwork
from .graph import Graph, induced_subgraph

CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"

# the density bound the freeness argument needs: a larger one certifies
# graphs that do have a 4-regular subgraph
THRESHOLD = Fraction(11, 10)


class EmptyGraph(ValueError):
    pass


@dataclass(frozen=True)
class DensityReport:
    subgraph: tuple[int, ...]
    num_edges: int
    density: Fraction


@dataclass(frozen=True)
class PrefixResult:
    i: int                      # the event index; prefix is layers 1..i-1
    prefix_size: int
    max_density: Optional[Fraction]  # None when the prefix is empty
    below_threshold: bool
    active: bool                # some subgraph size s selects this i
    side_condition_ok: Optional[bool]  # None when inactive


@dataclass(frozen=True)
class CertificateOutcome:
    k: int
    prefixes: tuple[PrefixResult, ...]
    verdict: str  # CERTIFIED / INCONCLUSIVE


def _induced_edge_count(g: Graph, s) -> int:
    inside = set(s)
    return sum(1 for u, v in g.edges if u in inside and v in inside)


def max_density_subgraph(g: Graph) -> DensityReport:
    """Exact maximum-density subgraph (density = edges / vertices)."""
    if g.n == 0:
        raise EmptyGraph("density undefined on the empty graph")
    m = g.num_edges
    n = g.n
    best_set = list(range(n))
    best = Fraction(m, n)
    while True:
        a, b = best.numerator, best.denominator
        net = FlowNetwork(n + 2)
        s, t = n, n + 1
        for v in range(n):
            net.add_edge(s, v, m * b)
            net.add_edge(v, t, m * b + 2 * a - g.degree(v) * b)
        for u, v in g.edges:
            net.add_edge(u, v, b, b)
        flow = net.max_flow(s, t)
        if flow >= m * n * b:
            break
        cand = [v for v in net.min_cut_source_side(s) if v < n]
        e = _induced_edge_count(g, cand)
        d = Fraction(e, len(cand))
        if d <= best:
            raise RuntimeError("flow certificate must strictly improve")
        best, best_set = d, cand
    e = _induced_edge_count(g, best_set)
    if Fraction(e, len(best_set)) != best:
        raise ArithmeticError("best set's density differs from the optimum")
    return DensityReport(tuple(best_set), e, best)


def _prefix_certificate(lg: LayeredGraph, g: Graph, k: int) -> CertificateOutcome:
    c = lg.num_layers
    n_v = g.n
    # size[i] = |B_i|, with the boundary conventions |B_0| = |V| and
    # |B_{C+1}| = |B_{C+2}| = 0
    size = (n_v,) + lg.layer_sizes + (0, 0)
    results = []
    for i in range(c + 2):
        # the event index i is selected by a subgraph size s with
        # 1000*|B_{i+1}| < s <= 1000*|B_i| and 1 <= s <= |V|
        s_lo = 1000 * size[i + 1] + 1
        active = s_lo <= min(1000 * size[i], n_v)
        # instance form of sum_{j>i} |B_j| <= s/500, at the worst
        # (smallest) admissible s
        side_ok = 500 * sum(size[i + 1 : c + 1]) <= s_lo if active else None
        if i < 2:
            results.append(PrefixResult(i, 0, None, True, active, side_ok))
            continue
        prefix_size = lg.layer_starts[i - 1]  # the prefix holds all of B_1
        rep = max_density_subgraph(induced_subgraph(g, range(prefix_size)))
        below = rep.density < THRESHOLD
        results.append(
            PrefixResult(i, prefix_size, rep.density, below, active, side_ok)
        )
    certified = all(
        r.below_threshold and r.side_condition_ok is not False for r in results
    )
    verdict = CERTIFIED if certified else INCONCLUSIVE
    return CertificateOutcome(k, tuple(results), verdict)


def prefix_certificate_4reg(lg: LayeredGraph) -> CertificateOutcome:
    """Certified implies lg.graph has no 4-regular subgraph."""
    return _prefix_certificate(lg, lg.graph, 4)


def prefix_certificate_3reg_bipartite(lg: LayeredGraph) -> CertificateOutcome:
    """Certified implies bipartite_variant(lg) has no 3-regular subgraph.

    The case analysis for the bipartite variant (splitting on whether at
    least 0.9s of the subgraph sits in the prefix) lands on the same
    prefix-density condition with the same 11/10 threshold, so the check is
    the shared one, run against the variant's edges."""
    return _prefix_certificate(lg, bipartite_variant(lg), 3)
