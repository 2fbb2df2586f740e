"""Density certificates of regular-subgraph-freeness.

max_density_subgraph finds a vertex set maximizing e(S)/|S| exactly via
Goldberg's flow network.  For a rational guess g = a/b every capacity is
scaled by b, so the min cut is computed in exact integer arithmetic.  Some
S has density > g iff some nonempty S has

    2a|S| - sum_{v in S} deg(v)*b + b*e(S, V-S) < 0,

and the source side of a minimum cut of the network below is such an S.
Iterating with g = the best density found so far terminates at the
optimum, because each round strictly improves.

The network carries only the reduced terminal arcs.  With
c_v = deg(v)*b - 2a, vertex v gets an arc s->v of capacity c_v if c_v > 0,
an arc v->t of capacity -c_v if c_v < 0, and no terminal arc if c_v = 0;
each edge u-v has capacity b in both directions.  A cut with source side
{s} + S costs

    sum_{v not in S} max(c_v, 0) + sum_{v in S} max(-c_v, 0) + b*e(S, V-S),

which is the expression above plus the constant P = sum_v max(c_v, 0), the
cost of S = {}.  So some S beats g iff the maximum flow is below P.
Goldberg's original network (s->v of capacity m*b, v->t of capacity
m*b + 2a - deg(v)*b, stop at flow m*n*b) costs every cut more by the same
constant sum_v min(m*b, m*b + 2a - deg(v)*b), so both networks have the
same minimum cuts.  The set reachable from s after any maximum flow is the
minimal minimum cut, so every candidate set, every round and every
DensityReport is the same in both.  For the same reason they do not depend
on the max-flow algorithm, nor on the order in which it augments: whatever
residual capacities Dinic's blocking flows or flow.py's augmenting paths on
distance labels leave, the reachable set is the same.

Before max_flow runs, a greedy first flow makes one pass over the edges: an
edge that joins a vertex with surplus left (on its s-arc) to one with
deficit left (on its t-arc) carries min(surplus, deficit, b) along
s->u->v->t.  The network is built with that flow in place, as residual
capacities, and max_flow adds the rest; the first flow is a feasible flow,
so the total is still a maximum flow and the reachable set the same.

Every round after the first runs on G[S], S the previous round's candidate
set, not on G.  The minimum cuts above minimize h_g(S) = g|S| - e(S), which
is submodular, and the guesses only rise.  For g' > g the minimal
minimizer of h_g' lies inside the minimal minimizer of h_g (Goldberg 1984;
Gallo, Grigoriadis & Tarjan 1989), and on subsets of S the function h is
the same in G[S] as in G.  So the minimal minimum cut of G[S] is the one G
would give, and every candidate set, round count and DensityReport is
unchanged; the candidate's edge count is G[S]'s.

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
    rounds: int  # max-flow calls, one per Goldberg guess


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


def _reduced_network(g: Graph, a: int, b: int) -> tuple[FlowNetwork, int, int]:
    """The reduced network for the guess a/b with the greedy first flow in
    place: (network, flow already pushed, P = sum of the s-arc capacities).
    Nodes are the vertices, then s = n and t = n + 1."""
    n = g.n
    s, t = n, n + 1
    c = [len(nbrs) * b - 2 * a for nbrs in g.adj]
    left = c[:]  # surplus (> 0) or deficit (< 0) not yet routed
    through = []  # flow on each edge, positive from u to v
    for u, v in g.edges:
        lu, lv = left[u], left[v]
        if lu > 0 > lv:
            f = min(lu, -lv, b)
        elif lv > 0 > lu:
            f = -min(lv, -lu, b)
        else:
            f = 0
        left[u] -= f
        left[v] += f
        through.append(f)
    net = FlowNetwork(n + 2)
    pushed = total = 0
    for v in range(n):
        cv, lv = c[v], left[v]
        if cv > 0:
            net.add_edge(s, v, lv, cv - lv)
            pushed += cv - lv
            total += cv
        elif cv < 0:
            net.add_edge(v, t, -lv, lv - cv)
    for (u, v), f in zip(g.edges, through):
        net.add_edge(u, v, b - f, b + f)
    return net, pushed, total


def max_density_subgraph(g: Graph) -> DensityReport:
    """Exact maximum-density subgraph (density = edges / vertices)."""
    if g.n == 0:
        raise EmptyGraph("density undefined on the empty graph")
    # each round runs on h = G[ids], the previous round's candidate set,
    # whose vertex i is ids[i] in g
    h, ids = g, list(range(g.n))
    rounds = 0
    while True:
        n = h.n
        best = Fraction(h.num_edges, n)
        net, pushed, total = _reduced_network(h, best.numerator, best.denominator)
        rounds += 1
        if pushed + net.max_flow(n, n + 1) >= total:
            return DensityReport(tuple(ids), h.num_edges, best, rounds)
        local = [v for v in net.min_cut_source_side(n) if v < n]
        cand = induced_subgraph(h, local)
        if cand.num_edges * n <= h.num_edges * len(local):
            raise RuntimeError("flow certificate must strictly improve")
        h, ids = cand, [ids[v] for v in local]


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
        # vertices 0..prefix_size-1 need no re-indexing, and u < v on an edge
        prefix = Graph(prefix_size, [e for e in g.edges if e[1] < prefix_size])
        rep = max_density_subgraph(prefix)
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
