"""Exact k-regular subgraph detection with verifiable witnesses.

A k-regular subgraph is a nonempty vertex set plus an edge subset in which
every chosen vertex is incident to exactly k chosen edges.  The search is
exact: NotFound means a complete search proved nonexistence.

Pipeline: restrict to the k-core (any k-regular subgraph lives inside it),
split into connected components, then DFS over edge assignments with
constraint propagation.  Only edges carry a state: undecided / chosen /
forbidden.  A vertex is in the subgraph once it has a chosen edge, and out
once it has none and too few undecided edges left to reach k.  Forbidding
an out vertex's edges cascades.  An empty k-core is decided before any
search; the layered construction's 4-core is empty when it has at most 4
layers, since its degeneracy is at most C - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import Graph, connected_components, induced_subgraph, k_core

FOUND = "found"
NOT_FOUND = "not_found"
BUDGET_EXCEEDED = "budget_exceeded"

# search nodes: the k = 3 search on the 340-vertex ladder 256,64,16,4 expands
# 7,000-13,000 nodes/s on one 2-vCPU core, so the default stops in 8-14 s
DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class RegularWitness:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    k: int


@dataclass(frozen=True)
class SearchResult:
    outcome: str  # FOUND / NOT_FOUND / BUDGET_EXCEEDED
    witness: Optional[RegularWitness]
    nodes_expanded: int


def verify_witness(g: Graph, w: RegularWitness) -> bool:
    """All witness invariants, checked from scratch against g."""
    if not w.vertices:
        return False
    vs = set(w.vertices)
    if len(vs) != len(w.vertices):
        return False
    deg = {v: 0 for v in vs}
    seen = set()
    for u, v in w.edges:
        e = (u, v) if u < v else (v, u)
        if e in seen or not g.has_edge(*e):
            return False
        if u not in vs or v not in vs:
            return False
        seen.add(e)
        deg[u] += 1
        deg[v] += 1
    return all(d == w.k for d in deg.values())


class _ComponentSearch:
    """DFS with propagation on one connected component (local indices).

    A vertex's state is read from two counts: chosen[v], its chosen edges,
    and avail[v], its undecided ones.  The trail lists the edges decided
    since the root, so backtracking is undoing them in reverse.

    Nodes are propagation fixpoints, so a vertex with 0 < chosen < k has
    more than k - chosen undecided edges.  _branch completes the first such
    vertex in vertex_order; without one, any chosen edges form a witness.
    """

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        n = g.n
        self.inc: list[list[int]] = [[] for _ in range(n)]  # vertex -> edge ids
        for eid, (u, v) in enumerate(g.edges):
            self.inc[u].append(eid)
            self.inc[v].append(eid)
        self.estate = [0] * len(g.edges)  # 0 undecided, 1 chosen, -1 forbidden
        self.chosen = [0] * n
        self.avail = [len(self.inc[v]) for v in range(n)]
        self.trail: list[int] = []
        # branch order: edges of high-degree vertices first
        self.vertex_order = sorted(range(n), key=lambda v: (-len(g.adj[v]), v))

    # --- trail-based state changes ---------------------------------------

    def _set_edge(self, eid: int, s: int):
        self.trail.append(eid)
        self.estate[eid] = s
        u, v = self.g.edges[eid]
        self.avail[u] -= 1
        self.avail[v] -= 1
        if s == 1:
            self.chosen[u] += 1
            self.chosen[v] += 1

    def _undo_to(self, mark: int):
        while len(self.trail) > mark:
            eid = self.trail.pop()
            u, v = self.g.edges[eid]
            if self.estate[eid] == 1:
                self.chosen[u] -= 1
                self.chosen[v] -= 1
            self.estate[eid] = 0
            self.avail[u] += 1
            self.avail[v] += 1

    # --- propagation -------------------------------------------------------

    def _propagate(self, dirty: list[int]) -> bool:
        """Fixpoint propagation from the given dirty vertices; False on
        contradiction.  A rule only decides an edge the same way every
        k-regular subgraph extending the current assignment does, so neither
        the fixpoint nor whether it is contradictory depends on queue order."""
        k = self.k
        queue = list(dirty)
        while queue:
            v = queue.pop()
            ch, av = self.chosen[v], self.avail[v]
            if ch > k or (ch > 0 and ch + av < k):
                return False
            if av == 0:
                continue
            if ch == k or ch + av < k:  # full, or out
                choice = -1
            elif ch > 0 and ch + av == k:  # in, and needs every edge left
                choice = 1
            else:
                continue
            for eid in self.inc[v]:
                if self.estate[eid] == 0:
                    self._set_edge(eid, choice)
                    u, w = self.g.edges[eid]
                    queue.append(u if u != v else w)
        return True

    def _branch(self):
        """One scan decides the node: an edge to branch on, a witness, or None."""
        k, chosen, avail = self.k, self.chosen, self.avail
        at, touched = None, False
        for v in self.vertex_order:
            ch = chosen[v]
            if ch:
                if ch < k:
                    at = v
                    break
                touched = True
            elif at is None and avail[v]:
                at = v
        else:
            if touched:  # every vertex with a chosen edge has k of them
                vs = tuple(v for v in range(self.g.n) if chosen[v])
                es = tuple(e for e, s in zip(self.g.edges, self.estate) if s == 1)
                return RegularWitness(vs, es, k)
        if at is None:
            return None
        return next(eid for eid in self.inc[at] if self.estate[eid] == 0)

    def search(self, budget: int) -> tuple[Optional[RegularWitness], int]:
        """(witness or None, nodes expanded).  Stops after budget + 1 nodes;
        the caller reads a count above budget as exhaustion."""
        pending: list[tuple[int, int, int]] = []  # (edge, trail mark, choice)
        nodes = 0
        while True:
            nodes += 1
            if nodes > budget:
                return None, nodes
            pick = self._branch()
            if isinstance(pick, RegularWitness):
                return pick, nodes
            if pick is not None:
                mark = len(self.trail)
                pending += ((pick, mark, -1), (pick, mark, 1))  # chosen first
            while True:
                if not pending:
                    return None, nodes
                eid, mark, choice = pending.pop()
                self._undo_to(mark)
                self._set_edge(eid, choice)
                if self._propagate(list(self.g.edges[eid])):
                    break


def find_k_regular(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Decide whether g has a k-regular subgraph.

    Found results carry a witness that validates under verify_witness;
    NotFound is a proof of nonexistence; BudgetExceeded (node-expansion
    limit hit) is inconclusive.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    core = k_core(g, k)
    nodes = 0
    for comp in connected_components(induced_subgraph(g, core)):
        # increasing, so the local order of vertices and edges is g's order
        verts = [core[i] for i in comp]
        sub = induced_subgraph(g, verts)
        w, used = _ComponentSearch(sub, k).search(budget - nodes)
        nodes += used
        if nodes > budget:
            return SearchResult(BUDGET_EXCEEDED, None, nodes)
        if w is not None:
            vs = tuple(verts[v] for v in w.vertices)
            es = tuple((verts[u], verts[v]) for u, v in w.edges)
            return SearchResult(FOUND, RegularWitness(vs, es, k), nodes)
    return SearchResult(NOT_FOUND, None, nodes)
