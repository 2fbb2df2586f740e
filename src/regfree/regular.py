"""Exact k-regular subgraph detection with verifiable witnesses.

A k-regular subgraph is a nonempty vertex set plus an edge subset in which
every chosen vertex is incident to exactly k chosen edges.  The search is
exact: NotFound means a complete search proved nonexistence.

Pipeline: restrict to the k-core (any k-regular subgraph lives inside it),
split into connected components, then DFS over edge assignments with
constraint propagation.  Vertex states: undecided / in / out; edge states:
undecided / chosen / forbidden.  A vertex that cannot reach k available
edges is excluded and the exclusion cascades, which is what collapses the
layered construction instantly (its 4-core is empty).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import Graph, connected_components, induced_subgraph, k_core

FOUND = "found"
NOT_FOUND = "not_found"
BUDGET_EXCEEDED = "budget_exceeded"

# search nodes: the k = 3 search on the 340-vertex ladder 256,64,16,4 expands
# 6,000-8,000 nodes/s on one 2-vCPU core, so the default stops in about 15 s
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


# vertex states
_UNDEC, _IN, _OUT = 0, 1, -1


class _ComponentSearch:
    """DFS with propagation on one connected component (local indices)."""

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        n = g.n
        self.inc: list[list[int]] = [[] for _ in range(n)]  # vertex -> edge ids
        for eid, (u, v) in enumerate(g.edges):
            self.inc[u].append(eid)
            self.inc[v].append(eid)
        self.vstate = [_UNDEC] * n
        self.estate = [0] * len(g.edges)  # 0 undecided, 1 chosen, -1 forbidden
        self.chosen = [0] * n
        self.avail = [len(self.inc[v]) for v in range(n)]
        self.trail: list[tuple[str, int]] = []
        # branch order: edges of high-degree vertices first
        self.vertex_order = sorted(range(n), key=lambda v: (-len(g.adj[v]), v))

    # --- trail-based state changes ---------------------------------------

    def _set_vstate(self, v: int, s: int):
        self.trail.append(("v", v))
        self.vstate[v] = s

    def _set_edge(self, eid: int, s: int):
        self.trail.append(("e", eid))
        self.estate[eid] = s
        u, v = self.g.edges[eid]
        self.avail[u] -= 1
        self.avail[v] -= 1
        if s == 1:
            self.chosen[u] += 1
            self.chosen[v] += 1

    def _undo_to(self, mark: int):
        while len(self.trail) > mark:
            kind, idx = self.trail.pop()
            if kind == "v":
                self.vstate[idx] = _UNDEC
            else:
                u, v = self.g.edges[idx]
                if self.estate[idx] == 1:
                    self.chosen[u] -= 1
                    self.chosen[v] -= 1
                self.estate[idx] = 0
                self.avail[u] += 1
                self.avail[v] += 1

    # --- propagation -------------------------------------------------------

    def _propagate(self, dirty: list[int]) -> bool:
        """Fixpoint propagation from the given dirty vertices; False on
        contradiction."""
        k = self.k
        queue = list(dirty)
        while queue:
            v = queue.pop()
            st = self.vstate[v]
            ch, av = self.chosen[v], self.avail[v]
            if st == _OUT:
                if ch > 0:
                    return False
                for eid in self.inc[v]:
                    if self.estate[eid] == 0:
                        self._set_edge(eid, -1)
                        u, w = self.g.edges[eid]
                        queue.append(u if u != v else w)
                continue
            if st == _UNDEC:
                if ch > 0:
                    self._set_vstate(v, _IN)
                    st = _IN
                elif ch + av < k:
                    self._set_vstate(v, _OUT)
                    queue.append(v)
                    continue
                else:
                    continue
            # st == _IN
            if ch > k or ch + av < k:
                return False
            if ch == k and av > 0:
                for eid in self.inc[v]:
                    if self.estate[eid] == 0:
                        self._set_edge(eid, -1)
                        u, w = self.g.edges[eid]
                        queue.append(u if u != v else w)
            elif ch + av == k and av > 0:
                for eid in self.inc[v]:
                    if self.estate[eid] == 0:
                        self._set_edge(eid, 1)
                        u, w = self.g.edges[eid]
                        other = u if u != v else w
                        if self.vstate[other] == _OUT:
                            return False
                        queue.append(other)
                        queue.append(v)
        return True

    def _witness_here(self) -> Optional[RegularWitness]:
        """A valid witness exists in the current partial assignment iff every
        vertex touched by a chosen edge already has exactly k chosen edges."""
        touched = [v for v in range(self.g.n) if self.chosen[v] > 0]
        if not touched:
            return None
        if all(self.chosen[v] == self.k for v in touched):
            vs = set(touched)
            es = tuple(
                self.g.edges[eid]
                for eid in range(len(self.estate))
                if self.estate[eid] == 1
            )
            return RegularWitness(tuple(sorted(vs)), es, self.k)
        return None

    def _pick_branch_edge(self) -> Optional[int]:
        # prefer completing a committed vertex, then descending degree
        for v in self.vertex_order:
            if self.vstate[v] == _IN and self.chosen[v] < self.k:
                for eid in self.inc[v]:
                    if self.estate[eid] == 0:
                        return eid
        for v in self.vertex_order:
            if self.vstate[v] == _UNDEC:
                for eid in self.inc[v]:
                    if self.estate[eid] == 0:
                        return eid
        return None

    def search(self, budget: int) -> tuple[Optional[RegularWitness], int]:
        """(witness or None, nodes expanded).  Stops after budget + 1 nodes;
        the caller reads a count above budget as exhaustion."""
        pending: list[tuple[int, int, int]] = []  # (edge, trail mark, choice)
        nodes = 0
        while True:
            nodes += 1
            if nodes > budget:
                return None, nodes
            w = self._witness_here()
            if w is not None:
                return w, nodes
            eid = self._pick_branch_edge()
            if eid is not None:
                mark = len(self.trail)
                pending.append((eid, mark, -1))
                pending.append((eid, mark, 1))  # chosen is tried first
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
    if not core:
        return SearchResult(NOT_FOUND, None, 0)
    core_g, core_map = induced_subgraph(g, core)
    nodes = 0
    for comp in connected_components(core_g):
        comp_g, comp_map = induced_subgraph(core_g, comp)
        w, used = _ComponentSearch(comp_g, k).search(budget - nodes)
        nodes += used
        if nodes > budget:
            return SearchResult(BUDGET_EXCEEDED, None, nodes)
        if w is not None:
            to_orig = [core_map[comp_map[i]] for i in range(comp_g.n)]
            vs = tuple(sorted(to_orig[v] for v in w.vertices))
            es = tuple(
                sorted(
                    tuple(sorted((to_orig[u], to_orig[v])))
                    for u, v in w.edges
                )
            )
            return SearchResult(FOUND, RegularWitness(vs, es, k), nodes)
    return SearchResult(NOT_FOUND, None, nodes)
