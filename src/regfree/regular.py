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

Branching is fail-first: complete the vertex in the subgraph with the
fewest spare edges, along the edge that closes most of what is chosen.
DFS from one fixed order has heavy-tailed run lengths, so the search
restarts on Luby's schedule (Luby, Sinclair & Zuckerman 1993): run i stops
after RESTART_UNIT * luby(i) nodes, and each later run redraws the order
among ties from a fixed-seed generator, so every result is reproducible.
Runs grow without bound, so a run that exhausts its tree always comes, and
only such a run reports NotFound.  On the bipartite variant of
256,64,16,4 every seed 0-11 finds a witness in 80-4,902 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import Graph, connected_components, induced_subgraph, k_core
from .rng import SplitMix64

FOUND = "found"
NOT_FOUND = "not_found"
BUDGET_EXCEEDED = "budget_exceeded"

# search nodes: k = 3 on the 340-vertex ladder 256,64,16,4 finds a witness in
# 569-3,255 nodes on seeds 0-5; an undecided search (k = 4 on 48,24,12,6,3
# seed 1 or 64,32,16,8,4 seed 0) uses up the default in about 4-6 s, at
# 16,000-28,000 nodes/s on one 2-vCPU core
DEFAULT_BUDGET = 100_000

# restarts: run i of a component's search stops after RESTART_UNIT * luby(i)
# nodes, and every run after the first draws its ties from one generator
RESTART_UNIT = 32
RESTART_SEED = 0


def _luby(i: int) -> int:
    """The i-th term, from 1, of Luby's sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while True:
        b = i.bit_length()
        if i == (1 << b) - 1:
            return 1 << (b - 1)
        i -= (1 << (b - 1)) - 1


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
    # exact type: a float or bool k would name a different question
    if type(w.k) is not int or w.k < 1 or not w.vertices:
        return False
    vs = set(w.vertices)
    if len(vs) != len(w.vertices) or not all(0 <= v < g.n for v in vs):
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

    Edge eid joins head[eid] and tail[eid]; inc[v] lists v's incident edges
    as (edge id, other end) pairs.  A vertex's state is read from two
    counts: chosen[v], its chosen edges, and avail[v], its undecided ones.
    The trail lists the edges decided since the root, so backtracking is
    undoing them in reverse.  _decide makes one branch decision and runs
    propagation to its fixpoint in a single loop.

    Nodes are propagation fixpoints, so a vertex with 0 < chosen < k has
    more than k - chosen undecided edges.  Without one, any chosen edges
    form a witness.  vertex_order (ascending degree) and the order of each
    inc[v] break the ties of _branch; _redraw draws them anew between runs.
    """

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        n = g.n
        self.head = [u for u, _ in g.edges]
        self.tail = [v for _, v in g.edges]
        self.inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(g.edges):
            self.inc[u].append((eid, v))
            self.inc[v].append((eid, u))
        self.estate = [0] * len(g.edges)  # 0 undecided, 1 chosen, -1 forbidden
        self.chosen = [0] * n
        self.avail = [len(self.inc[v]) for v in range(n)]
        self.trail: list[int] = []
        # ties by index in the first run (a stable sort), redrawn later
        self.vertex_order = sorted(range(n), key=lambda v: len(g.adj[v]))

    def _undo_to(self, mark: int):
        trail, estate = self.trail, self.estate
        head, tail, chosen, avail = self.head, self.tail, self.chosen, self.avail
        for eid in reversed(trail[mark:]):
            u, v = head[eid], tail[eid]
            if estate[eid] == 1:
                chosen[u] -= 1
                chosen[v] -= 1
            estate[eid] = 0
            avail[u] += 1
            avail[v] += 1
        del trail[mark:]

    def _decide(self, eid: int, choice: int) -> bool:
        """Set edge eid to choice (1 chosen, -1 forbidden), then propagate to
        a fixpoint; False on contradiction.  A rule only decides an edge the
        same way every k-regular subgraph extending the current assignment
        does, so neither the fixpoint nor whether it is contradictory
        depends on queue order."""
        k, estate, chosen, avail = self.k, self.estate, self.chosen, self.avail
        inc, trail = self.inc, self.trail
        u, v = self.head[eid], self.tail[eid]
        trail.append(eid)
        estate[eid] = choice
        avail[u] -= 1
        avail[v] -= 1
        if choice == 1:
            chosen[u] += 1
            chosen[v] += 1
        queue = [u, v]
        pop, push, record = queue.pop, queue.append, trail.append
        while queue:
            x = pop()
            ch, av = chosen[x], avail[x]
            if not av:  # every edge decided: x must be out or full
                if ch and ch != k:
                    return False
                continue
            if ch:  # in
                if ch > k or ch + av < k:
                    return False
                if ch == k:  # full: forbid the rest
                    choice = -1
                elif ch + av == k:  # needs every edge left
                    choice = 1
                else:
                    continue
            elif av < k:  # out: forbid the rest
                choice = -1
            else:
                continue
            if choice < 0:
                for eid, y in inc[x]:
                    if estate[eid] == 0:
                        record(eid)
                        estate[eid] = -1
                        avail[y] -= 1
                        push(y)
            else:
                for eid, y in inc[x]:
                    if estate[eid] == 0:
                        record(eid)
                        estate[eid] = 1
                        avail[y] -= 1
                        chosen[y] += 1
                        push(y)
                chosen[x] = k
            avail[x] = 0
        return True

    def _branch(self):
        """One scan decides the node: an edge to branch on, a witness, or None.

        The branch vertex is the committed one (0 < chosen < k) with the
        fewest spare edges, avail - (k - chosen); at a fixpoint no vertex
        has fewer than 1, so the scan stops at the first with 1.  With none
        committed it is the first vertex in vertex_order with an undecided
        edge.  The branch edge closes what is chosen: its other end has the
        most committed neighbours across undecided edges."""
        k, chosen, avail, estate = self.k, self.chosen, self.avail, self.estate
        at, spare, free, touched = None, None, None, False
        for v in self.vertex_order:
            ch = chosen[v]
            if ch:
                if ch < k:
                    s = avail[v] + ch - k
                    if at is None or s < spare:
                        at, spare = v, s
                        if s == 1:
                            break
                else:
                    touched = True
            elif free is None and avail[v]:
                free = v
        if at is None:
            if touched:  # every vertex with a chosen edge has k of them
                vs = tuple(v for v in range(self.g.n) if chosen[v])
                es = tuple(e for e, s in zip(self.g.edges, estate) if s == 1)
                return RegularWitness(vs, es, k)
            if free is None:
                return None
            at = free
        inc = self.inc
        pick, most = None, -1
        for eid, y in inc[at]:
            if estate[eid] == 0:
                near = sum(1 for e, z in inc[y] if chosen[z] and estate[e] == 0)
                if near > most:
                    pick, most = eid, near
        return pick

    def _redraw(self, rng: SplitMix64):
        """New ties for the next run: one key per vertex orders equal degrees
        in vertex_order and each vertex's incidences by their other end."""
        n, adj = self.g.n, self.g.adj
        key = [rng.next_u64() for _ in range(n)]
        order = sorted(range(n), key=key.__getitem__)
        self.vertex_order = sorted(order, key=lambda v: len(adj[v]))  # stable
        inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for y in order:
            for eid, x in self.inc[y]:
                inc[x].append((eid, y))
        self.inc = inc

    def search(self, budget: int) -> tuple[Optional[RegularWitness], int]:
        """(witness or None, nodes expanded).  Run i of the DFS stops after
        RESTART_UNIT * luby(i) nodes, undoes to the root and starts again on
        redrawn ties; None comes only from a run that exhausted its tree.
        Stops after budget + 1 nodes over all runs; the caller reads a count
        above budget as exhaustion."""
        rng = SplitMix64(RESTART_SEED)
        nodes = run = 0
        while True:
            run += 1
            limit = nodes + RESTART_UNIT * _luby(run)
            pending: list[tuple[int, int, int]] = []  # (edge, trail mark, choice)
            while nodes < limit:
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
                    if self._decide(eid, choice):
                        break
            self._undo_to(0)  # the run hit its limit
            self._redraw(rng)


def find_k_regular(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Decide whether g has a k-regular subgraph.

    Found results carry a witness that validates under verify_witness;
    NotFound is a proof of nonexistence; BudgetExceeded (node-expansion
    limit hit) is inconclusive.
    """
    for name, x in (("k", k), ("budget", budget)):
        # exact type: a bool is an int subclass
        if type(x) is not int:
            raise ValueError(f"{name} must be an integer, got {x!r}")
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
