"""Shared fixtures: named graphs, seeded random graphs, brute-force oracles
kept deliberately independent of the library's algorithms (a reference
Fraction-tableau simplex and the chi_f oracle on it among them), the
library's earlier peels, Goldberg network (the network runs on the
library's max_flow) and per-edge detector kernel, a Dinic reference for
max_flow, and an exact chromatic number for small graphs."""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
from collections import deque
from fractions import Fraction
from typing import Optional

from regfree.density import DensityReport
from regfree.flow import FlowNetwork
from regfree.graph import Graph


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def grotzsch_graph() -> Graph:
    """The Mycielskian of C_5: triangle-free, chromatic number 4, chi_f
    29/10.  Vertices 0-4 are the cycle, 5 + i copies i's neighbourhood, and
    10 is joined to every copy."""
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    copies = [(5 + i, (i + s) % 5) for i in range(5) for s in (1, 4)]
    hub = [(5 + i, 10) for i in range(5)]
    return Graph(11, cycle + copies + hub)


def cube_graph() -> Graph:
    """Q_3: vertices are 3-bit strings, edges flip one bit."""
    edges = [
        (u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)
    ]
    return Graph(8, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, [*a.edges, *((u + a.n, v + a.n) for u, v in b.edges)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


@contextlib.contextmanager
def shallow_stack(headroom: int = 40):
    """Lower the recursion limit to the current stack depth plus headroom,
    so a search whose depth grows with its input raises RecursionError."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


# --- brute-force oracles ---------------------------------------------------


def adjacency_masks(g: Graph) -> list[int]:
    """Per-vertex neighbourhoods as n-bit masks."""
    return [sum(1 << u for u in g.adj[v]) for v in range(g.n)]


def max_degree(g: Graph) -> int:
    return max((len(a) for a in g.adj), default=0)


def is_bipartite(g: Graph) -> bool:
    """BFS 2-coloring check."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in g.adj[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def brute_degeneracy(g: Graph) -> int:
    """Least t such that every induced subgraph has a vertex of degree <= t,
    by scanning all vertex subsets."""
    adj = adjacency_masks(g)
    worst = 0
    for mask in range(1, 1 << g.n):
        min_deg = min(
            (adj[v] & mask).bit_count()
            for v in range(g.n)
            if mask >> v & 1
        )
        worst = max(worst, min_deg)
    return worst


def brute_k_core(g: Graph, k: int) -> list[int]:
    """Maximal subset inducing min degree >= k, over all subsets."""
    adj = adjacency_masks(g)
    best = 0
    for mask in range(1 << g.n):
        if mask and any(
            (adj[v] & mask).bit_count() < k
            for v in range(g.n)
            if mask >> v & 1
        ):
            continue
        if mask.bit_count() > best.bit_count():
            best = mask
    return [v for v in range(g.n) if best >> v & 1]


def reference_degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(degeneracy, ordering) by a bucket-queue peel: delete a minimum-degree
    vertex (ties: lowest index) until none is left, and reverse the deletion
    order.  The library's earlier implementation, kept as an oracle."""
    n = g.n
    deg = [len(g.adj[v]) for v in range(n)]
    removed = [False] * n
    buckets: list[set[int]] = [set() for _ in range(n + 1)]
    for v in range(n):
        buckets[deg[v]].add(v)
    deletion: list[int] = []
    d = 0
    cur = 0
    for _ in range(n):
        while cur <= n and not buckets[cur]:
            cur += 1
        v = min(buckets[cur])
        buckets[cur].remove(v)
        removed[v] = True
        d = max(d, deg[v])
        deletion.append(v)
        for u in g.adj[v]:
            if not removed[u]:
                buckets[deg[u]].remove(u)
                deg[u] -= 1
                buckets[deg[u]].add(u)
        cur = max(cur - 1, 0)
    return d, tuple(reversed(deletion))


def reference_k_core(g: Graph, k: int) -> list[int]:
    """The k-core by a stack peel of every vertex whose degree drops below
    k.  The library's earlier implementation, kept as an oracle."""
    deg = [len(g.adj[v]) for v in range(g.n)]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if deg[v] < k]
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for u in g.adj[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] < k:
                    stack.append(u)
    return [v for v in range(g.n) if alive[v]]


class ReferenceKernel:
    """The k-regular detector's per-edge kernel: set_edge, propagate and
    undo_to, with one method call and one g.edges lookup per edge decision.
    The library's earlier implementation, kept as an oracle; its state
    (estate, chosen, avail, trail) is laid out as _ComponentSearch's."""

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        self.inc: list[list[int]] = [[] for _ in range(g.n)]  # vertex -> edge ids
        for eid, (u, v) in enumerate(g.edges):
            self.inc[u].append(eid)
            self.inc[v].append(eid)
        self.estate = [0] * len(g.edges)  # 0 undecided, 1 chosen, -1 forbidden
        self.chosen = [0] * g.n
        self.avail = [len(self.inc[v]) for v in range(g.n)]
        self.trail: list[int] = []

    def set_edge(self, eid: int, s: int):
        self.trail.append(eid)
        self.estate[eid] = s
        u, v = self.g.edges[eid]
        self.avail[u] -= 1
        self.avail[v] -= 1
        if s == 1:
            self.chosen[u] += 1
            self.chosen[v] += 1

    def undo_to(self, mark: int):
        while len(self.trail) > mark:
            eid = self.trail.pop()
            u, v = self.g.edges[eid]
            if self.estate[eid] == 1:
                self.chosen[u] -= 1
                self.chosen[v] -= 1
            self.estate[eid] = 0
            self.avail[u] += 1
            self.avail[v] += 1

    def propagate(self, dirty: list[int]) -> bool:
        """Fixpoint propagation from the given dirty vertices; False on
        contradiction."""
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
                    self.set_edge(eid, choice)
                    u, w = self.g.edges[eid]
                    queue.append(u if u != v else w)
        return True

    def decide(self, eid: int, s: int) -> bool:
        """One branch decision as the search made it: set, then propagate
        from both ends."""
        self.set_edge(eid, s)
        return self.propagate(list(self.g.edges[eid]))


def reference_levels(net: FlowNetwork, s: int) -> list[int]:
    level = [-1] * net.n
    level[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        for a in net.head[u]:
            v = net.to[a]
            if net.cap[a] > 0 and level[v] < 0:
                level[v] = level[u] + 1
                q.append(v)
    return level


def dinic_reference(net: FlowNetwork, s: int, t: int) -> tuple[int, list[int]]:
    """Dinic on net's arrays, an oracle for max_flow's augmenting paths on
    distance labels: a full BFS per phase, a DFS that tests every arc of a
    node for capacity and level, a restart from s after each augmentation,
    and a fresh BFS for the cut.  Returns (max flow, source side of the
    minimal minimum cut) and leaves the residual in net.cap."""
    head, to, cap = net.head, net.to, net.cap
    flow = 0
    while True:
        level = reference_levels(net, s)
        if level[t] < 0:
            return flow, [v for v, d in enumerate(level) if d >= 0]
        it = [0] * net.n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                d = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= d
                    cap[a ^ 1] += d
                flow += d
                path.clear()
                u = s
                continue
            arcs, i = head[u], it[u]
            while i < len(arcs):
                a = arcs[i]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    break
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(a)
                u = to[a]
            elif path:
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break


def brute_triangle_exists(g: Graph) -> bool:
    return any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in itertools.combinations(range(g.n), 3)
    )


def subset_scan(g: Graph, weights=None):
    """Yield (mask, vertex list, induced edge count, total weight) for every
    nonempty vertex subset.  Integer weights only (pre-scale rationals)."""
    adj = adjacency_masks(g)
    for mask in range(1, 1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        e = sum((adj[v] & mask).bit_count() for v in vs) // 2
        w = sum(weights[v] for v in vs) if weights is not None else None
        yield mask, vs, e, w


def brute_max_density(g: Graph) -> Fraction:
    best = Fraction(0)
    for _, vs, e, _ in subset_scan(g):
        best = max(best, Fraction(e, len(vs)))
    return best


def goldberg_reference(
    g: Graph, candidates: Optional[list] = None
) -> DensityReport:
    """Maximum-density subgraph on Goldberg's full-capacity network: every
    vertex has s->v of capacity m*b and v->t of capacity m*b + 2a - deg*b,
    and a round finds no denser set when the flow reaches m*n*b.  Every
    round runs on all of g, and each candidate set is appended to
    candidates if given.  The library's earlier network, kept as an oracle
    for the reduced one."""
    m, n = g.num_edges, g.n
    best_set, e = list(range(n)), m
    rounds = 0
    while True:
        best = Fraction(e, len(best_set))
        a, b = best.numerator, best.denominator
        net = FlowNetwork(n + 2)
        s, t = n, n + 1
        for v in range(n):
            net.add_edge(s, v, m * b)
            net.add_edge(v, t, m * b + 2 * a - g.degree(v) * b)
        for u, v in g.edges:
            net.add_edge(u, v, b, b)
        rounds += 1
        if net.max_flow(s, t) >= m * n * b:
            return DensityReport(tuple(best_set), e, best, rounds)
        best_set = [v for v in net.min_cut_source_side(s) if v < n]
        if candidates is not None:
            candidates.append(best_set)
        inside = set(best_set)
        e = sum(1 for u, v in g.edges if u in inside and v in inside)


def brute_mwis(g: Graph, w: dict[int, Fraction]):
    """(best weight, lexicographically smallest argmax as sorted tuple)."""
    adj = adjacency_masks(g)
    best = Fraction(0)
    best_set: tuple = ()
    for mask in range(1 << g.n):
        vs = tuple(v for v in range(g.n) if mask >> v & 1)
        if any(adj[v] & mask for v in vs):
            continue
        wt = sum((w[v] for v in vs), Fraction(0))
        if wt > best or (wt == best and vs < best_set):
            best, best_set = wt, vs
    return best, best_set


def reference_solve_max(A, b, c):
    """max c.x s.t. A x <= b, x >= 0 (b >= 0) by a Fraction tableau with
    Bland's rule, from the all-slack basis.  Returns (value, x, duals),
    the duals read off the slack columns, or None when unbounded."""
    m, n = len(A), len(c)
    zero = Fraction(0)
    # columns: 0..n-1 structural, n..n+m-1 slack; last column is b
    tab = [
        [Fraction(A[i][j]) for j in range(n)]
        + [Fraction(1) if r == i else zero for r in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    obj = [Fraction(c[j]) for j in range(n)] + [zero] * m + [zero]
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return None
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * p for a, p in zip(tab[i], tab[leave])]
        f = obj[enter]
        obj = [a - f * p for a, p in zip(obj, tab[leave])]
        basis[leave] = enter
    x = [zero] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    value = sum((Fraction(c[j]) * x[j] for j in range(n)), zero)
    return value, x, [-obj[n + i] for i in range(m)]


def chi_f_oracle(g: Graph) -> Fraction:
    """chi_f by the covering LP over every maximal independent set (full
    column enumeration), solved through its packing dual by the reference
    simplex.  A cover can move each set's weight onto a maximal superset,
    so the optimum over all independent sets is the same."""
    adj = adjacency_masks(g)
    cols = [
        mask
        for mask in range(1, 1 << g.n)
        if not any(mask >> v & 1 and adj[v] & mask for v in range(g.n))
        and all(mask >> v & 1 or adj[v] & mask for v in range(g.n))
    ]
    a = [[mask >> v & 1 for v in range(g.n)] for mask in cols]
    value, _, _ = reference_solve_max(a, [1] * len(cols), [1] * g.n)
    return value


def brute_k_regular_exists(g: Graph, k: int) -> bool:
    """Exhaustive enumeration over (vertex subset, edge subset) pairs,
    organized as per-vertex exact-degree selection."""
    adj = adjacency_masks(g)
    for mask in range(1, 1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if len(vs) < k + 1:
            continue
        if any((adj[v] & mask).bit_count() < k for v in vs):
            continue
        if _has_k_factor(g, vs, k):
            return True
    return False


def _has_k_factor(g: Graph, vs: list[int], k: int) -> bool:
    """Does G[vs] admit a spanning k-regular edge subset?  Backtracking over
    each vertex's choice of forward edges."""
    index = {v: i for i, v in enumerate(vs)}
    fwd = [
        [index[u] for u in g.adj[v] if u in index and index[u] > i]
        for i, v in enumerate(vs)
    ]
    need = [k] * len(vs)

    def place(i: int) -> bool:
        if i == len(vs):
            return True
        want = need[i]
        if want < 0:
            return False
        options = [j for j in fwd[i] if need[j] > 0]
        if want > len(options):
            return False
        for combo in itertools.combinations(options, want):
            for j in combo:
                need[j] -= 1
            if place(i + 1):
                for j in combo:
                    need[j] += 1
                return True
            for j in combo:
                need[j] += 1
        return False

    return place(0)


# --- exact chromatic number ------------------------------------------------


class SizeLimit(ValueError):
    pass


def _greedy_coloring(g: Graph) -> int:
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    color: dict[int, int] = {}
    used = 0
    for v in order:
        taken = {color[u] for u in g.adj[v] if u in color}
        c = next(i for i in range(used + 1) if i not in taken)
        color[v] = c
        used = max(used, c + 1)
    return used


def _greedy_clique(g: Graph) -> int:
    adj = adjacency_masks(g)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique_mask = 0
    size = 0
    for v in order:
        if (adj[v] & clique_mask) == clique_mask:
            clique_mask |= 1 << v
            size += 1
    return size


def _k_colorable(g: Graph, k: int) -> bool:
    n = g.n
    color = [-1] * n

    def pick() -> Optional[int]:
        best_v, best_key = None, None
        for v in range(n):
            if color[v] != -1:
                continue
            sat = len({color[u] for u in g.adj[v] if color[u] != -1})
            key = (-sat, -g.degree(v), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    def rec(colored: int, maxc: int) -> bool:
        if colored == n:
            return True
        v = pick()
        taken = {color[u] for u in g.adj[v] if color[u] != -1}
        for c in range(min(k, maxc + 1)):
            if c in taken:
                continue
            color[v] = c
            if rec(colored + 1, max(maxc, c + 1)):
                return True
            color[v] = -1
        return False

    return rec(0, 0)


def chromatic_number_exact(g: Graph, max_vertices: int = 64) -> int:
    """Exact chromatic number by branch and bound (small graphs only), for
    the sanity check chi(G) >= ceil(chi_f(G))."""
    if g.n > max_vertices:
        raise SizeLimit(f"graph has {g.n} > {max_vertices} vertices")
    if g.n == 0:
        return 0
    ub = _greedy_coloring(g)
    lb = max(_greedy_clique(g), 1)
    for k in range(lb, ub):
        if _k_colorable(g, k):
            return k
    return ub
