"""Simple undirected graphs on dense integer vertices, plus the structural
primitives everything else is built on: degeneracy orderings, k-cores,
independence tests, triangle search, induced subgraphs, and the shared JSON
file format.

Vertices are 0..n-1.  Edges are unordered pairs stored as (u, v) with u < v.
Graph values are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    pass


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph.

    Adjacency is kept both as sorted neighbor lists (for iteration) and as
    per-vertex bitmasks (for O(1)-ish membership and fast set intersections).
    """

    __slots__ = ("n", "edges", "adj", "adj_mask", "_edge_set")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        es = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            es.add(_norm_edge(u, v))
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(es))
        self._edge_set = frozenset(self.edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        mask = [0] * n
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self.adj_mask: tuple[int, ...] = tuple(mask)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._edge_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"

    # --- JSON file format (shared across all tools) -------------------------
    #
    # {"n": int, "layers": [int, ...] | null, "edges": [[u, v], ...]}
    # with u < v and edges sorted lexicographically.  Serialize-then-parse is
    # the identity.

    def to_json(self, layers: Optional[Sequence[int]] = None) -> str:
        doc = {
            "n": self.n,
            "layers": list(layers) if layers is not None else None,
            "edges": [[u, v] for u, v in self.edges],
        }
        return json.dumps(doc, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> tuple["Graph", Optional[list[int]]]:
        doc = json.loads(text)
        edges = [(u, v) for u, v in doc["edges"]]
        g = Graph(doc["n"], edges)
        if g.num_edges != len(edges):
            raise GraphError("duplicate edges in input")
        layers = doc.get("layers")
        if layers is not None:
            layers = [int(s) for s in layers]
            if sum(layers) != g.n:
                raise GraphError("layer sizes do not sum to vertex count")
        return g, layers


@dataclass(frozen=True)
class VertexOrdering:
    """A permutation of 0..n-1 such that every vertex has at most
    back_degree_bound neighbors among its predecessors."""

    order: tuple[int, ...]
    back_degree_bound: int
    position: dict[int, int] = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise GraphError("ordering is not a permutation")
        object.__setattr__(
            self, "position", {v: i for i, v in enumerate(self.order)}
        )

    def verify(self, g: Graph) -> bool:
        """Independent scan: check the back-degree bound really holds."""
        pos = self.position
        for v in self.order:
            back = sum(1 for u in g.adj[v] if pos[u] < pos[v])
            if back > self.back_degree_bound:
                return False
        return True


def degeneracy(g: Graph) -> tuple[int, VertexOrdering]:
    """Degeneracy and a witnessing ordering.

    Repeatedly deletes a minimum-degree vertex (ties: lowest index) and
    reverses the deletion order; the degeneracy is the maximum degree seen
    at deletion time.  Empty graph: (0, empty ordering).
    """
    n = g.n
    deg = [len(g.adj[v]) for v in range(n)]
    removed = [False] * n
    # bucket queue over degrees
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
    return d, VertexOrdering(order=tuple(reversed(deletion)), back_degree_bound=d)


def k_core(g: Graph, k: int) -> list[int]:
    """The unique maximal vertex set inducing minimum degree >= k (may be [])."""
    if k < 0:
        raise GraphError("k must be nonnegative")
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


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in s."""
    mask = 0
    for v in s:
        mask |= 1 << v
    v = mask
    while v:
        low = v & -v
        idx = low.bit_length() - 1
        if g.adj_mask[idx] & mask:
            return False
        v ^= low
    return True


def find_triangle(g: Graph) -> Optional[tuple[int, int, int]]:
    """Some triangle as a sorted triple, or None."""
    for u, v in g.edges:
        common = g.adj_mask[u] & g.adj_mask[v]
        if common:
            w = (common & -common).bit_length() - 1
            return tuple(sorted((u, v, w)))
    return None


def induced_subgraph(g: Graph, s: Sequence[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on s, reindexed 0..|s|-1, plus the index map
    (new index -> original vertex).  s must be strictly increasing."""
    s = list(s)
    if any(not (0 <= v < g.n) for v in s):
        raise GraphError("vertex out of range")
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise GraphError("vertex set must be strictly increasing")
    back = {v: i for i, v in enumerate(s)}
    in_s = set(s)
    edges = [
        (back[u], back[v]) for u, v in g.edges if u in in_s and v in in_s
    ]
    return Graph(len(s), edges), s


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


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
