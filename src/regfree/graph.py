"""Simple undirected graphs on dense integer vertices, plus the structural
primitives everything else is built on: degeneracy orderings, k-cores,
independence tests, triangle search, induced subgraphs, connected
components, and the shared JSON file format.

Vertices are 0..n-1.  Edges are unordered pairs stored as (u, v) with u < v.
A graph keeps its sorted edge tuple and sorted neighbour lists, so memory
grows with n + m.  Graph values are immutable and safe to share.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    pass


def _json_int(x, what: str) -> int:
    # exact type: JSON true/false load as bool, an int subclass
    if type(x) is not int:
        raise GraphError(f"{what} must be an integer, got {json.dumps(x)}")
    return x


def _json_list(x, what: str) -> list:
    if type(x) is not list:
        raise GraphError(f"{what} must be a list, got {json.dumps(x)}")
    return x


class Graph:
    """Immutable simple graph: the sorted edge tuple plus sorted neighbour
    lists, which also answer has_edge."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        es = []
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            es.append((u, v) if u < v else (v, u))
        # linear on the sorted input most callers pass; duplicates end up
        # adjacent
        es.sort()
        self.edges: tuple[tuple[int, int], ...] = tuple(
            [e for e, prev in zip(es, [None] + es) if e != prev]
        )
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # already sorted: each (u, v) with u < v comes before every (v, w)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in adj)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        # the range check keeps a negative u from indexing from the end
        return 0 <= u < self.n and v in self.adj[u]

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
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"graph file is not valid JSON: {exc}") from None
        if type(doc) is not dict:
            raise GraphError("a graph must be a JSON object")
        for k in ("n", "edges"):
            if k not in doc:
                raise GraphError(f"graph JSON has no {k!r}")
        edges = []
        for e in _json_list(doc["edges"], "edges"):
            if type(e) is not list or len(e) != 2:
                raise GraphError(f"an edge must be a pair [u, v], got {json.dumps(e)}")
            edges.append(tuple(_json_int(x, "an edge endpoint") for x in e))
        g = Graph(_json_int(doc["n"], "n"), edges)
        if g.num_edges != len(edges):
            raise GraphError("duplicate edges in input")
        layers = doc.get("layers")
        if layers is not None:
            layers = [_json_int(s, "a layer size") for s in _json_list(layers, "layers")]
            if sum(layers) != g.n:
                raise GraphError("layer sizes do not sum to vertex count")
        return g, layers


@dataclass(frozen=True)
class VertexOrdering:
    """A permutation of 0..n-1 such that every vertex has at most
    back_degree_bound neighbors among its predecessors."""

    order: tuple[int, ...]
    back_degree_bound: int
    position: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise GraphError("ordering is not a permutation")
        object.__setattr__(
            self, "position", {v: i for i, v in enumerate(self.order)}
        )

    def verify(self, g: Graph) -> bool:
        """Independent scan: check the back-degree bound really holds.  An
        ordering of a different number of vertices than g has is False."""
        pos = self.position
        return len(self.order) == g.n and all(
            sum(1 for u in g.adj[v] if pos[u] < pos[v]) <= self.back_degree_bound
            for v in self.order
        )


def _peel(g: Graph) -> tuple[list[int], list[int]]:
    """Min-degree peel (Batagelj & Zaversnik 2003): delete a vertex of least
    remaining degree, ties to the lowest index, until none is left.

    Returns the deletion order and each vertex's core number, the largest
    degree seen at a deletion up to and including its own.  A lazy heap of
    (degree, vertex) holds an entry per degree change; entries whose degree
    is no longer current are skipped when popped.
    """
    deg = [len(a) for a in g.adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * g.n
    order: list[int] = []
    core = [0] * g.n
    top = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        top = max(top, d)
        core[v] = top
        for u in g.adj[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return order, core


def degeneracy(g: Graph) -> tuple[int, VertexOrdering]:
    """Degeneracy and a witnessing ordering: the min-degree peel's deletion
    order reversed, so every vertex has at most the degeneracy of neighbours
    before it, and the degeneracy is the largest core number.  Empty graph:
    (0, empty ordering).
    """
    order, core = _peel(g)
    d = max(core, default=0)
    return d, VertexOrdering(order=tuple(reversed(order)), back_degree_bound=d)


def k_core(g: Graph, k: int) -> list[int]:
    """The unique maximal vertex set inducing minimum degree >= k (may be
    []): the vertices whose core number is at least k, in increasing order."""
    if k < 0:
        raise GraphError("k must be nonnegative")
    _, core = _peel(g)
    return [v for v in range(g.n) if core[v] >= k]


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in s."""
    return not any(g.has_edge(u, v) for u, v in itertools.combinations(set(s), 2))


def find_triangle(g: Graph) -> Optional[tuple[int, int, int]]:
    """The first edge in sorted order with a common neighbour, closed by its
    smallest common neighbour, as a sorted triple; None if triangle-free."""
    nbrs = [set(a) for a in g.adj]
    for u, v in g.edges:
        common = nbrs[u] & nbrs[v]
        if common:
            return tuple(sorted((u, v, min(common))))
    return None


def induced_subgraph(g: Graph, s: Sequence[int]) -> Graph:
    """Induced subgraph on s, reindexed so new vertex i is s[i].  s must be
    strictly increasing."""
    s = list(s)
    if any(not (0 <= v < g.n) for v in s):
        raise GraphError("vertex out of range")
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise GraphError("vertex set must be strictly increasing")
    back = {v: i for i, v in enumerate(s)}
    edges = [(back[u], back[v]) for u, v in g.edges if u in back and v in back]
    return Graph(len(s), edges)


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

