"""The layered random construction.

Layers B_1..B_C occupy contiguous index blocks starting at 0, in order.
Each vertex of layer i picks one uniform neighbor in every later layer j,
so e(G) = sum |B_i| * (C - i) deterministically; the randomness only moves
the edges around.  Layer sizes shrink geometrically.

explicit_params takes an arbitrary non-increasing ladder of sizes; build
draws the graph from it.  The paper's asymptotic sizing
|B_i| = n^(1-20^i*eps) is only usable in log space, so it lives with the
inequality replay in bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest

from .graph import Graph
from .rng import SplitMix64


class ParamError(ValueError):
    pass


class EmptyLayers(ParamError):
    pass


def check_ladder(sizes) -> None:
    """Raise ParamError unless |B_1| >= ... >= |B_C| >= 1 with C >= 1."""
    if not sizes:
        raise EmptyLayers("need at least one layer")
    for s in sizes:
        # exact type: a bool is an int subclass
        if type(s) is not int:
            raise ParamError(f"layer sizes must be integers, got {s!r}")
    if any(s < 1 for s in sizes):
        raise ParamError("layer sizes must be positive")
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise ParamError("layer sizes must not increase: |B_1| >= ... >= |B_C|")


@dataclass(frozen=True)
class ConstructionParams:
    layer_sizes: tuple[int, ...]
    seed: int

    def __post_init__(self):
        check_ladder(self.layer_sizes)
        # exact type: a bool is an int subclass, and SplitMix64 needs an int
        if type(self.seed) is not int:
            raise ParamError(f"seed must be an integer, got {self.seed!r}")


def explicit_params(layer_sizes, seed: int = 0) -> ConstructionParams:
    """The given sizes verbatim; n is their sum."""
    return ConstructionParams(tuple(layer_sizes), seed)


class LayeredGraph:
    """A built instance: the graph plus its layer structure."""

    __slots__ = ("graph", "layer_sizes", "layer_starts")

    def __init__(self, graph: Graph, layer_sizes):
        self.layer_sizes = tuple(layer_sizes)
        check_ladder(self.layer_sizes)
        if sum(self.layer_sizes) != graph.n:
            raise ParamError("layer sizes do not sum to vertex count")
        self.graph = graph
        self.layer_starts = tuple(accumulate(self.layer_sizes, initial=0))

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    def layer_of(self, v: int) -> int:
        """1-based layer index of vertex v."""
        if not 0 <= v < self.graph.n:
            raise IndexError(f"vertex {v} out of range")
        return bisect_right(self.layer_starts, v)

    def layer_vertices(self, i: int) -> range:
        """Vertices of layer i (1-based)."""
        if not 1 <= i <= self.num_layers:
            raise IndexError(f"layer {i} out of range")
        return range(self.layer_starts[i - 1], self.layer_starts[i])

    def check_invariants(self) -> None:
        """Raise ParamError unless the edges are exactly the picks.

        Edges are stored sorted with u < v, so reading each as (u, layer of
        v) and comparing with _picks holds exactly when no edge lies inside
        a layer, every vertex has exactly one neighbor in every later layer,
        and e(G) = sum |B_i| * (C - i)."""
        starts = self.layer_starts
        seen = [(u, bisect_right(starts, v)) for u, v in self.graph.edges]
        want = list(_picks(starts))
        if seen != want:
            got, exp = next(p for p in zip_longest(seen, want) if p[0] != p[1])
            raise ParamError(f"edge (vertex, layer) {got}, expected pick {exp}")


def _picks(starts):
    """Yield (v, j): vertex v picks one neighbor in later layer j.

    starts are the layer starts (0, |B_1|, |B_1| + |B_2|, ..., n).  This is
    the draw order, part of the determinism contract: layers ascending,
    vertices ascending within layer, target layers ascending; build makes
    one uniform draw per pair from a single splitmix64 stream.
    """
    c = len(starts) - 1
    for i in range(1, c + 1):
        for v in range(starts[i - 1], starts[i]):
            for j in range(i + 1, c + 1):
                yield v, j


def build(params: ConstructionParams) -> LayeredGraph:
    """Build the random layered graph from params, drawing in _picks order.

    No parallel edges can arise: each (source vertex, target layer) pair
    yields one edge, and targets never pick backwards.
    """
    sizes = params.layer_sizes
    starts = tuple(accumulate(sizes, initial=0))
    rng = SplitMix64(params.seed)
    edges = [(v, starts[j - 1] + rng.uniform(sizes[j - 1])) for v, j in _picks(starts)]
    return LayeredGraph(Graph(starts[-1], edges), sizes)


def bipartite_variant(lg: LayeredGraph) -> Graph:
    """Same vertex set, only the edges incident to layer 1 kept.

    Bipartition: B_1 vs everything else."""
    # B_1 is the block [0, layer_starts[1]) and every edge is stored with
    # u < v, so an edge meets B_1 exactly when u does
    end = lg.layer_starts[1]
    return Graph(lg.graph.n, [(u, v) for u, v in lg.graph.edges if u < end])


def paper_weighting(lg: LayeredGraph) -> dict[int, Fraction]:
    """Weight 1/|B_i| on every vertex of layer i; total is exactly C."""
    w = {}
    for i, s in enumerate(lg.layer_sizes, start=1):
        frac = Fraction(1, s)
        for v in lg.layer_vertices(i):
            w[v] = frac
    return w


def total_weight(w: dict[int, Fraction]) -> Fraction:
    return sum(w.values(), Fraction(0))
