"""The layered random construction.

Layers B_1..B_C occupy contiguous index blocks starting at 0, in order.
Each vertex of layer i picks one uniform neighbor in every later layer j,
so e(G) = sum |B_i| * (C - i) deterministically; the randomness only moves
the edges around.  Layer sizes shrink geometrically.

Two parameter entry points:
  * explicit_params: the desk-scale workhorse, arbitrary size ladders.
  * paper_params / paper_regime: the asymptotic sizing |B_i| = n^(1-20^i*eps)
    with eps = 1/sqrt(log n) and C = floor(log log n / 10).  Any n with
    C >= 1 already has layer sizes with thousands of digits, so paper_params
    materializes exact integer sizes only below a digit cap; regime is the
    one log-space view, shared with the inequality replay in bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .graph import Graph
from .rng import SplitMix64


class ParamError(ValueError):
    pass


class EmptyLayers(ParamError):
    pass


@dataclass(frozen=True)
class ConstructionParams:
    n: int
    epsilon: Optional[float]  # None for explicit (desk-scale) params
    num_layers: int
    layer_sizes: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if not self.layer_sizes:
            raise EmptyLayers("need at least one layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ParamError("layer sizes must be positive")
        if self.num_layers != len(self.layer_sizes):
            raise ParamError("num_layers inconsistent with layer_sizes")


@dataclass(frozen=True)
class PaperRegime:
    """Log-space view of the asymptotic parameterization (sizes as logs,
    since the integers themselves are astronomically large).  Every field
    carries the working precision it was computed at."""

    log_n: mp.mpf
    epsilon: mp.mpf
    c_real: mp.mpf  # log log n / 10, before the floor
    num_layers: int
    log_layer_sizes: tuple = field(init=False)  # logs of the real |B_1|..|B_C|

    def __post_init__(self):
        logs = tuple(self.log_layer_size(i) for i in range(1, self.num_layers + 1))
        object.__setattr__(self, "log_layer_sizes", logs)

    def log_layer_size(self, i: int) -> mp.mpf:
        """log|B_i| = (1 - 20^i * epsilon) * log n, for any i >= 1."""
        return (1 - mp.power(20, i) * self.epsilon) * self.log_n


def regime(log_n) -> PaperRegime:
    """epsilon = 1/sqrt(log n), C = floor(log log n / 10) and log|B_i|, at the
    caller's working precision (the inequality replay re-runs it at twice the
    digits).  C may be < 1 here; paper_regime rejects that."""
    log_n = mp.mpf(log_n)
    if log_n <= 1:
        raise ParamError("need log log n > 0, i.e. n > e")
    eps = 1 / mp.sqrt(log_n)
    c_real = mp.log(log_n) / 10
    # snap float round-off below an integer boundary (e.g. log n given as a
    # 53-bit approximation of e^10)
    c = int(mp.floor(c_real * (1 + mp.mpf("1e-12"))))
    return PaperRegime(log_n, eps, c_real, c)


def paper_regime(log_n, dps: int = 50) -> PaperRegime:
    """The regime evaluated at dps digits; ParamError below it (C < 1)."""
    with mp.workdps(dps):
        reg = regime(log_n)
    if reg.num_layers < 1:
        raise ParamError(
            f"C = floor(log log n / 10) = {reg.num_layers} < 1; n is below the "
            "asymptotic regime, use explicit_params"
        )
    return reg


def paper_params(
    n: Optional[int] = None,
    *,
    log_n=None,
    seed: int = 0,
    max_digits: int = 100_000,
) -> ConstructionParams:
    """Exact-integer parameterization; |B_i| = max(1, round(n^(1-20^(i+1)*eps)))
    for 0-based i, rounding half to even.

    Raises ParamError when C < 1 or when a layer size would exceed
    max_digits decimal digits (then only paper_regime is usable).
    """
    if (n is None) == (log_n is None):
        raise ParamError("pass exactly one of n, log_n")
    if n is not None:
        if n < 16:
            raise ParamError("need n >= 16 so that log log n > 0")
        log_n = mp.log(n)
    reg = paper_regime(log_n)
    digits = int(max(ls for ls in reg.log_layer_sizes) / math.log(10)) + 1
    if digits > max_digits:
        raise ParamError(
            f"layer sizes need ~{digits} digits (> max_digits={max_digits}); "
            "use paper_regime for log-space access"
        )
    with mp.workdps(max(digits + 20, 50)):
        logs = regime(log_n).log_layer_sizes
        sizes = [max(1, int(mp.nint(mp.exp(ls)))) for ls in logs]
    n_nominal = n if n is not None else sum(sizes) + 1
    return ConstructionParams(
        n=n_nominal,
        epsilon=float(reg.epsilon),
        num_layers=reg.num_layers,
        layer_sizes=tuple(sizes),
        seed=seed,
    )


def explicit_params(layer_sizes, seed: int = 0) -> ConstructionParams:
    """Desk-scale params: the given sizes verbatim, n = their sum."""
    sizes = tuple(int(s) for s in layer_sizes)
    return ConstructionParams(
        n=sum(sizes),
        epsilon=None,
        num_layers=len(sizes),
        layer_sizes=sizes,
        seed=seed,
    )


class LayeredGraph:
    """A built instance: the graph plus its layer structure."""

    __slots__ = ("graph", "layer_sizes", "layer_starts", "_layer_of")

    def __init__(self, graph: Graph, layer_sizes):
        self.layer_sizes = tuple(layer_sizes)
        if sum(self.layer_sizes) != graph.n:
            raise ParamError("layer sizes do not sum to vertex count")
        if any(a < b for a, b in zip(self.layer_sizes, self.layer_sizes[1:])):
            raise ParamError("layer sizes must not increase: |B_1| >= ... >= |B_C|")
        self.graph = graph
        starts = [0]
        for s in self.layer_sizes:
            starts.append(starts[-1] + s)
        self.layer_starts = tuple(starts)
        lof = []
        for i, s in enumerate(self.layer_sizes, start=1):
            lof.extend([i] * s)
        self._layer_of = tuple(lof)

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    def layer_of(self, v: int) -> int:
        """1-based layer index of vertex v."""
        return self._layer_of[v]

    def layer_vertices(self, i: int) -> range:
        """Vertices of layer i (1-based)."""
        return range(self.layer_starts[i - 1], self.layer_starts[i])

    def expected_edge_count(self) -> int:
        c = self.num_layers
        return sum(s * (c - i) for i, s in enumerate(self.layer_sizes, start=1))

    def check_invariants(self) -> None:
        """Raise if any structural invariant fails (independent layers,
        exactly one neighbor per later layer, total edge count)."""
        g = self.graph
        for u, v in g.edges:
            if self.layer_of(u) == self.layer_of(v):
                raise ParamError(f"intra-layer edge ({u},{v})")
        c = self.num_layers
        for v in range(g.n):
            i = self.layer_of(v)
            per_layer = [0] * (c + 1)
            for u in g.adj[v]:
                per_layer[self.layer_of(u)] += 1
            for j in range(i + 1, c + 1):
                if per_layer[j] != 1:
                    raise ParamError(
                        f"vertex {v} (layer {i}) has {per_layer[j]} neighbors "
                        f"in layer {j}, expected 1"
                    )
        if g.num_edges != self.expected_edge_count():
            raise ParamError("edge count mismatch")


def build(params: ConstructionParams) -> LayeredGraph:
    """Build the random layered graph from params.

    Draw order is part of the determinism contract: layers ascending,
    vertices ascending within layer, target layers ascending; one uniform
    draw per (vertex, later layer) pair from a single splitmix64 stream.

    No parallel edges can arise: each (source vertex, target layer) pair
    yields one edge, and targets never pick backwards.
    """
    sizes = params.layer_sizes
    c = len(sizes)
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    rng = SplitMix64(params.seed)
    edges = []
    for i in range(1, c + 1):
        for v in range(starts[i - 1], starts[i]):
            for j in range(i + 1, c + 1):
                t = rng.uniform(sizes[j - 1])
                edges.append((v, starts[j - 1] + t))
    return LayeredGraph(Graph(starts[-1], edges), sizes)


def bipartite_variant(lg: LayeredGraph) -> Graph:
    """Same vertex set, only the edges incident to layer 1 kept.

    Bipartition: B_1 vs everything else."""
    keep = [
        (u, v)
        for u, v in lg.graph.edges
        if lg.layer_of(u) == 1 or lg.layer_of(v) == 1
    ]
    return Graph(lg.graph.n, keep)


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
