"""Random subsampling to a triangle-free, low-back-degree subgraph.

Stage one keeps each vertex independently with probability p (set Y);
stage two scans the degeneracy-style ordering once and keeps v (set X) iff
its back-neighborhood inside Y has size at most the threshold and is
independent.  This forces G[X] triangle-free and threshold-degenerate by
construction, for any parameter choice; the weight-retention constant is
the only thing that depends on the asymptotic regime, so it is measured,
not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, VertexOrdering, find_triangle, induced_subgraph, is_independent
from .rng import SplitMix64


@dataclass(frozen=True)
class SubsampleParams:
    p: Fraction
    degen_threshold: int
    seed: int

    def __post_init__(self):
        # the Bernoulli cutoff reads p's numerator and denominator; exact
        # type int, as below: a bool would run as p = 0 or p = 1
        if type(self.p) is not int and not isinstance(self.p, Fraction):
            raise ValueError(f"p must be an int or a Fraction, got {self.p!r}")
        if not (0 <= self.p <= 1):
            raise ValueError("p must be in [0, 1]")
        # exact type: a bool is an int subclass, and SplitMix64 needs an int
        for name in ("degen_threshold", "seed"):
            x = getattr(self, name)
            if type(x) is not int:
                raise ValueError(f"{name} must be an integer, got {x!r}")
        if self.degen_threshold < 1:
            raise ValueError("threshold must be >= 1")


@dataclass(frozen=True)
class SubsampleResult:
    y: tuple[int, ...]
    x: tuple[int, ...]
    retained_weight: Fraction


def harris_subsample(
    g: Graph,
    ordering: VertexOrdering,
    params: SubsampleParams,
    w: dict[int, Fraction],
) -> SubsampleResult:
    """Run the two-stage process and re-verify every output invariant."""
    if len(ordering.order) != g.n:
        raise ValueError("ordering does not match the graph")
    rng = SplitMix64(params.seed)
    in_y = [False] * g.n
    for v in ordering.order:  # one draw per vertex, in ordering order
        in_y[v] = rng.bernoulli(params.p)
    pos = ordering.position
    in_x = [False] * g.n
    for v in ordering.order:
        if not in_y[v]:
            continue
        back_y = [u for u in g.adj[v] if pos[u] < pos[v] and in_y[u]]
        if len(back_y) <= params.degen_threshold and is_independent(g, back_y):
            in_x[v] = True
    x = tuple(v for v in range(g.n) if in_x[v])
    y = tuple(v for v in range(g.n) if in_y[v])

    # independent re-verification of the construction guarantees
    if not set(x) <= set(y):
        raise AssertionError("X must be a subset of Y")
    if find_triangle(induced_subgraph(g, x)) is not None:
        raise AssertionError("G[X] must be triangle-free")
    for v in x:
        back_x = sum(1 for u in g.adj[v] if pos[u] < pos[v] and in_x[u])
        if back_x > params.degen_threshold:
            raise AssertionError("back-degree bound violated in X")

    retained = sum((Fraction(w.get(v, 0)) for v in x), Fraction(0))
    return SubsampleResult(y=y, x=x, retained_weight=retained)


def claim_probability_bounds(
    g: Graph, ordering: VertexOrdering, params: SubsampleParams, v: int
) -> tuple[Fraction, Fraction]:
    """Per-vertex failure-probability bounds for the two exclusion events.

    markov_bound   = p * backdeg(v) / threshold   (back-neighborhood too big)
    independence_bound = p^2 * e(G[back-neighborhood])  (not independent)
    """
    pos = ordering.position
    back = [u for u in g.adj[v] if pos[u] < pos[v]]
    markov = params.p * Fraction(len(back), params.degen_threshold)
    sub = induced_subgraph(g, sorted(back))
    indep = params.p * params.p * sub.num_edges
    return markov, indep
