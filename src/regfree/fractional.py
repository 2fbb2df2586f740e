"""Exact fractional chromatic number and friends.

chi_f_exact runs column generation entirely in rational arithmetic: solve
the restricted covering LP (via its packing dual, so the vertex weights
come out of the same tableau), price with an exact maximum-weight
independent set solver, stop when no independent set has weight > 1.  The
columns start as the singletons and the classes of a greedy colouring
along a degeneracy order (Mehrotra & Trick 1996 start from a heuristic
colouring).  A maximum clique, searched in the earlier neighbourhoods of
the same order (Eppstein, Löffler & Strash 2010), ends the loop as soon
as the LP value reaches its size omega: the clique proves chi_f >= omega
and the LP's columns chi_f <= omega.  The layered construction usually
holds K_C and its layers give a C-colouring, so chi_f = C is then read off
the first LP.  Otherwise the dual is the final exact pricing call: no
independent set has weight above 1.  At termination the primal and dual
values must coincide exactly, and the primal is re-validated from scratch
(validate).

chi_f_lower_bound divides a vertex weighting's total by its maximum
independent-set weight, from the same mwis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from . import simplex
from .graph import Graph, degeneracy, is_independent


class ZeroWeight(ValueError):
    pass


class ColumnLimitExceeded(Exception):
    """Column generation hit its column cap; carries the bracketing bounds."""

    def __init__(self, lower: Fraction, upper: Fraction, columns: int):
        super().__init__(
            f"column limit reached after {columns} columns; "
            f"chi_f in [{lower}, {upper}]"
        )
        self.lower = lower
        self.upper = upper
        self.columns = columns


@dataclass(frozen=True)
class FractionalColoring:
    columns: tuple[tuple[tuple[int, ...], Fraction], ...]
    value: Fraction

    def validate(self, g: Graph) -> bool:
        """Re-check that every column is an independent set of distinct
        vertices of g, and coverage >= 1."""
        cover = [Fraction(0)] * g.n
        total = Fraction(0)
        for vs, coeff in self.columns:
            in_range = {v for v in vs if 0 <= v < g.n}
            if coeff < 0 or len(in_range) < len(vs) or not is_independent(g, vs):
                return False
            total += coeff
            for v in vs:
                cover[v] += coeff
        return total == self.value and all(c >= 1 for c in cover)


@dataclass(frozen=True)
class DualWitness:
    weights: dict[int, Fraction]
    value: Fraction


def mwis(g: Graph, w: dict[int, Fraction]) -> tuple[tuple[int, ...], Fraction]:
    """Exact maximum-weight independent set, in one branch and bound.

    Vertex v counts as key[v] = iw[v] << n | 1 << (n - 1 - v), with iw the
    weights scaled to integers.  Keys are unique per set, since the low n
    bits are its indicator vector read from vertex 0, so the set of largest
    total key is the one optimum with maximum weight and, among those, the
    largest indicator.  That is the lexicographically smallest optimal set
    (Python tuple order on the sorted vertices) once trailing zero-weight
    vertices are stripped from it.  Any exact search over the keys returns
    it, whatever order it explores in.

    The search branches only on candidates, the vertices outside I, a
    maximal independent set built greedily by ascending (degree, index);
    on the layered construction I is mostly B_1.  Every key is positive,
    so once the candidates are settled the best completion takes every
    free I vertex, one with no chosen neighbour.  The bound charges each
    free I vertex u to the cnt[u] live candidates next to it: a
    candidate's gain is key[v] minus key[u] / cnt[u] summed over its free
    I neighbours, and the bound is key(taken) + key(free I) plus the sum
    of the positive gains.  It holds because a set of live candidates
    loses each of its free I neighbours once and is charged at most
    key[u] for it.  Keys are scaled by lcm(1..max degree in I), so every
    share is an exact integer.  A node with no positive gain is a leaf:
    taking its free I vertices attains the bound.  Otherwise the search
    branches on the candidate of largest gain (ties to the smallest
    index), taking it before dropping it, and prunes a node whose bound
    is at most the best key found.  Vertex sets are n-bit masks built
    here from g.adj, one per call.
    """
    n = g.n
    if any(v not in range(n) for v in w):
        raise ValueError("weights must be on vertices 0..n-1")
    weights = [Fraction(w.get(v, 0)) for v in range(n)]
    if any(x < 0 for x in weights):
        raise ValueError("weights must be nonnegative")
    denom = lcm(*[x.denominator for x in weights])
    iw = [int(x * denom) for x in weights]
    adj = [sum(1 << u for u in g.adj[v]) for v in range(n)]
    indep = blocked = 0
    for v in sorted(range(n), key=lambda v: (len(g.adj[v]), v)):
        if not (blocked >> v) & 1:
            indep |= 1 << v
            blocked |= adj[v]
    ind = [v for v in range(n) if (indep >> v) & 1]
    # a share key[u] // cnt[u] has cnt[u] <= deg(u), u in I
    scale = lcm(*range(1, max((len(g.adj[u]) for u in ind), default=0) + 1))
    key = [(iw[v] << n | 1 << (n - 1 - v)) * scale for v in range(n)]

    cand = [v for v in range(n) if not (indep >> v) & 1]
    nbr_i = [[u for u in g.adj[v] if (indep >> u) & 1] for v in range(n)]
    best, best_set = 0, 0
    # (live candidates, free I vertices, key of the set taken and the free
    # I vertices, set taken); "take v" is pushed above "drop v", so its
    # whole subtree is searched first
    stack = [(((1 << n) - 1) & ~indep, indep, sum(key[u] for u in ind), 0)]
    while stack:
        live, free, base, chosen = stack.pop()
        bound, v, top = base, None, 0
        share = {}
        for c in cand:
            if (live >> c) & 1:
                x = key[c]
                for u in nbr_i[c]:
                    if (free >> u) & 1:
                        part = share.get(u)
                        if part is None:
                            part = key[u] // (adj[u] & live).bit_count()
                            share[u] = part
                        x -= part
                if x > 0:
                    bound += x
                    if x > top:
                        v, top = c, x
        if bound <= best:
            continue
        if v is None:
            best, best_set = bound, chosen | free
            continue
        lost = free & adj[v]
        stack.append((live & ~(1 << v), free, base, chosen))
        stack.append(
            (
                live & ~(1 << v | adj[v]),
                free & ~lost,
                base + key[v] - sum(key[u] for u in nbr_i[v] if (lost >> u) & 1),
                chosen | 1 << v,
            )
        )

    vs = [v for v in range(n) if (best_set >> v) & 1]
    while vs and iw[vs[-1]] == 0:
        vs.pop()  # a proper prefix comes first in tuple order
    weight = sum((weights[v] for v in vs), Fraction(0))
    if int(weight * denom) != best // scale >> n:
        raise ArithmeticError("returned set misses the optimal weight")
    return tuple(vs), weight


def _solve_restricted(
    g: Graph, columns: Sequence[tuple[int, ...]]
) -> tuple[Fraction, dict[int, Fraction], list[Fraction]]:
    """Solve the restricted covering LP through its packing dual.

    Returns (optimal value, vertex weights w, per-column primal x)."""
    n = g.n
    a = [[0] * n for _ in columns]
    for i, col in enumerate(columns):
        for v in col:
            a[i][v] = 1
    sol = simplex.solve_max(a, [1] * len(columns), [1] * n)
    w = {v: sol.x[v] for v in range(n)}
    return sol.value, w, sol.duals


def _classes_and_clique(g: Graph) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Greedy colour classes and a maximum clique from one degeneracy order.

    Each vertex takes the least colour unused by its earlier neighbours, of
    which there are at most d, so there are at most d + 1 classes.  Every
    clique is its latest vertex plus a clique among that vertex's earlier
    neighbours, so a branch and bound over each earlier neighbourhood finds
    a maximum one; it stops at the class count, which no clique exceeds.
    """
    n = g.n
    _, ordering = degeneracy(g)
    colour = [-1] * n
    for v in ordering.order:
        used = {colour[u] for u in g.adj[v]}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    members: list[list[int]] = [[] for _ in range(max(colour) + 1)]
    for v in range(n):
        members[colour[v]].append(v)
    # tuple(list), not tuple(genexpr): CPython's resize in the latter leaves
    # tuples on the free lists that nothing reuses
    classes = [tuple(vs) for vs in members]

    nbrs = [sum(1 << u for u in g.adj[v]) for v in range(n)]
    best, size, seen = 0, 0, 0
    for v in ordering.order:
        # (clique, candidates adjacent to all of it); "take u" is pushed
        # above "drop u", so its subtree is searched first
        stack = [(1 << v, nbrs[v] & seen)]
        seen |= 1 << v
        while stack and size < len(classes):
            clique, cand = stack.pop()
            if clique.bit_count() + cand.bit_count() <= size:
                continue
            if not cand:
                best, size = clique, clique.bit_count()
                continue
            u = cand.bit_length() - 1
            stack.append((clique, cand & ~(1 << u)))
            stack.append((clique | 1 << u, cand & nbrs[u]))
    return classes, tuple([v for v in range(n) if (best >> v) & 1])


def chi_f_exact(
    g: Graph, column_limit: int = 10_000
) -> tuple[Fraction, FractionalColoring, DualWitness]:
    """Exact fractional chromatic number with primal and dual certificates."""
    if g.n == 0:
        raise ValueError("chi_f undefined on the empty graph")
    classes, clique = _classes_and_clique(g)
    columns: list[tuple[int, ...]] = [(v,) for v in range(g.n)] + classes
    while True:
        value, w, x = _solve_restricted(g, columns)
        best_set, best_w = mwis(g, w)
        if best_w <= 1:
            weights = w
            break
        if value == len(clique):
            if not all(g.has_edge(u, v) for u, v in combinations(clique, 2)):
                raise RuntimeError("clique witness is not a clique")
            weights = {v: Fraction(v in clique) for v in range(g.n)}
            break
        if len(columns) >= column_limit:
            total = sum(w.values(), Fraction(0))
            raise ColumnLimitExceeded(
                lower=max(Fraction(len(clique)), total / best_w),
                upper=value,
                columns=len(columns),
            )
        columns.append(best_set)
    dual = DualWitness(weights=weights, value=sum(weights.values(), Fraction(0)))
    primal = FractionalColoring(
        columns=tuple((col, coeff) for col, coeff in zip(columns, x) if coeff != 0),
        value=value,
    )
    if dual.value != value:
        raise ArithmeticError("strong duality must be exact")
    if not primal.validate(g):
        raise RuntimeError("primal coloring failed re-validation")
    return value, primal, dual


def chi_f_lower_bound(g: Graph, w: dict[int, Fraction]) -> Fraction:
    """(total weight) / (max independent-set weight); valid by LP duality."""
    total = sum((Fraction(x) for x in w.values()), Fraction(0))
    if total <= 0:
        raise ZeroWeight("total weight must be positive")
    _, best = mwis(g, w)
    return total / best

