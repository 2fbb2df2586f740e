"""Exact fractional chromatic number and friends.

chi_f_exact runs column generation entirely in rational arithmetic: solve
the restricted covering LP (via its packing dual, so the vertex weights
come out of the same tableau), price with an exact maximum-weight
independent set solver, stop when no independent set has weight > 1.  At
termination primal and dual values coincide exactly, and both certificates
are re-validated from scratch.

chi_f_lower_bound divides a vertex weighting's total by its maximum
independent-set weight, from the same mwis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import simplex
from .graph import Graph, is_independent


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


@dataclass(frozen=True)
class FractionalColoring:
    columns: tuple[tuple[tuple[int, ...], Fraction], ...]
    value: Fraction

    def validate(self, g: Graph) -> bool:
        """Re-check independence of every column and coverage >= 1."""
        cover = [Fraction(0)] * g.n
        total = Fraction(0)
        for vs, coeff in self.columns:
            if coeff < 0 or not is_independent(g, vs):
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

    Branch on a max-weight vertex (include and delete its closed
    neighborhood, or exclude), pruned by the sum of remaining keys.  The
    tie-break is part of the objective: vertex v counts as
    key[v] = iw[v] << n | 1 << (n - 1 - v), with iw the weights scaled to
    integers, so the set of largest total key has maximum weight and, among
    those, the largest indicator vector read from vertex 0.  That is the
    lexicographically smallest optimal set (Python tuple order on the sorted
    vertices) once trailing zero-weight vertices are stripped from it.
    Vertex sets are n-bit masks built here from g.adj, one per call.
    """
    n = g.n
    weights = [Fraction(w.get(v, 0)) for v in range(n)]
    if any(x < 0 for x in weights):
        raise ValueError("weights must be nonnegative")
    denom = lcm(*[x.denominator for x in weights]) if n else 1
    iw = [int(x * denom) for x in weights]
    key = [iw[v] << n | 1 << (n - 1 - v) for v in range(n)]
    closed = [sum(1 << u for u in (v, *g.adj[v])) for v in range(n)]
    order = sorted(range(n), key=lambda v: -key[v])

    def mask_key(m: int) -> int:
        s = 0
        while m:
            low = m & -m
            s += key[low.bit_length() - 1]
            m ^= low
        return s

    best, best_set = 0, 0
    # (candidates, key taken, key of candidates, set taken); "take v" is
    # pushed above "drop v", so its whole subtree is searched first
    full = (1 << n) - 1
    stack = [(full, 0, mask_key(full), 0)]
    while stack:
        m, cur, rest, chosen = stack.pop()
        if cur + rest <= best:
            continue
        v = next((u for u in order if (m >> u) & 1), None)
        if v is None:
            best, best_set = cur, chosen  # rest == 0 here, so cur > best
            continue
        stack.append((m & ~(1 << v), cur, rest - key[v], chosen))
        taken = m & closed[v]
        stack.append(
            (m & ~taken, cur + key[v], rest - mask_key(taken), chosen | 1 << v)
        )

    vs = [v for v in range(n) if (best_set >> v) & 1]
    while vs and iw[vs[-1]] == 0:
        vs.pop()  # a proper prefix comes first in tuple order
    weight = sum((weights[v] for v in vs), Fraction(0))
    if int(weight * denom) != best >> n:
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
    sol = simplex.solve_max(a, [Fraction(1)] * len(columns), [Fraction(1)] * n)
    w = {v: sol.x[v] for v in range(n)}
    return sol.value, w, sol.duals


def chi_f_exact(
    g: Graph, column_limit: int = 10_000
) -> tuple[Fraction, FractionalColoring, DualWitness]:
    """Exact fractional chromatic number with primal and dual certificates."""
    if g.n == 0:
        raise ValueError("chi_f undefined on the empty graph")
    columns: list[tuple[int, ...]] = [(v,) for v in range(g.n)]
    while True:
        value, w, x = _solve_restricted(g, columns)
        best_set, best_w = mwis(g, w)
        if best_w <= 1:
            primal = FractionalColoring(
                columns=tuple(
                    (col, coeff) for col, coeff in zip(columns, x) if coeff != 0
                ),
                value=value,
            )
            dual = DualWitness(weights=w, value=sum(w.values(), Fraction(0)))
            if dual.value != value:
                raise ArithmeticError("strong duality must be exact")
            if not primal.validate(g):
                raise RuntimeError("primal coloring failed re-validation")
            return value, primal, dual
        if len(columns) >= column_limit:
            total = sum(w.values(), Fraction(0))
            raise ColumnLimitExceeded(
                lower=total / best_w, upper=value, columns=len(columns)
            )
        columns.append(best_set)


def chi_f_lower_bound(g: Graph, w: dict[int, Fraction]) -> Fraction:
    """(total weight) / (max independent-set weight); valid by LP duality."""
    total = sum((Fraction(x) for x in w.values()), Fraction(0))
    if total <= 0:
        raise ZeroWeight("total weight must be positive")
    _, best = mwis(g, w)
    return total / best

