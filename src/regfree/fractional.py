"""Exact fractional chromatic number and friends.

chi_f_exact runs column generation entirely in rational arithmetic: solve
the restricted covering LP (via its packing dual, so the vertex weights
come out of the same tableau), price with an exact maximum-weight
independent set solver, stop when no independent set has weight > 1.  At
termination primal and dual values coincide exactly, and both certificates
are re-validated from scratch.

chromatic_number_exact is a small branch-and-bound colorer for the desk
scale sanity checks chi(G) >= ceil(chi_f(G)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from . import simplex
from .graph import Graph, is_independent


class ZeroWeight(ValueError):
    pass


class SizeLimit(ValueError):
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
    """Exact maximum-weight independent set.

    Branch and bound on a max-weight vertex (include and delete its closed
    neighborhood, or exclude), pruned by the sum of remaining weights.
    Ties go to the lexicographically smallest vertex set (Python tuple
    order on the sorted vertices), recovered by a greedy second phase.
    """
    n = g.n
    weights = [Fraction(w.get(v, 0)) for v in range(n)]
    if any(x < 0 for x in weights):
        raise ValueError("weights must be nonnegative")
    denom = lcm(*[x.denominator for x in weights]) if n else 1
    iw = [int(x * denom) for x in weights]
    closed = [g.adj_mask[v] | (1 << v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-iw[v], v))

    def best_weight(mask: int, forced: int) -> int:
        """Max total iw over independent sets inside mask; forced is the
        weight already committed outside mask."""
        best = 0

        def rec(m: int, cur: int, rest: int):
            nonlocal best
            if cur + rest <= best:
                return
            v = next((u for u in order if (m >> u) & 1), None)
            if v is None:
                if cur > best:
                    best = cur
                return
            rec(m & ~closed[v], cur + iw[v], rest - _mask_weight_below(m, v))
            rec(m & ~(1 << v), cur, rest - iw[v])

        def _mask_weight_below(m: int, v: int) -> int:
            # weight removed from the candidate pool when taking v:
            # v itself plus its masked neighbors
            gone = m & closed[v]
            s = 0
            while gone:
                low = gone & -gone
                s += iw[low.bit_length() - 1]
                gone ^= low
            return s

        rec(mask, 0, sum(iw[v] for v in range(n) if (mask >> v) & 1))
        return best + forced

    full = (1 << n) - 1
    target = best_weight(full, 0)

    # lexicographic extraction: grow the smallest optimal set greedily
    chosen: list[int] = []
    mask = full
    got = 0
    for v in range(n):
        if not (mask >> v) & 1:
            continue
        if got == target:
            break  # the shorter prefix wins any extension
        with_v = got + iw[v]
        rest_mask = (mask & ~closed[v]) & ~((1 << (v + 1)) - 1)
        if best_weight(rest_mask, with_v) == target:
            chosen.append(v)
            got = with_v
            mask &= ~closed[v]
        else:
            mask &= ~(1 << v)
    vs = tuple(chosen)
    weight = sum((weights[v] for v in vs), Fraction(0))
    if int(weight * denom) != target:
        raise ArithmeticError("extracted set misses the optimal weight")
    return vs, weight


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
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique_mask = 0
    size = 0
    for v in order:
        if (g.adj_mask[v] & clique_mask) == clique_mask:
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
    """Exact chromatic number by branch and bound (small graphs only)."""
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
