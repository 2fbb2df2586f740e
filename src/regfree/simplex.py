"""Dense tableau simplex over exact rationals, in integer arithmetic.

Solves  max c.x  s.t.  A x <= b,  x >= 0  with b >= 0, so the all-slack
basis is feasible and no phase one is needed.  Bland's rule precludes
cycling.  Returns the optimum together with the dual solution (read off
the slack columns), which is what the column-generation driver needs.

A, b and c are integers; any other entry raises TypeError.  The tableau is
fraction-free (Bareiss 1968, Edmonds 1967): every entry is an integer.  A
row pivoted on holds the true tableau row times d, a shared positive
denominator that is the last pivot element (1 at the start), and the
objective row holds the reduced costs times d; its last entry is -d times
the value of the current basis.  A pivot on p keeps the pivot row and maps
every other row, the objective row too, to (p * row - f * pivot row) / d,
which is exact because every entry stays a minor of the input, up to sign;
then d = p.  A row with f = 0 is left as it is when p = d.  Every row is a
positive multiple of the true one, so signs and ratios within a row are
those of a Fraction tableau: Bland's rule and the ratio test pick the same
pivots, and the solution read off at the end is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index


class Unbounded(Exception):
    pass


@dataclass
class LpSolution:
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]  # one per row


def solve_max(A, b, c) -> LpSolution:
    m = len(A)
    n = len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("need b >= 0 for the slack basis to be feasible")
    # columns: 0..n-1 structural, n..n+m-1 slack; last column is b
    tab = [
        [index(A[i][j]) for j in range(n)]
        + [int(r == i) for r in range(m)]
        + [index(b[i])]
        for i in range(m)
    ]
    # objective row holds d times the reduced costs of a max problem (pivot
    # until <= 0)
    obj = [index(cj) for cj in c] + [0] * (m + 1)
    basis = list(range(n, n + m))
    d = 1

    while True:
        # Bland: entering = lowest-index column with positive reduced cost
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        # ratio test by cross-multiplying (denominators are positive);
        # Bland tie-break on lowest basis variable
        leave, num, den = None, 0, 1
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                diff = row[-1] * den - num * a  # sign of ratio - best ratio
                if leave is None or diff < 0 or (
                    diff == 0 and basis[i] < basis[leave]
                ):
                    leave, num, den = i, row[-1], a
        if leave is None:
            raise Unbounded
        prow = tab[leave]
        p = prow[enter]
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                if f:
                    tab[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
                elif p != d:
                    tab[i] = [p * v // d for v in row]
        f = obj[enter]
        obj = [(p * v - f * w) // d for v, w in zip(obj, prow)]
        basis[leave] = enter
        d = p

    x = [Fraction(0)] * n
    for row, bv in zip(tab, basis):
        if bv < n:
            x[bv] = Fraction(row[-1], d)
    # dual value of row i = negated reduced cost of its slack column
    duals = [Fraction(-obj[n + i], d) for i in range(m)]
    return LpSolution(value=Fraction(-obj[-1], d), x=x, duals=duals)
