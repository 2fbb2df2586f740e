import random
from fractions import Fraction
from math import lcm

import pytest

from regfree.simplex import LpSolution, Unbounded, solve_max

from helpers import random_graph, reference_solve_max


def F(x):
    return Fraction(x)


def scaled(values):
    """The rationals times the lcm of their denominators, as ints.  Scaling
    a row of [A | b] leaves x and every pivot unchanged and divides that
    row's dual by the scale."""
    s = lcm(*(q.denominator for q in values))
    return [int(q * s) for q in values]


def integer_lp(a, b, c):
    """The rational LP with each row of [A | b], and c, scaled to ints."""
    rows = [scaled(row + [bi]) for row, bi in zip(a, b)]
    return [row[:-1] for row in rows], [row[-1] for row in rows], scaled(c)


class TestSolveMax:
    def test_textbook_instance(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        sol = solve_max([[1, 0], [0, 2], [3, 2]], [4, 12, 18], [3, 5])
        assert sol.value == 36
        assert sol.x == [F(2), F(6)]

    def test_degenerate_instance(self):
        sol = solve_max([[1, 1], [1, 1]], [1, 1], [1, 1])
        assert sol.value == 1

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_max([[-1]], [1], [1])

    def test_negative_b_rejected(self):
        with pytest.raises(ValueError):
            solve_max([[1]], [F(-1)], [F(1)])

    def test_zero_objective(self):
        sol = solve_max([[1]], [5], [0])
        assert sol.value == 0

    def test_rational_exactness(self):
        # x/3 + y/7 <= 1/11 scaled by 231; all capacity to y (cheaper per
        # unit of objective)
        sol = solve_max([[77, 33]], [21], [1, 1])
        assert sol.value == Fraction(7, 11)

    def test_duality_on_random_instances(self):
        rng = random.Random(8)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = [
                [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(m)
            ]
            b = [Fraction(rng.randint(0, 10), rng.randint(1, 3)) for _ in range(m)]
            c = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
            # keep the primal bounded: every variable must appear somewhere
            for j in range(n):
                if all(a[i][j] == 0 for i in range(m)):
                    c[j] = Fraction(0)
            a, b, c = integer_lp(a, b, c)
            sol = solve_max(a, b, c)
            # primal feasibility
            for i in range(m):
                assert sum(a[i][j] * sol.x[j] for j in range(n)) <= b[i]
            assert all(x >= 0 for x in sol.x)
            # dual feasibility and strong duality, exactly
            assert all(y >= 0 for y in sol.duals)
            for j in range(n):
                assert sum(a[i][j] * sol.duals[i] for i in range(m)) >= c[j]
            assert sol.value == sum(
                (b[i] * sol.duals[i] for i in range(m)), Fraction(0)
            )

    def test_returns_lp_solution(self):
        sol = solve_max([[1]], [1], [1])
        assert isinstance(sol, LpSolution)
        assert sol.duals == [F(1)]

    def test_no_columns(self):
        sol = solve_max([[1]], [1], [])
        assert sol.value == 0 and type(sol.value) is Fraction
        assert sol.x == [] and sol.duals == [F(0)]

    @pytest.mark.parametrize(
        "bad", [Fraction(1), Fraction(1, 2), 1.0], ids=["1", "1/2", "1.0"]
    )
    @pytest.mark.parametrize("where", ["A", "b", "c"])
    def test_non_integer_data_rejected(self, bad, where):
        # floor division would quietly round a Fraction or a float
        a, b, c = [[1, 1]], [1], [1, 1]
        if where == "A":
            a = [[1, bad]]
        elif where == "b":
            b = [bad]
        else:
            c = [1, bad]
        with pytest.raises(TypeError):
            solve_max(a, b, c)


def assert_matches_reference(a, b, c):
    """solve_max returns exactly the reference's value, x and duals, or
    both find the LP unbounded."""
    ref = reference_solve_max(a, b, c)
    if ref is None:
        with pytest.raises(Unbounded):
            solve_max(a, b, c)
    else:
        sol = solve_max(a, b, c)
        assert (sol.value, sol.x, sol.duals) == ref


class TestAgainstReference:
    def test_random_rational_lps(self):
        # negative and zero entries in A and c; b >= 0 with zeros
        rng = random.Random(31)

        def q(lo, hi):
            return Fraction(rng.randint(lo, hi), rng.randint(1, 6))

        for _ in range(300):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            a = [[q(-3, 5) for _ in range(n)] for _ in range(m)]
            b = [q(0, 6) if rng.random() < 0.7 else F(0) for _ in range(m)]
            c = [q(-4, 6) if rng.random() < 0.8 else F(0) for _ in range(n)]
            assert_matches_reference(*integer_lp(a, b, c))

    def test_degenerate_lps_with_ratio_ties(self):
        # small integer entries and b in {0, 1, 2}: many ratio ties, which
        # Bland's rule breaks on the smallest basis index
        rng = random.Random(32)
        for _ in range(300):
            m, n = rng.randint(2, 8), rng.randint(2, 8)
            a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
            b = [rng.choice([0, 1, 1, 2]) for _ in range(m)]
            c = [rng.randint(-1, 3) for _ in range(n)]
            assert_matches_reference(a, b, c)

    @pytest.mark.parametrize("b", [[0, 0], [1, 2]])
    def test_tie_broken_on_smallest_basis_index(self, b):
        # both rows bound x at b0 / 2 = b1 / 4; the tie goes to row 0,
        # whose slack has the smaller index, so row 0 carries the dual
        sol = solve_max([[2], [4]], b, [1])
        assert sol.x == [Fraction(b[0], 2)] and sol.duals == [Fraction(1, 2), F(0)]
        assert_matches_reference([[2], [4]], b, [1])

    def test_covering_lps_of_column_generation(self):
        # the packing dual chi_f_exact solves: 0/1 rows (independent sets),
        # b = 1 and c = 1
        rng = random.Random(33)
        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 9), 0.4)
            cols = [
                tuple(v for v in range(g.n) if mask >> v & 1)
                for mask in range(1, 1 << g.n)
                if not any(
                    mask >> u & 1 and mask >> v & 1 for u, v in g.edges
                )
            ]
            cols = rng.sample(cols, min(len(cols), 3 * g.n))
            a = [[int(v in col) for v in range(g.n)] for col in cols]
            assert_matches_reference(a, [1] * len(cols), [1] * g.n)
