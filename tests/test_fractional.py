import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfree.construction import build, explicit_params, paper_weighting, total_weight
from regfree.fractional import (
    ColumnLimitExceeded,
    _classes_and_clique,
    FractionalColoring,
    ZeroWeight,
    chi_f_exact,
    chi_f_lower_bound,
    mwis,
)
from regfree.graph import Graph, degeneracy, is_independent

from helpers import (
    SizeLimit,
    adjacency_masks,
    brute_mwis,
    chi_f_oracle,
    chromatic_number_exact,
    complete_graph,
    cycle_graph,
    grotzsch_graph,
    path_graph,
    petersen_graph,
    random_graph,
    shallow_stack,
)


def unit_weights(g: Graph):
    return {v: Fraction(1) for v in range(g.n)}


class TestMwis:
    def test_unit_weight_c5(self):
        vs, w = mwis(cycle_graph(5), unit_weights(cycle_graph(5)))
        assert w == 2 and vs == (0, 2)

    def test_empty_graph(self):
        assert mwis(Graph(0, []), {}) == ((), Fraction(0))

    def test_petersen_unit(self):
        _, w = mwis(petersen_graph(), unit_weights(petersen_graph()))
        assert w == 4

    def test_weights_override_size(self):
        g = path_graph(3)
        w = {0: Fraction(1), 1: Fraction(5), 2: Fraction(1)}
        vs, best = mwis(g, w)
        assert vs == (1,) and best == 5

    def test_zero_weight_vertices_and_lex(self):
        # (0, 1) and (1,) both attain weight 1; (0, 1) is lex smaller
        g = Graph(3, [])
        vs, best = mwis(g, {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)})
        assert best == 1 and vs == (0, 1)

    @pytest.mark.parametrize(
        "weights, expected",
        [
            ((1, 0, 1), (0, 1, 2)),  # an interior zero joins: (0, 1, 2) < (0, 2)
            ((1, 1, 0), (0, 1)),  # a trailing zero does not: (0, 1) < (0, 1, 2)
        ],
    )
    def test_zero_weight_interior_and_trailing(self, weights, expected):
        g = Graph(3, [])
        vs, best = mwis(g, {v: Fraction(x) for v, x in enumerate(weights)})
        assert best == 2 and vs == expected

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            mwis(path_graph(2), {0: Fraction(-1), 1: Fraction(0)})

    def test_edgeless_needs_no_deep_stack(self):
        g = Graph(120, [])
        with shallow_stack():
            vs, best = mwis(g, unit_weights(g))
        assert best == 120 and vs == tuple(range(120))

    def test_matches_brute_force_with_lex(self):
        rng = random.Random(123)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.uniform(0.2, 0.7))
            w = {
                v: Fraction(rng.randint(0, 6), rng.randint(1, 4))
                for v in range(n)
            }
            vs, best = mwis(g, w)
            exp_w, exp_set = brute_mwis(g, w)
            assert best == exp_w
            assert vs == exp_set
            assert is_independent(g, vs)


class TestMwisOnLayeredGraphs:
    """The construction's shape: the greedy independent set the search
    branches around is mostly B_1, which random graphs rarely produce."""

    @pytest.mark.parametrize(
        "sizes", [[8, 2], [12, 3], [8, 4, 2]], ids=lambda s: ",".join(map(str, s))
    )
    def test_matches_brute_force(self, sizes):
        rng = random.Random(len(sizes) * 100 + sizes[0])
        for seed in range(4):
            lg = build(explicit_params(sizes, seed=seed))
            g = lg.graph
            sparse = {
                v: Fraction(rng.choice((0, 0, rng.randint(1, 6))), rng.randint(1, 4))
                for v in range(g.n)
            }
            for w in (paper_weighting(lg), sparse):
                vs, best = mwis(g, w)
                assert (best, vs) == brute_mwis(g, w)


class TestMwisAtDeskScale:
    """Values the search reaches at desk scale."""

    @pytest.mark.parametrize(
        "seed, weight", [(0, "389/256"), (1, "95/64"), (2, "49/32")]
    )
    def test_paper_weighting_256_64_16_4(self, seed, weight):
        lg = build(explicit_params([256, 64, 16, 4], seed=seed))
        w = paper_weighting(lg)
        assert total_weight(w) == 4
        assert chi_f_lower_bound(lg.graph, w) == 4 / Fraction(weight)

    def test_unit_weights_96_24_6(self):
        g = build(explicit_params([96, 24, 6], seed=0)).graph
        vs, best = mwis(g, unit_weights(g))
        assert best == 96 and is_independent(g, vs)
        assert chi_f_lower_bound(g, unit_weights(g)) == Fraction(21, 16)

    def test_long_unit_path(self):
        g = path_graph(1000)
        with shallow_stack():
            vs, best = mwis(g, unit_weights(g))
        assert best == 500 and vs == tuple(range(0, 1000, 2))


class TestChiF:
    def test_complete_graphs(self):
        for n in range(1, 7):
            value, _, _ = chi_f_exact(complete_graph(n))
            assert value == n

    def test_odd_cycles(self):
        for n in (5, 7, 9):
            value, _, _ = chi_f_exact(cycle_graph(n))
            assert value == Fraction(2 * ((n - 1) // 2) + 1, (n - 1) // 2)

    def test_petersen_is_5_halves(self):
        value, primal, dual = chi_f_exact(petersen_graph())
        assert value == Fraction(5, 2)
        assert primal.validate(petersen_graph())
        assert dual.value == value

    def test_bipartite_is_two(self):
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5)])
        value, _, _ = chi_f_exact(g)
        assert value == 2

    def test_edgeless_is_one(self):
        value, _, _ = chi_f_exact(Graph(5, []))
        assert value == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            chi_f_exact(Graph(0, []))

    def test_matches_full_lp_oracle(self):
        rng = random.Random(321)
        for _ in range(25):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            value, primal, dual = chi_f_exact(g)
            assert value == chi_f_oracle(g)
            assert primal.validate(g)
            assert dual.value == value

    def test_column_limit(self):
        with pytest.raises(ColumnLimitExceeded) as exc:
            chi_f_exact(petersen_graph(), column_limit=10)
        assert exc.value.lower <= Fraction(5, 2) <= exc.value.upper
        # an edge is a clique, so the bracket starts at 2
        assert exc.value.lower >= 2

    def test_column_limit_keeps_the_column_count(self):
        exc = ColumnLimitExceeded(Fraction(2), Fraction(3), columns=13)
        assert exc.columns == 13 and "after 13 columns" in str(exc)

    def test_grotzsch_by_column_generation(self):
        # omega = 2 < chi_f, so no clique ends the loop
        g = grotzsch_graph()
        value, primal, dual = chi_f_exact(g)
        assert value == Fraction(29, 10) == chi_f_oracle(g)
        assert primal.validate(g) and dual.value == value
        assert mwis(g, dual.weights)[1] <= 1

    @pytest.mark.parametrize(
        "g, columns, value",
        [
            # a repeated vertex covers it twice: "chi_f(K1) = 1/2"
            (complete_graph(1), (((0, 0), Fraction(1, 2)),), Fraction(1, 2)),
            # -1 would index vertex 1
            (complete_graph(2), (((0, -1), Fraction(1)),), Fraction(1)),
            # 5 is not a vertex of K2
            (complete_graph(2), (((5,), Fraction(1)),), Fraction(1)),
        ],
    )
    def test_validate_rejects_bad_vertex_ids(self, g, columns, value):
        assert not FractionalColoring(columns, value).validate(g)

    def test_dual_witness_packs(self):
        # the dual weights form a fractional clique: every independent set
        # has weight <= 1
        rng = random.Random(77)
        for _ in range(10):
            g = random_graph(rng, 8, 0.5)
            _, _, dual = chi_f_exact(g)
            _, best = mwis(g, dual.weights)
            assert best <= 1


class TestChiFOnTheConstruction:
    """The construction holds K_C and its layers colour it with C colours,
    so chi_f = C is read off the first LP, with the clique as the dual."""

    @pytest.mark.parametrize("seed", range(24))
    def test_32_8_2_is_three_from_a_triangle(self, seed):
        g = build(explicit_params([32, 8, 2], seed=seed)).graph
        value, primal, dual = chi_f_exact(g)
        assert value == 3
        assert [coeff for _, coeff in primal.columns] == [1, 1, 1]
        assert primal.validate(g)
        clique = [v for v, x in dual.weights.items() if x]
        assert [dual.weights[v] for v in clique] == [1, 1, 1]
        assert all(g.has_edge(u, v) for u in clique for v in clique if u < v)

    @pytest.mark.parametrize("seed", range(4))
    def test_256_64_16_4_is_four(self, seed):
        g = build(explicit_params([256, 64, 16, 4], seed=seed)).graph
        value, primal, dual = chi_f_exact(g)
        assert value == 4 and primal.validate(g) and dual.value == 4


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [e for e in pairs if draw(st.booleans())])


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_classes_colour_and_the_clique_is_maximum(g):
    classes, clique = _classes_and_clique(g)
    assert sorted(v for vs in classes for v in vs) == list(range(g.n))
    assert all(is_independent(g, vs) for vs in classes)
    assert len(classes) <= degeneracy(g)[0] + 1
    assert all(g.has_edge(u, v) for u in clique for v in clique if u < v)
    adj = adjacency_masks(g)
    omega = max(  # a clique misses no neighbour of its own vertices
        mask.bit_count()
        for mask in range(1, 1 << g.n)
        if all(mask & ~adj[v] == 1 << v for v in range(g.n) if mask >> v & 1)
    )
    assert len(clique) == omega


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_chi_f_exact_matches_the_oracle(g):
    value, primal, dual = chi_f_exact(g)
    assert value == chi_f_oracle(g)
    assert primal.validate(g) and dual.value == value
    assert mwis(g, dual.weights)[1] <= 1


class TestLowerBound:
    def test_unit_weights_c5(self):
        assert chi_f_lower_bound(cycle_graph(5), unit_weights(cycle_graph(5))) == Fraction(5, 2)

    def test_never_exceeds_exact(self):
        rng = random.Random(404)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            w = {v: Fraction(rng.randint(1, 5)) for v in range(g.n)}
            value, _, _ = chi_f_exact(g)
            assert chi_f_lower_bound(g, w) <= value

    def test_paper_weighting_on_construction(self):
        lg = build(explicit_params([32, 8, 2], seed=0))
        w = paper_weighting(lg)
        lb = chi_f_lower_bound(lg.graph, w)
        value, _, _ = chi_f_exact(lg.graph)
        assert lb <= value

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            chi_f_lower_bound(path_graph(2), {0: Fraction(0), 1: Fraction(0)})

    @pytest.mark.parametrize(
        "w", [{0: Fraction(1), 5: Fraction(3)}, {5: Fraction(3)}]
    )
    def test_weight_off_the_graph_rejected(self, w):
        # summing the weight on vertex 5 would give 4 > chi_f(K2) = 2
        with pytest.raises(ValueError, match="vertices 0..n-1"):
            chi_f_lower_bound(complete_graph(2), w)


class TestChromaticNumber:
    def test_named(self):
        assert chromatic_number_exact(complete_graph(5)) == 5
        assert chromatic_number_exact(cycle_graph(5)) == 3
        assert chromatic_number_exact(cycle_graph(6)) == 2
        assert chromatic_number_exact(petersen_graph()) == 3
        assert chromatic_number_exact(Graph(4, [])) == 1
        assert chromatic_number_exact(Graph(0, [])) == 0

    def test_upper_bounds_chi_f(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            value, _, _ = chi_f_exact(g)
            chi = chromatic_number_exact(g)
            assert value <= chi
            assert chi >= -(-value.numerator // value.denominator)  # ceil

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            chromatic_number_exact(Graph(10, []), max_vertices=5)
