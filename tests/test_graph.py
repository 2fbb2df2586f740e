import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfree.construction import bipartite_variant, build, explicit_params
from regfree.graph import (
    Graph,
    GraphError,
    VertexOrdering,
    degeneracy,
    find_triangle,
    induced_subgraph,
    is_independent,
    k_core,
)

from helpers import (
    brute_degeneracy,
    brute_k_core,
    brute_triangle_exists,
    complete_graph,
    cycle_graph,
    is_bipartite,
    max_degree,
    path_graph,
    random_graph,
    random_tree,
    reference_degeneracy,
    reference_k_core,
)


def small_edge_lists():
    """(n, edges): loop-free pairs in any order and orientation, duplicates
    included."""
    return st.integers(2, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=20,
            ),
        )
    )


def small_graphs():
    return small_edge_lists().map(lambda case: Graph(*case))


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("u", [-1, 4])
    def test_has_edge_out_of_range_is_false(self, u):
        # vertex 3 is adjacent to 0; a negative id must not index from the end
        g = complete_graph(4)
        assert not g.has_edge(u, 0)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    @settings(max_examples=200, deadline=None)
    @given(small_edge_lists())
    def test_adjacency_is_sorted(self, case):
        n, edges = case
        g = Graph(n, edges)
        assert g.edges == tuple(sorted({(min(e), max(e)) for e in edges}))
        for v in range(n):
            nbrs = {b for a, b in edges if a == v} | {a for a, b in edges if b == v}
            assert g.adj[v] == tuple(sorted(nbrs))

    def test_json_round_trip(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 10), 0.4)
            text = g.to_json(layers=None)
            g2, layers = Graph.from_json(text)
            assert g2 == g and layers is None
            assert g2.to_json() == text

    def test_json_layers_round_trip(self):
        g = Graph(6, [(0, 4), (1, 5)])
        text = g.to_json(layers=[4, 2])
        g2, layers = Graph.from_json(text)
        assert layers == [4, 2] and g2 == g

    def test_json_duplicate_edges_rejected(self):
        for edges in ([[0, 1], [0, 1]], [[0, 1], [1, 0]]):
            text = json.dumps({"n": 3, "layers": None, "edges": edges})
            with pytest.raises(GraphError):
                Graph.from_json(text)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "layers": None, "edges": []},
            {"n": 2, "layers": None, "edges": [[0, True]]},
            {"n": 3, "layers": [2.7, 1.3], "edges": []},
        ],
    )
    def test_json_non_integers_rejected(self, doc):
        with pytest.raises(GraphError):
            Graph.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            "3",
            None,
            {"edges": []},
            {"n": 2, "layers": None},
            {"n": 3, "layers": None, "edges": [[0, 1, 2]]},
            {"n": 2, "layers": None, "edges": [[0]]},
            {"n": 2, "layers": None, "edges": [0]},
            {"n": 2, "layers": None, "edges": "01"},
            {"n": 2, "layers": None, "edges": {"0": 1}},
            {"n": 2, "layers": 2, "edges": []},
            {"n": 2, "layers": {"a": 2}, "edges": []},
        ],
    )
    def test_json_malformed_structure_rejected(self, doc):
        # each used to escape as a KeyError, TypeError or ValueError
        with pytest.raises(GraphError):
            Graph.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ['{"n": 2,', ""])
    def test_json_syntax_error_rejected(self, text):
        # used to escape as json.JSONDecodeError
        with pytest.raises(GraphError, match="not valid JSON"):
            Graph.from_json(text)

    def test_json_bad_layers(self):
        g = Graph(6, [])
        with pytest.raises(GraphError):
            Graph.from_json(json.dumps({"n": 6, "layers": [4, 4], "edges": []}))
        del g


class TestDegeneracy:
    def test_path_is_1_degenerate(self):
        assert degeneracy(path_graph(5))[0] == 1

    def test_k6(self):
        assert degeneracy(complete_graph(6))[0] == 5

    def test_empty_graph(self):
        d, order = degeneracy(Graph(0, []))
        assert d == 0 and order.order == ()

    def test_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.7))
            d, order = degeneracy(g)
            assert d == brute_degeneracy(g)
            assert order.back_degree_bound == d
            assert order.verify(g)

    @pytest.mark.parametrize("order", [(0, 1), (0, 1, 2, 3)])
    def test_verify_rejects_a_different_vertex_count(self, order):
        # g has 3 vertices; the orderings have 2 and 4
        assert not VertexOrdering(order, 1).verify(Graph(3, [(0, 2)]))

    def test_position_is_not_an_argument(self):
        # position is derived from order; it cannot be passed in
        with pytest.raises(TypeError):
            VertexOrdering(order=(1, 0), back_degree_bound=0, position={0: 5})

    def test_at_most_max_degree(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 14), 0.3)
            assert degeneracy(g)[0] <= max_degree(g)


class TestKCore:
    def test_k4_three_core(self):
        assert k_core(complete_graph(4), 3) == [0, 1, 2, 3]

    def test_tree_two_core_empty(self):
        rng = random.Random(3)
        for _ in range(10):
            assert k_core(random_tree(rng, rng.randint(2, 12)), 2) == []

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng, 12, rng.uniform(0.2, 0.6))
            got = k_core(g, 3)
            assert got == brute_k_core(g, 3)

    def test_core_min_degree_and_maximality(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 12), 0.45)
            for k in (2, 3):
                core = k_core(g, k)
                core_set = set(core)
                for v in core:
                    assert sum(1 for u in g.adj[v] if u in core_set) >= k
                # adding any excluded vertex breaks the min-degree condition
                # for some member of the enlarged set
                for v in range(g.n):
                    if v in core_set:
                        continue
                    bigger = core_set | {v}
                    assert any(
                        sum(1 for u in g.adj[x] if u in bigger) < k
                        for x in bigger
                    )


class TestPeelMatchesReference:
    """degeneracy and k_core against the bucket-queue and stack peels they
    replaced: the same ordering, value and cores, tie-breaks included."""

    @staticmethod
    def assert_matches(g):
        d, ordering = degeneracy(g)
        assert (d, ordering.order) == reference_degeneracy(g)
        for k in range(7):
            assert k_core(g, k) == reference_k_core(g, k)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_small_graphs(self, g):
        self.assert_matches(g)

    @pytest.mark.parametrize("bipartite", [False, True])
    def test_tall_ladder(self, bipartite):
        # 5,456 vertices with a nonempty 4-core: many ties at every degree
        lg = build(explicit_params([4096, 1024, 256, 64, 16], seed=0))
        self.assert_matches(bipartite_variant(lg) if bipartite else lg.graph)


class TestIndependence:
    def test_triangle_cases(self):
        k3 = complete_graph(3)
        assert is_independent(k3, [0])
        assert not is_independent(k3, [0, 1])
        assert is_independent(cycle_graph(5), [0, 2])

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_agrees_with_edge_scan(self, g, data):
        s = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
        expected = not any(u in s and v in s for u, v in g.edges)
        assert is_independent(g, s) == expected


class TestTriangle:
    def test_k3(self):
        assert find_triangle(complete_graph(3)) == (0, 1, 2)

    def test_c5_none(self):
        assert find_triangle(cycle_graph(5)) is None

    def test_bipartite_none(self):
        g = Graph(8, [(i, 4 + j) for i in range(4) for j in range(4)])
        assert find_triangle(g) is None

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(3, 30)
            g = random_graph(rng, n, rng.uniform(0.02, 0.25))
            t = find_triangle(g)
            assert (t is not None) == brute_triangle_exists(g)
            if t is not None:
                a, b, c = t
                assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)


class TestInducedSubgraph:
    def test_k5_to_k3(self):
        sub = induced_subgraph(complete_graph(5), [0, 2, 4])
        assert sub == complete_graph(3)

    def test_empty_selection(self):
        sub = induced_subgraph(complete_graph(4), [])
        assert sub.n == 0 and sub.num_edges == 0

    def test_edge_counts_match_pair_scan(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, 10, 0.5)
            s = sorted(rng.sample(range(10), rng.randint(0, 10)))
            sub = induced_subgraph(g, s)
            expected = sum(1 for u in s for v in s if u < v and g.has_edge(u, v))
            assert sub.num_edges == expected
            # new vertex i is s[i]
            assert all(g.has_edge(s[i], s[j]) for i, j in sub.edges)

    def test_rejects_unsorted(self):
        with pytest.raises(GraphError):
            induced_subgraph(complete_graph(4), [2, 1])


def test_bipartite_checker():
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
