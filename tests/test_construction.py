import pytest

from regfree.construction import (
    EmptyLayers,
    LayeredGraph,
    ParamError,
    bipartite_variant,
    build,
    explicit_params,
    paper_weighting,
    total_weight,
)
from regfree.graph import Graph, degeneracy
from regfree.rng import SplitMix64

from fractions import Fraction

DESK = [256, 64, 16, 4]


class TestParams:
    def test_empty_rejected(self):
        with pytest.raises(EmptyLayers):
            explicit_params([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ParamError):
            explicit_params([4, 0])

    @pytest.mark.parametrize(
        "sizes, bad", [([2.7, 1.2], "2.7"), (["3", True], "'3'"), ([3, True], "True")]
    )
    def test_non_int_size_rejected(self, sizes, bad):
        with pytest.raises(ParamError, match=bad):
            explicit_params(sizes)

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_non_int_seed_rejected(self, seed):
        # a float seed used to crash inside SplitMix64; True ran as seed 1
        with pytest.raises(ParamError, match="seed"):
            explicit_params([8, 4], seed=seed)

    def test_layered_graph_non_int_size_rejected(self):
        # the ladder is checked before the sizes are summed
        g = build(explicit_params([4, 2], seed=0)).graph
        with pytest.raises(ParamError, match="'4'"):
            LayeredGraph(g, ["4", 2])


class TestBuild:
    def test_edge_count_formula(self):
        lg = build(explicit_params(DESK, seed=0))
        assert lg.graph.num_edges == 256 * 3 + 64 * 2 + 16 * 1
        assert lg.graph.num_edges == 912

    def test_invariants_many_seeds(self):
        for seed in range(20):
            lg = build(explicit_params(DESK, seed=seed))
            lg.check_invariants()

    def test_determinism(self):
        a = build(explicit_params(DESK, seed=7)).graph
        b = build(explicit_params(DESK, seed=7)).graph
        assert a == b and a.to_json() == b.to_json()

    def test_seeds_differ(self):
        a = build(explicit_params(DESK, seed=0)).graph
        b = build(explicit_params(DESK, seed=1)).graph
        assert a != b

    def test_draw_order_contract(self):
        # replay the documented draw order by hand against a tiny instance
        sizes = [3, 2, 1]
        lg = build(explicit_params(sizes, seed=5))
        rng = SplitMix64(5)
        edges = []
        # layer 1 vertices 0..2 pick in layer 2 then layer 3
        for v in range(3):
            edges.append((v, 3 + rng.uniform(2)))
            edges.append((v, 5 + rng.uniform(1)))
        for v in range(3, 5):
            edges.append((v, 5 + rng.uniform(1)))
        assert sorted(set(tuple(sorted(e)) for e in edges)) == list(lg.graph.edges)

    def test_single_layer_is_edgeless(self):
        lg = build(explicit_params([10], seed=3))
        assert lg.graph.num_edges == 0

    def test_degeneracy_bound(self):
        # back-degree of any vertex is at most C - 1 along the layer order
        for seed in range(10):
            lg = build(explicit_params(DESK, seed=seed))
            d, _ = degeneracy(lg.graph)
            assert d <= lg.num_layers - 1

    def test_layer_lookup(self):
        lg = build(explicit_params([4, 2, 1], seed=0))
        assert [lg.layer_of(v) for v in range(7)] == [1, 1, 1, 1, 2, 2, 3]
        assert list(lg.layer_vertices(2)) == [4, 5]

    @pytest.mark.parametrize("i", [-1, 0, 4])
    def test_layer_vertices_rejects_out_of_range(self, i):
        lg = build(explicit_params([4, 2, 1], seed=0))
        with pytest.raises(IndexError, match=f"layer {i} "):
            lg.layer_vertices(i)

    def test_layer_of_rejects_out_of_range(self):
        lg = build(explicit_params([4, 2, 1], seed=0))
        with pytest.raises(IndexError):
            lg.layer_of(-1)

    def test_layered_graph_size_mismatch(self):
        g = build(explicit_params([4, 2], seed=0)).graph
        with pytest.raises(ParamError):
            LayeredGraph(g, [4, 3])

    def test_increasing_ladder_rejected(self):
        with pytest.raises(ParamError):
            build(explicit_params([2, 8], seed=0))
        g = build(explicit_params([4, 2], seed=0)).graph
        with pytest.raises(ParamError):
            LayeredGraph(g, [2, 4])
        assert build(explicit_params([4, 4], seed=0)).layer_sizes == (4, 4)


class TestCheckInvariantsRejects:
    # build(explicit_params([4, 3, 2], seed=0)): B_1 = 0..3, B_2 = 4..6, B_3 = 7..8
    EDGES = [
        (0, 5), (0, 7), (1, 5), (1, 7), (2, 5), (2, 7),
        (3, 6), (3, 7), (4, 8), (5, 7), (6, 8),
    ]

    def test_pinned_instance_passes(self):
        lg = build(explicit_params([4, 3, 2], seed=0))
        assert list(lg.graph.edges) == self.EDGES
        LayeredGraph(Graph(9, self.EDGES), [4, 3, 2]).check_invariants()

    @pytest.mark.parametrize(
        "drop, add",
        [
            ([], [(0, 1)]),  # intra-layer edge in B_1
            ([], [(4, 5)]),  # intra-layer edge in B_2
            ([], [(7, 8)]),  # intra-layer edge in the last layer
            ([(0, 7)], []),  # vertex 0 has no pick in B_3
            ([(0, 5)], [(0, 8)]),  # vertex 0: none in B_2, two in B_3
            ([], [(0, 4)]),  # vertex 0 has a second B_2 neighbour
        ],
    )
    def test_rejects(self, drop, add):
        edges = [e for e in self.EDGES if e not in drop] + add
        lg = LayeredGraph(Graph(9, edges), [4, 3, 2])
        with pytest.raises(ParamError):
            lg.check_invariants()

    def test_layer_of_past_the_end(self):
        lg = LayeredGraph(Graph(9, self.EDGES), [4, 3, 2])
        with pytest.raises(IndexError):
            lg.layer_of(9)


class TestBipartiteVariant:
    def test_keeps_only_layer1_edges(self):
        lg = build(explicit_params(DESK, seed=0))
        bg = bipartite_variant(lg)
        assert bg.n == lg.graph.n
        assert bg.num_edges == 256 * 3
        for u, v in bg.edges:
            assert lg.layer_of(u) == 1 or lg.layer_of(v) == 1
            assert lg.layer_of(u) != lg.layer_of(v)

    def test_is_bipartite(self):
        from helpers import is_bipartite

        lg = build(explicit_params(DESK, seed=1))
        assert is_bipartite(bipartite_variant(lg))


class TestWeighting:
    def test_total_is_num_layers(self):
        lg = build(explicit_params(DESK, seed=0))
        w = paper_weighting(lg)
        assert total_weight(w) == Fraction(4)
        assert w[0] == Fraction(1, 256)
        assert w[339] == Fraction(1, 4)
