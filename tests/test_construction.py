import pytest

from regfree.construction import (
    ConstructionParams,
    EmptyLayers,
    LayeredGraph,
    ParamError,
    bipartite_variant,
    build,
    explicit_params,
    paper_params,
    paper_regime,
    paper_weighting,
    total_weight,
)
from regfree.graph import degeneracy
from regfree.rng import SplitMix64

from fractions import Fraction

import mpmath as mp

DESK = [256, 64, 16, 4]


class TestParams:
    def test_empty_rejected(self):
        with pytest.raises(EmptyLayers):
            explicit_params([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ParamError):
            explicit_params([4, 0])

    def test_inconsistent_count_rejected(self):
        with pytest.raises(ParamError):
            ConstructionParams(
                n=6, epsilon=None, num_layers=3, layer_sizes=(4, 2), seed=0
            )

    def test_explicit_n_is_sum(self):
        assert explicit_params(DESK).n == 340


class TestPaperRegime:
    def test_rejects_small_n(self):
        with pytest.raises(ParamError):
            paper_regime(mp.mpf("0.5"))
        with pytest.raises(ParamError):
            paper_regime(mp.exp(5))  # C = 0

    def test_e_to_e40(self):
        r = paper_regime(mp.exp(40))
        assert r.num_layers == 4
        assert mp.almosteq(r.epsilon, mp.exp(-20))
        # log|B_i| = (1 - 20^i eps) e^40
        for i, lb in enumerate(r.log_layer_sizes, start=1):
            expect = (1 - mp.power(20, i) * mp.exp(-20)) * mp.exp(40)
            assert mp.almosteq(lb, expect)
        # sizes shrink with i
        assert all(
            a > b for a, b in zip(r.log_layer_sizes, r.log_layer_sizes[1:])
        )

    def test_boundary_snap(self):
        # a 53-bit float for e^10 sits just below the C = 1 boundary;
        # the snap must still give C = 1
        import math

        assert paper_regime(math.exp(10)).num_layers == 1

    def test_paper_params_digit_cap(self):
        with pytest.raises(ParamError):
            paper_params(log_n=mp.exp(40))  # ~10^17-digit sizes

    def test_paper_params_materializes_small_regime(self):
        import sys

        sys.set_int_max_str_digits(20_000)
        log_n = mp.exp(10)
        p = paper_params(log_n=log_n)
        assert p.num_layers == 1
        # |B_1| = round(e^{(1 - 20 eps) log n}) with eps = 1/sqrt(log n),
        # evaluated at the same working precision the library uses
        # (digits + 20) so the round-to-nearest target is identical
        with mp.workdps(8277 + 20):
            ln = mp.mpf(log_n)
            expect = int(mp.nint(mp.exp((1 - 20 / mp.sqrt(ln)) * ln)))
        assert p.layer_sizes == (expect,)
        assert len(str(expect)) == 8277


class TestBuild:
    def test_edge_count_formula(self):
        lg = build(explicit_params(DESK, seed=0))
        assert lg.graph.num_edges == 256 * 3 + 64 * 2 + 16 * 1
        assert lg.graph.num_edges == lg.expected_edge_count() == 912

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
        from regfree.graph import is_bipartite

        lg = build(explicit_params(DESK, seed=1))
        assert is_bipartite(bipartite_variant(lg))


class TestWeighting:
    def test_total_is_num_layers(self):
        lg = build(explicit_params(DESK, seed=0))
        w = paper_weighting(lg)
        assert total_weight(w) == Fraction(4)
        assert w[0] == Fraction(1, 256)
        assert w[339] == Fraction(1, 4)
