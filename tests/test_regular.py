import random
import sys

import pytest

from regfree.construction import bipartite_variant, build, explicit_params
from regfree.graph import Graph
from regfree.regular import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND,
    RegularWitness,
    find_k_regular,
    verify_witness,
)

from helpers import (
    brute_k_regular_exists,
    complete_graph,
    cube_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
    random_tree,
    shallow_stack,
)


class TestNamedGraphs:
    def test_k5_has_4_regular(self):
        res = find_k_regular(complete_graph(5), 4)
        assert res.outcome == FOUND
        assert verify_witness(complete_graph(5), res.witness)

    def test_petersen_is_3_regular(self):
        g = petersen_graph()
        res = find_k_regular(g, 3)
        assert res.outcome == FOUND
        assert verify_witness(g, res.witness)

    def test_petersen_has_no_4_regular(self):
        assert find_k_regular(petersen_graph(), 4).outcome == NOT_FOUND

    def test_cube_is_3_regular(self):
        res = find_k_regular(cube_graph(), 3)
        assert res.outcome == FOUND
        assert verify_witness(cube_graph(), res.witness)

    def test_cycle_has_2_regular_not_3(self):
        c = cycle_graph(7)
        assert find_k_regular(c, 2).outcome == FOUND
        assert find_k_regular(c, 3).outcome == NOT_FOUND

    def test_trees_have_nothing(self):
        rng = random.Random(1)
        for _ in range(10):
            t = random_tree(rng, rng.randint(2, 15))
            for k in (2, 3):
                assert find_k_regular(t, k).outcome == NOT_FOUND

    def test_two_triangles_sharing_a_vertex(self):
        # 2-regular subgraph exists (either triangle) even though the shared
        # vertex has degree 4
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        res = find_k_regular(g, 2)
        assert res.outcome == FOUND
        assert verify_witness(g, res.witness)
        assert len(res.witness.vertices) == 3

    def test_leaves_recursion_limit_alone(self):
        g = cycle_graph(3000)
        with shallow_stack():
            limit = sys.getrecursionlimit()
            res = find_k_regular(g, 2)
            assert sys.getrecursionlimit() == limit
        assert res.outcome == FOUND and verify_witness(g, res.witness)


class TestAgainstBruteForce:
    def test_random_small(self):
        rng = random.Random(55)
        for _ in range(60):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.uniform(0.3, 0.9))
            for k in (1, 2, 3, 4):
                res = find_k_regular(g, k)
                assert res.outcome in (FOUND, NOT_FOUND)
                assert (res.outcome == FOUND) == brute_k_regular_exists(g, k)
                if res.outcome == FOUND:
                    assert verify_witness(g, res.witness)


class TestWitnessChecker:
    def test_rejects_empty(self):
        assert not verify_witness(complete_graph(3), RegularWitness((), (), 2))

    def test_rejects_non_edge(self):
        g = path_graph(3)
        w = RegularWitness((0, 2), ((0, 2),), 1)
        assert not verify_witness(g, w)

    def test_rejects_duplicate_edge(self):
        g = complete_graph(3)
        w = RegularWitness((0, 1), ((0, 1), (1, 0)), 2)
        assert not verify_witness(g, w)

    def test_rejects_repeated_vertex(self):
        g = complete_graph(3)
        w = RegularWitness((0, 1, 2, 2), ((0, 1), (0, 2), (1, 2)), 2)
        assert not verify_witness(g, w)

    def test_rejects_wrong_degree(self):
        g = complete_graph(3)
        w = RegularWitness((0, 1, 2), ((0, 1), (1, 2)), 2)
        assert not verify_witness(g, w)

    def test_rejects_negative_vertex_ids(self):
        # K5 with vertex 4 renamed -1: adj[-1] would be vertex 4's list
        g = complete_graph(5)
        vs = (-1, 0, 1, 2, 3)
        es = tuple((u, v) for u in vs for v in vs if u < v)
        assert not verify_witness(g, RegularWitness(vs, es, 4))

    def test_accepts_triangle(self):
        g = complete_graph(3)
        w = RegularWitness((0, 1, 2), ((0, 1), (0, 2), (1, 2)), 2)
        assert verify_witness(g, w)


class TestBudget:
    def test_tiny_budget_on_hard_instance(self):
        rng = random.Random(2)
        g = random_graph(rng, 14, 0.6)
        res = find_k_regular(g, 3, budget=2)
        # with 2 node expansions the only decisive exit is an empty 3-core
        assert res.outcome in (FOUND, NOT_FOUND, BUDGET_EXCEEDED)
        if res.outcome == BUDGET_EXCEEDED:
            assert res.witness is None and res.nodes_expanded >= 2

    def test_bad_args(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            find_k_regular(g, 0)
        with pytest.raises(ValueError):
            find_k_regular(g, 2, budget=0)


class TestConstructionInstances:
    def test_no_4_regular_via_empty_core(self):
        for seed in range(10):
            lg = build(explicit_params([256, 64, 16, 4], seed=seed))
            res = find_k_regular(lg.graph, 4)
            # degeneracy <= 3, so the 4-core is empty and the answer is
            # instant and negative
            assert res.outcome == NOT_FOUND
            assert res.nodes_expanded == 0

    def test_bipartite_variant_3_regular_is_decided(self):
        lg = build(explicit_params([64, 16, 4], seed=0))
        res = find_k_regular(bipartite_variant(lg), 3)
        assert res.outcome in (FOUND, NOT_FOUND)
        if res.outcome == FOUND:
            assert verify_witness(bipartite_variant(lg), res.witness)
