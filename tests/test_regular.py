import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfree.construction import bipartite_variant, build, explicit_params
from regfree.graph import Graph
from regfree.regular import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND,
    RegularWitness,
    _ComponentSearch,
    find_k_regular,
    verify_witness,
)

from helpers import (
    ReferenceKernel,
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

    @pytest.mark.parametrize("v", [999, 3, -1])
    def test_rejects_vertex_outside_graph(self, v):
        # a lone vertex with no edges is 0-regular, whatever its id
        assert not verify_witness(complete_graph(3), RegularWitness((v,), (), 0))

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

    @pytest.mark.parametrize(
        "k, budget", [(2.5, 10), (3.0, 10), (True, 10), (3, True), (3, 10.0)]
    )
    def test_non_int_args_rejected(self, k, budget):
        # exact type: a float or bool k would name a different question
        with pytest.raises(ValueError, match="must be an integer"):
            find_k_regular(complete_graph(4), k, budget=budget)


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


def _kernel_cases():
    """(graph, k): simple graphs on 2-8 vertices, k in 1..4."""
    return st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.sampled_from(list(itertools.combinations(range(n), 2))),
                unique=True,
                max_size=20,
            ).map(lambda es: Graph(n, es)),
            st.integers(1, 4),
        )
    )


class TestKernelMatchesReference:
    """The search's single propagation loop against the per-edge kernel it
    replaced, on random branch decisions: after every decision the same
    edge states, counts, contradiction verdict and trail, and undoing to
    the root restores the initial state."""

    @staticmethod
    def state(kernel):
        return kernel.estate, kernel.chosen, kernel.avail, kernel.trail

    @settings(max_examples=300, deadline=None)
    @given(_kernel_cases(), st.data())
    def test_random_decisions(self, case, data):
        g, k = case
        new, ref = _ComponentSearch(g, k), ReferenceKernel(g, k)
        root = tuple(list(x) for x in self.state(new))
        marks: list[int] = []
        for _ in range(data.draw(st.integers(0, 12))):
            undecided = [e for e, s in enumerate(new.estate) if s == 0]
            if not undecided:
                break
            eid = data.draw(st.sampled_from(undecided))
            choice = data.draw(st.sampled_from((1, -1)))
            marks.append(len(new.trail))
            ok = ref.decide(eid, choice)
            assert new._decide(eid, choice) == ok
            assert self.state(new) == self.state(ref)
            if not ok or data.draw(st.booleans()):
                # backtrack as the search does: to the mark of a decision
                i = data.draw(st.integers(0, len(marks) - 1))
                new._undo_to(marks[i])
                ref.undo_to(marks[i])
                del marks[i:]
                assert self.state(new) == self.state(ref)
        new._undo_to(0)
        assert self.state(new) == root
