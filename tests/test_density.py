import random
from fractions import Fraction

import pytest

from regfree import flow
from regfree.construction import bipartite_variant, build, explicit_params
from regfree.density import (
    CERTIFIED,
    EmptyGraph,
    INCONCLUSIVE,
    max_density_subgraph,
    prefix_certificate_3reg_bipartite,
    prefix_certificate_4reg,
)
from regfree.graph import Graph, induced_subgraph
from regfree.regular import FOUND, NOT_FOUND, find_k_regular, verify_witness

from helpers import (
    brute_max_density,
    complete_graph,
    cycle_graph,
    goldberg_reference,
    path_graph,
    petersen_graph,
    random_graph,
    random_tree,
    shallow_stack,
)


class TestMaxDensity:
    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            max_density_subgraph(Graph(0, []))

    def test_edgeless(self):
        rep = max_density_subgraph(Graph(4, []))
        assert rep.density == 0 and rep.num_edges == 0

    def test_edgeless_returns_every_vertex(self):
        rep = max_density_subgraph(Graph(3, []))
        assert (rep.subgraph, rep.num_edges, rep.density) == ((0, 1, 2), 0, 0)

    def test_k4(self):
        rep = max_density_subgraph(complete_graph(4))
        assert rep.density == Fraction(3, 2)
        assert rep.subgraph == (0, 1, 2, 3)

    def test_cycle(self):
        assert max_density_subgraph(cycle_graph(9)).density == Fraction(1)

    def test_path(self):
        assert max_density_subgraph(path_graph(6)).density == Fraction(5, 6)

    def test_long_path_needs_no_deep_stack(self):
        with shallow_stack():
            rep = max_density_subgraph(path_graph(200))
        assert rep.density == Fraction(199, 200)

    def test_k5_plus_pendant(self):
        g = Graph(6, [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5)])
        rep = max_density_subgraph(g)
        assert rep.density == Fraction(2)
        assert rep.subgraph == (0, 1, 2, 3, 4)

    def test_petersen(self):
        assert max_density_subgraph(petersen_graph()).density == Fraction(3, 2)

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.uniform(0.1, 0.8))
            rep = max_density_subgraph(g)
            assert rep.density == brute_max_density(g)
            # the reported set really attains the reported density
            sub = induced_subgraph(g, list(rep.subgraph))
            assert rep.num_edges == sub.num_edges
            if rep.density > 0:
                assert Fraction(sub.num_edges, sub.n) == rep.density


def _prefixes(lg, g: Graph) -> list[Graph]:
    """The layer prefixes of g: layers 1..i for every i."""
    return [induced_subgraph(g, range(end)) for end in lg.layer_starts[1:]]


class TestReducedNetwork:
    """The reduced network with its greedy first flow has the same minimum
    cuts as Goldberg's full-capacity one, so every round's candidate set,
    the round count and the report are the same."""

    @pytest.fixture
    def max_flow_calls(self, monkeypatch):
        calls = []
        max_flow = flow.FlowNetwork.max_flow

        def counting(net, s, t):
            calls.append((s, t))
            return max_flow(net, s, t)

        monkeypatch.setattr(flow.FlowNetwork, "max_flow", counting)
        return calls

    def _assert_same(self, g: Graph, calls: list) -> None:
        calls.clear()
        rep = max_density_subgraph(g)
        reduced = len(calls)
        calls.clear()
        assert rep == goldberg_reference(g)
        assert rep.rounds == reduced == len(calls)

    def test_random_graphs(self, max_flow_calls):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(1, 14)
            g = random_graph(rng, n, rng.uniform(0.05, 0.9))
            self._assert_same(g, max_flow_calls)

    @pytest.mark.parametrize("sizes", [[32, 8, 2], [96, 24, 6], [256, 64, 16, 4]])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_prefix(self, sizes, seed, max_flow_calls):
        lg = build(explicit_params(sizes, seed=seed))
        for g in (lg.graph, bipartite_variant(lg)):
            for prefix in _prefixes(lg, g):
                self._assert_same(prefix, max_flow_calls)


class TestRounds:
    """DensityReport.rounds counts the Goldberg guesses, one max flow each:
    per layer prefix, (vertices, rounds, maximum density)."""

    @pytest.mark.parametrize(
        "sizes, rows",
        [
            ([32, 8, 2], [(32, 1, "0"), (40, 3, "7/8"), (42, 2, "19/11")]),
            (
                [4096, 1024, 256, 64, 16],
                [
                    (4096, 1, "0"),
                    (5120, 7, "12/13"),
                    (5376, 2, "8259/4783"),
                    (5440, 2, "13042/4847"),
                    (5456, 2, "5963/1621"),
                ],
            ),
        ],
    )
    def test_rounds_per_prefix(self, sizes, rows):
        lg = build(explicit_params(sizes, seed=0))
        seen = []
        for prefix in _prefixes(lg, lg.graph):
            rep = max_density_subgraph(prefix)
            seen.append((prefix.n, rep.rounds, str(rep.density)))
        assert seen == rows


class TestPrefixCertificates:
    def test_single_layer_certifies(self):
        # one edgeless layer: every prefix density is 0 < 11/10
        lg = build(explicit_params([600], seed=0))
        out = prefix_certificate_4reg(lg)
        assert out.verdict == CERTIFIED
        assert find_k_regular(lg.graph, 4).outcome == NOT_FOUND

    def test_desk_ladder_is_inconclusive(self):
        # the asymptotic density bound fails at desk scale; the verdict must
        # be honest about it
        lg = build(explicit_params([256, 64, 16, 4], seed=0))
        out = prefix_certificate_4reg(lg)
        assert out.verdict == INCONCLUSIVE
        dense = [p for p in out.prefixes if p.max_density is not None]
        assert dense and any(not p.below_threshold for p in dense)

    def test_prefix_structure(self):
        lg = build(explicit_params([256, 64, 16, 4], seed=3))
        out = prefix_certificate_4reg(lg)
        # indices 0..C+1, prefix sizes are the cumulative layer sums
        assert [p.i for p in out.prefixes] == [0, 1, 2, 3, 4, 5]
        assert [p.prefix_size for p in out.prefixes] == [0, 0, 256, 320, 336, 340]
        for p in out.prefixes:
            if p.active:
                assert p.side_condition_ok is not None
            else:
                assert p.side_condition_ok is None

    def test_activity_brackets(self):
        # s in (1000|B_{i+1}|, 1000|B_i|] intersected with [1, |V|];
        # with |V| = 340 only i with 1000|B_{i+1}| < 340 can fire
        lg = build(explicit_params([256, 64, 16, 4], seed=0))
        out = prefix_certificate_4reg(lg)
        active = {p.i for p in out.prefixes if p.active}
        assert active == {4}  # 1000*|B_5| = 0 < s <= min(1000*|B_4|, 340)

    def test_bipartite_certificate_runs(self):
        lg = build(explicit_params([256, 64, 16, 4], seed=0))
        out = prefix_certificate_3reg_bipartite(lg)
        assert out.k == 3
        assert out.verdict in (CERTIFIED, INCONCLUSIVE)

    def test_certified_implies_not_found_when_it_happens(self):
        # tall single-layer and two-layer ladders where the certificate can
        # actually fire
        for sizes in ([600], [800, 1]):
            for seed in range(5):
                lg = build(explicit_params(sizes, seed=seed))
                out = prefix_certificate_4reg(lg)
                if out.verdict == CERTIFIED:
                    assert find_k_regular(lg.graph, 4).outcome == NOT_FOUND

    def test_instance_with_a_4_regular_subgraph_is_inconclusive(self):
        # the detector finds a 4-regular subgraph here, so a Certified verdict
        # would be false; a density threshold of 3 used to certify it
        lg = build(explicit_params([8, 8, 8, 8, 8, 8], seed=1))
        res = find_k_regular(lg.graph, 4)
        assert res.outcome == FOUND and verify_witness(lg.graph, res.witness)
        assert prefix_certificate_4reg(lg).verdict == INCONCLUSIVE
