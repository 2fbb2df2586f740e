import random
import re
from fractions import Fraction

import pytest

from regfree.construction import bipartite_variant, build, explicit_params
from regfree.density import _reduced_network
from regfree.flow import FlowNetwork
from regfree.graph import Graph

from helpers import dinic_reference, reference_levels


def _diamond() -> FlowNetwork:
    # 0 -> {1, 2} -> 3, with a cross arc 1 -> 2
    net = FlowNetwork(4)
    net.add_edge(0, 1, 4)
    net.add_edge(0, 2, 2)
    net.add_edge(1, 2, 1)
    net.add_edge(1, 3, 2)
    net.add_edge(2, 3, 3)
    return net


def _three_nodes() -> FlowNetwork:
    net = FlowNetwork(3)
    net.add_edge(0, 1, 5)
    net.add_edge(1, 2, 5)
    return net


class TestMaxFlow:
    def test_value_and_cut(self):
        net = _diamond()
        assert net.max_flow(0, 3) == 5
        assert net.min_cut_source_side(0) == [0, 1]

    def test_reverse_capacity_carries_flow(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 0, 4)
        assert net.max_flow(1, 0) == 4

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="negative capacity"):
            FlowNetwork(2).add_edge(0, 1, -1)


class TestNodeIds:
    def test_negative_source_rejected(self):
        # -1 used to index the last node and return 0
        with pytest.raises(ValueError, match=r"node ids \[-1\]"):
            _three_nodes().max_flow(-1, 1)

    def test_source_equal_to_sink_rejected(self):
        # used to crash on min() of an empty path
        with pytest.raises(ValueError, match="same node 0"):
            _three_nodes().max_flow(0, 0)

    def test_sink_past_the_end_rejected(self):
        # used to raise IndexError
        with pytest.raises(ValueError, match=r"node ids \[3\]"):
            _three_nodes().max_flow(0, 3)

    @pytest.mark.parametrize("u, v", [(0, 3), (-1, 2), (4, -2)])
    def test_add_edge_rejects_ids_out_of_range(self, u, v):
        net = _three_nodes()
        bad = [x for x in (u, v) if not 0 <= x < 3]
        with pytest.raises(ValueError, match=re.escape(f"node ids {bad}")):
            net.add_edge(u, v, 1)
        assert net.max_flow(0, 2) == 5  # the network is unchanged

    def test_cut_rejects_source_out_of_range(self):
        net = _three_nodes()
        net.max_flow(0, 2)
        with pytest.raises(ValueError, match=r"node ids \[-1\]"):
            net.min_cut_source_side(-1)


class TestExactInputs:
    """Capacities and node ids are exactly ints, so every cut is an exact
    integer cut: max_flow used to return 1.5, 1 and 1/2 for the first three
    capacities below."""

    @pytest.mark.parametrize(
        "args, named",
        [
            ((0, 1, 1.5), "capacity 1.5"),
            ((0, 1, True), "capacity True"),
            ((0, 1, Fraction(1, 2)), "capacity Fraction(1, 2)"),
            ((0, 1, 1, 2.0), "capacity 2.0"),
            ((0.0, 1, 1), "node id 0.0"),  # used to raise a bare TypeError
            ((0, True, 1), "node id True"),
        ],
    )
    def test_non_int_rejected(self, args, named):
        net = FlowNetwork(2)
        with pytest.raises(ValueError, match=re.escape(f"{named} is not an int")):
            net.add_edge(*args)
        assert net.to == [] and net.max_flow(0, 1) == 0


def _random_arcs(rng: random.Random, n: int, isolated_sink: bool) -> list:
    """Arcs (u, v, cap, rcap) on nodes 0..n-1, with parallel arcs, reverse
    and zero capacities; none touches the sink n - 1 if isolated_sink."""
    ends = n - 1 if isolated_sink else n
    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(ends), rng.randrange(ends)
        cap = rng.choice([0, 0, 1, 2, 3, 7])
        rcap = rng.choice([0, 0, 0, 1, 4])
        arcs.append((u, v, cap, rcap))
        if rng.random() < 0.2:  # a parallel arc
            arcs.append((u, v, rng.randint(0, 5), 0))
    return arcs


def _network(n: int, arcs: list) -> FlowNetwork:
    net = FlowNetwork(n)
    for arc in arcs:
        net.add_edge(*arc)
    return net


def _assert_maximum_flow(net: FlowNetwork, before: list, s: int, t: int,
                         value: int) -> None:
    """net.cap is the residual of a valid s-t flow of the given value on
    capacities before, and no residual path leads from s to t."""
    cap, to = net.cap, net.to
    assert all(c >= 0 for c in cap)
    excess = [0] * net.n
    for a in range(0, len(cap), 2):
        assert cap[a] + cap[a + 1] == before[a] + before[a + 1]
        f = before[a] - cap[a]  # flow from to[a + 1] to to[a]
        excess[to[a]] += f
        excess[to[a + 1]] -= f
    assert excess[t] == value == -excess[s]
    assert all(x == 0 for v, x in enumerate(excess) if v not in (s, t))
    assert reference_levels(net, s)[t] < 0


class TestKernelOracle:
    """max_flow against Dinic: the same flow value, the same minimal minimum
    cut, and a valid maximum flow, whose residual capacities need not be
    Dinic's."""

    def _assert_same(self, build_net, s: int, t: int) -> int:
        ref, net = build_net(), build_net()
        value, cut = dinic_reference(ref, s, t)
        before = net.cap[:]
        assert net.max_flow(s, t) == value
        _assert_maximum_flow(net, before, s, t, value)
        assert net.min_cut_source_side(s) == cut
        return value

    def test_random_networks(self):
        rng = random.Random(29)
        zero_flows = 0
        for i in range(240):
            n = rng.randint(2, 12)
            arcs = _random_arcs(rng, n, isolated_sink=i % 6 == 0)
            value = self._assert_same(lambda: _network(n, arcs), 0, n - 1)
            zero_flows += value == 0
        assert zero_flows >= 40  # every sixth network has an isolated sink

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_round_of_every_prefix(self, seed):
        lg = build(explicit_params([256, 64, 16, 4], seed=seed))
        for g in (lg.graph, bipartite_variant(lg)):
            for end in lg.layer_starts[1:]:
                prefix = Graph(end, [e for e in g.edges if e[1] < end])
                guess = Fraction(prefix.num_edges, end)
                self._assert_same(
                    lambda: _reduced_network(
                        prefix, guess.numerator, guess.denominator
                    )[0],
                    end,
                    end + 1,
                )


def _clique_to_sink(k: int, m: int, fillers: int = 0) -> FlowNetwork:
    """s = 0 and nodes 2..k+1 joined pairwise by capacity 5 both ways, an
    arc of capacity 1 from node 2 to t = 1, a path of m nodes into t that
    nothing reaches, and isolated fillers."""
    clique = [0] + list(range(2, k + 2))
    net = FlowNetwork(k + m + 2 + fillers)
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            net.add_edge(u, v, 5, 5)
    net.add_edge(2, 1, 1)
    for v in range(k + 2, k + m + 2):
        net.add_edge(v, v - 1 if v > k + 2 else 1, 1)
    return net


class TestKernelExits:
    """Each way max_flow ends or restarts, on a network built to take it,
    counted in reverse BFS passes: one to start and one per global
    relabel."""

    @pytest.fixture(autouse=True)
    def count_passes(self, monkeypatch):
        self.passes = 0
        levels = FlowNetwork._levels

        def counting(net, root, into=False):
            self.passes += into
            return levels(net, root, into)

        monkeypatch.setattr(FlowNetwork, "_levels", counting)

    def _run(self, net: FlowNetwork, s: int, t: int) -> tuple[int, int]:
        before = net.cap[:]
        value = net.max_flow(s, t)
        _assert_maximum_flow(net, before, s, t, value)
        return value, self.passes

    def test_gap(self):
        # after the one unit, node 2 is the only node at label 1; without
        # the gap rule the clique climbs label by label past the 4 fillers
        # and needs a global relabel to stop
        net = _clique_to_sink(2, 0, fillers=4)
        assert self._run(net, 0, 1) == (1, 1)
        assert net.min_cut_source_side(0) == [0, 2, 3]

    def test_global_relabel(self):
        # the path into t keeps labels 0..3 occupied, so no gap opens
        # before the clique has made n relabels
        net = _clique_to_sink(3, 3)
        assert self._run(net, 0, 1) == (1, 2)
        assert net.min_cut_source_side(0) == [0, 2, 3, 4]

    def test_isolated_sink(self):
        net = _network(4, [(0, 1, 5), (1, 2, 5), (2, 0, 1)])
        assert self._run(net, 0, 3) == (0, 1)
        assert net.min_cut_source_side(0) == [0, 1, 2]

    def test_direct_arc(self):
        net = _diamond()
        net.add_edge(0, 3, 3)
        assert self._run(net, 0, 3) == (8, 1)
        assert net.min_cut_source_side(0) == [0, 1]


class TestCutReuse:
    """min_cut_source_side searches the residual network as it stands, from
    the source it is given: before any max_flow, after one, after add_edge
    and from another node."""

    def test_before_any_max_flow(self):
        assert _diamond().min_cut_source_side(0) == [0, 1, 2, 3]

    def test_after_max_flow(self):
        net = _diamond()
        net.max_flow(0, 3)
        assert net.min_cut_source_side(0) == [0, 1]

    def test_after_add_edge(self):
        net = _diamond()
        net.max_flow(0, 3)
        # 0 -> 1 has one unit left, and from 3 the reverse of 2 -> 3 leads on
        net.add_edge(1, 3, 4)
        assert net.min_cut_source_side(0) == [0, 1, 2, 3]

    def test_other_source(self):
        net = _diamond()
        net.max_flow(0, 3)
        # 2 -> 3 is saturated; the reverse arcs lead back to 0 and 1
        assert net.min_cut_source_side(2) == [0, 1, 2]
