import re

import pytest

from regfree.flow import FlowNetwork


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
