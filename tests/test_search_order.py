"""Pinned exploration order of the three exact searches.

The k-regular detector, Dinic max-flow and the MWIS pricer are exact, but
the witness and node count, the residual network and the tie-broken set
they return all depend on the order in which they explore.  Those values
reach the CLI output and the benchmark's work counters, so a rewrite of any
of the searches must reproduce them exactly.

The prefix certificates are pinned the same way, row by row: their rows
reach the CLI output and the benchmark's expected outputs.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from regfree import flow, fractional
from regfree.construction import (
    bipartite_variant,
    build,
    explicit_params,
    paper_weighting,
)
from regfree.density import (
    CERTIFIED,
    INCONCLUSIVE,
    max_density_subgraph,
    prefix_certificate_3reg_bipartite,
    prefix_certificate_4reg,
)
from regfree.graph import Graph, connected_components, induced_subgraph, k_core
from regfree.regular import FOUND, NOT_FOUND, find_k_regular, verify_witness

from helpers import disjoint_union


def _bipartite(sizes, seed: int) -> Graph:
    return bipartite_variant(build(explicit_params(sizes, seed=seed)))


def _core_components(g: Graph, k: int) -> int:
    core = induced_subgraph(g, k_core(g, k))
    return len(connected_components(core))


class TestDetectorOrder:
    # each bipartite variant has a nonempty, connected 3-core; the first
    # has no 3-regular subgraph, so the search must exhaust it before
    # moving on to the second component
    NO_CUBIC = _bipartite([24, 8, 4, 2], 4)

    def test_not_found_over_two_components(self):
        g = disjoint_union(self.NO_CUBIC, _bipartite([24, 8, 4, 2], 5))
        assert _core_components(g, 3) == 2
        res = find_k_regular(g, 3)
        assert (res.outcome, res.nodes_expanded) == (NOT_FOUND, 19)

    def test_found_in_second_component(self):
        g = disjoint_union(self.NO_CUBIC, _bipartite([32, 8, 4, 2], 0))
        assert _core_components(g, 3) == 2
        res = find_k_regular(g, 3)
        assert (res.outcome, res.nodes_expanded) == (FOUND, 32)
        assert verify_witness(g, res.witness)
        assert res.witness.vertices == (
            40, 47, 51, 61, 64, 65, 70, 71, 78, 80, 82, 83,
        )
        assert res.witness.edges == (
            (40, 71), (40, 78), (40, 83), (47, 70), (47, 80), (47, 82),
            (51, 71), (51, 80), (51, 82), (61, 70), (61, 78), (61, 83),
            (64, 71), (64, 80), (64, 82), (65, 70), (65, 78), (65, 83),
        )

    # seed -> (nodes, witness vertices)
    DESK = {
        0: (215, (18, 28, 36, 68, 70, 82, 86, 87, 92, 173, 184, 196, 275,
                  276, 281, 317, 322, 325, 327, 335, 336, 337, 338, 339)),
        1: (4347, (12, 37, 48, 64, 75, 80, 94, 105, 123, 164, 200, 210, 269,
                   288, 294, 309, 321, 322, 324, 334, 336, 337, 338, 339)),
        2: (184, (35, 37, 80, 121, 138, 180, 181, 210, 239, 285, 295, 307,
                  320, 323, 327, 336, 337, 339)),
        3: (263, (139, 153, 180, 184, 242, 253, 264, 279, 323, 329, 337, 339)),
        4: (722, (81, 88, 125, 147, 156, 161, 166, 171, 192, 214, 243, 251,
                  258, 266, 268, 287, 327, 328, 329, 330, 336, 337, 338, 339)),
        5: (982, (31, 58, 60, 61, 102, 115, 118, 143, 153, 180, 248, 251, 284,
                  292, 309, 319, 324, 328, 330, 332, 336, 337, 338, 339)),
        6: (164, (73, 152, 153, 313, 331, 339)),
        7: (488, (40, 43, 69, 80, 114, 128, 140, 177, 182, 192, 197, 236, 282,
                  284, 285, 295, 321, 323, 327, 328, 336, 337, 338, 339)),
        8: (80, (12, 36, 65, 68, 76, 83, 90, 125, 130, 140, 164, 245, 266, 273,
                 276, 297, 323, 324, 326, 332, 336, 337, 338, 339)),
        9: (207, (5, 10, 71, 85, 143, 155, 194, 202, 210, 225, 231, 241, 280,
                  287, 308, 313, 325, 328, 332, 333, 336, 337, 338, 339)),
        10: (4902, (30, 43, 55, 70, 110, 114, 136, 140, 156, 175, 217, 243,
                    261, 267, 268, 305, 326, 327, 328, 334, 336, 337, 338, 339)),
        11: (3756, (37, 48, 86, 124, 146, 193, 197, 216, 222, 225, 227, 235,
                    289, 297, 304, 318, 320, 321, 325, 330, 336, 337, 338, 339)),
    }

    @pytest.mark.parametrize("seed", sorted(DESK))
    def test_found_at_desk_scale(self, seed):
        """Every seed of the benchmark's detector workload finds a
        3-regular subgraph of the bipartite variant of 256,64,16,4 within
        its 10,000-node budget."""
        nodes, vertices = self.DESK[seed]
        g = _bipartite([256, 64, 16, 4], seed)
        res = find_k_regular(g, 3, budget=10_000)
        assert (res.outcome, res.nodes_expanded) == (FOUND, nodes)
        assert verify_witness(g, res.witness)
        assert res.witness.vertices == vertices

    FIVE_LAYERS = {
        0: (892, (11, 12, 19, 28, 33, 40, 50, 55, 56, 57, 60, 61)),
        1: (8393, (5, 6, 10, 16, 29, 34, 38, 47, 52, 53, 55, 57, 58, 59, 60, 61)),
        2: (300, (6, 11, 25, 32, 36, 44, 48, 50, 57, 58, 60, 61)),
    }

    @pytest.mark.parametrize("seed", sorted(FIVE_LAYERS))
    def test_4_regular_on_five_layers(self, seed):
        """k = 4 on the 5-layer ladder 32,16,8,4,2, the smallest measured
        whose 4-core is not empty, and on which every seed measured finds
        a witness within 20,000 nodes."""
        nodes, vertices = self.FIVE_LAYERS[seed]
        g = build(explicit_params([32, 16, 8, 4, 2], seed=seed)).graph
        res = find_k_regular(g, 4, budget=20_000)
        assert (res.outcome, res.nodes_expanded) == (FOUND, nodes)
        assert verify_witness(g, res.witness)
        assert res.witness.vertices == vertices


class TestDinicOrder:
    """Prefixes 3 and 4 of ladder 32,8,2 (seed 0).  The source side of a
    minimum cut does not depend on the augmenting order, but the residual
    capacities do, so those are pinned too, as a digest per Goldberg round,
    with the BFS phases that max_flow ran on top of the greedy first flow.
    On prefix 3 that flow is already maximum; on prefix 4 Dinic still runs
    two phases per round."""

    LG = build(explicit_params([32, 8, 2], seed=0))
    PINNED = {
        # event index i -> (max-density subgraph, (phases, residual digest)
        # per round)
        3: (
            (0, 1, 3, 5, 7, 10, 12, 15, 17, 19, 24, 25, 26, 28, 33, 39),
            [
                (0, "60672c0ba3a60717"),
                (0, "3b463bd80adf082b"),
                (0, "4a72b06ba219addd"),
            ],
        ),
        4: (
            (
                0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 15, 16, 17, 18, 19, 21,
                22, 23, 24, 25, 26, 28, 30, 31, 32, 33, 35, 37, 39, 40, 41,
            ),
            [(2, "4711059d68ade129"), (2, "16d62c70d71c752f")],
        ),
    }

    def test_prefix_subgraphs_and_residuals(self, monkeypatch):
        rounds = []
        searches = []
        max_flow = flow.FlowNetwork.max_flow
        levels = flow.FlowNetwork._levels

        def counting(net, s):
            searches.append(s)
            return levels(net, s)

        def recording(net, s, t):
            searches.clear()
            value = max_flow(net, s, t)
            # every BFS but the last, which finds t unreachable, is a phase
            digest = hashlib.sha256(repr(net.cap).encode()).hexdigest()[:16]
            rounds.append((len(searches) - 1, digest))
            return value

        monkeypatch.setattr(flow.FlowNetwork, "_levels", counting)
        monkeypatch.setattr(flow.FlowNetwork, "max_flow", recording)
        for i, (subgraph, pinned) in self.PINNED.items():
            rounds.clear()
            prefix = induced_subgraph(
                self.LG.graph, range(self.LG.layer_starts[i - 1])
            )
            assert max_density_subgraph(prefix).subgraph == subgraph
            assert rounds == pinned


class TestMwisOrder:
    def test_sets_priced_on_lp_duals(self):
        """The six LP duals that column generation from the singletons
        alone priced on ladder 16,4 (seed 1), and the set mwis returns on
        each.  Most weights are zero, so the lexicographic tie-break
        decides which optimal set comes back."""
        g = build(explicit_params([16, 4], seed=1)).graph
        duals = [  # (vertices of weight 1, vertices of weight 1/2)
            (range(20), ()),
            ((0, 16, 17, 18, 19), ()),
            ((1, 16, 17), ()),
            ((5, 17, 18), ()),
            ((19,), (2, 5, 17)),
            ((0, 17), ()),
        ]
        found = [
            fractional.mwis(
                g, {v: Fraction(v in ones) + Fraction(v in halves, 2) for v in range(g.n)}
            )
            for ones, halves in duals
        ]
        assert found == [
            (tuple(range(16)), Fraction(16)),
            ((0, 4, 6, 7, 10, 16, 18, 19), Fraction(4)),
            ((1, 2, 3, 9, 11, 13, 15, 16, 17), Fraction(3)),
            ((1, 3, 5, 8, 12, 14, 15, 17, 18), Fraction(3)),
            ((2, 5, 8, 9, 11, 12, 13, 14, 17, 19), Fraction(5, 2)),
            ((0,), Fraction(1)),
        ]

    def test_set_priced_by_chi_f_exact(self, monkeypatch):
        """chi_f_exact on ladder 16,4 (seed 1) starts from the two layer
        colour classes and decides in its one pricing call."""
        calls = []
        mwis = fractional.mwis

        def recording(g, w):
            found = mwis(g, w)
            zeros = sum(1 for x in w.values() if x == 0)
            calls.append((zeros, found))
            return found

        monkeypatch.setattr(fractional, "mwis", recording)
        fractional.chi_f_exact(build(explicit_params([16, 4], seed=1)).graph)
        assert calls == [
            (18, ((0, 1, 2, 3, 4, 6, 7, 9, 10, 11, 13, 15, 16), Fraction(2))),
        ]

    @pytest.mark.parametrize(
        "sizes, seed, weight, vertices",
        [
            (
                [32, 8, 2], 0, "23/16",
                (0, 1, 2, 3, 4, 5, 24, 25, 28, 30, 32, 34, 36, 37, 38, 41),
            ),
            ([32, 8, 2], 1, "21/16", (0, 7, 34, 35, 36, 37, 38, 39, 40)),
            (
                [32, 8, 2], 2, "41/32",
                (
                    0, 1, 2, 3, 4, 6, 10, 11, 13, 15, 16, 17, 19, 20, 21, 23,
                    24, 25, 26, 28, 29, 32, 34, 35, 36, 37,
                ),
            ),
            (
                [96, 24, 6], 2, "133/96",
                (
                    1, 6, 8, 9, 10, 13, 16, 18, 24, 25, 27, 28, 30, 34, 35, 36,
                    37, 38, 39, 40, 43, 44, 47, 51, 53, 56, 58, 62, 63, 64, 65,
                    69, 70, 82, 83, 84, 86, 88, 92, 94, 95, 97, 100, 101, 103,
                    105, 107, 110, 112, 114, 115, 116, 122, 123, 124,
                ),
            ),
        ],
    )
    def test_sets_under_paper_weighting(self, sizes, seed, weight, vertices):
        """The set behind each chif_lb denominator: layer weights are
        powers of two over |B_i|, so many optimal sets tie."""
        lg = build(explicit_params(sizes, seed=seed))
        vs, best = fractional.mwis(lg.graph, paper_weighting(lg))
        assert (vs, best) == (vertices, Fraction(weight))


class TestCertificateRows:
    """Every row of both prefix certificates: (i, prefix_size, max_density,
    below_threshold, active, side_condition_ok).  The ladders cover one
    layer, single-vertex tail layers, an active row whose side condition
    fails (2000,1,1,1 at i = 1), and inactive rows at or above 11/10."""

    @pytest.mark.parametrize(
        "sizes, seed, certificate, k, verdict, rows",
        [
            (
                [600], 0, prefix_certificate_4reg, 4, CERTIFIED,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, True, True),
                    (2, 600, "0", True, False, None),
                ],
            ),
            (
                [600], 0, prefix_certificate_3reg_bipartite, 3, CERTIFIED,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, True, True),
                    (2, 600, "0", True, False, None),
                ],
            ),
            (
                [800, 1], 0, prefix_certificate_4reg, 4, CERTIFIED,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 800, "0", True, True, True),
                    (3, 801, "800/801", True, False, None),
                ],
            ),
            (
                [800, 1], 0, prefix_certificate_3reg_bipartite, 3, CERTIFIED,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 800, "0", True, True, True),
                    (3, 801, "800/801", True, False, None),
                ],
            ),
            (
                [2000, 1, 1, 1], 0, prefix_certificate_4reg, 4, INCONCLUSIVE,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, True, False),
                    (2, 2000, "0", True, False, None),
                    (3, 2001, "2000/2001", True, False, None),
                    (4, 2002, "4001/2002", False, True, True),
                    (5, 2003, "6003/2003", False, False, None),
                ],
            ),
            (
                [2000, 1, 1, 1], 0, prefix_certificate_3reg_bipartite, 3, INCONCLUSIVE,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, True, False),
                    (2, 2000, "0", True, False, None),
                    (3, 2001, "2000/2001", True, False, None),
                    (4, 2002, "2000/1001", False, True, True),
                    (5, 2003, "6000/2003", False, False, None),
                ],
            ),
            (
                [1000, 10], 0, prefix_certificate_4reg, 4, CERTIFIED,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 1000, "0", True, True, True),
                    (3, 1010, "114/115", True, False, None),
                ],
            ),
            (
                [1000, 10], 0, prefix_certificate_3reg_bipartite, 3, CERTIFIED,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 1000, "0", True, True, True),
                    (3, 1010, "114/115", True, False, None),
                ],
            ),
            (
                [32, 8, 2], 0, prefix_certificate_4reg, 4, INCONCLUSIVE,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 32, "0", True, False, None),
                    (3, 40, "7/8", True, True, True),
                    (4, 42, "19/11", False, False, None),
                ],
            ),
            (
                [32, 8, 2], 0, prefix_certificate_3reg_bipartite, 3, INCONCLUSIVE,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 32, "0", True, False, None),
                    (3, 40, "7/8", True, True, True),
                    (4, 42, "46/29", False, False, None),
                ],
            ),
            (
                [256, 64, 16, 4], 3, prefix_certificate_4reg, 4, INCONCLUSIVE,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 256, "0", True, False, None),
                    (3, 320, "9/10", True, False, None),
                    (4, 336, "271/157", False, True, True),
                    (5, 340, "428/159", False, False, None),
                ],
            ),
            (
                [256, 64, 16, 4], 3, prefix_certificate_3reg_bipartite, 3, INCONCLUSIVE,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 256, "0", True, False, None),
                    (3, 320, "9/10", True, False, None),
                    (4, 336, "199/127", False, True, True),
                    (5, 340, "199/86", False, False, None),
                ],
            ),
            (
                [8] * 6, 1, prefix_certificate_4reg, 4, INCONCLUSIVE,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 8, "0", True, False, None),
                    (3, 16, "2/3", True, False, None),
                    (4, 24, "14/13", True, False, None),
                    (5, 32, "43/28", False, False, None),
                    (6, 40, "2", False, True, True),
                    (7, 48, "110/43", False, False, None),
                ],
            ),
            (
                [8] * 6, 1, prefix_certificate_3reg_bipartite, 3, INCONCLUSIVE,
                [
                    (0, 0, None, True, False, None),
                    (1, 0, None, True, False, None),
                    (2, 8, "0", True, False, None),
                    (3, 16, "2/3", True, False, None),
                    (4, 24, "8/9", True, False, None),
                    (5, 32, "1", True, False, None),
                    (6, 40, "11/9", False, True, True),
                    (7, 48, "13/10", False, False, None),
                ],
            ),
        ],
    )
    def test_rows(self, sizes, seed, certificate, k, verdict, rows):
        out = certificate(build(explicit_params(sizes, seed=seed)))
        assert (out.k, out.verdict) == (k, verdict)
        assert [
            (
                p.i,
                p.prefix_size,
                None if p.max_density is None else str(p.max_density),
                p.below_threshold,
                p.active,
                p.side_condition_ok,
            )
            for p in out.prefixes
        ] == rows
