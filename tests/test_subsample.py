import math
import random
from fractions import Fraction

import pytest

from regfree.construction import build, explicit_params, paper_weighting
from regfree.graph import degeneracy, find_triangle, induced_subgraph
from regfree.subsample import (
    SubsampleParams,
    claim_probability_bounds,
    harris_subsample,
)

from helpers import complete_graph, random_graph


def unit_w(g):
    return {v: Fraction(1) for v in range(g.n)}


class TestParams:
    def test_bad_p(self):
        with pytest.raises(ValueError):
            SubsampleParams(p=Fraction(3, 2), degen_threshold=1, seed=0)

    def test_float_p_rejected(self):
        with pytest.raises(ValueError, match="0.25"):
            SubsampleParams(p=0.25, degen_threshold=2, seed=0)

    @pytest.mark.parametrize("p", [True, False])
    def test_bool_p_rejected(self, p):
        # True used to run silently as p = 1
        with pytest.raises(ValueError, match=f"got {p}"):
            SubsampleParams(p=p, degen_threshold=2, seed=0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            SubsampleParams(p=Fraction(1, 2), degen_threshold=0, seed=0)

    @pytest.mark.parametrize(
        "threshold, seed, bad",
        [
            (2.5, 0, "degen_threshold"),
            (True, 0, "degen_threshold"),
            (2, 0.5, "seed"),
            (2, True, "seed"),
        ],
    )
    def test_non_int_threshold_or_seed_rejected(self, threshold, seed, bad):
        # a float seed used to crash inside SplitMix64, and a float or bool
        # threshold ran silently as its truncation
        with pytest.raises(ValueError, match=bad):
            SubsampleParams(Fraction(1, 2), threshold, seed)


class TestHarrisSubsample:
    def test_invariants_on_construction(self):
        lg = build(explicit_params([64, 16, 4], seed=0))
        d, ordering = degeneracy(lg.graph)
        w = paper_weighting(lg)
        for seed in range(30):
            params = SubsampleParams(p=Fraction(1, 4), degen_threshold=max(d, 1), seed=seed)
            res = harris_subsample(lg.graph, ordering, params, w)
            assert set(res.x) <= set(res.y)
            sub = induced_subgraph(lg.graph, list(res.x))
            assert find_triangle(sub) is None
            assert degeneracy(sub)[0] <= params.degen_threshold
            assert res.retained_weight == sum(
                (w[v] for v in res.x), Fraction(0)
            )

    def test_invariants_on_dense_random_graphs(self):
        rng = random.Random(6)
        for trial in range(20):
            g = random_graph(rng, 25, 0.4)
            d, ordering = degeneracy(g)
            params = SubsampleParams(p=Fraction(1, 2), degen_threshold=2, seed=trial)
            res = harris_subsample(g, ordering, params, unit_w(g))
            sub = induced_subgraph(g, list(res.x))
            assert find_triangle(sub) is None
            assert degeneracy(sub)[0] <= 2

    def test_determinism(self):
        g = random_graph(random.Random(1), 20, 0.3)
        _, ordering = degeneracy(g)
        params = SubsampleParams(p=Fraction(1, 3), degen_threshold=2, seed=9)
        a = harris_subsample(g, ordering, params, unit_w(g))
        b = harris_subsample(g, ordering, params, unit_w(g))
        assert a == b

    def test_p_zero_and_one(self):
        g = complete_graph(4)
        _, ordering = degeneracy(g)
        res0 = harris_subsample(
            g, ordering, SubsampleParams(Fraction(0), 1, 0), unit_w(g)
        )
        assert res0.y == () and res0.x == ()
        res1 = harris_subsample(
            g, ordering, SubsampleParams(Fraction(1), 1, 0), unit_w(g)
        )
        assert res1.y == (0, 1, 2, 3)
        # in K4 only the first two ordering positions can survive: the third
        # already has two back-neighbors in Y, over the threshold of 1
        assert len(res1.x) == 2

    def test_ordering_mismatch_rejected(self):
        g = complete_graph(4)
        _, ordering = degeneracy(complete_graph(5))
        with pytest.raises(ValueError):
            harris_subsample(g, ordering, SubsampleParams(Fraction(1, 2), 1, 0), {})

    def test_empirical_rate_vs_claim_bounds(self):
        # Pr[v in X] >= p * (1 - markov - indep); check each vertex against
        # the empirical frequency over many seeds, minus 3 sigma
        lg = build(explicit_params([32, 8, 2], seed=0))
        g = lg.graph
        d, ordering = degeneracy(g)
        p = Fraction(1, 4)
        trials = 400
        counts = [0] * g.n
        for seed in range(trials):
            params = SubsampleParams(p=p, degen_threshold=max(d, 1), seed=seed)
            res = harris_subsample(g, ordering, params, unit_w(g))
            for v in res.x:
                counts[v] += 1
        for v in range(g.n):
            mb, ib = claim_probability_bounds(
                g, ordering, SubsampleParams(p, max(d, 1), 0), v
            )
            q = float(p) * max(0.0, 1.0 - float(mb) - float(ib))
            if q <= 0:
                continue
            sigma = math.sqrt(q * (1 - q) / trials)
            assert counts[v] / trials >= q - 3 * sigma


class TestClaimBounds:
    def test_values_on_k4(self):
        g = complete_graph(4)
        _, ordering = degeneracy(g)
        params = SubsampleParams(Fraction(1, 2), 2, 0)
        v_last = ordering.order[-1]
        mb, ib = claim_probability_bounds(g, ordering, params, v_last)
        # back-neighborhood of the last vertex is the other three, which
        # induce a triangle
        assert mb == Fraction(1, 2) * Fraction(3, 2)
        assert ib == Fraction(1, 4) * 3
