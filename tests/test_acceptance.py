"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its tolerance and runtime cap.  Everything exact is compared with zero
tolerance; the only statistical check (criterion 7) states its 3-sigma rule
inline.  Oracles live in helpers.py and share no code with the library
algorithms they judge.
"""

import json
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from regfree.bounds import reg_chain, union_bounds
from regfree.cli import main as cli_main
from regfree.construction import (
    bipartite_variant,
    build,
    explicit_params,
    paper_weighting,
    total_weight,
)
from regfree.density import (
    CERTIFIED,
    INCONCLUSIVE,
    max_density_subgraph,
    prefix_certificate_3reg_bipartite,
    prefix_certificate_4reg,
)
from regfree.fractional import chi_f_exact, chi_f_lower_bound, mwis
from regfree.graph import (
    Graph,
    degeneracy,
    find_triangle,
    induced_subgraph,
)
from regfree.regular import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND,
    find_k_regular,
    verify_witness,
)
from regfree.subsample import (
    SubsampleParams,
    claim_probability_bounds,
    harris_subsample,
)

from helpers import (
    brute_k_regular_exists,
    brute_max_density,
    brute_mwis,
    chi_f_oracle,
    complete_graph,
    cube_graph,
    cycle_graph,
    petersen_graph,
    random_graph,
    random_tree,
)

DESK_SIZES = [256, 64, 16, 4]
DESK_SEEDS = 100


def _run(capsys, num: int, desc: str, tolerance: str, cap_s, body):
    """body may return a string, which is appended to desc on a pass."""
    t0 = time.monotonic()
    try:
        desc += body() or ""
        dt = time.monotonic() - t0
        if cap_s is not None:
            assert dt < cap_s, f"runtime {dt:.1f}s exceeds cap {cap_s}s"
    except BaseException:
        dt = time.monotonic() - t0
        with capsys.disabled():
            print(
                f"criterion {num}: FAIL ({desc}; tolerance: {tolerance}; "
                f"{dt:.1f}s)",
                flush=True,
            )
        raise
    cap = f", {dt:.1f}s < {cap_s}s cap" if cap_s is not None else f", {dt:.1f}s"
    with capsys.disabled():
        print(
            f"criterion {num}: PASS ({desc}; tolerance: {tolerance}{cap})",
            flush=True,
        )


@pytest.fixture(scope="module")
def desk_instances():
    return [build(explicit_params(DESK_SIZES, seed=s)) for s in range(DESK_SEEDS)]


def test_criterion_1_chi_f_exactness(capsys):
    def body():
        for n in range(1, 9):
            value, _, _ = chi_f_exact(complete_graph(n))
            assert value == n
        rng = random.Random(1001)
        for _ in range(10):  # bipartite with at least one edge
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            edges = [
                (u, a + v)
                for u in range(a)
                for v in range(b)
                if rng.random() < 0.6
            ] or [(0, a)]
            value, _, _ = chi_f_exact(Graph(a + b, edges))
            assert value == 2
        for g in (cycle_graph(5), petersen_graph()):
            value, _, _ = chi_f_exact(g)
            assert value == Fraction(5, 2)
        for trial in range(100):
            rng2 = random.Random(2000 + trial)
            g = random_graph(rng2, rng2.randint(1, 9), rng2.uniform(0.1, 0.9))
            value, primal, dual = chi_f_exact(g)
            assert value == chi_f_oracle(g)
            assert primal.validate(g) and dual.value == value

    _run(
        capsys,
        1,
        "chi_f_exact vs closed forms and full-LP oracle on 100 graphs <= 9 vertices",
        "zero (exact rationals)",
        60,
        body,
    )


def test_criterion_2_mwis_and_density_oracles(capsys):
    def body():
        for trial in range(200):
            rng = random.Random(3000 + trial)
            n = rng.randint(1, 14)
            g = random_graph(rng, n, rng.uniform(0.1, 0.8))
            w = {
                v: Fraction(rng.randint(0, 9), rng.randint(1, 5))
                for v in range(n)
            }
            vs, best = mwis(g, w)
            exp_w, exp_set = brute_mwis(g, w)
            assert best == exp_w and vs == exp_set
            rep = max_density_subgraph(g)
            assert rep.density == brute_max_density(g)
            sub = induced_subgraph(g, list(rep.subgraph))
            assert sub.num_edges == rep.num_edges

    _run(
        capsys,
        2,
        "mwis and max_density_subgraph vs exhaustive enumeration on 200 graphs <= 14 vertices",
        "zero (exact rationals)",
        120,
        body,
    )


def test_criterion_3_regular_detector(capsys):
    def body():
        for trial in range(200):
            rng = random.Random(4000 + trial)
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.uniform(0.2, 0.95))
            for k in (3, 4):
                res = find_k_regular(g, k)
                assert res.outcome in (FOUND, NOT_FOUND)
                assert (res.outcome == FOUND) == brute_k_regular_exists(g, k)
                if res.outcome == FOUND:
                    assert verify_witness(g, res.witness)
        for g, k in ((complete_graph(5), 4), (petersen_graph(), 3), (cube_graph(), 3)):
            res = find_k_regular(g, k)
            assert res.outcome == FOUND and verify_witness(g, res.witness)
        rng = random.Random(5)
        for _ in range(20):
            t = random_tree(rng, rng.randint(2, 12))
            for k in (2, 3, 4):
                assert find_k_regular(t, k).outcome == NOT_FOUND
        for n in range(3, 12):
            assert find_k_regular(cycle_graph(n), 3).outcome == NOT_FOUND

    _run(
        capsys,
        3,
        "detector vs (vertex,edge)-subset enumeration, k in {3,4}, 200 graphs <= 8 vertices, plus named cases",
        "zero (exact search)",
        120,
        body,
    )


def test_criterion_4_construction_invariants(capsys, desk_instances):
    def body():
        for seed, lg in enumerate(desk_instances):
            lg.check_invariants()  # independent layers, one per later layer
            assert lg.graph.num_edges == 256 * 3 + 64 * 2 + 16 * 1 == 912
            assert degeneracy(lg.graph)[0] <= 3
            rebuilt = build(explicit_params(DESK_SIZES, seed=seed))
            assert rebuilt.graph.to_json(layers=DESK_SIZES) == lg.graph.to_json(
                layers=DESK_SIZES
            )

    _run(
        capsys,
        4,
        f"construction invariants, e(G)=912, degeneracy <= 3, byte-identical rebuild over {DESK_SEEDS} seeds of {DESK_SIZES}",
        "zero",
        None,
        body,
    )


def test_criterion_5_certificate_soundness(capsys, desk_instances):
    def body():
        excluded = []
        certified = {4: 0, 3: 0}
        verdict3 = []
        for seed, lg in enumerate(desk_instances):
            out4 = prefix_certificate_4reg(lg)
            if out4.verdict == CERTIFIED:
                certified[4] += 1
                res = find_k_regular(lg.graph, 4, budget=10_000_000)
                if res.outcome == BUDGET_EXCEEDED:
                    excluded.append((seed, 4))
                else:
                    assert res.outcome == NOT_FOUND, f"soundness broken at seed {seed}"
            out3 = prefix_certificate_3reg_bipartite(lg)
            verdict3.append(out3.verdict)
            if out3.verdict == CERTIFIED:
                certified[3] += 1
                res = find_k_regular(bipartite_variant(lg), 3, budget=10_000_000)
                if res.outcome == BUDGET_EXCEEDED:
                    excluded.append((seed, 3))
                else:
                    assert res.outcome == NOT_FOUND, f"soundness broken at seed {seed}"
        # the contrapositive: an instance with a verified witness never
        # certifies; every seed of the benchmark's sweep has one
        for seed in range(12):
            g3 = bipartite_variant(desk_instances[seed])
            res = find_k_regular(g3, 3, budget=10_000)
            assert res.outcome == FOUND and verify_witness(g3, res.witness)
            assert verdict3[seed] == INCONCLUSIVE, f"seed {seed} has a witness yet certified"
        if excluded:
            with capsys.disabled():
                print(f"criterion 5 note: budget-exceeded instances excluded: {excluded}")
        return (
            f", Certified on {certified[4]} (k=4) and {certified[3]} (k=3) of them;"
            " seeds 0-11 hold a verified 3-regular witness and are Inconclusive (k=3)"
        )

    _run(
        capsys,
        5,
        f"Certified => detector NotFound (4-reg and 3-reg bipartite) over {DESK_SEEDS} seeds",
        "zero violations; BudgetExceeded excluded and reported",
        None,
        body,
    )


def test_criterion_6_paper_weighting_lower_bound(capsys):
    def body():
        for seed in range(50):
            lg = build(explicit_params([32, 8, 2], seed=seed))
            w = paper_weighting(lg)
            assert total_weight(w) == Fraction(3)
            lb = chi_f_lower_bound(lg.graph, w)
            value, _, _ = chi_f_exact(lg.graph)
            assert lb <= value
            assert value == 3

    _run(
        capsys,
        6,
        "chi_f_lower_bound(paper_weighting) <= chi_f_exact = 3 and total weight = 3, sizes [32,8,2], 50 seeds",
        "zero (exact rationals)",
        60,
        body,
    )


def test_criterion_7_subsample_invariants(capsys, desk_instances):
    def body():
        lg = desk_instances[0]
        g = lg.graph
        d, ordering = degeneracy(g)
        p = Fraction(1, 4)
        trials = 1000
        counts = [0] * g.n
        for seed in range(trials):
            params = SubsampleParams(p=p, degen_threshold=max(d, 1), seed=seed)
            res = harris_subsample(g, ordering, params, paper_weighting(lg))
            # independent re-verification, not trusting the library's own
            sub = induced_subgraph(g, list(res.x))
            assert find_triangle(sub) is None
            assert degeneracy(sub)[0] <= params.degen_threshold
            for v in res.x:
                counts[v] += 1
        checked = 0
        for v in range(g.n):
            mb, ib = claim_probability_bounds(
                g, ordering, SubsampleParams(p, max(d, 1), 0), v
            )
            q = float(p) * (1.0 - float(mb) - float(ib))
            if q <= 0:
                continue
            sigma = math.sqrt(q * (1 - q) / trials)
            assert counts[v] / trials >= q - 3 * sigma, f"vertex {v}"
            checked += 1
        assert checked > 0

    _run(
        capsys,
        7,
        "1000 seeded subsample runs: triangle-free + back-degree invariants exact; per-vertex rate >= p(1-mb-ib) - 3 sigma",
        "zero on invariants; 3-sigma on rates",
        None,
        body,
    )


def test_criterion_8_bounds_replay(capsys):
    def body():
        log_n = mp.exp(40)  # n = e^(e^40)
        for i in (2, 3):
            for x in (1, 10, 100):
                rep = reg_chain(log_n=log_n, i=i, x=x, dps=70)
                assert rep.all_hold, (i, x, rep.first_failure)
                ident = next(s for s in rep.steps if s.is_identity)
                scale = max(1, abs(ident.left))
                assert abs(ident.left - ident.right) <= scale * mp.mpf(10) ** -50
        ub = union_bounds(log_n=log_n, dps=70)
        assert ub.all_hold
        scale = abs(ub.geometric_closed)
        assert abs(ub.geometric_partial - ub.geometric_closed) <= scale * mp.mpf(10) ** -50

    _run(
        capsys,
        8,
        "reg_chain holds at n=e^(e^40) for i in {2,3}, x in {1,10,100}; identity and geometric closure agree to 50 digits",
        "50 significant digits",
        None,
        body,
    )


def test_criterion_9_round_trip_and_determinism(capsys, desk_instances, tmp_path):
    def body():
        for lg in desk_instances[:25]:
            text = lg.graph.to_json(layers=lg.layer_sizes)
            g2, layers = Graph.from_json(text)
            assert g2 == lg.graph and tuple(layers) == lg.layer_sizes
            assert g2.to_json(layers=layers) == text
        argv_base = [
            "sweep",
            "--sizes",
            "32,8,2",
            "--seeds",
            "0:5",
            "--checks",
            "degeneracy,detect4,detect3,certify4,certify3,chif_lb,subsample",
        ]
        for name in ("a", "b"):
            assert cli_main(argv_base + ["--out", str(tmp_path / name)]) in (0, 2)

        def stripped(path):
            recs = []
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                rec.pop("elapsed_s")
                recs.append(json.dumps(rec, sort_keys=True))
            return recs

        assert stripped(tmp_path / "a.ndjson") == stripped(tmp_path / "b.ndjson")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    _run(
        capsys,
        9,
        "JSON round-trip identity on generated graphs; sweep re-run byte-identical apart from timings",
        "zero (byte equality)",
        None,
        body,
    )
