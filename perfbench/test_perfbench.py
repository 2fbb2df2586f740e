"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

env.bootstrap()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_the_union_of_children():
    s = [
        _span("bench.run", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] is covered
        _span("c", 2.0, 2.5, 1),
        _span("d", 8.0, 12.0, 0),  # runs past its parent: clipped to [8, 10]
    ]
    assert spans.self_times(s) == pytest.approx([3.0, 2.5, 3.0, 0.5, 4.0])


def test_self_times_and_overhead_add_up_to_the_traced_wall():
    s = [
        _span("bench.setup", 0.0, 1.0),
        _span("construction.build", 0.1, 0.6, 0),
        _span("bench.run", 1.0, 5.0),
        _span("density.certificate", 1.2, 4.0, 2),
        _span("density.max_density", 1.5, 3.5, 3),
        _span("flow.max_flow", 1.6, 2.0, 4),
        _span("flow.max_flow", 2.5, 3.0, 4),
    ]
    m = spans.layer_metrics(s)
    assert m["bench.traced_wall_s"] == pytest.approx(5.0)
    assert m["bench.overhead_s"] == pytest.approx(0.5 + 1.2)
    assert m["flow.max_flow_s"] == pytest.approx(0.9)
    assert m["density.max_density_self_s"] == pytest.approx(1.1)
    assert m["density.certificate_s"] == pytest.approx(0.8)
    assert m["density.goldberg_rounds"] == 2
    attributed = sum(m[name] for name in spans.SELF_TIME)
    assert attributed + m["bench.overhead_s"] == pytest.approx(m["bench.traced_wall_s"])


def _recorded_steps(wl, seed):
    want = workloads.load_expected(wl)[seed]
    return want, [(op, json.loads(json.dumps(want[op])), None) for op in wl.ops]


def test_output_check_flags_an_altered_rational():
    wl = workloads.WORKLOADS["chif-exact-42"]
    want, steps = _recorded_steps(wl, 0)
    assert workloads.check_instance(wl, 0, steps, None, want).failed == 0
    altered = dict(want, chi_f={"chi_f": "7/2"})
    checked = workloads.check_instance(wl, 0, steps, None, altered)
    assert checked.failed == 1
    assert "chi_f" in checked.problems[0] and "7/2" in checked.problems[0]


def test_output_check_flags_an_altered_prefix_density():
    wl = workloads.WORKLOADS["sweep-340"]
    want, steps = _recorded_steps(wl, 0)
    prefixes = [list(p) for p in want["certify4"]["prefixes"]]
    num, den = map(int, prefixes[-1][2].split("/"))
    prefixes[-1][2] = f"{num + 1}/{den}"
    altered = dict(want, certify4=dict(want["certify4"], prefixes=prefixes))
    checked = workloads.check_instance(wl, 0, steps, None, altered)
    assert checked.failed == 1 and "certify4" in checked.problems[0]


def test_failed_validation_and_exception_count_as_failures():
    wl = workloads.WORKLOADS["sweep-340"]
    want, steps = _recorded_steps(wl, 1)
    steps[0] = (steps[0][0], steps[0][1], lambda: False)
    checked = workloads.check_instance(wl, 1, steps[:3], "RuntimeError()", want)
    # one failed validation, the raising op and the two after it
    assert (checked.attempted, checked.failed) == (6, 4)
    assert checked.budget_exceeded == 1


def test_resolved_budget_hit_is_accepted_but_a_new_one_is_not():
    budget, found = {"outcome": "budget_exceeded"}, {"outcome": "found"}
    assert workloads.mismatch(budget, found) is None
    assert workloads.mismatch(budget, {"outcome": "not_found"}) is None
    assert workloads.mismatch(found, budget) is not None


def _attributes():
    import importlib

    out = []
    for module, cls, attr, *_ in spans.TARGETS:
        owner = importlib.import_module(f"regfree.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        out.append(owner.__dict__[attr])
    return out


def test_wrappers_are_gone_after_a_traced_run():
    before = _attributes()
    wl = workloads.Workload("tiny", (8, 4, 2), range(0, 1), ("chi_f",), workloads._chif_exact_steps)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert all(a is not b for a, b in zip(_attributes(), before))
        with tracer.span("bench.run"):
            lg = wl.build(0)
            steps = list(wl.run(lg, 0))
    assert all(a is b for a, b in zip(_attributes(), before))
    names = {s[0] for s in tracer.spans}
    assert {"construction.build", "fractional.chi_f_exact", "simplex.solve_max",
            "fractional.mwis"} <= names
    m = spans.layer_metrics(tracer.spans)
    assert m["simplex.solves"] == m["fractional.mwis_calls"] > 0
    assert m["fractional.columns_generated"] >= lg.graph.n
    assert steps[0][2]()  # the primal colouring re-validates


def test_wrappers_are_gone_after_an_exception():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError
    assert all(a is b for a, b in zip(_attributes(), before))


@pytest.mark.parametrize(
    "n, value, pct, beyond",
    [
        (1, 1.0, 50.0, 0),
        (2, 1.5, 50.0, 1),
        (3, 2.0, 50.0, 1),
        (12, 6.5, 50.0, 6),
        (20, 10.5, 50.0, 10),
        (21, 11.0, 100.0 * 11 / 21, 10),
        (22, 12.0, 100.0 * 12 / 22, 10),
        (100, 90.0, 90.0, 10),
    ],
)
def test_tail_percentile_selection(n, value, pct, beyond):
    samples = [float(i) for i in range(n, 0, -1)]  # the k-th smallest is k
    got = run.tail(samples)
    assert got == pytest.approx((value, pct, beyond))
    assert got[0] >= statistics.median(samples)
