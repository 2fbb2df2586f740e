"""The benchmark's workloads: which instances each one builds, which
library operations it runs on every instance, and how their outputs are
normalised and checked against the values recorded at the parent commit.

Every library call goes through a module attribute (`graph.degeneracy`,
not a name imported from it), so the tracing wrappers see it.  Import this
module only after env.bootstrap() has put the checkout's src/ on the path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import mpmath as mp

from regfree import bounds, construction, density, fractional, graph, regular, subsample

from env import HERE

EXPECTED_DIR = HERE / "expected"

SUBSAMPLE_P = Fraction(1, 4)
CERTIFY_TRIALS = 3
REPLAY_REG = ((2, 1), (2, 10), (2, 100), (3, 1), (3, 10), (3, 100))  # (i, x)
REPLAY_FRAC = (1, "0.5")  # (i, p_i)

# One step of an instance: (operation name, normalised output, validator).
# The validator re-checks the raw result independently of the recorded
# values; it runs outside the timed region.
Step = tuple[str, dict, Optional[Callable[[], bool]]]


@dataclass(frozen=True)
class Workload:
    name: str
    ladder: tuple[int, ...]
    seeds: range
    ops: tuple[str, ...]
    steps: Callable[["Workload", object, int], Iterator[Step]]
    budget: Optional[int] = None

    def build(self, seed: int):
        lg = construction.build(construction.explicit_params(self.ladder, seed=seed))
        lg.check_invariants()
        return lg

    def run(self, lg, seed: int) -> Iterator[Step]:
        return self.steps(self, lg, seed)


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# --- operations ----------------------------------------------------------


def _degeneracy(g):
    d, ordering = graph.degeneracy(g)
    step = (
        "degeneracy",
        {"degeneracy": d},
        lambda: ordering.back_degree_bound == d and ordering.verify(g),
    )
    return d, ordering, step


def _certificate(op: str, outcome) -> Step:
    prefixes = [
        [
            p.i,
            p.prefix_size,
            None if p.max_density is None else frac_str(p.max_density),
            p.below_threshold,
            p.active,
            p.side_condition_ok,
        ]
        for p in outcome.prefixes
    ]
    return op, {"verdict": outcome.verdict, "prefixes": prefixes}, None


def _subsample(op: str, g, ordering, d: int, seed: int, w) -> Step:
    params = subsample.SubsampleParams(
        p=SUBSAMPLE_P, degen_threshold=max(d, 1), seed=seed
    )
    res = subsample.harris_subsample(g, ordering, params, w)
    value = {
        "x_size": len(res.x),
        "y_size": len(res.y),
        "retained_weight": frac_str(res.retained_weight),
    }
    return op, value, None


def _detect(op: str, g, k: int, budget: int) -> Step:
    res = regular.find_k_regular(g, k, budget=budget)
    wit = res.witness

    def valid() -> bool:
        if res.outcome != regular.FOUND:
            return wit is None
        return wit.k == k and regular.verify_witness(g, wit)

    return op, {"outcome": res.outcome}, valid


def _replay() -> Step:
    log_n = mp.exp(40)  # n = e^(e^40), the regime of acceptance criterion 8
    reg = [bounds.reg_chain(log_n=log_n, i=i, x=x).all_hold for i, x in REPLAY_REG]
    i, p_i = REPLAY_FRAC
    frac = bounds.frac_chain(log_n=log_n, i=i, p_i=mp.mpf(p_i)).all_hold
    union = bounds.union_bounds(log_n=log_n).all_hold
    return "replay", {"reg": reg, "frac": frac, "union": union}, None


def _certify_steps(wl: Workload, lg, seed: int) -> Iterator[Step]:
    g = lg.graph
    d, ordering, step = _degeneracy(g)
    yield step
    yield _certificate("certify4", density.prefix_certificate_4reg(lg))
    yield _certificate("certify3", density.prefix_certificate_3reg_bipartite(lg))
    w = construction.paper_weighting(lg)
    for t in range(CERTIFY_TRIALS):
        yield _subsample(f"subsample.{t}", g, ordering, d, seed + t, w)
    yield _replay()


def _sweep_steps(wl: Workload, lg, seed: int) -> Iterator[Step]:
    # the checks of `regfree sweep`, with a fixed detector budget
    g = lg.graph
    d, ordering, step = _degeneracy(g)
    yield step
    yield _detect("detect4", g, 4, wl.budget)
    yield _detect("detect3", construction.bipartite_variant(lg), 3, wl.budget)
    yield _certificate("certify4", density.prefix_certificate_4reg(lg))
    yield _certificate("certify3", density.prefix_certificate_3reg_bipartite(lg))
    yield _subsample("subsample", g, ordering, d, seed, construction.paper_weighting(lg))


def _chif_exact_steps(wl: Workload, lg, seed: int) -> Iterator[Step]:
    g = lg.graph
    value, primal, dual = fractional.chi_f_exact(g)

    def valid() -> bool:
        return (
            primal.value == value
            and primal.validate(g)
            and dual.value == value
            and all(x >= 0 for x in dual.weights.values())
        )

    yield "chi_f", {"chi_f": frac_str(value)}, valid


def _chif_lb_steps(wl: Workload, lg, seed: int) -> Iterator[Step]:
    w = construction.paper_weighting(lg)
    lb = fractional.chi_f_lower_bound(lg.graph, w)
    yield "chi_f_lower_bound", {"chi_f_lower_bound": frac_str(lb)}, None


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "certify-5456",
            (4096, 1024, 256, 64, 16),
            range(0, 4),
            ("degeneracy", "certify4", "certify3")
            + tuple(f"subsample.{t}" for t in range(CERTIFY_TRIALS))
            + ("replay",),
            _certify_steps,
        ),
        Workload(
            "sweep-340",
            (256, 64, 16, 4),
            range(0, 12),
            ("degeneracy", "detect4", "detect3", "certify4", "certify3", "subsample"),
            _sweep_steps,
            budget=10_000,
        ),
        Workload("chif-exact-42", (32, 8, 2), range(0, 24), ("chi_f",), _chif_exact_steps),
        Workload(
            "chif-lb-126", (96, 24, 6), range(0, 5), ("chi_f_lower_bound",), _chif_lb_steps
        ),
    )
}


# --- expected outputs ----------------------------------------------------


def describe(wl: Workload) -> dict:
    """The parameters an expected-output file must have been recorded with."""
    return {
        "workload": wl.name,
        "ladder": list(wl.ladder),
        "seeds": [wl.seeds.start, wl.seeds.stop],
        "budget": wl.budget,
        "ops": list(wl.ops),
    }


def expected_path(wl: Workload):
    return EXPECTED_DIR / f"{wl.name}.json"


def load_expected(wl: Workload) -> dict[int, dict]:
    doc = json.loads(expected_path(wl).read_text())
    if {k: doc.get(k) for k in describe(wl)} != describe(wl):
        raise ValueError(f"{expected_path(wl)} was recorded for other parameters")
    return {int(seed): ops for seed, ops in doc["instances"].items()}


# --- output check ----------------------------------------------------------


def mismatch(want: dict, got: dict) -> Optional[str]:
    """None when got agrees with the recorded want, else a description.

    Values are compared, not byte images.  The one allowed difference is a
    detector search that hit its budget at the parent commit and now
    finishes within the same budget: its witness is re-validated instead.
    """
    if (
        want.get("outcome") == regular.BUDGET_EXCEEDED
        and got.get("outcome") in (regular.FOUND, regular.NOT_FOUND)
    ):
        return None
    if want == got:
        return None
    return f"expected {json.dumps(want)}, got {json.dumps(got)}"


@dataclass
class Checked:
    attempted: int
    failed: int
    budget_exceeded: int
    problems: list[str]


def check_instance(
    wl: Workload, seed: int, steps: list[Step], error: Optional[str], want: dict
) -> Checked:
    """Check one instance's steps against the recorded outputs.

    A failure is an exception, an output that differs from the recorded
    one, or a failed independent re-validation.  Operations an exception
    kept from running count as failed too.  Budget hits that match the
    recorded outcome are inconclusive results, not failures; they are
    counted separately.
    """
    problems = []
    budget_exceeded = 0
    for op, value, validate in steps:
        why = mismatch(want[op], value)
        if why is None and validate is not None and not validate():
            why = "independent re-validation failed"
        if why is not None:
            problems.append(f"seed {seed} {op}: {why}")
        if value.get("outcome") == regular.BUDGET_EXCEEDED:
            budget_exceeded += 1
    failed = len(problems) + len(wl.ops) - len(steps)
    if error is not None:
        problems.append(f"seed {seed}: raised {error} after {len(steps)} operations")
        failed = max(failed, 1)
    return Checked(len(wl.ops), failed, budget_exceeded, problems)
