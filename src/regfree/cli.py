"""Command-line entry point.

Subcommands: construct, detect-regular, certify, chif, degeneracy,
subsample, bounds (reg/frac/union), sweep.  All rationals are serialized
as "a/b" strings in lowest terms; huge reals as decimal strings of their
natural logs.  Exit codes: 0 success, 2 inconclusive outcome present,
1 error; sweep writes every record first and exits 1 if any seed raised.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath as mp

from . import __version__, bounds as bounds_mod
from .construction import (
    LayeredGraph,
    build,
    bipartite_variant,
    explicit_params,
    paper_params,
    paper_weighting,
    total_weight,
)
from .density import (
    CERTIFIED,
    INCONCLUSIVE,
    prefix_certificate_3reg_bipartite,
    prefix_certificate_4reg,
)
from .fractional import ColumnLimitExceeded, chi_f_exact, chi_f_lower_bound
from .graph import Graph, degeneracy
from .regular import BUDGET_EXCEEDED, DEFAULT_BUDGET, NOT_FOUND, find_k_regular
from .subsample import SubsampleParams, harris_subsample

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _read_graph(path: str):
    with open(path) as fh:
        return Graph.from_json(fh.read())


def _layered(g: Graph, layers) -> LayeredGraph:
    if layers is None:
        raise ValueError("input file carries no layer structure")
    return LayeredGraph(g, layers)


def _emit(text: str, out_path=None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_json(doc, out_path=None) -> None:
    _emit(json.dumps(doc, indent=2), out_path)


def cmd_construct(args) -> int:
    if (args.sizes is None) == (args.paper_n is None):
        raise ValueError("pass exactly one of --sizes, --paper-n")
    if args.sizes is not None:
        sizes = [int(s) for s in args.sizes.split(",")]
        params = explicit_params(sizes, seed=args.seed)
    else:
        log_n = mp.log(bounds_mod.parse_real(args.paper_n))
        params = paper_params(log_n=log_n, seed=args.seed)
    lg = build(params)
    lg.check_invariants()
    _emit(lg.graph.to_json(layers=lg.layer_sizes), args.out)
    return EXIT_OK


def cmd_detect_regular(args) -> int:
    g, _ = _read_graph(args.infile)
    res = find_k_regular(g, args.k, budget=args.budget)
    doc = {
        "outcome": res.outcome,
        "witness": None
        if res.witness is None
        else {
            "vertices": list(res.witness.vertices),
            "edges": [list(e) for e in res.witness.edges],
            "k": res.witness.k,
        },
        "nodes_expanded": res.nodes_expanded,
    }
    _emit_json(doc, args.out)
    return EXIT_INCONCLUSIVE if res.outcome == BUDGET_EXCEEDED else EXIT_OK


def cmd_certify(args) -> int:
    g, layers = _read_graph(args.infile)
    lg = _layered(g, layers)
    threshold = Fraction(args.threshold)
    if args.k == 4:
        outcome = prefix_certificate_4reg(lg, threshold)
    elif args.k == 3:
        outcome = prefix_certificate_3reg_bipartite(lg, threshold)
    else:
        raise ValueError("--k must be 3 or 4")
    doc = {
        "k": outcome.k,
        "threshold": frac_str(threshold),
        "verdict": outcome.verdict,
        "prefixes": [
            {
                "i": p.i,
                "prefix_size": p.prefix_size,
                "max_density": None if p.max_density is None else frac_str(p.max_density),
                "below_threshold": p.below_threshold,
                "active": p.active,
                "side_condition_ok": p.side_condition_ok,
            }
            for p in outcome.prefixes
        ],
    }
    _emit_json(doc, args.out)
    return EXIT_OK if outcome.verdict == CERTIFIED else EXIT_INCONCLUSIVE


def cmd_chif(args) -> int:
    g, layers = _read_graph(args.infile)
    if args.lower_bound:
        if args.weights == "paper":
            w = paper_weighting(_layered(g, layers))
        else:
            w = {v: Fraction(1) for v in range(g.n)}
        lb = chi_f_lower_bound(g, w)
        _emit_json(
            {
                "chi_f_lower_bound": frac_str(lb),
                "total_weight": frac_str(total_weight(w)),
            },
            args.out,
        )
        return EXIT_OK
    try:
        value, primal, dual = chi_f_exact(g, column_limit=args.column_limit)
    except ColumnLimitExceeded as exc:
        _emit_json(
            {
                "chi_f": None,
                "lower": frac_str(exc.lower),
                "upper": frac_str(exc.upper),
                "outcome": "column_limit_exceeded",
            },
            args.out,
        )
        return EXIT_INCONCLUSIVE
    doc = {
        "chi_f": frac_str(value),
        "columns": [
            {"set": list(vs), "coefficient": frac_str(c)}
            for vs, c in primal.columns
        ],
        "dual": {str(v): frac_str(x) for v, x in sorted(dual.weights.items()) if x},
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def cmd_degeneracy(args) -> int:
    g, _ = _read_graph(args.infile)
    d, ordering = degeneracy(g)
    _emit_json({"degeneracy": d, "ordering": list(ordering.order)}, args.out)
    return EXIT_OK


def cmd_subsample(args) -> int:
    g, layers = _read_graph(args.infile)
    d, ordering = degeneracy(g)
    threshold = args.threshold if args.threshold is not None else max(d, 1)
    p = Fraction(args.p)
    if layers is not None:
        w = paper_weighting(_layered(g, layers))
    else:
        w = {v: Fraction(1) for v in range(g.n)}
    trials = []
    total = Fraction(0)
    for t in range(args.trials):
        params = SubsampleParams(p=p, degen_threshold=threshold, seed=args.seed + t)
        res = harris_subsample(g, ordering, params, w)
        total += res.retained_weight
        trials.append(
            {
                "seed": params.seed,
                "x_size": len(res.x),
                "y_size": len(res.y),
                "retained_weight": frac_str(res.retained_weight),
            }
        )
    doc = {
        "p": frac_str(p),
        "threshold": threshold,
        "trials": trials,
        "mean_retained_weight": frac_str(total / args.trials),
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def _chain_doc(rep) -> dict:
    return {
        "steps": [
            {
                "label": s.label,
                "log_left": mp.nstr(s.left, 30),
                "log_right": mp.nstr(s.right, 30),
                "holds": s.holds,
                "identity": s.is_identity,
            }
            for s in rep.steps
        ],
        "first_failure": rep.first_failure,
        "all_hold": rep.all_hold,
        "dps": rep.dps,
    }


def cmd_bounds(args) -> int:
    log_n = mp.log(bounds_mod.parse_real(args.n))
    if args.which == "reg":
        rep = bounds_mod.reg_chain(log_n=log_n, i=args.i, x=args.x)
        _emit_json(_chain_doc(rep), args.out)
        return EXIT_OK if rep.all_hold else EXIT_INCONCLUSIVE
    if args.which == "frac":
        rep = bounds_mod.frac_chain(log_n=log_n, i=args.i, p_i=mp.mpf(args.p_i))
        _emit_json(_chain_doc(rep), args.out)
        return EXIT_OK if rep.all_hold else EXIT_INCONCLUSIVE
    rep = bounds_mod.union_bounds(log_n=log_n)
    doc = {
        "r": mp.nstr(rep.r, 30),
        "geometric_closed": mp.nstr(rep.geometric_closed, 30),
        "doubling_bound": mp.nstr(rep.doubling_bound, 30),
        "closure_holds": rep.closure_holds,
        "partial_matches": rep.partial_matches,
        "per_layer": [
            {"i": i, "log_left": mp.nstr(l, 30), "log_right": mp.nstr(r, 30), "holds": h}
            for i, l, r, h in rep.per_layer
        ],
        "all_hold": rep.all_hold,
        "dps": rep.dps,
    }
    _emit_json(doc, args.out)
    return EXIT_OK if rep.all_hold else EXIT_INCONCLUSIVE


ALL_CHECKS = (
    "certify4",
    "certify3",
    "detect4",
    "detect3",
    "chif_lb",
    "chif_exact",
    "degeneracy",
    "subsample",
)


class SweepCheck(NamedTuple):
    """One `sweep` check: how it runs on an instance, and which of its
    records count as a success or as an inconclusive outcome."""

    run: Callable[[LayeredGraph, int], dict]  # (instance, seed) -> record
    succeeded: Callable[[dict], bool]
    inconclusive: Callable[[dict], bool] = lambda rec: False


def _run_degeneracy(lg: LayeredGraph, seed: int) -> dict:
    d, _ = degeneracy(lg.graph)
    return {"value": d, "within_bound": d <= lg.num_layers - 1}


def _detect_check(k: int, graph_of) -> SweepCheck:
    def run(lg: LayeredGraph, seed: int) -> dict:
        r = find_k_regular(graph_of(lg), k)
        return {"outcome": r.outcome, "nodes_expanded": r.nodes_expanded}

    return SweepCheck(
        run,
        lambda rec: rec["outcome"] == NOT_FOUND,
        lambda rec: rec["outcome"] == BUDGET_EXCEEDED,
    )


def _certify_check(certificate) -> SweepCheck:
    return SweepCheck(
        lambda lg, seed: {"verdict": certificate(lg).verdict},
        lambda rec: rec["verdict"] == CERTIFIED,
        lambda rec: rec["verdict"] == INCONCLUSIVE,
    )


def _run_chif_lb(lg: LayeredGraph, seed: int) -> dict:
    w = paper_weighting(lg)
    return {
        "value": frac_str(chi_f_lower_bound(lg.graph, w)),
        "total_weight": frac_str(total_weight(w)),
    }


def _run_chif_exact(lg: LayeredGraph, seed: int) -> dict:
    try:
        value, _, _ = chi_f_exact(lg.graph)
    except ColumnLimitExceeded as exc:
        return {"value": None, "lower": frac_str(exc.lower), "upper": frac_str(exc.upper)}
    return {"value": frac_str(value)}


def _run_subsample(lg: LayeredGraph, seed: int) -> dict:
    d, ordering = degeneracy(lg.graph)
    params = SubsampleParams(p=Fraction(1, 4), degen_threshold=max(d, 1), seed=seed)
    res = harris_subsample(lg.graph, ordering, params, paper_weighting(lg))
    return {"x_size": len(res.x), "retained_weight": frac_str(res.retained_weight)}


# In the order the checks run, which is also the key order of a record's
# "checks"; ALL_CHECKS is the documented order of the CSV summary.
SWEEP_CHECKS = {
    "degeneracy": SweepCheck(_run_degeneracy, lambda rec: rec["within_bound"]),
    "detect4": _detect_check(4, lambda lg: lg.graph),
    "detect3": _detect_check(3, bipartite_variant),
    "certify4": _certify_check(prefix_certificate_4reg),
    "certify3": _certify_check(prefix_certificate_3reg_bipartite),
    "chif_lb": SweepCheck(_run_chif_lb, lambda rec: True),
    "chif_exact": SweepCheck(
        _run_chif_exact,
        lambda rec: rec["value"] is not None,
        lambda rec: rec["value"] is None,  # column limit hit
    ),
    "subsample": SweepCheck(_run_subsample, lambda rec: True),
}


def run_checks(sizes, seed: int, checks) -> dict:
    """One seed's worth of checks; everything but timings is deterministic."""
    lg = build(explicit_params(sizes, seed=seed))
    lg.check_invariants()
    return {c: SWEEP_CHECKS[c].run(lg, seed) for c in SWEEP_CHECKS if c in checks}


def cmd_sweep(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    lo, hi = (int(x) for x in args.seeds.split(":"))
    checks = args.checks.split(",") if args.checks else list(ALL_CHECKS)
    for c in checks:
        if c not in ALL_CHECKS:
            raise ValueError(f"unknown check {c!r}")
    records = []
    inconclusive = False
    for seed in range(lo, hi):
        t0 = time.monotonic()
        try:
            outcomes = run_checks(sizes, seed, checks)
            error = None
        except Exception as exc:  # per-seed errors never abort the sweep
            outcomes, error = {}, repr(exc)
        rec = {
            "sizes": sizes,
            "seed": seed,
            "checks": outcomes,
            "error": error,
            "elapsed_s": round(time.monotonic() - t0, 6),
            "version": __version__,
        }
        inconclusive |= any(SWEEP_CHECKS[c].inconclusive(r) for c, r in outcomes.items())
        records.append(rec)
    nd_path = args.out + ".ndjson"
    with open(nd_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    csv_path = args.out + ".csv"
    with open(csv_path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["check", "successes", "runs", "frequency"])
        for c in checks:
            runs = [rec["checks"][c] for rec in records if c in rec["checks"]]
            ok = sum(SWEEP_CHECKS[c].succeeded(r) for r in runs)
            wtr.writerow([c, ok, len(runs), (ok / len(runs)) if runs else ""])
    print(f"wrote {nd_path} and {csv_path}")
    failed = sum(rec["error"] is not None for rec in records)
    if failed:
        print(f"error: {failed} of {len(records)} seeds raised", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="regfree")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a layered random graph")
    p.add_argument("--sizes", help="comma-separated layer sizes, e.g. 8,4,2")
    p.add_argument("--paper-n", help="asymptotic sizing, e.g. e^e^10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("detect-regular", help="exact k-regular subgraph search")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect_regular)

    p = sub.add_parser("certify", help="prefix density certificate")
    p.add_argument("--k", type=int, required=True, choices=(3, 4))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--threshold", default="11/10")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("chif", help="fractional chromatic number")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lower-bound", action="store_true")
    p.add_argument("--weights", choices=("paper", "unit"), default="paper")
    p.add_argument("--column-limit", type=int, default=10_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_chif)

    p = sub.add_parser("degeneracy", help="degeneracy and witnessing ordering")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_degeneracy)

    p = sub.add_parser("subsample", help="triangle-free subsampling trials")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", required=True, help="inclusion probability, e.g. 1/4")
    p.add_argument("--threshold", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("bounds", help="replay inequality chains")
    bsub = p.add_subparsers(dest="which", required=True)
    for which in ("reg", "frac", "union"):
        bp = bsub.add_parser(which)
        bp.add_argument("--n", required=True, help="e.g. e^e^40")
        if which in ("reg", "frac"):
            bp.add_argument("--i", type=int, required=True)
        if which == "reg":
            bp.add_argument("--x", type=int, required=True)
        if which == "frac":
            bp.add_argument("--p-i", dest="p_i", required=True)
        bp.add_argument("--out")
        bp.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="seed-sweep experiments")
    p.add_argument("--sizes", required=True)
    p.add_argument("--seeds", required=True, help="range lo:hi (hi exclusive)")
    p.add_argument("--checks", help=f"subset of {','.join(ALL_CHECKS)}")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
