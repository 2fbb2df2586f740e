"""Command-line entry point.

Subcommands: construct, detect-regular, certify, chif, degeneracy,
subsample, bounds (reg/frac/union), sweep.  construct takes explicit
layer sizes only; the paper's asymptotic sizing lives in log space, in
bounds.  All rationals are serialized as "a/b" strings in lowest terms;
huge reals as decimal strings of their natural logs.

Every cmd_* returns (document, inconclusive): main alone prints the
document as indented JSON, to --out or stdout, and maps the flag to the
exit code.  construct prints its compact graph file itself and sweep
writes its two files, so both return no document.  Exit codes: 0 success,
2 inconclusive outcome present, 1 error, usage errors included; sweep
writes every record first and exits 1 if any seed raised.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from functools import partial

import mpmath as mp

from . import __version__, bounds as bounds_mod
from .construction import (
    LayeredGraph,
    build,
    bipartite_variant,
    explicit_params,
    paper_weighting,
    total_weight,
)
from .density import (
    CERTIFIED,
    INCONCLUSIVE,
    THRESHOLD,
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


def _read_graph(path: str) -> tuple[Graph, LayeredGraph | None]:
    """The graph and, when the file has layers, its layer structure: every
    command checks a file's layers as a ladder, used or not."""
    with open(path) as fh:
        g, layers = Graph.from_json(fh.read())
    return g, None if layers is None else LayeredGraph(g, layers)


def _weights(g: Graph, lg: LayeredGraph | None) -> dict[int, Fraction]:
    """The paper weighting when the file has layers, else unit weights."""
    if lg is None:
        return {v: Fraction(1) for v in range(g.n)}
    return paper_weighting(lg)


def _emit(text: str, out_path=None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _sizes(text: str) -> list[int]:
    """--sizes as integers; explicit_params checks the ladder itself."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _seed_range(text: str) -> range:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range lo:hi, got {text!r}"
        ) from None
    if hi <= lo:
        raise argparse.ArgumentTypeError(f"the range {text!r} has no seeds")
    return range(lo, hi)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _check_names(text: str) -> tuple[str, ...]:
    names = tuple(text.split(","))
    for c in names:
        if c not in ALL_CHECKS:
            raise argparse.ArgumentTypeError(f"unknown check {c!r}")
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"a check is named twice in {text!r}")
    return names


def _probability(text: str) -> Fraction:
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational such as 1/4, got {text!r}"
        ) from None
    if not 0 <= p <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text!r}")
    return p


def _n_literal(text: str) -> mp.mpf:
    """log n, read by bounds.read_log_n."""
    try:
        return bounds_mod.read_log_n(text)
    except bounds_mod.DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _real_literal(text: str) -> str:
    """Checked, but kept a string: the replay reads it at its own precision."""
    try:
        if mp.isfinite(mp.mpf(text)):
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a finite real number such as 0.4, got {text!r}"
    )


# certify --k and the sweep's certify4 and certify3 checks
CERTIFICATES = {4: prefix_certificate_4reg, 3: prefix_certificate_3reg_bipartite}


def cmd_construct(args):
    lg = build(explicit_params(args.sizes, seed=args.seed))
    lg.check_invariants()
    _emit(lg.graph.to_json(layers=lg.layer_sizes), args.out)
    return None, False


def cmd_detect_regular(args):
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
    return doc, res.outcome == BUDGET_EXCEEDED


def cmd_certify(args):
    _, lg = _read_graph(args.infile)
    if lg is None:
        raise ValueError("input file carries no layer structure")
    outcome = CERTIFICATES[args.k](lg)
    doc = {
        "k": outcome.k,
        "threshold": frac_str(THRESHOLD),
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
    return doc, outcome.verdict != CERTIFIED


def cmd_chif(args):
    g, lg = _read_graph(args.infile)
    if args.lower_bound:
        w = _weights(g, lg)
        lb = chi_f_lower_bound(g, w)
        return {
            "chi_f_lower_bound": frac_str(lb),
            "total_weight": frac_str(total_weight(w)),
        }, False
    try:
        value, primal, dual = chi_f_exact(g, column_limit=args.column_limit)
    except ColumnLimitExceeded as exc:
        return {
            "chi_f": None,
            "lower": frac_str(exc.lower),
            "upper": frac_str(exc.upper),
            "outcome": "column_limit_exceeded",
        }, True
    doc = {
        "chi_f": frac_str(value),
        "columns": [
            {"set": list(vs), "coefficient": frac_str(c)}
            for vs, c in primal.columns
        ],
        "dual": {str(v): frac_str(x) for v, x in sorted(dual.weights.items()) if x},
    }
    return doc, False


def cmd_degeneracy(args):
    g, _ = _read_graph(args.infile)
    d, ordering = degeneracy(g)
    return {"degeneracy": d, "ordering": list(ordering.order)}, False


def cmd_subsample(args):
    g, lg = _read_graph(args.infile)
    d, ordering = degeneracy(g)
    threshold = args.threshold if args.threshold is not None else max(d, 1)
    p = args.p
    w = _weights(g, lg)
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
    return doc, False


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


def cmd_bounds(args):
    if args.which == "reg":
        rep = bounds_mod.reg_chain(log_n=args.log_n, i=args.i, x=args.x)
        return _chain_doc(rep), not rep.all_hold
    if args.which == "frac":
        # a string, so each replay pass reads p_i at its own precision
        rep = bounds_mod.frac_chain(log_n=args.log_n, i=args.i, p_i=args.p_i)
        return _chain_doc(rep), not rep.all_hold
    rep = bounds_mod.union_bounds(log_n=args.log_n)
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
    return doc, not rep.all_hold


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


def _check_degeneracy(lg: LayeredGraph, seed: int):
    d, _ = degeneracy(lg.graph)
    within = d <= lg.num_layers - 1
    return {"value": d, "within_bound": within}, within, False


def _detect(k: int, lg: LayeredGraph, seed: int):
    # k = 3 asks the bipartite variant, the graph its certificate speaks of
    r = find_k_regular(lg.graph if k == 4 else bipartite_variant(lg), k)
    rec = {"outcome": r.outcome, "nodes_expanded": r.nodes_expanded}
    return rec, r.outcome == NOT_FOUND, r.outcome == BUDGET_EXCEEDED


def _certify(k: int, lg: LayeredGraph, seed: int):
    verdict = CERTIFICATES[k](lg).verdict
    return {"verdict": verdict}, verdict == CERTIFIED, verdict == INCONCLUSIVE


def _check_chif_lb(lg: LayeredGraph, seed: int):
    w = paper_weighting(lg)
    rec = {
        "value": frac_str(chi_f_lower_bound(lg.graph, w)),
        "total_weight": frac_str(total_weight(w)),
    }
    return rec, True, False


def _check_chif_exact(lg: LayeredGraph, seed: int):
    try:
        value, _, _ = chi_f_exact(lg.graph)
    except ColumnLimitExceeded as exc:
        rec = {"value": None, "lower": frac_str(exc.lower), "upper": frac_str(exc.upper)}
        return rec, False, True
    return {"value": frac_str(value)}, True, False


def _check_subsample(lg: LayeredGraph, seed: int):
    d, ordering = degeneracy(lg.graph)
    params = SubsampleParams(p=Fraction(1, 4), degen_threshold=max(d, 1), seed=seed)
    res = harris_subsample(lg.graph, ordering, params, paper_weighting(lg))
    rec = {"x_size": len(res.x), "retained_weight": frac_str(res.retained_weight)}
    return rec, True, False


# Each check maps (instance, seed) to (record, succeeded, inconclusive).
# In the order the checks run, which is also the key order of a record's
# "checks"; ALL_CHECKS is the documented order of the CSV summary.
SWEEP_CHECKS = {
    "degeneracy": _check_degeneracy,
    "detect4": partial(_detect, 4),
    "detect3": partial(_detect, 3),
    "certify4": partial(_certify, 4),
    "certify3": partial(_certify, 3),
    "chif_lb": _check_chif_lb,
    "chif_exact": _check_chif_exact,
    "subsample": _check_subsample,
}


def run_checks(sizes, seed: int, checks) -> dict:
    """One seed's (record, succeeded, inconclusive) per check; everything
    but timings is deterministic."""
    lg = build(explicit_params(sizes, seed=seed))
    lg.check_invariants()
    return {c: SWEEP_CHECKS[c](lg, seed) for c in SWEEP_CHECKS if c in checks}


def cmd_sweep(args):
    explicit_params(args.sizes)  # a bad ladder fails every seed: reject it once
    nd_path, csv_path = args.out + ".ndjson", args.out + ".csv"
    successes = {c: [] for c in args.checks}  # one bool per run, CSV row order
    inconclusive, failed = False, 0
    # both files open before the first seed, so a bad --out wastes no run
    with open(nd_path, "w") as nd, open(csv_path, "w", newline="") as fh:
        for seed in args.seeds:
            t0 = time.monotonic()
            try:
                results = run_checks(args.sizes, seed, args.checks)
                error = None
            except Exception as exc:  # per-seed errors never abort the sweep
                results, error = {}, repr(exc)
            rec = {
                "sizes": args.sizes,
                "seed": seed,
                "checks": {c: r for c, (r, _, _) in results.items()},
                "error": error,
                "elapsed_s": round(time.monotonic() - t0, 6),
                "version": __version__,
            }
            nd.write(json.dumps(rec, separators=(",", ":")) + "\n")
            for c, (_, ok, inc) in results.items():
                successes[c].append(ok)
                inconclusive |= inc
            failed += error is not None
        wtr = csv.writer(fh)
        wtr.writerow(["check", "successes", "runs", "frequency"])
        for c, oks in successes.items():
            ok = sum(oks)
            wtr.writerow([c, ok, len(oks), (ok / len(oks)) if oks else ""])
    print(f"wrote {nd_path} and {csv_path}")
    if failed:
        raise RuntimeError(f"{failed} of {len(args.seeds)} seeds raised")
    return None, inconclusive


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="regfree")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--in", dest="infile", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    p = sub.add_parser("construct", parents=[out], help="build a layered random graph")
    p.add_argument(
        "--sizes",
        type=_sizes,
        required=True,
        help="comma-separated layer sizes, e.g. 8,4,2",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "detect-regular", parents=[infile, out], help="exact k-regular subgraph search"
    )
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_detect_regular)

    p = sub.add_parser("certify", parents=[infile, out], help="prefix density certificate")
    p.add_argument("--k", type=int, required=True, choices=sorted(CERTIFICATES))
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("chif", parents=[infile, out], help="fractional chromatic number")
    p.add_argument("--lower-bound", action="store_true")
    p.add_argument("--column-limit", type=_positive_int, default=10_000)
    p.set_defaults(func=cmd_chif)

    p = sub.add_parser(
        "degeneracy", parents=[infile, out], help="degeneracy and witnessing ordering"
    )
    p.set_defaults(func=cmd_degeneracy)

    p = sub.add_parser(
        "subsample", parents=[infile, out], help="triangle-free subsampling trials"
    )
    p.add_argument(
        "--p", type=_probability, required=True, help="inclusion probability, e.g. 1/4"
    )
    p.add_argument("--threshold", type=_positive_int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("bounds", help="replay inequality chains")
    bsub = p.add_subparsers(dest="which", required=True)
    for which in ("reg", "frac", "union"):
        bp = bsub.add_parser(which, parents=[out])
        bp.add_argument("--n", dest="log_n", metavar="N", type=_n_literal,
                        required=True, help="e.g. e^e^40")
        if which in ("reg", "frac"):
            bp.add_argument("--i", type=int, required=True)
        if which == "reg":
            bp.add_argument("--x", type=int, required=True)
        if which == "frac":
            bp.add_argument("--p-i", dest="p_i", type=_real_literal, required=True)
        bp.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="seed-sweep experiments")
    p.add_argument("--sizes", type=_sizes, required=True)
    p.add_argument(
        "--seeds", type=_seed_range, required=True, help="range lo:hi (hi exclusive)"
    )
    p.add_argument(
        "--checks",
        type=_check_names,
        default=ALL_CHECKS,
        help=f"subset of {','.join(ALL_CHECKS)}",
    )
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "inconclusive" here;
        # --help and --version exit 0
        return EXIT_ERROR if exc.code == 2 else exc.code
    try:
        doc, inconclusive = args.func(args)
        if doc is not None:
            _emit(json.dumps(doc, indent=2), args.out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
