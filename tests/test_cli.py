import csv
import json
import re

import mpmath as mp
import pytest

from regfree import bounds, cli
from regfree.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    frac_str,
    main,
    run_checks,
)
from regfree.construction import build, explicit_params
from regfree.fractional import ColumnLimitExceeded
from regfree.graph import Graph

from fractions import Fraction


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def desk_graph(tmp_path):
    path = tmp_path / "desk.json"
    code = main(["construct", "--sizes", "256,64,16,4", "--seed", "0", "--out", str(path)])
    assert code == EXIT_OK
    return path


class TestConstruct:
    def test_stdout_round_trip(self, capsys):
        code, out, _ = run(["construct", "--sizes", "8,4,2", "--seed", "3"], capsys)
        assert code == EXIT_OK
        g, layers = Graph.from_json(out)
        assert layers == [8, 4, 2]
        assert g == build(explicit_params([8, 4, 2], seed=3)).graph

    def test_requires_exactly_one_sizing(self, capsys):
        code, _, err = run(["construct"], capsys)
        assert code == EXIT_ERROR and "error:" in err

    def test_paper_n_below_regime_errors(self, capsys):
        # the asymptotic sizing is log-space only; construct has no --paper-n
        for n in ("1000", "e^e^10"):
            code, _, err = run(["construct", "--paper-n", n], capsys)
            assert code == EXIT_ERROR and "error:" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--k", "5", "--in", "g.json"],
            ["detect-regular", "--k", "4"],
            ["bogus"],
        ],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        # argparse's own code 2 would read as "inconclusive"
        code, _, err = run(argv, capsys)
        assert code == EXIT_ERROR and "error:" in err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        code, out, _ = run([flag], capsys)
        assert code == EXIT_OK and out

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["construct", "--sizes", "4,,2"], "--sizes"),
            (["sweep", "--sizes", "4,x", "--seeds", "0:1", "--out", "s"], "--sizes"),
            (["sweep", "--sizes", "4,2", "--seeds", "3", "--out", "s"], "--seeds"),
            (["bounds", "reg", "--n", "e^^3", "--i", "2", "--x", "10"], "e^^3"),
            (["bounds", "frac", "--n", "e^e^40", "--i", "1", "--p-i", "abc"], "--p-i"),
            (["subsample", "--in", "g.json", "--p", "abc"], "--p"),
            # the certificate's threshold is fixed: a larger one is unsound
            (["certify", "--k", "4", "--in", "g.json", "--threshold", "3"], "--threshold"),
            # empty runs
            (["subsample", "--in", "g.json", "--p", "1/4", "--trials", "0"], "--trials"),
            (["subsample", "--in", "g.json", "--p", "1/4", "--trials", "-1"], "--trials"),
            (["sweep", "--sizes", "4,2", "--seeds", "5:3", "--out", "s"], "--seeds"),
            (["detect-regular", "--k", "0", "--in", "g.json"], "--k"),
            (["detect-regular", "--k", "4", "--in", "g.json", "--budget", "0"], "--budget"),
            (["chif", "--in", "g.json", "--column-limit", "0"], "--column-limit"),
            (["chif", "--in", "g.json", "--column-limit", "-3"], "--column-limit"),
            # a repeated check would be run and summarised twice
            (
                [
                    "sweep", "--sizes", "4,2", "--seeds", "0:1",
                    "--checks", "degeneracy,degeneracy", "--out", "s",
                ],
                "--checks",
            ),
            # each used to escape as an mpmath or int() message, or a bare one
            (["bounds", "reg", "--n", "-5", "--i", "2", "--x", "10"], "--n"),
            (["bounds", "reg", "--n", "(-2)^0.5", "--i", "2", "--x", "10"], "--n"),
            (["bounds", "union", "--n", "inf"], "--n"),
            (["bounds", "union", "--n", "nan"], "--n"),
            (["bounds", "union", "--n", "e^e^e^e^40"], "--n"),
            (["subsample", "--in", "g.json", "--p", "1/4", "--threshold", "0"], "--threshold"),
            (["subsample", "--in", "g.json", "--p", "5/4"], "--p"),
            # a NaN p_i reached the replay and reported a step that holds
            (["bounds", "frac", "--n", "e^e^40", "--i", "1", "--p-i", "nan"], "--p-i"),
            (["bounds", "frac", "--n", "e^e^40", "--i", "1", "--p-i", "inf"], "--p-i"),
            # below the replay's domain e < n
            (["bounds", "union", "--n", "2"], "--n"),
            (["bounds", "union", "--n", "e"], "--n"),
            # read as e^e^80, the replay ran at log log n = 1600 and held
            (["bounds", "union", "--n", "(e^e^40)^2"], "--n"),
            # read as 10^10^20, the replay ran far above e and held
            (["bounds", "union", "--n=-10^10^20"], "--n"),
        ],
    )
    def test_parse_error_names_its_input(self, argv, named, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_ERROR and out == "" and named in err


    @pytest.mark.parametrize(
        "argv, options",
        [
            (["construct"], ["--sizes", "--seed", "--out"]),
            (["detect-regular"], ["--k", "--in", "--budget", "--out"]),
            (["certify"], ["--k", "--in", "--out"]),
            (["chif"], ["--in", "--lower-bound", "--column-limit", "--out"]),
            (["degeneracy"], ["--in", "--out"]),
            (["subsample"], ["--in", "--p", "--threshold", "--seed", "--trials", "--out"]),
            (["bounds", "reg"], ["--n", "--i", "--x", "--out"]),
            (["bounds", "frac"], ["--n", "--i", "--p-i", "--out"]),
            (["bounds", "union"], ["--n", "--out"]),
            (["sweep"], ["--sizes", "--seeds", "--checks", "--out"]),
        ],
    )
    def test_subcommand_help_lists_its_options(self, argv, options, capsys):
        code, out, _ = run(argv + ["--help"], capsys)
        # the "options:" lines, one per option, after "-h, --help"
        listed = re.findall(r"^  (--[\w-]+)", out, re.MULTILINE)
        assert code == EXIT_OK and sorted(listed) == sorted(options)


class TestLadderRule:
    """Every command that reads a graph file checks its layers as a ladder,
    whether or not it uses them."""

    @pytest.mark.parametrize(
        "layers, message",
        [
            ([1, 2], "must not increase"),
            ([3, 0], "must be positive"),
            ([], "at least one layer"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["degeneracy"],
            ["detect-regular", "--k", "2"],
            ["chif"],
            ["subsample", "--p", "1/4"],
        ],
    )
    def test_bad_ladder_rejected(self, argv, layers, message, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(Graph(sum(layers), []).to_json(layers=layers))
        code, out, err = run(argv + ["--in", str(path)], capsys)
        assert code == EXIT_ERROR and out == "" and message in err


class TestDetectRegular:
    def test_not_found_on_construction(self, desk_graph, capsys):
        code, out, _ = run(
            ["detect-regular", "--k", "4", "--in", str(desk_graph)], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["outcome"] == "not_found" and doc["witness"] is None

    def test_budget_exceeded_exit_code(self, desk_graph, tmp_path, capsys):
        # force an inconclusive run on a graph with a nonempty 3-core
        lg = build(explicit_params([256, 64, 16, 4], seed=0))
        path = tmp_path / "g.json"
        path.write_text(lg.graph.to_json())
        code, out, _ = run(
            ["detect-regular", "--k", "3", "--in", str(path), "--budget", "1"],
            capsys,
        )
        doc = json.loads(out)
        if doc["outcome"] == "budget_exceeded":
            assert code == EXIT_INCONCLUSIVE
        else:
            assert code == EXIT_OK


class TestCertify:
    def test_inconclusive_exit(self, desk_graph, capsys):
        code, out, _ = run(["certify", "--k", "4", "--in", str(desk_graph)], capsys)
        assert code == EXIT_INCONCLUSIVE
        doc = json.loads(out)
        assert doc["verdict"] == "inconclusive"
        assert doc["threshold"] == "11/10"

    def test_certified_exit(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        main(["construct", "--sizes", "600", "--out", str(path)])
        code, out, _ = run(["certify", "--k", "4", "--in", str(path)], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "certified"

    def test_increasing_layers_rejected(self, tmp_path, capsys):
        path = tmp_path / "up.json"
        path.write_text(Graph(6, [(0, 2)]).to_json(layers=[2, 4]))
        code, _, err = run(["certify", "--k", "4", "--in", str(path)], capsys)
        assert code == EXIT_ERROR and "increase" in err

    def test_needs_layers(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(Graph(4, [(0, 1)]).to_json())
        code, _, err = run(["certify", "--k", "4", "--in", str(path)], capsys)
        assert code == EXIT_ERROR and "layer" in err


class TestChif:
    def test_exact_on_small_ladder(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        main(["construct", "--sizes", "16,4", "--seed", "1", "--out", str(path)])
        code, out, _ = run(["chif", "--in", str(path)], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        num, den = (int(t) for t in doc["chi_f"].split("/"))
        assert Fraction(num, den) >= 1
        assert doc["columns"]

    def test_lower_bound_paper_weights(self, tmp_path, capsys):
        # exact MWIS scale: the 42-vertex ladder, not the 340-vertex one
        path = tmp_path / "ladder.json"
        main(["construct", "--sizes", "32,8,2", "--seed", "0", "--out", str(path)])
        code, out, _ = run(["chif", "--in", str(path), "--lower-bound"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["total_weight"] == "3/1"
        assert Fraction(doc["chi_f_lower_bound"]) > 1

    def test_lower_bound_unit_weights_without_layers(self, tmp_path, capsys):
        path = tmp_path / "c5.json"
        path.write_text(Graph(5, [(i, (i + 1) % 5) for i in range(5)]).to_json())
        code, out, _ = run(["chif", "--in", str(path), "--lower-bound"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["chi_f_lower_bound"], doc["total_weight"]) == ("5/2", "5/1")

    def test_lower_bound_at_desk_scale(self, desk_graph, capsys):
        # the MWIS behind it has weight 389/256 out of a total of 4
        code, out, _ = run(["chif", "--in", str(desk_graph), "--lower-bound"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["chi_f_lower_bound"], doc["total_weight"]) == ("1024/389", "4/1")


class TestDegeneracyCmd:
    def test_reports_bound(self, desk_graph, capsys):
        code, out, _ = run(["degeneracy", "--in", str(desk_graph)], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["degeneracy"] <= 3
        assert sorted(doc["ordering"]) == list(range(340))


class TestSubsampleCmd:
    def test_trials(self, desk_graph, capsys):
        code, out, _ = run(
            [
                "subsample",
                "--in",
                str(desk_graph),
                "--p",
                "1/4",
                "--trials",
                "3",
                "--seed",
                "5",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["p"] == "1/4" and len(doc["trials"]) == 3
        assert [t["seed"] for t in doc["trials"]] == [5, 6, 7]


class TestBoundsCmd:
    def test_reg(self, capsys):
        code, out, _ = run(
            ["bounds", "reg", "--n", "e^e^40", "--i", "2", "--x", "10"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_hold"] and len(doc["steps"]) == 6

    def test_frac(self, capsys):
        code, out, _ = run(
            ["bounds", "frac", "--n", "e^e^40", "--i", "1", "--p-i", "0.5"], capsys
        )
        assert code == EXIT_OK and json.loads(out)["all_hold"]

    def test_union(self, capsys):
        code, out, _ = run(["bounds", "union", "--n", "e^e^40"], capsys)
        assert code == EXIT_OK and json.loads(out)["all_hold"]

    def test_n_read_at_recheck_precision(self, capsys):
        _, out, _ = run(
            ["bounds", "reg", "--n", "e^e^10", "--i", "2", "--x", "10"], capsys
        )
        with mp.workdps(100):
            log_n = mp.exp(10)
        rep = bounds.reg_chain(log_n=log_n, i=2, x=10)
        assert json.loads(out) == json.loads(json.dumps(cli._chain_doc(rep)))

    def test_p_i_read_at_replay_precision(self, capsys):
        # 0.4 is not exact in binary: read at 15 digits it moves the chain
        _, out, _ = run(
            ["bounds", "frac", "--n", "e^e^40", "--i", "1", "--p-i", "0.4"], capsys
        )
        with mp.workdps(100):
            log_n = mp.exp(40)
        rep = bounds.frac_chain(log_n=log_n, i=1, p_i="0.4")
        assert json.loads(out) == json.loads(json.dumps(cli._chain_doc(rep)))

    def test_precision_floor(self, capsys, monkeypatch):
        # at 5 digits every step of this failing chain would "hold"
        monkeypatch.setenv("REGFREE_PRECISION", "5")
        code, out, err = run(
            ["bounds", "reg", "--n", "e^e^11", "--i", "2", "--x", "10"], capsys
        )
        assert code == EXIT_ERROR and out == "" and "20 digits" in err

    def test_bad_precision_is_named(self, capsys, monkeypatch):
        # used to escape as int()'s "invalid literal" message
        monkeypatch.setenv("REGFREE_PRECISION", "abc")
        code, out, err = run(["bounds", "union", "--n", "e^e^40"], capsys)
        assert code == EXIT_ERROR and out == "" and "REGFREE_PRECISION" in err

    def test_failing_chain_is_inconclusive(self, capsys):
        code, out, _ = run(
            ["bounds", "reg", "--n", "e^e^10", "--i", "2", "--x", "100"], capsys
        )
        assert code == EXIT_INCONCLUSIVE
        assert not json.loads(out)["all_hold"]


class TestSweep:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        prefix = tmp_path / "sweep"
        argv = [
            "sweep",
            "--sizes",
            "32,8,2",
            "--seeds",
            "0:3",
            "--checks",
            "degeneracy,detect4,chif_lb,subsample",
            "--out",
            str(prefix),
        ]
        code, _, _ = run(argv, capsys)
        assert code == EXIT_OK
        nd = (tmp_path / "sweep.ndjson").read_text().splitlines()
        assert len(nd) == 3
        recs = [json.loads(line) for line in nd]
        assert [r["seed"] for r in recs] == [0, 1, 2]
        for r in recs:
            assert r["error"] is None
            assert r["checks"]["degeneracy"]["within_bound"]
            assert r["checks"]["detect4"]["outcome"] == "not_found"
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check", "successes", "runs", "frequency"]
        assert ["degeneracy", "3", "3", "1.0"] in rows
        # re-run reproduces everything except timings
        prefix2 = tmp_path / "sweep2"
        argv2 = argv[:-1] + [str(prefix2)]
        run(argv2, capsys)
        recs2 = [
            json.loads(line)
            for line in (tmp_path / "sweep2.ndjson").read_text().splitlines()
        ]
        strip = lambda r: {k: v for k, v in r.items() if k != "elapsed_s"}
        assert [strip(r) for r in recs] == [strip(r) for r in recs2]

    def test_column_limit_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        # 16,4 is decided in the first round, so the limit is raised by a
        # stub; test_fractional's test_column_limit reaches the real one
        def limit(g):
            raise ColumnLimitExceeded(lower=Fraction(2), upper=Fraction(3), columns=1)

        monkeypatch.setattr(cli, "chi_f_exact", limit)
        prefix = tmp_path / "sweep"
        code, _, _ = run(
            ["sweep", "--sizes", "16,4", "--seeds", "0:2", "--checks", "chif_exact",
             "--out", str(prefix)],
            capsys,
        )
        assert code == EXIT_INCONCLUSIVE
        for line in (tmp_path / "sweep.ndjson").read_text().splitlines():
            rec = json.loads(line)["checks"]["chif_exact"]
            assert rec["value"] is None and "lower" in rec and "upper" in rec
        with open(tmp_path / "sweep.csv") as fh:
            assert ["chif_exact", "0", "2", "0.0"] in list(csv.reader(fh))

    def test_seed_errors_exit_nonzero(self, tmp_path, capsys, monkeypatch):
        def fail(g):
            raise RuntimeError("degeneracy failed")

        monkeypatch.setattr(cli, "degeneracy", fail)
        prefix = tmp_path / "sweep"
        code, out, err = run(
            ["sweep", "--sizes", "4,2", "--seeds", "0:3", "--checks", "degeneracy",
             "--out", str(prefix)],
            capsys,
        )
        assert code == EXIT_ERROR and "3 of 3 seeds" in err
        recs = [json.loads(x) for x in (tmp_path / "sweep.ndjson").read_text().splitlines()]
        assert len(recs) == 3 and all(r["error"] for r in recs)
        with open(tmp_path / "sweep.csv") as fh:
            assert ["degeneracy", "0", "0", ""] in list(csv.reader(fh))

    @pytest.mark.parametrize(
        "sizes, message",
        [("4,0", "must be positive"), ("2,4", "must not increase")],
    )
    def test_bad_ladder_rejected_once(self, sizes, message, tmp_path, capsys):
        prefix = tmp_path / "sweep"
        code, out, err = run(
            ["sweep", "--sizes", sizes, "--seeds", "0:3", "--out", str(prefix)],
            capsys,
        )
        assert code == EXIT_ERROR and out == ""
        assert err.count("\n") == 1 and message in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_out_wastes_no_seed(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return run_checks(*args)

        monkeypatch.setattr(cli, "run_checks", counting)
        code, out, err = run(
            ["sweep", "--sizes", "8,2", "--seeds", "0:3", "--checks", "degeneracy",
             "--out", str(tmp_path / "missing" / "s")],
            capsys,
        )
        assert code == EXIT_ERROR and "error:" in err
        assert calls == []

    def test_inconclusive_certificates(self, tmp_path, capsys):
        prefix = tmp_path / "sweep"
        code, _, _ = run(
            ["sweep", "--sizes", "32,8,2", "--seeds", "0:3", "--checks", "certify4",
             "--out", str(prefix)],
            capsys,
        )
        assert code == EXIT_INCONCLUSIVE
        recs = [json.loads(x) for x in (tmp_path / "sweep.ndjson").read_text().splitlines()]
        assert [r["checks"]["certify4"]["verdict"] for r in recs] == ["inconclusive"] * 3
        with open(tmp_path / "sweep.csv") as fh:
            assert list(csv.reader(fh))[1] == ["certify4", "0", "3", "0.0"]

    def test_found_is_conclusive_but_no_success(self, tmp_path, capsys):
        # 8,8,8,8,8,8 seed 1 has a 4-regular subgraph
        prefix = tmp_path / "sweep"
        code, _, _ = run(
            ["sweep", "--sizes", "8,8,8,8,8,8", "--seeds", "1:2", "--checks", "detect4",
             "--out", str(prefix)],
            capsys,
        )
        assert code == EXIT_OK
        (rec,) = [json.loads(x) for x in (tmp_path / "sweep.ndjson").read_text().splitlines()]
        assert rec["checks"]["detect4"] == {"outcome": "found", "nodes_expanded": 20}
        with open(tmp_path / "sweep.csv") as fh:
            assert list(csv.reader(fh))[1] == ["detect4", "0", "1", "0.0"]

    def test_budget_exceeded_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        find = cli.find_k_regular
        monkeypatch.setattr(cli, "find_k_regular", lambda g, k: find(g, k, budget=1))
        prefix = tmp_path / "sweep"
        code, _, _ = run(
            ["sweep", "--sizes", "24,8,4,2", "--seeds", "0:1", "--checks", "detect3",
             "--out", str(prefix)],
            capsys,
        )
        assert code == EXIT_INCONCLUSIVE
        (rec,) = [json.loads(x) for x in (tmp_path / "sweep.ndjson").read_text().splitlines()]
        assert rec["checks"]["detect3"]["outcome"] == "budget_exceeded"

    def test_unknown_check_rejected(self, tmp_path, capsys):
        code, _, err = run(
            ["sweep", "--sizes", "8,2", "--seeds", "0:1", "--checks", "bogus",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_ERROR and "bogus" in err


class TestHelpers:
    def test_frac_str(self):
        assert frac_str(Fraction(5, 2)) == "5/2"
        assert frac_str(Fraction(3)) == "3/1"

    def test_run_checks_deterministic(self):
        a = run_checks([32, 8, 2], 1, ("degeneracy", "chif_lb"))
        b = run_checks([32, 8, 2], 1, ("degeneracy", "chif_lb"))
        assert a == b
