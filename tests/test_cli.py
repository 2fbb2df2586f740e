import csv
import json

import pytest

from regfree import cli
from regfree.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    frac_str,
    main,
    run_checks,
)
from regfree.construction import build, explicit_params
from regfree.fractional import chi_f_exact
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
        code, _, err = run(["construct", "--paper-n", "1000"], capsys)
        assert code == EXIT_ERROR and "error:" in err


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
        # a column cap of 1 forces the limit that chif reports with exit 2
        monkeypatch.setattr(
            cli, "chi_f_exact", lambda g: chi_f_exact(g, column_limit=1)
        )
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

    def test_seed_errors_exit_nonzero(self, tmp_path, capsys):
        # a zero-size layer makes every seed raise inside run_checks
        prefix = tmp_path / "sweep"
        code, out, err = run(
            ["sweep", "--sizes", "4,0", "--seeds", "0:3", "--checks", "degeneracy",
             "--out", str(prefix)],
            capsys,
        )
        assert code == EXIT_ERROR and "3 of 3 seeds" in err
        recs = [json.loads(x) for x in (tmp_path / "sweep.ndjson").read_text().splitlines()]
        assert len(recs) == 3 and all(r["error"] for r in recs)
        with open(tmp_path / "sweep.csv") as fh:
            assert ["degeneracy", "0", "0", ""] in list(csv.reader(fh))

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
