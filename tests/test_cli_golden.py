"""Golden CLI output: the exact bytes every subcommand prints on fixed
seeds, compared with the files in tests/golden/.

A refactor of the library or the CLI must leave these bytes unchanged.
Re-record only for an intended change of output, and say why in the commit:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from regfree.cli import EXIT_INCONCLUSIVE, EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

# The graph files the cases read, built with `construct --out`.
INPUTS = {
    "desk.json": ["--sizes", "256,64,16,4", "--seed", "0"],
    "small.json": ["--sizes", "16,4", "--seed", "1"],
    "ladder.json": ["--sizes", "32,8,2", "--seed", "0"],
}

# case name -> (argv, expected exit code); "{desk}" etc. name an input file.
CASES = {
    "construct": (["construct", "--sizes", "256,64,16,4", "--seed", "0"], EXIT_OK),
    "detect3": (["detect-regular", "--k", "3", "--in", "{desk}"], EXIT_OK),
    # a budget too small to decide pins the inconclusive outcome
    "detect3_budget": (
        ["detect-regular", "--k", "3", "--in", "{desk}", "--budget", "100"],
        EXIT_INCONCLUSIVE,
    ),
    "detect4": (["detect-regular", "--k", "4", "--in", "{desk}"], EXIT_OK),
    "certify3": (["certify", "--k", "3", "--in", "{desk}"], EXIT_INCONCLUSIVE),
    "certify4": (["certify", "--k", "4", "--in", "{desk}"], EXIT_INCONCLUSIVE),
    "degeneracy": (["degeneracy", "--in", "{desk}"], EXIT_OK),
    "subsample": (
        ["subsample", "--in", "{desk}", "--p", "1/4", "--trials", "3"],
        EXIT_OK,
    ),
    "chif": (["chif", "--in", "{small}"], EXIT_OK),
    "chif_lb": (["chif", "--in", "{ladder}", "--lower-bound"], EXIT_OK),
    "bounds_reg": (
        ["bounds", "reg", "--n", "e^e^40", "--i", "2", "--x", "10"],
        EXIT_OK,
    ),
    "bounds_frac": (
        ["bounds", "frac", "--n", "e^e^40", "--i", "1", "--p-i", "0.5"],
        EXIT_OK,
    ),
    "bounds_union": (["bounds", "union", "--n", "e^e^40"], EXIT_OK),
}

SWEEP = ["sweep", "--sizes", "16,4", "--seeds", "0:3"]


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _make_inputs(workdir: Path) -> dict[str, str]:
    paths = {}
    for name, args in INPUTS.items():
        path = workdir / name
        code, _ = _run(["construct", *args, "--out", str(path)])
        if code != EXIT_OK:
            raise RuntimeError(f"construct {args} exited {code}")
        paths[name.removesuffix(".json")] = str(path)
    return paths


def _case_output(name: str, paths: dict[str, str]) -> tuple[int, str]:
    argv, _ = CASES[name]
    return _run([a.format(**paths) for a in argv])


def _sweep_output(workdir: Path) -> tuple[int, str, bytes]:
    """Exit code, the NDJSON without its timing field, and the CSV."""
    prefix = workdir / "sweep"
    code, _ = _run([*SWEEP, "--out", str(prefix)])
    lines = []
    for line in Path(f"{prefix}.ndjson").read_text().splitlines():
        rec = json.loads(line)
        del rec["elapsed_s"]
        lines.append(json.dumps(rec, separators=(",", ":")) + "\n")
    return code, "".join(lines), Path(f"{prefix}.csv").read_bytes()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _make_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_output(name, inputs):
    code, out = _case_output(name, inputs)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_construct_out_file_matches_stdout(inputs):
    text = Path(inputs["desk"]).read_text()
    assert text == (GOLDEN / "construct.out").read_text()


def test_sweep_output(tmp_path):
    code, ndjson, table = _sweep_output(tmp_path)
    assert code == EXIT_OK
    assert ndjson == (GOLDEN / "sweep.ndjson").read_text()
    assert table == (GOLDEN / "sweep.csv").read_bytes()


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        paths = _make_inputs(workdir)
        for name in CASES:
            _, out = _case_output(name, paths)
            (GOLDEN / f"{name}.out").write_text(out)
        _, ndjson, table = _sweep_output(workdir)
        (GOLDEN / "sweep.ndjson").write_text(ndjson)
        (GOLDEN / "sweep.csv").write_bytes(table)


if __name__ == "__main__":
    record()
