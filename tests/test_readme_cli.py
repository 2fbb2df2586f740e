"""Every `regfree ...` command in README's CLI block parses with the CLI's
own parser, so a renamed or removed option cannot linger in the docs."""

from __future__ import annotations

import shlex
from pathlib import Path

from regfree.cli import make_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_commands() -> list[list[str]]:
    """argv of each command, with continuation lines joined."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("regfree ")
    ]


def test_readme_commands_parse():
    commands = cli_commands()
    assert len(commands) >= 10  # the block was found
    bad = []
    for argv in commands:
        try:
            make_parser().parse_args(argv)
        except SystemExit:
            bad.append(" ".join(argv))
    assert not bad, f"README commands that do not parse: {bad}"
