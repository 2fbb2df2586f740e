"""The library's own checks must survive `python -O`, which strips every
`assert` statement, so none may appear in src/regfree."""

import ast
from pathlib import Path

import regfree

PACKAGE = Path(regfree.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the library: {found}"
