"""The library's own checks must survive `python -O`, which strips every
`assert` statement, so none may appear in src/regfree; and no search may
depend on the recursion limit, so no library function calls itself."""

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


def _callee(func):
    """f for a call f(...) or self.f(...); None for any other call."""
    if isinstance(func, ast.Name):
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
    ):
        return func.attr
    return None


def test_library_has_no_recursion():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and _callee(node.func) == fn.name:
                    found.append(f"{path.name}:{node.lineno} {fn.name}")
    assert not found, f"recursive calls in the library: {found}"
