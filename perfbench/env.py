"""Process set-up shared by the benchmark scripts: put the checkout's own
`src/` first on the import path, pin the environment, and describe the
machine and source tree a result came from."""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


MODULES = ("bounds", "construction", "density", "fractional", "regular", "subsample")
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import "
    + ", ".join(f"regfree.{m}" for m in MODULES)
    + "; print(time.perf_counter() - t)"
)


class MissingSources(RuntimeError):
    pass


def _pinned_environ() -> dict:
    environ = dict(os.environ)
    environ.pop("REGFREE_PRECISION", None)
    environ["PYTHONPATH"] = str(SRC)
    return environ


def import_seconds() -> float:
    """Time to import regfree (and with it mpmath) in a fresh interpreter.

    A module imports once per process, so repeated measurements need a new
    process each; the child is waited for before this returns."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT,
        env=_pinned_environ(),
        stdout=subprocess.PIPE,
        check=True,
        text=True,
        timeout=120,
    ).stdout
    return float(out)


def bootstrap() -> None:
    """Import regfree from ROOT/src.

    REGFREE_PRECISION is unset first, so the replay runs at the library's
    default of 50 digits.  Raises MissingSources when the checkout has no
    regfree package, or when the import resolves to a copy elsewhere.
    """
    if not (SRC / "regfree" / "__init__.py").is_file():
        raise MissingSources(f"no regfree package under {SRC}")
    os.environ.pop("REGFREE_PRECISION", None)
    sys.path.insert(0, str(SRC))
    for module in MODULES:
        importlib.import_module(f"regfree.{module}")
    import regfree

    if Path(regfree.__file__).resolve().parent != SRC / "regfree":
        raise MissingSources(f"regfree imported from {regfree.__file__}, not {SRC}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, so results from a checkout without
    .git can still be tied to the code that produced them."""
    h = hashlib.sha256()
    for path in sorted((SRC / "regfree").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(load1: float) -> dict:
    import mpmath

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "loadavg_1min": load1,
    }
