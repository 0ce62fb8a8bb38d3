"""Which modules under ``src/repro`` run a function when every scenario runs.

Runs, in this one process and through the command lines a user would type,
every named preset on the ``sim`` transport, ``smoke`` on ``aio``, a tiny
``repro experiment`` grid, every ``examples/*.py`` and the paper benches
(``pytest benchmarks/bench_*.py --benchmark-disable``), with a profile hook
on every thread that records each code object entered.  Prints, per module,
how many of the functions it defines ran at least once, and exits 1 when a
module other than an ``__init__.py`` defines functions and none of them
ran: nothing any scenario reaches needs it.  Standard library only
(``coverage`` is not a dependency):

    python tools/reachability.py

A function counts as run when its own code object was entered; a class
body, a module body, a lambda or a comprehension does not count.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import runpy
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from types import CodeType, FrameType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _run_cli(out: Path) -> None:
    from repro.harness.cli import SCENARIOS, main

    runs = [(name, "sim") for name in SCENARIOS] + [("smoke", "aio")]
    for name, transport in runs:
        report = out / f"{name}-{transport}.json"
        if main(["--scenario", name, "--transport", transport, "--output", str(report)]):
            raise RuntimeError(f"repro --scenario {name} --transport {transport} failed")
    grid = ["experiment", "--scenarios", "smoke,free-riders", "--seeds", "11", "--repeats", "2",
            "--peers", "20", "--queries", "3", "--output-dir", str(out / "grid")]
    if main(grid):
        raise RuntimeError("repro experiment failed")


def _run_examples() -> None:
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")


def _run_benches() -> None:
    benches = [str(path) for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))]
    argv = sys.argv
    sys.argv = ["pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", *benches]
    try:
        runpy.run_module("pytest", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        if exit_.code:
            raise RuntimeError(f"the paper benches failed (pytest exit {exit_.code})") from None
    finally:
        sys.argv = argv


def _defined(path: Path) -> int:
    """Functions and methods ``path`` defines (nested ones included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(tree)
    )


def _run_everything() -> set[CodeType]:
    """Every code object entered, on any thread, while every surface runs."""
    entered: set[CodeType] = set()

    def record(frame: FrameType, event: str, arg: object) -> None:
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(record)
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as out:
            _run_cli(Path(out))
            _run_examples()
            _run_benches()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return entered


def _ran_by_file(entered: set[CodeType]) -> Counter[str]:
    """Distinct functions entered, per source file."""
    ran: Counter[str] = Counter()
    for code in entered:
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            ran[str(Path(code.co_filename).resolve())] += 1
    return ran


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    ran = _ran_by_file(_run_everything())
    unreached = []
    modules = sorted(PACKAGE.rglob("*.py"))
    for path in modules:
        defined = _defined(path)
        count = ran[str(path.resolve())]
        name = path.relative_to(PACKAGE.parent).as_posix()
        print(f"{count:4d}/{defined:<4d} {name}")
        if defined and not count and path.name != "__init__.py":
            unreached.append(name)
    for name in unreached:
        print(f"no function ran: {name}")
    print(f"{len(modules) - len(unreached)} of {len(modules)} modules reached")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
