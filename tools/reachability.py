"""Which functions under ``src/repro`` run when every scenario runs.

Runs, in this one process and through the command lines a user would type,
every named preset on the ``sim`` transport, ``smoke`` on ``aio``, a tiny
``repro experiment`` grid and its two named presets, the one ``--topology``
no preset uses, ``repro --list``, every ``examples/*.py`` and the paper
benches (``pytest
benchmarks/bench_*.py --benchmark-disable``), with a profile hook on every
thread that records each code object entered.  Standard library only
(``coverage`` is not a dependency):

    python tools/reachability.py

Prints, per module, how many of the functions it defines ran at least once,
then every function that never ran as ``path:line qualname``.  A function
is keyed ``repro/<module>.py:<qualname>``, the qualname read off the source
(``Class.method``, ``outer.<locals>.inner``), and counts as run when a code
object that starts on its line (its first decorator's, if it has one) was
entered; a class body, a module body, a lambda or a comprehension is not a
function.  ``__repr__`` is not checked: a person and a failing assertion
call it.

Exits 1 when a module other than an ``__init__.py`` defines functions and
none of them ran, or when ``tools/reachability_allow.txt`` disagrees with
the run: an unrun function it does not list, or a line naming a function
that ran or that no module defines.  Each line of that file is ``<key>
<owner>``, sorted by key, and the owner says who still needs the function:
``roadmap: <words of an open ROADMAP.md item>``, ``benchmarks/e2e/trace.py``
(the tracer patches or reads it by name), ``test oracle: <test file>`` or
``safety: <what it guards>``.  A function nobody owns is deleted instead.
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
from pathlib import Path
from types import CodeType, FrameType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "tools" / "reachability_allow.txt"
UNCHECKED = frozenset({"__repr__"})
TRACER = "benchmarks/e2e/trace.py"


def _run_cli(out: Path) -> None:
    from repro.harness.cli import SCENARIOS, main

    runs = [(name, "sim") for name in SCENARIOS] + [("smoke", "aio")]
    for name, transport in runs:
        report = out / f"{name}-{transport}.json"
        if main(["--scenario", name, "--transport", transport, "--output", str(report)]):
            raise RuntimeError(f"repro --scenario {name} --transport {transport} failed")
    tiny = ["--seeds", "11", "--repeats", "1", "--peers", "20", "--queries", "3"]
    commands = [
        ["experiment", "--scenarios", "smoke,free-riders", "--seeds", "11", "--repeats", "2",
         "--peers", "20", "--queries", "3", "--output-dir", str(out / "grid")],
        ["experiment", "--preset", "recovery-curve", *tiny, "--output-dir", str(out / "recovery")],
        ["experiment", "--preset", "replica-outage", *tiny, "--output-dir", str(out / "outage")],
        ["--topology", "star", "--peers", "20", "--queries", "3",
         "--output", str(out / "star.json")],
        ["--list"],
    ]
    for command in commands:
        if main(command):
            raise RuntimeError(f"repro {' '.join(command)} failed")


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


def _defined(path: Path) -> list[tuple[str, int]]:
    """Every function ``path`` defines (nested ones included) as ``(qualname, line)``.

    The line is the one a code object reports as ``co_firstlineno``: the
    first decorator's when the function is decorated.  A property and its
    setter are two functions with one qualname.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                found.append((qualname, min(lines)))
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


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


def _ran(entered: set[CodeType]) -> set[tuple[str, int]]:
    """``(resolved file, first line)`` of every function entered."""
    return {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        for code in entered
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<")
    }


def _census(
    modules: list[Path], base: Path, ran: set[tuple[str, int]]
) -> dict[str, tuple[int, bool]]:
    """``key -> (line, ran)`` for every checked function the modules define.

    A key that names several functions (a property and its setter) ran when
    all of them did; its line is the first that did not.
    """
    census: dict[str, tuple[int, bool]] = {}
    for path in modules:
        resolved = str(path.resolve())
        name = path.relative_to(base).as_posix()
        for qualname, line in _defined(path):
            if qualname.rsplit(".", 1)[-1] in UNCHECKED:
                continue
            key = f"{name}:{qualname}"
            earlier = census.get(key)
            if earlier is None or (earlier[1] and (resolved, line) not in ran):
                census[key] = (line, (resolved, line) in ran)
    return census


def _open_items(roadmap: str) -> str:
    """The "Open items" section of ROADMAP.md, its whitespace collapsed."""
    _, _, rest = roadmap.partition("\n## Open items")
    return " ".join(rest.partition("\n## ")[0].split())


def _owner_problem(owner: str, roadmap: str) -> str | None:
    """Why ``owner`` is not one of the four owners a line may name, or None."""
    kind, _, what = owner.partition(": ")
    if owner == TRACER or (kind == "safety" and what):
        return None
    if kind == "test oracle":
        return None if what.startswith("tests/") and (ROOT / what).is_file() else (
            f"no test file {what!r}"
        )
    if kind == "roadmap":
        return None if what and what in roadmap else f"no open ROADMAP.md item says {what!r}"
    return f"owner {owner!r} is not roadmap:, {TRACER}, test oracle: or safety:"


def _read_allowlist(text: str, roadmap: str) -> tuple[dict[str, str], list[str]]:
    """The allowlist's ``key -> owner`` and what is wrong with its lines."""
    allowed: dict[str, str] = {}
    problems = []
    for number, line in enumerate(text.splitlines(), 1):
        key, _, owner = line.partition("  ")
        owner = owner.strip()
        if not key or not owner or key in allowed:
            problems.append(f"allowlist line {number} is not a new '<key>  <owner>': {line!r}")
            continue
        problem = _owner_problem(owner, roadmap)
        if problem:
            problems.append(f"allowlist line {number}: {problem}")
        allowed[key] = owner
    if list(allowed) != sorted(allowed):
        problems.append("allowlist lines are not sorted by key")
    return allowed, problems


def _problems(census: dict[str, tuple[int, bool]], allowed: dict[str, str]) -> list[str]:
    """Where the run and the allowlist disagree."""
    problems = [
        f"never ran and not listed: {key}"
        for key, (_, ran) in census.items()
        if not ran and key not in allowed
    ]
    for key in allowed:
        if key not in census:
            problems.append(f"listed but no module defines it: {key}")
        elif census[key][1]:
            problems.append(f"listed but it ran: {key}")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    ran = _ran(_run_everything())
    modules = sorted(PACKAGE.rglob("*.py"))
    census = _census(modules, PACKAGE.parent, ran)
    unreached = []
    for path in modules:
        name = path.relative_to(PACKAGE.parent).as_posix()
        lines = [line for _, line in _defined(path)]
        count = sum((str(path.resolve()), line) in ran for line in lines)
        print(f"{count:4d}/{len(lines):<4d} {name}")
        if lines and not count and path.name != "__init__.py":
            unreached.append(name)
    unrun = sorted((key.partition(":")[0], line, key) for key, (line, ran_) in census.items()
                   if not ran_)
    for name, line, key in unrun:
        print(f"{name}:{line} {key.partition(':')[2]}")
    print(f"{len(modules) - len(unreached)} of {len(modules)} modules reached; "
          f"{len(census) - len(unrun)} of {len(census)} functions ran")
    allowed, problems = _read_allowlist(
        ALLOWLIST.read_text(encoding="utf-8"),
        _open_items((ROOT / "ROADMAP.md").read_text(encoding="utf-8")),
    )
    problems += [f"no function ran: {name}" for name in unreached]
    problems += _problems(census, allowed)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
