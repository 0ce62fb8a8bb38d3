"""The reachability pass's bookkeeping (``tools/reachability.py``).

Running the pass itself takes every preset, example and bench; these tests
check only how it keys what a module defines, what counts as run, and how
the allowlist is held against a run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"


@pytest.fixture(scope="module")
def reachability():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''
def top():
    def nested():
        return 1
    return nested() + sum(x for x in range(2)) + (lambda: 0)()

class Box:
    async def fill(self):
        pass

    @property
    def label(self):
        return "box"

    def __repr__(self):
        return "Box()"
'''


def run_source(path, call):
    """Every code object entered while ``SOURCE`` runs and ``call`` is made."""
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    namespace = {}
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    sys.setprofile(record)
    try:
        exec(code, namespace)
        call(namespace)
    finally:
        sys.setprofile(None)
    return entered


@pytest.fixture()
def sample(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    path = package / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    return path


def census_of(reachability, sample, call):
    ran = reachability._ran(run_source(sample, call))
    return reachability._census([sample], sample.parents[1], ran)


def test_defined_keys_functions_methods_and_nested_ones(reachability, sample):
    assert dict(reachability._defined(sample)) == {
        "top": 2,
        "top.<locals>.nested": 3,
        "Box.fill": 8,
        "Box.label": 11,
        "Box.__repr__": 15,
    }


def test_a_nested_functions_qualname_carries_locals(reachability, sample):
    census = census_of(reachability, sample, lambda namespace: namespace["top"]())
    assert census["repro/sample.py:top.<locals>.nested"] == (3, True)


def test_a_decorated_method_is_keyed_at_its_decorator_line(reachability, sample):
    census = census_of(reachability, sample, lambda namespace: namespace["Box"]().label)
    assert census["repro/sample.py:Box.label"] == (11, True)
    assert census["repro/sample.py:Box.fill"] == (8, False)


def test_only_entered_functions_count_as_run(reachability, sample):
    # top and nested ran; the module body, the genexpr, the lambda and the
    # class body do not count, and Box.fill never ran.
    census = census_of(reachability, sample, lambda namespace: namespace["top"]())
    assert sorted(key for key, (_, ran) in census.items() if ran) == [
        "repro/sample.py:top",
        "repro/sample.py:top.<locals>.nested",
    ]


def test_an_unrun_repr_does_not_fail_the_check(reachability, sample):
    census = census_of(reachability, sample, lambda namespace: None)
    assert "repro/sample.py:Box.__repr__" not in census
    allowed = {key: "safety: test" for key in census}
    assert reachability._problems(census, allowed) == []


def test_an_unrun_function_with_no_allowlist_line_fails(reachability, sample):
    census = census_of(reachability, sample, lambda namespace: namespace["top"]())
    allowed = {"repro/sample.py:Box.fill": "safety: test"}
    assert reachability._problems(census, allowed) == [
        "never ran and not listed: repro/sample.py:Box.label"
    ]


def test_an_allowlist_line_whose_function_ran_fails(reachability, sample):
    census = census_of(reachability, sample, lambda namespace: namespace["top"]())
    allowed = {key: "safety: test" for key, (_, ran) in census.items() if not ran}
    allowed["repro/sample.py:top"] = "safety: test"
    assert reachability._problems(census, allowed) == ["listed but it ran: repro/sample.py:top"]


def test_a_stale_allowlist_line_fails(reachability, sample):
    census = census_of(reachability, sample, lambda namespace: namespace["top"]())
    allowed = {key: "safety: test" for key, (_, ran) in census.items() if not ran}
    allowed["repro/sample.py:Box.gone"] = "safety: test"
    assert reachability._problems(census, allowed) == [
        "listed but no module defines it: repro/sample.py:Box.gone"
    ]


def test_an_allowlist_line_names_one_of_the_four_owners(reachability):
    roadmap = reachability._open_items(
        "# R\n\n## Open items\n\n- **Plans whose body is not a\n  union.**\n\n## Recent\n\n"
        "- **Done thing.**\n"
    )
    text = "\n".join([
        "repro/a.py:f  roadmap: Plans whose body is not a union",
        "repro/b.py:g  roadmap: Done thing",
        "repro/c.py:h  benchmarks/e2e/trace.py",
        "repro/d.py:i  test oracle: tests/test_reachability.py",
        "repro/e.py:j  test oracle: tests/no_such_test.py",
        "repro/f.py:k  safety: a frame nobody sends",
        "repro/g.py:l  nobody",
        "repro/a.py:m  safety: out of order",
    ])
    allowed, problems = reachability._read_allowlist(text, roadmap)
    assert len(allowed) == 8
    assert problems == [
        "allowlist line 2: no open ROADMAP.md item says 'Done thing'",
        "allowlist line 5: no test file 'tests/no_such_test.py'",
        "allowlist line 7: owner 'nobody' is not roadmap:, benchmarks/e2e/trace.py, "
        "test oracle: or safety:",
        "allowlist lines are not sorted by key",
    ]
