"""The reachability pass's bookkeeping (``tools/reachability.py``).

Running the pass itself takes every preset, example and bench; these tests
check only how it counts what a module defines and what ran.
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
'''


def test_defined_counts_functions_methods_and_nested_ones(reachability, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert reachability._defined(path) == 3


def test_only_entered_functions_count_as_run(reachability, tmp_path):
    path = tmp_path / "sample_run.py"
    path.write_text(SOURCE, encoding="utf-8")
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    namespace = {}
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    sys.setprofile(record)
    try:
        exec(code, namespace)
        namespace["top"]()
    finally:
        sys.setprofile(None)
    # top and nested ran; the module body, the genexpr, the lambda and the
    # class body do not count, and Box.fill never ran.
    assert reachability._ran_by_file(entered)[str(path.resolve())] == 2
