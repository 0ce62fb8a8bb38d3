"""A simulated run carries only the standard library core.

numpy and networkx are test oracles, not runtime dependencies; asyncio
belongs to the socket transport alone, and XML escaping is written in place
so ``xml.sax`` (with urllib, http, email and ssl behind it) never loads.
Each check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SOURCE = str(Path(repro.__file__).resolve().parents[1])
UNWANTED = (
    "numpy", "networkx", "asyncio", "ssl", "xml.sax", "urllib.request", "http.client", "email",
)

# Refuses numpy and networkx as if they were not installed.
_BLOCK = """
import sys

class _Uninstalled:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "networkx"):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, _Uninstalled())
"""

_RUN_CLI = """
from repro.harness.cli import main
main(sys.argv[1:])
"""


def _python(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SOURCE, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )


def test_sim_run_imports_no_third_party_or_network_stack(tmp_path):
    code = (
        "import sys, json\n"
        "import repro\n"
        "from repro.harness.cli import main\n"
        f"main(['--scenario', 'smoke', '--output', {str(tmp_path / 'smoke.json')!r}])\n"
        f"print(json.dumps([name for name in {UNWANTED!r} if name in sys.modules]))\n"
    )
    loaded = json.loads(_python(code, cwd=tmp_path).stdout.strip().splitlines()[-1])
    assert loaded == []


def test_reports_identical_without_numpy_and_networkx(tmp_path):
    reference = tmp_path / "reference.json"
    _python("import sys" + _RUN_CLI, "--scenario", "smoke", "--output", str(reference), cwd=tmp_path)
    for transport in ("sim", "aio"):
        report = tmp_path / f"{transport}.json"
        _python(
            _BLOCK + _RUN_CLI,
            "--scenario", "smoke", "--transport", transport, "--output", str(report),
            cwd=tmp_path,
        )
        assert report.read_bytes() == reference.read_bytes(), transport
