"""The heap ledger (``tools/heap_ledger.py``) runs and prints both ledgers,
at the workload's own size or at the peer count ``--peers`` sets.

Run in a child process: the tool puts ``benchmarks/e2e`` first on its
import path, whose ``trace.py`` would shadow the standard library's here.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "heap_ledger.py"
SITE = re.compile(r"^\s*\d+\.\d\d\s+[\d,]+\s+\S+:\d+$")


def test_a_quick_run_prints_the_set_up_and_the_run_ledgers():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "gene-1k", "--quick"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0].startswith("gene-1k on sim (quick), seed 11")
    titles = [line.split(":")[0] for line in lines if line.startswith("End of")]
    assert titles == ["End of set-up", "End of run"]
    sites = [line for line in lines if SITE.match(line)]
    assert len(sites) == 50
    assert any("xmlmodel/element.py:" in line for line in sites)


def test_peers_sets_the_peer_count_after_quick_and_the_set_up_total_is_shared_out():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "gene-1k", "--quick", "--peers", "120"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0].startswith("gene-1k on sim (quick) at 120 peers, seed 11")
    set_up = next(line for line in lines if line.startswith("End of set-up"))
    # 120 data peers beside the client, two index servers and the meta-index.
    match = re.fullmatch(r"End of set-up: ([\d.]+) MB in [\d,]+ blocks; 124 peers, ([\d.]+) KB a peer", set_up)
    assert match, set_up
    assert float(match[2]) == pytest.approx(float(match[1]) * 1e3 / 124, abs=0.1)
    run = next(line for line in lines if line.startswith("End of run"))
    assert "a peer" not in run
