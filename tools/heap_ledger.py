"""Where a benchmark workload's heap is, by the line that allocated it.

Runs one workload of ``benchmarks/e2e/workloads.py`` (the spec the
benchmark runs at its default seeds) in this process under ``tracemalloc``
and prints the top ``file:line`` allocation sites twice: at the end of
set-up (``build_scaleout_scenario`` returned) and at the end of the run
(everything has run, just before the transport closes its sockets).
Standard library only:

    python tools/heap_ledger.py --workload gene-1k
    python tools/heap_ledger.py --workload feed-aio --transport aio --quick
    python tools/heap_ledger.py --workload gene-1k --peers 5000

``--transport`` defaults to the workload's own; ``--quick`` runs the
workload's small variant; ``--peers N`` then sets the workload's peer
count, so the same workload can be weighed at another scale.  The set-up
ledger's title also divides its total by the peers on the network.
Tracing costs time and memory of its own, so read sizes and counts here
and timings and peak RSS off ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import sys
import sysconfig
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from repro.harness import scaleout  # noqa: E402
from workloads import DATA_SEED, WORKLOADS  # noqa: E402

TOP = 25
PREFIXES = (str(ROOT / "src" / "repro") + "/", sysconfig.get_paths()["stdlib"] + "/")


def _site(frame: tracemalloc.Frame) -> str:
    name = frame.filename
    for prefix in PREFIXES:
        if name.startswith(prefix):
            name = name[len(prefix):]
            break
    return f"{name}:{frame.lineno}"


def ledger(title: str, snapshot: tracemalloc.Snapshot, peers: int | None = None) -> None:
    """Print the snapshot's total (and its share a peer) and its top sites."""
    snapshot = snapshot.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    stats = snapshot.statistics("lineno")
    size, count = sum(stat.size for stat in stats), sum(stat.count for stat in stats)
    share = f"; {peers:,} peers, {size / peers / 1e3:.2f} KB a peer" if peers else ""
    print(f"\n{title}: {size / 1e6:.2f} MB in {count:,} blocks{share}")
    print(f"{'MB':>7} {'blocks':>9}  site")
    for stat in stats[:TOP]:
        print(f"{stat.size / 1e6:7.2f} {stat.count:9,}  {_site(stat.traceback[0])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--transport", choices=("sim", "aio"), default=None,
                        help="delivery backend (default: the workload's own)")
    parser.add_argument("--quick", action="store_true", help="the workload's small variant")
    parser.add_argument("--peers", type=int, default=None,
                        help="the workload's peer count (after --quick)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    transport = args.transport or workload.transport
    spec = workload.spec(DATA_SEED, quick=args.quick)
    if args.peers is not None:
        spec = replace(spec, peers=args.peers)

    snapshots: dict[str, tracemalloc.Snapshot] = {}
    peers: list[int] = []
    build = scaleout.build_scaleout_scenario

    def build_and_watch(*build_args, **build_kwargs):
        scenario = build(*build_args, **build_kwargs)
        snapshots["set-up"] = tracemalloc.take_snapshot()
        peers.append(scenario.total_peers)
        close = scenario.network.close

        def close_after_snapshot() -> None:
            snapshots.setdefault("run", tracemalloc.take_snapshot())
            close()

        scenario.network.close = close_after_snapshot
        return scenario

    scaleout.build_scaleout_scenario = build_and_watch
    tracemalloc.start()
    try:
        scaleout.run_scaleout(spec, transport=transport)
    finally:
        scaleout.build_scaleout_scenario = build
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    variant = " (quick)" if args.quick else ""
    if args.peers is not None:
        variant += f" at {args.peers:,} peers"
    print(f"{args.workload} on {transport}{variant}, "
          f"seed {DATA_SEED}, Python {sys.version.split()[0]}; "
          f"traced peak {peak / 1e6:.2f} MB")
    ledger("End of set-up", snapshots["set-up"], peers[0])
    ledger("End of run", snapshots["run"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
