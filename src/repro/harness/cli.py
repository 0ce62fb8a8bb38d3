"""The experiment CLI: ``python -m repro`` (or the ``repro`` console script).

Composes a scale-out scenario from command-line flags — topology × workload
× churn profile × routing strategy — runs it on the deterministic
simulator, prints a summary table, and writes the full JSON report.

The CLI is a thin argument parser over :mod:`repro.harness.scaleout`, which
itself builds and drives scenarios through the public client API
(:mod:`repro.api`): one :class:`~repro.api.Cluster` per run, queries issued
through :class:`~repro.api.Session` handles.  Reports are byte-identical
across transport backends and across the API rebase.

Examples
--------
Run the thousand-peer gene-expression scenario under moderate churn::

    python -m repro --topology scale-free --peers 1000 \
        --workload gene-expression --churn moderate

Run a named preset and keep the report somewhere specific::

    python -m repro --scenario smoke --output reports/smoke.json

List presets, topologies, workloads and churn profiles::

    python -m repro --list
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from ..errors import ReproError
from ..mqp import QueryPreferences
from ..network import CHURN_PROFILES, TOPOLOGY_KINDS, TRANSPORT_KINDS
from .report import format_summary, write_json_report
from .scaleout import ROUTING_KINDS, WORKLOAD_KINDS, ScaleoutSpec, run_scaleout

__all__ = ["SCENARIOS", "build_parser", "main"]


SCENARIOS: dict[str, ScaleoutSpec] = {
    # A fast end-to-end sanity run (CI smoke, demos).
    "smoke": ScaleoutSpec(
        name="smoke", topology="small-world", peers=60, workload="garage-sale",
        churn="light", queries=5,
    ),
    # The headline thousand-peer run of the scale-out subsystem.
    "thousand-peers": ScaleoutSpec(
        name="thousand-peers", topology="scale-free", peers=1000,
        workload="gene-expression", churn="moderate",
    ),
    # Heavy churn on an ISP-like hierarchy: stresses rerouting + rejoin.
    "churn-storm": ScaleoutSpec(
        name="churn-storm", topology="hierarchical", peers=500,
        workload="garage-sale", churn="heavy", queries=20,
    ),
    # The Gnutella baseline at scale, for routed-vs-broadcast comparisons.
    "broadcast-baseline": ScaleoutSpec(
        name="broadcast-baseline", topology="scale-free", peers=500,
        workload="garage-sale", churn="none", routing="gnutella", queries=20,
    ),
    # --- adversarial presets (repro.workloads.adversarial) ----------------- #
    # Zipf-skewed query popularity: a handful of hot queries replayed often.
    "zipf-hotspot": ScaleoutSpec(
        name="zipf-hotspot", topology="small-world", peers=200,
        workload="garage-sale", churn="none", queries=20, query_mix="zipf",
    ),
    # Flash crowd: the tail of the workload collapses onto one hot query.
    "flash-crowd": ScaleoutSpec(
        name="flash-crowd", topology="small-world", peers=200,
        workload="garage-sale", churn="none", queries=20, query_mix="flash-crowd",
    ),
    # Free riders forward mutant plans but never evaluate them locally.
    "free-riders": ScaleoutSpec(
        name="free-riders", topology="small-world", peers=200,
        workload="garage-sale", churn="none", queries=20, free_rider_fraction=0.3,
    ),
    # Stale catalogs: a slice of peers crashed at t~0, catalogs never told.
    "stale-catalog": ScaleoutSpec(
        name="stale-catalog", topology="small-world", peers=200,
        workload="garage-sale", churn="none", queries=20, catalog_mode="stale",
    ),
    # Lying catalogs: registrations advertise swapped interest areas.
    "lying-catalog": ScaleoutSpec(
        name="lying-catalog", topology="small-world", peers=200,
        workload="garage-sale", churn="none", queries=20, catalog_mode="lying",
    ),
    # Correlated regional failures: whole namespace regions fail together.
    "regional-outage": ScaleoutSpec(
        name="regional-outage", topology="hierarchical", peers=200,
        workload="garage-sale", churn="regional", queries=20,
    ),
    # --- resilience presets (repro.network.faults + reliable delivery) ------ #
    # Every link drops 10% of its frames; the delivery protocol retries.
    "lossy-links": ScaleoutSpec(
        name="lossy-links", topology="small-world", peers=120,
        workload="garage-sale", churn="none", queries=12,
        fault_loss=0.10, reliable=True,
    ),
    # A timed bipartite cut mid-run; traffic re-flows once it heals.
    "partition-heal": ScaleoutSpec(
        name="partition-heal", topology="small-world", peers=120,
        workload="garage-sale", churn="none", queries=12,
        fault_partition=(800.0, 2_400.0), reliable=True,
    ),
    # Loss + duplication + reordering at once: the ack/dedupe stress test.
    "ack-storm": ScaleoutSpec(
        name="ack-storm", topology="small-world", peers=120,
        workload="garage-sale", churn="none", queries=12,
        fault_loss=0.15, fault_duplicate=0.15, fault_reorder=0.2, reliable=True,
    ),
    # --- continuous queries -------------------------------------------------- #
    # Standing queries over a churning marketplace: 40 subscribers, delta
    # feeds driven by publisher mutation rounds, reliable delivery on.
    "subscription-feed": ScaleoutSpec(
        name="subscription-feed", topology="small-world", peers=120,
        workload="garage-sale", churn="light", queries=8,
        subscribers=40, mutation_rounds=4, reliable=True,
    ),
    # --- catalog tier (repro.catalogtier) ------------------------------------ #
    # Sharded, replicated catalog under fire: 4 shards x 3 replicas, light
    # churn, 10% link loss with reliable delivery, and one replica of
    # group 0 crashing mid-query then rejoining (reconciliation).
    "sharded-catalog": ScaleoutSpec(
        name="sharded-catalog", topology="small-world", peers=120,
        workload="garage-sale", churn="light", queries=12,
        catalog_shards=4, catalog_replicas=3, catalog_outages=1,
        fault_loss=0.10, reliable=True,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run a scale-out P2P mutant-query-plan experiment.",
    )
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), default=None,
                        help="start from a named preset (flags below override it)")
    parser.add_argument("--topology", choices=TOPOLOGY_KINDS, default=None,
                        help="overlay shape (default: scale-free)")
    parser.add_argument("--peers", type=int, default=None,
                        help="number of data-serving peers (default: 1000)")
    parser.add_argument("--workload", choices=WORKLOAD_KINDS, default=None,
                        help="synthetic population (default: gene-expression)")
    parser.add_argument("--churn", choices=sorted(CHURN_PROFILES), default=None,
                        help="churn profile applied to data peers (default: none)")
    parser.add_argument("--routing", choices=ROUTING_KINDS, default=None,
                        help="query routing strategy (default: mqp)")
    parser.add_argument("--transport", choices=TRANSPORT_KINDS, default="sim",
                        help="delivery backend: deterministic simulator or real "
                             "asyncio TCP sockets on localhost (default: sim; "
                             "reports are byte-identical across backends)")
    parser.add_argument("--queries", type=int, default=None,
                        help="number of queries to issue (default: 12)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for the whole scenario (default: 11)")
    parser.add_argument("--prefer", choices=QueryPreferences.VALID, default=None,
                        help="query preference of paper §4.3 (default: complete)")
    reliability = parser.add_mutually_exclusive_group()
    reliability.add_argument("--reliable", dest="reliable", action="store_true",
                             default=None,
                             help="per-hop acks + retransmission for query traffic "
                                  "(default: off, fire-and-forget)")
    reliability.add_argument("--no-reliable", dest="reliable", action="store_false",
                             help="fire-and-forget delivery (override a preset)")
    parser.add_argument("--fault-loss", type=float, default=None, metavar="P",
                        help="per-link frame loss probability in [0, 1) (default: 0)")
    parser.add_argument("--fault-duplicate", type=float, default=None, metavar="P",
                        help="per-link duplication probability (default: 0)")
    parser.add_argument("--fault-delay", type=float, default=None, metavar="P",
                        help="per-link delay-spike probability (default: 0)")
    parser.add_argument("--fault-reorder", type=float, default=None, metavar="P",
                        help="per-link reordering probability (default: 0)")
    parser.add_argument("--fault-partition", type=float, nargs=2, default=None,
                        metavar=("START_MS", "END_MS"),
                        help="timed bipartite partition window in simulated ms")
    parser.add_argument("--subscribers", type=int, default=None, metavar="N",
                        help="standing-query clients armed over the query areas "
                             "(default: 0, continuous queries off)")
    parser.add_argument("--mutation-rounds", type=int, default=None, metavar="N",
                        help="publisher mutation rounds driving the delta feeds "
                             "(default: 0; requires --subscribers)")
    parser.add_argument("--catalog-shards", type=int, default=None, metavar="N",
                        help="shard the catalog tier into N replica groups "
                             "(default: 0, tier off; requires --catalog-replicas)")
    parser.add_argument("--catalog-replicas", type=int, default=None, metavar="N",
                        help="index servers per shard's replica group "
                             "(default: 0; set together with --catalog-shards)")
    parser.add_argument("--catalog-outages", type=int, default=None, metavar="N",
                        help="replicas of group 0 to crash mid-query and rejoin "
                             "(default: 0; must leave a survivor)")
    parser.add_argument("--output", default=None,
                        help="JSON report path (default: reports/<name>.json)")
    parser.add_argument("--list", action="store_true", dest="list_options",
                        help="list presets, topologies, workloads, churn profiles and exit")
    return parser


def _spec_from_args(args: argparse.Namespace) -> ScaleoutSpec:
    spec = SCENARIOS[args.scenario] if args.scenario else ScaleoutSpec()
    overrides = {
        key: value
        for key, value in {
            "topology": args.topology,
            "peers": args.peers,
            "workload": args.workload,
            "churn": args.churn,
            "routing": args.routing,
            "queries": args.queries,
            "seed": args.seed,
            "prefer": args.prefer,
            "reliable": args.reliable,
            "fault_loss": args.fault_loss,
            "fault_duplicate": args.fault_duplicate,
            "fault_delay": args.fault_delay,
            "fault_reorder": args.fault_reorder,
            "fault_partition": (
                tuple(args.fault_partition) if args.fault_partition is not None else None
            ),
            "subscribers": args.subscribers,
            "mutation_rounds": args.mutation_rounds,
            "catalog_shards": args.catalog_shards,
            "catalog_replicas": args.catalog_replicas,
            "catalog_outages": args.catalog_outages,
        }.items()
        if value is not None
    }
    if args.scenario is None and overrides:
        overrides.setdefault("name", "custom")
    spec = replace(spec, **overrides)
    if spec.name == "custom":
        descriptor = f"{spec.workload}-{spec.topology}-{spec.peers}p-{spec.churn}-{spec.routing}"
        spec = replace(spec, name=descriptor)
    return spec


def _list_options() -> str:
    lines = ["Named scenarios:"]
    for name in sorted(SCENARIOS):
        preset = SCENARIOS[name]
        lines.append(
            f"  {name:<20} {preset.workload} on {preset.topology}, "
            f"{preset.peers} peers, churn={preset.churn}, routing={preset.routing}"
        )
    lines.append(f"Topologies:      {', '.join(TOPOLOGY_KINDS)}")
    lines.append(f"Workloads:       {', '.join(WORKLOAD_KINDS)}")
    lines.append(f"Churn profiles:  {', '.join(sorted(CHURN_PROFILES))}")
    lines.append(f"Routing:         {', '.join(ROUTING_KINDS)}")
    lines.append(f"Transports:      {', '.join(TRANSPORT_KINDS)}")
    lines.append("Subcommands:     experiment (scenario x seed x repeat grids; "
                 "`repro experiment --help`)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    ``repro experiment ...`` dispatches to the experiment-matrix subcommand
    (:mod:`repro.experiments.cli`); everything else is the single-run parser.
    """
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "experiment":
        from ..experiments.cli import main as experiment_main

        return experiment_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    if args.list_options:
        print(_list_options())
        return 0

    spec = _spec_from_args(args)
    started = time.perf_counter()
    try:
        report = run_scaleout(spec, transport=args.transport)
    except ReproError as error:
        parser.error(str(error))  # exits with status 2
        return 2  # pragma: no cover - parser.error raises SystemExit
    elapsed = time.perf_counter() - started

    output = args.output or f"reports/{spec.name}.json"
    path = write_json_report(output, report)

    print(f"scenario {spec.name}: {report['population']['total_nodes']} nodes, "
          f"{len(report['queries'])} queries, churn={spec.churn} "
          f"({report['churn']['events']} events), transport={args.transport}")
    print(format_summary(report["traffic"], title="traffic"))
    if "processing" in report:
        print(format_summary(report["processing"], title="mqp processing"))
    if "resilience" in report:
        counters = {
            key: value
            for key, value in report["resilience"].items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        print(format_summary(counters, title="resilience"))
    if "subscriptions" in report:
        print(format_summary(report["subscriptions"], title="subscriptions"))
    if "catalog_tier" in report:
        tier = dict(report["catalog_tier"])
        cache = tier.pop("answer_cache", {})
        print(format_summary(tier, title="catalog tier"))
        print(format_summary(cache, title="answer cache"))
    print(f"report written to {path} ({elapsed:.1f}s wall clock)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
