"""Experiment harness: the spec-driven scenario runner, the paper's comparisons, report formatting."""

from .cli import main as cli_main
from .experiment import (
    compare_routing_strategies,
    run_cd_query_coordinator,
    run_cd_query_mqp,
)
from .report import format_summary, format_table, to_json, write_json_report
from .scaleout import (
    ROUTING_KINDS,
    ScaleoutScenario,
    ScaleoutSpec,
    WORKLOAD_KINDS,
    build_scaleout_scenario,
    run_scaleout,
    run_scenario,
)

__all__ = [
    "cli_main",
    "ScaleoutSpec",
    "ScaleoutScenario",
    "WORKLOAD_KINDS",
    "ROUTING_KINDS",
    "build_scaleout_scenario",
    "run_scaleout",
    "run_scenario",
    "to_json",
    "write_json_report",
    "compare_routing_strategies",
    "run_cd_query_mqp",
    "run_cd_query_coordinator",
    "format_table",
    "format_summary",
]
