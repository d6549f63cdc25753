"""Experiment harness: declarative scenarios, Monte-Carlo sweeps, reports.

This package drives every benchmark in ``benchmarks/``: a scenario config
describes one operating point (deployment, radio, ranging, anchors,
pre-knowledge), the runner evaluates a set of methods over independent
trials, and the report module prints paper-style series tables.
"""

from repro.experiments.config import (
    ChannelConfig,
    ScenarioConfig,
    build_scenario,
    make_pre_knowledge,
)
from repro.experiments.runner import (
    MethodResult,
    SweepResult,
    evaluate_methods,
    run_sweep,
    standard_methods,
)
from repro.experiments.report import sweep_table, methods_table
from repro.experiments.anchor_opt import greedy_crlb_anchors, mean_crlb

__all__ = [
    "ChannelConfig",
    "ScenarioConfig",
    "build_scenario",
    "make_pre_knowledge",
    "MethodResult",
    "SweepResult",
    "evaluate_methods",
    "run_sweep",
    "standard_methods",
    "sweep_table",
    "greedy_crlb_anchors",
    "mean_crlb",
    "methods_table",
]
