"""Experiment harness: workloads, runner, reporting and the experiment matrix.

The paper's experiments (E1–E5/E6, E12) are kinds of the config-driven
matrix runner: ``repro.experiments.matrix.kinds`` holds one function per
kind, ``fn(quick=..., seed=..., **params) -> ExperimentResult``, and
``configs/`` holds a committed config for each.  Run one with
``python -m repro.experiments.matrix configs/e1_tradeoff.json``.
"""

from repro.experiments.harness import ExperimentResult, run_matrix, evaluate_scheme_on_graph
from repro.experiments.workloads import WorkloadSpec, standard_suite, make_workload
from repro.experiments.reporting import format_table, format_series, results_to_csv

__all__ = [
    "ExperimentResult",
    "run_matrix",
    "evaluate_scheme_on_graph",
    "WorkloadSpec",
    "standard_suite",
    "make_workload",
    "format_table",
    "format_series",
    "results_to_csv",
]
