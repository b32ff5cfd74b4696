"""Multitask optimization with linkage-tree genetic search.

A shared population solves one or more minimization tasks hosted in a unified
categorical search space.  Per-task gene dependencies are learned each
generation as entropy-based linkage trees, which guide a greedy mask-swap
crossover; multifactorial bookkeeping (factorial ranks, scalar fitness, skill
factors) routes individuals toward the task they are best at and lets
knowledge transfer between related tasks.
"""

from .engine import RunRecord, run_mfltga
from .errors import ConfigurationError, InstanceFormatError
from .harness import ExperimentConfig, run_experiment, summarize
from .oracle import exhaustive_cluspt, exhaustive_dtf, reference_trap_cost

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ExperimentConfig",
    "InstanceFormatError",
    "RunRecord",
    "exhaustive_cluspt",
    "exhaustive_dtf",
    "reference_trap_cost",
    "run_experiment",
    "run_mfltga",
    "summarize",
]
