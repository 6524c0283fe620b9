"""Multi-appointment medical scheduling under inter-procedural constraints.

A genetic algorithm assigns one timeslot per requested medical act while
honoring overlap, incompatibility-gap and travel-gap constraints, and
minimizing trips, waiting time and lead time.  The package also ships a
synthetic world generator, first-come-first-served and random baselines,
evaluation metrics, and a CSV benchmark harness.
"""

from .baselines import fcfs_schedule, random_schedule
from .bench import ALL_ALGORITHMS, BenchConfig, BenchResult, run_bench, write_bench_csvs
from .constraints import optimal_act_order
from .datagen import World, WorldConfig, generate_request, generate_world
from .fitness import PenaltyBreakdown, compute_penalties, fitness
from .ga import (
    GAConfig,
    GenerationStats,
    Individual,
    SearchSpace,
    UnschedulableError,
    evolve,
    filter_search_space,
)
from .metrics import SolutionMetrics, mann_whitney_u, solution_metrics
from .model import (
    ExamType,
    Facility,
    IncompatibilityRule,
    RuleLogic,
    Schedule,
    ScheduleRequest,
    Specialty,
    TimeSlot,
)
from .worldio import load_request, load_world, save_request, save_world

__version__ = "0.1.0"

__all__ = [
    "ALL_ALGORITHMS",
    "BenchConfig",
    "BenchResult",
    "ExamType",
    "Facility",
    "GAConfig",
    "GenerationStats",
    "Individual",
    "IncompatibilityRule",
    "PenaltyBreakdown",
    "RuleLogic",
    "Schedule",
    "ScheduleRequest",
    "SearchSpace",
    "SolutionMetrics",
    "Specialty",
    "TimeSlot",
    "UnschedulableError",
    "World",
    "WorldConfig",
    "compute_penalties",
    "evolve",
    "fcfs_schedule",
    "filter_search_space",
    "fitness",
    "generate_request",
    "generate_world",
    "load_request",
    "load_world",
    "mann_whitney_u",
    "optimal_act_order",
    "random_schedule",
    "run_bench",
    "save_request",
    "save_world",
    "solution_metrics",
    "write_bench_csvs",
]
