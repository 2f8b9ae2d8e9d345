"""Expected-cost path planning over graphs with probabilistic terminals.

Core pieces: Instance (costs + termination probabilities), solve (optimal
or bounded-suboptimal best-first search), Held-Karp/greedy/blind
baselines, Bayesian target-search missions, and frontier exploration on
occupancy grids. The `hpppt` console script fronts all of it.
"""

__version__ = "0.1.0"

from .baselines import (ORACLE_CAP, OracleCapError, blind_hpp_solve,
                        greedy_solve, oracle_solve)
from .formats import (FormatError, UnsupportedFormatError, load_instance,
                      parse_hpt, parse_tsplib, read_tour, save_instance,
                      write_hpt)
from .generate import (GenerationError, assign_probabilities, derive_seed,
                       generate_random)
from .instance import (Instance, InvalidInstanceError, InvalidPathError,
                       MetricViolationError, check_path, expected_cost_q,
                       is_metric, max_metric_violation, metric_closure,
                       require_metric)
from .lifelong import (DegenerateUpdateError, GroundTruth, MissionConfig,
                       MissionLog, SensorModel, observe, plan_next, predict,
                       run_mission, update)
from .solver import (DEFAULT_TIME_LIMIT, InvalidConfigError, SearchState,
                     SearchStats, SolveResult, SolverConfig,
                     build_heuristic_table, solve)

__all__ = [
    "__version__",
    "Instance", "InvalidInstanceError", "InvalidPathError",
    "MetricViolationError", "check_path", "expected_cost_q",
    "metric_closure", "max_metric_violation", "is_metric", "require_metric",
    "FormatError", "UnsupportedFormatError", "load_instance",
    "save_instance", "parse_hpt", "parse_tsplib", "write_hpt", "read_tour",
    "GenerationError", "generate_random", "assign_probabilities",
    "derive_seed",
    "solve", "SolverConfig", "SolveResult", "SearchStats", "SearchState",
    "build_heuristic_table", "InvalidConfigError", "DEFAULT_TIME_LIMIT",
    "oracle_solve", "greedy_solve", "blind_hpp_solve", "ORACLE_CAP",
    "OracleCapError",
    "SensorModel", "GroundTruth", "MissionConfig", "MissionLog",
    "DegenerateUpdateError", "predict", "update", "observe", "plan_next",
    "run_mission",
]
