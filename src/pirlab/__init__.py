"""Private information retrieval over 2-replicated graph storage.

Servers sit on the vertices of a storage graph and each file (edge) is
replicated at its two endpoints.  The package computes capacity bounds,
builds explicit retrieval schemes on complete graphs, transforms them
into single-round probabilistic schemes, samples randomized single-symbol
queries on arbitrary graphs, and simulates and audits all of the above.
"""

__version__ = "0.1.0"

from .bounds import (BoundReport, bounds_table, general_upper_bound,
                     multigraph_lower_bound, prior_bounds_complete,
                     render_table, upper_bound_balanced_bipartite,
                     upper_bound_complete)
from .builder import build_scheme, perfect_matchings, verify_scheme
from .errors import (InfeasibleError, InternalConsistencyError,
                     ParameterError, UnsupportedSizeError)
from .general import (GeneralScheme, answer_distribution, answers,
                      build_general_query, general_rate,
                      random_general_scheme, reconstruct)
from .graphs import Graph, make_graph, matching_number
from .patterns import (IndependenceError, RecoveryPattern, analyze,
                       check_independence, check_srp, extract_patterns)
from .rows import Rows, Summation
from .scheme import DeterministicScheme, ProbabilisticScheme, ProbRow
from .sequences import (answer_count, build_sequences, rate, step_ledger,
                        subpacketization)
from .sim import (Storage, privacy_audit, random_permutations,
                  random_storage, run_deterministic_trial,
                  run_probabilistic_trials)
from .transform import entropy_proxy_ok, prob_rate, transform

__all__ = [
    "__version__",
    "BoundReport", "bounds_table", "general_upper_bound",
    "multigraph_lower_bound", "prior_bounds_complete", "render_table",
    "upper_bound_balanced_bipartite", "upper_bound_complete",
    "build_scheme", "perfect_matchings", "verify_scheme",
    "InfeasibleError", "InternalConsistencyError", "ParameterError",
    "UnsupportedSizeError",
    "GeneralScheme", "answer_distribution", "answers",
    "build_general_query", "general_rate", "random_general_scheme",
    "reconstruct",
    "Graph", "make_graph", "matching_number",
    "IndependenceError", "analyze", "check_independence", "check_srp",
    "extract_patterns",
    "DeterministicScheme", "ProbabilisticScheme", "ProbRow",
    "RecoveryPattern", "Rows", "Summation",
    "answer_count", "build_sequences", "rate", "step_ledger",
    "subpacketization",
    "Storage", "privacy_audit", "random_permutations", "random_storage",
    "run_deterministic_trial", "run_probabilistic_trials",
    "entropy_proxy_ok", "prob_rate", "transform",
]
