"""Core KTG/DKTG problem model and exact algorithms.

This subpackage holds the paper's primary contribution: the attributed
graph model (Section III), the branch-and-bound exact solvers with
keyword pruning and k-line filtering (Section IV), and the diversified
variant (Section VI).
"""

from repro.core.branch_and_bound import BranchAndBoundSolver, KTGResult, SearchStats, make_solver
from repro.core.bruteforce import BruteForceSolver
from repro.core.coverage import CoverageContext
from repro.core.dktg_exact import DKTGExactSolver
from repro.core.dktg import (
    DKTGGreedySolver,
    DKTGResult,
    dktg_score,
    greedy_approximation_ratio,
    pair_diversity,
    result_diversity,
)
from repro.core.errors import (
    DatasetError,
    GraphConstructionError,
    IndexBuildError,
    IndexUpdateError,
    InfeasibleQueryError,
    QueryValidationError,
    ReproError,
    UnknownVertexError,
    WorkloadError,
)
from repro.core.graph import AttributedGraph, KeywordTable
from repro.core.keyword_index import KeywordIndex
from repro.core.multi_vertex import anchored_query, exclude_familiar
from repro.core.trace import SearchTrace, TraceNode, TracingSolver
from repro.core.validate import (
    ResultValidationError,
    validate_dktg_result,
    validate_ktg_result,
)
from repro.core.query import DKTGQuery, KTGQuery
from repro.core.results import Group, TopNPool
from repro.core.strategies import (
    OrderingStrategy,
    QKCOrdering,
    VKCDegreeOrdering,
    VKCOrdering,
    strategy_by_name,
)

__all__ = [
    "AttributedGraph",
    "KeywordTable",
    "CoverageContext",
    "KeywordIndex",
    "KTGQuery",
    "DKTGQuery",
    "Group",
    "TopNPool",
    "TracingSolver",
    "SearchTrace",
    "TraceNode",
    "BranchAndBoundSolver",
    "BruteForceSolver",
    "DKTGGreedySolver",
    "DKTGExactSolver",
    "KTGResult",
    "DKTGResult",
    "SearchStats",
    "make_solver",
    "OrderingStrategy",
    "QKCOrdering",
    "VKCOrdering",
    "VKCDegreeOrdering",
    "strategy_by_name",
    "pair_diversity",
    "result_diversity",
    "dktg_score",
    "greedy_approximation_ratio",
    "anchored_query",
    "exclude_familiar",
    "ReproError",
    "GraphConstructionError",
    "UnknownVertexError",
    "QueryValidationError",
    "InfeasibleQueryError",
    "IndexBuildError",
    "IndexUpdateError",
    "DatasetError",
    "WorkloadError",
    "ResultValidationError",
    "validate_ktg_result",
    "validate_dktg_result",
]
