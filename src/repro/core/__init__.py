"""The paper's join algorithms: Chapter 4 (1-3), Chapter 5 (4-6), baselines."""

from repro.core.aggregation import (
    Aggregate,
    AggregateKind,
    AggregateResult,
    agg_max,
    agg_min,
    agg_sum,
    aggregate_join,
    avg,
    count,
    group_by_aggregate,
    paper_aggregation_cost,
)
from repro.core.algorithm1 import algorithm1
from repro.core.algorithm1v import algorithm1_variant
from repro.core.algorithm2 import algorithm2, gamma_for
from repro.core.algorithm3 import algorithm3
from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.core.base import (
    DECOY_FLAG,
    OUTPUT_REGION,
    REAL_FLAG,
    JoinContext,
    JoinResult,
    compute_n_exactly,
    decoy_priority,
    is_real,
    make_decoy,
    make_real,
)
from repro.core.cartesian import CartesianReader, CartesianSpace, upload_tables
from repro.core.naive import (
    unsafe_blocked_output,
    unsafe_commutative,
    unsafe_hash_partition,
    unsafe_nested_loop,
    unsafe_sort_merge,
)
from repro.core.planner import JoinPlan, execute_plan, plan_join
from repro.core.parallel import (
    ParallelJoinResult,
    parallel_algorithm2,
    parallel_algorithm3,
    parallel_algorithm4,
    parallel_algorithm5,
    parallel_algorithm6,
    parallel_algorithm7,
)
from repro.core.service import (
    Attestation,
    Contract,
    JoinService,
    Party,
    issue_attestation,
)

__all__ = [
    "Aggregate",
    "AggregateKind",
    "AggregateResult",
    "Attestation",
    "agg_max",
    "agg_min",
    "agg_sum",
    "aggregate_join",
    "avg",
    "count",
    "group_by_aggregate",
    "paper_aggregation_cost",
    "CartesianReader",
    "CartesianSpace",
    "Contract",
    "DECOY_FLAG",
    "JoinContext",
    "JoinPlan",
    "JoinResult",
    "JoinService",
    "OUTPUT_REGION",
    "ParallelJoinResult",
    "Party",
    "REAL_FLAG",
    "algorithm1",
    "algorithm1_variant",
    "algorithm2",
    "algorithm3",
    "algorithm4",
    "algorithm5",
    "algorithm6",
    "algorithm7",
    "algorithm8",
    "compute_n_exactly",
    "decoy_priority",
    "gamma_for",
    "is_real",
    "issue_attestation",
    "make_decoy",
    "make_real",
    "execute_plan",
    "plan_join",
    "parallel_algorithm2",
    "parallel_algorithm3",
    "parallel_algorithm4",
    "parallel_algorithm5",
    "parallel_algorithm6",
    "parallel_algorithm7",
    "unsafe_blocked_output",
    "unsafe_commutative",
    "unsafe_hash_partition",
    "unsafe_nested_loop",
    "unsafe_sort_merge",
    "upload_tables",
]
