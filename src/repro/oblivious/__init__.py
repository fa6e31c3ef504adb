"""Data-oblivious primitives: sorting, merging and routing networks, sort,
distribute, compact, shuffle, decoy filter."""

from repro.oblivious.expand import (
    INFINITY,
    oblivious_linear_pass,
    oblivious_transform_copy,
    oblivious_zip_write,
)
from repro.oblivious.filterbuf import emit_kept, oblivious_filter
from repro.oblivious.networks import (
    Comparator,
    compaction_network,
    comparator_count,
    distribution_network,
    exact_transfers,
    is_merging_network,
    is_sorting_network,
    merging_network,
    network_stages,
    paper_comparisons,
    paper_transfers,
    sorting_network,
)
from repro.oblivious.parallel_filter import (
    ParallelFilterReport,
    parallel_oblivious_filter,
)
from repro.oblivious.parallel_sort import (
    ParallelSortReport,
    parallel_oblivious_sort,
    parallel_sort_makespan,
)
from repro.oblivious.shuffle import oblivious_shuffle
from repro.oblivious.sort import (
    KeyFunction,
    oblivious_compact,
    oblivious_distribute,
    oblivious_sort,
    oblivious_sort_indices,
)

__all__ = [
    "Comparator",
    "INFINITY",
    "KeyFunction",
    "compaction_network",
    "comparator_count",
    "distribution_network",
    "emit_kept",
    "exact_transfers",
    "is_merging_network",
    "is_sorting_network",
    "merging_network",
    "oblivious_compact",
    "oblivious_distribute",
    "oblivious_filter",
    "oblivious_linear_pass",
    "oblivious_shuffle",
    "oblivious_sort",
    "oblivious_sort_indices",
    "oblivious_transform_copy",
    "oblivious_zip_write",
    "ParallelFilterReport",
    "parallel_oblivious_filter",
    "ParallelSortReport",
    "network_stages",
    "parallel_oblivious_sort",
    "parallel_sort_makespan",
    "paper_comparisons",
    "paper_transfers",
    "sorting_network",
]
