"""Wall-clock parallel execution for the cluster simulation.

The :mod:`repro.hardware.cluster` layer describes parallel work as barrier
rounds of :class:`ShardTask` and, on its own, runs them one after another
(per-coprocessor accounting, modelled makespan).  This package is the other
executor of the same rounds:

* :mod:`repro.parallel.shard` — host-memory shards addressed by global slot
  indices with machine-checked I/O footprints, shipped zero-copy through
  ``multiprocessing.shared_memory`` arenas (or pickled dicts inline);
* :mod:`repro.parallel.executor` — a ``ProcessPoolExecutor``-backed
  :class:`ClusterExecutor` with deterministic, sequential-order merges,
  batched blob write-back, and IPC byte accounting.

Everything parallel takes it as ``executor=``: ``parallel_algorithm2(...,
executor=ClusterExecutor(4))`` (and 3/4/5/6, see :mod:`repro.core.parallel`),
``parallel_oblivious_sort`` and ``parallel_oblivious_filter`` run the same
rounds — same traces, same results — concurrently.
"""

from repro.parallel.executor import SEGMENT_PREFIX, ClusterExecutor, ShardTask
from repro.parallel.shard import (
    ArenaTaskSpec,
    RegionShard,
    SharedRegionShard,
    SharedShardArena,
    ShardHostMemory,
    ShardResult,
    TaskIO,
    attach_arena_shards,
    build_shards,
    merge_shard_result,
)

__all__ = [
    "ClusterExecutor",
    "SEGMENT_PREFIX",
    "ShardTask",
    "TaskIO",
    "RegionShard",
    "SharedRegionShard",
    "SharedShardArena",
    "ArenaTaskSpec",
    "ShardHostMemory",
    "ShardResult",
    "attach_arena_shards",
    "build_shards",
    "merge_shard_result",
]
