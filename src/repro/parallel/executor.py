"""The multiprocess cluster executor: real wall-clock parallelism.

The :class:`~repro.hardware.cluster.Cluster` simulation runs its P
coprocessors' work sequentially and only *models* the parallel makespan.
:class:`ClusterExecutor` executes the same work genuinely concurrently, and
keeps the IPC bill small enough that the model survives contact with the
wall clock:

* **Shared-memory shards** — each round of tasks snapshots the regions its
  footprints read into one :class:`~repro.parallel.shard.SharedShardArena`
  segment; tasks carry only (segment, layout, span) descriptors and workers
  map the slots zero-copy instead of unpickling per-slot dictionaries.
* **Batched write-back** — workers return writes and appends as packed byte
  blobs (one contiguous flush per region) and their trace as its columns (one
  run append per task), merged back in task-submission order — the order the
  sequential simulation performs the same operations — so the parent's host
  image, every per-coprocessor trace, and therefore the modelled makespan and
  the privacy checker's accepted access pattern are all bit-identical to the
  sequential run.
* **Memoized worker providers** — each worker process clones the crypto
  provider once (:func:`~repro.crypto.provider.clone_provider`: independent
  nonce-prefix sequence, interoperable ciphertexts) and reuses the clone
  across tasks, so key schedules are not re-derived per task and nonce
  uniqueness is preserved per process rather than per task.

The executor counts where the boundary bytes went — ``bytes_shared`` vs
``bytes_pickled``, ``tasks_submitted``, ``flushes`` — and
:func:`repro.obs.metrics.instrument_executor` exports the same numbers as
metric series.

Everything a task carries must be picklable: module-level work functions
(``functools.partial`` over them is fine), dataclass predicates and codecs.
With ``workers <= 1`` the executor degrades to an in-process inline mode
that still routes every task through the shard machinery, so the declared
I/O footprints stay machine-checked even where no process pool exists.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.crypto.provider import CryptoProvider, clone_provider
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster, ShardTask, TaskIO, attempt_task
from repro.hardware.coprocessor import SecureCoprocessor
from repro.parallel.shard import (
    ArenaTaskSpec,
    RegionShard,
    SharedRegionShard,
    SharedShardArena,
    ShardHostMemory,
    ShardResult,
    attach_arena_shards,
    build_shards,
    merge_shard_result,
    shards_payload_bytes,
)

#: Coprocessor counters a worker reports back for per-device accounting.
_COUNTERS = (
    "encryptions",
    "decryptions",
    "physical_decryptions",
    "physical_encryptions",
    "cache_hits",
    "batched_ops",
    "batch_rows",
    "ops_completed",
)

#: Shared-memory segment name prefix; lifecycle tests look for leaks by it.
SEGMENT_PREFIX = "repro-shard"

_segment_counter = itertools.count(1)

#: Parent-side identity tokens for provider objects, so workers can memoize
#: their per-process clones across tasks (weak: tokens die with providers).
_provider_tokens: "weakref.WeakKeyDictionary[Any, str]" = weakref.WeakKeyDictionary()

#: Worker-side clone cache: one provider clone per (process, parent provider).
_worker_providers: dict[str, CryptoProvider] = {}


def _provider_token(provider: CryptoProvider) -> str:
    try:
        token = _provider_tokens.get(provider)
    except TypeError:  # unhashable/unweakrefable provider: never memoize
        return f"anon-{os.urandom(8).hex()}"
    if token is None:
        token = f"{os.getpid()}-{next(_segment_counter)}-{os.urandom(4).hex()}"
        _provider_tokens[provider] = token
    return token


def _worker_provider(token: str, provider: CryptoProvider) -> CryptoProvider:
    """The memoized per-process clone of the parent's provider.

    The first task in a worker clones (fresh random nonce prefix, same key);
    later tasks reuse the clone, whose counter keeps climbing — nonces stay
    unique without re-deriving key schedules on every task.
    """
    cached = _worker_providers.get(token)
    if cached is None:
        if len(_worker_providers) > 64:  # bound growth across many clusters
            _worker_providers.clear()
        cached = _worker_providers[token] = clone_provider(provider)
    return cached


def _run_shard_task(
    shards: dict[str, RegionShard | SharedRegionShard],
    provider: CryptoProvider,
    name: str,
    memory_limit: int | None,
    device: type[SecureCoprocessor],
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    transient_retries: int,
) -> ShardResult:
    """Run the work over rebuilt shards and pack the result for the merge.

    Called directly with dictionary shards (in-process tasks and the pickled
    fallback transport), through :func:`_execute_arena_task` with arena ones.
    """
    host = ShardHostMemory(shards)
    coprocessor = device(host, provider, memory_limit=memory_limit, name=name)
    value = attempt_task(fn, coprocessor, args, kwargs, transient_retries)
    return ShardResult(
        value=value,
        writes=host.packed_writes(),
        appends=host.packed_appends(),
        append_bases={
            region: shard.append_base
            for region, shard in shards.items()
            if shard.append_base is not None
        },
        events=coprocessor.trace.columns(),
        counters={name: getattr(coprocessor, name) for name in _COUNTERS},
    )


def _execute_arena_task(
    spec: ArenaTaskSpec,
    provider_token: str,
    provider: CryptoProvider,
    name: str,
    memory_limit: int | None,
    device: type[SecureCoprocessor],
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    transient_retries: int,
) -> ShardResult:
    """Pool-worker entry point: map the arena, run, detach."""
    shm, shards = attach_arena_shards(spec)
    try:
        worker_provider = _worker_provider(provider_token, provider)
        return _run_shard_task(
            shards, worker_provider, name, memory_limit, device,
            fn, args, kwargs, transient_retries,
        )
    finally:
        # Drop shard views before closing so no exported buffer outlives the
        # mapping; the parent owns the unlink.
        del shards
        if shm is not None:
            shm.close()


def _annotate(error: BaseException, device: int, name: str, label: str) -> BaseException:
    """Attach worker/device context to ``error`` without losing the original.

    Uses :meth:`Exception.add_note` (3.11+) so the annotation and the
    original error both survive; on 3.10 the note is attached to
    ``__notes__`` directly (same attribute the traceback module renders).
    """
    note = f"worker {device} ({name}) failed on {label or 'task'}"
    add_note = getattr(error, "add_note", None)
    if add_note is not None:
        add_note(note)
    else:
        error.__notes__ = [*getattr(error, "__notes__", []), note]
    return error


class ClusterExecutor:
    """Runs cluster work on a pool of OS processes, merging deterministically.

    ``workers`` defaults to ``os.cpu_count()``; with one worker (or one CPU)
    the executor runs tasks inline — same shard transport, same merge path,
    no pool.  The pool is created lazily and reused across rounds; use the
    executor as a context manager (or call :meth:`close`) to tear it down —
    ``close()`` also unlinks any shared-memory segment a crashed round left
    behind.
    """

    def __init__(
        self,
        workers: int | None = None,
        start_method: str | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError("the executor needs at least one worker")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.use_shared_memory = True
        self._pool: ProcessPoolExecutor | None = None
        self._arenas: dict[str, SharedShardArena] = {}
        #: Clones for tasks run in-process, held weakly by the parent's
        #: provider so a long-lived executor does not collect one per join.
        #: Not ``_worker_providers``: a worker forked later would inherit the
        #: parent's clone and its nonce counter.
        self._inline_providers: "weakref.WeakKeyDictionary[Any, CryptoProvider]" = (
            weakref.WeakKeyDictionary())
        #: Tasks executed and tasks that actually went through the pool.
        self.tasks_run = 0
        self.tasks_pooled = 0
        self.rounds = 0
        #: IPC accounting (see docs/PERFORMANCE.md): payload bytes that
        #: crossed the boundary via pickle vs. bytes mapped via shared
        #: memory, rounds of task submission, and contiguous merge flushes.
        self.bytes_pickled = 0
        self.bytes_shared = 0
        self.tasks_submitted = 0
        self.flushes = 0

    # -- lifecycle -----------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self.start_method),
            )
        return self._pool

    def _new_arena(self, cluster: Cluster, tasks: Sequence[ShardTask]) -> SharedShardArena:
        regions: set[str] = set()
        for task in tasks:
            regions.update(task.io.reads)
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_segment_counter)}"
        arena = SharedShardArena(cluster.host, regions, name=name)
        self._arenas[arena.name] = arena
        self.bytes_shared += arena.nbytes
        return arena

    def _destroy_arena(self, arena: SharedShardArena) -> None:
        arena.destroy()
        self._arenas.pop(arena.name, None)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # Normal rounds unlink their own segment; this sweeps anything a
        # crash path (e.g. a broken pool) may have left registered.
        for arena in list(self._arenas.values()):
            self._destroy_arena(arena)

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def inline(self) -> bool:
        """True when tasks run in-process (no wall-clock parallelism)."""
        return self.workers <= 1

    # -- the barrier round ---------------------------------------------------
    def run_tasks(
        self,
        cluster: Cluster,
        tasks: Sequence[ShardTask],
        transient_retries: int = 0,
    ) -> list[Any]:
        """Execute one round of tasks concurrently and merge the results.

        Tasks in a round must touch disjoint host slots (their declared
        ``TaskIO`` footprints are cut from the same parent-host snapshot).
        Returns each task's ``fn`` return value, in task order.
        """
        self.rounds += 1
        self.tasks_submitted += len(tasks)

        if self.inline or len(tasks) <= 1:
            results = self._run_inline(cluster, tasks, transient_retries)
        else:
            results = self._run_pooled(cluster, tasks, transient_retries)

        values = []
        for task, result in zip(tasks, results):
            self.flushes += merge_shard_result(cluster.host, result)
            device = cluster[task.device]
            device.trace.record_run(*result.events)
            for counter in _COUNTERS:
                setattr(device, counter,
                        getattr(device, counter) + result.counters.get(counter, 0))
            values.append(result.value)
        self.tasks_run += len(tasks)
        return values

    def _run_inline(
        self,
        cluster: Cluster,
        tasks: Sequence[ShardTask],
        transient_retries: int,
    ) -> list[ShardResult]:
        try:
            provider = self._inline_providers.get(cluster.provider)
            if provider is None:
                provider = clone_provider(cluster.provider)
                self._inline_providers[cluster.provider] = provider
        except TypeError:  # unhashable/unweakrefable provider: never memoize
            provider = clone_provider(cluster.provider)
        results = []
        for task in tasks:
            device = cluster[task.device]
            shards = build_shards(cluster.host, task.io)
            results.append(self._guarded(task, cluster, lambda: _run_shard_task(
                shards, provider, device.name, device.memory_limit,
                type(device), task.fn, task.args, task.kwargs, transient_retries,
            )))
        return results

    def _run_pooled(
        self,
        cluster: Cluster,
        tasks: Sequence[ShardTask],
        transient_retries: int,
    ) -> list[ShardResult]:
        pool = self._ensure_pool()
        token = _provider_token(cluster.provider)
        arena: SharedShardArena | None = None
        if self.use_shared_memory:
            try:
                arena = self._new_arena(cluster, tasks)
            except OSError:
                # No usable shared memory on this platform/filesystem: fall
                # back to the pickled dictionary transport for good.
                self.use_shared_memory = False
        try:
            futures: list[Future] = []
            for task in tasks:
                device = cluster[task.device]
                tail = (
                    device.name, device.memory_limit, type(device),
                    task.fn, task.args, task.kwargs, transient_retries,
                )
                if arena is not None:
                    futures.append(pool.submit(
                        _execute_arena_task, arena.task_spec(task.io),
                        token, cluster.provider, *tail,
                    ))
                else:
                    shards = build_shards(cluster.host, task.io)
                    self.bytes_pickled += shards_payload_bytes(shards)
                    futures.append(pool.submit(
                        _run_shard_task, shards,
                        clone_provider(cluster.provider), *tail,
                    ))
            self.tasks_pooled += len(futures)
            try:
                results = [
                    self._guarded(task, cluster, future.result)
                    for task, future in zip(tasks, futures)
                ]
            except BaseException:
                # Keep not-yet-started siblings from attaching a segment the
                # finally block is about to unlink.
                for future in futures:
                    future.cancel()
                raise
            self.bytes_pickled += sum(r.payload_bytes() for r in results)
            return results
        finally:
            if arena is not None:
                self._destroy_arena(arena)

    def _guarded(self, task: ShardTask, cluster: Cluster,
                 resolve: Callable[[], ShardResult]) -> ShardResult:
        try:
            return resolve()
        except Exception as error:
            raise _annotate(
                error, task.device, cluster[task.device].name, task.label
            )

    # -- the Cluster.run_partitioned analogue --------------------------------
    def run_partitioned(
        self,
        cluster: Cluster,
        size: int,
        work: Callable[..., Any],
        io: Callable[[range, int], TaskIO],
        transient_retries: int = 0,
        label: str = "partition",
    ) -> list[range]:
        """``Cluster.run_partitioned`` with the partitions genuinely parallel.

        ``work(coprocessor, index_range, worker)`` must be picklable;
        ``io(index_range, worker)`` declares each partition's host footprint.
        """
        tasks = cluster.partition_tasks(size, work, io, label)
        self.run_tasks(cluster, tasks, transient_retries=transient_retries)
        return [task.args[0] for task in tasks]
