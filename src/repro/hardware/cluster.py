"""Multiple coprocessors on one host (Sections 4.4.4 and 5.3.5).

"Consider a server which has more than one secure coprocessor attached" — the
parallel variants of the algorithms partition work across the P coprocessors
of a :class:`Cluster`.  The simulation runs the coprocessors' work sequentially
but accounts it per-coprocessor; the modelled parallel makespan is the maximum
per-coprocessor transfer count, so linear speedup shows up as
``makespan ~= total / P``.

Parallel work is described one way only: a *barrier round*, a list of
:class:`ShardTask`.  A round has two executors and :meth:`Cluster.iter_tasks`
is the one place that picks between them: inline, one task after another on
this cluster's own coprocessors (the sequential simulation), or a
:class:`~repro.parallel.executor.ClusterExecutor`'s process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError, TransientHostError
from repro.hardware.coprocessor import SecureCoprocessor, TraceFactory
from repro.hardware.host import HostMemory

#: One contiguous slot span [start, stop) of a region.
Span = tuple[int, int]


@dataclass(frozen=True)
class TaskIO:
    """A task's declared host footprint.

    ``reads`` maps each region the work touches in place to the slot spans
    shipped to the worker (``None`` means the whole region); written slots
    are merged back, so reads double as writes.  ``appends`` maps a growable
    region to the global index the task's first append must land on — the
    parent verifies the base at merge time, which pins the deterministic
    append order the sequential simulation produces.
    """

    reads: Mapping[str, Sequence[Span] | None] = field(default_factory=dict)
    appends: Mapping[str, int] = field(default_factory=dict)


@dataclass
class ShardTask:
    """One unit of parallel work, bound to a cluster device for accounting."""

    device: int
    fn: Callable[..., Any]          # fn(coprocessor, *args, **kwargs)
    io: TaskIO
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = ""


def attempt_task(fn: Callable[..., Any], coprocessor: SecureCoprocessor,
                 args: tuple, kwargs: dict, transient_retries: int) -> Any:
    """``fn(coprocessor, *args, **kwargs)``, run again after each of up to
    ``transient_retries`` :class:`~repro.errors.TransientHostError`s — the
    work must be idempotent (fixed-slot writes are; blind appends are not)."""
    attempt = 0
    while True:
        try:
            return fn(coprocessor, *args, **kwargs)
        except TransientHostError:
            if attempt >= transient_retries:
                raise
            attempt += 1


class TaskExecutor(Protocol):
    """What runs a round elsewhere than inline: ``repro.parallel``'s
    ``ClusterExecutor``, which layers above this package."""

    def run_tasks(self, cluster: "Cluster", tasks: Sequence[ShardTask],
                  transient_retries: int = 0) -> list[Any]: ...


class Cluster:
    """P secure coprocessors attached to a single host.

    All coprocessors share one crypto provider: in the real deployment they
    would hold the same session keys after the contract handshake, and sharing
    the provider's nonce counter preserves nonce uniqueness across devices.
    """

    def __init__(
        self,
        host: HostMemory,
        provider: CryptoProvider,
        count: int,
        memory_limit: int | None = None,
        trace_factory: TraceFactory | None = None,
        device: type[SecureCoprocessor] = SecureCoprocessor,
    ) -> None:
        if count < 1:
            raise ConfigurationError("a cluster needs at least one coprocessor")
        self.host = host
        self.provider = provider
        # Slot caches are per-coprocessor: a slot rewritten by a sibling
        # device simply misses (byte-inequality) and takes the physical path.
        self.coprocessors = [
            device(host, provider, memory_limit=memory_limit, name=f"T{i}",
                   trace_factory=trace_factory)
            for i in range(count)
        ]

    def __len__(self) -> int:
        return len(self.coprocessors)

    def __iter__(self):
        return iter(self.coprocessors)

    def __getitem__(self, index: int) -> SecureCoprocessor:
        return self.coprocessors[index]

    # -- work partitioning helpers -------------------------------------------
    def partition_range(self, size: int) -> list[range]:
        """Split [0, size) into len(self) nearly equal contiguous ranges."""
        count = len(self.coprocessors)
        base, extra = divmod(size, count)
        ranges = []
        start = 0
        for i in range(count):
            length = base + (1 if i < extra else 0)
            ranges.append(range(start, start + length))
            start += length
        return ranges

    # -- accounting -------------------------------------------------------------
    def total_transfers(self) -> int:
        return sum(t.trace.transfer_count() for t in self.coprocessors)

    def makespan_transfers(self) -> int:
        """The modelled parallel completion time: the busiest coprocessor."""
        return max(t.trace.transfer_count() for t in self.coprocessors)

    def speedup(self) -> float:
        """total / makespan — equals P under a perfectly balanced partition."""
        makespan = self.makespan_transfers()
        if makespan == 0:
            return float(len(self.coprocessors))
        return self.total_transfers() / makespan

    # -- barrier rounds ---------------------------------------------------------
    def iter_tasks(
        self,
        tasks: Sequence[ShardTask],
        executor: TaskExecutor | None = None,
        transient_retries: int = 0,
    ) -> Iterator[Any]:
        """Run one barrier round; yields each task's value, in task order.

        Without an executor every task's ``fn(self[device], *args, **kwargs)``
        runs inline as its value is asked for (``io`` is a declaration this
        mode does not need), so a consumer that stops asking stops the round
        — Algorithm 6 ends its round at the first blemished share.  With one,
        the same list goes to ``executor.run_tasks`` and the whole round has
        run before the first value arrives.

        A task raising (after its :func:`attempt_task` retries) surfaces
        annotated with its device and label, keeping the exception type so
        callers' handling (e.g. of ``AuthenticationError``) is unchanged.
        """
        if executor is not None:
            yield from executor.run_tasks(self, tasks, transient_retries)
            return
        for task in tasks:
            coprocessor = self.coprocessors[task.device]
            try:
                value = attempt_task(
                    task.fn, coprocessor, task.args, task.kwargs, transient_retries)
            except Exception as error:
                raise self._annotate(error, coprocessor, task)
            yield value

    def run_tasks(
        self,
        tasks: Sequence[ShardTask],
        executor: TaskExecutor | None = None,
        transient_retries: int = 0,
    ) -> list[Any]:
        """:meth:`iter_tasks` run to the barrier: every task's value, in order."""
        return list(self.iter_tasks(tasks, executor, transient_retries))

    def partition_tasks(
        self,
        size: int,
        work: Callable[..., Any],
        io: Callable[[range, int], TaskIO] = lambda index_range, worker: TaskIO(),
        label: str = "partition",
    ) -> list[ShardTask]:
        """One task per coprocessor over a balanced partition of [0, size).

        Each runs ``work(coprocessor, index_range, worker)``; ``worker`` is
        the coprocessor's position in the cluster — the authoritative identity
        for per-worker accounting (never parse it back out of the
        coprocessor's display name).  ``io(index_range, worker)`` declares the
        partition's host footprint.
        """
        return [
            ShardTask(
                device=worker,
                fn=work,
                io=io(index_range, worker),
                args=(index_range, worker),
                label=f"{label} [{index_range.start}, {index_range.stop})",
            )
            for worker, index_range in enumerate(self.partition_range(size))
        ]

    def run_partitioned(
        self,
        size: int,
        work: Callable[[SecureCoprocessor, range, int], None],
        transient_retries: int = 0,
    ) -> list[range]:
        """Apply ``work`` over a balanced partition, inline; returns the ranges."""
        tasks = self.partition_tasks(size, work)
        self.run_tasks(tasks, transient_retries=transient_retries)
        return [task.args[0] for task in tasks]

    @staticmethod
    def _annotate(
        error: Exception, coprocessor: SecureCoprocessor, task: ShardTask
    ) -> Exception:
        """The same-typed, worker-attributed copy of a task failure."""
        note = (
            f"worker {task.device} ({coprocessor.name}) failed on "
            f"{task.label or 'task'}: {error}"
        )
        try:
            annotated = type(error)(note)
        except Exception:
            raise error  # exception type not message-constructible
        annotated.__cause__ = error
        return annotated
