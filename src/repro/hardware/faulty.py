"""A host whose storage fails on schedule (the chaos counterpart of adversary.py).

Where :class:`~repro.hardware.adversary.TamperingHost` models a *malicious*
host, :class:`FaultyHost` models an *unreliable* one: reads drop, writes
stall, and the attached coprocessor can lose power mid-join.  It always wraps
an inner host — storage semantics stay exactly the inner host's; the wrapper
only decides, per attempted boundary operation, whether a declared fault fires
first.  Faults are raised *before* the operation executes, so a retried or
replayed append can never double-apply.

The fault clock counts **declared boundary ops**, not Python calls, and
:meth:`FaultyHost.admit` is its only entry.  Every boundary batch — a batch
of one included — presents its op window, one ``(op class, region)`` pair
per declared op in trace order, before its first storage mutation.  Slot
calls and host-side calls (uploads, host copies) pass straight through to
the inner host and never tick the clock.  A plan therefore fires at the
same boundary-op ordinal whether the coprocessor batches or not.

The wrapper consults a compiled fault plan (see :mod:`repro.faults.plan`) by
duck type — anything with ``consult(op_number, op, region) -> specs`` works —
so the hardware layer does not import the higher-level faults package.  A
plan that also has ``candidates(start, count)`` is asked only at the ordinals
it names; every op still takes its ordinal, so the counting is unchanged.  Spec
kinds are the plan module's string contract: ``transient-read`` /
``transient-write`` raise :class:`~repro.errors.TransientHostError`,
``slow`` burns ``delay_cycles`` on the simulated clock and proceeds, and
``crash`` raises :class:`~repro.errors.CoprocessorCrashError`.

Checkpoint I/O deliberately bypasses this wrapper: the sealed checkpoint
store operates on the unwrapped base host (``repro.faults.checkpoint``), so
recovery state survives the very faults it protects against.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CoprocessorCrashError, TransientHostError
from repro.hardware.host import ForwardingHost, HostMemory
from repro.hardware.timing import VirtualClock


class FaultyHost(ForwardingHost):
    """Injects declared faults in front of an inner host's storage ops.

    ``ops_attempted`` counts every attempted boundary operation (including
    attempts that faulted and were retried; a retried batch re-presents its
    whole window) — the 1-based counter fault specs' ``at_ops`` refer to.
    The host survives injected crashes, so the counter keeps climbing across
    coprocessor restarts; a crash declared at operation *k* therefore fires
    exactly once.
    """

    def __init__(self, inner: HostMemory, plan=None,
                 clock: VirtualClock | None = None) -> None:
        super().__init__(inner)
        self._plan = plan.compile() if hasattr(plan, "compile") else plan
        self.clock = clock
        self.ops_attempted = 0
        self.transient_faults_injected = 0
        self.crashes_injected = 0
        self.slow_events = 0

    def _consult(self, op: str, region: str) -> None:
        self.ops_attempted += 1
        for spec in self._plan.consult(self.ops_attempted, op, region):
            if spec.kind == "slow":
                self.slow_events += 1
                if self.clock is not None:
                    self.clock.tick(spec.delay_cycles)
            elif spec.kind == "crash":
                self.crashes_injected += 1
                raise CoprocessorCrashError(
                    f"injected crash at host operation {self.ops_attempted} "
                    f"({op} on {region!r}): coprocessor volatile state lost"
                )
            else:
                self.transient_faults_injected += 1
                raise TransientHostError(
                    f"injected {spec.kind} fault at host operation "
                    f"{self.ops_attempted} ({op} on {region!r})"
                )

    def admit(self, window: Sequence[tuple[str, str]]) -> None:
        """Present a batch's declared ``(op class, region)`` ops to the plan:
        the fault clock's only entry.

        The window's ops take the next ``len(window)`` ordinals, but the plan
        is asked only at the ordinals its ``candidates(start, count)`` names
        (every ordinal for a plan without one).  A fault leaves the counter
        at the ordinal that fired and consults nothing after it.
        """
        start = self.ops_attempted
        if self._plan is None:
            ordinals = ()
        elif hasattr(self._plan, "candidates"):
            ordinals = self._plan.candidates(start, len(window))
        else:
            ordinals = range(start + 1, start + len(window) + 1)
        for ordinal in ordinals:
            self.ops_attempted = ordinal - 1
            self._consult(*window[ordinal - start - 1])
        self.ops_attempted = start + len(window)
