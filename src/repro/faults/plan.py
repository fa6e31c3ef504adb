"""Declarative, seed-deterministic fault plans for the untrusted host.

The paper's T "relies on the host for storage" (Section 3.2) — so the host's
failure modes are part of the threat surface even in the honest-but-curious
model.  A :class:`FaultPlan` declares *when* and *how* the host misbehaves:
transient read/write failures, slow responses, and crash-at-operation-k
events that wipe the coprocessor's volatile state.  Plans are data: the same
``(seed, specs)`` pair injects the same faults at the same host operations
on every run, so chaos sweeps are reproducible and failures bisectable.

A plan is *compiled* before use: compilation binds each spec to its own
seeded RNG stream (independent of the other specs and of anything the
algorithms draw), producing a :class:`CompiledFaultPlan` that a
:class:`~repro.hardware.faulty.FaultyHost` drives with its fault clock.
Ordinals still count every declared boundary operation (a batch presents one
op per slot it moves), but the host asks the plan only at the ordinals its
:meth:`~CompiledFaultPlan.candidates` names: a deterministic trigger depends
on the ordinal alone, so no other ordinal can fire or change any state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError

#: Fault kinds a spec may declare against the simulated host's storage.
TRANSIENT_READ = "transient-read"
TRANSIENT_WRITE = "transient-write"
SLOW = "slow"
CRASH = "crash"
KINDS = (TRANSIENT_READ, TRANSIENT_WRITE, SLOW, CRASH)

#: Fault kinds a spec may declare against the *wire* — consumed by the
#: network chaos proxy (:mod:`repro.net.chaosproxy`), which reuses the same
#: declarative triggers (at_ops / every / probability, counted per forwarded
#: chunk) against the two socket directions ``c2s`` and ``s2c``.
WIRE_RESET = "reset"          # close the connection abruptly
WIRE_DELAY = "delay"          # stall the chunk before forwarding
WIRE_SPLIT = "split"          # forward the chunk one byte, then the rest
WIRE_TRUNCATE = "truncate"    # forward a prefix, then close the connection
WIRE_CORRUPT = "corrupt"      # flip one byte (the CRC trailer must catch it)
WIRE_KINDS = (WIRE_RESET, WIRE_DELAY, WIRE_SPLIT, WIRE_TRUNCATE, WIRE_CORRUPT)

ALL_KINDS = KINDS + WIRE_KINDS

#: The two wire directions a chaos-proxy spec may target.
_WIRE_OPS = ("c2s", "s2c")

#: Operation classes each kind is eligible for (``ops`` narrows further).
_KIND_OPS = {
    TRANSIENT_READ: ("read",),
    TRANSIENT_WRITE: ("write", "append"),
    SLOW: ("read", "write", "append"),
    CRASH: ("read", "write", "append"),
    WIRE_RESET: _WIRE_OPS,
    WIRE_DELAY: _WIRE_OPS,
    WIRE_SPLIT: _WIRE_OPS,
    WIRE_TRUNCATE: _WIRE_OPS,
    WIRE_CORRUPT: _WIRE_OPS,
}

_OP_CLASSES = ("read", "write", "append") + _WIRE_OPS


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault source.

    A spec fires on a host operation when its trigger matches — an explicit
    operation number in ``at_ops`` (1-based, counted over *attempted*
    boundary operations), a period ``every``, or a per-operation Bernoulli
    ``probability`` — subject to the ``regions``/``ops`` filters and the
    ``times`` cap.  ``transient-*`` kinds raise
    :class:`~repro.errors.TransientHostError` *before* the operation executes
    (so a retried append cannot double-apply); ``slow`` burns
    ``delay_cycles`` on the simulated clock and lets the operation proceed;
    ``crash`` raises :class:`~repro.errors.CoprocessorCrashError`, modelling
    the enclave losing its volatile state while the host survives.
    """

    kind: str
    at_ops: tuple[int, ...] = ()
    every: int = 0
    probability: float = 0.0
    times: int | None = None
    regions: tuple[str, ...] = ()
    ops: tuple[str, ...] = ()
    delay_cycles: int = 50

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (choose from {ALL_KINDS})"
            )
        if not (self.at_ops or self.every or self.probability):
            raise ConfigurationError(
                "a fault spec needs a trigger: at_ops, every, or probability"
            )
        if any(op < 1 for op in self.at_ops):
            raise ConfigurationError("at_ops counts host operations from 1")
        if self.every < 0:
            raise ConfigurationError("every must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must lie in [0, 1]")
        if self.times is not None and self.times < 1:
            raise ConfigurationError("times must be at least 1 when given")
        if self.delay_cycles < 0:
            raise ConfigurationError("delay_cycles must be non-negative")
        for op in self.ops:
            if op not in _OP_CLASSES:
                raise ConfigurationError(f"unknown op class {op!r}")
            if op not in _KIND_OPS[self.kind]:
                raise ConfigurationError(
                    f"fault kind {self.kind!r} cannot target op class "
                    f"{op!r} (choose from {_KIND_OPS[self.kind]})"
                )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of fault specs; compile before use."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        # Accept any iterable of specs for ergonomics; store a tuple.
        object.__setattr__(self, "specs", tuple(self.specs))

    def compile(self) -> "CompiledFaultPlan":
        return CompiledFaultPlan(self)


class _SpecState:
    """One spec's mutable trigger state inside a compiled plan."""

    def __init__(self, spec: FaultSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self.fired = 0

    def fires(self, op_number: int, op: str, region: str) -> bool:
        spec = self.spec
        if op not in _KIND_OPS[spec.kind]:
            return False
        if spec.ops and op not in spec.ops:
            return False
        if spec.regions and region not in spec.regions:
            return False
        if spec.times is not None and self.fired >= spec.times:
            return False
        hit = False
        if op_number in spec.at_ops:
            hit = True
        elif spec.every and op_number % spec.every == 0:
            hit = True
        elif spec.probability and self.rng.random() < spec.probability:
            hit = True
        if hit:
            self.fired += 1
        return hit


class CompiledFaultPlan:
    """A plan bound to per-spec RNG streams; consulted at candidate ordinals.

    Each spec draws from ``Random(seed * 1_000_003 + index)`` so adding or
    removing one spec never perturbs another's injection points — plans
    compose the way the declarative syntax suggests.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._states = [
            _SpecState(spec, random.Random(plan.seed * 1_000_003 + index))
            for index, spec in enumerate(plan.specs)
        ]

    def consult(self, op_number: int, op: str, region: str) -> list[FaultSpec]:
        """The specs firing on this host operation, in declaration order."""
        return [s.spec for s in self._states if s.fires(op_number, op, region)]

    def candidates(self, start: int, count: int) -> Sequence[int]:
        """The ordinals in ``(start, start + count]`` at which a spec may fire.

        Consulting any other ordinal returns ``[]`` and changes nothing:
        :meth:`_SpecState.fires` bumps ``fired`` only on a hit and draws no
        RNG before its ``times`` cap or without a ``probability``.  A spec with
        a ``probability`` draws once per eligible op, so it makes every
        ordinal a candidate and its stream advances exactly as op-by-op.
        """
        stop = start + count
        live = [state.spec for state in self._states
                if state.spec.times is None or state.fired < state.spec.times]
        if any(spec.probability for spec in live):
            return range(start + 1, stop + 1)
        ordinals = set()
        for spec in live:
            ordinals.update(op for op in spec.at_ops if start < op <= stop)
            if spec.every:
                first = (start // spec.every + 1) * spec.every
                ordinals.update(range(first, stop + 1, spec.every))
        return sorted(ordinals)

    @property
    def total_fired(self) -> int:
        return sum(s.fired for s in self._states)


def crash_plan(at_ops, seed: int = 0) -> FaultPlan:
    """A plan that crashes the coprocessor at the given host operations."""
    return FaultPlan(seed=seed, specs=(FaultSpec(kind=CRASH, at_ops=tuple(at_ops)),))


def transient_plan(
    probability: float = 0.0,
    at_ops: tuple[int, ...] = (),
    times: int | None = None,
    seed: int = 0,
    kind: str = TRANSIENT_READ,
) -> FaultPlan:
    """A plan injecting transient storage faults (reads by default)."""
    return FaultPlan(
        seed=seed,
        specs=(FaultSpec(kind=kind, probability=probability, at_ops=tuple(at_ops),
                         times=times),),
    )
