"""The seeded chaos sweep: crash every safe algorithm, prove recovery is invisible.

For each safe algorithm (1, 1v, 2, 3, 4, 5, 6, 7, 8) the sweep:

1. runs two data instances that agree on the public parameters (sizes + N
   for Chapter 4, sizes + S for Chapter 5) fault-free, recording their
   StreamingTrace fingerprints — the privacy observable;
2. samples ≥ 3 crash points from the run's boundary operations (uniformly,
   plus the final one) and, for each, crashes the coprocessor there under a
   seeded :class:`~repro.faults.plan.FaultPlan` and recovers via
   :func:`~repro.faults.recovery.run_with_recovery`, asserting the recovered
   :class:`JoinResult` and fingerprint equal the uninterrupted run's;
3. runs one multi-crash pass (every sampled point in a single run, plus a
   capped storm of transient read faults absorbed by the retry policy) and
   checks the same invariants;
4. feeds a *recovered* run and a *plain* run of the other instance to the
   privacy checker's event-for-event comparison — recovery must be accepted
   by the same machinery that certifies the algorithms;
5. wraps a :class:`~repro.hardware.adversary.TamperingHost` in the fault
   layer and asserts, on both device types (batched and reference), that
   tampering still aborts with :class:`~repro.errors.AuthenticationError`
   on the batch that carried the tampered read — the retry loop must never
   re-issue an authentication failure, and nothing is written after it.

Everything is derived from one seed, so a red sweep reproduces exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.algorithm1 import algorithm1
from repro.core.algorithm1v import algorithm1_variant
from repro.core.algorithm2 import algorithm2
from repro.core.algorithm3 import algorithm3
from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.core.base import JoinContext, JoinResult
from repro.crypto.provider import FastProvider
from repro.errors import AuthenticationError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.recovery import run_with_recovery
from repro.hardware.adversary import TamperingHost
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory
from repro.hardware.resilience import RetryPolicy
from repro.hardware.timing import VirtualClock
from repro.obs.sinks import StreamingTrace
from repro.privacy.checker import check_runs
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality

KEY = b"chaos-harness-session-key-01"
N_MAX = 2

#: Every trace-safe algorithm, by registry name.
SAFE_ALGORITHMS = (
    "algorithm1", "algorithm1v", "algorithm2", "algorithm3",
    "algorithm4", "algorithm5", "algorithm6", "algorithm7", "algorithm8",
)
_CHAPTER4 = ("algorithm1", "algorithm1v", "algorithm2", "algorithm3")

Runner = Callable[[JoinContext], JoinResult]


def _make_runner(name: str, workload) -> Runner:
    """A closure running one algorithm over one workload in a given context."""
    predicate = Equality("key")
    multi = BinaryAsMulti(predicate)
    relations = [workload.left, workload.right]

    def run(context: JoinContext) -> JoinResult:
        if name == "algorithm1":
            return algorithm1(context, workload.left, workload.right,
                              predicate, N_MAX)
        if name == "algorithm1v":
            return algorithm1_variant(context, workload.left, workload.right,
                                      predicate, N_MAX)
        if name == "algorithm2":
            return algorithm2(context, workload.left, workload.right,
                              predicate, N_MAX, memory=3)
        if name == "algorithm3":
            return algorithm3(context, workload.left, workload.right,
                              "key", N_MAX)
        if name == "algorithm4":
            return algorithm4(context, relations, multi)
        if name == "algorithm5":
            return algorithm5(context, relations, multi, memory=3)
        if name == "algorithm6":
            # M < S, so the sweep crashes inside the segmented random-order
            # pass, the decoy filter and the emit, not the fit-in-memory exit.
            return algorithm6(context, relations, multi, memory=2,
                              epsilon=1e-20, seed=3)
        if name == "algorithm7":
            return algorithm7(context, relations, multi)
        if name == "algorithm8":
            return algorithm8(context, relations, multi, mode="semi")
        raise ValueError(f"unknown safe algorithm {name!r}")

    return run


def _runners(name: str, small: bool) -> tuple[Runner, Runner]:
    """Two instances agreeing on public parameters, differing in content."""
    left, right = (8, 10) if small else (12, 15)
    if name in _CHAPTER4:
        wl_a = equijoin_workload(left, right, 6 if small else 8,
                                 rng=random.Random(1), max_matches=2)
        wl_b = equijoin_workload(left, right, 2 if small else 4,
                                 rng=random.Random(2), max_matches=2)
    elif name == "algorithm8":
        # One-to-one matches: the semi-join's S equals the pair count, so
        # the two instances agree on (n1, n2, S).
        results = 5 if small else 6
        wl_a = equijoin_workload(left, right, results, rng=random.Random(10),
                                 max_matches=1)
        wl_b = equijoin_workload(left, right, results, rng=random.Random(20),
                                 max_matches=1)
    else:
        results = 5 if small else 6  # Definition 3 families share S
        wl_a = equijoin_workload(left, right, results, rng=random.Random(10))
        wl_b = equijoin_workload(left, right, results, rng=random.Random(20))
    return _make_runner(name, wl_a), _make_runner(name, wl_b)


@dataclass
class AlgorithmChaos:
    """One algorithm's chaos outcome."""

    algorithm: str
    transfers: int
    crash_points: list[int]
    attempts: int
    checkpoints_sealed: int
    replayed_transfers: int
    retries: int
    result_ok: bool
    fingerprint_ok: bool
    privacy_ok: bool
    tamper_ok: bool

    @property
    def ok(self) -> bool:
        return (self.result_ok and self.fingerprint_ok
                and self.privacy_ok and self.tamper_ok)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "transfers": self.transfers,
            "crash_points": self.crash_points,
            "attempts": self.attempts,
            "checkpoints_sealed": self.checkpoints_sealed,
            "replayed_transfers": self.replayed_transfers,
            "retries": self.retries,
            "result_ok": self.result_ok,
            "fingerprint_ok": self.fingerprint_ok,
            "privacy_ok": self.privacy_ok,
            "tamper_ok": self.tamper_ok,
            "ok": self.ok,
        }


@dataclass
class ChaosReport:
    """The full sweep's outcome."""

    seed: int
    small: bool
    interval: int
    crashes: int
    algorithms: list[AlgorithmChaos] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.algorithms) and all(a.ok for a in self.algorithms)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "small": self.small,
            "interval": self.interval,
            "crashes": self.crashes,
            "ok": self.ok,
            "algorithms": [a.to_dict() for a in self.algorithms],
        }


def _plain_run(runner: Runner, trace_factory=StreamingTrace,
               provider=FastProvider) -> JoinResult:
    context = JoinContext.fresh(provider=provider(KEY), seed=0,
                                trace_factory=trace_factory)
    return runner(context)


def _recovered_run(runner: Runner, plan: FaultPlan, *, interval: int,
                   max_attempts: int, retry: RetryPolicy | None = None,
                   trace_factory=StreamingTrace, provider=FastProvider):
    host = FaultyHost(HostMemory(), plan, clock=VirtualClock())
    return run_with_recovery(
        host, provider(KEY), runner, seed=0,
        checkpoint_interval=interval, max_attempts=max_attempts,
        retry=retry, clock=host.clock, trace_factory=trace_factory,
    )


def chaos_algorithm(name: str, *, seed: int = 0, crashes: int = 3,
                    interval: int = 8, small: bool = True,
                    provider=FastProvider) -> AlgorithmChaos:
    """Run the full chaos battery for one safe algorithm.

    ``provider`` is the crypto provider class every run is keyed under
    (``OcbProvider`` puts the span-cell path under the same crashes).
    """
    run_a, run_b = _runners(name, small)
    baseline = _plain_run(run_a, provider=provider)
    fingerprint = baseline.trace.fingerprint()
    transfers = baseline.stats.total

    # Checkpoints commit on batch boundaries, so a uniformly sampled point
    # may precede the first one (restart from zero); the final boundary op is
    # always sampled too — the latest crash replays every sealed batch.
    rng = random.Random(f"chaos:{seed}:{name}")
    points = sorted(rng.sample(range(1, transfers),
                               k=min(crashes, transfers) - 1)) + [transfers]

    result_ok = fingerprint_ok = True
    attempts = checkpoints = replayed = retries = 0

    # Single-crash recoveries, one per sampled point.
    for point in points:
        report = _recovered_run(
            run_a, FaultPlan(seed=seed, specs=(FaultSpec(kind="crash",
                                                         at_ops=(point,)),)),
            interval=interval, max_attempts=4, provider=provider,
        )
        result_ok &= report.result.result.same_multiset(baseline.result)
        result_ok &= report.crashes == 1
        fingerprint_ok &= report.result.trace.fingerprint() == fingerprint
        attempts += report.attempts
        checkpoints += report.checkpoints_sealed
        replayed += report.replayed_transfers

    # All sampled crash points in one run, plus a capped storm of transient
    # read faults the retry policy must absorb without touching the trace.
    # Crash spec first: if a transient draw lands on a crash point, the crash
    # must still win that operation (specs are interpreted in order).
    storm = FaultPlan(seed=seed, specs=(
        FaultSpec(kind="crash", at_ops=tuple(points)),
        FaultSpec(kind="transient-read", probability=0.05, times=4),
    ))
    report = _recovered_run(run_a, storm, interval=interval,
                            max_attempts=len(points) + 2,
                            retry=RetryPolicy(max_retries=4), provider=provider)
    result_ok &= report.result.result.same_multiset(baseline.result)
    result_ok &= report.crashes == len(points)
    fingerprint_ok &= report.result.trace.fingerprint() == fingerprint
    attempts += report.attempts
    checkpoints += report.checkpoints_sealed
    replayed += report.replayed_transfers
    retries += report.retries

    # The privacy checker must accept a recovered run exactly as it accepts
    # the algorithm: event-for-event against the other data instance.
    def recovered() -> JoinResult:
        plan = FaultPlan(seed=seed,
                         specs=(FaultSpec(kind="crash", at_ops=(points[0],)),))
        return _recovered_run(run_a, plan, interval=interval, max_attempts=4,
                              trace_factory=None, provider=provider).result

    privacy_ok = check_runs([
        recovered,
        lambda: _plain_run(run_b, trace_factory=None, provider=provider),
    ]).safe

    return AlgorithmChaos(
        algorithm=name,
        transfers=transfers,
        crash_points=points,
        attempts=attempts,
        checkpoints_sealed=checkpoints,
        replayed_transfers=replayed,
        retries=retries,
        result_ok=bool(result_ok),
        fingerprint_ok=bool(fingerprint_ok),
        privacy_ok=privacy_ok,
        tamper_ok=_tamper_aborts_immediately(run_a, provider),
    )


def _tamper_aborts_immediately(runner: Runner, provider=FastProvider,
                               tamper_at_read: int = 2) -> bool:
    """Tampering must abort on the tampered read — never enter the retry loop.

    Judged from the host's side, on both physical paths.  A tampered read
    inside a batch is followed by the rest of that batch's reads (the host
    serves the whole ranged call before T authenticates any of it), so the
    batched statement is: the tampered slot is served once — a retried batch
    would re-read it — no host write follows it, and T counted no retry.
    On ``ReferenceCoprocessor`` the exact form holds too: the tampered read is
    the last one the host ever serves.
    """
    return all(_stops_at_tamper(runner, provider(KEY), tamper_at_read, device)
               for device in (SecureCoprocessor, ReferenceCoprocessor))


def _stops_at_tamper(runner: Runner, provider, tamper_at_read: int,
                     device: type[SecureCoprocessor]) -> bool:
    tampering = TamperingHost(tamper_at_read)
    host = FaultyHost(tampering)
    coprocessor = device(host, provider, retry=RetryPolicy(max_retries=3),
                         clock=VirtualClock())
    context = JoinContext(host=host, coprocessor=coprocessor,
                          provider=provider, rng=random.Random(0))
    try:
        runner(context)
    except AuthenticationError:
        return (tampering.rereads == 0 and coprocessor.retries == 0
                and tampering.snapshot_regions() == tampering.image_at_tamper
                and (device is SecureCoprocessor
                     or tampering.reads_served == tamper_at_read))
    return False


def run_chaos(algorithms: Sequence[str] | None = None, *, seed: int = 0,
              crashes: int = 3, interval: int = 8, small: bool = True,
              provider=FastProvider) -> ChaosReport:
    """Sweep the chaos battery over the given (default: all) safe algorithms."""
    names = tuple(algorithms) if algorithms else SAFE_ALGORITHMS
    for name in names:
        if name not in SAFE_ALGORITHMS:
            raise ValueError(f"unknown safe algorithm {name!r} "
                             f"(choose from {SAFE_ALGORITHMS})")
    report = ChaosReport(seed=seed, small=small, interval=interval,
                         crashes=crashes)
    for name in names:
        report.algorithms.append(
            chaos_algorithm(name, seed=seed, crashes=crashes,
                            interval=interval, small=small, provider=provider)
        )
    return report
