"""The chaos sweep: crash every safe algorithm, assert recovery is invisible.

The full sweep (all seven safe algorithms, three randomized crash points
each, a combined crash+transient storm, privacy-checker acceptance, and the
tamper-abort check) runs only under ``--runchaos`` — it is the acceptance
battery CI runs, not a unit test.  A one-algorithm smoke stays in the
default suite so the harness itself can never silently rot.
"""

import pytest

from repro.faults.chaos import SAFE_ALGORITHMS, chaos_algorithm, run_chaos


def test_chaos_smoke_one_algorithm():
    outcome = chaos_algorithm("algorithm2", seed=0, crashes=1, interval=8)
    assert outcome.ok, outcome.to_dict()
    assert outcome.crash_points and outcome.attempts >= 2


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        run_chaos(["algorithm9"])


@pytest.mark.chaos
@pytest.mark.parametrize("name", SAFE_ALGORITHMS)
def test_chaos_sweep(name):
    outcome = chaos_algorithm(name, seed=0, crashes=3, interval=8)
    assert outcome.ok, outcome.to_dict()
    assert len(outcome.crash_points) == 3
    assert outcome.checkpoints_sealed > 0
    assert outcome.replayed_transfers > 0


@pytest.mark.chaos
def test_chaos_report_aggregates():
    report = run_chaos(["algorithm1", "algorithm3"], seed=1, crashes=3,
                       interval=8)
    assert report.ok
    payload = report.to_dict()
    assert [a["algorithm"] for a in payload["algorithms"]] == [
        "algorithm1", "algorithm3"]
    assert payload["seed"] == 1


# --- scalar vs batched under faults -------------------------------------------
#
# The fast path is the path under faults: the same recovery code runs a join
# through ranged batches and slot by slot (``ReferenceCoprocessor``), and
# every observable of the recovered runs must agree with each other and with
# the uninterrupted run.

import random

from repro.crypto.provider import FastProvider, NullProvider, OcbProvider
from repro.errors import CheckpointError
from repro.faults.chaos import KEY, _plain_run, _runners
from repro.faults.plan import FaultPlan, FaultSpec, crash_plan
from repro.faults.recovery import run_with_recovery
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory
from repro.hardware.resilience import RetryPolicy
from repro.hardware.timing import VirtualClock
from repro.obs.sinks import StreamingTrace


#: mode -> device type: the scalar reference and the fast path.
MODES = {"scalar": ReferenceCoprocessor, "batched": SecureCoprocessor}
PROVIDERS = [FastProvider, OcbProvider, NullProvider]


def recover(runner, provider, plan, device, *, retry=None, max_attempts=4):
    host = FaultyHost(HostMemory(), plan, clock=VirtualClock())
    report = run_with_recovery(
        host, provider(KEY), runner, seed=0, checkpoint_interval=8,
        max_attempts=max_attempts, retry=retry, clock=host.clock,
        trace_factory=StreamingTrace, device=device)
    return host, report


def assert_matches(report, baseline):
    assert report.result.result.same_multiset(baseline.result)
    assert report.result.trace.fingerprint() == baseline.trace.fingerprint()
    assert report.result.stats == baseline.stats


def batched_ops(report):
    return sum(device.batched_ops for device in report.devices)


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("name", SAFE_ALGORITHMS)
class TestScalarVsBatchedUnderFaults:
    def sampled(self, name, provider):
        run_a, _ = _runners(name, small=True)
        baseline = _plain_run(run_a, provider=provider)
        transfers = baseline.stats.total
        rng = random.Random(f"differential:{name}")
        points = sorted(rng.sample(range(1, transfers), k=3)) + [transfers]
        return run_a, baseline, points

    def test_single_crash_at_sampled_points(self, name, provider):
        run_a, baseline, points = self.sampled(name, provider)
        for point in points:
            for mode, device in MODES.items():
                host, report = recover(run_a, provider, crash_plan([point]), device)
                assert (report.crashes, report.attempts) == (1, 2), (mode, point)
                assert host.crashes_injected == 1
                assert_matches(report, baseline)
                assert (batched_ops(report) > 0) == (mode == "batched")

    def test_multi_crash_and_transient_storm(self, name, provider):
        run_a, baseline, points = self.sampled(name, provider)
        storm = FaultPlan(seed=3, specs=(
            FaultSpec(kind="crash", at_ops=tuple(points)),
            FaultSpec(kind="transient-read", probability=0.05, times=4),
        ))
        for mode, device in MODES.items():
            host, report = recover(run_a, provider, storm, device,
                                   retry=RetryPolicy(max_retries=4),
                                   max_attempts=len(points) + 2)
            assert report.crashes == len(points), mode
            assert report.retries == host.transient_faults_injected > 0
            assert_matches(report, baseline)
            assert (batched_ops(report) > 0) == (mode == "batched")

    def test_resume_across_a_dead_process(self, name, provider):
        run_a, baseline, points = self.sampled(name, provider)
        for mode, device in MODES.items():
            sealing = provider(KEY)
            inner = HostMemory()
            first_life = FaultyHost(inner, crash_plan([points[-1]]))
            with pytest.raises(CheckpointError, match="did not complete"):
                run_with_recovery(first_life, sealing, run_a,
                                  checkpoint_interval=8, max_attempts=1,
                                  trace_factory=StreamingTrace,
                                  device=device)
            report = run_with_recovery(inner, sealing, run_a,
                                       checkpoint_interval=8, resume=True,
                                       trace_factory=StreamingTrace,
                                       device=device)
            # Crashed on its final op, so this life is almost all replay —
            # served from whole journalled batches, whatever is left runs live.
            assert report.attempts == 1 and report.replayed_transfers > 0, mode
            assert_matches(report, baseline)


class RecordingPlan:
    """A compiled plan that remembers every op the fault clock presented."""

    def __init__(self, plan):
        self.inner = plan.compile()
        self.seen = []

    def consult(self, op_number, op, region):
        self.seen.append((op_number, op, region))
        return self.inner.consult(op_number, op, region)


@pytest.mark.parametrize("name", ["algorithm4", "algorithm5", "algorithm6",
                                  "algorithm7", "algorithm8"])
def test_fault_clock_presents_the_same_ops_batched_or_not(name):
    """The plan sees one (ordinal, op class, region) per declared boundary op,
    in trace order, whichever way T moves the bytes — so ``at_ops``, ``every``
    and ``probability`` triggers fire at the same boundary-op ordinal."""
    run_a, _ = _runners(name, small=True)
    transfers = _plain_run(run_a).stats.total
    crash_at = transfers // 2
    streams = {}
    for mode, device in MODES.items():
        plan = RecordingPlan(FaultPlan())
        run_with_recovery(FaultyHost(HostMemory(), plan), FastProvider(KEY), run_a,
                          checkpoint_interval=8, device=device)
        assert len(plan.seen) == transfers
        crashing = RecordingPlan(crash_plan([crash_at]))
        host = FaultyHost(HostMemory(), crashing)
        report = run_with_recovery(host, FastProvider(KEY), run_a,
                                   checkpoint_interval=8, device=device)
        assert report.crashes == 1
        streams[mode] = (plan.seen, crashing.seen[:crash_at])
    assert streams["scalar"] == streams["batched"]
    fault_free, until_crash = streams["batched"]
    assert until_crash == fault_free[:crash_at]


# --- crashes inside a cartesian scan --------------------------------------------
#
# Algorithms 4/5/6 scan through ``scan_blocks``: on a ranged host a block of up
# to 256 iTuples is one gathered section, declared to the fault clock as the
# scalar ``G(X0) G(X1) [P(otuples)]`` ops it stands for.

from repro.core.algorithm4 import algorithm4
from repro.core.algorithm6 import algorithm6
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality


def _scan_crash_case(name):
    predicate = BinaryAsMulti(Equality("key"))
    if name == "algorithm4-scan":
        wl = equijoin_workload(48, 48, 48, rng=random.Random(5))
        # Op 3000 is row 1000's write, four blocks into the nine-block scan.
        return (lambda ctx: algorithm4(ctx, [wl.left, wl.right], predicate),
                3000, {"scan"})
    wl = equijoin_workload(24, 24, 24, rng=random.Random(5))
    return (lambda ctx: algorithm6(ctx, [wl.left, wl.right], predicate,
                                   memory=4, epsilon=1e-6),
            2 * 576 + 700, {"random_scan", "flush"})


@pytest.mark.parametrize("name", ["algorithm4-scan", "algorithm6-random-pass"])
def test_crash_inside_a_scan_fires_at_the_same_declared_op(name):
    run, crash_at, phases = _scan_crash_case(name)
    baseline = _plain_run(run)
    before = 0
    for phase, cost in baseline.meta["phases"].items():
        if phase in phases:
            break
        before += cost["transfers"]
    inside = sum(baseline.meta["phases"][phase]["transfers"] for phase in phases)
    assert before < crash_at <= before + inside
    streams = {}
    for mode, device in MODES.items():
        crashing = RecordingPlan(crash_plan([crash_at]))
        host = FaultyHost(HostMemory(), crashing)
        report = run_with_recovery(host, FastProvider(KEY), run,
                                   checkpoint_interval=1024,
                                   trace_factory=StreamingTrace,
                                   device=device)
        assert host.crashes_injected == 1, mode
        assert (report.crashes, report.attempts) == (1, 2), mode
        assert host.ops_attempted == crash_at + (
            baseline.stats.total - report.replayed_transfers), mode
        assert_matches(report, baseline)
        assert (batched_ops(report) > 0) == (mode == "batched")
        streams[mode] = crashing.seen[:crash_at]
    assert streams["scalar"] == streams["batched"]
    assert streams["batched"][-1][0] == crash_at
