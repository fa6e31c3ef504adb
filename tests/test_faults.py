"""Fault injection, retry policy, and cluster failure paths.

Checkpoint/resume and the full chaos sweep live in test_recovery.py and
test_chaos.py; this module covers the building blocks: declarative fault
plans, the FaultyHost wrapper, bounded retry at the T/H boundary, and the
immediate-abort guarantee for authentication failures.
"""

import random

import pytest

from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    CoprocessorCrashError,
    TransientHostError,
)
from repro.faults.plan import (
    _KIND_OPS,
    KINDS,
    CompiledFaultPlan,
    FaultPlan,
    FaultSpec,
    crash_plan,
    transient_plan,
)
from repro.hardware.adversary import TamperingHost
from repro.hardware.cluster import Cluster
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory
from repro.hardware.resilience import RetryPolicy
from repro.hardware.timing import VirtualClock
from repro.crypto.provider import FastProvider

KEY = b"test-suite-session-key-000001"


def loaded_host(plan=None, clock=None, slots=8):
    """A faulty host pre-filled with 8 sealed slots (host write ops 1-8)."""
    host = FaultyHost(HostMemory(), plan, clock=clock)
    provider = FastProvider(KEY)
    host.allocate("R", slots)
    t = SecureCoprocessor(host, provider)
    for i in range(slots):
        t.put("R", i, bytes([i]) * 4)
    return host, t


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="meteor-strike", at_ops=(1,))
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash")  # no trigger
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", at_ops=(0,))  # ops count from 1
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="slow", every=2, probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="slow", every=2, times=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="slow", every=2, ops=("scan",))

    def test_probability_is_seed_deterministic(self):
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(kind="transient-read", probability=0.3),))

        def injection_ops(compiled: CompiledFaultPlan) -> list[int]:
            return [n for n in range(1, 200)
                    if compiled.consult(n, "read", "R")]

        first = injection_ops(plan.compile())
        second = injection_ops(plan.compile())
        assert first == second
        assert first  # p=0.3 over 200 ops certainly fires
        different = injection_ops(FaultPlan(seed=8, specs=plan.specs).compile())
        assert first != different

    def test_specs_draw_independent_streams(self):
        """Adding a spec must not move another spec's injection points."""
        read_spec = FaultSpec(kind="transient-read", probability=0.2)
        alone = FaultPlan(seed=3, specs=(read_spec,)).compile()
        paired = FaultPlan(seed=3, specs=(
            read_spec, FaultSpec(kind="transient-write", probability=0.2),
        )).compile()
        ops_alone = [n for n in range(1, 100) if alone.consult(n, "read", "R")]
        ops_paired = [n for n in range(1, 100)
                      if any(s.kind == "transient-read"
                             for s in paired.consult(n, "read", "R"))]
        assert ops_alone == ops_paired

    def test_kind_implies_op_class(self):
        compiled = FaultPlan(seed=0, specs=(
            FaultSpec(kind="transient-read", every=1),)).compile()
        assert compiled.consult(1, "read", "R")
        assert not compiled.consult(2, "write", "R")
        assert not compiled.consult(3, "append", "out")

    def test_region_filter_and_times_cap(self):
        compiled = FaultPlan(seed=0, specs=(
            FaultSpec(kind="transient-read", every=1, regions=("B",), times=2),
        )).compile()
        assert not compiled.consult(1, "read", "A")
        assert compiled.consult(2, "read", "B")
        assert compiled.consult(3, "read", "B")
        assert not compiled.consult(4, "read", "B")  # times exhausted


class TestFaultyHost:
    def test_transient_read_raises_before_serving(self):
        host, t = loaded_host(transient_plan(at_ops=(9,)))  # ops 1-8 were puts
        with pytest.raises(TransientHostError):
            t.get("R", 0)
        assert host.transient_faults_injected == 1
        # The next attempt succeeds: transient means transient.
        assert t.get("R", 0) == bytes([0]) * 4

    def test_crash_raises_coprocessor_crash(self):
        host, t = loaded_host(crash_plan(at_ops=(9,)))
        with pytest.raises(CoprocessorCrashError):
            t.get("R", 0)
        assert host.crashes_injected == 1

    def test_slow_fault_burns_cycles_and_serves(self):
        clock = VirtualClock()
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(kind="slow", at_ops=(9,), delay_cycles=123),))
        host, t = loaded_host(plan, clock=clock)
        before = clock.cycles
        assert t.get("R", 1) == bytes([1]) * 4
        assert clock.cycles - before == 123
        assert host.slow_events == 1

    def test_write_fault_fires_before_mutation(self):
        host, t = loaded_host(transient_plan(at_ops=(9,),
                                             kind="transient-write"))
        before = host.inner.read_slot("R", 0)
        with pytest.raises(TransientHostError):
            t.put("R", 0, b"new!")
        assert host.inner.read_slot("R", 0) == before  # unchanged

    def test_counts_attempts_across_faults(self):
        host, t = loaded_host(transient_plan(at_ops=(9,)))
        with pytest.raises(TransientHostError):
            t.get("R", 0)
        t.get("R", 0)
        assert host.ops_attempted == 10  # 8 puts + faulted attempt + retry


class OpByOpHost(FaultyHost):
    """The window clock's oracle: the plan consulted at every ordinal."""

    def admit(self, window):
        for op, region in window:
            self._consult(op, region)


_REGIONS = ("A", "B", "out")


def random_plan(rng: random.Random) -> FaultPlan:
    """1-3 specs of any kind; each trigger and filter drawn independently."""
    specs = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(KINDS)
        at_ops = (tuple(rng.sample(range(1, 400), rng.randint(1, 4)))
                  if rng.random() < 0.6 else ())
        every = rng.randint(1, 40) if rng.random() < 0.5 else 0
        probability = rng.choice((0.02, 0.2, 1.0)) if rng.random() < 0.25 else 0.0
        if not (at_ops or every or probability):
            at_ops = (rng.randint(1, 400),)
        eligible = _KIND_OPS[kind]
        specs.append(FaultSpec(
            kind=kind, at_ops=at_ops, every=every, probability=probability,
            times=rng.choice((None, None, 1, 3)),
            regions=(tuple(rng.sample(_REGIONS, rng.randint(1, 2)))
                     if rng.random() < 0.3 else ()),
            ops=(tuple(rng.sample(eligible, rng.randint(1, len(eligible))))
                 if rng.random() < 0.3 else ()),
            delay_cycles=rng.randint(0, 90),
        ))
    return FaultPlan(seed=rng.randrange(1 << 30), specs=specs)


def clock_state(host: FaultyHost):
    return (host.ops_attempted, host.slow_events, host.crashes_injected,
            host.transient_faults_injected, host.clock.cycles,
            [(state.fired, state.rng.getstate()) for state in host._plan._states])


@pytest.mark.parametrize("seed", range(4))
def test_window_clock_matches_the_op_by_op_walk(seed):
    """``admit`` asks the plan only at candidate ordinals; over random plans
    and windows (a transient fault re-presents its window) it leaves exactly
    the state a consult at every ordinal leaves: error, ordinal, per-spec
    ``fired`` and RNG stream, fault counters and the virtual clock."""
    rng = random.Random(seed)
    for _ in range(300):
        plan = random_plan(rng)
        window_host = FaultyHost(HostMemory(), plan, clock=VirtualClock())
        oracle = OpByOpHost(HostMemory(), plan, clock=VirtualClock())
        window = []
        for _ in range(rng.randint(1, 25)):
            if not window:
                size = rng.choice((0, 1, 2, 7, 30, 64))
                window = list(zip(rng.choices(("read", "write", "append"), k=size),
                                  rng.choices(_REGIONS, k=size)))
            outcomes = []
            for host in (window_host, oracle):
                try:
                    host.admit(window)
                    outcomes.append(None)
                except (TransientHostError, CoprocessorCrashError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], plan
            assert clock_state(window_host) == clock_state(oracle), plan
            if outcomes[0] is None or outcomes[0][0] is not TransientHostError:
                window = []  # only a transient fault re-presents the window


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0)

    def test_exponential_backoff_on_virtual_clock(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_retries=3, base_delay_cycles=10, multiplier=2)
        calls = []

        def operation():
            calls.append(1)
            if len(calls) < 4:
                raise TransientHostError("flaky")
            return "done"

        assert policy.call(operation, clock=clock) == "done"
        assert clock.cycles == 10 + 20 + 40

    def test_exhaustion_propagates_transient_error(self):
        policy = RetryPolicy(max_retries=2)

        def operation():
            raise TransientHostError("persistent")

        with pytest.raises(TransientHostError):
            policy.call(operation)

    def test_coprocessor_absorbs_transient_faults(self):
        """A faulted boundary op retries invisibly: same trace, same result."""
        plain_host, _ = loaded_host()
        plain = SecureCoprocessor(plain_host, FastProvider(KEY))
        for i in range(8):
            plain.get("R", i)

        clock = VirtualClock()
        faulty, _ = loaded_host(transient_plan(probability=0.3, seed=5),
                                clock=clock)
        t = SecureCoprocessor(faulty, FastProvider(KEY),
                              retry=RetryPolicy(max_retries=6), clock=clock)
        for i in range(8):
            assert t.get("R", i) == bytes([i]) * 4
        assert t.retries == faulty.transient_faults_injected > 0
        assert t.trace.fingerprint() == plain.trace.fingerprint()
        assert clock.cycles > 0  # backoff burned simulated time

    def test_retry_reissues_identical_request(self):
        faulty, _ = loaded_host(transient_plan(at_ops=(9,)))
        t = SecureCoprocessor(faulty, FastProvider(KEY),
                              retry=RetryPolicy(max_retries=2))
        assert t.get("R", 3) == bytes([3]) * 4
        # One logical get, one trace event, despite two physical attempts.
        assert t.decryptions == 1
        assert t.trace.transfer_count() == 1
        assert faulty.ops_attempted == 10

    def test_authentication_error_is_never_retried(self):
        """Tampering aborts on the tampered read itself (Section 3.3.1)."""
        tampering = TamperingHost(tamper_at_read=3)
        host = FaultyHost(tampering)
        provider = FastProvider(KEY)
        host.allocate("R", 4)
        t = SecureCoprocessor(host, provider,
                              retry=RetryPolicy(max_retries=5),
                              clock=VirtualClock())
        for i in range(4):
            t.put("R", i, bytes([i]))
        with pytest.raises(AuthenticationError):
            for i in range(4):
                t.get("R", i)
        # Had the retry loop re-issued the failing read, the host would have
        # served more reads than the tampered one.
        assert tampering.reads_served == 3
        assert t.retries == 0

    def test_crash_is_not_retried(self):
        faulty, _ = loaded_host(crash_plan(at_ops=(9,)))
        t = SecureCoprocessor(faulty, FastProvider(KEY),
                              retry=RetryPolicy(max_retries=5))
        with pytest.raises(CoprocessorCrashError):
            t.get("R", 0)
        assert t.retries == 0


class TestClusterFailurePaths:
    def build(self, plan=None, count=2, slots=8):
        host = FaultyHost(HostMemory(), plan)
        host.allocate("R", slots)
        cluster = Cluster(host, FastProvider(KEY), count=count)
        return host, cluster

    def test_worker_failure_names_worker_and_partition(self):
        _, cluster = self.build()

        def work(t, index_range, worker):
            if worker == 1:
                raise ValueError("boom")
            for i in index_range:
                t.put("R", i, b"x")

        with pytest.raises(ValueError) as excinfo:
            cluster.run_partitioned(8, work)
        message = str(excinfo.value)
        assert "worker 1" in message and "T1" in message
        assert "[4, 8)" in message and "boom" in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_worker_auth_failure_keeps_type(self):
        _, cluster = self.build()

        def work(t, index_range, worker):
            raise AuthenticationError("tag mismatch")

        with pytest.raises(AuthenticationError):
            cluster.run_partitioned(8, work)

    def test_transient_fault_mid_partition_is_retried(self):
        """With faults enabled the partition re-runs; fixed-slot writes make
        the retry idempotent and the final host state complete."""
        host, cluster = self.build(
            transient_plan(at_ops=(3,), kind="transient-write"))
        attempts = []

        def work(t, index_range, worker):
            attempts.append(worker)
            for i in index_range:
                t.put("R", i, bytes([worker]))

        cluster.run_partitioned(8, work, transient_retries=2)
        assert attempts == [0, 0, 1]  # worker 0 faulted once and re-ran
        assert host.transient_faults_injected == 1
        values = [cluster[0].get("R", i) for i in range(8)]
        assert values == [bytes([0])] * 4 + [bytes([1])] * 4

    def test_transient_fault_without_retries_surfaces(self):
        _, cluster = self.build(
            transient_plan(at_ops=(3,), kind="transient-write"))

        def work(t, index_range, worker):
            for i in index_range:
                t.put("R", i, b"x")

        with pytest.raises(TransientHostError):
            cluster.run_partitioned(8, work)


class TestFaultExceptionHierarchy:
    def test_importable_from_repro_faults(self):
        import repro.faults as faults

        assert faults.FaultPlan is FaultPlan
        assert faults.RetryPolicy is RetryPolicy
        assert callable(faults.run_with_recovery)
