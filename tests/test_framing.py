"""What the host receives: the physical framing of every pass is public.

Definition 3 is checked on the *declared* trace.  On the batched path the
host receives ranged calls (``read_slots``/``write_slots``/``append_slots``),
and the fast path chooses their slot lists and framing.  ``FramingHost``
logs one entry per call; Definition-3 siblings — instances agreeing on the
public parameters, differing in content — must produce identical logs, and
identical checkpoint commit points, under either provider and on either
device type; every call ``ReferenceCoprocessor`` makes carries one slot.
"""

import random

import pytest

from repro.core.algorithm6 import algorithm6
from repro.core.base import JoinContext
from repro.core.parallel import parallel_algorithm6
from repro.crypto.provider import FastProvider, OcbProvider
from repro.faults.chaos import KEY, SAFE_ALGORITHMS, _runners
from repro.faults.checkpoint import CheckpointStore
from repro.faults.recovery import run_with_recovery
from repro.hardware.cluster import Cluster
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.host import HostMemory
from repro.parallel import executor as executor_module
from repro.parallel.executor import ClusterExecutor
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality


class FramingHost(HostMemory):
    """Honest storage that logs every ranged call as the host receives it:
    ``(op, regions, indices)`` per read or write — one region per slot, a
    call may name several tables — and ``(append, region, assigned
    indices)`` per append.  While ``merging`` (a process pool writing a
    shard's results back, host-side) the op is logged as ``merge-<op>``."""

    def __init__(self):
        super().__init__()
        self.log = []
        self.merging = False

    def _record(self, op, slots):
        self.log.append((f"merge-{op}" if self.merging else op,
                         tuple(name for name, _ in slots),
                         tuple(index for _, index in slots)))

    def read_slots(self, slots):
        self._record("read", slots)
        return super().read_slots(slots)

    def write_slots(self, slots, ciphertexts):
        self._record("write", slots)
        super().write_slots(slots, ciphertexts)

    def append_slots(self, name, ciphertexts):
        assigned = super().append_slots(name, ciphertexts)
        self.log.append(("merge-append" if self.merging else "append", name,
                         tuple(assigned)))
        return assigned


def framing(run, provider=FastProvider, device=SecureCoprocessor):
    """The host's call log of one run; ``run`` takes the context.  Every
    call a ``ReferenceCoprocessor`` makes carries exactly one slot."""
    host = FramingHost()
    keyed = provider(KEY)
    coprocessor = device(host, keyed)
    out = run(JoinContext(host=host, coprocessor=coprocessor, provider=keyed,
                          rng=random.Random(0)))
    assert host.log
    if device is ReferenceCoprocessor:
        assert {len(entry[2]) for entry in host.log
                if not entry[0].startswith("merge-")} == {1}
    return out, host.log


#: ``(provider, device)`` besides the default Fast/batched one.
OTHER_MODES = [
    pytest.param(FastProvider, ReferenceCoprocessor, id="Fast-reference"),
    pytest.param(OcbProvider, SecureCoprocessor, id="OCB-batched"),
    pytest.param(OcbProvider, ReferenceCoprocessor, id="OCB-reference"),
]


# --- (a) the chaos sweep's sibling pairs ----------------------------------------

@pytest.mark.parametrize("small", [True, False], ids=["small", "large"])
@pytest.mark.parametrize("name", SAFE_ALGORITHMS)
def test_chaos_siblings_frame_identically(name, small):
    (_, log_a), (_, log_b) = (framing(run) for run in _runners(name, small))
    assert log_a == log_b


@pytest.mark.parametrize("provider,device", OTHER_MODES)
@pytest.mark.parametrize("name", SAFE_ALGORITHMS)
def test_chaos_siblings_frame_identically_in_every_mode(name, provider, device):
    (_, log_a), (_, log_b) = (framing(run, provider, device)
                              for run in _runners(name, True))
    assert log_a == log_b


# --- (b) Algorithm 6's random-order pass -----------------------------------------

#: (n, M): n x n, S = n > M, so every run takes the segmented pass.
SHAPES = [(40, 8), (64, 16), (128, 16)]
SEEDS = [1, 2, 3]


def siblings(n):
    """Two n x n instances with S = n, differing in which rows match."""
    return [equijoin_workload(n, n, n, rng=random.Random(seed))
            for seed in (10 * n + 1, 10 * n + 2)]


def sequential(workload, memory, seed):
    def run(context):
        return algorithm6(context, [workload.left, workload.right],
                          BinaryAsMulti(Equality("key")), memory=memory,
                          epsilon=1e-6, seed=seed)
    return run


def parallel(workload, memory, seed, executor=None):
    def run(context):
        cluster = Cluster(context.host, context.provider, count=2,
                          device=type(context.coprocessor))
        return parallel_algorithm6(context, cluster, [workload.left, workload.right],
                                   BinaryAsMulti(Equality("key")), memory=memory,
                                   epsilon=1e-6, seed=seed, executor=executor)
    return run


@pytest.mark.parametrize("driver", [sequential, parallel])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,memory", SHAPES, ids=str)
def test_algorithm6_siblings_frame_identically(n, memory, seed, driver):
    (out_a, log_a), (out_b, log_b) = (
        framing(driver(workload, memory, seed)) for workload in siblings(n))
    for out in (out_a, out_b):
        assert out.meta["S"] == n and out.meta["segments"] > 1
        assert not out.meta.get("blemish")
    assert out_a.result != out_b.result
    assert log_a == log_b


@pytest.mark.parametrize("provider,device", OTHER_MODES)
@pytest.mark.parametrize("driver", [sequential, parallel])
def test_algorithm6_siblings_frame_identically_in_every_mode(driver, provider, device):
    n, memory = SHAPES[0]
    (out_a, log_a), (out_b, log_b) = (
        framing(driver(workload, memory, SEEDS[0]), provider, device)
        for workload in siblings(n))
    assert out_a.meta["segments"] > 1 and out_a.result != out_b.result
    assert log_a == log_b


@pytest.fixture(scope="module")
def pool():
    with ClusterExecutor(workers=2) as executor:
        yield executor


@pytest.mark.parametrize("provider,device", [
    pytest.param(FastProvider, SecureCoprocessor, id="Fast-batched"), *OTHER_MODES])
def test_pooled_algorithm6_siblings_frame_identically(pool, monkeypatch,
                                                      provider, device):
    """The P = 2 shares on two worker processes: the parent host receives
    the coordinator's calls and each task's write-back merge."""
    merge = executor_module.merge_shard_result

    def tagged(host, result):
        host.merging = True
        try:
            return merge(host, result)
        finally:
            host.merging = False

    monkeypatch.setattr(executor_module, "merge_shard_result", tagged)
    n, memory = SHAPES[0]
    (out_a, log_a), (out_b, log_b) = (
        framing(parallel(workload, memory, SEEDS[0], executor=pool), provider, device)
        for workload in siblings(n))
    assert pool.tasks_pooled > 0
    assert any(entry[0].startswith("merge-") for entry in log_a)
    assert out_a.meta["segments"] > 1 and out_a.result != out_b.result
    assert log_a == log_b


# --- (c) checkpoint commit points -------------------------------------------------

def test_algorithm6_siblings_commit_at_the_same_ops(monkeypatch):
    """``ops_completed`` at each checkpoint commit of a recovered run."""
    ordinals = []
    commit = CheckpointStore.commit

    def recording(self, op_count, entries):
        ordinals[-1].append(op_count)
        commit(self, op_count, entries)

    monkeypatch.setattr(CheckpointStore, "commit", recording)
    for workload in siblings(64):
        ordinals.append([])
        run_with_recovery(HostMemory(), FastProvider(KEY),
                          sequential(workload, 8, seed=1), checkpoint_interval=512)
    assert len(ordinals[0]) > 1
    assert ordinals[0] == ordinals[1]
