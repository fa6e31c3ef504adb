"""Golden per-device trace pins for the parallel cartesian joins (Section 5.3.5).

``test_trace_golden.py`` pins the sequential algorithms; this file pins what
every coprocessor of parallel Algorithms 4, 5 and 6 reads and writes on the
same golden workload, at P = 2 and P = 3.  Each pin is the SHA-256 trace
fingerprint and the transfer count of one device, derived from two fresh
contexts and a ``ReferenceCoprocessor`` cluster, all three agreeing.  A
change to how a parallel variant splits or runs its scans must leave every
pin here unchanged, or justify the new value in its commit.
"""

import random

import pytest

from tests.conftest import KEY
from repro.core.base import JoinContext
from repro.core.parallel import (
    parallel_algorithm4,
    parallel_algorithm5,
    parallel_algorithm6,
)
from repro.crypto.provider import FastProvider
from repro.hardware.cluster import Cluster
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.relational.generate import equijoin_workload
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import BinaryAsMulti, Equality

#: (algorithm, P) -> one ``(transfers, fingerprint)`` per coprocessor.
PARALLEL_PINS = {
    ("algorithm4", 2): [
        (1612, "bf421fe12d69c923da0a7b5b03255972bd943d4b405f258131a4ff53135da825"),
        (760, "8e588d510de299579bc59bef8b73a02077c7908d5852e92822da99f9b5064894"),
    ],
    ("algorithm4", 3): [
        (1353, "d6ed96817067ba876a3329fc49c1ea06aeff93770d9f5bad44aac35d78f1ecaf"),
        (873, "aa455d6fc78620e72528a99b7888456d5fb8c0004845287243c1f73d047ffb59"),
        (402, "671be11a57831ab493dfd65fcc038d20c16050d71781632bdd05fecce46e7f46"),
    ],
    ("algorithm5", 2): [
        (483, "b0bffffca226c8787cfe96ed5f1262dd5ecb225c5d11c4574c2cd0ab21335b29"),
        (323, "831d00240f8929ebff14013d2d1397dc28f4172d5337cd77cb1760861f7f80db"),
    ],
    ("algorithm5", 3): [
        (322, "26733ecfb347b45c0b4d61e61e82869d3f8c07e8d569d5298a6a1583f995af82"),
        (162, "357e0f286e7bbaef8437a7bd908214c5793435d1760742d6221957a5f41d70fc"),
        (162, "2491ec22368a67610aaefcdc2cdf7a0820362637456f7954390f1f58ca44826a"),
    ],
    ("algorithm6", 2): [
        (2412, "7a5e4d4f131d0b2f7eecc15d031ac9d400569224b92f2407c0db2289f53b0ee0"),
        (120, "41b605b0b0a3523731f89c720348dc3cea7c561827eaf4b8d5f24974d7975b87"),
    ],
    ("algorithm6", 3): [
        (2376, "8464adeb50040d9dacd053aac69fef35ccd3e91826b221d75f204dc42f52dcd8"),
        (84, "074c68cf58ac6839405ffecb2b8c594cbe5901978ef58936d8f7d3ab33dcbacb"),
        (72, "415af0cf765f1dbb757056aa4292fdc72bf89a668ed5e93bda1089096bd023ac"),
    ],
}


def _workload():
    return equijoin_workload(8, 10, 6, rng=random.Random(1), max_matches=2)


def _run(name: str, processors: int, device=SecureCoprocessor):
    """One parallel variant over the golden workload: its per-device pins and
    its result.  Algorithm 5 at M = 2 splits S = 6 into shares that take two
    scans (P = 2) and one (P = 3); Algorithm 6 at M = 2 runs 40 segments."""
    workload = _workload()
    relations = [workload.left, workload.right]
    predicate = BinaryAsMulti(Equality("key"))
    context = JoinContext.fresh(provider=FastProvider(KEY), seed=0)
    cluster = Cluster(context.host, context.provider, count=processors, device=device)
    if name == "algorithm4":
        out = parallel_algorithm4(context, cluster, relations, predicate)
    elif name == "algorithm5":
        out = parallel_algorithm5(context, cluster, relations, predicate, memory=2)
    else:
        out = parallel_algorithm6(context, cluster, relations, predicate,
                                  memory=2, epsilon=1e-6, seed=3)
    pins = [(t.trace.transfer_count(), t.trace.fingerprint()) for t in cluster]
    return pins, out


@pytest.mark.parametrize("name, processors", sorted(PARALLEL_PINS), ids=str)
def test_per_device_traces_are_pinned(name, processors):
    pins, out = _run(name, processors)
    assert pins == PARALLEL_PINS[name, processors], (
        f"parallel {name}'s access pattern at P = {processors} changed — if "
        "intentional, re-derive the pins (see the module docstring)")
    workload = _workload()
    assert out.result.same_multiset(
        nested_loop_join(workload.left, workload.right, Equality("key")))


@pytest.mark.parametrize("name, processors", sorted(PARALLEL_PINS), ids=str)
def test_pins_agree_across_contexts_and_device_types(name, processors):
    fresh, _ = _run(name, processors)
    reference, _ = _run(name, processors, ReferenceCoprocessor)
    assert fresh == reference == PARALLEL_PINS[name, processors]
