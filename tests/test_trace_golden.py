"""Golden trace-fingerprint regression tests for every safe algorithm.

The access-pattern trace IS the privacy guarantee: Definition 1 and
Definition 3 quantify over the distribution of T/H transfer sequences, and
every safety argument in the repo reduces to "the trace depends only on the
public parameters".  These tests pin the SHA-256 trace fingerprint of all
nine safe algorithms on one fixed workload, so *any* change to what an
algorithm reads or writes — an extra get, a reordered put, a different decoy
count — fails loudly instead of silently altering the access pattern the
privacy checker reasons about.

If a test here fails, it means the algorithm's externally visible access
pattern changed.  That is sometimes intentional (an optimization that
provably preserves safety); in that case re-derive the fingerprint with the
recipe in ``_run()`` below, update the constant, and say why in the commit.
The workload and parameters deliberately mirror the chaos harness
(``repro.faults.chaos``): N_MAX=2, the Chapter-4 runners' small memory
budgets, and seeded workloads.
"""

import random

import pytest

from tests.conftest import fresh_context
from repro.core.algorithm1 import algorithm1
from repro.core.algorithm1v import algorithm1_variant
from repro.core.algorithm2 import algorithm2
from repro.core.algorithm3 import algorithm3
from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality

N_MAX = 2

#: Pinned SHA-256 fingerprints of each algorithm's access trace on the
#: fixed workload below.  Derived once with two independent fresh contexts
#: agreeing; see the module docstring before changing any value.  The
#: sorting algorithms (1, 1v, 3, 4, 7, 8) were re-pinned when the sort's
#: declaration became Batcher's merge-exchange, reproduced with
#: ``batched_io=False``.
GOLDEN_FINGERPRINTS = {
    "algorithm1": "cf02aa445472ea02828d23f3ea1d3cc3de8e639c1490e6bf48ed9f1026ff50a2",
    "algorithm1v": "26711e8a76d807de2e8a4a26334297e2b03c177562d502ba77430e4ee1779a2a",
    "algorithm2": "fb0547242b758730ba21a7bc8acf29f79a05a2b875c5aa3b2445605f169e85d0",
    "algorithm3": "9f45d767fc10b2bf957934b68256f5505bbc9f9a2acb760b69ef8aba54698585",
    "algorithm4": "39dc54e13c48c8f52c4578e1df790ab9d6c4efc0cb15721612903410304b0a87",
    "algorithm5": "80541dd973fe874312ca7b91ef1b40406d85ef8d134b33c46b3a35a897b2b4a7",
    "algorithm6": "9a352559fab47f08a5391876fb1e7e7b724e274e3d90d1f795257f097d6f2c1f",
    "algorithm7": "ecd09ce6877df45b1ff0d7c7813b6d414a451e99b800b790242b7d4d03f369a2",
    "algorithm8": "9dff817762b44b6f72d1af37cf232f01299420b678a48bb6b1166c667779c4bb",
}

#: Total T/H transfers per algorithm on the same workload — a coarser pin
#: that gives a readable first diagnostic when a fingerprint moves.
GOLDEN_TRANSFERS = {
    "algorithm1": 1000,
    "algorithm1v": 1160,
    "algorithm2": 104,
    "algorithm3": 388,
    "algorithm4": 2372,
    "algorithm5": 486,
    "algorithm6": 166,
    "algorithm7": 1014,
    "algorithm8": 648,
}


def _workload():
    return equijoin_workload(8, 10, 6, rng=random.Random(1), max_matches=2)


def _run(name: str):
    """One algorithm over the fixed workload, chaos-harness parameters."""
    workload = _workload()
    predicate = Equality("key")
    multi = BinaryAsMulti(predicate)
    relations = [workload.left, workload.right]
    context = fresh_context(seed=0)
    if name == "algorithm1":
        return algorithm1(context, workload.left, workload.right, predicate,
                          N_MAX)
    if name == "algorithm1v":
        return algorithm1_variant(context, workload.left, workload.right,
                                  predicate, N_MAX)
    if name == "algorithm2":
        return algorithm2(context, workload.left, workload.right, predicate,
                          N_MAX, memory=3)
    if name == "algorithm3":
        return algorithm3(context, workload.left, workload.right, "key",
                          N_MAX)
    if name == "algorithm4":
        return algorithm4(context, relations, multi)
    if name == "algorithm5":
        return algorithm5(context, relations, multi, memory=3)
    if name == "algorithm6":
        return algorithm6(context, relations, multi, memory=100,
                          epsilon=1e-20, seed=3)
    if name == "algorithm7":
        return algorithm7(context, relations, multi)
    if name == "algorithm8":
        # semi mode: the golden workload's right table repeats join keys.
        return algorithm8(context, relations, multi, mode="semi")
    raise ValueError(name)


@pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
def test_trace_fingerprint_is_pinned(name):
    result = _run(name)
    assert result.trace.fingerprint() == GOLDEN_FINGERPRINTS[name], (
        f"{name}'s access pattern changed — if intentional, re-derive the "
        "golden fingerprint (see the module docstring) and justify the "
        "change"
    )
    assert result.stats.total == GOLDEN_TRANSFERS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
def test_trace_is_reproducible_across_contexts(name):
    # The pin only makes sense if the trace is a pure function of the
    # public parameters: two fresh contexts must agree bit for bit.
    assert _run(name).trace.fingerprint() == _run(name).trace.fingerprint()


def test_all_golden_runs_produce_correct_results():
    workload = _workload()
    # algorithm8 runs as a semi-join here, so its S counts matching left
    # tuples rather than join pairs.
    matching_lefts = sum(
        1 for a in workload.left
        if any(a["key"] == b["key"] for b in workload.right)
    )
    for name in GOLDEN_FINGERPRINTS:
        expected = (matching_lefts if name == "algorithm8"
                    else workload.result_size)
        assert len(_run(name).result) == expected, name


# ---------------------------------------------------------------------------
# pinned workload scenario
# ---------------------------------------------------------------------------

#: One small scenario from the production workload catalog, pinned the same
#: way: per-query trace fingerprints and transfer counts on instance seed 0.
#: This locks the *whole* path a workload request takes — the seeded table
#: generators, the wire-predicate compilation, and the algorithm's access
#: pattern — so a change to any layer fails here by name.  Re-derive with
#: ``_run_scenario_query()`` (two fresh contexts agreeing) if intentional.
GOLDEN_SCENARIO = "watchlist_screening"

GOLDEN_SCENARIO_FINGERPRINTS = {
    "screen": "f74c63f59d8b7994b116aaf76ad23e40c0b756897fef8b4077a6e7a4b41dfa22",
    "audit": "1f0ebd90db1ea8676ba84792cb168c508653752ad87ae82b0d347d2cb62c871e",
}

GOLDEN_SCENARIO_TRANSFERS = {"screen": 165, "audit": 2174}

GOLDEN_SCENARIO_RESULT_SIZE = 5


def _run_scenario_query(query_name: str):
    from repro.workloads import get_scenario

    spec = get_scenario(GOLDEN_SCENARIO)
    query = next(q for q in spec.queries if q.name == query_name)
    tables = spec.build_tables(0)
    relations = [tables[owner] for owner in spec.owners]
    predicate = query.predicate.build()
    context = fresh_context(seed=0)
    if query.algorithm == "algorithm4":
        return algorithm4(context, relations, predicate)
    return algorithm5(context, relations, predicate, memory=spec.memory)


@pytest.mark.parametrize("query_name", sorted(GOLDEN_SCENARIO_FINGERPRINTS))
def test_workload_scenario_trace_is_pinned(query_name):
    result = _run_scenario_query(query_name)
    assert (result.trace.fingerprint()
            == GOLDEN_SCENARIO_FINGERPRINTS[query_name]), (
        f"{GOLDEN_SCENARIO}/{query_name}'s access pattern changed — if "
        "intentional, re-derive the golden fingerprint (see the module "
        "docstring) and justify the change"
    )
    assert result.stats.total == GOLDEN_SCENARIO_TRANSFERS[query_name]
    assert len(result.result) == GOLDEN_SCENARIO_RESULT_SIZE


@pytest.mark.parametrize("query_name", sorted(GOLDEN_SCENARIO_FINGERPRINTS))
def test_workload_scenario_trace_is_reproducible(query_name):
    assert (_run_scenario_query(query_name).trace.fingerprint()
            == _run_scenario_query(query_name).trace.fingerprint())
