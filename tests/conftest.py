"""Shared fixtures and helpers for the test suite."""

import random

import pytest

from repro.core.base import JoinContext
from repro.crypto.provider import FastProvider
from repro.relational.generate import equijoin_workload, keyed_schema
from repro.relational.relation import Relation

KEY = b"test-suite-session-key-000001"


def fresh_context(
    seed: int = 0, memory_limit: int | None = None, trace_factory=None,
) -> JoinContext:
    """A context with the fast provider (OCB is covered by dedicated tests)."""
    return JoinContext.fresh(
        memory_limit=memory_limit, provider=FastProvider(KEY), seed=seed,
        trace_factory=trace_factory,
    )


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (long randomized sweeps)",
    )
    parser.addoption(
        "--runchaos", action="store_true", default=False,
        help="run tests marked chaos (full crash/recovery sweeps)",
    )
    parser.addoption(
        "--runworkloads", action="store_true", default=False,
        help="run tests marked workloads (closed-loop scenario runs over "
             "loopback TCP)",
    )
    parser.addoption(
        "--runchaosnet", action="store_true", default=False,
        help="run tests marked chaosnet (workloads through the fault-"
             "injecting proxy with mid-run server kill/restart)",
    )


def pytest_collection_modifyitems(config, items):
    gates = [
        ("slow", "--runslow"),
        ("chaos", "--runchaos"),
        ("workloads", "--runworkloads"),
        ("chaosnet", "--runchaosnet"),
    ]
    for marker, option in gates:
        if config.getoption(option):
            continue
        skip = pytest.mark.skip(reason=f"needs {option}")
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)


def keyed(name: str, rows) -> Relation:
    return Relation.from_values(keyed_schema(name), rows)


@pytest.fixture
def context() -> JoinContext:
    return fresh_context()


@pytest.fixture
def small_workload():
    return equijoin_workload(
        left_size=10, right_size=12, result_size=7, rng=random.Random(11), max_matches=3
    )
