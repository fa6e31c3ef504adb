"""Measurement plumbing shared by the end-to-end benchmark.

Nothing here knows about joins: a span recorder, a metric ledger whose names
and units come from ``BENCHMARK.json`` (the single source of truth), order
statistics, the host/noise record, and the after-run leak checks.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
CONTRACT_PATH = REPO_ROOT / "BENCHMARK.json"
#: Everything the benchmark writes (reports, trace.json, journal dirs) lands
#: here, inside the checkout and named in .gitignore.
OUT_DIR = HERE / "out"


def load_contract() -> dict[str, Any]:
    return json.loads(CONTRACT_PATH.read_text())


# -- order statistics ---------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance driver computes them."""
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(fraction * len(ordered)))])


def timed_median(fn, calls: int) -> float:
    """Median wall-clock seconds of ``calls`` invocations of ``fn``."""
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples)


# -- spans --------------------------------------------------------------------

class Tracer:
    """In-memory span recorder: ``{name, layer, start, end, parent, request_id}``.

    Spans are recorded from the benchmark's side of each call into a layer.
    Each thread keeps its own open-span stack, so two client connections can
    trace concurrently.  ``derive`` lays out child spans whose durations came
    from counters the program exports (``meta["phases"]``) rather than from
    a clock read here; they are flagged ``derived``.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counters: list[dict[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[dict[str, Any]]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, layer: str,
             request_id: str | None = None) -> Iterator[dict[str, Any]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids), "name": name, "layer": layer,
            "parent": parent["id"] if parent else None,
            "request_id": request_id or (parent["request_id"] if parent else None),
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def derive(self, parent: dict[str, Any],
               children: list[tuple[str, str, float]]) -> None:
        """Hang (name, layer, seconds) children under a finished span."""
        cursor = parent["start"]
        for name, layer, seconds in children:
            self.spans.append({
                "id": next(self._ids), "name": name, "layer": layer,
                "parent": parent["id"], "request_id": parent["request_id"],
                "start": cursor, "end": cursor + seconds, "derived": True,
            })
            cursor += seconds

    def sample(self, request_id: str, counters: dict[str, float]) -> None:
        """Counters read at the same boundary as the request's spans."""
        self.counters.append({"request_id": request_id, **counters})

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def ledger(self) -> dict[str, Any]:
        """Self time per layer over every traced request.

        ``request`` spans are the roots; what their children do not cover is
        ``unaccounted``.  ``bench`` spans (off-the-clock verification) sit
        outside request spans and are left out of the request wall.
        """
        own = self.self_times()
        wall = sum(s["end"] - s["start"] for s in self.spans
                   if s["layer"] == "request")
        layers: dict[str, float] = {}
        for s in self.spans:
            if s["layer"] not in ("request", "bench"):
                layers[s["layer"]] = layers.get(s["layer"], 0.0) + max(0.0, own[s["id"]])
        unaccounted = sum(own[s["id"]] for s in self.spans
                          if s["layer"] == "request")
        return {
            "request_wall_s": wall,
            "layer_self_s": dict(sorted(layers.items())),
            "unaccounted_s": unaccounted,
            "unaccounted_share": unaccounted / wall if wall else 0.0,
            "layer_share": {k: v / wall if wall else 0.0
                            for k, v in sorted(layers.items())},
        }

    def mean_seconds(self, name: str, per: int) -> float:
        """Total duration of every span called ``name`` divided by ``per``."""
        total = sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)
        return total / per if per else 0.0


# -- the metric ledger ----------------------------------------------------------

class Ledger:
    """Metric values keyed by the names ``BENCHMARK.json`` declares.

    Setting a name the contract does not declare is a bug in the benchmark,
    so it raises; a declared per-layer metric a workload never touches reads
    0 (the workload bypasses that layer).
    """

    def __init__(self, declared: list[dict[str, str]]) -> None:
        self._units = {m["name"]: m["unit"] for m in declared}
        self._values: dict[str, float] = {name: 0.0 for name in self._units}

    def set(self, name: str, value: float) -> None:
        if name not in self._units:
            raise KeyError(f"metric {name!r} is not declared in BENCHMARK.json")
        self._values[name] = float(value)

    def add(self, name: str, value: float) -> None:
        self.set(name, self._values[name] + value)

    def get(self, name: str) -> float:
        return self._values[name]

    def as_metrics(self) -> dict[str, dict[str, Any]]:
        return {name: {"value": value, "unit": self._units[name]}
                for name, value in self._values.items()}


# -- host and noise record ------------------------------------------------------

def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_average() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def host_record(seed: int) -> dict[str, Any]:
    return {
        "host_cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "load_before": load_average(),
    }


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MiB.

    Children (the server subprocess, pool workers) run alongside the bench
    process, so the two peaks add.  ``ru_maxrss`` is KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return (own + children) / scale


# -- after-run leak checks ------------------------------------------------------

def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker helper.

    The executor's shared-memory arenas make the interpreter start it, and it
    would otherwise live until this process exits.  ``_stop`` is private, so
    where it is missing the tracker is left for ``live_children`` to report.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def live_children() -> list[int]:
    """PIDs of this process's children that have not been reaped."""
    found: set[int] = set()
    tasks = pathlib.Path("/proc/self/task")
    if not tasks.is_dir():
        import multiprocessing

        return [p.pid for p in multiprocessing.active_children() if p.pid]
    for entry in tasks.iterdir():
        try:
            found.update(int(pid) for pid in (entry / "children").read_text().split())
        except OSError:
            continue
    return sorted(found)


def leaked_segments(prefix: str) -> list[str]:
    """Shared-memory segments this process's executor would have named."""
    shm = pathlib.Path("/dev/shm")
    if not shm.is_dir():
        return []
    return sorted(p.name for p in shm.glob(f"{prefix}-{os.getpid()}-*"))
