"""Compare two benchmark reports: ``compare.py BASE.json NEW.json``.

For each workload and end-to-end metric prints the base median, the new
median, their ratio (new / base) and a verdict against the bound fixed in
``BENCHMARK.json``:

* ``ok``          the new median is no worse than the base by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  the spread between repeated runs (inter-quartile distance over
  the median, on either side) is wider than the bound, so the two medians
  cannot be told apart, unless every new run reads better than every base run.

Reports come from ``bench.py`` (one run, or ``--repeat N`` / ``--workload
all``, which record every run's value so the spread exists).  Exits 1 when any
row is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import load_contract, quartiles, spread


def load_values(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> the value of every run in the report."""
    report = json.loads(pathlib.Path(path).read_text())
    if "workloads" in report:
        return {name: {metric: row["values"] for metric, row in w["metrics"].items()}
                for name, w in report["workloads"].items()}
    return {report["workload"]: {metric: [row["value"]]
                                 for metric, row in report["metrics"].items()}}


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    base_median, new_median = quartiles(base)[1], quartiles(new)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - base_median) / base_median
    if max(spread(base), spread(new)) > bound:
        all_better = (max(new) < min(base) if better == "lower"
                      else min(new) > max(base))
        return "ok" if all_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    declared = {m["name"]: m for m in load_contract()["end_to_end"]}
    base, new = load_values(args.base), load_values(args.new)

    print(f"{'workload':<22} {'metric':<19} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'bound':>6} {'runs':>5}  verdict")
    regressed = False
    for workload in base:
        for name, metric in declared.items():
            if workload not in new or name not in base[workload] \
                    or name not in new[workload]:
                continue
            old_runs, new_runs = base[workload][name], new[workload][name]
            old_median, new_median = quartiles(old_runs)[1], quartiles(new_runs)[1]
            outcome = verdict(old_runs, new_runs, metric["better"], metric["bound"])
            regressed = regressed or outcome == "regressed"
            if metric["unit"] == "count" and old_median != new_median:
                outcome += "  (an exact count changed)"
            print(f"{workload:<22} {name:<19} {old_median:>12.6g} {new_median:>12.6g} "
                  f"{new_median / old_median:>9.4f} {metric['bound']:>6g} "
                  f"{len(old_runs):>2}/{len(new_runs):<2}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
