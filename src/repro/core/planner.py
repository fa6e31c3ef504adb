"""Algorithm selection: the paper's decision surface as a query planner.

Chapter 4's Section 4.6 and Chapter 5's Section 5.4 together define which
algorithm wins for which operating point.  :func:`plan_join` encodes that
surface: given the public parameters of a pending join (sizes, predicate
class, coprocessor memory, privacy requirements) it evaluates the cost models
and returns a :class:`JoinPlan` naming the cheapest admissible algorithm with
its predicted bill — and :func:`execute_plan` runs it.

The admissibility rules come straight from the paper:

* Algorithm 3 only handles equality predicates (Section 4.5);
* Chapter 4 algorithms leak N by definition, so they are excluded when the
  caller demands the strict Definition 3 guarantee;
* Algorithm 6 is excluded when ``epsilon`` is 0 and M < S would force it
  into its degenerate Algorithm-4-like regime anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.base import JoinContext, JoinResult
from repro.costs.chapter4 import paper_algorithm1, paper_algorithm2, paper_algorithm3
from repro.costs.chapter5 import paper_algorithm4, paper_algorithm5, paper_algorithm6
from repro.costs.oblivious_join import paper_algorithm7
from repro.errors import ConfigurationError
from repro.relational.predicates import MultiPredicate
from repro.relational.relation import Relation

PredicateClass = Literal["equality", "general"]
PrivacyModel = Literal["definition1", "definition3"]


@dataclass(frozen=True)
class JoinPlan:
    """The planner's verdict: which algorithm, at what predicted cost."""

    algorithm: str
    predicted_transfers: float
    privacy_level: str
    alternatives: dict[str, float]
    parameters: dict[str, float]

    def describe(self) -> str:
        ranked = sorted(self.alternatives.items(), key=lambda kv: kv[1])
        lines = [
            f"plan: {self.algorithm} "
            f"(predicted {self.predicted_transfers:.3g} transfers, "
            f"privacy {self.privacy_level})"
        ]
        for name, cost in ranked:
            marker = "->" if name == self.algorithm else "  "
            lines.append(f" {marker} {name:14} {cost:.3g}")
        return "\n".join(lines)


def plan_join(
    left_size: int,
    right_size: int,
    result_size: int,
    memory: int,
    n_max: int | None = None,
    predicate_class: PredicateClass = "general",
    privacy: PrivacyModel = "definition3",
    epsilon: float = 1e-20,
) -> JoinPlan:
    """Choose the cheapest admissible algorithm for the given operating point.

    ``n_max`` (the Chapter 4 public parameter N) is required to admit the
    Definition 1 algorithms; under ``privacy="definition3"`` they are
    excluded regardless, because they reveal N by construction
    (Section 5.1.1).
    """
    if min(left_size, right_size, memory) < 1 or result_size < 0:
        raise ConfigurationError("sizes must be positive and S non-negative")
    total = left_size * right_size
    if result_size > total:
        raise ConfigurationError("S cannot exceed |A| * |B|")

    candidates: dict[str, float] = {
        "algorithm4": paper_algorithm4(total, result_size).total,
        "algorithm5": paper_algorithm5(total, result_size, memory).total,
    }
    if epsilon > 0 or result_size <= memory:
        candidates["algorithm6"] = paper_algorithm6(
            total, result_size, memory, epsilon
        ).total
    if predicate_class == "equality":
        # The oblivious sort-merge join replaces the L = |A|*|B| scan with
        # O(n log^2 n + S log^2 S) networks — admissible for equi-joins only.
        candidates["algorithm7"] = paper_algorithm7(
            left_size, right_size, result_size
        ).total

    if privacy == "definition1":
        if n_max is None:
            raise ConfigurationError("Definition 1 planning needs N (n_max)")
        n_max = max(1, min(n_max, right_size))
        candidates["algorithm1"] = paper_algorithm1(left_size, right_size, n_max).total
        candidates["algorithm2"] = paper_algorithm2(
            left_size, right_size, n_max, memory
        ).total
        if predicate_class == "equality":
            candidates["algorithm3"] = paper_algorithm3(
                left_size, right_size, n_max
            ).total

    best = min(candidates, key=candidates.get)
    level = "1 - epsilon" if best == "algorithm6" and result_size > memory else "100%"
    return JoinPlan(
        algorithm=best,
        predicted_transfers=candidates[best],
        privacy_level=level if privacy == "definition3" else f"{level} (N public)",
        alternatives=dict(candidates),
        parameters={
            "L": total, "S": result_size, "M": memory, "epsilon": epsilon,
            **({"N": n_max} if n_max is not None else {}),
        },
    )


def execute_plan(
    plan: JoinPlan,
    context: JoinContext,
    relations: Sequence[Relation],
    predicate: MultiPredicate,
    epsilon: float = 1e-20,
) -> JoinResult:
    """Run the planned Chapter 5 algorithm over the given inputs.

    Only the Definition 3 algorithms are runnable through the multi-way
    interface; a Definition 1 plan names a Chapter 4 algorithm, which callers
    invoke directly with their binary predicate.
    """
    memory = int(plan.parameters["M"])
    if plan.algorithm == "algorithm4":
        return algorithm4(context, relations, predicate)
    if plan.algorithm == "algorithm5":
        return algorithm5(context, relations, predicate, memory=memory)
    if plan.algorithm == "algorithm6":
        return algorithm6(context, relations, predicate, memory=memory,
                          epsilon=epsilon)
    if plan.algorithm == "algorithm7":
        return algorithm7(context, relations, predicate)
    raise ConfigurationError(
        f"plan names the Chapter 4 algorithm {plan.algorithm!r}; call it directly"
    )
