"""Worker-side cost, timing, and valuation of a task.

All functions are pure. A node whose capacity is not strictly above the
task demand in every dimension is infeasible and must not bid.
`valuation` and `deadline_eligibility` define a bid; the engine, which
prices once per node class, reproduces them bit for bit.
"""

from __future__ import annotations

from .core import ResourceWeights, Task, WorkerNode
from .errors import InfeasibleError, InputError


def _ratios(node: WorkerNode, task: Task) -> tuple:
    return (task.cycles / node.cpu, task.memory / node.memory, task.power / node.power)


def execution_cost_unchecked(node: WorkerNode, task: Task, weights: ResourceWeights) -> float:
    """Cost formula with no feasibility gate; ratios may exceed 1."""
    re_, rm, rp = _ratios(node, task)
    return node.unit_cost * weights.delta * (
        weights.lambda1 * re_
        + weights.alpha1 * weights.lambda2 * rm
        + weights.alpha2 * weights.lambda3 * rp
    )


def execution_cost(node: WorkerNode, task: Task, weights: ResourceWeights) -> float:
    """Cost for the node to run the task; demands must sit strictly below capacity."""
    for name, ratio in zip(("cycles", "memory", "power"), _ratios(node, task)):
        if ratio >= 1.0:
            raise InfeasibleError(
                f"node {node.id} cannot host task {task.id}: {name} demand ratio {ratio:g} >= 1"
            )
    return execution_cost_unchecked(node, task, weights)


def execution_time(node: WorkerNode, task: Task) -> float:
    """Seconds the node needs when the task gets the whole CPU."""
    return node.time_const * task.cycles / node.cpu


def deadline_eligibility(node: WorkerNode, task: Task) -> int:
    """1 iff the node finishes strictly inside the task deadline."""
    return 1 if task.deadline - execution_time(node, task) > 0.0 else 0


def valuation(node: WorkerNode, task: Task, weights: ResourceWeights,
              margin: float = 0.1) -> float:
    """The worker's asking price: assessed cost plus a profit margin."""
    if margin < 0:
        raise InputError(f"margin must be non-negative, got {margin!r}")
    return (1.0 + margin) * execution_cost(node, task, weights)


def valuation_unchecked(node: WorkerNode, task: Task, weights: ResourceWeights,
                        margin: float = 0.1) -> float:
    """Asking price without the feasibility gate; used when a price is needed for any node."""
    if margin < 0:
        raise InputError(f"margin must be non-negative, got {margin!r}")
    return (1.0 + margin) * execution_cost_unchecked(node, task, weights)
