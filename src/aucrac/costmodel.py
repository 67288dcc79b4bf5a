"""Worker-side cost, timing, and valuation of a task.

All functions are pure. A node whose capacity is not strictly above the
task demand in every dimension is infeasible and must not bid.
`price_and_sum` is the engine's pass: it prices one task on many nodes
with the same float operations as `valuation` and `deadline_eligibility`.
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


def price_hosts(task: Task, nodes, weights: ResourceWeights, margin: float,
                sign: float) -> tuple:
    """`price_and_sum` without the total: return (hosts, eligible)."""
    hosts, eligible, _ = price_and_sum(task, nodes, weights, margin, sign)
    return hosts, eligible


def price_and_sum(task: Task, nodes, weights: ResourceWeights, margin: float,
                  sign: float) -> tuple:
    """Price the task on every node in one pass; return (hosts, eligible, total).

    `hosts` holds (ask, node) for each node whose capacity strictly
    dominates the task demand, in node order; each ask equals
    `valuation(node, task, weights, margin)` bit for bit. `eligible`
    holds (sign * ask, node id, position, ask, node) for the hosts with
    `deadline_eligibility` 1, so that sorting it needs no key function;
    the position settles a tie of ask and id, so a sort never compares
    two nodes. `total` is the hosts' asks added left to right in node
    order.
    """
    if margin < 0:
        raise InputError(f"margin must be non-negative, got {margin!r}")
    up = 1.0 + margin
    delta = weights.delta
    l1 = weights.lambda1
    a1l2 = weights.alpha1 * weights.lambda2
    a2l3 = weights.alpha2 * weights.lambda3
    cycles, memory, power, deadline = task.cycles, task.memory, task.power, task.deadline
    hosts = []
    eligible = []
    total = 0.0
    for i, node in enumerate(nodes):
        cpu = node.cpu
        re_ = cycles / cpu
        rm = memory / node.memory
        rp = power / node.power
        if re_ >= 1.0 or rm >= 1.0 or rp >= 1.0:
            continue
        ask = up * (node.unit_cost * delta * (l1 * re_ + a1l2 * rm + a2l3 * rp))
        hosts.append((ask, node))
        total += ask
        if deadline - node.time_const * cycles / cpu > 0.0:
            eligible.append((sign * ask, node.id, i, ask, node))
    return hosts, eligible, total
