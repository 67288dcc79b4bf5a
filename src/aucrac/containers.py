"""Best-fit container selection and lifecycle on a worker node.

Node state is single-owner: one simulation run mutates one node at a
time, so the checks here never race. All boundary comparisons are
strict; demands exactly at a limit do not fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Container, Task, WorkerNode
from .errors import ConstraintError, PlacementRejected, StateError


@dataclass(frozen=True)
class ContainerDecision:
    """What the placement step decided for one task on one node."""

    action: str                    # "reuse" | "create" | "requeue"
    container_id: str | None = None

    def __post_init__(self):
        if self.action not in ("reuse", "create", "requeue"):
            raise ConstraintError("decision.action", f"unknown action {self.action!r}")
        if self.action == "reuse" and not self.container_id:
            raise ConstraintError("decision.container_id", "reuse needs a container id")


def _placement_overhead(node: WorkerNode) -> float:
    if node.executor_mode == "vm":
        return node.executor.os_image_overhead_mb
    return node.executor.lib_overhead_mb


def slice_for(node: WorkerNode, task: Task) -> float:
    """Smallest compute slice that finishes the task strictly inside td_max,
    rounded up to the node's slice granularity."""
    g = node.executor.slice_granularity
    slice_ = g * (math.floor(task.cycles / task.td_max / g) + 1)
    # guard against float fuzz right at a granularity boundary; each step is
    # at least one ulp, since a granularity below the slice's ulp adds nothing
    while task.cycles / slice_ >= task.td_max:
        slice_ = max(slice_ + g, math.nextafter(slice_, math.inf))
    return slice_


def select_container(node: WorkerNode, task: Task) -> ContainerDecision:
    """Best fit from the free pool, then a create check, else requeue.

    Of the free containers with strictly more memory than the task needs
    and an execution time strictly under td_max, the least in
    (compute, memory, id) order is reused.
    """
    fits = [c for c in node.container_pool if c.state == "free"
            and c.memory > task.memory and task.cycles / c.compute < task.td_max]
    if fits:
        c = min(fits, key=lambda c: (c.compute, c.memory, c.id))
        return ContainerDecision(action="reuse", container_id=c.id)
    if node.free_memory > task.memory and task.cycles / node.cpu < task.td_max:
        return ContainerDecision(action="create")
    return ContainerDecision(action="requeue")


def create_container(node: WorkerNode, task: Task) -> Container:
    """Commit a new container for the task and charge the node for it.

    The container takes task memory plus the image overhead of the
    executor mode, and a compute slice sized by slice_for. If either no
    longer fits the current node state, the commit is rejected and the
    caller should requeue the task.
    """
    overhead = _placement_overhead(node)
    mem_need = task.memory + overhead
    if node.free_memory < mem_need:
        raise PlacementRejected(
            f"node {node.id}: {node.free_memory:g} MB free cannot hold {mem_need:g} MB"
        )
    slice_ = slice_for(node, task)
    if slice_ > node.free_compute:
        raise PlacementRejected(
            f"node {node.id}: slice {slice_:g} exceeds free compute {node.free_compute:g}"
        )
    container = Container(
        id=node.next_container_id(),
        node_id=node.id,
        memory=mem_need,
        compute=slice_,
        lib_overhead=overhead,
    )
    container.mark_busy()
    node.container_pool.append(container)
    node.free_memory -= mem_need
    node.free_compute -= slice_
    return container


def release_container(node: WorkerNode, container_id: str, now: float = 0.0) -> Container:
    """Return a busy container to the free pool."""
    for c in node.container_pool:
        if c.id == container_id:
            c.mark_free(now)
            return c
    raise StateError(f"node {node.id} has no container {container_id!r}")


def reap_idle(node: WorkerNode, now: float) -> list[Container]:
    """Destroy free containers idle past the TTL; their memory and compute return."""
    ttl = node.executor.idle_ttl_s
    reaped = []
    survivors = []
    for c in node.container_pool:
        if c.state == "free" and now - c.freed_at >= ttl:
            node.free_memory += c.memory
            node.free_compute += c.compute
            reaped.append(c)
        else:
            survivors.append(c)
    node.container_pool = survivors
    return reaped


def can_place(node: WorkerNode, task: Task, slice_: float | None = None) -> bool:
    """Whether a placement would go through right now, commit checks included.

    The answer does not depend on which fitting free container
    select_container would pick, so any fit answers it: nothing is sorted.
    A caller that asks for one task on many nodes of one executor config
    may pass `slice_for(node, task)` as `slice_` to compute it once.
    """
    memory, cycles, td_max = task.memory, task.cycles, task.td_max
    for c in node.container_pool:
        if c.state == "free" and c.memory > memory and cycles / c.compute < td_max:
            return True
    # the create path: select_container's check, then create_container's
    if not (node.free_memory > memory and cycles / node.cpu < td_max):
        return False
    if node.free_memory < memory + _placement_overhead(node):
        return False
    if slice_ is None:
        slice_ = slice_for(node, task)
    return slice_ <= node.free_compute


def memory_footprint(node: WorkerNode, task_count: int, executor_mode: str) -> float:
    """Memory the node's executor occupies hosting `task_count` reference tasks.

    Containers pay a small image layer per task; VM guests pay a full OS
    image per task. Linear in the count by design.
    """
    if executor_mode not in ("container", "vm"):
        raise ConstraintError("executor_mode", f"must be 'container' or 'vm', got {executor_mode!r}")
    if task_count < 0:
        raise ConstraintError("task_count", "must be non-negative")
    cfg = node.executor
    per_task = cfg.os_image_overhead_mb if executor_mode == "vm" else cfg.lib_overhead_mb
    return cfg.base_footprint_mb + task_count * (cfg.task_memory_mb + per_task)
