"""Container selection, lifecycle, and the executor memory model."""

import copy
import signal

import pytest

from aucrac.containers import (can_place, create_container, memory_footprint,
                               reap_idle, release_container, select_container,
                               slice_for)
from aucrac.core import Container, ExecutorConfig, Task, WorkerNode
from aucrac.errors import ConstraintError, PlacementRejected, StateError
from aucrac.rng import new_rng


def _node(cpu=8e9, memory=4096.0, granularity=1e9, ttl=4.0, mode="container"):
    executor = ExecutorConfig(slice_granularity=granularity, idle_ttl_s=ttl)
    return WorkerNode(id="wn0", cpu=cpu, memory=memory, power=100.0,
                      unit_cost=1.0, time_const=5.0, executor_mode=mode,
                      executor=executor)


def _task(cycles=1e9, memory=100.0, td_max=2.0, deadline=10.0):
    return Task(id="t0", data_in=1.0, data_out=0.5, cycles=cycles,
                memory=memory, power=5.0, deadline=deadline, td_max=td_max)


def _free_container(node, cid, memory, compute):
    c = Container(id=cid, node_id=node.id, memory=memory, compute=compute,
                  lib_overhead=20.0)
    node.container_pool.append(c)
    node.free_memory -= memory
    node.free_compute -= compute
    return c


# --- slice sizing ---------------------------------------------------------

def test_slice_rounds_up_to_the_next_granule():
    node = _node(granularity=1.0)
    # 5 cycles in under 2 s needs 2.5 cycles/s, the next granule is 3
    assert slice_for(node, _task(cycles=5.0, td_max=2.0)) == 3.0


def test_slice_is_strictly_faster_than_the_budget():
    node = _node(granularity=1.0)
    # exactly 2 cycles/s would finish exactly at the budget, which fails
    # the strict rule, so the slice steps one granule higher
    s = slice_for(node, _task(cycles=4.0, td_max=2.0))
    assert s == 3.0
    assert 4.0 / s < 2.0


def test_slice_scales_with_granularity():
    node = _node(granularity=2e9)
    s = slice_for(node, _task(cycles=3e9, td_max=2.0))
    assert s == 2e9  # 1.5e9 needed, rounded up to one 2e9 granule
    assert s % 2e9 == 0


@pytest.mark.parametrize("granularity", [1e-8, 1e-12])
def test_slice_returns_when_the_granularity_is_below_an_ulp_of_the_slice(granularity):
    # adding a granularity below the slice's ulp changes nothing, so a guard
    # that only adds it never leaves the loop; an interval timer stops a hang
    task = _task(cycles=1e9, td_max=3.0)

    def hang(signum, frame):
        raise TimeoutError("slice_for did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        s = slice_for(_node(granularity=granularity), task)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert task.cycles / s < task.td_max


# --- selection ------------------------------------------------------------

def test_best_fit_prefers_the_smallest_adequate_container():
    node = _node()
    _free_container(node, "wn0-c0000", memory=400.0, compute=2e9)
    _free_container(node, "wn0-c0001", memory=300.0, compute=1e9)
    decision = select_container(node, _task(cycles=1e9, memory=250.0, td_max=2.0))
    assert decision.action == "reuse"
    assert decision.container_id == "wn0-c0001"  # smaller compute wins the scan


def test_reuse_requires_strictly_more_memory():
    node = _node()
    _free_container(node, "wn0-c0000", memory=250.0, compute=4e9)
    decision = select_container(node, _task(memory=250.0))
    assert decision.action == "create"  # exact fit is not a fit


def test_reuse_requires_strictly_beating_the_time_budget():
    node = _node()
    _free_container(node, "wn0-c0000", memory=500.0, compute=1e9)
    # 2e9 cycles on 1e9 takes exactly 2.0 s against a 2.0 s budget
    decision = select_container(node, _task(cycles=2e9, memory=100.0, td_max=2.0))
    assert decision.action == "create"


def test_busy_containers_are_invisible_to_the_scan():
    node = _node()
    c = _free_container(node, "wn0-c0000", memory=500.0, compute=4e9)
    c.mark_busy()
    decision = select_container(node, _task(memory=100.0))
    assert decision.action == "create"


def test_requeue_when_nothing_fits():
    node = _node(memory=100.0)
    decision = select_container(node, _task(memory=100.0))  # strict: equal fails
    assert decision.action == "requeue"
    assert not can_place(node, _task(memory=100.0))


def test_requeue_when_node_cpu_cannot_meet_the_budget():
    node = _node(cpu=1e9)
    decision = select_container(node, _task(cycles=4e9, td_max=2.0))
    assert decision.action == "requeue"


# --- creation and accounting ----------------------------------------------

def test_create_charges_memory_plus_image_overhead():
    node = _node(granularity=1e9)
    task = _task(cycles=1e9, memory=100.0, td_max=2.0)
    before_mem, before_cc = node.free_memory, node.free_compute
    c = create_container(node, task)
    assert c.memory == pytest.approx(120.0)  # 100 + 20 image layer
    assert c.state == "busy"
    assert node.free_memory == pytest.approx(before_mem - 120.0)
    assert node.free_compute == pytest.approx(before_cc - c.compute)
    assert c.compute == slice_for(node, task)
    assert task.cycles / c.compute < task.td_max


def test_vm_mode_charges_the_full_os_image():
    node = _node(mode="vm")
    c = create_container(node, _task(memory=100.0))
    assert c.memory == pytest.approx(612.0)  # 100 + 512 guest image


def test_create_rejects_when_memory_runs_out():
    node = _node(memory=110.0)
    with pytest.raises(PlacementRejected):
        create_container(node, _task(memory=100.0))  # needs 120


def test_create_rejects_when_compute_runs_out():
    node = _node(cpu=1e9, granularity=1e9)
    node.free_compute = 0.5e9
    with pytest.raises(PlacementRejected):
        create_container(node, _task(cycles=1e9, td_max=2.0))


def test_release_then_reuse_round_trip():
    node = _node()
    task = _task(cycles=1e9, memory=100.0, td_max=2.0)
    c = create_container(node, task)
    release_container(node, c.id, now=1.0)
    assert c.state == "free" and c.freed_at == 1.0
    decision = select_container(node, task)
    assert decision.action == "reuse"
    assert decision.container_id == c.id


def test_release_unknown_container_is_a_state_error():
    with pytest.raises(StateError):
        release_container(_node(), "ghost", now=0.0)


def test_reaping_returns_capacity_exactly():
    node = _node(ttl=4.0)
    task = _task(cycles=1e9, memory=100.0, td_max=2.0)
    c = create_container(node, task)
    release_container(node, c.id, now=1.0)
    assert reap_idle(node, now=4.9) == []          # idle 3.9 s, survives
    reaped = reap_idle(node, now=5.0)              # idle 4.0 s, at the ttl
    assert [r.id for r in reaped] == [c.id]
    assert node.free_memory == pytest.approx(node.memory)
    assert node.free_compute == pytest.approx(node.cpu)
    assert node.container_pool == []


def test_busy_containers_survive_reaping():
    node = _node(ttl=4.0)
    c = create_container(node, _task())
    assert reap_idle(node, now=100.0) == []
    assert c in node.container_pool


def _placeable_by_commit(node, task):
    # the definition can_place must keep: best fit, then the create commit
    # tried for real on a copy of the node
    decision = select_container(node, task)
    if decision.action != "create":
        return decision.action == "reuse"
    try:
        create_container(copy.deepcopy(node), task)
    except PlacementRejected:
        return False
    return True


def test_can_place_matches_the_commit_checks():
    node = _node(memory=130.0, granularity=1e9)
    task = _task(cycles=1e9, memory=100.0, td_max=2.0)
    # select says create (130 > 100) and the commit fits (needs 120)
    assert can_place(node, task)
    node.free_memory = 110.0
    # select still says create (110 > 100) but the commit would reject
    assert select_container(node, task).action == "create"
    assert not can_place(node, task)

    # a busy container that would fit does not count, on a node that
    # cannot create; counting it as free would answer True
    node = _node(memory=600.0, granularity=1e9)
    _free_container(node, "wn0-c0000", memory=500.0, compute=4e9).mark_busy()
    assert not can_place(node, _task(memory=100.0))
    assert not _placeable_by_commit(node, _task(memory=100.0))

    # generated pools: mixed busy and free containers, ties on (compute,
    # memory), and nodes left exactly at their memory or compute edge
    rng = new_rng(176)
    busy_fit_refused = 0
    answers = set()
    for _ in range(2000):
        node = _node(cpu=rng.choice([4e9, 8e9]), memory=rng.choice([600.0, 1200.0]),
                     granularity=1e9, mode=rng.choice(["container", "vm"]))
        for k in range(rng.randint(0, 5)):
            mem = rng.choice([100.0, 150.0, 300.0])
            cc = rng.choice([1e9, 2e9])
            if mem <= node.free_memory and cc <= node.free_compute:
                c = _free_container(node, f"wn0-c{k:04d}", mem, cc)
                if rng.random() < 0.5:
                    c.mark_busy()
        task = _task(cycles=rng.choice([1e9, 2e9, 3e9]), memory=rng.choice([50.0, 100.0, 150.0]),
                     td_max=rng.choice([0.5, 1.0, 2.0]))
        edge = rng.randint(0, 4)
        if edge == 1:   # exactly the memory the commit needs
            image = (node.executor.os_image_overhead_mb if node.executor_mode == "vm"
                     else node.executor.lib_overhead_mb)
            node.free_memory = task.memory + image
        elif edge == 2:  # exactly the memory select_container refuses
            node.free_memory = task.memory
        elif edge == 3:  # exactly the compute the slice needs
            node.free_compute = slice_for(node, task)
        elif edge == 4:  # one cycle/s short of it
            node.free_compute = slice_for(node, task) - 1.0
        want = _placeable_by_commit(node, task)
        assert can_place(node, task) == want
        answers.add(want)
        if not want and any(c.state == "busy" and c.memory > task.memory
                            and task.cycles / c.compute < task.td_max
                            for c in node.container_pool):
            busy_fit_refused += 1
    assert answers == {True, False}
    assert busy_fit_refused > 0


def test_best_fit_agrees_with_brute_force_on_random_pools():
    rng = new_rng(99)
    for _ in range(100):
        node = _node(cpu=rng.uniform(2e9, 1.6e10), memory=rng.uniform(512, 8192))
        for k in range(rng.randint(0, 6)):
            mem = rng.uniform(50, 700)
            cc = rng.uniform(0.5e9, 4e9)
            if mem < node.free_memory and cc < node.free_compute:
                c = _free_container(node, f"wn0-c{k:04d}", mem, cc)
                if rng.random() < 0.3:
                    c.mark_busy()
        task = _task(cycles=rng.uniform(1e8, 8e9), memory=rng.uniform(32, 600),
                     td_max=rng.uniform(0.5, 4.0))
        got = select_container(node, task)
        fits = [c for c in node.container_pool
                if c.state == "free" and c.memory > task.memory
                and task.cycles / c.compute < task.td_max]
        if fits:
            want = min(fits, key=lambda c: (c.compute, c.memory, c.id))
            assert got.action == "reuse" and got.container_id == want.id
        elif node.free_memory > task.memory and task.cycles / node.cpu < task.td_max:
            assert got.action == "create"
        else:
            assert got.action == "requeue"


# --- footprint model ------------------------------------------------------

def test_footprint_starts_at_the_base_and_grows_linearly():
    node = _node()
    base = memory_footprint(node, 0, "container")
    assert base == pytest.approx(64.0)
    one = memory_footprint(node, 1, "container")
    ten = memory_footprint(node, 10, "container")
    assert one == pytest.approx(64.0 + 148.0)       # 128 task + 20 image
    assert ten == pytest.approx(64.0 + 10 * 148.0)


def test_vm_footprint_dominates_containers():
    node = _node()
    for count in range(1, 20):
        assert memory_footprint(node, count, "vm") > \
            memory_footprint(node, count, "container")
    assert memory_footprint(node, 0, "vm") == memory_footprint(node, 0, "container")


def test_footprint_guards():
    node = _node()
    with pytest.raises(ConstraintError):
        memory_footprint(node, 1, "chroot")
    with pytest.raises(ConstraintError):
        memory_footprint(node, -1, "vm")
