"""Cost, timing, eligibility, and valuation of tasks on worker nodes.

The frozen constants were computed by hand from the weighted-ratio
formula before these tests were written.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from aucrac.core import ResourceWeights, Task, WorkerNode, default_config
from aucrac.costmodel import (deadline_eligibility, execution_cost,
                              execution_cost_unchecked, execution_time,
                              valuation, valuation_unchecked)
from aucrac.errors import InfeasibleError, InputError
from aucrac.rng import new_rng
from aucrac.sim import left_sum, run_task_auction

from reference_engine import market, over, same_round


def _node(cpu=2.0, memory=3.0, power=4.0, unit_cost=1.0, time_const=5.0):
    return WorkerNode(id="n", cpu=cpu, memory=memory, power=power,
                      unit_cost=unit_cost, time_const=time_const)


def _task(cycles, memory, power, deadline=10.0, td_max=2.0):
    return Task(id="t", data_in=1.0, data_out=0.5, cycles=cycles,
                memory=memory, power=power, deadline=deadline, td_max=td_max)


def test_execution_cost_frozen_value():
    # ratios: (4/3)/2, (2/3)/3, (8/3)/4; weighted with 0.5 and 0.8
    w = ResourceWeights(alpha1=0.5, alpha2=0.8)
    node = _node()
    task = _task(cycles=4 / 3, memory=2 / 3, power=8 / 3)
    assert execution_cost(node, task, w) == pytest.approx(0.437037037037037, rel=1e-12)


def test_execution_cost_scales_with_unit_cost():
    w = ResourceWeights()
    task = _task(cycles=1.0, memory=1.0, power=1.0)
    a = execution_cost(_node(unit_cost=1.0), task, w)
    b = execution_cost(_node(unit_cost=3.0), task, w)
    assert b == pytest.approx(3 * a)


def test_execution_cost_rejects_demand_at_capacity():
    # strictly-below rule: a ratio of exactly 1 is infeasible
    w = ResourceWeights()
    node = _node(cpu=2.0, memory=3.0, power=4.0)
    with pytest.raises(InfeasibleError, match="cycles"):
        execution_cost(node, _task(cycles=2.0, memory=1.0, power=1.0), w)
    with pytest.raises(InfeasibleError, match="memory"):
        execution_cost(node, _task(cycles=1.0, memory=3.0, power=1.0), w)
    with pytest.raises(InfeasibleError, match="power"):
        execution_cost(node, _task(cycles=1.0, memory=1.0, power=4.0), w)


def test_unchecked_cost_tolerates_oversized_demand():
    w = ResourceWeights()
    node = _node(cpu=2.0, memory=3.0, power=4.0)
    task = _task(cycles=4.0, memory=6.0, power=8.0)
    assert execution_cost_unchecked(node, task, w) == pytest.approx(2.0)


def test_execution_time_frozen_value():
    node = _node(cpu=3e9, memory=8192.0, power=200.0, time_const=5.0)
    task = _task(cycles=4e9, memory=100.0, power=10.0)
    assert execution_time(node, task) == pytest.approx(20 / 3, rel=1e-12)


def test_execution_time_shrinks_on_faster_nodes():
    task = _task(cycles=1e9, memory=1.0, power=1.0)
    slow = _node(cpu=1e9, memory=10.0, power=10.0)
    fast = _node(cpu=4e9, memory=10.0, power=10.0)
    assert execution_time(fast, task) < execution_time(slow, task)


def test_deadline_eligibility_is_strict():
    node = _node(cpu=1e9, memory=10.0, power=10.0, time_const=2.0)
    # execution takes exactly 2 s; a 2 s deadline does not qualify
    task_exact = _task(cycles=1e9, memory=1.0, power=1.0, deadline=2.0)
    task_loose = _task(cycles=1e9, memory=1.0, power=1.0, deadline=2.0001)
    task_tight = _task(cycles=1e9, memory=1.0, power=1.0, deadline=1.9)
    assert deadline_eligibility(node, task_exact) == 0
    assert deadline_eligibility(node, task_loose) == 1
    assert deadline_eligibility(node, task_tight) == 0


def test_eligibility_agrees_with_recomputed_slack():
    rng = new_rng(2024)
    for _ in range(1000):
        node = _node(cpu=rng.uniform(1e9, 1e10), memory=rng.uniform(512, 16384),
                     power=rng.uniform(50, 400), time_const=rng.uniform(1, 10))
        task = _task(cycles=rng.uniform(1e8, 1e10), memory=rng.uniform(1, 512),
                     power=rng.uniform(1, 40), deadline=rng.uniform(0.1, 30))
        expected = 1 if task.deadline - execution_time(node, task) > 0 else 0
        assert deadline_eligibility(node, task) == expected


def test_valuation_applies_margin_over_cost():
    w = ResourceWeights()
    node = _node()
    task = _task(cycles=1.0, memory=1.0, power=1.0)
    cost = execution_cost(node, task, w)
    assert valuation(node, task, w) == pytest.approx(1.1 * cost)
    assert valuation(node, task, w, margin=0.0) == pytest.approx(cost)
    assert valuation(node, task, w, margin=0.5) == pytest.approx(1.5 * cost)


def test_valuation_rejects_negative_margin():
    w = ResourceWeights()
    node = _node()
    task = _task(cycles=1.0, memory=1.0, power=1.0)
    with pytest.raises(InputError):
        valuation(node, task, w, margin=-0.1)
    with pytest.raises(InputError):
        valuation_unchecked(node, task, w, margin=-0.1)


def test_cost_is_monotone_in_each_demand_dimension():
    w = ResourceWeights(alpha1=0.7, alpha2=1.3)
    node = _node(cpu=10.0, memory=10.0, power=10.0)
    base = execution_cost(node, _task(cycles=1.0, memory=1.0, power=1.0), w)
    for kw in ({"cycles": 2.0, "memory": 1.0, "power": 1.0},
               {"cycles": 1.0, "memory": 2.0, "power": 1.0},
               {"cycles": 1.0, "memory": 1.0, "power": 2.0}):
        assert execution_cost(node, _task(**kw), w) > base


def test_cost_is_additive_across_weight_terms():
    # with delta 1 the three ratio terms add independently
    w = ResourceWeights()
    node = _node(cpu=4.0, memory=4.0, power=4.0)
    only_e = execution_cost_unchecked(node, _task(cycles=2.0, memory=0.0, power=0.0), w)
    only_m = execution_cost_unchecked(node, _task(cycles=0.0, memory=2.0, power=0.0), w)
    only_p = execution_cost_unchecked(node, _task(cycles=0.0, memory=0.0, power=2.0), w)
    full = execution_cost_unchecked(node, _task(cycles=2.0, memory=2.0, power=2.0), w)
    assert full == pytest.approx(only_e + only_m + only_p)


# --- the engine's one-pass pricing ------------------------------------------

@settings(max_examples=60, deadline=None)
@given(market())
def test_one_pass_pricing_equals_the_per_node_definition(drawn):
    config, nodes, tasks = drawn
    same_round(nodes, tasks, replace(config, strategy="auction_basic"))


def test_one_pass_pricing_excludes_a_ratio_of_one_and_a_deadline_met_exactly():
    w = ResourceWeights()
    task = _task(cycles=1e9, memory=1.0, power=1.0, deadline=2.0)
    at_capacity = WorkerNode(id="a", cpu=1e9, memory=10.0, power=10.0, unit_cost=1.0,
                             time_const=1.0)
    exact = WorkerNode(id="b", cpu=1.5e9, memory=10.0, power=10.0, unit_cost=1.0,
                       time_const=3.0)  # runs exactly 2 s
    inside = WorkerNode(id="c", cpu=4e9, memory=10.0, power=10.0, unit_cost=1.0,
                        time_const=1.0)
    assert execution_time(exact, task) == task.deadline
    nodes = [at_capacity, exact, inside]
    # under the highest-ask rule b outbids c, so only its ineligibility lets c win
    config = default_config(weights=w, bid_margin=0.1, win_rule="highest",
                            strategy="auction_basic")
    engine = over(nodes)(config)
    hosted = [valuation(exact, task, w, 0.1), valuation(inside, task, w, 0.1)]
    assert hosted[0] > hosted[1]
    assert engine.market.price(task).value == left_sum(hosted) / 2  # a stays out
    outcome = run_task_auction(task, nodes, config, 0.0)
    assert [(b.node_id, b.eligible) for b in outcome.losing_bids] == [("b", 0)]
    assert (outcome.winner, outcome.payment) == ("c", hosted[1])
    assert engine.market.pick(task, 0.0) == (hosted[1], inside)
