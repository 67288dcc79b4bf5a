"""Cost, timing, eligibility, and valuation of tasks on worker nodes.

The frozen constants were computed by hand from the weighted-ratio
formula before these tests were written.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucrac.core import ResourceWeights, Task, WorkerNode, default_config
from aucrac.costmodel import (deadline_eligibility, execution_cost,
                              execution_cost_unchecked, execution_time,
                              price_hosts, valuation, valuation_unchecked)
from aucrac.errors import InfeasibleError, InputError
from aucrac.rng import new_rng
from aucrac.sim import _Engine, rank_bidders


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

_pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def _twin(node, node_id):
    return WorkerNode(id=node_id, cpu=node.cpu, memory=node.memory, power=node.power,
                      unit_cost=node.unit_cost, time_const=node.time_const)


@st.composite
def _market(draw):
    """Nodes, a task, weights, a margin and a win rule, with the edge cases forced
    often: a node whose capacity equals the demand in one dimension (ratio
    exactly 1), a deadline equal to one node's execution time, and nodes
    that tie on the ask, listed out of id order or sharing an id."""
    task = _task(cycles=draw(_pos), memory=draw(_pos), power=draw(_pos),
                 deadline=draw(st.floats(min_value=1e-3, max_value=1e4)))
    n = draw(st.integers(min_value=1, max_value=8))
    ids = draw(st.permutations([f"wn{i:03d}" for i in range(n)]))
    nodes = []
    for node_id in ids:
        if nodes and draw(st.booleans()):
            nodes.append(_twin(draw(st.sampled_from(nodes)), node_id))
            continue
        caps = [task.cycles * draw(st.floats(0.5, 4.0)), task.memory * draw(st.floats(0.5, 4.0)),
                task.power * draw(st.floats(0.5, 4.0))]
        edge = draw(st.integers(min_value=-1, max_value=2))
        if edge >= 0:
            caps[edge] = (task.cycles, task.memory, task.power)[edge]
        nodes.append(WorkerNode(id=node_id, cpu=caps[0], memory=caps[1], power=caps[2],
                                unit_cost=draw(_pos), time_const=draw(_pos)))
    if draw(st.booleans()):
        # a twin under the same id: only node order can break the tie
        nodes.append(_twin(nodes[0], nodes[0].id))
    if draw(st.booleans()):
        task = _task(cycles=task.cycles, memory=task.memory, power=task.power,
                     deadline=execution_time(draw(st.sampled_from(nodes)), task))
    l1 = draw(st.floats(0.01, 0.98))
    l2 = draw(st.floats(0.005, 0.99 - l1))
    weights = ResourceWeights(lambda1=l1, lambda2=l2, lambda3=1.0 - l1 - l2,
                              alpha1=draw(_pos), alpha2=draw(_pos), delta=draw(_pos))
    margin = draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 10.0))
    win_rule = draw(st.sampled_from(["lowest", "highest"]))
    return nodes, task, weights, margin, win_rule


def _reference(nodes, task, weights, margin, win_rule):
    # the per-node definition: valuation, deadline_eligibility, a keyed stable sort
    hosts = []
    for node in nodes:
        try:
            hosts.append((valuation(node, task, weights, margin), node))
        except InfeasibleError:
            continue
    sign = 1.0 if win_rule == "lowest" else -1.0
    ranking = sorted([h for h in hosts if deadline_eligibility(h[1], task)],
                     key=lambda h: (sign * h[0], h[1].id))
    asks = [ask for ask, _ in hosts] or [valuation_unchecked(n, task, weights, margin)
                                         for n in nodes]
    return hosts, ranking, sum(asks) / len(asks)


@settings(max_examples=300, deadline=None)
@given(_market())
def test_one_pass_pricing_equals_the_per_node_definition(market):
    nodes, task, weights, margin, win_rule = market
    want_hosts, want_ranking, want_mean = _reference(nodes, task, weights, margin, win_rule)
    sign = 1.0 if win_rule == "lowest" else -1.0
    hosts, eligible = price_hosts(task, nodes, weights, margin, sign)
    assert hosts == want_hosts  # same asks, bit for bit, in node order
    assert all(ask == host_ask and node is host_node
               for (_, _, _, ask, node), (host_ask, host_node)
               in zip(eligible, [h for h in hosts if deadline_eligibility(h[1], task)]))
    for ask, node in hosts:
        assert max(task.cycles / node.cpu, task.memory / node.memory,
                   task.power / node.power) < 1.0
    config = default_config(weights=weights, bid_margin=margin, win_rule=win_rule)
    assert rank_bidders(task, nodes, config) == (want_hosts, want_ranking)
    engine = type("GivenNodes", (_Engine,), {"_build_nodes": lambda self: nodes})(config)
    assert engine._fill_value(task).value == want_mean


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
    hosts, eligible = price_hosts(task, [at_capacity, exact, inside], w, 0.1, 1.0)
    assert [node.id for _, node in hosts] == ["b", "c"]
    assert [e[1] for e in eligible] == ["c"]
    with pytest.raises(InputError):
        price_hosts(task, [inside], w, -0.1, 1.0)
