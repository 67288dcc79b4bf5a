"""Event engine behavior: strategies, determinism, logs, and metrics."""

import copy
import heapq
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aucrac.containers as ct
import aucrac.sim as sim
from aucrac.core import (AUCTION_MODES, STRATEGIES, Container, NodeTemplate, ResourceWeights,
                         Task, WorkerNode, WorkloadSpec, default_config, generate_workload)
from aucrac.costmodel import execution_time
from aucrac.errors import ConstraintError, InputError, StateError
from aucrac.rng import MASK64, new_rng
from aucrac.sim import (SimEvent, _percentile, assign, jain_fairness, left_sum,
                        mn_profit, parse_event_line, run, run_task_auction,
                        utilization_series)
from aucrac.core import AuctionOutcome

from reference_engine import (ReferenceEngine, market, over, same_picks, same_round, same_run,
                              whole_node_steps)


def _workload_of(tasks_per_device):
    return replace(default_config().workload, tasks_per_device=tasks_per_device)


# --- small pure helpers ---------------------------------------------------

def test_jain_fairness_frozen_values():
    assert jain_fairness([1, 2]) == pytest.approx(0.9)
    assert jain_fairness([4, 4, 4]) == pytest.approx(1.0)
    assert jain_fairness([6, 0, 0]) == pytest.approx(1 / 3)
    assert jain_fairness([0, 0, 0]) == 1.0  # nothing scheduled, nobody wronged
    with pytest.raises(InputError):
        jain_fairness([])


def test_percentile_uses_nearest_rank():
    xs = [10.0, 20.0, 30.0, 40.0]
    assert _percentile(xs, 0.5) == 20.0
    assert _percentile(xs, 0.95) == 40.0
    assert _percentile(xs, 0.25) == 10.0
    assert _percentile([], 0.5) == 0.0


def test_mn_profit_frozen_value():
    task = Task(id="t0", data_in=10.0, data_out=1.0, cycles=1e9, memory=64.0,
                power=5.0, deadline=10.0, td_max=3.0)
    outcome = AuctionOutcome(task_id="t0", winner="wn0", payment=2.0)
    # revenue 10 MB * 0.5 = 5, minus the 2 paid out
    assert mn_profit([outcome], [task], unit_price=0.5) == pytest.approx(3.0)
    skipped = AuctionOutcome(task_id="t0", winner=None, payment=0.0)
    assert mn_profit([skipped], [task], unit_price=0.5) == 0.0


def test_left_sum_rounds_at_every_step():
    # a compensated sum (Python 3.12+ sum(), math.fsum) gives 1.0 here
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0.0
    assert left_sum(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3


def test_event_line_round_trip():
    ev = SimEvent(time=1.5, kind="exec_start", task_id="t00001", node_id="wn002",
                  container_id="wn002-c0001", detail="cc=2e9;ei=5e9;mem=120.0;created=1")
    assert parse_event_line(ev.line()) == ev
    with pytest.raises(InputError):
        parse_event_line("1.5,exec_start,t0")


# --- assignment strategies on hand-built state ----------------------------

def _hand_nodes():
    a = WorkerNode(id="wn000", cpu=2e9, memory=4096.0, power=100.0,
                   unit_cost=1.0, time_const=5.0)
    b = WorkerNode(id="wn001", cpu=5e9, memory=8192.0, power=200.0,
                   unit_cost=1.0, time_const=5.0)
    return [a, b]


def _simple_task(cycles=3e9, deadline=10.0):
    return Task(id="tx", data_in=1.0, data_out=0.5, cycles=cycles, memory=100.0,
                power=5.0, deadline=deadline, td_max=2.0)


def test_round_robin_cycles_through_nodes():
    nodes = _hand_nodes()
    rng = new_rng(0)
    picks = [assign("round_robin", _simple_task(), nodes, rng, turn) for turn in range(4)]
    assert picks == ["wn000", "wn001", "wn000", "wn001"]


def test_mct_prefers_the_earliest_finish():
    # both idle: the faster cpu finishes first, here after 100 s; then, with
    # 100 s of queue on the fast node, the slow one wins
    steps = [(0.0, _simple_task(cycles=1e11)), (0.0, _simple_task())]
    picks = same_picks(_hand_nodes(), steps, default_config(strategy="mct"))
    assert picks == ["wn001", "wn000"]


def test_greedy_takes_the_biggest_free_node():
    # both idle: the bigger cpu wins; then a busy big node loses to a free small one
    steps = [(0.0, _simple_task()), (0.0, _simple_task())]
    picks = same_picks(_hand_nodes(), steps, default_config(strategy="greedy"))
    assert picks == ["wn001", "wn000"]


def test_random_assignment_is_seed_deterministic():
    nodes = _hand_nodes()
    picks_a = [assign("random", _simple_task(), nodes, new_rng(7), 0) for _ in range(1)]
    picks_b = [assign("random", _simple_task(), nodes, new_rng(7), 0) for _ in range(1)]
    assert picks_a == picks_b


def test_unknown_strategy_is_rejected():
    with pytest.raises(InputError):
        assign("astrology", _simple_task(), _hand_nodes(), new_rng(0), 0)


@pytest.mark.parametrize("strategy", ["aucrac", "auction_basic"])
def test_assign_is_only_for_whole_node_strategies(strategy):
    # the auction markets price their rounds themselves; assign has no auction
    with pytest.raises(InputError, match=f"unknown strategy '{strategy}'"):
        assign(strategy, _simple_task(), _hand_nodes(), new_rng(0), 0)


@pytest.mark.parametrize("strategy", ["mct", "greedy"])
def test_assign_leaves_the_picks_that_read_node_state_to_the_queues(strategy):
    with pytest.raises(InputError, match=f"unknown strategy '{strategy}'"):
        assign(strategy, _simple_task(), _hand_nodes(), new_rng(0), 0)


# --- one-task auctions against hand nodes ---------------------------------

def test_auction_skips_nodes_that_cannot_host_the_task():
    config = default_config(strategy="auction_basic", num_workers=2)
    # 3e9 cycles over a 2e9 node is an infeasible ratio; only wn001 may bid
    outcome = run_task_auction(_simple_task(cycles=3e9), _hand_nodes(), config, 0.0)
    assert outcome.winner == "wn001"
    assert outcome.payment > 0.0


def test_auction_returns_none_when_nobody_can_bid():
    config = default_config(strategy="auction_basic", num_workers=2)
    outcome = run_task_auction(_simple_task(cycles=9e9), _hand_nodes(), config, 0.0)
    assert outcome is None


def test_auction_refuses_deadline_breakers():
    config = default_config(strategy="auction_basic", num_workers=2)
    # feasible to host, impossible to finish in 0.5 s
    outcome = run_task_auction(_simple_task(cycles=3e9, deadline=0.5),
                               _hand_nodes(), config, 0.0)
    assert outcome is not None
    assert outcome.winner is None


def test_container_strategy_also_requires_immediate_placement():
    config = default_config(strategy="aucrac", num_workers=2)
    nodes = _hand_nodes()
    nodes[1].free_memory = 50.0  # cannot even create a container
    outcome = run_task_auction(_simple_task(cycles=3e9), nodes, config, 0.0)
    assert outcome is None


# --- full runs ------------------------------------------------------------

def test_single_task_completion_matches_hand_timing():
    cfg = default_config(num_devices=1, num_workers=2, strategy="round_robin",
                         seed=11, workload=_workload_of(1))
    result = run(cfg)
    assert result.metrics.tasks_arrived == 1
    # round robin sends the first task to wn000; it runs alone, so the
    # completion time is exactly the whole-node execution time there
    task = result.tasks[0]
    node = next(n for n in result.nodes if n.id == "wn000")
    assert result.metrics.per_node_tasks == (1, 0)
    assert result.metrics.mean_completion_s == pytest.approx(
        execution_time(node, task), abs=1e-9)


def test_round_robin_spreads_tasks_evenly():
    cfg = default_config(num_devices=2, num_workers=3, strategy="round_robin", seed=4)
    result = run(cfg)  # 6 tasks over 3 nodes
    assert result.metrics.tasks_arrived == 6
    assert result.metrics.per_node_tasks == (2, 2, 2)
    assert result.metrics.fairness_jain == pytest.approx(1.0)


def test_mct_runs_the_single_task_on_the_fast_node():
    cfg = default_config(num_devices=1, num_workers=2, strategy="mct",
                         seed=11, workload=_workload_of(1))
    result = run(cfg)
    assert result.metrics.per_node_tasks == (0, 1)


def test_greedy_runs_the_single_task_on_the_biggest_node():
    cfg = default_config(num_devices=1, num_workers=3, strategy="greedy",
                         seed=11, workload=_workload_of(1))
    result = run(cfg)
    assert result.metrics.per_node_tasks == (0, 0, 1)


def test_runs_are_reproducible_and_seed_sensitive():
    cfg = default_config(num_devices=6, seed=3)
    a = run(cfg)
    b = run(cfg)
    assert a.log_lines == b.log_lines
    assert a.metrics == b.metrics
    c = run(replace(cfg, seed=4))
    assert a.log_lines != c.log_lines


def test_log_lines_are_formatted_once_from_the_engine_records():
    engine = sim._Engine(default_config(num_devices=6, seed=3))
    result = engine.run()
    lines = result.log_lines
    assert result.log_lines is lines  # formatted on the first read only
    assert type(vars(result)["log_lines"]) is tuple  # the raw records are dropped
    assert len(lines) == len(engine.log)  # one line per event
    assert [parse_event_line(ln).line() for ln in lines] == list(lines)
    assert lines == run(default_config(num_devices=6, seed=3)).log_lines


def test_log_lines_given_as_a_tuple_are_kept_as_given():
    result = run(default_config(num_devices=4, seed=1))
    given = ("1.0,task_arrival,t00000,,,class=LIT",)
    built = sim.SimResult(metrics=result.metrics, log_lines=given, tasks=result.tasks,
                          nodes=result.nodes)
    assert built.log_lines is given
    assert replace(result, log_lines=given).log_lines is given
    assert replace(built, tasks=()).log_lines is given
    with pytest.raises(TypeError):
        sim.SimResult(metrics=result.metrics, tasks=(), nodes=())  # no default log


def test_zero_horizon_observes_nothing():
    result = run(default_config(horizon_s=0.0, num_devices=10))
    assert result.metrics.tasks_arrived == 0
    assert result.log_lines == ()
    assert result.metrics.mean_completion_s == 0.0
    assert result.metrics.mean_cpu_frac == 0.0


def test_short_horizon_leaves_tasks_in_flight():
    m = run(default_config(num_devices=20, horizon_s=5.0, strategy="mct")).metrics
    assert m.tasks_arrived < 60  # most arrivals land after the cutoff
    total = m.tasks_completed + m.deadline_miss + m.failed_to_place + m.in_flight
    assert total == m.tasks_arrived


@pytest.mark.parametrize("strategy", ["aucrac", "random", "round_robin",
                                      "greedy", "mct", "auction_basic"])
def test_every_strategy_accounts_for_every_arrival(strategy):
    result = run(default_config(num_devices=8, strategy=strategy, seed=2))
    m = result.metrics
    arrivals = sum(1 for ln in result.log_lines if ",task_arrival," in ln)
    finishes = sum(1 for ln in result.log_lines if ",exec_finish," in ln)
    assert arrivals == m.tasks_arrived
    assert finishes == m.tasks_completed + m.deadline_miss
    assert m.tasks_arrived == 24


def test_literal_mode_runs_both_auction_strategies():
    for strategy in ("aucrac", "auction_basic"):
        cfg = default_config(num_devices=4, strategy=strategy,
                             auction_mode="literal", seed=1)
        m = run(cfg).metrics
        assert m.tasks_arrived == 12


def test_highest_win_rule_still_resolves():
    m = run(default_config(num_devices=4, win_rule="highest", seed=1)).metrics
    assert m.tasks_arrived == 12
    assert m.tasks_completed > 0


def test_cpu_fraction_stays_physical():
    for strategy in ("aucrac", "mct"):
        m = run(default_config(num_devices=15, strategy=strategy, seed=6)).metrics
        assert 0.0 <= m.mean_cpu_frac <= 1.0


# each task runs for under half an ulp of its start time, so it finishes at
# the instant it starts
_ZERO_LENGTH = default_config(num_devices=2, workload=replace(
    default_config().workload, lit_cycles=(1e-9, 1e-9), mit_cycles=(1e-9, 1e-9),
    hit_cycles=(1e-9, 1e-9)))


def test_container_log_replay_matches_recorded_peaks():
    for config in (default_config(num_devices=10), _ZERO_LENGTH):
        result = run(replace(config, strategy="aucrac", seed=0))
        series = utilization_series(result.log_lines)
        peaks = dict(zip((n.id for n in result.nodes), result.metrics.peak_memory_mb))
        for node in result.nodes:
            samples = series.get(node.id, [])
            if not samples:
                assert peaks[node.id] == 0.0
                continue
            replay_peak = max(mem for _, _, mem in samples)
            assert replay_peak == pytest.approx(peaks[node.id], abs=1e-6)
            for _, frac, mem in samples:
                assert -1e-9 <= frac <= 1.0 + 1e-9
                assert -1e-6 <= mem <= node.memory + 1e-6


def test_whole_node_log_replay_matches_recorded_peaks():
    for config in (default_config(num_devices=10), _ZERO_LENGTH):
        result = run(replace(config, strategy="mct", seed=0))
        series = utilization_series(result.log_lines)
        peaks = dict(zip((n.id for n in result.nodes), result.metrics.peak_memory_mb))
        for node_id, samples in series.items():
            assert max(mem for _, _, mem in samples) == pytest.approx(peaks[node_id], abs=1e-6)


@pytest.mark.parametrize("strategy", ["mct", "aucrac"])
def test_a_task_that_takes_no_time_starts_before_it_finishes(strategy):
    result = run(replace(_ZERO_LENGTH, strategy=strategy))
    kinds, times = {}, {}  # task id -> its execution events' kinds in log order, and times
    largest = {}           # node id -> the largest mem started on it
    for ev in map(parse_event_line, result.log_lines):
        if ev.kind in ("exec_start", "exec_finish", "container_release") and ev.task_id:
            kinds.setdefault(ev.task_id, []).append(ev.kind)
            times.setdefault(ev.task_id, set()).add(ev.time)
        if ev.kind == "exec_start":
            mem = float(sim._detail_map(ev.detail)["mem"])
            largest[ev.node_id] = max(largest.get(ev.node_id, 0.0), mem)
    assert len(kinds) == result.metrics.tasks_arrived > 0
    assert all(len(at) == 1 for at in times.values())  # every task takes no time
    released = ["container_release"] if strategy == "aucrac" else []
    assert all(k == ["exec_start", "exec_finish", *released] for k in kinds.values()), kinds
    if strategy == "mct":  # a whole node's peak is the largest task it ran
        assert result.metrics.peak_memory_mb == tuple(largest.get(n.id, 0.0)
                                                      for n in result.nodes)


def test_profit_in_metrics_matches_a_log_recomputation():
    result = run(default_config(num_devices=10, strategy="aucrac", seed=3))
    paid = {}
    for ln in result.log_lines:
        ev = parse_event_line(ln)
        if ev.kind == "auction_round" and "payment=" in ev.detail:
            parts = dict(p.split("=", 1) for p in ev.detail.split(";") if "=" in p)
            paid[ev.task_id] = float(parts["payment"])
    finished = {parse_event_line(ln).task_id for ln in result.log_lines
                if ",exec_finish," in ln}
    by_id = {t.id: t for t in result.tasks}
    expected = sum(by_id[tid].data_in * 0.5 - paid[tid] for tid in finished)
    assert result.metrics.mn_profit == pytest.approx(expected, rel=1e-9)


# --- the fast engine against the reference engine -------------------------

@settings(max_examples=60, deadline=None)
@given(market())
def test_class_pricing_equals_the_per_node_ranking(drawn):
    config, nodes, tasks = drawn
    same_round(nodes, tasks, replace(config, strategy="aucrac"))


@pytest.mark.parametrize("strategy", ["aucrac", "auction_basic"])
@pytest.mark.parametrize("win_rule", ["lowest", "highest"])
def test_ranked_auction_picks_the_sealed_bid_winner(strategy, win_rule):
    config = default_config(num_devices=20, num_workers=6, strategy=strategy,
                            win_rule=win_rule)
    config = replace(config, workload=replace(config.workload, deadline_s=(1.0, 12.0)))
    # two identical twins tie on every ask; listing them out of id order
    # checks that ties go to the smaller id, not the earlier position
    twin = dict(cpu=5e9, memory=8192.0, power=200.0, unit_cost=1.0, time_const=5.0)
    nodes = [WorkerNode(id="wn005", **twin), WorkerNode(id="wn004", **twin),
             WorkerNode(id="wn000", cpu=2e9, memory=4096.0, power=100.0,
                        unit_cost=1.02, time_const=1.0),
             WorkerNode(id="wn001", cpu=1.2e10, memory=1024.0, power=400.0,
                        unit_cost=0.97, time_const=5.0)]
    # a busy container leaves three of the nodes so little free memory
    # that some placements fail on them
    for node, free in zip(nodes, (200.0, 300.0, 4096.0, 250.0)):
        if free < node.memory:
            ct.create_container(node, replace(_simple_task(cycles=1.0), memory=(
                node.memory - free - node.executor.lib_overhead_mb)))
    picks = same_round(nodes, list(generate_workload(config, new_rng(3))), config)
    assert None in picks and "wn004" in {pick[1] for pick in picks if pick}


# short TTL, short retries and one requeue: reaps, retries and failures
_SHORT_TTL = default_config(num_devices=150, num_workers=8, retry_interval_s=0.3,
                            executor=replace(default_config().executor, idle_ttl_s=0.5,
                                             max_requeues=1))


def _literal_configs():
    base = default_config(num_devices=60, auction_mode="literal")
    # unit_cost * delta underflows to 0 on every node: every ask is 0
    tiny = replace(base, weights=ResourceWeights(delta=1e-300), node_templates=tuple(
        replace(t, unit_cost=1e-300) for t in base.node_templates))
    for strategy in ("aucrac", "auction_basic"):
        for win_rule in ("lowest", "highest"):
            yield pytest.param(replace(base, strategy=strategy, win_rule=win_rule), "positive",
                               id=f"{strategy}-{win_rule}")
        yield pytest.param(replace(tiny, strategy=strategy), "zero", id=f"{strategy}-zero-asks")
        # a first template, infeasible by its cycles ratio, which overflows
        # for most tasks: 0 * inf gives its nodes NaN asks, while the other
        # templates keep positive ones and so a positive posted value. With
        # NaN asks from position 0 on, a max/min over (ask, position) picks
        # other nodes than the procedure's sort does.
        yield pytest.param(replace(tiny, strategy=strategy, node_templates=(
            NodeTemplate(cpu=1e-300, unit_cost=1e-300),) + base.node_templates), "nan_asks",
            id=f"{strategy}-nan-asks")
    yield pytest.param(replace(_SHORT_TTL, auction_mode="literal"), "positive",
                       id="aucrac-short-ttl")


@pytest.mark.parametrize("config, shows", _literal_configs())
def test_literal_round_picks_the_batch_procedures_node(config, shows):
    seen = same_run(config).seen
    assert seen[shows] > 0
    if shows == "zero":
        assert seen["positive"] == 0  # ties fall to the first position
    if shows == "nan_asks":
        assert seen["positive"] > 0


@pytest.mark.parametrize("config", [
    replace(_SHORT_TTL, auction_mode="literal"),
    replace(_SHORT_TTL, auction_mode="literal", strategy="auction_basic"),
    default_config(num_devices=60, num_workers=40, auction_mode="literal", win_rule="highest"),
    default_config(num_devices=3, strategy="auction_basic", auction_mode="literal",
                   node_templates=(NodeTemplate(cpu=1e-3),)),
], ids=["aucrac-short-ttl", "auction_basic-short-ttl", "aucrac-40-workers",
        "auction_basic-no-host"])
def test_a_literal_round_prices_no_node(monkeypatch, config):
    # the pick is fixed when the task is posted, from its class prices; a
    # round that priced every node again, or a posted value that no class
    # can host, would call valuation_unchecked
    calls = Counter()
    real = sim.valuation_unchecked

    def counted(*args):
        calls["valuation_unchecked"] += 1
        return real(*args)

    monkeypatch.setattr(sim, "valuation_unchecked", counted)
    results = Counter(sim._detail_map(parse_event_line(ln).detail)["result"]
                      for ln in run(config).log_lines if ",auction_round," in ln)
    assert results["assigned"] > 0
    assert results["retry"] > 0 or config.strategy == "auction_basic"  # a whole node never requeues
    assert calls == {}


@st.composite
def _run_configs(draw):
    """Either mode and win rule over up to 300 devices and 50 workers.
    Templates are one for all nodes, one per node, or a few with repeats,
    drawn from small pools; TTLs run short and max_requeues from 0 to 3."""
    workers = draw(st.integers(2, 50))
    rnd = draw(st.randoms(use_true_random=True))
    kinds = draw(st.sampled_from(["one", "per_node", "few"]))
    templates = [NodeTemplate(cpu=rnd.choice([1e9, 2e9, 5e9, 1.2e10]),
                              memory_mb=rnd.choice([300.0, 4096.0, 16384.0]),
                              power_w=rnd.choice([8.0, 200.0]),
                              unit_cost=rnd.choice([0.7, 1.0]),
                              time_const_s=rnd.choice([0.5, 5.0]),
                              executor_mode=rnd.choice(["container", "vm"]))
                 for _ in range({"one": 1, "per_node": workers, "few": rnd.randint(2, 5)}[kinds])]
    if kinds == "few":
        templates += rnd.sample(templates, rnd.randint(1, len(templates)))  # repeats
    executor = replace(default_config().executor,
                       idle_ttl_s=draw(st.sampled_from([0.2, 0.5, 4.0])),
                       max_requeues=draw(st.integers(0, 3)))
    return default_config(
        seed=draw(st.integers(0, 2**16)), num_devices=draw(st.integers(1, 300)),
        num_workers=workers,
        auction_mode=draw(st.sampled_from(["repaired", "literal"])),
        win_rule=draw(st.sampled_from(["lowest", "highest"])),
        retry_interval_s=draw(st.sampled_from([0.3, 2.0])),
        executor=executor, node_templates=tuple(templates))


# wn101 and wn1000 alone can host a task, and tie at a zero ask: past wn999
# the string order of node ids, which breaks the tie, leaves node order
_UNFIT = NodeTemplate(cpu=1e-3, unit_cost=1e-300)  # no task fits its cpu
_PAST_WN999 = default_config(
    num_devices=2, num_workers=1001, weights=ResourceWeights(delta=1e-300),
    node_templates=(_UNFIT,) * 101 + (NodeTemplate(unit_cost=1e-300),) + (_UNFIT,) * 797)


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=3, deadline=None)
@given(_run_configs())
@example(_SHORT_TTL)
@example(_PAST_WN999)
@example(_ZERO_LENGTH)
def test_the_fast_engine_runs_as_the_reference_engine(strategy, config):
    same_run(replace(config, strategy=strategy))


# mct's eta, (available_at - now) + execution_time, ties across classes whose
# time_const / cpu agree; and with nanosecond tasks running when a 1e17-cycle
# one arrives, it ties between busy and idle nodes of one class
_TIED_CLASSES = default_config(num_devices=30, num_workers=6, node_templates=(
    NodeTemplate(cpu=4e9, time_const_s=5.0), NodeTemplate(cpu=8e9, time_const_s=10.0)))
_NANO_AND_HUGE = default_config(num_devices=20, workload=replace(
    default_config().workload, arrival_rate_hz=1e9, mix_lit=0.5, mix_mit=0.0, mix_hit=0.5,
    lit_cycles=(1.0, 2.0), hit_cycles=(1e17, 2e17)))


@pytest.mark.parametrize("config, shows", [
    pytest.param(replace(_SHORT_TTL, strategy="mct"), "busy", id="mct-busy"),
    pytest.param(replace(_TIED_CLASSES, strategy="mct"), "class_tie", id="mct-class-tie"),
    pytest.param(replace(_NANO_AND_HUGE, strategy="mct"), "busy_tie", id="mct-busy-tie"),
    pytest.param(replace(_SHORT_TTL, strategy="greedy"), "all_busy", id="greedy-all-busy"),
    pytest.param(replace(_PAST_WN999, strategy="greedy"), "position_not_id",
                 id="greedy-past-wn999"),
])
def test_whole_node_picks_follow_assign(config, shows):
    assert same_run(config).seen[shows] > 0


@pytest.mark.parametrize("strategy", ["mct", "greedy"])
@settings(max_examples=150, deadline=None)
@given(whole_node_steps())
def test_queue_picks_equal_assign_at_every_tie(strategy, drawn):
    same_picks(*drawn, default_config(strategy=strategy))


@pytest.mark.parametrize("strategy, per_round", [("mct", 4), ("greedy", 1)])
def test_a_whole_node_round_does_the_same_work_at_100_and_1000_workers(monkeypatch, strategy,
                                                                       per_round):
    # mct prices each of the three default classes once; both commit with
    # one execution_time call and one read of the node's available_at
    calls = Counter()
    real = sim.execution_time

    def counted(node, task):
        calls["execution_time"] += 1
        return real(node, task)

    class Reads(dict):
        def get(self, *args):
            calls["available_at"] += 1
            return super().get(*args)

    monkeypatch.setattr(sim, "execution_time", counted)
    for workers in (100, 1000):
        calls.clear()
        engine = sim._Engine(default_config(num_devices=1000, num_workers=workers,
                                            strategy=strategy))
        engine.executor.available_at = Reads()
        rounds = sum(",auction_round," in ln for ln in engine.run().log_lines)
        assert rounds == 3000
        assert calls == {"execution_time": per_round * rounds, "available_at": rounds}


@pytest.mark.parametrize("templates", ["default", "one_per_node"])
@pytest.mark.parametrize("win_rule", ["lowest", "highest"])
def test_open_lists_follow_the_books_through_a_run(win_rule, templates):
    config = default_config(num_devices=300, num_workers=20, win_rule=win_rule)
    if templates == "one_per_node":
        config = replace(config, node_templates=tuple(
            NodeTemplate(cpu=2e9 + i * 5e8, memory_mb=4096.0, power_w=100.0)
            for i in range(20)))
    seen = same_run(config).seen
    # some nodes were closed, and rounds both placed and retried
    assert min(seen["closed"], seen["taken"], seen["retried"]) > 0


# a slice granule of an eighth of the slowest node's cpu: tasks of many sizes
# get slices of one size, and several share a node; equal task memories make
# equal containers, which only their ids order
_FINE_SLICES = default_config(num_devices=10, executor=replace(
    default_config().executor, slice_granularity=2.5e8))
_FINE_SLICES_EQUAL_MEMORY = replace(_FINE_SLICES, workload=replace(
    _FINE_SLICES.workload, memory_mb=(64.0, 64.0)))


@pytest.mark.parametrize("mode", AUCTION_MODES)
@pytest.mark.parametrize("config, shows", [
    pytest.param(_FINE_SLICES, ("reuse", "compute_tie", "create"), id="fine-slices"),
    pytest.param(_FINE_SLICES_EQUAL_MEMORY, ("id_tie",), id="fine-slices-equal-memory"),
])
def test_a_commit_places_as_select_container(mode, config, shows):
    seen = same_run(replace(config, strategy="aucrac", auction_mode=mode)).seen
    assert min(seen[case] for case in shows) > 0, seen
    # a repaired round offers a task only to nodes where can_place holds
    assert (seen["requeue"] > 0) == (mode == "literal"), seen


@st.composite
def _pool_and_task(draw):
    # computes in granules and a few memories, so picks tie on compute and on
    # memory; ids out of pool order; exec times exactly at td_max
    executor = replace(default_config().executor, slice_granularity=1e9)
    node = WorkerNode(id="wn0", cpu=draw(st.sampled_from([2e9, 4e9, 8e9])),
                      memory=draw(st.sampled_from([300.0, 600.0, 1200.0])), power=100.0,
                      unit_cost=1.0, time_const=5.0, executor=executor)
    slots = draw(st.lists(st.tuples(st.sampled_from([84.0, 120.0, 300.0]), st.integers(1, 4),
                                    st.booleans()), max_size=8))
    for k, (memory, granules, busy) in zip(draw(st.permutations(range(len(slots)))), slots):
        if memory <= node.free_memory and granules * 1e9 <= node.free_compute:
            c = Container(id=f"wn0-c{k:04d}", node_id="wn0", memory=memory,
                          compute=granules * 1e9, lib_overhead=20.0)
            node.container_pool.append(c)
            node.free_memory -= memory
            node.free_compute -= c.compute
            if busy:
                c.mark_busy()
    task = Task(id="t0", data_in=1.0, data_out=0.5, power=5.0, deadline=10.0,
                cycles=draw(st.sampled_from([1e9, 2e9, 3e9, 4e9])),
                memory=draw(st.sampled_from([64.0, 84.0, 100.0, 120.0])),
                td_max=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])))
    return node, task


@settings(max_examples=300, deadline=None)
@given(_pool_and_task())
def test_a_commit_picks_what_select_container_picks(drawn):
    node, task = drawn
    decision = ct.select_container(node, task)
    commits = []
    for on, engine in ((node, sim._Engine), (copy.deepcopy(node), ReferenceEngine)):
        executor = over([on], engine)(default_config(executor=on.executor)).executor
        start = executor.commit(0.0, task, on)
        entry = executor.pending.get(task.id)
        if entry is not None:  # the held container, by its place in its own pool
            entry = (*entry[:-1], on.container_pool.index(entry[-1]))
        commits.append((start, entry, [(c.id, c.state) for c in on.container_pool]))
    assert commits[0] == commits[1]
    start, entry, _ = commits[0]
    if decision.action == "reuse":
        assert entry[1] == decision.container_id and entry[4] == 0
    elif decision.action == "create":
        assert entry is None or entry[4] == 1
    else:
        assert start is None


# --- the event heap -------------------------------------------------------

def _heap_configs():
    base = default_config(num_devices=40)
    for strategy in ("aucrac", "random", "round_robin", "greedy", "mct", "auction_basic"):
        yield replace(base, strategy=strategy)
    for strategy in ("aucrac", "auction_basic"):
        yield replace(base, strategy=strategy, auction_mode="literal")
        yield replace(_SHORT_TTL, strategy=strategy)


def test_no_two_pending_events_share_time_rank_and_task(monkeypatch):
    # an entry carries nothing but (time, rank, task id), so the order of
    # dispatch is fully defined only if no two pending entries are equal
    pending = set()

    def push(heap, entry):
        assert entry not in pending, f"duplicate pending event {entry!r}"
        pending.add(entry)
        heapq.heappush(heap, entry)

    def pop(heap):
        entry = heapq.heappop(heap)
        pending.remove(entry)
        return entry

    monkeypatch.setattr(sim, "heapq", SimpleNamespace(heappush=push, heappop=pop))
    lines = []
    for config in _heap_configs():
        pending.clear()
        lines.extend(run(config).log_lines)
    assert any("result=failed_to_place" in ln for ln in lines)
    assert any("destroyed=1" in ln for ln in lines)
    assert any(",container_release," in ln and "from=busy" in ln for ln in lines)


def _retry_meets_arrival():
    # no node can host a task, so every auction round retries: one retry
    # interval after its arrival, t00000 retries exactly when t00001 arrives
    config = default_config(num_devices=3, node_templates=(_UNFIT,))
    first, second = generate_workload(config, new_rng(config.seed).fork(2))[:2]
    interval = second.arrival_time - first.arrival_time
    assert first.arrival_time + interval == second.arrival_time
    return replace(config, retry_interval_s=interval)


# every gap is -log(1 - u) / inf = 0, so all arrivals and first rounds are at t=0
_ALL_AT_ZERO = default_config(num_devices=20, workload=replace(
    default_config().workload, arrival_rate_hz=1e308))
# two nodes, each busy for seconds per task, and eight arrivals a second
_WAITING_START = default_config(num_devices=20, num_workers=2)
_RETRY_MEETS_ARRIVAL = _retry_meets_arrival()


def test_a_handoff_due_later_waits_in_the_heap():
    # with nothing pending, a START after now would still be the next event,
    # but running it at once would step past the horizon check
    engine = sim._Engine(default_config(strategy="mct"))
    engine._hand_off(0.0, (1.0, sim.START, "t00000"))
    assert engine.heap == [(1.0, sim.START, "t00000")]


_AUCTIONS = ("aucrac", "auction_basic")
_WHOLE_NODE = ("random", "round_robin", "greedy", "mct", "auction_basic")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("config, reached", [
    # another arrival or round is always pending at t=0
    pytest.param(_ALL_AT_ZERO, {"round_behind": STRATEGIES, "start_behind": STRATEGIES,
                                "round_inline": ()}, id="all-at-zero"),
    # a container starts at its commit; a whole node once its last task is done
    pytest.param(_WAITING_START, {"start_later": _WHOLE_NODE, "round_inline": STRATEGIES,
                                  "start_inline": STRATEGIES}, id="waiting-start"),
    # only an auction round retries, and no two arrivals share an instant
    pytest.param(_RETRY_MEETS_ARRIVAL, {"round_behind": _AUCTIONS, "round_inline": STRATEGIES},
                 id="retry-meets-arrival"),
])
def test_same_instant_handoffs_run_as_the_reference_engine(config, reached, strategy):
    # the fast engine runs a task's ROUND or START at once when it is due now
    # and nothing pending sorts before it; the reference pushes every one
    seen = same_run(replace(config, strategy=strategy)).seen
    for branch, strategies in reached.items():
        assert (seen[branch] > 0) == (strategy in strategies), (branch, seen[branch])


# every task arrives at t=0 with the same cycles and td_max, so each takes the
# same slice, and the tasks started at one instant finish at one instant
_TWIN_FINISHES = replace(_ALL_AT_ZERO, num_devices=3, strategy="aucrac", workload=replace(
    _ALL_AT_ZERO.workload, lit_cycles=(1e9, 1e9), mit_cycles=(1e9, 1e9), hit_cycles=(1e9, 1e9),
    td_max_s=(2.0, 2.0)))


def test_each_container_release_follows_its_own_finish():
    events = list(map(parse_event_line, run(_TWIN_FINISHES).log_lines))
    finishes = [i for i, ev in enumerate(events) if ev.kind == "exec_finish"]
    assert len({events[i].time for i in finishes}) < len(finishes) == 9
    released = [i for i, ev in enumerate(events) if "from=busy" in ev.detail]
    assert released == [i + 1 for i in finishes]
    for i in finishes:
        assert (events[i + 1].time, events[i + 1].task_id) == (events[i].time, events[i].task_id)
    same_run(_TWIN_FINISHES)


# --- the books check ------------------------------------------------------

_AT_1E11 = default_config(num_devices=20, node_templates=(NodeTemplate(memory_mb=1e11),))


@pytest.mark.parametrize("owner, name", [(ct, "create_container"), (Container, "mark_free"),
                                         (ct, "reap_idle")],
                         ids=["create_container", "mark_free", "reap_idle"])
def test_books_check_trips_on_the_event_that_corrupts_a_node(monkeypatch, owner, name):
    # a release frees its container through mark_free, which both engines call
    real = getattr(owner, name)

    def corrupting(held, *args):  # a node, or the container a release frees
        out = real(held, *args)
        if isinstance(held, Container):  # the pool now holds more than its node lent
            held.memory += 1e-6 * _AT_1E11.node_templates[0].memory_mb
        elif out:  # an empty reap leaves the node untouched
            held.free_memory -= 1e-6 * held.memory
        return out

    monkeypatch.setattr(owner, name, corrupting)
    # the reference engine checks every node after every event
    with pytest.raises(StateError, match=r"container memory books disagree at t=\d"):
        same_run(_AT_1E11)


@pytest.mark.parametrize("config", [
    *(default_config(num_devices=300, num_workers=20, node_templates=(NodeTemplate(memory_mb=m),),
                     executor=replace(default_config().executor, idle_ttl_s=0.5))
      for m in (1e10, 1e11, 1e15)),
    _AT_1E11,
    # one container takes all of a node's memory and compute
    default_config(workload=replace(default_config().workload, memory_mb=(64.0, 64.0)),
                   node_templates=(NodeTemplate(cpu=2e9, memory_mb=84.0),)),
], ids=["1e10", "1e11", "1e15", "1e11-few-devices", "one-container"])
def test_books_hold_at_any_node_capacity(config):
    assert any("destroyed=1" in ln for ln in run(config).log_lines)


def test_end_of_run_scan_catches_a_node_no_event_touches():
    engine = sim._Engine(default_config(strategy="round_robin", seed=0))
    engine.nodes[-1].free_memory -= 1.0
    # whole-node strategies never touch a node's container books
    with pytest.raises(StateError, match="wn009: container memory books disagree "
                                         "at the end of the run"):
        engine.run()


def test_reaping_follows_the_idle_ttl_boundary_of_reap_idle():
    engine = sim._Engine(default_config(strategy="aucrac"))
    node = engine.nodes[2]
    container = ct.create_container(node, _simple_task())
    engine.pending_exec["tx"] = (node.id, container.id, container.compute,
                                 container.memory, 1, 1.0, container)
    engine.executor.release(1.0, "tx")
    ttl = node.executor.idle_ttl_s
    engine.executor.reap(1.0 + ttl - 1e-9)
    assert node.container_pool == [container]
    # idle for exactly one TTL: reap_idle destroys it, so the engine must ask
    engine.executor.reap(1.0 + ttl)
    assert node.container_pool == []
    lines = sim.SimResult(metrics=None, log_lines=engine.log, tasks=(), nodes=()).log_lines
    reaped = parse_event_line(lines[-1])
    assert (reaped.kind, reaped.node_id, reaped.container_id) == ("container_release", node.id,
                                                                  container.id)
    assert reaped.detail.endswith("from=free;destroyed=1")


# --- posted values and payments -------------------------------------------

@pytest.mark.parametrize("win_rule", ["lowest", "highest"])
@pytest.mark.parametrize("seed", [0, 7])
def test_the_valued_task_equals_a_validated_copy(win_rule, seed):
    config = default_config(num_devices=20, seed=seed, win_rule=win_rule)
    engine = sim._Engine(config)
    for task in generate_workload(config, new_rng(seed)):
        valued = engine.market.price(task)
        assert valued == replace(task, value=valued.value)
        assert repr(valued) == repr(replace(task, value=valued.value))


_OVERFLOWING_PRICES = dict(num_devices=2, weights=ResourceWeights(delta=1e300),
                           node_templates=(NodeTemplate(unit_cost=1e300),))


def test_an_overflowing_posted_value_is_rejected():
    with pytest.raises(ConstraintError, match="task.value"):
        run(default_config(strategy="aucrac", **_OVERFLOWING_PRICES))


def test_an_overflowing_payment_is_rejected():
    with pytest.raises(ConstraintError, match="outcome.payment"):
        run(default_config(strategy="mct", **_OVERFLOWING_PRICES))


# --- workloads shared across a sweep ----------------------------------------

@st.composite
def _workload_configs(draw):
    # any valid workload, some ranges a single point, at seeds Rng masks alike
    def span():
        lo = draw(st.floats(min_value=1e-3, max_value=1e9))
        return lo, lo if draw(st.booleans()) else lo * draw(st.floats(1.0, 1e3))

    mix = draw(st.sampled_from([(0.4, 0.3, 0.3), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5)]))
    workload = WorkloadSpec(
        arrival_rate_hz=draw(st.floats(min_value=1e-3, max_value=1e3)),
        tasks_per_device=draw(st.integers(min_value=0, max_value=4)),
        mix_lit=mix[0], mix_mit=mix[1], mix_hit=mix[2],
        lit_cycles=span(), mit_cycles=span(), hit_cycles=span(), memory_mb=span(),
        power_w=span(), data_in_mb=span(), data_out_mb=span(), deadline_s=span(),
        td_max_s=span())
    seed = draw(st.integers(min_value=-(2**70), max_value=2**70)
                | st.sampled_from([0, -1, 2**64 - 1, 2**64, -(2**64)]))
    return default_config(seed=seed, num_devices=draw(st.integers(min_value=0, max_value=6)),
                          workload=workload)


@settings(max_examples=100, deadline=None)
@given(_workload_configs(), st.integers(min_value=1, max_value=3))
@example(default_config(num_devices=0), 2)
def test_a_shared_workload_is_the_generated_one_field_for_field(config, runs):
    want = generate_workload(config, new_rng(config.seed).fork(2))
    # the key's other runs: another strategy, worker count, and a seed Rng masks alike
    alias = replace(config, strategy="mct", num_workers=3, seed=config.seed - 2**64)
    configs = [config] * runs + [alias]
    with sim.shared_workloads():
        for i, cfg in enumerate(configs):  # each draws as the engine does
            # every run after the first finds the draws the first one stored
            assert ((config.seed & MASK64) in sim._shared) == (i > 0)
            got = sim._workload(cfg, new_rng(cfg.seed).fork(2))
            assert got == want
            assert list(map(repr, got)) == list(map(repr, want))
        assert list(sim._shared) == [config.seed & MASK64]
    assert sim._shared is None


def test_every_later_run_of_a_key_gets_the_tuple_its_first_run_drew():
    config = default_config(num_devices=4)
    key = sim._workload_key(config)
    configs = [config, replace(config, strategy="mct"), replace(config, num_workers=3)]
    with sim.shared_workloads():
        first = sim._workload(config, new_rng(config.seed).fork(2))
        for cfg in configs[1:]:
            assert sim._shared[key[0]] == (key, first)
            assert sim._workload(cfg, new_rng(cfg.seed).fork(2)) is first
        assert sim._shared[key[0]][1] is first


def test_a_shared_run_equals_the_unshared_one():
    config = default_config(num_devices=8, strategy="aucrac")
    alone = run(config)
    with sim.shared_workloads():
        run(replace(config, strategy="mct"))
        shared = run(config)
    assert shared.log_lines == alone.log_lines
    assert shared.metrics == alone.metrics


def test_a_run_of_another_key_at_the_same_seed_draws_its_own_and_takes_the_seed():
    kept = default_config(num_devices=4)
    other = replace(kept, num_devices=3)
    want = generate_workload(other, new_rng(other.seed).fork(2))
    with sim.shared_workloads():
        first = sim._workload(kept, new_rng(kept.seed).fork(2))  # stores the seed's draws
        got = sim._workload(other, new_rng(other.seed).fork(2))
        assert got is not first
        assert got == want
        assert list(map(repr, got)) == list(map(repr, want))
        assert sim._shared == {kept.seed & MASK64: (sim._workload_key(other), got)}
        # the first key is no longer kept: its next run draws again
        again = sim._workload(kept, new_rng(kept.seed).fork(2))
        assert again is not first and again == first
    assert sim._shared is None


def test_a_draw_that_raises_stores_nothing_for_its_key():
    config = default_config(num_devices=2, workload=WorkloadSpec(arrival_rate_hz=5e-324))
    with sim.shared_workloads():
        for _ in range(2):  # each run draws again, and fails as an unshared run does
            with pytest.raises(ConstraintError, match="^task.arrival_time: "):
                run(config)
            assert sim._shared == {}
    assert sim._shared is None
