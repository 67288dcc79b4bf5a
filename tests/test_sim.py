"""Event engine behavior: strategies, determinism, logs, and metrics."""

import heapq
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aucrac.containers as ct
import aucrac.sim as sim
from aucrac.auction import run_sealed_auction
from aucrac.core import (Bid, NodeTemplate, ResourceWeights, SimConfig, Task, WorkerNode,
                         default_config, generate_workload)
from aucrac.costmodel import (deadline_eligibility, execution_time, price_and_sum, valuation,
                              valuation_unchecked)
from aucrac.errors import (ConstraintError, InfeasibleError, InputError, PlacementRejected,
                           StateError)
from aucrac.rng import new_rng
from aucrac.sim import (SimEvent, SimState, _percentile, assign, jain_fairness, left_sum,
                        first_taker, mn_profit, parse_event_line, rank_bidders, run,
                        run_task_auction, utilization_series)
from aucrac.core import AuctionOutcome


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
    state = SimState(config=default_config(num_workers=2))
    nodes = _hand_nodes()
    rng = new_rng(0)
    picks = [assign("round_robin", _simple_task(), nodes, rng, state) for _ in range(4)]
    assert picks == ["wn000", "wn001", "wn000", "wn001"]


def test_mct_prefers_the_earliest_finish():
    state = SimState(config=default_config(num_workers=2))
    nodes = _hand_nodes()
    # both idle: the faster cpu finishes first
    assert assign("mct", _simple_task(), nodes, new_rng(0), state) == "wn001"
    # pile 100 s of queue on the fast node and the slow one wins
    state.available_at["wn001"] = 100.0
    assert assign("mct", _simple_task(), nodes, new_rng(0), state) == "wn000"


def test_greedy_takes_the_biggest_free_node():
    state = SimState(config=default_config(num_workers=2))
    nodes = _hand_nodes()
    assert assign("greedy", _simple_task(), nodes, new_rng(0), state) == "wn001"
    # a busy big node loses to a free small one
    state.now = 0.0
    state.available_at["wn001"] = 5.0
    assert assign("greedy", _simple_task(), nodes, new_rng(0), state) == "wn000"


def test_random_assignment_is_seed_deterministic():
    nodes = _hand_nodes()
    picks_a = [assign("random", _simple_task(), nodes, new_rng(7),
                      SimState(config=default_config())) for _ in range(1)]
    picks_b = [assign("random", _simple_task(), nodes, new_rng(7),
                      SimState(config=default_config())) for _ in range(1)]
    assert picks_a == picks_b


def test_unknown_strategy_is_rejected():
    with pytest.raises(InputError):
        assign("astrology", _simple_task(), _hand_nodes(), new_rng(0),
               SimState(config=default_config()))


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
    assert list(lines) == [SimEvent(*record).line() for record in engine.log]
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


def test_container_log_replay_matches_recorded_peaks():
    result = run(default_config(num_devices=10, strategy="aucrac", seed=0))
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
    result = run(default_config(num_devices=10, strategy="mct", seed=0))
    series = utilization_series(result.log_lines)
    peaks = dict(zip((n.id for n in result.nodes), result.metrics.peak_memory_mb))
    for node_id, samples in series.items():
        assert max(mem for _, _, mem in samples) == pytest.approx(peaks[node_id], abs=1e-6)


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


# --- the bidder ranking against sealed-bid resolution ---------------------

def _sealed_reference(task, nodes, config, now):
    # every node prices the task and bids; run_sealed_auction resolves
    bids = []
    for node in nodes:
        try:
            amount = valuation(node, task, config.weights, config.bid_margin)
        except InfeasibleError:
            continue
        if config.strategy == "aucrac" and not ct.can_place(node, task):
            continue
        bids.append(Bid(node_id=node.id, task_id=task.id, amount=amount,
                        submit_time=now, eligible=deadline_eligibility(node, task)))
    if not bids:
        return None
    return run_sealed_auction(task, bids, config.win_rule)


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
    # low free memory makes some placements fail on three of the nodes
    for node, free in zip(nodes, (200.0, 300.0, 4096.0, 250.0)):
        node.free_memory = free
    seen = set()
    for task in generate_workload(config, new_rng(3)):
        got = run_task_auction(task, nodes, config, 1.0)
        want = _sealed_reference(task, nodes, config, 1.0)
        if want is None:
            assert got is None
            seen.add("nobody bid")
        else:
            assert (got.winner, got.payment) == (want.winner, want.payment)
            seen.add(want.winner)
    assert {None, "wn004"} <= seen
    assert ("nobody bid" in seen) == (strategy == "aucrac")


# --- per-class pricing against the per-node definition --------------------

def _engine_over(nodes, config):
    # an engine whose class index is built over the given nodes
    return type("GivenNodes", (sim._Engine,), {"_build_nodes": lambda self: nodes})(config)


def _open_ranks(cls):
    # the definition: a free container, or room for the smallest slice
    return [r for r, (_, _, node) in enumerate(cls.members)
            if any(c.state == "free" for c in node.container_pool)
            or node.free_compute >= node.executor.slice_granularity]


@st.composite
def _class_market(draw):
    """A config, its nodes and tasks. The templates are one for all nodes,
    one per node, or a few with repeats. Templates draw their capacities
    from a pool of at most three and differ in time_const, and unit costs
    come from a pool of at most three, so that asks tie both inside a
    class and across classes. Some nodes hold a partly filled pool of
    busy and free containers."""
    win_rule = draw(st.sampled_from(["lowest", "highest"]))
    config = default_config(win_rule=win_rule, bid_margin=draw(st.sampled_from([0.0, 0.1, 2.5])))
    n = draw(st.sampled_from([2, 9, 1100]) | st.integers(2, 40))
    rnd = draw(st.randoms(use_true_random=False))
    kinds = draw(st.sampled_from(["one", "per_node", "few"]))
    count = {"one": 1, "per_node": n, "few": rnd.randint(2, 6)}[kinds]
    capacities = [(rnd.choice([1e9, 2e9, 5e9, 1.2e10]), rnd.choice([300.0, 4096.0, 16384.0]),
                   rnd.choice([8.0, 200.0])) for _ in range(rnd.randint(1, 3))]
    templates = [(*rnd.choice(capacities), rnd.choice([0.5, 5.0]) * (1 + i * 1e-4))
                 for i in range(count)]
    if kinds == "few":
        templates += rnd.sample(templates, rnd.randint(0, len(templates)))  # repeats
    costs = [rnd.choice([0.7, 1.0, 1.3]) for _ in range(rnd.randint(1, 3))]
    ids = [f"wn{i:03d}" for i in range(n)]
    rnd.shuffle(ids)
    nodes = []
    for i, node_id in enumerate(ids):
        cpu, memory, power, time_const = templates[i % len(templates)]
        node = WorkerNode(id=node_id, cpu=cpu, memory=memory, power=power,
                          unit_cost=rnd.choice(costs), time_const=time_const,
                          executor=config.executor)
        for _ in range(rnd.choice([0, 0, 1, 3])):
            filler = Task(id="f", data_in=1.0, data_out=0.5, cycles=rnd.uniform(1e8, 2e10),
                          memory=rnd.uniform(10.0, 2000.0), power=1.0, deadline=10.0,
                          td_max=rnd.uniform(2.0, 4.0))
            try:
                container = ct.create_container(node, filler)
            except PlacementRejected:
                continue
            if rnd.random() < 0.5:
                ct.release_container(node, container.id)
        nodes.append(node)
    tasks = generate_workload(replace(config, num_devices=3), new_rng(rnd.randint(0, 99)))
    return config, nodes, tasks


@settings(max_examples=60, deadline=None)
@given(_class_market())
def test_class_pricing_equals_the_per_node_ranking(market):
    config, nodes, tasks = market
    for strategy in ("aucrac", "auction_basic"):
        config = replace(config, strategy=strategy)
        engine = _engine_over(nodes, config)
        for cls in engine.classes:
            assert cls.open == _open_ranks(cls)
        for task in tasks:
            hosts, _, total = price_and_sum(task, nodes, config.weights, config.bid_margin,
                                            engine.sign)
            if not hosts:
                total = left_sum(valuation_unchecked(node, task, config.weights,
                                                     config.bid_margin) for node in nodes)
            assert engine._fill_value(task).value == total / (len(hosts) or len(nodes))
            want = first_taker(rank_bidders(task, nodes, config)[1], task, strategy)
            assert engine._take(task) == want


class _CheckedEngine(sim._Engine):
    """Checks every open list after every event, and each round's pick
    against the per-node ranking of the same moment."""

    def _check_invariants(self, now):
        super()._check_invariants(now)
        for cls in self.classes:
            assert cls.open == _open_ranks(cls)
            self.seen["closed"] += len(cls.members) - len(cls.open)

    def _take(self, task):
        got = super()._take(task)
        ranking = rank_bidders(task, self.nodes, self.config)[1]
        assert got == first_taker(ranking, task, self.config.strategy)
        self.seen["taken" if got else "retried"] += 1
        return got


@pytest.mark.parametrize("templates", ["default", "one_per_node"])
@pytest.mark.parametrize("win_rule", ["lowest", "highest"])
def test_open_lists_follow_the_books_through_a_run(win_rule, templates):
    config = default_config(num_devices=300, num_workers=20, win_rule=win_rule)
    if templates == "one_per_node":
        config = replace(config, node_templates=tuple(
            NodeTemplate(cpu=2e9 + i * 5e8, memory_mb=4096.0, power_w=100.0)
            for i in range(20)))
    engine = _CheckedEngine(config)
    engine.seen = {"closed": 0, "taken": 0, "retried": 0}
    result = engine.run()
    assert result.log_lines == run(config).log_lines
    # some nodes were closed, and rounds both placed and retried
    assert min(engine.seen.values()) > 0


# --- the event heap -------------------------------------------------------

def _heap_configs():
    base = default_config(num_devices=40)
    for strategy in ("aucrac", "random", "round_robin", "greedy", "mct", "auction_basic"):
        yield replace(base, strategy=strategy)
    for strategy in ("aucrac", "auction_basic"):
        yield replace(base, strategy=strategy, auction_mode="literal")
        # short TTL, short retries and one requeue: reaps, retries and failures
        yield replace(base, strategy=strategy, num_devices=150, num_workers=8,
                      retry_interval_s=0.3,
                      executor=replace(base.executor, idle_ttl_s=0.5, max_requeues=1))


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


# --- the books check ------------------------------------------------------

# the event time each corrupting call reveals: release and reap are passed
# it, and the first create happens in the first round of the task it places
EVENT_TIME = {
    "create_container": lambda task: task.arrival_time,
    "release_container": lambda container_id, now: now,
    "reap_idle": lambda now: now,
}


@pytest.mark.parametrize("name", sorted(EVENT_TIME))
def test_books_check_trips_on_the_event_that_corrupts_a_node(monkeypatch, name):
    real = getattr(ct, name)
    corrupted = []

    def corrupting(node, *args):
        out = real(node, *args)
        if out and not corrupted:  # an empty reap leaves the node untouched
            node.free_memory -= 1.0
            corrupted.append((node.id, EVENT_TIME[name](*args)))
        return out

    monkeypatch.setattr(ct, name, corrupting)
    with pytest.raises(StateError) as err:
        run(default_config(strategy="aucrac", seed=0))
    node_id, when = corrupted[0]
    assert str(err.value) == f"node {node_id}: container memory books disagree at t={when!r}"


def test_end_of_run_scan_catches_a_node_no_event_touches(monkeypatch):
    build = sim._Engine._build_nodes

    def corrupting(engine):
        nodes = build(engine)
        nodes[-1].free_memory -= 1.0
        return nodes

    monkeypatch.setattr(sim._Engine, "_build_nodes", corrupting)
    # whole-node strategies never touch a node's container books
    with pytest.raises(StateError, match="wn009: container memory books disagree "
                                         "at the end of the run"):
        run(default_config(strategy="round_robin", seed=0))


def test_reaping_follows_the_idle_ttl_boundary_of_reap_idle():
    engine = sim._Engine(default_config(strategy="aucrac"))
    node = engine.nodes[2]
    container = ct.create_container(node, _simple_task())
    engine.pending_exec["tx"] = (node.id, container.id, container.compute,
                                 container.memory, 1)
    engine._handle_release(1.0, "tx")
    ttl = node.executor.idle_ttl_s
    engine._reap(1.0 + ttl - 1e-9)
    assert node.container_pool == [container]
    # idle for exactly one TTL: reap_idle destroys it, so the engine must ask
    engine._reap(1.0 + ttl)
    assert node.container_pool == []
    # a raw log record is (time, kind, task id, node id, container id, detail)
    assert engine.log[-1][1] == "container_release"
    assert engine.log[-1][5].endswith("from=free;destroyed=1")


# --- posted values and payments -------------------------------------------

@pytest.mark.parametrize("win_rule", ["lowest", "highest"])
@pytest.mark.parametrize("seed", [0, 7])
def test_the_valued_task_equals_a_validated_copy(win_rule, seed):
    config = default_config(num_devices=20, seed=seed, win_rule=win_rule)
    engine = sim._Engine(config)
    for task in generate_workload(config, new_rng(seed)):
        valued = engine._fill_value(task)
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
