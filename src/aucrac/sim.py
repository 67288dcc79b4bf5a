"""Deterministic discrete-event simulation of one offloading run.

Six assignment strategies share one engine. The container-aware strategy
places work into compute slices and runs tasks on a node concurrently;
every other strategy executes whole-node, one task at a time, FIFO.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace

from . import containers as ct
# The benchmark's tracer (perfbench/tracer.py) looks these names up on this
# module when it installs and fails if one is missing: valuation,
# valuation_unchecked, deadline_eligibility, execution_time,
# run_sealed_auction, run_task_auction, assign, generate_workload and
# new_rng. So they stay importable here even where the engine does not call
# them: price_and_sum prices a task with the arithmetic of valuation and
# deadline_eligibility, and rank_bidders reproduces run_sealed_auction's order.
from .auction import allocate_tasks_literal, mn_revenue, run_sealed_auction  # noqa: F401
from .core import (AuctionOutcome, MetricsRecord, SimConfig, Task, WorkerNode,
                   _trusted_task, generate_workload)
from .costmodel import (deadline_eligibility, execution_time, price_and_sum,  # noqa: F401
                        price_hosts, valuation, valuation_unchecked)
from .errors import InputError, PlacementRejected, StateError
from .rng import Rng, new_rng

# A heap entry is (time, rank, task id); at one instant events run in rank
# order, then by task id. Capacity leaves before it is retaken: finishes and
# releases resolve ahead of the starts scheduled for the same time.
ARRIVAL, ROUND, FINISH, RELEASE, START = range(5)

# one log line from (time, kind, task id, node id, container id, detail)
_LINE = "%r,%s,%s,%s,%s,%s"


@dataclass(frozen=True)
class SimEvent:
    """One log record. Everything the run did is reconstructable from these."""

    time: float
    kind: str
    task_id: str = ""
    node_id: str = ""
    container_id: str = ""
    detail: str = ""

    def line(self) -> str:
        return _LINE % (self.time, self.kind, self.task_id, self.node_id,
                        self.container_id, self.detail)


def parse_event_line(line: str) -> SimEvent:
    parts = line.split(",", 5)
    if len(parts) != 6:
        raise InputError(f"malformed event line: {line!r}")
    return SimEvent(time=float(parts[0]), kind=parts[1], task_id=parts[2],
                    node_id=parts[3], container_id=parts[4], detail=parts[5])


def _detail_map(detail: str) -> dict:
    out = {}
    for chunk in detail.split(";"):
        if "=" in chunk:
            key, val = chunk.split("=", 1)
            out[key] = val
    return out


def left_sum(values) -> float:
    """Add floats left to right, one rounding per step.

    Python 3.12's sum() compensates float rounding and 3.10/3.11's does
    not, so every float total that reaches an output is folded here to
    give the same bytes on every supported version.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def jain_fairness(counts) -> float:
    """(sum x)^2 / (n * sum x^2); a fully even split scores 1, a single
    hot spot scores 1/n. An all-zero vector counts as perfectly fair."""
    counts = list(counts)
    if not counts:
        raise InputError("counts must be non-empty")
    total = sum(counts)
    if total == 0:
        return 1.0
    square_sum = sum(c * c for c in counts)
    return (total * total) / (len(counts) * square_sum)


def _percentile(sorted_values, q: float) -> float:
    # nearest-rank on an already sorted list
    if not sorted_values:
        return 0.0
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def mn_profit(outcomes, tasks, unit_price: float) -> float:
    """Manager profit: revenue charged per task minus what the winner was paid.

    Outcomes without a winner contribute nothing.
    """
    by_id = {t.id: t for t in tasks}
    profit = 0.0
    for outcome in outcomes:
        if outcome.winner is None:
            continue
        profit += mn_revenue(by_id[outcome.task_id], unit_price) - outcome.payment
    return profit


@dataclass
class SimState:
    """Mutable assignment-time context shared by the strategies."""

    config: SimConfig
    now: float = 0.0
    rr_next: int = 0
    available_at: dict = field(default_factory=dict)


def rank_bidders(task: Task, nodes, config: SimConfig) -> tuple:
    """Price the task on every node once; return (hosts, ranking).

    `hosts` holds (ask, node) for each node whose capacity strictly
    dominates the task demand, in node order. `ranking` holds the hosts
    that also finish inside the deadline, best first under the win rule
    and ties to the smaller node id: the order in which
    run_sealed_auction resolves bids that share a submit time. An ask and
    its eligibility depend only on the task and the node's fixed
    capacities, so one ranking serves every round of the task.
    """
    sign = 1.0 if config.win_rule == "lowest" else -1.0
    hosts, eligible = price_hosts(task, nodes, config.weights, config.bid_margin, sign)
    return hosts, _ranking(eligible)


def _ranking(eligible) -> list:
    # eligible entries start with (sign * ask, node id, position)
    eligible.sort()
    return [(ask, node) for _, _, _, ask, node in eligible]


def first_taker(ranking, task: Task, strategy: str):
    """The first (ask, node) of the ranking that takes the task now, or None.

    A whole-node auction takes the head, since its winner queues the
    task. The container-aware strategy walks on to the first node that
    can place the task right now.
    """
    if strategy != "aucrac":
        return ranking[0] if ranking else None
    for ask, node in ranking:
        if ct.can_place(node, task):
            return ask, node
    return None


def run_task_auction(task: Task, nodes, config: SimConfig, now: float) -> AuctionOutcome | None:
    """Collect sealed bids for one task and resolve them.

    Nodes whose capacity does not strictly dominate the task demand do
    not bid. Under the container-aware strategy, nodes that could not
    place the task right now also abstain. Returns None when nobody bid,
    and an outcome without a winner when every bidder misses the
    deadline. All bids of a round are submitted at `now`, so the time
    never breaks a tie.
    """
    hosts, ranking = rank_bidders(task, nodes, config)
    pick = first_taker(ranking, task, config.strategy)
    if pick is not None:
        return AuctionOutcome(task_id=task.id, winner=pick[1].id, payment=pick[0])
    if first_taker(hosts, task, config.strategy) is None:
        return None
    return AuctionOutcome(task_id=task.id, winner=None, payment=0.0)


def assign(strategy: str, task: Task, nodes, rng: Rng, state: SimState) -> str | None:
    """Pick the executing node for one task. None means nobody can take it now."""
    if strategy == "random":
        return rng.choice(list(nodes)).id
    if strategy == "round_robin":
        node = nodes[state.rr_next % len(nodes)]
        state.rr_next += 1
        return node.id
    if strategy == "greedy":
        # most free compute right now; a node mid-execution counts as fully
        # committed, and capacity breaks ties when everything is busy
        def free(node):
            busy = state.available_at.get(node.id, 0.0) > state.now
            return (0.0 if busy else node.cpu, node.cpu)
        return max(nodes, key=free).id
    if strategy == "mct":
        def eta(node):
            wait = max(0.0, state.available_at.get(node.id, 0.0) - state.now)
            return wait + execution_time(node, task)
        return min(nodes, key=lambda n: (eta(n), n.id)).id
    if strategy in ("aucrac", "auction_basic"):
        outcome = run_task_auction(task, nodes, state.config, state.now)
        return outcome.winner if outcome is not None else None
    raise InputError(f"unknown strategy {strategy!r}")


def _check_books(nodes, when: str):
    """Each node's container pool must account for exactly the memory it holds."""
    for node in nodes:
        if abs(node.live_memory() - (node.memory - node.free_memory)) > 1e-6:
            raise StateError(f"node {node.id}: container memory books disagree {when}")
        if node.free_memory < -1e-9 or node.free_compute < -1e-9:
            raise StateError(f"node {node.id}: capacity oversubscribed {when}")


class _Records(list):
    """The engine's raw log: one (time, kind, task id, node id, container
    id, detail) tuple per event, formatted only if someone reads it."""

    __slots__ = ()


class _LogLines:
    """`SimResult.log_lines`: a tuple of log lines, formatted on first read.

    Given a tuple, the field holds it as is. Given the engine's raw
    records, the first read formats them, keeps the lines, and drops the
    records.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:  # no class-level default: the field stays required
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if type(value) is _Records:
            value = tuple(map(_LINE.__mod__, value))
            obj.__dict__[self.name] = value
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class SimResult:
    metrics: MetricsRecord
    log_lines: tuple = _LogLines()
    tasks: tuple
    nodes: tuple


class _Engine:
    def __init__(self, config: SimConfig):
        self.config = config
        base = new_rng(config.seed)
        self.rng_nodes = base.fork(1)
        self.rng_workload = base.fork(2)
        self.rng_dyn = base.fork(3)
        self.nodes = self._build_nodes()
        self.node_by_id = {n.id: n for n in self.nodes}
        self.node_index = {n.id: i for i, n in enumerate(self.nodes)}
        self.tasks = {}
        self.state = SimState(config=config)
        self.sign = 1.0 if config.win_rule == "lowest" else -1.0
        self.heap = []
        self.log = _Records()
        self.payments = {}
        self.retries = {}
        self.pending_exec = {}  # task id -> (node id, container id, cc, mem, created)
        self.finished = {}      # task id -> (completion seconds, missed flag)
        self.failed = set()
        self.arrived = 0
        self.per_node_tasks = {n.id: 0 for n in self.nodes}
        self.whole_mem = {n.id: 0.0 for n in self.nodes}
        self.peak_mem = {n.id: 0.0 for n in self.nodes}
        self.busy_cc = {n.id: 0.0 for n in self.nodes}
        self.cpu_acc = {n.id: 0.0 for n in self.nodes}
        self.cpu_last = {n.id: 0.0 for n in self.nodes}
        self.literal_bids = None
        self.last_time = 0.0
        self.rankings = {}      # task id -> bidder ranking, until assigned or failed
        self.freed = deque()    # (freed_at, node index) per container release, in time order
        self.touched = []       # nodes whose container books the current event changed

    def _build_nodes(self):
        nodes = []
        templates = self.config.node_templates
        for i in range(self.config.num_workers):
            t = templates[i % len(templates)]
            # small deterministic price spread keeps identical templates distinguishable
            cost = t.unit_cost * self.rng_nodes.uniform(0.95, 1.05)
            nodes.append(WorkerNode(
                id=f"wn{i:03d}", cpu=t.cpu, memory=t.memory_mb, power=t.power_w,
                unit_cost=cost, time_const=t.time_const_s,
                executor_mode=t.executor_mode, executor=self.config.executor,
            ))
        return nodes

    # -- event plumbing ----------------------------------------------------

    def _log(self, time, kind, task_id="", node_id="", container_id="", detail=""):
        self.log.append((time, kind, task_id, node_id, container_id, detail))

    def _cpu_change(self, node_id: str, delta: float, now: float):
        node = self.node_by_id[node_id]
        span = now - self.cpu_last[node_id]
        if span > 0:
            self.cpu_acc[node_id] += (self.busy_cc[node_id] / node.cpu) * span
            self.cpu_last[node_id] = now
        self.busy_cc[node_id] += delta

    def _touch_mem(self, node_id: str):
        node = self.node_by_id[node_id]
        live = (node.memory - node.free_memory) + self.whole_mem[node_id]
        if live > self.peak_mem[node_id]:
            self.peak_mem[node_id] = live

    def _check_invariants(self, now: float):
        # only a container create, reuse, release or reap changes a node's
        # books, so each event checks the nodes it touched; run() scans all
        # nodes once more at the end
        if now < self.last_time - 1e-9:
            raise StateError(f"event time went backwards: {now} after {self.last_time}")
        self.last_time = now
        if self.touched:
            _check_books(self.touched, f"at t={now!r}")
            self.touched.clear()

    # -- handlers ----------------------------------------------------------

    def _fill_value(self, task: Task) -> Task:
        # the posted task value is the market's mean asking price for it;
        # the same pass ranks the bidders for all of the task's rounds
        config = self.config
        hosts, eligible, total = price_and_sum(task, self.nodes, config.weights,
                                               config.bid_margin, self.sign)
        self.rankings[task.id] = _ranking(eligible)
        count = len(hosts)
        if not count:
            total = left_sum(valuation_unchecked(node, task, config.weights, config.bid_margin)
                             for node in self.nodes)
            count = len(self.nodes)
        value = total / count
        if math.isfinite(value):
            valued = _trusted_task({**vars(task), "value": value})
        else:  # the prices overflowed: let the validator reject the value
            valued = replace(task, value=value)
        self.tasks[task.id] = valued
        return valued

    def _handle_arrival(self, now: float, task_id: str):
        self.arrived += 1
        task = self.tasks[task_id]
        if self.config.strategy in ("aucrac", "auction_basic"):
            self._fill_value(task)
        self._log(now, "task_arrival", task_id=task_id, detail=f"class={task.intensity}")
        heapq.heappush(self.heap, (now, ROUND, task_id))

    def _retry(self, now: float, task: Task):
        count = self.retries.get(task.id, 0) + 1
        self.retries[task.id] = count
        if count > self.config.executor.max_requeues:
            self.failed.add(task.id)
            del self.rankings[task.id]
            self._log(now, "auction_round", task_id=task.id, detail="result=failed_to_place")
        else:
            self._log(now, "auction_round", task_id=task.id, detail=f"result=retry;attempt={count}")
            heapq.heappush(self.heap, (now + self.config.retry_interval_s, ROUND, task.id))

    def _commit_whole_node(self, now: float, task: Task, node: WorkerNode) -> tuple:
        # queue the task behind the node's last one; returns (start, finish)
        start = max(now, self.state.available_at.get(node.id, 0.0))
        finish = start + execution_time(node, task)
        self.state.available_at[node.id] = finish
        self.pending_exec[task.id] = (node.id, "", node.cpu, task.memory, 0)
        return start, finish

    def _commit_container(self, now: float, task: Task, node: WorkerNode) -> tuple | None:
        # run the task in a container now; returns (start, finish), or None
        # when the node cannot place it after all
        decision = ct.select_container(node, task)
        if decision.action == "requeue":
            return None
        if decision.action == "reuse":
            container = next(c for c in node.container_pool if c.id == decision.container_id)
            container.mark_busy()
            created = 0
        else:
            try:
                container = ct.create_container(node, task)
            except PlacementRejected:
                return None
            created = 1
        self.pending_exec[task.id] = (node.id, container.id, container.compute,
                                      container.memory, created)
        self._touch_mem(node.id)
        self.touched.append(node)
        return now, now + task.cycles / container.compute

    def _reap(self, now: float):
        # a node can only have something to reap if it freed a container at
        # least one TTL ago; releases arrive in time order, so the due
        # entries sit at the front of the FIFO
        ttl = self.config.executor.idle_ttl_s
        due = set()
        while self.freed and now - self.freed[0][0] >= ttl:
            due.add(self.freed.popleft()[1])
        for i in sorted(due):
            node = self.nodes[i]
            reaped = ct.reap_idle(node, now)
            if reaped:
                self.touched.append(node)
            for gone in reaped:
                self._log(now, "container_release", node_id=node.id, container_id=gone.id,
                          detail=f"cc={gone.compute!r};mem={gone.memory!r};from=free;destroyed=1")

    def _literal_round(self, task: Task) -> tuple:
        # standing bids continue positionally across rounds, exactly as the
        # batch procedure would keep its arrays
        values = [valuation_unchecked(n, task, self.config.weights, self.config.bid_margin)
                  for n in self.nodes]
        alloc = allocate_tasks_literal(values, [task], initial_bids=self.literal_bids)
        self.literal_bids = list(alloc.bids)
        node = self.nodes[alloc.order[alloc.assignments[0]]]
        return node, task.value

    def _handle_round(self, now: float, task_id: str):
        task = self.tasks[task_id]
        strategy = self.config.strategy
        auction = strategy in ("aucrac", "auction_basic")
        if strategy == "aucrac":
            self._reap(now)
        self.state.now = now

        if not auction:
            node = self.node_by_id[assign(strategy, task, self.nodes, self.rng_dyn, self.state)]
            payment = valuation_unchecked(node, task, self.config.weights, self.config.bid_margin)
        elif self.config.auction_mode == "literal":
            node, payment = self._literal_round(task)
        else:
            pick = first_taker(self.rankings[task_id], task, strategy)
            if pick is None:
                self._retry(now, task)
                return
            payment, node = pick
        commit = self._commit_container if strategy == "aucrac" else self._commit_whole_node
        span = commit(now, task, node)
        if span is None:
            self._retry(now, task)
            return
        if auction:
            del self.rankings[task_id]
        self.payments[task_id] = payment
        heapq.heappush(self.heap, (span[0], START, task_id))
        heapq.heappush(self.heap, (span[1], FINISH, task_id))
        self._log(now, "auction_round", task_id=task_id, node_id=node.id,
                  detail=f"result=assigned;winner={node.id};payment={payment!r}")

    def _handle_exec_start(self, now: float, task_id: str):
        node_id, container_id, cc, mem, created = self.pending_exec[task_id]
        node = self.node_by_id[node_id]
        self.per_node_tasks[node_id] += 1
        self._cpu_change(node_id, cc, now)
        if not container_id:
            self.whole_mem[node_id] += mem
        self._touch_mem(node_id)
        self._log(now, "exec_start", task_id=task_id, node_id=node_id,
                  container_id=container_id,
                  detail=f"cc={cc!r};ei={node.cpu!r};mem={mem!r};created={created}")

    def _handle_exec_finish(self, now: float, task_id: str):
        node_id, container_id, cc, mem, _created = self.pending_exec[task_id]
        task = self.tasks[task_id]
        completion = now - task.arrival_time
        missed = completion > task.deadline
        self.finished[task_id] = (completion, missed)
        if not container_id:
            self._cpu_change(node_id, -cc, now)
            self.whole_mem[node_id] -= mem
        else:
            heapq.heappush(self.heap, (now, RELEASE, task_id))
        self._log(now, "exec_finish", task_id=task_id, node_id=node_id,
                  container_id=container_id,
                  detail=f"cc={cc!r};mem={mem!r};completion={completion!r}")

    def _handle_release(self, now: float, task_id: str):
        node_id, container_id, cc, mem, _created = self.pending_exec[task_id]
        node = self.node_by_id[node_id]
        ct.release_container(node, container_id, now)
        self.freed.append((now, self.node_index[node_id]))
        self.touched.append(node)
        self._cpu_change(node_id, -cc, now)
        self._log(now, "container_release", task_id=task_id, node_id=node_id,
                  container_id=container_id,
                  detail=f"cc={cc!r};mem={mem!r};from=busy;destroyed=0")

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        for task in generate_workload(self.config, self.rng_workload):
            self.tasks[task.id] = task
            heapq.heappush(self.heap, (task.arrival_time, ARRIVAL, task.id))
        handlers = (self._handle_arrival, self._handle_round, self._handle_exec_finish,
                    self._handle_release, self._handle_exec_start)  # indexed by rank
        horizon = self.config.horizon_s
        while self.heap:
            time, rank, task_id = heapq.heappop(self.heap)
            if time > horizon:
                break
            handlers[rank](time, task_id)
            self._check_invariants(time)
        _check_books(self.nodes, "at the end of the run")
        return SimResult(metrics=self._metrics(), log_lines=self.log,
                         tasks=tuple(self.tasks.values()), nodes=tuple(self.nodes))

    def _metrics(self) -> MetricsRecord:
        horizon = self.config.horizon_s
        completions = sorted(c for c, _ in self.finished.values())
        missed = sum(1 for _, m in self.finished.values() if m)
        completed = len(self.finished) - missed
        in_flight = self.arrived - len(self.finished) - len(self.failed)
        unit_price = self.config.unit_price
        profit = 0.0
        for tid in self.finished:  # the fold of mn_profit, in the same order
            profit += mn_revenue(self.tasks[tid], unit_price) - self.payments[tid]
        if not math.isfinite(profit):
            # a payment may have overflowed: let the outcome validator reject it
            for tid in self.finished:
                AuctionOutcome(task_id=tid, winner=self.pending_exec[tid][0],
                               payment=self.payments[tid])
        mean = left_sum(completions) / len(completions) if completions else 0.0
        median = _percentile(completions, 0.5)
        p95 = _percentile(completions, 0.95)
        cpu_fracs = []
        for node in self.nodes:
            self._cpu_change(node.id, 0.0, horizon)  # close the integral at the horizon
            cpu_fracs.append(self.cpu_acc[node.id] / horizon if horizon > 0 else 0.0)
        return MetricsRecord(
            tasks_arrived=self.arrived,
            tasks_completed=completed,
            deadline_miss=missed,
            failed_to_place=len(self.failed),
            in_flight=in_flight,
            mean_completion_s=mean,
            median_completion_s=median,
            p95_completion_s=p95,
            fairness_jain=jain_fairness([self.per_node_tasks[n.id] for n in self.nodes]),
            mn_profit=profit,
            per_node_tasks=tuple(self.per_node_tasks[n.id] for n in self.nodes),
            peak_memory_mb=tuple(self.peak_mem[n.id] for n in self.nodes),
            mean_cpu_frac=left_sum(cpu_fracs) / len(cpu_fracs) if cpu_fracs else 0.0,
        )


def run(config: SimConfig) -> SimResult:
    """Simulate one full run of the configured system."""
    return _Engine(config).run()


def utilization_series(log_lines) -> dict:
    """Replay a log into per-node (time, cpu fraction, live memory MB) series.

    The replay uses only what the lines carry, so it independently
    cross-checks the engine's own accounting.
    """
    busy = {}
    mem = {}
    cap = {}
    series = {}

    def sample(node_id, time):
        frac = busy.get(node_id, 0.0) / cap[node_id] if node_id in cap else 0.0
        series.setdefault(node_id, []).append((time, frac, mem.get(node_id, 0.0)))

    for line in log_lines:
        ev = parse_event_line(line) if isinstance(line, str) else line
        if ev.kind == "exec_start":
            d = _detail_map(ev.detail)
            cap[ev.node_id] = float(d["ei"])
            busy[ev.node_id] = busy.get(ev.node_id, 0.0) + float(d["cc"])
            if not ev.container_id or d.get("created") == "1":
                mem[ev.node_id] = mem.get(ev.node_id, 0.0) + float(d["mem"])
            sample(ev.node_id, ev.time)
        elif ev.kind == "exec_finish" and not ev.container_id:
            d = _detail_map(ev.detail)
            busy[ev.node_id] = busy.get(ev.node_id, 0.0) - float(d["cc"])
            mem[ev.node_id] = mem.get(ev.node_id, 0.0) - float(d["mem"])
            sample(ev.node_id, ev.time)
        elif ev.kind == "container_release":
            d = _detail_map(ev.detail)
            if d.get("from") == "busy":
                busy[ev.node_id] = busy.get(ev.node_id, 0.0) - float(d["cc"])
            if d.get("destroyed") == "1":
                mem[ev.node_id] = mem.get(ev.node_id, 0.0) - float(d["mem"])
            if ev.node_id in cap:
                sample(ev.node_id, ev.time)
    return series
