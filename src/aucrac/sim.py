"""Deterministic discrete-event simulation of one offloading run.

Six assignment strategies share one engine. The container-aware strategy
places work into compute slices and runs tasks on a node concurrently;
every other strategy executes whole-node, one task at a time, FIFO.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter

from . import containers as ct
from .auction import mn_revenue, run_sealed_auction
from .core import (AuctionOutcome, Bid, MetricsRecord, SimConfig, Task, WorkerNode,
                   _trusted_task, generate_workload)
from .costmodel import deadline_eligibility, execution_time, valuation, valuation_unchecked
from .errors import InfeasibleError, InputError, PlacementRejected, StateError
from .rng import Rng, new_rng

# A heap entry is (time, rank, task id); at one instant events run in rank
# order, then by task id. Capacity leaves before it is retaken: finishes and
# releases resolve ahead of the starts scheduled for the same time.
ARRIVAL, ROUND, FINISH, RELEASE, START = range(5)

# a log line from (time, kind, task id, node id, container id, detail), and one format per kind
_LINE = "%r,%s,%s,%s,%s,%s"
_ARRIVED = "%r,task_arrival,%s,,,class=%s"
_ASSIGNED = "%r,auction_round,%s,%s,,result=assigned;winner=%s;payment=%r"
_RETRIED = "%r,auction_round,%s,,,result=retry;attempt=%d"
_FAILED = "%r,auction_round,%s,,,result=failed_to_place"
_STARTED = "%r,exec_start,%s,%s,%s,cc=%r;ei=%r;mem=%r;created=%d"
_FINISHED = "%r,exec_finish,%s,%s,%s,cc=%r;mem=%r;completion=%r"
_RELEASED = "%r,container_release,%s,%s,%s,cc=%r;mem=%r;from=busy;destroyed=0"
_REAPED = "%r,container_release,,%s,%s,cc=%r;mem=%r;from=free;destroyed=1"


@dataclass(frozen=True)
class SimEvent:
    """One log line, parsed. Everything the run did is reconstructable from these."""

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

    now: float = 0.0
    rr_next: int = 0
    available_at: dict = field(default_factory=dict)


def run_task_auction(task: Task, nodes, config: SimConfig, now: float) -> AuctionOutcome | None:
    """Collect sealed bids for one task and resolve them.

    The definition of an auction round, which the engine's per-class
    pricing reproduces. Nodes whose capacity does not strictly dominate
    the task demand do not bid. Under the container-aware strategy, nodes
    that could not place the task right now also abstain. Returns None
    when nobody bid, and an outcome without a winner when every bidder
    misses the deadline. All bids of a round are submitted at `now`, so
    the time never breaks a tie.
    """
    bids = []
    for node in nodes:
        try:
            amount = valuation(node, task, config.weights, config.bid_margin)
        except InfeasibleError:
            continue
        if config.strategy == "aucrac" and not ct.can_place(node, task):
            continue
        bids.append(Bid(node_id=node.id, task_id=task.id, amount=amount, submit_time=now,
                        eligible=deadline_eligibility(node, task)))
    if not bids:
        return None
    return run_sealed_auction(task, bids, config.win_rule)


def assign(strategy: str, task: Task, nodes, rng: Rng, state: SimState) -> str:
    """Pick the executing node for one task under a whole-node strategy.

    The definition of a whole-node pick; the engine's queues reproduce it
    for `mct` and `greedy` without a pass over every node.
    """
    if strategy == "random":
        return rng.choice(nodes).id
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
    raise InputError(f"unknown strategy {strategy!r}")


def _check_books(nodes, when: str):
    """Each node's container pool must account for exactly the memory it holds."""
    for node in nodes:
        # free_memory is the capacity less a running total of container sizes,
        # so it carries rounding at the scale of the capacity, not of the
        # containers: the books may disagree by an ulp or so of `memory`
        if abs(node.live_memory() - (node.memory - node.free_memory)) > 1e-9 * node.memory:
            raise StateError(f"node {node.id}: container memory books disagree {when}")
        if node.free_memory < -1e-9 or node.free_compute < -1e-9:
            raise StateError(f"node {node.id}: capacity oversubscribed {when}")


class _Records(list):
    """The engine's raw log: one (format, values) record per event."""

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
            value = tuple(fmt % values for fmt, values in value)
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


class _NodeClass:
    """The nodes that share (cpu, memory, power, time_const, executor_mode).

    They share every demand ratio, feasibility, deadline eligibility and
    execution time, so a task is priced once per class. An ask is
    `up * (unit_cost * delta * S)` with S fixed per class and task, so it
    is monotone in `unit_cost * delta`: `members` holds (unit_cost * delta,
    node id, node) sorted by (sign * unit_cost * delta, id, position), a
    best-first order for every task. `open` holds, in that order, the
    ranks of the members that hold a free container or at least one slice
    granularity of free compute. Every slice is at least one granularity,
    so a member missing from `open` cannot place any task.
    """

    __slots__ = ("head", "members", "open")

    def __init__(self, head: WorkerNode, members: list, open_ranks: list):
        self.head = head
        self.members = members
        self.open = open_ranks


class _Queue:
    """The nodes that share (cpu, time_const), under `mct` or `greedy`.

    They share `execution_time` and `cpu`, the only node fields either pick
    reads, so a pick needs from each class only its idle nodes and its
    soonest-free busy ones. A node's rank is its place in the order that
    breaks the pick's ties: node id for `mct`, node position for `greedy`.
    `idle` holds the ranks of the members free by the last pick's time,
    sorted; `busy` holds (available_at, rank) of the others, sorted.
    """

    __slots__ = ("head", "idle", "busy")

    def __init__(self, head: WorkerNode):
        self.head = head
        self.idle = []
        self.busy = []


def _is_open(node: WorkerNode) -> bool:
    if node.free_compute >= node.executor.slice_granularity:
        return True
    for c in node.container_pool:
        if c.state == "free":
            return True
    return False


class _Engine:
    # Past 30 instance attributes CPython stops sharing the attribute key
    # table between instances, and every `self.x` load in the event loop
    # falls off its specialised fast path; slots keep them fixed-offset.
    __slots__ = ("config", "rng_nodes", "rng_workload", "rng_dyn", "sign", "up", "nodes",
                 "node_by_id", "node_index", "ucd", "classes", "slot", "node_class", "tasks",
                 "state", "heap", "log", "payments", "retries", "pending_exec", "finished",
                 "failed", "arrived", "per_node_tasks", "whole_mem", "peak_mem", "busy_cc",
                 "cpu_acc", "cpu_last", "last_time", "offers", "freed", "touched", "queues",
                 "home", "ranked", "fallback")

    def __init__(self, config: SimConfig):
        self.config = config
        base = new_rng(config.seed)
        self.rng_nodes = base.fork(1)
        self.rng_workload = base.fork(2)
        self.rng_dyn = base.fork(3)
        self.sign = 1.0 if config.win_rule == "lowest" else -1.0
        self.up = 1.0 + config.bid_margin
        self.nodes = self._build_nodes()
        self.node_by_id = {n.id: n for n in self.nodes}
        self.node_index = {n.id: i for i, n in enumerate(self.nodes)}
        if config.strategy in ("aucrac", "auction_basic"):
            self._index_classes()  # only the auctions price a task per node class
        self.home = None  # node id -> (queue, rank), for the picks that keep queues
        if config.strategy in ("mct", "greedy"):
            self._index_queues()
        self.tasks = {}
        self.state = SimState()
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
        self.last_time = 0.0
        self.offers = {}        # task id -> its bidding classes or literal (payment, node)
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

    def _index_classes(self):
        # node order is fixed for the run, so the classes, their member
        # order and each node's place in it are built once
        nodes = self.nodes
        self.ucd = [n.unit_cost * self.config.weights.delta for n in nodes]  # by position
        groups = {}
        for i, n in enumerate(nodes):
            key = (n.cpu, n.memory, n.power, n.time_const, n.executor_mode)
            groups.setdefault(key, []).append(i)
        sign = self.sign
        ucd = self.ucd
        self.classes = []
        self.slot = {}               # node id -> [class, rank in the class, open flag]
        self.node_class = [0] * len(nodes)  # class number per node position
        for k, positions in enumerate(groups.values()):
            positions.sort(key=lambda i: (sign * ucd[i], nodes[i].id, i))
            flags = [_is_open(nodes[i]) for i in positions]
            cls = _NodeClass(nodes[positions[0]],
                             [(ucd[i], nodes[i].id, nodes[i]) for i in positions],
                             [r for r, flag in enumerate(flags) if flag])
            self.classes.append(cls)
            for r, i in enumerate(positions):
                self.slot[nodes[i].id] = [cls, r, flags[r]]
                self.node_class[i] = k

    def _index_queues(self):
        nodes = self.nodes
        order = range(len(nodes))
        if self.config.strategy == "mct":
            order = sorted(order, key=lambda i: (nodes[i].id, i))
        self.ranked = [nodes[i] for i in order]  # node by rank
        queues = {}
        self.home = {}
        for r, node in enumerate(self.ranked):  # every node is idle at time 0
            q = queues.setdefault((node.cpu, node.time_const), _Queue(node))
            q.idle.append(r)
            self.home[node.id] = (q, r)
        self.queues = list(queues.values())
        # greedy's pick while every node is busy: the first largest cpu
        self.fallback = max(nodes, key=attrgetter("cpu"))

    # -- event plumbing ----------------------------------------------------

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

    def _touch(self, node: WorkerNode):
        # a container create, reuse, release or reap changed the node's
        # books: queue it for the books check and update its open state
        self.touched.append(node)
        slot = self.slot[node.id]
        is_open = _is_open(node)
        if is_open != slot[2]:
            slot[2] = is_open
            ranks = slot[0].open
            j = bisect_left(ranks, slot[1])
            if is_open:
                ranks.insert(j, slot[1])
            else:
                del ranks[j]

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
        # the posted task value is the market's mean asking price for it, each
        # ask `up * (unit_cost * delta * S)` as valuation_unchecked computes it;
        # the same pass finds the classes that bid in the task's rounds
        weights = self.config.weights
        up = self.up
        l1 = weights.lambda1
        a1l2 = weights.alpha1 * weights.lambda2
        a2l3 = weights.alpha2 * weights.lambda3
        cycles, memory, power, deadline = task.cycles, task.memory, task.power, task.deadline
        sign = self.sign
        offers = []
        every = []    # S per class
        hosting = []  # S per class, None where the class cannot host the task
        count = 0
        for cls in self.classes:
            node = cls.head
            cpu = node.cpu
            re_ = cycles / cpu
            rm = memory / node.memory
            rp = power / node.power
            s = l1 * re_ + a1l2 * rm + a2l3 * rp
            every.append(s)
            hosting.append(None if re_ >= 1.0 or rm >= 1.0 or rp >= 1.0 else s)
            if hosting[-1] is None:
                continue
            count += len(cls.members)
            if deadline - node.time_const * cycles / cpu > 0.0:
                offers.append((sign * (up * (cls.members[0][0] * s)), cls, s))
        # (sign * cheapest ask, class, S), cheapest first: a round stops at
        # the first class whose cheapest ask is past the best taker found
        offers.sort(key=itemgetter(0))
        if not count:  # no class can host the task: the mean is over every node
            hosting, count = every, len(self.nodes)
        total = 0.0  # added left to right in node order
        for u, s in zip(self.ucd, map(hosting.__getitem__, self.node_class)):
            if s is not None:
                total += up * (u * s)
        value = total / count
        if math.isfinite(value):
            valued = _trusted_task({**vars(task), "value": value})
        else:  # the prices overflowed: let the validator reject the value
            valued = replace(task, value=value)
        self.tasks[task.id] = valued
        if self.config.auction_mode == "literal":
            # allocate_tasks_literal's pick in closed form (the auction module
            # says why), fixed now since no ask changes between rounds: an end
            # of its own sort, not a max/min, as an infeasible ask can be NaN
            asks = [up * (u * s) for u, s in zip(self.ucd, map(every.__getitem__, self.node_class))]
            order = sorted(zip(asks, range(len(asks))))  # (ask, position)
            offers = (value, self.nodes[order[-1 if value > 0 else 0][1]])
        self.offers[task.id] = offers
        return valued

    def _take(self, task: Task):
        """The (ask, node) a round gives the task to, or None.

        The winner and payment of `run_task_auction`: the best (sign * ask,
        node id) among the eligible nodes, which under the container-aware
        strategy must also be able to place the task now. The eligible
        classes come cheapest head first, and each is walked in its member
        order, over its open members only under the container-aware
        strategy, until its ask passes the best found so far: sign * ask
        never falls along a class. Node ids are unique.
        """
        up = self.up
        sign = self.sign
        aucrac = self.config.strategy == "aucrac"
        slice_ = None
        best = None
        best_key = best_id = None
        for head_key, cls, s in self.offers[task.id]:
            if best is not None and head_key > best_key:
                break
            members = cls.members
            for r in (cls.open if aucrac else range(len(members))):
                u, node_id, node = members[r]
                ask = up * (u * s)
                key = sign * ask
                if best is not None:
                    if key > best_key:
                        break
                    if key == best_key and node_id > best_id:
                        continue
                if aucrac:
                    if slice_ is None:
                        # it depends only on the task and the run's shared granularity
                        slice_ = ct.slice_for(node, task)
                    if not ct.can_place(node, task, slice_):
                        continue
                best, best_key, best_id = (ask, node), key, node_id
        return best

    def _handle_arrival(self, now: float, task_id: str):
        self.arrived += 1
        task = self.tasks[task_id]
        if self.config.strategy in ("aucrac", "auction_basic"):
            self._fill_value(task)
        self.log.append((_ARRIVED, (now, task_id, task.intensity)))
        heapq.heappush(self.heap, (now, ROUND, task_id))

    def _retry(self, now: float, task: Task):
        count = self.retries.get(task.id, 0) + 1
        self.retries[task.id] = count
        if count > self.config.executor.max_requeues:
            self.failed.add(task.id)
            del self.offers[task.id]
            self.log.append((_FAILED, (now, task.id)))
        else:
            self.log.append((_RETRIED, (now, task.id, count)))
            heapq.heappush(self.heap, (now + self.config.retry_interval_s, ROUND, task.id))

    def _commit_whole_node(self, now: float, task: Task, node: WorkerNode) -> tuple:
        # queue the task behind the node's last one; returns (start, finish)
        available_at = self.state.available_at
        before = available_at.get(node.id, 0.0)
        start = max(now, before)
        finish = start + execution_time(node, task)
        available_at[node.id] = finish
        self.pending_exec[task.id] = (node.id, "", node.cpu, task.memory, 0)
        if self.home is not None:  # re-file the node as busy until `finish`
            # a busy entry moves to `idle` only when a pick reads the queues,
            # so the node is looked up, not placed by `before > now`
            q, r = self.home[node.id]
            busy = q.busy
            j = bisect_left(busy, (before, r))
            if j < len(busy) and busy[j] == (before, r):
                del busy[j]
            else:
                del q.idle[bisect_left(q.idle, r)]
            insort(busy, (finish, r))
        return start, finish

    def _pick_whole_node(self, task: Task, now: float) -> WorkerNode:
        """The node `assign` picks; under `mct` and `greedy`, from the queues.

        A node is busy while its available_at is past `now`. `mct` takes the
        least (eta, id): a class's idle nodes share the eta `execution_time`,
        and its busy ones have `(available_at - now) + execution_time`, which
        never falls along `busy` but can equal the eta of the nodes before
        it, so the equal-eta prefix is searched for the smallest rank.
        `greedy` takes the first idle node in node order with the largest
        cpu, or, when every node is busy, the first node with the largest cpu.
        """
        strategy = self.config.strategy
        if self.home is None:
            return self.node_by_id[assign(strategy, task, self.nodes, self.rng_dyn, self.state)]
        best = None
        for q in self.queues:
            idle, busy = q.idle, q.busy
            while busy and busy[0][0] <= now:  # free again by now
                insort(idle, busy.pop(0)[1])
            if strategy == "greedy":
                if idle:  # the largest cpu, then the first node
                    key = (q.head.cpu, -idle[0])
                    if best is None or key > best:
                        best = key
                continue
            e = execution_time(q.head, task)
            if idle:
                eta, r = e, idle[0]
            else:
                eta, r = busy[0][0] - now + e, busy[0][1]
            for a, s in busy:
                if a - now + e > eta:
                    break
                if s < r:
                    r = s
            if best is None or (eta, r) < best:
                best = (eta, r)
        if best is None:  # greedy, with every node busy
            return self.fallback
        return self.ranked[best[1] if strategy == "mct" else -best[1]]

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
            self._touch_mem(node.id)  # only a create adds memory; a reuse holds it already
        self.pending_exec[task.id] = (node.id, container.id, container.compute,
                                      container.memory, created)
        self._touch(node)
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
            self._reap_node(self.nodes[i], now)

    def _reap_node(self, node: WorkerNode, now: float) -> int:
        reaped = ct.reap_idle(node, now)
        if reaped:
            self._touch(node)
            for gone in reaped:
                self.log.append((_REAPED, (now, node.id, gone.id, gone.compute, gone.memory)))
        return len(reaped)

    def _literal_round(self, task: Task) -> tuple:
        # the (payment, node) that _fill_value fixed when it posted the task
        return self.offers[task.id]

    def _handle_round(self, now: float, task_id: str):
        task = self.tasks[task_id]
        strategy = self.config.strategy
        auction = strategy in ("aucrac", "auction_basic")
        if strategy == "aucrac":
            self._reap(now)
        self.state.now = now

        if not auction:
            node = self._pick_whole_node(task, now)
            payment = valuation_unchecked(node, task, self.config.weights, self.config.bid_margin)
        else:
            pick = self._literal_round(task) if self.config.auction_mode == "literal" else self._take(task)
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
            del self.offers[task_id]
        self.payments[task_id] = payment
        heapq.heappush(self.heap, (span[0], START, task_id))
        heapq.heappush(self.heap, (span[1], FINISH, task_id))
        self.log.append((_ASSIGNED, (now, task_id, node.id, node.id, payment)))

    def _handle_exec_start(self, now: float, task_id: str):
        node_id, container_id, cc, mem, created = self.pending_exec[task_id]
        node = self.node_by_id[node_id]
        self.per_node_tasks[node_id] += 1
        self._cpu_change(node_id, cc, now)
        if not container_id:  # a container's memory was sampled when it was created
            self.whole_mem[node_id] += mem
            self._touch_mem(node_id)
        self.log.append((_STARTED, (now, task_id, node_id, container_id, cc, node.cpu, mem,
                                    created)))

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
        self.log.append((_FINISHED, (now, task_id, node_id, container_id, cc, mem, completion)))

    def _handle_release(self, now: float, task_id: str):
        node_id, container_id, cc, mem, _created = self.pending_exec[task_id]
        node = self.node_by_id[node_id]
        ct.release_container(node, container_id, now)
        self.freed.append((now, self.node_index[node_id]))
        self._touch(node)
        self._cpu_change(node_id, -cc, now)
        self.log.append((_RELEASED, (now, task_id, node_id, container_id, cc, mem)))

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

    for ev in map(parse_event_line, log_lines):
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
