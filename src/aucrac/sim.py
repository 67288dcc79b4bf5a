"""Deterministic discrete-event simulation of one offloading run.

Six assignment strategies share one engine. A run's market picks the node
for each task, and its executor runs the task there: in a container on a
compute slice, concurrently, under the container-aware strategy, and
otherwise on the whole node, one task at a time, FIFO.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import cycle, islice
from operator import attrgetter, itemgetter

from . import containers as ct
from .auction import mn_revenue, run_sealed_auction
from .core import (AuctionOutcome, Bid, MetricsRecord, SimConfig, Task, WorkerNode,
                   _valued, generate_workload)
from .costmodel import deadline_eligibility, execution_time, valuation, valuation_unchecked
from .errors import InfeasibleError, InputError, PlacementRejected, StateError
from .rng import MASK64, Rng, new_rng

# A heap entry is (time, rank, task id); at one instant events run in rank
# order, then by task id. Capacity leaves before it is retaken: a finish, which
# also releases the task's container, resolves ahead of the starts scheduled
# for the same time. A task's start pushes its finish, so a task never ends
# before it starts.
ARRIVAL, ROUND, FINISH, START = range(4)

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
    return dict(chunk.split("=", 1) for chunk in detail.split(";") if "=" in chunk)


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
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)] if sorted_values else 0.0


def mn_profit(outcomes, tasks, unit_price: float) -> float:
    """Manager profit: revenue charged per task minus what the winner was
    paid. Outcomes without a winner contribute nothing."""
    by_id = {t.id: t for t in tasks}
    profit = 0.0
    for outcome in outcomes:
        if outcome.winner is not None:
            profit += mn_revenue(by_id[outcome.task_id], unit_price) - outcome.payment
    return profit


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
    return run_sealed_auction(task, bids, config.win_rule) if bids else None


def assign(strategy: str, task: Task, nodes, rng: Rng, turn: int) -> str:
    """Pick the executing node for one task under `random` or `round_robin`,
    the whole-node picks that read no node state; `turn` counts the run's
    earlier picks. The `mct` and `greedy` picks are `_Queues`'."""
    if strategy == "random":
        return rng.choice(nodes).id
    if strategy == "round_robin":
        return nodes[turn % len(nodes)].id
    raise InputError(f"unknown strategy {strategy!r}")


def _check_books(nodes, now=None):
    """Each node's container pool must account for exactly the memory it
    holds; `now` is the event time, or None at the end of the run."""
    for node in nodes:
        # free_memory is the capacity less a running total of container sizes,
        # so it carries rounding at the scale of the capacity, not of the
        # containers: the books may disagree by an ulp or so of `memory`
        disagree = abs(node.live_memory() - (node.memory - node.free_memory)) > 1e-9 * node.memory
        if disagree or node.free_memory < -1e-9 or node.free_compute < -1e-9:
            problem = "container memory books disagree" if disagree else "capacity oversubscribed"
            when = "at the end of the run" if now is None else f"at t={now!r}"
            raise StateError(f"node {node.id}: {problem} {when}")


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


# -- markets: which node hosts a task, for what payment ----------------------

class _Market:
    """Picks the node that hosts each task, and its payment; one per run.

    `price(task)` returns the task as posted, at its arrival; `pick(task,
    now)` returns (payment, node), or None to retry; `close(task_id)` drops
    what `price` kept. The executor reports what a market may index:
    `booked(node)` after a change to the node's container books, and
    `queued(node, before, finish)` after a whole-node commit.
    """

    def price(self, task: Task) -> Task:
        return task

    def close(self, *args):
        """Nothing this market keeps changes."""

    booked = queued = close


class _Assign(_Market):
    """`assign`'s pick, paid its `valuation_unchecked` ask: `random`, `round_robin`."""

    def __init__(self, engine):
        self.strategy, self.weights = engine.config.strategy, engine.config.weights
        self.margin = engine.config.bid_margin
        self.nodes, self.node_by_id, self.rng = engine.nodes, engine.node_by_id, engine.rng_dyn
        self.turn = 0  # picks made so far

    def pick(self, task: Task, now: float) -> tuple:
        node = self.node_by_id[assign(self.strategy, task, self.nodes, self.rng, self.turn)]
        self.turn += 1
        return valuation_unchecked(node, task, self.weights, self.margin), node


class _Queue:
    __slots__ = ("head", "idle", "busy")

    def __init__(self, head: WorkerNode):
        self.head = head
        self.idle = []  # ranks free by the last pick's time, sorted
        self.busy = []  # (available_at, rank) of the others, sorted


class _Queues(_Market):
    """The `mct` and `greedy` picks, paid their `valuation_unchecked` ask,
    from per-(cpu, time_const) queues. `mct` takes the least eta
    `max(0, available_at - now) + execution_time`, then the least id, and
    `greedy` the most free cpu (none if busy), then the most cpu, then the
    first node.

    Those two fields are all either pick reads of a node, so a pick needs
    from each class only its idle nodes and its soonest-free busy ones. A
    rank is a node's place in the pick's tie order: id for `mct`, position
    for `greedy`. A busy node's eta never falls along `busy` but can equal
    the eta before it, so `mct` searches the equal-eta prefix for the
    smallest rank. With every node busy, `greedy` takes `fallback`, the
    first node with the largest cpu.
    """

    def __init__(self, engine):
        config, nodes = engine.config, engine.nodes
        self.weights, self.margin = config.weights, config.bid_margin
        self.greedy = config.strategy == "greedy"
        # node by rank; a stable sort keeps node order among equal ids
        self.ranked = list(nodes) if self.greedy else sorted(nodes, key=attrgetter("id"))
        queues = {}
        self.home = {}  # node id -> (queue, rank)
        for r, node in enumerate(self.ranked):  # every node is idle at time 0
            q = queues.setdefault((node.cpu, node.time_const), _Queue(node))
            q.idle.append(r)
            self.home[node.id] = (q, r)
        self.queues = list(queues.values())
        self.fallback = max(nodes, key=attrgetter("cpu"))

    def queued(self, node, before, finish):
        # re-file the node as busy until `finish`; an entry moves to `idle` only
        # when a pick reads the queues, so it is looked up, not placed by `before`
        q, r = self.home[node.id]
        busy = q.busy
        j = bisect_left(busy, (before, r))
        if j < len(busy) and busy[j] == (before, r):
            del busy[j]
        else:
            del q.idle[bisect_left(q.idle, r)]
        insort(busy, (finish, r))

    def pick(self, task, now):
        best = None
        for q in self.queues:
            idle, busy = q.idle, q.busy
            while busy and busy[0][0] <= now:  # free again by now
                insort(idle, busy.pop(0)[1])
            if self.greedy:
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
            node = self.fallback
        else:
            node = self.ranked[-best[1] if self.greedy else best[1]]
        return valuation_unchecked(node, task, self.weights, self.margin), node


class _NodeClass:
    __slots__ = ("head", "members", "open")

    def __init__(self, head: WorkerNode, members: list):
        self.head = head
        self.members = members  # (unit_cost * delta, node id, node), best first
        self.open = None        # under `aucrac`, the ranks of the open members


def _is_open(node: WorkerNode) -> bool:
    return (node.free_compute >= node.executor.slice_granularity
            or "free" in map(attrgetter("state"), node.container_pool))


class _Auction(_Market):
    """The winner and payment of `run_task_auction`, priced per node class.

    Nodes that share (cpu, memory, power, time_const, executor_mode) share
    every demand ratio, feasibility, eligibility and execution time. An ask
    is `up * (unit_cost * delta * S)` with S fixed per class and task, so
    members sorted by (sign * unit_cost * delta, id, position) are in
    best-first order for every task. Node order is fixed for the run, so
    the classes are built once.
    """

    placing = False  # whether a winner must also be able to place the task now

    def __init__(self, engine):
        config, w = engine.config, engine.config.weights
        nodes = self.nodes = engine.nodes
        self.coef = (w.lambda1, w.alpha1 * w.lambda2, w.alpha2 * w.lambda3)  # of S's ratios
        sign = self.sign = 1.0 if config.win_rule == "lowest" else -1.0
        self.up = 1.0 + config.bid_margin
        ucd = self.ucd = [n.unit_cost * w.delta for n in nodes]  # by position
        self.offers = {}  # task id -> its bidding classes, or its literal (payment, node)
        groups = {}
        for i, n in enumerate(nodes):
            groups.setdefault((n.cpu, n.memory, n.power, n.time_const, n.executor_mode),
                              []).append(i)
        self.classes = []
        self.node_class = [0] * len(nodes)  # class number per node position
        for k, positions in enumerate(groups.values()):
            positions.sort(key=lambda i: (sign * ucd[i], nodes[i].id, i))
            self.classes.append(_NodeClass(nodes[positions[0]],
                                           [(ucd[i], nodes[i].id, nodes[i]) for i in positions]))
            for i in positions:
                self.node_class[i] = k

    def close(self, task_id):
        del self.offers[task_id]

    def price(self, task):
        # the task posted at the mean ask, each as valuation_unchecked computes
        # it; the same pass finds the classes that bid in the task's rounds
        up, sign, (l1, a1l2, a2l3) = self.up, self.sign, self.coef
        cycles, memory, power, deadline = task.cycles, task.memory, task.power, task.deadline
        offers = []
        every = []    # S per class
        hosting = []  # S per class, None where the class cannot host the task
        count = 0
        for cls in self.classes:
            node = cls.head
            re_, rm, rp = cycles / node.cpu, memory / node.memory, power / node.power
            s = l1 * re_ + a1l2 * rm + a2l3 * rp
            every.append(s)
            hosting.append(None if re_ >= 1.0 or rm >= 1.0 or rp >= 1.0 else s)
            if hosting[-1] is None:
                continue
            count += len(cls.members)
            if deadline - node.time_const * cycles / node.cpu > 0.0:
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
            valued = _valued(task, value)
        else:  # the prices overflowed: let the validator reject the value
            valued = replace(task, value=value)
        self.offers[task.id], self.every = offers, every  # every: S per class, for _Literal
        return valued

    def pick(self, task, now):
        # the best (sign * ask, node id) as (ask, node): eligible classes cheapest head first,
        # each walked (open members only when placing) until its ask, which never falls, passes
        up, sign, placing = self.up, self.sign, self.placing
        slice_ = best = best_key = best_id = None
        for head_key, cls, s in self.offers[task.id]:
            if best is not None and head_key > best_key:
                break
            members = cls.members
            for r in (cls.open if placing else range(len(members))):
                u, node_id, node = members[r]
                ask = up * (u * s)
                key = sign * ask
                if best is not None:
                    if key > best_key:
                        break
                    if key == best_key and node_id > best_id:
                        continue
                if placing:
                    if slice_ is None:
                        # it depends only on the task and the run's shared granularity
                        slice_ = ct.slice_for(node, task)
                    if not ct.can_place(node, task, slice_):
                        continue
                best, best_key, best_id = (ask, node), key, node_id
        return best


class _OpenAuction(_Auction):
    """The container-aware auction, `aucrac`. A class's `open` holds, in
    member order, the ranks of the members that hold a free container or at
    least one slice granularity of free compute. Every slice is at least
    one granularity, so a member missing from `open` cannot place any task."""

    placing = True

    def __init__(self, engine):
        super().__init__(engine)
        self.slot = {}  # node id -> [class, rank in the class, open flag]
        for cls in self.classes:
            flags = [_is_open(node) for _, _, node in cls.members]
            cls.open = [r for r, flag in enumerate(flags) if flag]
            for r, (_, node_id, _) in enumerate(cls.members):
                self.slot[node_id] = [cls, r, flags[r]]

    def booked(self, node):
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


class _Literal(_Auction):
    """`allocate_tasks_literal`'s pick in closed form (the auction module
    says why), fixed when the task is priced since no ask changes between
    rounds: an end of its own sort, not a max/min, as an infeasible ask
    can be NaN."""

    def price(self, task):
        valued = super().price(task)
        asks = [self.up * (u * s) for u, s in zip(self.ucd, map(self.every.__getitem__,
                                                                self.node_class))]
        order = sorted(zip(asks, range(len(asks))))  # (ask, position)
        self.offers[task.id] = (valued.value,
                                self.nodes[order[-1 if valued.value > 0 else 0][1]])
        return valued

    def pick(self, task, now):
        return self.offers[task.id]


# -- executors: how a placed task runs on its node ---------------------------

class _Executor:
    """Runs the tasks the market places; one per run. `commit(now, task,
    node)` stores the task's (node id, container id, cc, mem, created,
    finish, container) in `pending`, the container None on a whole node,
    and returns its start time, or None when the node cannot take it after
    all. `start` runs at the task's start, `release` at its finish and
    `reap` before each round."""

    def __init__(self, engine, market: _Market):
        self.market, self.pending, self.peak = market, engine.pending_exec, engine.peak_mem

    def reap(self, *args):
        """Nothing to do under this executor."""

    start = release = reap


class _WholeNode(_Executor):
    """Each task runs alone on the whole node, FIFO behind the node's last."""

    def __init__(self, engine, market):
        super().__init__(engine, market)
        self.available_at = {}

    def commit(self, now, task, node):
        before = self.available_at.get(node.id, 0.0)
        start = max(now, before)
        finish = self.available_at[node.id] = start + execution_time(node, task)
        self.pending[task.id] = (node.id, "", node.cpu, task.memory, 0, finish, None)
        self.market.queued(node, before, finish)
        return start

    def start(self, now, node_id, mem):
        # the node's last task finished before this one starts: it runs alone
        self.peak[node_id] = max(self.peak[node_id], mem)


class _Containers(_Executor):
    """Each task runs in a container on a slice of the node's compute. The
    container is released when the task finishes, and reaped once idle for
    the TTL. Only a create, reuse, release or reap changes a node's books,
    so each of them checks the node's books."""

    def __init__(self, engine, market):
        super().__init__(engine, market)
        self.nodes, self.log = engine.nodes, engine.log
        self.node_by_id, self.ttl = engine.node_by_id, engine.config.executor.idle_ttl_s
        self.node_index = {n.id: i for i, n in enumerate(self.nodes)}
        self.freed = deque()  # (freed_at, node index) per container release, in time order

    def commit(self, now, task, node):
        # select_container's pick in the pass that finds it: the least fitting
        # free container in (compute, memory, id) order, else its create check
        memory, cycles, td_max = task.memory, task.cycles, task.td_max
        container = None
        for c in node.container_pool:
            if (c.state == "free" and c.memory > memory and cycles / c.compute < td_max
                    and (container is None or (c.compute, c.memory, c.id)
                         < (container.compute, container.memory, container.id))):
                container = c
        if container is not None:
            container.mark_busy()
            created = 0
        elif node.free_memory > memory and cycles / node.cpu < td_max:
            try:
                container = ct.create_container(node, task)
            except PlacementRejected:
                return None
            created = 1
            # only a create adds memory; a reuse holds it already
            self.peak[node.id] = max(self.peak[node.id], node.memory - node.free_memory)
        else:
            return None
        self.pending[task.id] = (node.id, container.id, container.compute, container.memory,
                                 created, now + cycles / container.compute, container)
        self._touch(node, now)
        return now

    def release(self, now, task_id):
        node_id, container_id, cc, mem, _created, _finish, container = self.pending[task_id]
        node = self.node_by_id[node_id]
        container.mark_free(now)  # ct.release_container's step, on the container commit held
        self.freed.append((now, self.node_index[node_id]))
        self._touch(node, now)
        self.log.append((_RELEASED, (now, task_id, node_id, container_id, cc, mem)))

    def reap(self, now):
        # only nodes that freed a container a TTL ago can reap; frees come in time order
        freed = self.freed
        if not freed or now - freed[0][0] < self.ttl:
            return
        due = set()
        while freed and now - freed[0][0] >= self.ttl:
            due.add(freed.popleft()[1])
        for i in sorted(due):
            self._reap_node(self.nodes[i], now)

    def _reap_node(self, node: WorkerNode, now: float) -> int:
        reaped = ct.reap_idle(node, now)
        if reaped:
            self._touch(node, now)
            for gone in reaped:
                self.log.append((_REAPED, (now, node.id, gone.id, gone.compute, gone.memory)))
        return len(reaped)

    def _touch(self, node: WorkerNode, now: float):
        # the node's books just changed: check them, and report them to the market
        _check_books((node,), now)
        self.market.booked(node)


# -- workloads shared across a sweep ---------------------------------------

def _workload_key(config: SimConfig) -> tuple:
    # everything a run's tasks depend on: its workload stream is forked from
    # the masked seed, and the strategy and the workers play no part
    return config.seed & MASK64, config.num_devices, config.workload


_shared = None  # the open sweep's masked seed -> (key, tasks), or None outside shared_workloads


@contextmanager
def shared_workloads():
    """Within the block, each masked seed keeps the tuple of its last draw
    and that draw's workload key. A run of the same key gets the tuple as is
    (a `Task` is frozen; a run replaces one via `_valued`); a run of another
    key draws its own, which takes the seed's place. A sweep changes a seed's
    key only between sweep values, so each of its workloads is drawn once.
    `run(config)` keeps its one argument, so the engine finds the open block
    here, not as a parameter; once the block exits, however it exits,
    nothing of it is kept."""
    global _shared
    _shared = {}
    try:
        yield
    finally:
        _shared = None


def _workload(config: SimConfig, rng: Rng) -> tuple:
    if _shared is None:
        return generate_workload(config, rng)
    key = _workload_key(config)
    kept, tasks = _shared.get(key[0], (None, None))
    if kept != key:
        tasks = generate_workload(config, rng)
        # set only once the draw returned: a draw that raises stores nothing
        _shared[key[0]] = key, tasks
    return tasks


class _Engine:
    """One run: the event heap, the log records and the metrics. Which node
    hosts a task is its market's choice, and how it runs there its
    executor's."""

    # slots keep every `self.x` load in the event loop at a fixed offset
    __slots__ = ("config", "rng_nodes", "rng_workload", "rng_dyn", "nodes", "node_by_id",
                 "market", "executor", "tasks", "heap", "log", "payments", "retries",
                 "pending_exec", "finished", "failed", "arrived", "per_node_tasks", "peak_mem",
                 "busy_cc", "cpu_acc", "cpu_last")

    def __init__(self, config: SimConfig):
        self.config = config
        base = new_rng(config.seed)
        self.rng_nodes, self.rng_workload, self.rng_dyn = (base.fork(k) for k in (1, 2, 3))
        self.nodes = self._build_nodes()
        self.node_by_id = {n.id: n for n in self.nodes}
        self.tasks, self.heap, self.log = {}, [], _Records()
        self.payments, self.retries = {}, {}
        self.pending_exec = {}  # task id -> the executor's (node id, container id, ..., container)
        self.finished = {}      # task id -> (completion seconds, missed flag)
        self.failed, self.arrived = set(), 0
        self.per_node_tasks = {n.id: 0 for n in self.nodes}
        self.peak_mem = {n.id: 0.0 for n in self.nodes}
        self.busy_cc, self.cpu_acc, self.cpu_last = ({n.id: 0.0 for n in self.nodes}
                                                     for _ in range(3))
        market, executor = self._parts()
        self.market = market(self)
        self.executor = executor(self, self.market)

    def _parts(self) -> tuple:
        # the run's (market, executor): the only reader of strategy and auction mode
        strategy = self.config.strategy
        if strategy not in ("aucrac", "auction_basic"):
            market = _Queues if strategy in ("mct", "greedy") else _Assign
        elif self.config.auction_mode == "literal":
            market = _Literal
        else:
            market = _OpenAuction if strategy == "aucrac" else _Auction
        return market, _Containers if strategy == "aucrac" else _WholeNode

    def _build_nodes(self):
        # the templates in turn; a small deterministic price spread keeps
        # identical templates distinguishable
        return [WorkerNode(id=f"wn{i:03d}", cpu=t.cpu, memory=t.memory_mb, power=t.power_w,
                           unit_cost=t.unit_cost * self.rng_nodes.uniform(0.95, 1.05),
                           time_const=t.time_const_s, executor_mode=t.executor_mode,
                           executor=self.config.executor)
                for i, t in enumerate(islice(cycle(self.config.node_templates),
                                             self.config.num_workers))]

    def _cpu_change(self, node_id: str, delta: float, now: float):
        span = now - self.cpu_last[node_id]
        if span > 0:
            self.cpu_acc[node_id] += (self.busy_cc[node_id] / self.node_by_id[node_id].cpu) * span
            self.cpu_last[node_id] = now
        self.busy_cc[node_id] += delta

    # -- handlers ----------------------------------------------------------

    def _handle_arrival(self, now: float, task_id: str):
        self.arrived += 1
        task = self.tasks[task_id] = self.market.price(self.tasks[task_id])
        self.log.append((_ARRIVED, (now, task_id, task.intensity)))
        self._hand_off(now, (now, ROUND, task_id))

    def _handle_round(self, now: float, task_id: str):
        task = self.tasks[task_id]
        self.executor.reap(now)
        pick = self.market.pick(task, now)
        start = None if pick is None else self.executor.commit(now, task, pick[1])
        if start is not None:
            payment, node = pick
            self.market.close(task_id)
            self.payments[task_id] = payment
            self.log.append((_ASSIGNED, (now, task_id, node.id, node.id, payment)))
            self._hand_off(now, (start, START, task_id))
            return
        count = self.retries[task_id] = self.retries.get(task_id, 0) + 1
        if count > self.config.executor.max_requeues:
            self.failed.add(task_id)
            self.market.close(task_id)
            self.log.append((_FAILED, (now, task_id)))
        else:
            self.log.append((_RETRIED, (now, task_id, count)))
            heapq.heappush(self.heap, (now + self.config.retry_interval_s, ROUND, task_id))

    def _handle_exec_start(self, now: float, task_id: str):
        node_id, container_id, cc, mem, created, finish, _ = self.pending_exec[task_id]
        self.per_node_tasks[node_id] += 1
        self._cpu_change(node_id, cc, now)
        heapq.heappush(self.heap, (finish, FINISH, task_id))
        self.executor.start(now, node_id, mem)
        self.log.append((_STARTED, (now, task_id, node_id, container_id, cc,
                                    self.node_by_id[node_id].cpu, mem, created)))

    def _handle_exec_finish(self, now: float, task_id: str):
        node_id, container_id, cc, mem, _created, _finish, _ = self.pending_exec[task_id]
        task = self.tasks[task_id]
        completion = now - task.arrival_time
        self.finished[task_id] = (completion, completion > task.deadline)
        self._cpu_change(node_id, -cc, now)
        self.log.append((_FINISHED, (now, task_id, node_id, container_id, cc, mem, completion)))
        self.executor.release(now, task_id)  # the task's container, if it ran in one

    def _hand_off(self, now: float, entry: tuple):
        # a handler's last step: the task's next event, a ROUND or a START. If
        # it is due now and no pending entry sorts before it, the loop would
        # pop it next, so it runs at once; otherwise it waits in the heap
        heap = self.heap
        if entry[0] == now and (not heap or entry < heap[0]):
            (self._handle_round if entry[1] == ROUND else self._handle_exec_start)(now, entry[2])
        else:
            heapq.heappush(heap, entry)

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        for task in _workload(self.config, self.rng_workload):
            self.tasks[task.id] = task
            heapq.heappush(self.heap, (task.arrival_time, ARRIVAL, task.id))
        handlers = (self._handle_arrival, self._handle_round, self._handle_exec_finish,
                    self._handle_exec_start)  # indexed by rank
        horizon = self.config.horizon_s
        last = 0.0
        while self.heap:
            time, rank, task_id = heapq.heappop(self.heap)
            if time > horizon:
                break
            handlers[rank](time, task_id)
            if time < last - 1e-9:
                raise StateError(f"event time went backwards: {time} after {last}")
            last = time
        _check_books(self.nodes)
        return SimResult(metrics=self._metrics(), log_lines=self.log,
                         tasks=tuple(self.tasks.values()), nodes=tuple(self.nodes))

    def _metrics(self) -> MetricsRecord:
        horizon = self.config.horizon_s
        completions = sorted(c for c, _ in self.finished.values())
        missed = sum(1 for _, m in self.finished.values() if m)
        profit = 0.0
        for tid in self.finished:  # the fold of mn_profit, in the same order
            profit += mn_revenue(self.tasks[tid], self.config.unit_price) - self.payments[tid]
        if not math.isfinite(profit):
            # a payment may have overflowed: let the outcome validator reject it
            for tid in self.finished:
                AuctionOutcome(task_id=tid, winner=self.pending_exec[tid][0],
                               payment=self.payments[tid])
        cpu_fracs = []
        for node in self.nodes:
            self._cpu_change(node.id, 0.0, horizon)  # close the integral at the horizon
            cpu_fracs.append(self.cpu_acc[node.id] / horizon if horizon > 0 else 0.0)
        per_node = tuple(self.per_node_tasks[n.id] for n in self.nodes)
        return MetricsRecord(
            tasks_arrived=self.arrived, tasks_completed=len(self.finished) - missed,
            deadline_miss=missed, failed_to_place=len(self.failed),
            in_flight=self.arrived - len(self.finished) - len(self.failed),
            mean_completion_s=left_sum(completions) / len(completions) if completions else 0.0,
            median_completion_s=_percentile(completions, 0.5),
            p95_completion_s=_percentile(completions, 0.95),
            fairness_jain=jain_fairness(per_node), mn_profit=profit, per_node_tasks=per_node,
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
    busy, mem, cap, series = {}, {}, {}, {}

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
