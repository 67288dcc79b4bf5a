"""The event engine with each market and executor replaced by the
definition it reproduces: the oracle every fast path is tested against.

- `price` of every auction market: the left-fold mean of `valuation` over
  the nodes that can host the task, or of `valuation_unchecked` over every
  node when none can.
- `pick` of the class auctions (`sim._Auction`, `sim._OpenAuction`):
  `run_task_auction` over every node.
- `pick` of the literal market (`sim._Literal`): `allocate_tasks_literal`,
  its standing bids carried from round to round.
- `pick` of the whole-node markets: `assign` for `sim._Assign`, and for
  `sim._Queues` the `mct` and `greedy` definitions in `ReferenceAssign`.
- `commit` of the container executor: `select_container`, then a lookup
  of its pick by id.
- `release` of the container executor: `release_container`, a lookup of
  the task's container by id, which must find the container the commit
  held.
- `reap` of the container executor: `reap_idle` on every node, in node
  order, on every round.
- `check_books` of both executors: the books of every node, and each
  class's open list against its definition, the one piece of fast-path
  state that no output shows. It runs after every `commit`, `release` and
  `reap` of the executor, since books change only inside those; the
  fast executor checks only the node a change touched. The reference
  auctions keep the open lists of `sim._OpenAuction` for this check, but
  never read them.
- `_hand_off` of the engine: every event goes through the heap, one pop
  per handler, where the fast engine runs a task's same-instant ROUND or
  START at once when nothing pending sorts before it.

A new market or executor adds its reference class here, in `REFERENCE`,
which maps each class the engine can choose to its reference. `market`
draws the nodes and tasks of the single-round comparison, `same_round`, and
`whole_node_steps` those of the pick-by-pick one, `same_picks`.
"""

import heapq
from collections import Counter
from dataclasses import replace

from hypothesis import strategies as st

import aucrac.containers as ct
import aucrac.sim as sim
from aucrac.auction import allocate_tasks_literal
from aucrac.core import ResourceWeights, Task, WorkerNode, default_config, generate_workload
from aucrac.costmodel import execution_time, valuation, valuation_unchecked
from aucrac.errors import AucracError, InfeasibleError, PlacementRejected
from aucrac.rng import new_rng


def over(nodes, engine=sim._Engine):
    """`engine`, run over the given nodes."""
    return type("GivenNodes", (engine,), {"_build_nodes": lambda self: nodes})


class _Reference:
    """A market or executor that keeps its engine, and counts into its `seen`."""

    def __init__(self, engine, *market):
        super().__init__(engine, *market)
        self.engine, self.seen = engine, engine.seen


class ReferenceAuction(_Reference, sim._OpenAuction):
    def price(self, task):
        config = self.engine.config
        asks = []
        for node in self.nodes:
            try:
                asks.append(valuation(node, task, config.weights, config.bid_margin))
            except InfeasibleError:
                continue
        if not asks:
            asks = [valuation_unchecked(node, task, config.weights, config.bid_margin)
                    for node in self.nodes]
        self.offers[task.id] = None  # the round drops the entry when it assigns or fails
        return replace(task, value=sim.left_sum(asks) / len(asks))

    def pick(self, task, now):
        outcome = sim.run_task_auction(task, self.nodes, self.engine.config, now)
        if outcome is None or outcome.winner is None:
            self.seen["retried"] += 1
            return None
        self.seen["taken"] += 1
        return outcome.payment, self.engine.node_by_id[outcome.winner]


class ReferenceLiteral(ReferenceAuction):
    bids = None  # the batch procedure's standing bids

    def pick(self, task, now):
        config = self.engine.config
        asks = [valuation_unchecked(n, task, config.weights, config.bid_margin)
                for n in self.nodes]
        alloc = allocate_tasks_literal(asks, [task], initial_bids=self.bids)
        self.bids = alloc.bids
        self.seen["positive" if task.value > 0 else "zero"] += 1
        self.seen["nan_asks"] += any(a != a for a in asks)
        return task.value, self.nodes[alloc.order[alloc.assignments[0]]]


class ReferenceAssign(_Reference, sim._Assign):
    def pick(self, task, now):
        if self.strategy not in ("mct", "greedy"):
            return super().pick(task, now)
        nodes, available_at = self.nodes, self.engine.executor.available_at
        every = range(len(nodes))  # keyed by position: two nodes may share an id
        busy = [available_at.get(n.id, 0.0) > now for n in nodes]
        if self.strategy == "mct":  # the least eta, then the least id
            eta = [max(0.0, available_at.get(n.id, 0.0) - now) + execution_time(n, task)
                   for n in nodes]
            i = min(every, key=lambda j: (eta[j], nodes[j].id))
            tied = [j for j in every if eta[j] == eta[i]]
            self.seen["busy"] += busy[i]
            self.seen["class_tie"] += len({(nodes[j].cpu, nodes[j].time_const) for j in tied}) > 1
            self.seen["busy_tie"] += len(tied) > 1 and any(busy[j] for j in tied)
        else:  # the most free cpu, none if busy, then the most cpu, then the first node
            i = max(every, key=lambda j: (0.0 if busy[j] else nodes[j].cpu, nodes[j].cpu))
            tied = [j for j in every if nodes[j].cpu == nodes[i].cpu and busy[j] == busy[i]]
            self.seen["all_busy"] += all(busy)
            self.seen["position_not_id"] += min(nodes[j].id for j in tied) != nodes[i].id
        return valuation_unchecked(nodes[i], task, self.weights, self.margin), nodes[i]


class _FullCheck(_Reference):
    def commit(self, now, *args):
        start = super().commit(now, *args)
        self.check_books(now)
        return start

    def release(self, now, task_id):
        super().release(now, task_id)
        self.check_books(now)

    def reap(self, now):
        super().reap(now)
        self.check_books(now)

    def check_books(self, now):
        sim._check_books(self.engine.nodes, now)
        for cls in getattr(self.market, "classes", ()):  # the auctions', not the queues
            # open: a free container, or room for the smallest slice
            ranks = [r for r, (_, _, node) in enumerate(cls.members)
                     if any(c.state == "free" for c in node.container_pool)
                     or node.free_compute >= node.executor.slice_granularity]
            assert cls.open == ranks, "an open list left its definition"
            self.seen["closed"] += len(cls.members) - len(ranks)


class ReferenceWholeNode(_FullCheck, sim._WholeNode):
    pass


class _ContainerDefinitions(sim._Containers):
    def commit(self, now, task, node):
        decision = ct.select_container(node, task)
        self.seen[decision.action] += 1
        if decision.action == "requeue":
            return None
        if decision.action == "reuse":
            container = next(c for c in node.container_pool if c.id == decision.container_id)
            least = [c for c in node.container_pool if c.state == "free"
                     and c.memory > task.memory and task.cycles / c.compute < task.td_max
                     and c.compute == container.compute]
            self.seen["compute_tie"] += len(least) > 1
            self.seen["id_tie"] += len([c for c in least if c.memory == container.memory]) > 1
            container.mark_busy()
        else:
            try:
                container = ct.create_container(node, task)
            except PlacementRejected:
                return None
            self.peak[node.id] = max(self.peak[node.id], node.memory - node.free_memory)
        self.pending[task.id] = (node.id, container.id, container.compute, container.memory,
                                 int(decision.action == "create"),
                                 now + task.cycles / container.compute, container)
        self._touch(node, now)
        return now

    def release(self, now, task_id):
        node_id, container_id, cc, mem, _created, _finish, held = self.pending[task_id]
        node = self.node_by_id[node_id]
        released = ct.release_container(node, container_id, now)
        assert released is held, "the commit held another container"
        self.freed.append((now, self.node_index[node_id]))
        self._touch(node, now)
        self.log.append((sim._RELEASED, (now, task_id, node_id, container_id, cc, mem)))

    def reap(self, now):
        self.freed.clear()  # the fast path's queue of due nodes
        for node in self.nodes:
            self.seen["reaped"] += self._reap_node(node, now)


class ReferenceContainers(_FullCheck, _ContainerDefinitions):
    pass


# each market and executor class of the engine -> its reference
REFERENCE = {sim._Auction: ReferenceAuction, sim._OpenAuction: ReferenceAuction,
             sim._Literal: ReferenceLiteral, sim._Assign: ReferenceAssign,
             sim._Queues: ReferenceAssign,
             sim._WholeNode: ReferenceWholeNode, sim._Containers: ReferenceContainers}


class ReferenceEngine(sim._Engine):
    """The engine run by the reference markets and executors. `seen` counts
    what the run met: rounds taken and retried, closed members, literal
    rounds of positive and of zero posted value, literal rounds with a NaN
    ask, and reaped containers; container commits by `select_container`'s
    action (`reuse`, `create`, `requeue`), and reuses whose least compute
    more than one fit shares (`compute_tie`), of which those whose memory
    also ties, so that the id decides (`id_tie`); and whole-node picks of a busy node under
    `mct`, `mct` picks whose least eta is shared across classes or by a busy
    node, `greedy` picks while every node is busy, and `greedy` picks tied
    with a node of smaller id; and per handoff of a task to its ROUND or
    START, whether the fast engine would run it at once (`round_inline`,
    `start_inline`), push it behind a pending entry of the same instant
    (`round_behind`, `start_behind`), or push it for a later time
    (`start_later`)."""

    def __init__(self, config):
        self.seen = Counter()
        super().__init__(config)

    def _parts(self):
        return tuple(REFERENCE[part] for part in super()._parts())

    def _hand_off(self, now, entry):
        heap = self.heap
        if entry[0] != now:
            branch = "later"
        elif heap and heap[0] < entry:
            branch = "behind"
        else:
            branch = "inline"
        self.seen[("round_" if entry[1] == sim.ROUND else "start_") + branch] += 1
        heapq.heappush(heap, entry)


def same_round(nodes, tasks, config):
    """Both engines price and take each task in turn over the given nodes. A
    pick is compared as (ask, node id), because the nodes may share an id.
    Returns the picks."""
    fast, reference = over(nodes)(config), over(nodes, ReferenceEngine)(config)
    reference.executor.check_books(0.0)  # the open lists of prefilled pools
    got = []
    for task in tasks:
        assert fast.market.price(task) == reference.market.price(task)
        picks = [pick and (pick[0], pick[1].id) for pick in (fast.market.pick(task, 0.0),
                                                             reference.market.pick(task, 0.0))]
        assert picks[0] == picks[1], picks
        got.append(picks[0])
    return got


def same_picks(nodes, steps, config):
    """Both engines pick and commit a node for each (now, task) in turn over
    the given nodes, under a whole-node strategy. Returns the picked ids."""
    fast, reference = over(nodes)(config), over(nodes, ReferenceEngine)(config)
    got = []
    for now, task in steps:
        picks = []
        for engine in (fast, reference):
            node = engine.market.pick(task, now)[1]
            engine.executor.commit(now, task, node)
            picks.append(node.id)
        assert picks[0] == picks[1], (now, task.cycles, picks)
        got.append(picks[0])
    return got


def _outcome(engine):
    try:
        result = engine.run()
    except AucracError as exc:
        return exc, (type(exc), str(exc))
    return None, (result.log_lines, result.metrics, [t.value for t in result.tasks])


def same_run(config):
    """Both engines run the config. They must give the same log lines, metrics
    and task values, or raise the same error, which is then raised again.
    Returns the reference engine, whose `seen` shows what the run reached."""
    error, got = _outcome(sim._Engine(config))
    reference = ReferenceEngine(config)
    want = _outcome(reference)[1]
    assert got == want, "the fast engine left the reference engine"
    if error is not None:
        raise error
    return reference


_pos = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def market(draw):
    """A config, its nodes and tasks, with the edge cases forced often: a
    node whose capacity equals a task's demand in one dimension (ratio
    exactly 1), a deadline equal to one node's execution time, twins that
    tie on every ask, listed out of id order or sharing an id, partly
    filled pools of busy and free containers, and 1100 nodes. Templates
    are one for all nodes, one per node, or a few with repeats, drawn from
    at most three capacities, and unit costs come from at most three, so
    that asks tie both inside a class and across classes."""
    l1 = draw(st.floats(0.01, 0.98))
    l2 = draw(st.floats(0.005, 0.99 - l1))
    weights = ResourceWeights(lambda1=l1, lambda2=l2, lambda3=1.0 - l1 - l2,
                              alpha1=draw(_pos), alpha2=draw(_pos), delta=draw(_pos))
    config = default_config(weights=weights,
                            win_rule=draw(st.sampled_from(["lowest", "highest"])),
                            bid_margin=draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 10.0)))
    rnd = draw(st.randoms(use_true_random=True))
    tasks = list(generate_workload(replace(config, num_devices=1), new_rng(rnd.randint(0, 99))))
    n = draw(st.sampled_from([1, 2, 9, 1100]) | st.integers(2, 40))
    kinds = draw(st.sampled_from(["one", "per_node", "few"]))
    count = {"one": 1, "per_node": n, "few": rnd.randint(2, 6)}[kinds]
    capacities = [[rnd.choice([1e9, 2e9, 5e9, 1.2e10]), rnd.choice([300.0, 4096.0, 16384.0]),
                   rnd.choice([8.0, 200.0])] for _ in range(rnd.randint(1, 3))]
    edge = draw(st.integers(-1, 2))
    if edge >= 0:  # the first node's demand ratio for the first task is exactly 1
        capacities[0][edge] = (tasks[0].cycles, tasks[0].memory, tasks[0].power)[edge]
    templates = [(*(capacities[0] if i == 0 else rnd.choice(capacities)),
                  rnd.choice([0.5, 5.0]) * (1 + i * 1e-4)) for i in range(count)]
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
    if draw(st.booleans()):  # a twin under the same id: only node order breaks the tie
        twin = nodes[0]
        nodes.append(WorkerNode(twin.id, twin.cpu, twin.memory, twin.power, twin.unit_cost,
                                twin.time_const, executor=config.executor))
    if draw(st.booleans()):
        tasks[1] = replace(tasks[1], deadline=execution_time(rnd.choice(nodes), tasks[1]))
    return config, nodes, tasks


@st.composite
def whole_node_steps(draw):
    """Nodes and (now, task) steps on which every whole-node tie happens:
    integer times and execution times, so a node falls free exactly at a
    round's time; classes with equal time_const / cpu, so etas tie across
    classes; and 2**60-cycle tasks, whose eta absorbs a short wait, so busy
    and idle nodes of one class tie. Ids are shuffled against node order."""
    kinds = draw(st.lists(st.sampled_from([(1.0, 1.0), (2.0, 2.0), (1.0, 3.0), (4.0, 1.0)]),
                          min_size=1, max_size=3))  # (cpu, time_const)
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations([f"wn{i:03d}" for i in range(n)]))
    nodes = [WorkerNode(id=node_id, cpu=cpu, memory=4096.0, power=100.0, unit_cost=1.0,
                        time_const=time_const)
             for node_id, (cpu, time_const) in zip(ids, map(kinds.__getitem__, draw(
                 st.lists(st.integers(0, len(kinds) - 1), min_size=n, max_size=n))))]
    steps = []
    now = 0.0
    for gap, cycles in draw(st.lists(st.tuples(st.sampled_from([0.0, 0.0, 1.0, 2.0]),
                                               st.sampled_from([1.0, 2.0, 4.0, 2.0**60])),
                                     min_size=1, max_size=30)):
        now += gap
        steps.append((now, Task(id="t", data_in=1.0, data_out=0.5, cycles=cycles, memory=1.0,
                                power=1.0, deadline=10.0, td_max=2.0)))
    return nodes, steps
