"""Domain types, configuration, and workload generation.

Value types are frozen dataclasses validated at construction; the worker
node and container carry mutable runtime state and are owned by a single
simulation run at a time.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

from .errors import ConstraintError, SchemaError, StateError, UnknownEnumError
from .rng import Rng

STRATEGIES = ("aucrac", "random", "round_robin", "greedy", "mct", "auction_basic")
AUCTION_MODES = ("literal", "repaired")
WIN_RULES = ("highest", "lowest")
EXECUTOR_MODES = ("container", "vm")
INTENSITY_CLASSES = ("LIT", "MIT", "HIT")

_SUM_TOL = 1e-9


def _finite(value) -> bool:
    # ints are always finite; isfinite would overflow on a huge one
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _positive(name, value):
    if not _finite(value) or not value > 0:
        raise ConstraintError(name, f"must be a positive finite number, got {value!r}")


def _non_negative(name, value):
    if not _finite(value) or value < 0:
        raise ConstraintError(name, f"must be a non-negative finite number, got {value!r}")


def _integer(name, value, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool) or (minimum is not None and value < minimum):
        kind = {None: "an integer", 0: "a non-negative integer",
                1: "a positive integer"}.get(minimum, f"an integer >= {minimum}")
        raise ConstraintError(name, f"must be {kind}")


def _in_enum(name, value, allowed):
    if value not in allowed:
        raise UnknownEnumError(name, f"must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class ResourceWeights:
    """Weights of the three resource dimensions in the cost model."""

    lambda1: float = 1.0 / 3.0
    lambda2: float = 1.0 / 3.0
    lambda3: float = 1.0 / 3.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            v = getattr(self, name)
            if not _finite(v) or not 0.0 < v < 1.0:
                raise ConstraintError(f"weights.{name}", f"must lie strictly in (0, 1), got {v!r}")
        total = self.lambda1 + self.lambda2 + self.lambda3
        if abs(total - 1.0) > 1e-12:
            raise ConstraintError(
                "weights.lambdas",
                f"lambda1 + lambda2 + lambda3 must equal 1, got {total!r}",
            )
        _positive("weights.alpha1", self.alpha1)
        _positive("weights.alpha2", self.alpha2)
        _positive("weights.delta", self.delta)


@dataclass(frozen=True)
class Task:
    """One offloadable unit of work submitted by an IoT device."""

    id: str
    data_in: float        # MB shipped to the worker
    data_out: float       # MB shipped back
    cycles: float         # CPU cycles demanded
    memory: float         # MB demanded
    power: float          # watts demanded
    deadline: float       # seconds allowed end to end
    td_max: float         # seconds allowed for the execution slice itself
    arrival_time: float = 0.0
    value: float | None = None  # currency; filled once a valuation is assessed
    intensity: str = "MIT"

    def __post_init__(self):
        for name in ("data_in", "data_out", "cycles", "memory", "power", "arrival_time"):
            _non_negative(f"task.{name}", getattr(self, name))
        _positive("task.deadline", self.deadline)
        _positive("task.td_max", self.td_max)
        if self.value is not None:
            _non_negative("task.value", self.value)
        _in_enum("task.intensity", self.intensity, INTENSITY_CLASSES)


def _trusted_task(id, data_in, data_out, cycles, memory, power, deadline, td_max,
                  arrival_time, value, intensity) -> Task:
    """A Task from values that already passed its checks, built without
    re-running them: draws from a validated WorkloadSpec, or the fields of
    a valid Task. The fields come in `Task`'s order."""
    task = object.__new__(Task)
    # set one by one in field order, as Task.__init__ does: a bulk __dict__
    # update would give each task its own, larger attribute table
    store = object.__setattr__
    store(task, "id", id)
    store(task, "data_in", data_in)
    store(task, "data_out", data_out)
    store(task, "cycles", cycles)
    store(task, "memory", memory)
    store(task, "power", power)
    store(task, "deadline", deadline)
    store(task, "td_max", td_max)
    store(task, "arrival_time", arrival_time)
    store(task, "value", value)
    store(task, "intensity", intensity)
    return task


def _valued(task: Task, value: float) -> Task:
    """`task` with the posted value `value`, which must be a valid one. The
    fields are read one by one, so the original's __dict__ is never built."""
    return _trusted_task(task.id, task.data_in, task.data_out, task.cycles, task.memory,
                         task.power, task.deadline, task.td_max, task.arrival_time, value,
                         task.intensity)


@dataclass(frozen=True)
class ExecutorConfig:
    """Placement settings, plus the fixed constants of the container-versus-VM
    load model behind the memory and CPU figures."""

    lib_overhead_mb: float = 20.0        # per container image layer cost
    os_image_overhead_mb: float = 512.0  # per VM guest image cost
    slice_granularity: float = 2e9       # cycles/s; compute slices are multiples of this
    idle_ttl_s: float = 4.0              # free containers older than this get destroyed
    max_requeues: int = 3
    base_footprint_mb: ClassVar[float] = 64.0     # runtime daemon itself
    task_memory_mb: ClassVar[float] = 128.0       # reference task size for the footprint model
    cpu_share_per_task: ClassVar[float] = 0.05    # reference per-task CPU share
    vm_cpu_overhead_frac: ClassVar[float] = 0.25  # extra CPU a VM guest burns over a container

    def __post_init__(self):
        _non_negative("executor.lib_overhead_mb", self.lib_overhead_mb)
        _non_negative("executor.os_image_overhead_mb", self.os_image_overhead_mb)
        _positive("executor.slice_granularity", self.slice_granularity)
        _positive("executor.idle_ttl_s", self.idle_ttl_s)
        _integer("executor.max_requeues", self.max_requeues, 0)


class Container:
    """A compute slice plus memory carved out of one worker node."""

    __slots__ = ("id", "node_id", "memory", "compute", "lib_overhead", "state", "freed_at")

    def __init__(self, id: str, node_id: str, memory: float, compute: float,
                 lib_overhead: float):
        _positive("container.memory", memory)
        _positive("container.compute", compute)
        _non_negative("container.lib_overhead", lib_overhead)
        self.id = id
        self.node_id = node_id
        self.memory = memory
        self.compute = compute
        self.lib_overhead = lib_overhead
        self.state = "free"
        self.freed_at = 0.0

    def mark_busy(self):
        if self.state != "free":
            raise StateError(f"container {self.id}: cannot occupy while {self.state}")
        self.state = "busy"

    def mark_free(self, now: float = 0.0):
        if self.state != "busy":
            raise StateError(f"container {self.id}: cannot release while {self.state}")
        self.state = "free"
        self.freed_at = now

    def __repr__(self):
        return f"Container({self.id}, mem={self.memory}, compute={self.compute}, {self.state})"


class WorkerNode:
    """One worker with fixed capacities and a pool of live containers."""

    __slots__ = ("id", "cpu", "memory", "power", "unit_cost", "time_const",
                 "executor_mode", "executor", "container_pool", "free_memory",
                 "free_compute", "_next_container")

    def __init__(self, id: str, cpu: float, memory: float, power: float,
                 unit_cost: float, time_const: float, executor_mode: str = "container",
                 executor: ExecutorConfig | None = None):
        _positive("node.cpu", cpu)
        _positive("node.memory", memory)
        _positive("node.power", power)
        _positive("node.unit_cost", unit_cost)
        _positive("node.time_const", time_const)
        _in_enum("node.executor_mode", executor_mode, EXECUTOR_MODES)
        self.id = id
        self.cpu = cpu
        self.memory = memory
        self.power = power
        self.unit_cost = unit_cost
        self.time_const = time_const
        self.executor_mode = executor_mode
        self.executor = executor if executor is not None else ExecutorConfig()
        self.container_pool: list[Container] = []
        self.free_memory = memory
        self.free_compute = cpu
        self._next_container = 0

    def live_memory(self) -> float:
        return sum(c.memory for c in self.container_pool)

    def next_container_id(self) -> str:
        cid = f"{self.id}-c{self._next_container:04d}"
        self._next_container += 1
        return cid

    def __repr__(self):
        return f"WorkerNode({self.id}, cpu={self.cpu:g}, free_mem={self.free_memory:g})"


@dataclass(frozen=True)
class BidDistribution:
    """Distribution a bidder assumes for its rivals' bids."""

    kind: str
    lo: float = 0.0
    hi: float = 1.0
    samples: tuple = ()

    def __post_init__(self):
        _in_enum("distribution.kind", self.kind, ("uniform", "empirical"))
        if self.kind == "uniform" and not self.lo < self.hi:
            raise ConstraintError("distribution.lo", "uniform support needs lo < hi")
        if self.kind == "empirical":
            object.__setattr__(self, "samples", tuple(sorted(self.samples)))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "BidDistribution":
        return cls(kind="uniform", lo=lo, hi=hi)

    @classmethod
    def empirical(cls, samples) -> "BidDistribution":
        return cls(kind="empirical", samples=tuple(samples))

    def cdf(self, x: float) -> float:
        if self.kind == "uniform":
            return min(1.0, max(0.0, (x - self.lo) / (self.hi - self.lo)))
        return bisect.bisect_right(self.samples, x) / len(self.samples)

    @property
    def support_lo(self) -> float:
        return self.lo if self.kind == "uniform" else self.samples[0]

    @property
    def support_hi(self) -> float:
        return self.hi if self.kind == "uniform" else self.samples[-1]


@dataclass(frozen=True)
class Bid:
    """One sealed bid a worker submits for one task."""

    node_id: str
    task_id: str
    amount: float
    submit_time: float
    eligible: int  # 1 iff the bidder can finish inside the task deadline

    def __post_init__(self):
        _non_negative("bid.amount", self.amount)
        if self.eligible not in (0, 1):
            raise ConstraintError("bid.eligible", f"must be 0 or 1, got {self.eligible!r}")


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of one sealed-bid round for one task."""

    task_id: str
    winner: str | None
    payment: float
    losing_bids: tuple = ()

    def __post_init__(self):
        _non_negative("outcome.payment", self.payment)
        if self.winner is None and self.payment != 0.0:
            raise ConstraintError("outcome.payment", "must be 0 when no winner exists")


@dataclass(frozen=True)
class MetricsRecord:
    """Aggregate results of one simulation run."""

    tasks_arrived: int
    tasks_completed: int       # finished inside their deadline
    deadline_miss: int         # finished, but late
    failed_to_place: int
    in_flight: int             # still queued or executing at the horizon
    mean_completion_s: float
    median_completion_s: float
    p95_completion_s: float
    fairness_jain: float
    mn_profit: float
    per_node_tasks: tuple
    peak_memory_mb: tuple      # one entry per node
    mean_cpu_frac: float

    def __post_init__(self):
        n = max(1, len(self.per_node_tasks))
        if not (1.0 / n - 1e-9 <= self.fairness_jain <= 1.0 + 1e-9):
            raise ConstraintError("metrics.fairness_jain", f"outside [1/n, 1]: {self.fairness_jain!r}")
        if self.deadline_miss > self.tasks_arrived:
            raise ConstraintError("metrics.deadline_miss", "cannot exceed tasks_arrived")
        total = self.tasks_completed + self.deadline_miss + self.failed_to_place + self.in_flight
        if total != self.tasks_arrived:
            raise ConstraintError(
                "metrics.tasks_arrived",
                f"conservation broken: {self.tasks_arrived} arrived vs {total} accounted",
            )
        if not _finite(self.mn_profit):  # a revenue, or a sum of payments, that overflowed
            raise ConstraintError("metrics.mn_profit", f"must be a finite number, got {self.mn_profit!r}")


@dataclass(frozen=True)
class NodeTemplate:
    """Blueprint for spawning worker nodes."""

    cpu: float = 4e9
    memory_mb: float = 8192.0
    power_w: float = 200.0
    unit_cost: float = 1.0
    time_const_s: float = 5.0
    executor_mode: str = "container"

    def __post_init__(self):
        _positive("node_template.cpu", self.cpu)
        _positive("node_template.memory_mb", self.memory_mb)
        _positive("node_template.power_w", self.power_w)
        _positive("node_template.unit_cost", self.unit_cost)
        _positive("node_template.time_const_s", self.time_const_s)
        _in_enum("node_template.executor_mode", self.executor_mode, EXECUTOR_MODES)


@dataclass(frozen=True)
class WorkloadSpec:
    """Task generation knobs. Cycle ranges split tasks into three intensity classes."""

    arrival_rate_hz: float = 0.4    # tasks per second per device
    tasks_per_device: int = 3
    mix_lit: float = 0.4
    mix_mit: float = 0.3
    mix_hit: float = 0.3
    lit_cycles: tuple = (1e8, 5e8)
    mit_cycles: tuple = (5e8, 2e9)
    hit_cycles: tuple = (2e9, 1e10)
    memory_mb: tuple = (64.0, 512.0)
    power_w: tuple = (1.0, 10.0)
    data_in_mb: tuple = (1.0, 20.0)
    data_out_mb: tuple = (0.1, 2.0)
    deadline_s: tuple = (5.0, 20.0)
    td_max_s: tuple = (2.0, 4.0)

    def __post_init__(self):
        _positive("workload.arrival_rate_hz", self.arrival_rate_hz)
        _integer("workload.tasks_per_device", self.tasks_per_device, 0)
        for name in ("mix_lit", "mix_mit", "mix_hit"):
            _non_negative(f"workload.{name}", getattr(self, name))
        total = self.mix_lit + self.mix_mit + self.mix_hit
        if abs(total - 1.0) > _SUM_TOL:
            raise ConstraintError("workload.mix", f"intensity mix fractions must sum to 1, got {total!r}")
        for name in ("lit_cycles", "mit_cycles", "hit_cycles", "memory_mb", "power_w",
                     "data_in_mb", "data_out_mb", "deadline_s", "td_max_s"):
            rng_pair = getattr(self, name)
            if (not isinstance(rng_pair, (tuple, list)) or len(rng_pair) != 2
                    or not all(map(_finite, rng_pair)) or not rng_pair[0] <= rng_pair[1]):
                raise ConstraintError(f"workload.{name}", f"must be an ordered (lo, hi) pair, got {rng_pair!r}")
            _positive(f"workload.{name}", rng_pair[0])  # and so hi, which is at least lo
            object.__setattr__(self, name, (float(rng_pair[0]), float(rng_pair[1])))

    @property
    def mix(self) -> tuple:
        return (self.mix_lit, self.mix_mit, self.mix_hit)


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on, besides the seed stream itself."""

    seed: int = 0
    num_devices: int = 50
    num_workers: int = 10
    strategy: str = "aucrac"
    auction_mode: str = "repaired"
    win_rule: str = "lowest"
    unit_price: float = 0.5          # currency per MB the manager charges devices
    bid_margin: float = 0.1          # markup workers put on their assessed cost
    horizon_s: float = 300.0
    retry_interval_s: float = 2.0
    weights: ResourceWeights = field(default_factory=ResourceWeights)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    node_templates: tuple = (
        NodeTemplate(cpu=2e9, memory_mb=4096.0, power_w=100.0),
        NodeTemplate(cpu=5e9, memory_mb=8192.0, power_w=200.0),
        NodeTemplate(cpu=1.2e10, memory_mb=16384.0, power_w=400.0),
    )

    def __post_init__(self):
        _integer("seed", self.seed)
        _integer("num_devices", self.num_devices, 0)
        _integer("num_workers", self.num_workers, 2)
        _in_enum("strategy", self.strategy, STRATEGIES)
        _in_enum("auction_mode", self.auction_mode, AUCTION_MODES)
        _in_enum("win_rule", self.win_rule, WIN_RULES)
        _non_negative("unit_price", self.unit_price)
        _non_negative("bid_margin", self.bid_margin)
        # horizon 0 is allowed and means "observe nothing": an empty run
        _non_negative("horizon_s", self.horizon_s)
        _positive("retry_interval_s", self.retry_interval_s)
        if not self.node_templates:
            raise ConstraintError("node_templates", "need at least one template")
        object.__setattr__(self, "node_templates", tuple(self.node_templates))


# --- JSON round trip ------------------------------------------------------

def _check_unknown(doc: dict, allowed, where: str):
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{where}.{key}" if where else key, "unknown key")


def _coerce(cls, doc: dict, where: str = ""):
    """Build dataclass `cls` from a plain dict, rejecting unknown keys. The top
    level also builds its blocks and templates; lists become tuples inside them."""
    if not isinstance(doc, dict):
        raise SchemaError(where or "config", f"expected an object, got {type(doc).__name__}")
    _check_unknown(doc, {f.name for f in fields(cls)}, where)
    kwargs = {}
    for key, raw in doc.items():
        if key in _NESTED:
            raw = _coerce(_NESTED[key], raw, key)
        elif key == "node_templates":
            if not isinstance(raw, list):
                raise SchemaError("node_templates", "expected a list of objects")
            raw = tuple(_coerce(NodeTemplate, t, f"{key}[{i}]") for i, t in enumerate(raw))
        elif where and isinstance(raw, list):
            raw = tuple(raw)
        kwargs[key] = raw
    return cls(**kwargs)


_NESTED = {
    "weights": ResourceWeights,
    "workload": WorkloadSpec,
    "executor": ExecutorConfig,
}


def config_from_dict(doc: dict) -> SimConfig:
    return _coerce(SimConfig, doc)


def _as_plain(value):
    if isinstance(value, tuple):
        return [_as_plain(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {f.name: _as_plain(getattr(value, f.name)) for f in fields(value)}
    return value


def config_to_dict(config: SimConfig) -> dict:
    return _as_plain(config)


def config_to_json(config: SimConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True)


def _reject_constant(literal: str):
    raise SchemaError("config", f"not valid JSON: {literal} is not a number")


def _json_doc(text: str):
    """The parsed JSON of a config; `config_from_dict` checks its shape."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested for the parser
        raise SchemaError("config", f"not valid JSON: {exc}") from exc


def config_from_json(text: str) -> SimConfig:
    return config_from_dict(_json_doc(text))


def default_config(**overrides) -> SimConfig:
    return replace(SimConfig(), **overrides) if overrides else SimConfig()


# --- workload generation --------------------------------------------------

def _class_counts(n: int, mix: tuple) -> list[int]:
    # largest remainder keeps the counts within rounding of the exact proportions
    exact = [n * m for m in mix]
    counts = [math.floor(x) for x in exact]
    remainder = n - sum(counts)
    order = sorted(range(len(mix)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in range(remainder):
        counts[order[i]] += 1
    return counts


def generate_workload(config: SimConfig, rng: Rng) -> tuple:
    """Draw the full task sequence for one run.

    Pure in (config, rng state): the same seed gives the same tasks, and
    arrival times come out non-decreasing by construction.
    """
    wl = config.workload
    n = config.num_devices * wl.tasks_per_device
    if n == 0:
        return ()
    counts = _class_counts(n, wl.mix)
    labels = []
    for cls_name, count in zip(INTENSITY_CLASSES, counts):
        labels.extend([cls_name] * count)
    rng.shuffle(labels)

    def span(pair):  # a draw u lands at lo + (hi - lo) * u, as in Rng.uniform
        return pair[0], pair[1] - pair[0]

    cycle_spans = {"LIT": span(wl.lit_cycles), "MIT": span(wl.mit_cycles),
                   "HIT": span(wl.hit_cycles)}
    ((mem_lo, mem_d), (pow_lo, pow_d), (in_lo, in_d),
     (out_lo, out_d), (dl_lo, dl_d), (td_lo, td_d)) = map(span, (
         wl.memory_mb, wl.power_w, wl.data_in_mb, wl.data_out_mb, wl.deadline_s, wl.td_max_s))
    total_rate = config.num_devices * wl.arrival_rate_hz
    log, randoms = math.log, rng.randoms
    tasks = []
    clock = 0.0
    for i, label in enumerate(labels):
        # a task's eight draws, in the order Rng.expovariate and Rng.uniform took them
        u_gap, u_cycles, u_mem, u_pow, u_in, u_out, u_dl, u_td = randoms(8)
        clock += -log(1.0 - u_gap) / total_rate
        cyc_lo, cyc_d = cycle_spans[label]
        tasks.append(_trusted_task(f"t{i:05d}", in_lo + in_d * u_in, out_lo + out_d * u_out,
                                   cyc_lo + cyc_d * u_cycles, mem_lo + mem_d * u_mem,
                                   pow_lo + pow_d * u_pow, dl_lo + dl_d * u_dl,
                                   td_lo + td_d * u_td, clock, None, label))
    # every draw lies inside a range WorkloadSpec validated; only the
    # arrival clock can leave them, by overflowing, and it never decreases
    _non_negative("task.arrival_time", clock)
    return tuple(tasks)

