"""Domain type validation, config round trips, and workload generation."""

import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucrac.cli import ExperimentSpec
from aucrac.core import (INTENSITY_CLASSES, AuctionOutcome, Bid, ExecutorConfig,
                         MetricsRecord, NodeTemplate, ResourceWeights, SimConfig,
                         Task, WorkerNode, WorkloadSpec, _class_counts, _trusted_task,
                         _valued, config_from_dict, config_from_json, config_to_dict,
                         config_to_json, default_config, generate_workload)
from aucrac.errors import (ConstraintError, SchemaError, StateError,
                           UnknownEnumError)
from aucrac.rng import new_rng


# --- weights --------------------------------------------------------------

def test_weights_defaults_are_valid():
    w = ResourceWeights()
    assert w.lambda1 == pytest.approx(1 / 3)
    assert w.delta == 1.0


def test_weights_reject_bad_lambda_sum():
    with pytest.raises(ConstraintError, match="sum|equal 1"):
        ResourceWeights(lambda1=0.5, lambda2=0.5, lambda3=0.5)


def test_weights_reject_lambda_at_bounds():
    with pytest.raises(ConstraintError):
        ResourceWeights(lambda1=0.0, lambda2=0.5, lambda3=0.5)
    with pytest.raises(ConstraintError):
        ResourceWeights(lambda1=1.0, lambda2=0.5, lambda3=0.5)


def test_weights_reject_nonpositive_scalers():
    with pytest.raises(ConstraintError):
        ResourceWeights(alpha1=0.0)
    with pytest.raises(ConstraintError):
        ResourceWeights(delta=-1.0)


# --- task -----------------------------------------------------------------

def _task(**kw):
    base = dict(id="t", data_in=1.0, data_out=0.5, cycles=1e9, memory=100.0,
                power=5.0, deadline=10.0, td_max=3.0)
    base.update(kw)
    return Task(**base)


def test_task_accepts_valid_fields():
    t = _task()
    assert t.value is None
    assert t.intensity == "MIT"


def test_task_rejects_negative_demand():
    with pytest.raises(ConstraintError):
        _task(cycles=-1.0)


def test_task_rejects_zero_deadline():
    with pytest.raises(ConstraintError):
        _task(deadline=0.0)


def test_task_rejects_unknown_intensity():
    with pytest.raises(UnknownEnumError):
        _task(intensity="XXL")


# --- bids and outcomes ----------------------------------------------------

def test_bid_rejects_bad_eligibility_flag():
    with pytest.raises(ConstraintError):
        Bid(node_id="n", task_id="t", amount=1.0, submit_time=0.0, eligible=2)


def test_bid_rejects_negative_amount():
    with pytest.raises(ConstraintError):
        Bid(node_id="n", task_id="t", amount=-0.1, submit_time=0.0, eligible=1)


def test_outcome_without_winner_must_have_zero_payment():
    with pytest.raises(ConstraintError):
        AuctionOutcome(task_id="t", winner=None, payment=1.0)
    ok = AuctionOutcome(task_id="t", winner=None, payment=0.0)
    assert ok.winner is None


# --- metrics record -------------------------------------------------------

def _metrics(**kw):
    base = dict(tasks_arrived=10, tasks_completed=7, deadline_miss=1,
                failed_to_place=1, in_flight=1, mean_completion_s=1.0,
                median_completion_s=1.0, p95_completion_s=2.0,
                fairness_jain=0.9, mn_profit=0.0, per_node_tasks=(5, 4),
                peak_memory_mb=(100.0, 80.0), mean_cpu_frac=0.3)
    base.update(kw)
    return MetricsRecord(**base)


def test_metrics_accepts_conserved_counts():
    assert _metrics().tasks_arrived == 10


def test_metrics_rejects_broken_conservation():
    with pytest.raises(ConstraintError, match="conservation"):
        _metrics(tasks_completed=8)


def test_metrics_rejects_fairness_outside_range():
    with pytest.raises(ConstraintError):
        _metrics(fairness_jain=1.5)
    with pytest.raises(ConstraintError):
        _metrics(fairness_jain=0.1)  # below 1/2 for two nodes


@pytest.mark.parametrize("profit", [float("inf"), float("-inf"), float("nan")])
def test_metrics_rejects_a_profit_that_is_not_finite(profit):
    with pytest.raises(ConstraintError, match=f"^metrics.mn_profit: must be a finite number, "
                                              f"got {profit!r}$"):
        _metrics(mn_profit=profit)


# --- container and node state machines ------------------------------------

def test_container_state_transitions():
    from aucrac.core import Container
    c = Container(id="c0", node_id="n", memory=100.0, compute=1e9, lib_overhead=20.0)
    assert c.state == "free"
    c.mark_busy()
    with pytest.raises(StateError):
        c.mark_busy()
    c.mark_free(now=3.0)
    assert c.freed_at == 3.0
    with pytest.raises(StateError):
        c.mark_free()


def test_worker_node_tracks_capacity_and_ids():
    n = WorkerNode(id="wn0", cpu=4e9, memory=1000.0, power=100.0,
                   unit_cost=1.0, time_const=5.0)
    assert n.free_memory == 1000.0
    assert n.free_compute == 4e9
    assert n.live_memory() == 0.0
    assert n.next_container_id() == "wn0-c0000"
    assert n.next_container_id() == "wn0-c0001"


def test_worker_node_rejects_bad_mode():
    with pytest.raises(UnknownEnumError):
        WorkerNode(id="x", cpu=1.0, memory=1.0, power=1.0, unit_cost=1.0,
                   time_const=1.0, executor_mode="bare_metal")


# --- workload spec and sim config -----------------------------------------

def test_workload_rejects_bad_mix_sum():
    with pytest.raises(ConstraintError, match="sum"):
        WorkloadSpec(mix_lit=0.5, mix_mit=0.4, mix_hit=0.3)


def test_workload_rejects_inverted_range():
    with pytest.raises(ConstraintError):
        WorkloadSpec(deadline_s=(20.0, 5.0))


def test_sim_config_defaults_are_valid():
    cfg = SimConfig()
    assert cfg.strategy == "aucrac"
    assert cfg.num_workers == 10
    assert len(cfg.node_templates) == 3


def test_sim_config_rejects_single_worker():
    with pytest.raises(ConstraintError):
        SimConfig(num_workers=1)


def test_sim_config_rejects_unknown_strategy():
    with pytest.raises(UnknownEnumError):
        SimConfig(strategy="magic")


def test_sim_config_rejects_negative_horizon_but_allows_zero():
    with pytest.raises(ConstraintError):
        SimConfig(horizon_s=-1.0)
    assert SimConfig(horizon_s=0.0).horizon_s == 0.0


def test_sim_config_rejects_bool_masquerading_as_int():
    with pytest.raises(ConstraintError):
        SimConfig(seed=True)


_INTEGER_FIELDS = {  # name -> (build with the value, message, minimum)
    "seed": (lambda v: SimConfig(seed=v), "must be an integer", None),
    "num_devices": (lambda v: SimConfig(num_devices=v), "must be a non-negative integer", 0),
    "num_workers": (lambda v: SimConfig(num_workers=v), "must be an integer >= 2", 2),
    "executor.max_requeues": (lambda v: ExecutorConfig(max_requeues=v),
                              "must be a non-negative integer", 0),
    "workload.tasks_per_device": (lambda v: WorkloadSpec(tasks_per_device=v),
                                  "must be a non-negative integer", 0),
    "jobs": (lambda v: ExperimentSpec(base=SimConfig(), jobs=v), "must be a positive integer", 1),
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, _, minimum) in _INTEGER_FIELDS.items()
    for value in (True, 2.0) + (() if minimum is None else (minimum - 1,))])
def test_integer_fields_reject_bools_floats_and_values_below_their_minimum(name, value):
    build, message, _ = _INTEGER_FIELDS[name]
    with pytest.raises(ConstraintError) as caught:
        build(value)
    assert type(caught.value) is ConstraintError
    assert str(caught.value) == f"{name}: {message}"


def test_default_config_applies_overrides():
    cfg = default_config(num_devices=5, strategy="mct")
    assert cfg.num_devices == 5
    assert cfg.strategy == "mct"


# --- json round trip ------------------------------------------------------

def test_config_json_round_trip_is_lossless():
    cfg = default_config(seed=9, num_devices=12, strategy="greedy",
                         win_rule="highest")
    again = config_from_json(config_to_json(cfg))
    assert again == cfg


def test_config_dict_round_trip_preserves_nested_blocks():
    cfg = default_config()
    doc = config_to_dict(cfg)
    assert doc["weights"]["lambda1"] == pytest.approx(1 / 3)
    assert isinstance(doc["node_templates"], list)
    assert config_from_dict(doc) == cfg


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(SchemaError, match="typo_key"):
        config_from_dict({"typo_key": 1})


def test_config_rejects_unknown_nested_key():
    with pytest.raises(SchemaError, match="weights.bogus"):
        config_from_dict({"weights": {"bogus": 1}})


def test_config_rejects_malformed_json_text():
    with pytest.raises(SchemaError):
        config_from_json("{not json")


def test_config_rejects_wrong_container_shape():
    with pytest.raises(SchemaError):
        config_from_dict({"node_templates": {"cpu": 1e9}})


def test_config_surfaces_enum_errors_from_values():
    with pytest.raises(UnknownEnumError):
        config_from_dict({"strategy": "nope"})


@pytest.mark.parametrize("doc, exc, message", [
    ([1, 2], SchemaError, "config: expected an object, got list"),
    ({"weights": [1]}, SchemaError, "weights: expected an object, got list"),
    ({"node_templates": {"cpu": 1e9}}, SchemaError,
     "node_templates: expected a list of objects"),
    ({"node_templates": [3]}, SchemaError, "node_templates[0]: expected an object, got int"),
    ({"typo_key": 1}, SchemaError, "typo_key: unknown key"),
    ({"weights": {"bogus": 1}}, SchemaError, "weights.bogus: unknown key"),
    ({"node_templates": [{"gpu": 1}]}, SchemaError, "node_templates[0].gpu: unknown key"),
    # a top-level list reaches the validator as a list, not a tuple
    ({"strategy": ["aucrac"]}, UnknownEnumError,
     "strategy: must be one of ('aucrac', 'random', 'round_robin', 'greedy', 'mct', "
     "'auction_basic'), got ['aucrac']"),
])
def test_config_shape_errors_name_the_offending_entry(doc, exc, message):
    with pytest.raises(exc) as info:
        config_from_dict(doc)
    assert type(info.value) is exc
    assert str(info.value) == message


# --- class counts and workload generation ---------------------------------

def test_class_counts_are_exact_for_default_mix():
    assert _class_counts(100, (0.4, 0.3, 0.3)) == [40, 30, 30]


def test_class_counts_distribute_remainder_by_largest_fraction():
    # 7 * (0.4, 0.3, 0.3) = (2.8, 2.1, 2.1); the single leftover goes first
    assert _class_counts(7, (0.4, 0.3, 0.3)) == [3, 2, 2]
    assert sum(_class_counts(13, (0.4, 0.3, 0.3))) == 13


def test_workload_size_and_class_mix():
    cfg = default_config(num_devices=20)  # 20 * 3 = 60 tasks
    tasks = generate_workload(cfg, new_rng(cfg.seed).fork(2))
    assert len(tasks) == 60
    by_class = {}
    for t in tasks:
        by_class[t.intensity] = by_class.get(t.intensity, 0) + 1
    assert by_class == {"LIT": 24, "MIT": 18, "HIT": 18}


def test_workload_arrivals_never_go_backwards():
    cfg = default_config(num_devices=30)
    tasks = generate_workload(cfg, new_rng(5).fork(2))
    times = [t.arrival_time for t in tasks]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert times[0] > 0.0


def test_workload_is_seed_deterministic():
    cfg = default_config(num_devices=10)
    a = generate_workload(cfg, new_rng(3).fork(2))
    b = generate_workload(cfg, new_rng(3).fork(2))
    assert a == b
    c = generate_workload(cfg, new_rng(4).fork(2))
    assert a != c


def test_workload_draws_stay_inside_their_ranges():
    cfg = default_config(num_devices=40)
    wl = cfg.workload
    ranges = {"LIT": wl.lit_cycles, "MIT": wl.mit_cycles, "HIT": wl.hit_cycles}
    for t in generate_workload(cfg, new_rng(1).fork(2)):
        lo, hi = ranges[t.intensity]
        assert lo <= t.cycles < hi
        assert wl.memory_mb[0] <= t.memory < wl.memory_mb[1]
        assert wl.deadline_s[0] <= t.deadline < wl.deadline_s[1]
        assert wl.td_max_s[0] <= t.td_max < wl.td_max_s[1]
        assert t.value is None


def test_workload_ids_are_unique_and_ordered():
    cfg = default_config(num_devices=10)
    tasks = generate_workload(cfg, new_rng(0).fork(2))
    ids = [t.id for t in tasks]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)


def test_empty_workload_when_no_devices():
    cfg = default_config(num_devices=0)
    assert generate_workload(cfg, new_rng(0)) == ()


@st.composite
def _workload_specs(draw):
    # any valid spec: ordered positive ranges, a mix summing to 1
    def span():
        lo = draw(st.floats(min_value=1e-3, max_value=1e9))
        return (lo, lo * draw(st.floats(min_value=1.0, max_value=1e3)))

    cut_a, cut_b = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                        min_size=2, max_size=2)))
    return WorkloadSpec(
        arrival_rate_hz=draw(st.floats(min_value=1e-3, max_value=1e3)),
        tasks_per_device=draw(st.integers(min_value=0, max_value=4)),
        mix_lit=cut_a, mix_mit=cut_b - cut_a, mix_hit=1.0 - cut_b,
        lit_cycles=span(), mit_cycles=span(), hit_cycles=span(), memory_mb=span(),
        power_w=span(), data_in_mb=span(), data_out_mb=span(), deadline_s=span(),
        td_max_s=span())


@settings(max_examples=200, deadline=None)
@given(_workload_specs(), st.integers(min_value=1, max_value=8), st.integers(0, 2 ** 32))
def test_generated_tasks_equal_validated_ones(spec, devices, seed):
    # generation builds tasks without re-running Task's checks; each one
    # must be exactly the task the validating constructor builds
    cfg = default_config(num_devices=devices, workload=spec)
    for task in generate_workload(cfg, new_rng(seed)):
        validated = Task(**{f.name: getattr(task, f.name) for f in fields(Task)})
        assert task == validated
        assert repr(task) == repr(validated)


def test_workload_rejects_an_arrival_clock_that_overflows():
    spec = WorkloadSpec(arrival_rate_hz=5e-324)  # valid, but each gap overflows
    with pytest.raises(ConstraintError, match="task.arrival_time"):
        generate_workload(default_config(num_devices=1, workload=spec), new_rng(0))


def _per_draw_workload(config, rng):
    # generate_workload as it drew one value per call: `shuffle`, then per
    # task `expovariate` and seven `uniform`s. The validating constructor
    # builds the tasks after the last draw, so an arrival clock that
    # overflowed fails there, with the error the final check gives
    wl = config.workload
    n = config.num_devices * wl.tasks_per_device
    if n == 0:
        return ()
    labels = []
    for cls_name, count in zip(INTENSITY_CLASSES, _class_counts(n, wl.mix)):
        labels.extend([cls_name] * count)
    rng.shuffle(labels)
    cycle_ranges = {"LIT": wl.lit_cycles, "MIT": wl.mit_cycles, "HIT": wl.hit_cycles}
    total_rate = config.num_devices * wl.arrival_rate_hz
    rows = []
    clock = 0.0
    for i, label in enumerate(labels):
        clock += rng.expovariate(total_rate)
        cycles = rng.uniform(*cycle_ranges[label])
        memory = rng.uniform(*wl.memory_mb)
        power = rng.uniform(*wl.power_w)
        data_in = rng.uniform(*wl.data_in_mb)
        data_out = rng.uniform(*wl.data_out_mb)
        deadline = rng.uniform(*wl.deadline_s)
        td_max = rng.uniform(*wl.td_max_s)
        rows.append(dict(id=f"t{i:05d}", data_in=data_in, data_out=data_out, cycles=cycles,
                         memory=memory, power=power, deadline=deadline, td_max=td_max,
                         arrival_time=clock, intensity=label))
    return tuple(Task(**row) for row in rows)


@st.composite
def _edge_configs(draw):
    # ranges that are one point, no devices or no tasks per device, rates
    # whose gaps overflow (5e-324) or vanish (1e308 over two devices), and
    # seeds past 64 bits either way
    def span():
        lo = draw(st.floats(min_value=1e-3, max_value=1e9))
        return lo, lo if draw(st.booleans()) else lo * draw(st.floats(1.0, 1e3))

    mix = draw(st.sampled_from([(0.4, 0.3, 0.3), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5)]))
    workload = WorkloadSpec(
        arrival_rate_hz=draw(st.floats(min_value=1e-3, max_value=1e3)
                             | st.sampled_from([5e-324, 1e308])),
        tasks_per_device=draw(st.integers(min_value=0, max_value=4)),
        mix_lit=mix[0], mix_mit=mix[1], mix_hit=mix[2],
        lit_cycles=span(), mit_cycles=span(), hit_cycles=span(), memory_mb=span(),
        power_w=span(), data_in_mb=span(), data_out_mb=span(), deadline_s=span(),
        td_max_s=span())
    seed = draw(st.integers(min_value=-(2**70), max_value=2**70)
                | st.sampled_from([0, -1, 2**64 - 1, 2**64, -(2**64)]))
    return default_config(seed=seed, num_devices=draw(st.integers(min_value=0, max_value=6)),
                          workload=workload)


def _drawn(config, draw):
    # ((the tasks and their reprs) or (the error type and its one line),
    # the generator's state after the draws)
    rng = new_rng(config.seed).fork(2)
    try:
        tasks = draw(config, rng)
    except ConstraintError as exc:
        return (type(exc), str(exc)), rng._s
    return (tasks, list(map(repr, tasks))), rng._s


@settings(max_examples=200, deadline=None)
@given(_edge_configs())
@example(default_config(num_devices=0))
@example(default_config(num_devices=1, workload=WorkloadSpec(arrival_rate_hz=5e-324)))
def test_batched_draws_give_the_per_draw_workload(config):
    assert _drawn(config, generate_workload) == _drawn(config, _per_draw_workload)


# --- building tasks without their checks -----------------------------------

_ROW = ("t00007", 1.5, 0.25, 3e9, 128.0, 5.0, 12.0, 3.0, 4.75, None, "HIT")


def test_a_trusted_task_is_the_validated_one():
    built, validated = _trusted_task(*_ROW), Task(*_ROW)
    assert built == validated
    assert repr(built) == repr(validated)
    assert list(vars(built)) == list(vars(validated)) == [f.name for f in fields(Task)]
    valued, want = _valued(built, 0.5), replace(validated, value=0.5)
    assert valued == want
    assert repr(valued) == repr(want)
    assert list(vars(valued)) == list(vars(want))


def _per_item(make, items) -> float:
    # bytes still held per item after building one object per item
    for x in items[:100]:  # lazily built shared state, such as specialized code, not counted
        make(x)
    tracemalloc.start()
    try:
        built = [make(x) for x in items]
        return tracemalloc.get_traced_memory()[0] / len(items)
    finally:
        tracemalloc.stop()
        del built


def test_a_trusted_task_takes_no_more_memory_than_a_validated_one():
    # stored one by one, a task keeps the class's shared attribute layout; a
    # bulk __dict__ update gives it its own table (528 B against 176 B on
    # 3.11), and so does a copy through vars() to the original it reads.
    # A byte per task allows for the interpreter's own few blocks
    rows = [(f"t{i:05d}", 1.0 + i, 0.5 + i, 1e9 + i, 64.0 + i, 2.0 + i, 10.0 + i, 3.0 + i,
             float(i), None, "MIT") for i in range(1000)]
    assert _per_item(lambda row: _trusted_task(*row), rows) <= _per_item(
        lambda row: Task(*row), rows) + 1.0
    originals = [_trusted_task(*row) for row in rows], [Task(*row) for row in rows]
    assert _per_item(lambda t: _valued(t, 0.5), originals[0]) <= _per_item(
        lambda t: replace(t, value=0.5), originals[1]) + 1.0


def test_node_template_rejects_nonpositive_cpu():
    with pytest.raises(ConstraintError):
        NodeTemplate(cpu=0.0)


# --- non-finite numbers -----------------------------------------------------

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("field", ["horizon_s", "unit_price", "bid_margin",
                                   "retry_interval_s"])
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_sim_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ConstraintError, match=field):
        default_config(**{field: value})


@pytest.mark.parametrize("value", [NAN, INF])
def test_nested_blocks_reject_non_finite_numbers(value):
    with pytest.raises(ConstraintError):
        ResourceWeights(delta=value)
    with pytest.raises(ConstraintError):
        ExecutorConfig(idle_ttl_s=value)
    with pytest.raises(ConstraintError):
        NodeTemplate(cpu=value)
    with pytest.raises(ConstraintError):
        Task(id="t0", data_in=value, data_out=1.0, cycles=1e9, memory=64.0,
             power=5.0, deadline=10.0, td_max=3.0)


@pytest.mark.parametrize("name", ["deadline_s", "memory_mb", "lit_cycles"])
def test_workload_rejects_an_infinite_range_end(name):
    with pytest.raises(ConstraintError, match=name):
        WorkloadSpec(**{name: (1.0, INF)})
    with pytest.raises(ConstraintError, match=name):
        WorkloadSpec(**{name: (1.0, NAN)})


def test_huge_integers_are_finite():
    assert default_config(horizon_s=10 ** 400).horizon_s == 10 ** 400


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_config_json_rejects_non_finite_literals(literal):
    with pytest.raises(SchemaError, match=literal):
        config_from_json(f'{{"horizon_s": {literal}}}')


def test_config_json_overflowing_number_is_a_constraint_error():
    # 1e400 is valid JSON but parses to inf, which the validators reject
    with pytest.raises(ConstraintError, match="horizon_s"):
        config_from_json('{"horizon_s": 1e400}')
