"""Experiment runner: sweeps, CSV output, plot data, exit codes."""

import concurrent.futures
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import aucrac.cli as cli
import aucrac.sim as sim
from aucrac.cli import (EXIT_CONSTRAINT, EXIT_ENUM, EXIT_IO, EXIT_OK, EXIT_RUNTIME,
                        EXIT_SCHEMA, RESULTS_HEADER, ExperimentSpec, _configs_for,
                        _parse_seeds, _parse_sweep, emit_plot_data, load_config, main,
                        run_experiment)
from aucrac.core import STRATEGIES, default_config
from aucrac.errors import (ConstraintError, InputError, SchemaError,
                           UnknownEnumError)


def _tiny_spec(out_dir, **kw):
    base = default_config(num_devices=2, num_workers=2)
    args = dict(base=base, sweep_var="devices", sweep_values=(2, 3),
                strategies=("mct", "round_robin"), seeds=(0, 1),
                out_dir=str(out_dir), jobs=1)
    args.update(kw)
    return ExperimentSpec(**args)


# --- parsing helpers ------------------------------------------------------

def test_seed_range_parsing():
    assert _parse_seeds("0..4") == (0, 1, 2, 3, 4)
    assert _parse_seeds("1,3,5") == (1, 3, 5)
    with pytest.raises(SchemaError):
        _parse_seeds("one,two")


def test_sweep_parsing():
    assert _parse_sweep("devices=10,20") == ("devices", (10, 20))
    assert _parse_sweep("workers=4") == ("workers", (4,))
    assert _parse_sweep("strategy=aucrac,mct") == ("strategy", ("aucrac", "mct"))
    with pytest.raises(SchemaError):
        _parse_sweep("devices")
    with pytest.raises(SchemaError):
        _parse_sweep("devices=ten")
    with pytest.raises(UnknownEnumError):
        _parse_sweep("gravity=9,8")


# --- spec validation ------------------------------------------------------

def test_spec_rejects_duplicate_seeds(tmp_path):
    with pytest.raises(ConstraintError):
        _tiny_spec(tmp_path, seeds=(1, 1))


def test_spec_rejects_empty_sweep(tmp_path):
    with pytest.raises(ConstraintError):
        _tiny_spec(tmp_path, sweep_values=())


def test_spec_rejects_empty_strategies(tmp_path):
    # an empty list once ran nothing and wrote header-only CSVs
    with pytest.raises(ConstraintError, match="^strategies: must be non-empty$"):
        _tiny_spec(tmp_path, strategies=())


@pytest.mark.parametrize("field, values, sweep_var", [
    ("sweep_values", (2.7,), "devices"), ("sweep_values", (2, 3.0), "workers"),
    ("sweep_values", ("2",), "devices"), ("seeds", (0, 0.5), "devices"),
    ("seeds", (True,), "strategy"),
], ids=["devices=2.7", "workers=2,3.0", "devices='2'", "seeds=0,0.5", "seeds=True"])
def test_spec_rejects_a_seed_or_sweep_value_that_is_not_an_integer(tmp_path, field, values,
                                                                   sweep_var):
    # each was run through int(): 2.7 ran 2 devices under the name 2.7, and
    # seeds 0 and 0.5 both ran seed 0, merged into one group of n_seeds 2
    kw = {field: values, "sweep_var": sweep_var}
    if sweep_var == "strategy":
        kw["sweep_values"] = ("mct",)
    with pytest.raises(ConstraintError, match=f"^{field}: must be an integer$"):
        _tiny_spec(tmp_path, **kw)


def test_spec_rejects_unknown_strategy(tmp_path):
    with pytest.raises(UnknownEnumError):
        _tiny_spec(tmp_path, strategies=("sorcery",))


def test_spec_rejects_bad_jobs(tmp_path):
    with pytest.raises(ConstraintError):
        _tiny_spec(tmp_path, jobs=0)


def test_spec_rejects_a_bool_for_jobs(tmp_path):
    # True == 1, yet it names no job count
    with pytest.raises(ConstraintError, match="jobs"):
        _tiny_spec(tmp_path, jobs=True)


def test_strategy_sweep_collapses_the_strategy_axis(tmp_path):
    spec = _tiny_spec(tmp_path, sweep_var="strategy", sweep_values=("mct", "greedy"),
                      strategies=STRATEGIES, seeds=(0,))
    combos = _configs_for(spec)
    assert [(v, s) for v, s, _, _ in combos] == [("mct", "mct"), ("greedy", "greedy")]


def test_a_strategy_sweep_rejects_strategies_of_its_own():
    # the sweep once ran alone and the strategies were dropped, silently
    with pytest.raises(ConstraintError, match="^strategies: a strategy sweep names the "
                                              "strategies; leave strategies at its default$"):
        ExperimentSpec(base=default_config(), sweep_var="strategy", sweep_values=("aucrac",),
                       strategies=("mct",), seeds=(0,))


def test_run_order_is_value_strategy_seed(tmp_path):
    combos = _configs_for(_tiny_spec(tmp_path))
    assert [(v, s, seed) for v, s, seed, _ in combos] == [
        (2, "mct", 0), (2, "mct", 1), (2, "round_robin", 0), (2, "round_robin", 1),
        (3, "mct", 0), (3, "mct", 1), (3, "round_robin", 0), (3, "round_robin", 1)]


# --- experiment output ----------------------------------------------------

def test_results_file_has_the_exact_header_and_rows(tmp_path):
    results, agg = run_experiment(_tiny_spec(tmp_path))
    lines = open(results, encoding="utf-8").read().splitlines()
    assert lines[0] == RESULTS_HEADER
    assert len(lines) == 1 + 8  # 2 values x 2 strategies x 2 seeds
    assert os.path.exists(agg)


def test_rerun_is_byte_identical(tmp_path):
    spec_a = _tiny_spec(tmp_path / "a")
    spec_b = _tiny_spec(tmp_path / "b")
    ra, aa = run_experiment(spec_a)
    rb, ab = run_experiment(spec_b)
    assert open(ra, "rb").read() == open(rb, "rb").read()
    assert open(aa, "rb").read() == open(ab, "rb").read()


def test_parallel_jobs_change_nothing(tmp_path):
    ra, aa = run_experiment(_tiny_spec(tmp_path / "serial"))
    rp, ap = run_experiment(_tiny_spec(tmp_path / "parallel", jobs=2))
    assert open(ra, "rb").read() == open(rp, "rb").read()
    assert open(aa, "rb").read() == open(ap, "rb").read()


@pytest.mark.parametrize("cpus, jobs, workers", [(3, 10**6, 3), (3, 2, 2), (None, 10**6, 1)],
                         ids=("many_jobs", "few_jobs", "cpus_unknown"))
def test_the_pool_starts_at_most_one_worker_per_cpu(tmp_path, monkeypatch, cpus, jobs, workers):
    started = []

    class SerialPool:  # records the pool's size and runs its map in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    ra, aa = run_experiment(_tiny_spec(tmp_path / "serial"))
    rp, ap = run_experiment(_tiny_spec(tmp_path / "pool", jobs=jobs))
    assert started == [workers]
    assert open(ra, "rb").read() == open(rp, "rb").read()
    assert open(aa, "rb").read() == open(ap, "rb").read()


@pytest.fixture
def draws(monkeypatch):
    """The config of each workload draw made in this process, in draw order."""
    made = []
    generate = sim.generate_workload

    def counted(config, rng):
        made.append(config)
        return generate(config, rng)

    monkeypatch.setattr(sim, "generate_workload", counted)
    return made


@pytest.mark.parametrize("sweep, values, drawn", [
    ("devices", (10, 20), 6),    # one draw per (device count, seed)
    ("workers", (5, 10), 3),     # the worker count is not part of a workload
    ("strategy", ("aucrac", "mct", "greedy"), 3),
])
def test_a_serial_sweep_draws_each_workload_once(tmp_path, draws, sweep, values, drawn):
    spec = ExperimentSpec(base=default_config(num_devices=2, num_workers=2), sweep_var=sweep,
                          sweep_values=values, seeds=(0, 1, 2), out_dir=str(tmp_path / "serial"),
                          jobs=1)
    shared = run_experiment(spec)
    assert len(draws) == drawn
    assert sim._shared is None
    sim.run(_configs_for(spec)[-1][-1])  # a run after the sweep draws its own
    assert len(draws) == drawn + 1
    # the pool's runs each draw their own workload, and write the same bytes
    pooled = run_experiment(replace(spec, out_dir=str(tmp_path / "pool"), jobs=2))
    for a, b in zip(shared, pooled):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_a_devices_sweep_holds_one_tuple_per_seed(tmp_path, monkeypatch, draws):
    spec = ExperimentSpec(base=default_config(num_devices=2, num_workers=2),
                          sweep_var="devices", sweep_values=(1, 2, 3),
                          strategies=("aucrac", "mct"), seeds=(0, 1), out_dir=str(tmp_path))
    run, held = cli.run, []

    def recorded(config):
        result = run(config)
        held.append(dict(sim._shared))
        return result

    monkeypatch.setattr(cli, "run", recorded)
    run_experiment(spec)
    assert len(draws) == 6
    for (value, _strategy, seed, config), store in zip(_configs_for(spec), held):
        assert set(store) <= {0, 1}  # one entry per seed
        key, tasks = store[seed]  # the run's own seed holds this device count's tuple
        assert key == sim._workload_key(config)
        assert len(tasks) == value * config.workload.tasks_per_device
        for other in set(store) - {seed}:  # the other seed holds this or the last count's
            assert store[other][0][1] in (value, value - 1)


def test_a_sweep_that_raises_keeps_no_workload(tmp_path, monkeypatch, draws):
    spec = _tiny_spec(tmp_path)
    config = _configs_for(spec)[0][-1]
    alone = sim.run(config)
    run, calls = cli.run, []

    def third_run_fails(config):
        calls.append(config)
        if len(calls) == 3:  # both seeds' workloads are stored for the next strategy
            raise RuntimeError("boom")
        return run(config)

    monkeypatch.setattr(cli, "run", third_run_fails)
    with pytest.raises(RuntimeError, match="^boom$"):
        run_experiment(spec)
    assert sim._shared is None
    before = len(draws)
    after = sim.run(config)
    assert len(draws) == before + 1
    assert after.log_lines == alone.log_lines
    assert after.metrics == alone.metrics


def test_aggregate_reports_zero_spread_for_one_seed(tmp_path):
    spec = _tiny_spec(tmp_path, seeds=(0,), sweep_values=(2,), strategies=("mct",))
    _, agg = run_experiment(spec)
    header, row = open(agg, encoding="utf-8").read().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["n_seeds"] == "1"
    assert float(cols["mean_completion_s_std"]) == 0.0


# --- plot data ------------------------------------------------------------

def test_completion_figure_writes_one_series_per_strategy(tmp_path):
    results, _ = run_experiment(_tiny_spec(tmp_path))
    paths = emit_plot_data(results, "completion_vs_devices")
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["completion_vs_devices__mct.csv",
                     "completion_vs_devices__round_robin.csv"]
    body = open(paths[0], encoding="utf-8").read().splitlines()
    assert body[0] == "x,y"
    assert len(body) == 3  # two swept device counts


def test_fairness_table_lists_each_strategy_once(tmp_path):
    results, _ = run_experiment(_tiny_spec(tmp_path))
    (path,) = emit_plot_data(results, "fairness_table")
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "strategy,fairness_jain_mean"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["round_robin", "mct"]


def test_memory_figure_shows_vm_above_container(tmp_path):
    results, _ = run_experiment(_tiny_spec(tmp_path))
    paths = emit_plot_data(results, "memory_vs_tasks")

    def read(path):
        rows = open(path, encoding="utf-8").read().splitlines()[1:]
        return {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}

    container = read([p for p in paths if os.path.basename(p).endswith("container.csv")][0])
    vm = read([p for p in paths if os.path.basename(p).endswith("vm.csv")][0])
    assert set(container) == set(vm)
    for count in sorted(container):
        if count >= 1:
            assert vm[count] > container[count]
    xs = sorted(container)
    assert all(container[a] < container[b] for a, b in zip(xs, xs[1:]))


# sha256 of the memory figure's files under the built-in executor config
_MEMORY_FIGURE = {
    "memory_vs_tasks__container.csv":
        "02532f256a337bfdb977099e4ffb303500ba72cc9442760fb3105f1c65128d8b",
    "memory_vs_tasks__vm.csv": "8a24a86253354cf39be3a4dea96865205d919e2fcc1f3b20147e6dcbe30b6515",
}


def _memory_figure(tmp_path, doc):
    out = tmp_path / "out"
    assert main(["--config", _write_config(tmp_path, dict(doc, num_devices=2, num_workers=2)),
                 "--seeds", "0", "--strategy", "mct", "--emit-plots", "memory_vs_tasks",
                 "--out", str(out)]) == EXIT_OK
    return {name: (out / name).read_bytes() for name in _MEMORY_FIGURE}


def test_memory_figure_of_the_built_in_config_keeps_its_bytes(tmp_path):
    results, _ = run_experiment(_tiny_spec(tmp_path))
    alone = {os.path.basename(p): open(p, "rb").read()
             for p in emit_plot_data(results, "memory_vs_tasks", out_dir=str(tmp_path / "alone"))}
    for figure in (alone, _memory_figure(tmp_path, {})):
        assert {name: hashlib.sha256(body).hexdigest() for name, body in figure.items()} == \
            _MEMORY_FIGURE


def test_memory_figure_uses_the_image_overheads_of_the_run(tmp_path):
    # the figure once read the built-in overheads whatever the config said
    figure = _memory_figure(tmp_path, {"executor": {"lib_overhead_mb": 300.0,
                                                    "os_image_overhead_mb": 5000.0}})
    assert b"\n5,2204.0\n" in figure["memory_vs_tasks__container.csv"]  # 64 + 5 * (128 + 300)
    assert b"\n5,25704.0\n" in figure["memory_vs_tasks__vm.csv"]        # 64 + 5 * (128 + 5000)


def test_cpu_figure_saturates_at_one(tmp_path):
    results, _ = run_experiment(_tiny_spec(tmp_path))
    paths = emit_plot_data(results, "cpu_vs_tasks")
    for path in paths:
        for row in open(path, encoding="utf-8").read().splitlines()[1:]:
            assert 0.0 <= float(row.split(",")[1]) <= 1.0


def test_plot_data_guards(tmp_path):
    results, _ = run_experiment(_tiny_spec(tmp_path))
    with pytest.raises(UnknownEnumError):
        emit_plot_data(results, "pie_chart")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError):
        emit_plot_data(str(empty), "fairness_table")
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("sweep_var,strategy\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(wrong))}:1: columns must be exactly "):
        emit_plot_data(str(wrong), "fairness_table")
    # a workers sweep has worker counts, not device counts, for x
    workers, _ = run_experiment(_tiny_spec(tmp_path / "workers", sweep_var="workers"))
    with pytest.raises(InputError, match="^figure completion_vs_devices needs a devices sweep, "
                                         "got workers=2$"):
        emit_plot_data(workers, "completion_vs_devices")


def _short_row(cells):
    return cells[:5]


def _text_metric(cells):
    return cells[:4] + ["abc"] + cells[5:]  # in mean_completion_s


@pytest.mark.parametrize("spoil, figure, message", [
    (_short_row, "fairness_table", "expected 11 cells, got 5"),
    (_text_metric, "completion_vs_devices", "mean_completion_s must be a number, got 'abc'"),
], ids=("short_row", "text_metric"))
def test_a_results_row_that_cannot_be_read_names_its_line(tmp_path, spoil, figure, message):
    results, _ = run_experiment(_tiny_spec(tmp_path))
    header, first, second = open(results, encoding="utf-8").read().splitlines()[:3]
    bad = tmp_path / "bad.csv"  # a blank line still counts toward the line number
    bad.write_text("\n".join([header, "", first, ",".join(spoil(second.split(",")))]) + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(bad))}:4: {re.escape(message)}$"):
        emit_plot_data(str(bad), figure)


# --- config loading and exit codes ----------------------------------------

def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_config_round_trip(tmp_path):
    path = _write_config(tmp_path, {"num_devices": 3, "strategy": "greedy"})
    cfg = load_config(path)
    assert cfg.num_devices == 3
    assert cfg.strategy == "greedy"


def test_main_runs_a_tiny_sweep(tmp_path):
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    code = main(["--config", path, "--sweep", "devices=2", "--seeds", "0",
                 "--strategy", "mct", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert os.path.exists(tmp_path / "out" / "results.csv")
    assert os.path.exists(tmp_path / "out" / "aggregate.csv")


def test_main_emits_requested_plots(tmp_path):
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    out = tmp_path / "out"
    code = main(["--config", path, "--sweep", "devices=2", "--seeds", "0",
                 "--strategy", "mct", "--out", str(out),
                 "--emit-plots", "fairness_table,memory_vs_tasks"])
    assert code == EXIT_OK
    assert os.path.exists(out / "fairness_table.csv")
    assert os.path.exists(out / "memory_vs_tasks__vm.csv")


def test_main_rejects_an_unknown_figure_before_the_sweep(tmp_path, capsys):
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    out = tmp_path / "out"
    code = main(["--config", path, "--sweep", "devices=2", "--seeds", "0", "--out", str(out),
                 "--emit-plots", "fairness_table,bogus"])
    assert code == EXIT_ENUM
    assert capsys.readouterr().err == (
        "unknown value: figure: must be one of ('completion_vs_devices', 'memory_vs_tasks', "
        "'cpu_vs_tasks', 'fairness_table'), got 'bogus'\n")
    assert not (out / "results.csv").exists()


# the completion figure's x axis is the device count, which neither sweep varies
_NOT_DEVICES = [("strategy=aucrac,mct", "numeric sweep, got strategy=aucrac"),
                ("workers=5,10", "devices sweep, got workers=5")]


def test_main_rejects_the_completion_figure_over_a_strategy_sweep(tmp_path, capsys):
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    for sweep, why in _NOT_DEVICES:
        code = main(["--config", path, "--sweep", sweep, "--seeds", "0..1",
                     "--out", str(tmp_path / "out"), "--emit-plots", "completion_vs_devices"])
        assert code == EXIT_RUNTIME
        # one line naming the figure and the sweep variable, not a traceback
        assert (f"runtime error: figure completion_vs_devices needs a {why}\n"
                in capsys.readouterr().err)


def test_main_rejects_the_completion_figure_before_a_strategy_sweep_runs(tmp_path, capsys):
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    out = tmp_path / "out"
    for sweep, why in _NOT_DEVICES:
        code = main(["--config", path, "--sweep", sweep, "--seeds", "0..1",
                     "--out", str(out), "--emit-plots", "completion_vs_devices"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (f"runtime error: figure completion_vs_devices "
                                           f"needs a {why}\n")
        assert not (out / "results.csv").exists()


@pytest.mark.parametrize("field, values", [("sweep_values", (2, 2)),
                                           ("strategies", ("mct", "mct")), ("seeds", (0, 0)),
                                           ("seeds", (1, 2**64 + 1)),
                                           ("seeds", (1, -(2**64) + 1))])
def test_experiment_spec_rejects_a_repeat_that_would_merge_aggregate_groups(field, values):
    with pytest.raises(ConstraintError, match=f"^{field}: must be distinct$"):
        ExperimentSpec(base=default_config(), **{field: values})


@pytest.mark.parametrize("sweep", ["devices=2,2", "strategy=mct,mct"])
def test_main_rejects_a_repeated_sweep_value_before_any_run(tmp_path, capsys, sweep):
    # a repeat would show one seed's run twice, as one group of n_seeds 2
    out = tmp_path / "out"
    code = main(["--sweep", sweep, "--seeds", "0", "--out", str(out)])
    assert code == EXIT_CONSTRAINT
    assert capsys.readouterr().err == ("config constraint violated: sweep_values: "
                                       "must be distinct\n")
    assert not (out / "results.csv").exists()


def test_main_all_plots_over_a_strategy_sweep_skips_the_completion_figure(tmp_path):
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    for sweep, _ in _NOT_DEVICES:
        out = tmp_path / sweep.partition("=")[0]
        code = main(["--config", path, "--sweep", sweep, "--seeds", "0..1",
                     "--out", str(out), "--emit-plots", "all"])
        assert code == EXIT_OK
        names = set(os.listdir(out))
        assert "fairness_table.csv" in names
        for figure in ("memory_vs_tasks", "cpu_vs_tasks"):
            assert {f"{figure}__container.csv", f"{figure}__vm.csv"} <= names
        assert not [n for n in names if n.startswith("completion_vs_devices__")]


def test_main_missing_config_file_is_io_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json")]) == EXIT_IO


def test_main_an_out_that_cannot_be_made_fails_before_any_run(tmp_path, capsys, monkeypatch):
    run, calls = cli.run, []

    def counted(config):
        calls.append(config)
        return run(config)

    monkeypatch.setattr(cli, "run", counted)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["--seeds", "0..4", "--sweep", "devices=10,20", "--out", str(blocker / "sub")])
    assert code == EXIT_IO
    assert calls == []
    assert capsys.readouterr().err.startswith("file error: ")


def test_main_unknown_key_is_schema_error(tmp_path):
    path = _write_config(tmp_path, {"num_devicez": 2})
    assert main(["--config", path]) == EXIT_SCHEMA


# the load model's four constants were settable, but no run read them
@pytest.mark.parametrize("key", ["startup_overhead_lo_mb", "startup_overhead_hi_mb",
                                 "base_footprint_mb", "task_memory_mb", "cpu_share_per_task",
                                 "vm_cpu_overhead_frac"])
def test_removed_startup_overhead_key_is_a_schema_error(tmp_path, key):
    doc = {"executor": {key: 1.0}}
    with pytest.raises(SchemaError, match=f"executor.{key}"):
        load_config(_write_config(tmp_path, doc))
    assert main(["--config", _write_config(tmp_path, doc)]) == EXIT_SCHEMA


@pytest.mark.parametrize("raw, reason", [
    (b'{"seed": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 10: "
                          "invalid start byte"),
    (b"[" * 200_000, None),
], ids=["not-utf8", "nested-200000-deep"])
def test_main_undecodable_config_is_a_schema_error_before_any_run(tmp_path, capsys, raw,
                                                                   reason):
    # each once ended in a UnicodeDecodeError or RecursionError traceback, exit 1
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--seeds", "0", "--out", str(out)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config schema error: config: not valid JSON: ")
    assert err.count("\n") == 1
    if reason is not None:
        assert err == f"config schema error: config: not valid JSON: {reason}\n"
    assert not (out / "results.csv").exists()


def test_main_bad_enum_is_enum_error(tmp_path):
    path = _write_config(tmp_path, {"strategy": "sorcery"})
    assert main(["--config", path]) == EXIT_ENUM


def test_main_constraint_violation_is_constraint_error(tmp_path):
    path = _write_config(tmp_path, {"num_workers": 1})
    assert main(["--config", path]) == EXIT_CONSTRAINT


@pytest.mark.parametrize("doc, field", [
    ({"workload": {"memory_mb": [1.0, "a"]}}, "workload.memory_mb"),
    ({"workload": {"memory_mb": 5}}, "workload.memory_mb"),
    ({"weights": {"lambda1": "x"}}, "weights.lambda1"),
])
def test_main_non_number_bound_is_a_constraint_error(tmp_path, capsys, doc, field):
    # each once reached a comparison with a non-number and crashed with a TypeError
    assert main(["--config", _write_config(tmp_path, doc)]) == EXIT_CONSTRAINT
    err = capsys.readouterr().err
    assert err.startswith(f"config constraint violated: {field}: ")
    assert err.count("\n") == 1


def test_main_an_arrival_clock_that_overflows_mid_sweep_fails_in_one_line(tmp_path, capsys,
                                                                          draws):
    # no device draws no task, and that key serves all six strategies; the next key overflows
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2,
                                    "workload": {"arrival_rate_hz": 5e-324}})
    out = tmp_path / "out"
    code = main(["--config", path, "--sweep", "devices=0,2", "--seeds", "0..1",
                 "--out", str(out)])
    assert code == EXIT_CONSTRAINT
    assert capsys.readouterr().err == ("config constraint violated: task.arrival_time: "
                                       "must be a non-negative finite number, got inf\n")
    assert [c.num_devices for c in draws] == [0, 0, 2]
    assert sim._shared is None
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("value", ["of", "trace"])
def test_main_rejects_an_unknown_log_setting_before_any_run(tmp_path, capsys, monkeypatch,
                                                             value):
    monkeypatch.setenv("AUCRAC_LOG", value)
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    out = tmp_path / "out"
    assert main(["--config", path, "--seeds", "0", "--out", str(out)]) == EXIT_ENUM
    assert capsys.readouterr().err == (
        f"unknown value: AUCRAC_LOG: must be one of ('info', 'off'), got {value!r}\n")
    assert not out.exists()


def test_main_log_setting_ignores_case(tmp_path, monkeypatch):
    monkeypatch.setenv("AUCRAC_LOG", "OFF")
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    try:
        assert main(["--config", path, "--seeds", "0", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert logging.root.manager.disable == logging.CRITICAL
    finally:
        logging.disable(logging.NOTSET)


def test_main_rejects_unknown_strategy_flag(tmp_path, capsys):
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    assert main(["--config", path, "--strategy", "sorcery"]) == EXIT_ENUM
    assert capsys.readouterr().err == (
        "unknown value: strategy: must be one of ('aucrac', 'random', 'round_robin', "
        "'greedy', 'mct', 'auction_basic'), got 'sorcery'\n")


@pytest.mark.parametrize("doc, err", [
    ({"unit_price": 1e308}, "metrics.mn_profit: must be a finite number, got inf"),
    ({"bid_margin": 1e308}, "metrics.mn_profit: must be a finite number, got -inf"),
])
def test_main_an_overflowing_profit_fails_in_one_line(tmp_path, capsys, doc, err):
    # each once wrote an infinite mn_profit to results.csv and exited 0
    out = tmp_path / "out"
    code = main(["--config", _write_config(tmp_path, dict(doc, num_devices=2, num_workers=2)),
                 "--seeds", "0", "--strategy", "random", "--out", str(out)])
    assert code == EXIT_CONSTRAINT
    assert capsys.readouterr().err == f"config constraint violated: {err}\n"
    assert not (out / "results.csv").exists()


def test_main_rejects_one_strategy_with_a_strategy_sweep(tmp_path, capsys):
    # the sweep once ran alone and the flag was dropped
    out = tmp_path / "out"
    code = main(["--sweep", "strategy=aucrac", "--strategy", "mct", "--seeds", "0",
                 "--out", str(out)])
    assert code == EXIT_CONSTRAINT
    assert capsys.readouterr().err == ("config constraint violated: strategy: --strategy mct "
                                       "conflicts with a strategy sweep\n")
    assert not (out / "results.csv").exists()


def test_main_a_strategy_sweep_wins_over_the_config_files_strategy(tmp_path):
    sweep = ["--sweep", "strategy=aucrac,mct", "--seeds", "0"]
    for name, doc in (("plain", {}), ("file", {"strategy": "mct"})):
        path = _write_config(tmp_path, dict(doc, num_devices=2, num_workers=2))
        assert main(["--config", path, "--out", str(tmp_path / name)] + sweep) == EXIT_OK
    rows = _rows(tmp_path / "file")
    assert rows == _rows(tmp_path / "plain")
    assert [tuple(r.split(",")[:3]) for r in rows] == [("strategy", "aucrac", "aucrac"),
                                                       ("strategy", "mct", "mct")]


def _rows(out):
    with open(out / "results.csv", encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


# the file's keys were once ignored: each ran six strategies over seeds 0-29; a
# key that holds its default value counts as set
@pytest.mark.parametrize("devices, strategy, seed", [(5, "mct", 7), (2, "aucrac", 0)])
def test_main_runs_the_strategy_and_seed_a_config_file_holds(tmp_path, devices, strategy,
                                                             seed):
    path = _write_config(tmp_path, {"num_devices": devices, "strategy": strategy, "seed": seed})
    assert main(["--config", path, "--out", str(tmp_path / "file")]) == EXIT_OK
    assert main(["--sweep", f"devices={devices}", "--strategy", strategy, "--seeds", str(seed),
                 "--out", str(tmp_path / "flags")]) == EXIT_OK
    rows = _rows(tmp_path / "file")
    assert rows == _rows(tmp_path / "flags")
    assert len(rows) == 1 and rows[0].startswith(f"devices,{devices},{strategy},{seed},")


@pytest.mark.parametrize("flags, keys", [
    (["--strategy", "greedy", "--seeds", "1,2"], [("greedy", "1"), ("greedy", "2")]),
    (["--sweep", "strategy=aucrac,random"], [("aucrac", "7"), ("random", "7")]),
    (["--strategy", "all", "--seeds", "3"], [(s, "3") for s in STRATEGIES]),
])
def test_main_flags_win_over_the_config_file(tmp_path, flags, keys):
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2, "strategy": "mct",
                                    "seed": 7})
    assert main(["--config", path, "--out", str(tmp_path / "out")] + flags) == EXIT_OK
    assert [tuple(r.split(",")[2:4]) for r in _rows(tmp_path / "out")] == keys


def test_main_rejects_bad_seed_text(tmp_path):
    path = _write_config(tmp_path, {"num_devices": 2, "num_workers": 2})
    assert main(["--config", path, "--seeds", "x..y"]) == EXIT_SCHEMA


@pytest.mark.parametrize("seeds", ["0..100000000000000", "0..1000000000000000000000000000000"])
def test_main_rejects_a_seed_range_too_long_to_hold(tmp_path, capsys, seeds):
    # each range fails at once, as a MemoryError or an OverflowError, before it is built
    out = tmp_path / "out"
    assert main(["--seeds", seeds, "--out", str(out)]) == EXIT_CONSTRAINT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seeds: " in err
    assert not out.exists()


def test_importing_the_cli_loads_no_process_pool():
    # only a sweep with more than one job starts the pool, so only it pays for the import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.run(
        [sys.executable, "-c", "import sys, aucrac.cli; print(sorted(m for m in "
         "('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"
