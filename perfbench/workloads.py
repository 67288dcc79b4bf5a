"""The benchmark's workloads, how one is run, and the check on its outputs.

Every simulation seed a workload uses is derived from the benchmark seed,
so the program only ever receives generated configs.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import replace

import aucrac.cli as cli
import aucrac.sim as sim
from aucrac.core import STRATEGIES, default_config

# the paper's default sweep: devices 10..50 x all strategies x 30 seeds, 10 workers
SWEEP_DEVICES = (10, 20, 30, 40, 50)
SWEEP_SEEDS = 30

# the scale runs keep 100 workers; 1000 devices instead of the ROADMAP's 2000
# fits several repetitions into one measured run
SCALE_DEVICES = 1000
SCALE_WORKERS = 100
SCALE_STRATEGIES = {
    "scale_aucrac": ("aucrac",),
    "scale_wholenode": ("random", "round_robin", "greedy", "mct", "auction_basic"),
}


def build(workload: str, seed: int, out_dir: str):
    """Build and validate the configs of one workload.

    Returns the ExperimentSpec for the sweep, or the list of SimConfigs
    for a scale workload.
    """
    if workload == "paper_sweep":
        seeds = tuple(range(SWEEP_SEEDS * seed, SWEEP_SEEDS * seed + SWEEP_SEEDS))
        return cli.ExperimentSpec(base=default_config(), sweep_var="devices",
                                  sweep_values=SWEEP_DEVICES, strategies=STRATEGIES,
                                  seeds=seeds, out_dir=out_dir, jobs=1)
    return [default_config(num_devices=SCALE_DEVICES, num_workers=SCALE_WORKERS,
                           strategy=s, seed=seed) for s in SCALE_STRATEGIES[workload]]


def planned(plan) -> int:
    """Number of simulation runs in one repetition of the workload."""
    if isinstance(plan, list):
        return len(plan)
    return len(plan.sweep_values) * len(plan.strategies) * len(plan.seeds)


def sweep_configs(spec):
    """(row key, config) per run, in the order `run_experiment` writes its rows."""
    for value in spec.sweep_values:
        for strategy in spec.strategies:
            for seed in spec.seeds:
                cfg = replace(spec.base, num_devices=value, strategy=strategy, seed=seed)
                yield f"{spec.sweep_var}={value}/{strategy}/seed={seed}", cfg


def run_key(cfg) -> str:
    return f"{cfg.strategy}/devices={cfg.num_devices}/seed={cfg.seed}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """SHA-256 over a run's log lines and its metrics record."""
    h = hashlib.sha256()
    for line in result.log_lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    h.update(repr(result.metrics).encode("utf-8"))
    return h.hexdigest()


def check_result(result, unit_price: float) -> list:
    """Problems found in one run's outputs; an empty list means it passed.

    Conservation is checked on the record and against the log, the
    utilization replay of the log must reproduce every node's recorded
    peak memory, and the manager profit recomputed from the log must
    match the record.
    """
    problems = []
    m = result.metrics
    lines = result.log_lines
    if m.tasks_completed + m.deadline_miss + m.failed_to_place + m.in_flight != m.tasks_arrived:
        problems.append("task conservation broken in the metrics record")
    counts = {"task_arrival": 0, "exec_finish": 0, "failed": 0}
    for line in lines:
        if ",task_arrival," in line:
            counts["task_arrival"] += 1
        elif ",exec_finish," in line:
            counts["exec_finish"] += 1
        elif "result=failed_to_place" in line:
            counts["failed"] += 1
    if (counts["task_arrival"], counts["exec_finish"], counts["failed"]) != (
            m.tasks_arrived, m.tasks_completed + m.deadline_miss, m.failed_to_place):
        problems.append(f"log counts {counts} disagree with the metrics record")
    try:
        series = sim.utilization_series(lines)
        paid = {}
        finished = []
        for line in lines:
            ev = sim.parse_event_line(line)
            if ev.kind == "auction_round" and "payment=" in ev.detail:
                paid[ev.task_id] = float(ev.detail.rsplit("payment=", 1)[1])
            elif ev.kind == "exec_finish":
                finished.append(ev.task_id)
        by_id = {t.id: t for t in result.tasks}
        profit = 0.0
        for tid in finished:
            profit += by_id[tid].data_in * unit_price - paid[tid]
    except (KeyError, ValueError, IndexError) as exc:
        return problems + [f"log does not replay: {exc!r}"]
    for node, peak in zip(result.nodes, m.peak_memory_mb):
        samples = series.get(node.id, [])
        replayed = max((mem for _, _, mem in samples), default=0.0)
        if abs(replayed - peak) > 1e-6:
            problems.append(f"node {node.id}: replayed peak {replayed!r} != recorded {peak!r}")
    if not math.isclose(profit, m.mn_profit, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"mn_profit {m.mn_profit!r} != {profit!r} recomputed from the log")
    return problems


def _csv_row_matches(cells, m) -> bool:
    expected = (m.mean_completion_s, m.p95_completion_s, float(m.deadline_miss),
                m.fairness_jain, m.mn_profit,
                max(m.peak_memory_mb) if m.peak_memory_mb else 0.0, m.mean_cpu_frac)
    return len(cells) == 11 and all(float(c) == v for c, v in zip(cells[4:], expected))


def execute(workload: str, plan, check: bool) -> dict:
    """Run one workload untraced and time it.

    Returns wall_s and cpu_s (host and CPU seconds inside the program's
    entry points), the timed sections as [monotonic start, monotonic
    end, CPU seconds], a digest per run and per output file, and the
    simulated event count. With `check` set, every run's outputs are
    checked as soon as it returns, outside the timed region: the sweep's
    runs are caught at the name `cli` calls them by, and their time in
    the check is taken off wall_s and cpu_s.
    """
    out = {"wall_s": 0.0, "cpu_s": 0.0, "sections": [], "runs": {}, "files": {},
           "events": None, "problems": {}}
    if workload != "paper_sweep":
        events = 0
        for cfg in plan:
            t0, c0 = time.monotonic(), time.process_time()
            result = sim.run(cfg)
            t1, cpu = time.monotonic(), time.process_time() - c0
            out["sections"].append([t0, t1, cpu])
            out["wall_s"] += t1 - t0
            out["cpu_s"] += cpu
            events += len(result.log_lines)
            out["runs"][run_key(cfg)] = result_digest(result)
            if check:
                problems = check_result(result, cfg.unit_price)
                if problems:
                    out["problems"][run_key(cfg)] = problems
        out["events"] = events
        return out

    run = cli.run
    checked = []  # (metrics, log line count, problems) per run, in run order
    check_s = check_cpu = 0.0

    def checking_run(cfg):
        nonlocal check_s, check_cpu
        result = run(cfg)
        t0, c0 = time.monotonic(), time.process_time()
        checked.append((result.metrics, len(result.log_lines),
                        check_result(result, cfg.unit_price)))
        check_s += time.monotonic() - t0
        check_cpu += time.process_time() - c0
        return result

    if check:
        cli.run = checking_run
    t0, c0 = time.monotonic(), time.process_time()
    try:
        paths = cli.run_experiment(plan)
    finally:
        cli.run = run
    t1, cpu = time.monotonic(), time.process_time() - c0 - check_cpu
    out["sections"].append([t0, t1, cpu])
    out["wall_s"] = t1 - t0 - check_s
    out["cpu_s"] = cpu
    rows = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        out["files"][os.path.basename(path)] = _sha(text)
        if path.endswith("results.csv"):
            rows = text.splitlines()[1:]
    keys = [key for key, _ in sweep_configs(plan)]
    if len(rows) != len(keys):
        out["problems"]["results.csv"] = [f"{len(rows)} rows for {len(keys)} runs"]
    out["runs"] = {key: _sha(row) for key, row in zip(keys, rows)}
    if check:
        for key, row, (metrics, _, problems) in zip(keys, rows, checked):
            if not _csv_row_matches(row.split(","), metrics):
                problems.append("results.csv row disagrees with the run")
            if problems:
                out["problems"][key] = problems
        out["events"] = sum(n for _, n, _ in checked)
    return out
