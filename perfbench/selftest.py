"""Tests of the benchmark itself: metric names, traced counts, the output check.

    python3 -m pytest perfbench/selftest.py

The hand counts below pin how often this commit's run path calls each
layer, which a speed-up is free to change, so the file is not named
test_*.py and the repository's own test run does not collect it. Run it
whenever the benchmark changes, and update the hand counts with it.
"""

import json
import os
import re
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import aucrac.costmodel  # noqa: E402
import aucrac.sim  # noqa: E402
from aucrac import default_config  # noqa: E402
from aucrac.core import WorkloadSpec  # noqa: E402

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny(strategy):
    # 2 light tasks on 3 workers: every node can host them and meet the
    # deadline, so each task is auctioned exactly once
    spec = WorkloadSpec(tasks_per_device=2, mix_lit=1.0, mix_mit=0.0, mix_hit=0.0,
                        lit_cycles=(1e8, 2e8), deadline_s=(100.0, 200.0))
    return replace(default_config(num_devices=1, num_workers=3, strategy=strategy),
                   workload=spec)


def _traced(configs):
    tr = tracer.Tracer()
    with tr:
        for cfg in configs:
            aucrac.sim.run(cfg)
    return tr


def test_metric_names_are_well_formed_and_match_the_tracer():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    with tracer.Tracer() as tr:
        pass
    emitted = {name: unit for name, (_, unit) in tr.metrics().items()}
    emitted["trace.overhead_s"] = "s"
    assert emitted == {m["name"]: m["unit"] for m in bench["per_layer"]}


def test_traced_counts_equal_hand_counts_for_a_whole_node_auction():
    m = {k: v for k, (v, _) in _traced([_tiny("auction_basic")]).metrics().items()}
    # 2 tasks x 3 nodes, priced once at arrival and once in the round
    assert m["costmodel.valuation.calls"] == 12
    assert m["core.Bid.created"] == 6
    assert m["auction.run_sealed_auction.calls"] == 2
    assert m["auction.bids_per_call"] == 3.0
    assert m["costmodel.deadline_eligibility.calls"] == 6
    # one per eligibility check, one per whole-node commit
    assert m["costmodel.execution_time.calls"] == 8
    assert m["sim.run.calls"] == m["core.generate_workload.calls"] == 1
    assert m["sim.run_task_auction.calls"] == 2
    assert m["sim.assign.calls"] == 0
    # arrival, round, start, finish per task; the invariant scan visits 3 nodes per event
    assert m["sim.events"] == m["sim.SimEvent.line.calls"] == 8
    assert m["core.WorkerNode.live_memory.calls"] == 24
    assert m["containers.can_place.calls"] == 0


def test_traced_counts_equal_hand_counts_for_container_auctions():
    m = {k: v for k, (v, _) in _traced([_tiny("aucrac")]).metrics().items()}
    assert m["costmodel.valuation.calls"] == 12
    assert m["containers.can_place.calls"] == 6
    assert m["containers.can_place.true_ratio"] == 1.0
    # one scan per bidder, one more for the winner's commit
    assert m["containers.select_container.calls"] == 8
    assert m["containers.reap_idle.calls"] == 6
    assert m["auction.run_sealed_auction.calls"] == 2
    assert m["sim.retry_ratio"] == 0.0


def test_two_traced_runs_give_identical_call_counts_and_uninstall_cleanly():
    configs = [default_config(num_devices=15, strategy=s, seed=4)
               for s in ("aucrac", "mct", "random", "auction_basic")]
    first = _traced(configs)
    second = _traced(configs)
    assert first.calls() == second.calls()
    assert first.calls()["rng.Rng.next_u64"] > 0
    assert aucrac.sim.valuation is aucrac.costmodel.valuation
    assert aucrac.sim.WorkerNode.live_memory.__name__ == "live_memory"


def _tamper_mem(line):
    return re.sub(r"mem=([0-9.e+-]+)", lambda mo: f"mem={float(mo.group(1)) + 1.0!r}", line, 1)


def _tamper_payment(line):
    return re.sub(r"payment=([0-9.e+-]+)", lambda mo: f"payment={float(mo.group(1)) * 2!r}", line)


@pytest.mark.parametrize("kind, tamper", [("exec_start", _tamper_mem),
                                          ("result=assigned", _tamper_payment)])
def test_output_check_rejects_a_log_with_one_tampered_line(kind, tamper):
    cfg = default_config(num_devices=10, strategy="aucrac", seed=0)
    result = aucrac.sim.run(cfg)
    assert workloads.check_result(result, cfg.unit_price) == []
    lines = list(result.log_lines)
    i = next(i for i, ln in enumerate(lines) if kind in ln)
    lines[i] = tamper(lines[i])
    assert lines[i] != result.log_lines[i]
    assert workloads.check_result(replace(result, log_lines=tuple(lines)), cfg.unit_price)


def test_digest_mismatch_against_the_reference_counts_as_failure():
    runs = {"a": "1", "b": "2"}
    reps = [{"runs": runs, "files": {}, "problems": {}}, {"runs": dict(runs, b="3")}]
    assert bench_run.count_failures(reps, 2, None) == 1
    assert bench_run.count_failures(reps, 2, {"runs": {"a": "x"}}) == 3
    assert bench_run.count_failures(reps, 2, {"runs": runs}) == 1
