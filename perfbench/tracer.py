"""Per-layer tracing for the benchmark, installed from outside the package.

Each public function on the run path is replaced, at the name its caller
looks it up by, with a wrapper that keeps an aggregated call count, total
time and self time per metric name. Self time is a call's duration minus
the time spent in wrapped calls it made. Only the coarse boundaries
(sweep, run, workload generation, one assignment) also record a span, so
that leaf calls, which run into the millions, cost no memory per call.
`uninstall` puts every original object back, so an untraced run in the
same process is really untraced.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

import aucrac.cli as cli
import aucrac.containers as containers
import aucrac.costmodel as costmodel
import aucrac.sim as sim
from aucrac.core import Bid, WorkerNode
from aucrac.rng import Rng

RNG_METHODS = ("__init__", "next_u64", "random", "uniform", "randint",
               "expovariate", "choice", "shuffle", "fork")

SPAN_NAMES = ("cli.run_experiment", "sim.run", "core.generate_workload",
              "sim.run_task_auction", "sim.assign")


def _count_bids(tracer, args, result):
    tracer.extra["auction.bids"] += len(args[1])
    if result is not None and result.winner is None:
        tracer.extra["auction.no_winner"] += 1


def _count_placeable(tracer, args, result):
    if result:
        tracer.extra["containers.can_place.true"] += 1


def _count_reaped(tracer, args, result):
    if result is not None:
        tracer.extra["containers.reaped"] += len(result)


def _count_log(tracer, args, result):
    if result is None:
        return
    tracer.extra["sim.events"] += len(result.log_lines)
    for line in result.log_lines:
        if ",auction_round," in line:
            tracer.extra["sim.auction_rounds"] += 1
            if "result=retry" in line or "result=failed_to_place" in line:
                tracer.extra["sim.retry_rounds"] += 1


def _count_csv_bytes(tracer, args, result):
    if result is not None:
        tracer.extra["cli.csv_bytes"] += sum(os.path.getsize(p) for p in result)


def run_path_targets():
    """(owner, attribute, metric name, observer) for every wrapped name.

    The owner is where the caller finds the function: `sim` imports the
    cost model, the auction and workload generation by name, `cli` imports
    `run` by name, and `containers` calls its own functions through its
    module globals. Methods are wrapped on their class.
    """
    targets = [
        (cli, "run_experiment", "cli.run_experiment", _count_csv_bytes),
        (cli, "run", "sim.run", _count_log),
        (sim, "run", "sim.run", _count_log),
        (sim, "run_task_auction", "sim.run_task_auction", None),
        (sim, "assign", "sim.assign", None),
        (sim.SimEvent, "line", "sim.SimEvent.line", None),
        (sim, "generate_workload", "core.generate_workload", None),
        (WorkerNode, "live_memory", "core.WorkerNode.live_memory", None),
        (Bid, "__post_init__", "core.Bid", None),
        (sim, "valuation", "costmodel.valuation", None),
        (sim, "valuation_unchecked", "costmodel.valuation_unchecked", None),
        (sim, "deadline_eligibility", "costmodel.deadline_eligibility", None),
        (sim, "execution_time", "costmodel.execution_time", None),
        (costmodel, "execution_time", "costmodel.execution_time", None),
        (sim, "run_sealed_auction", "auction.run_sealed_auction", _count_bids),
        (containers, "can_place", "containers.can_place", _count_placeable),
        (containers, "select_container", "containers.select_container", None),
        (containers, "create_container", "containers.create_container", None),
        (containers, "release_container", "containers.release_container", None),
        (containers, "reap_idle", "containers.reap_idle", _count_reaped),
        (sim, "new_rng", "rng.new_rng", None),
    ]
    targets.extend((Rng, m, f"rng.Rng.{m}", None) for m in RNG_METHODS)
    return targets


class Tracer:
    """Aggregated counts and self time per name, plus spans at coarse boundaries."""

    def __init__(self):
        self.stats = {}        # name -> [calls, total_s, self_s, raised]
        self.extra = Counter()  # counts taken by observers
        self.spans = []        # (id, name, start, end, parent id or None)
        self._frames = []      # child time of each open wrapped call
        self._open_spans = []
        self._saved = []

    def _wrapper(self, fn, name, observe):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter
        is_span = name in SPAN_NAMES

        def wrapped(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if is_span:
                span_id = len(spans) + len(open_spans)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            ok = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if not ok:
                    stat[3] += 1
                if frames:
                    frames[-1][0] += duration
                if is_span:
                    open_spans.pop()
                    spans.append((span_id, name, start, end, parent))
            if observe is not None:
                # the observer's own time is kept out of the caller's self time
                t0 = clock()
                observe(self, args, result)
                if frames:
                    frames[-1][0] += clock() - t0
            return result

        return wrapped

    def install(self):
        for owner, attr, name, observe in run_path_targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, observe))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def calls(self) -> dict:
        return {name: s[0] for name, s in self.stats.items()}

    def metrics(self) -> dict:
        """Per-layer metrics by name, each as (value, unit)."""
        st = self.stats
        ex = self.extra

        def calls(name):
            return st[name][0]

        def self_s(name):
            return st[name][2]

        def share(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("core.WorkerNode.live_memory", "core.generate_workload",
                     "costmodel.valuation", "auction.run_sealed_auction",
                     "containers.can_place", "containers.select_container",
                     "containers.reap_idle", "sim.run", "sim.run_task_auction",
                     "sim.assign", "sim.SimEvent.line"):
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (self_s(name), "s")
        for name in ("rng.Rng.next_u64", "costmodel.valuation_unchecked",
                     "costmodel.deadline_eligibility", "costmodel.execution_time",
                     "containers.create_container", "containers.release_container"):
            out[f"{name}.calls"] = (calls(name), "count")
        out["rng.self_s"] = (sum(s[2] for n, s in st.items() if n.startswith("rng.")), "s")
        out["core.Bid.created"] = (calls("core.Bid"), "count")
        out["costmodel.valuation.infeasible_ratio"] = (
            share(st["costmodel.valuation"][3], calls("costmodel.valuation")), "ratio")
        out["auction.bids_per_call"] = (
            share(ex["auction.bids"], calls("auction.run_sealed_auction")), "bids/call")
        out["auction.no_winner_ratio"] = (
            share(ex["auction.no_winner"], calls("auction.run_sealed_auction")), "ratio")
        out["containers.can_place.true_ratio"] = (
            share(ex["containers.can_place.true"], calls("containers.can_place")), "ratio")
        out["containers.reaped"] = (ex["containers.reaped"], "count")
        out["sim.events"] = (ex["sim.events"], "count")
        out["sim.retry_ratio"] = (share(ex["sim.retry_rounds"], ex["sim.auction_rounds"]), "ratio")
        out["cli.run_experiment.self_s"] = (self_s("cli.run_experiment"), "s")
        out["cli.csv_bytes"] = (ex["cli.csv_bytes"], "bytes")
        return out

    def write_chrome_trace(self, path: str):
        """Spans as Chrome Trace Event JSON (complete events, microseconds)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        events = [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                   "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                   "pid": 1, "tid": 1, "args": {"id": sid, "parent": parent}}
                  for sid, name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
