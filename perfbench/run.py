"""Benchmark of the aucrac simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the reasons for each are in BENCHMARK.json and reference.json):
`paper_sweep`, `scale_aucrac`, `scale_wholenode`. Run from the root of a
checkout; the program is imported from its `src` directory.

With `--trace 0` the workload is repeated, each time in a fresh process,
until its repetitions have taken S seconds (at least once), and the
end-to-end metrics are medians over those repetitions. Set-up time is
the median over at least 7 fresh processes that only set up, spread
between the repetitions.

Times are reference seconds, not raw host seconds. On a shared host the
speed of the same code drifts by up to 2x over seconds to minutes, and
the process's CPU time drifts with it, since the CPU itself runs slower.
So every timed process runs on one CPU together with speedometer.py,
which takes turns with it on that CPU and counts fixed chunks of work:
with an equal share beside a set-up process, at niceness 19 beside a
repetition. The process's CPU time is converted into chunks of work done
at the speed of that moment (see speedometer.py), which removes the
drift. The benchmark pins itself to one CPU, so the other CPUs stay
idle. The raw host and CPU times are printed and kept in perfbench/out/
too. peak_rss_mb is the median over repetitions.

The first repetition's outputs are checked (conservation, log replay of
peak memory, manager profit recomputed from the log); every later
repetition must reproduce its digests exactly, and for the default seed
the digests must equal the ones in reference.json.

With `--trace 1` one untraced and one traced repetition run, each alone
on the CPU, and the per-layer metrics come from the traced one, with the
tracing overhead. Per-layer times and the overhead are host seconds as
measured, not converted.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Details of
each run, with the environment, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEEDOMETER = os.path.join(HERE, "speedometer.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("paper_sweep", "scale_aucrac", "scale_wholenode")
SETUP_SAMPLES = 7
BUDGET_S = 170.0  # the whole invocation must end within 180 s


def to_reference(window, chunks) -> float:
    """Reference seconds of a timed window [start, end, CPU seconds],
    given the speedometer's (end, CPU seconds) chunks on the same CPU."""
    start, end, cpu = window
    inside = [c for t, c in chunks if start <= t <= end]
    if not inside:
        raise ValueError("no speedometer chunk ended inside a timed window")
    return cpu * speedometer.REF_CHUNK_S * len(inside) / sum(inside)


def _stop(proc: subprocess.Popen) -> str:
    """End a speedometer, wait for it and return what it printed."""
    proc.terminate()
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out


def spawn(workload: str, seed: int, mode: str, deadline: float, check: bool = False,
          paced: bool = False) -> dict:
    """Run one worker process to completion and return its report.

    With `paced`, a speedometer shares the CPU with the worker, and the
    report gains setup_ref_s or, for a repetition, ref_s.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if check:
        cmd.append("--check")
    t0 = time.monotonic()
    meter = None
    try:
        if paced:
            nice = "0" if mode == "setup" else "19"
            meter = subprocess.Popen([sys.executable, SPEEDOMETER, "--nice", nice], cwd=ROOT,
                                     stdout=subprocess.PIPE, text=True)
            if meter.stdout.readline().strip() != "ready":
                return {"error": "speedometer did not start", "elapsed_s": time.monotonic() - t0}
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process timed out", "elapsed_s": time.monotonic() - t0}
    finally:
        meter_out = _stop(meter) if meter is not None else ""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0], "elapsed_s": time.monotonic() - t0}
    try:
        report = json.loads(lines[-1])
        if paced:
            chunks = json.loads(meter_out.strip().splitlines()[-1])
            if mode == "setup":
                report["setup_ref_s"] = to_reference(report["setup_section"], chunks)
            else:
                secs = report["sections"]
                window = [secs[0][0], secs[-1][1], sum(cpu for _, _, cpu in secs)]
                report["ref_s"] = to_reference(window, chunks)
                report["chunks"] = sum(1 for t, _ in chunks if window[0] <= t <= window[1])
                report["chunk_cpu_s"] = statistics.median(c for _, c in chunks)
    except (ValueError, IndexError) as exc:
        return {"error": f"unreadable report: {exc}", "elapsed_s": time.monotonic() - t0}
    report["elapsed_s"] = time.monotonic() - t0
    return report


def environment(version: str, nproc: int) -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": nproc, "python": platform.python_version(),
            "git_sha": sha, "aucrac_version": version}


def count_failures(reps: list, planned: int, reference: dict | None) -> int:
    """Runs that raised or failed the output check, over every repetition.

    The first repetition is the checked one. A run of a later repetition
    fails when its digest differs from the checked run's. With reference
    digests (default seed), a checked run that differs from them fails,
    and so does every run of a repetition whose CSV files differ.
    """
    checked = reps[0]
    if "error" in checked:
        return planned * len(reps)
    bad = set(checked["problems"])
    if "results.csv" in bad:
        bad |= set(checked["runs"])
    if reference is not None:
        ref_runs = reference.get("runs", {})
        bad |= {k for k, d in checked["runs"].items() if k in ref_runs and ref_runs[k] != d}
        bad |= {k for k in ref_runs if k not in checked["runs"]}
        if any(checked["files"].get(name) != d for name, d in reference.get("files", {}).items()):
            bad |= set(checked["runs"])
    failed = 0
    for rep in reps:
        if "error" in rep:
            failed += planned
            continue
        runs = rep["runs"]
        failed += sum(1 for k, d in checked["runs"].items() if k in bad or runs.get(k) != d)
        failed += max(0, planned - len(checked["runs"]))
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the aucrac simulator.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "aucrac", "__init__.py")):
        print(f"no aucrac sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    reference = ref["digests"][args.workload] if args.seed == ref["default_seed"] else None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # every process started from here inherits it
    paced = not args.trace

    setups = [spawn(args.workload, args.seed, "setup", deadline, paced=paced)]
    if "error" in setups[0]:
        print(f"set-up failed: {setups[0]['error']}", file=sys.stderr)
        return 1
    planned = setups[0]["planned"]

    reps = [spawn(args.workload, args.seed, "rep", deadline, check=True, paced=paced)]
    if args.trace:
        reps.append(spawn(args.workload, args.seed, "trace", deadline))
    else:
        # set-up samples are spread between repetitions
        elapsed = reps[0]["elapsed_s"]
        while elapsed < args.seconds and time.monotonic() + 1.5 * reps[-1]["elapsed_s"] < deadline:
            setups.append(spawn(args.workload, args.seed, "setup", deadline, paced=True))
            reps.append(spawn(args.workload, args.seed, "rep", deadline, paced=True))
            elapsed += reps[-1]["elapsed_s"]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, "setup", deadline, paced=True))
    good_setups = [s for s in setups if "error" not in s]

    attempted = planned * len(reps)
    failed = count_failures(reps, planned, reference)
    ok = [r for r in reps if "error" not in r]
    env = environment(setups[0]["version"], len(cpus))
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"of {planned} runs, host wall times {[round(r['wall_s'], 3) for r in ok]} s")
    for rep in reps:
        if "error" in rep:
            print(f"error: {rep['error']}")
        for key, problems in rep.get("problems", {}).items():
            print(f"check failed: {key}: {'; '.join(problems)}")
    if "error" not in reps[0]:
        # per-run digests of the sweep are digests of its results.csv rows
        runs = {} if args.workload == "paper_sweep" else reps[0]["runs"]
        print("digests " + json.dumps({"files": reps[0]["files"], "runs": runs}))

    metrics = {}
    if args.trace:
        traced, untraced = reps[1], reps[0]
        if "error" not in traced:
            for name, (value, unit) in traced["per_layer"].items():
                metrics[name] = {"value": value, "unit": unit}
            if "error" not in untraced:
                metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"],
                                               "unit": "s"}
            print(f"chrome trace: {traced['trace_path']}")
    elif ok:
        wall_s = statistics.median(r["ref_s"] for r in ok)
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_ref_s"] for s in good_setups),
                        "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "events_per_s": {"value": (reps[0].get("events") or 0) / wall_s, "unit": "events/s"},
            "peak_rss_mb": {"value": statistics.median([r["maxrss_kb"] for r in ok]) / 1024.0,
                            "unit": "MB"},
        }
        print(f"raw medians: set-up {statistics.median(s['setup_s'] for s in good_setups):.6g} s "
              f"host, {statistics.median(s['setup_cpu_s'] for s in good_setups):.6g} s CPU; "
              f"run {statistics.median(r['wall_s'] for r in ok):.6g} s host, "
              f"{statistics.median(r['cpu_s'] for r in ok):.6g} s CPU; speedometer chunk "
              f"{statistics.median(r['chunk_cpu_s'] for r in ok):.6g} s CPU (reference "
              f"{speedometer.REF_CHUNK_S} s), {min(r['chunks'] for r in ok)}+ chunks a run")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"run_error_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")

    os.makedirs(OUT, exist_ok=True)
    detail = {"env": env, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setups": good_setups,
              "reps": [{k: v for k, v in r.items() if k != "runs"} for r in reps],
              "metrics": metrics, "attempted": attempted, "failed": failed}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    correct = failed == 0 and len(ok) == len(reps) and len(good_setups) == len(setups)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
