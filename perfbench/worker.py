"""One fresh benchmark process: set up, then run one workload once.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--check]

MODE is `setup` (import and build configs only), `rep` (one untraced,
timed repetition) or `trace` (one traced repetition). Set-up is reported
as host and CPU seconds with its window on the monotonic clock, so that
run.py can convert it with speedometer.py's records of the same window.
The process prints one JSON object on its last line. `aucrac` is
imported from the `src` directory of the checkout this file sits in,
never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_program():
    sys.path.insert(0, SRC)
    import aucrac
    import aucrac.cli  # noqa: F401  (the sweep's entry point is part of set-up)
    if not os.path.abspath(aucrac.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"aucrac imported from {aucrac.__file__}, not from {SRC}")
    return aucrac


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "rep", "trace"), required=True)
    p.add_argument("--check", action="store_true")
    args = p.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="sweep-", dir=OUT)
    try:
        t0, c0 = time.monotonic(), time.process_time()
        aucrac = _import_program()
        import workloads
        plan = workloads.build(args.workload, args.seed, out_dir)
        t1, cpu = time.monotonic(), time.process_time() - c0
        report = {"setup_s": t1 - t0, "setup_cpu_s": cpu, "setup_section": [t0, t1, cpu],
                  "version": aucrac.__version__, "planned": workloads.planned(plan)}
        if args.mode == "setup":
            print(json.dumps(report))
            return 0
        if args.mode == "trace":
            import tracer
            tr = tracer.Tracer()
            with tr:
                executed = workloads.execute(args.workload, plan, check=False)
            trace_path = os.path.join(OUT, f"trace-{args.workload}.json")
            tr.write_chrome_trace(trace_path)
            report["per_layer"] = tr.metrics()
            report["stats"] = {name: dict(zip(("calls", "total_s", "self_s", "raised"), st))
                               for name, st in tr.stats.items()}
            report["trace_path"] = os.path.relpath(trace_path, ROOT)
        else:
            executed = workloads.execute(args.workload, plan, check=args.check)
            report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report.update(executed)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
