"""Experiment runner: config in, CSVs and plot data out.

Exit codes separate failure classes so scripts can branch on them:
0 success, 2 config schema, 3 config constraint, 4 unknown enum value,
5 file I/O, 6 runtime.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass, replace

from .containers import memory_footprint
from .core import (STRATEGIES, ExecutorConfig, SimConfig, WorkerNode, _in_enum, _integer,
                   _json_doc, config_from_dict, default_config)
from .errors import (AucracError, ConstraintError, InputError, SchemaError,
                     UnknownEnumError)
from .rng import MASK64
from .sim import left_sum, run, shared_workloads

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CONSTRAINT = 3
EXIT_ENUM = 4
EXIT_IO = 5
EXIT_RUNTIME = 6

# each sweep variable -> the SimConfig field it sets
_SWEEP_FIELDS = {"devices": "num_devices", "workers": "num_workers", "strategy": "strategy"}
SWEEP_VARS = tuple(_SWEEP_FIELDS)

_AGG_METRICS = ("mean_completion_s", "p95_completion_s", "deadline_miss",
                "fairness_jain", "mn_profit", "peak_mem_mb", "mean_cpu_frac")

RESULTS_HEADER = ",".join(("sweep_var", "sweep_value", "strategy", "seed") + _AGG_METRICS)

FIGURES = ("completion_vs_devices", "memory_vs_tasks", "cpu_vs_tasks", "fairness_table")

log = logging.getLogger("aucrac")


def _read_config(path: str):
    """The parsed JSON of a config file, unchecked."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _json_doc(fh.read())
        except UnicodeDecodeError as exc:  # the file is not UTF-8
            raise SchemaError("config", f"not valid JSON: {exc}") from exc


def load_config(path: str) -> SimConfig:
    """Read and validate a JSON config file. Unknown keys are errors."""
    return config_from_dict(_read_config(path))


@dataclass(frozen=True)
class ExperimentSpec:
    """A full sweep: base config, the swept variable, strategies, seeds."""

    base: SimConfig
    sweep_var: str = "devices"
    sweep_values: tuple = (10, 20, 30, 40, 50)
    strategies: tuple = STRATEGIES
    seeds: tuple = tuple(range(30))
    out_dir: str = "results"
    jobs: int = 1

    def __post_init__(self):
        _in_enum("sweep_var", self.sweep_var, SWEEP_VARS)
        integers = ("seeds",) if self.sweep_var == "strategy" else ("sweep_values", "seeds")
        for name in ("sweep_values", "strategies", "seeds"):
            values = tuple(getattr(self, name))
            if not values:
                raise ConstraintError(name, "must be non-empty")
            for value in values if name in integers else ():  # results.csv writes each as given
                _integer(name, value)
            # a repeat merges aggregate groups, and so do seeds that Rng masks alike
            if len({v & MASK64 if name == "seeds" else v for v in values}) != len(values):
                raise ConstraintError(name, "must be distinct")
            object.__setattr__(self, name, values)
        for s in self.strategies:
            _in_enum("strategy", s, STRATEGIES)
        if self.sweep_var == "strategy" and self.strategies != STRATEGIES:
            raise ConstraintError("strategies", "a strategy sweep names the strategies; "
                                                "leave strategies at its default")
        _integer("jobs", self.jobs, 1)


def _configs_for(spec: ExperimentSpec):
    """Deterministic run order: sweep value, then strategy, then seed."""
    name = _SWEEP_FIELDS[spec.sweep_var]
    combos = []
    for value in spec.sweep_values:
        for strategy in (value,) if spec.sweep_var == "strategy" else spec.strategies:
            for seed in spec.seeds:
                cfg = replace(spec.base, **{name: value, "strategy": strategy, "seed": seed})
                combos.append((value, strategy, seed, cfg))
    return combos


def _run_one(config: SimConfig):
    return run(config).metrics


def run_experiment(spec: ExperimentSpec) -> tuple:
    """Run the sweep; write results.csv and aggregate.csv under out_dir.

    Reruns of the same spec produce byte-identical files.
    """
    combos = _configs_for(spec)
    log.info("running %d simulations (%s sweep, %d seeds)",
             len(combos), spec.sweep_var, len(spec.seeds))
    os.makedirs(spec.out_dir, exist_ok=True)  # an --out that cannot be made fails before any run
    if spec.jobs > 1:
        # the pool's import costs a serial run's start about 20 ms
        from concurrent.futures import ProcessPoolExecutor

        # under fork the pool starts every worker at its first submit, so cap them at the CPUs
        with ProcessPoolExecutor(max_workers=min(spec.jobs, os.cpu_count() or 1)) as pool:
            metrics = list(pool.map(_run_one, [c[-1] for c in combos], chunksize=4))
    else:
        # each workload is drawn once, and the runs keep the row order
        with shared_workloads():
            metrics = [_run_one(c[-1]) for c in combos]

    results_path = os.path.join(spec.out_dir, "results.csv")
    rows = []
    for (value, strategy, seed, _cfg), m in zip(combos, metrics):
        rows.append((value, strategy, seed, (
            m.mean_completion_s, m.p95_completion_s, float(m.deadline_miss),
            m.fairness_jain, m.mn_profit,
            max(m.peak_memory_mb) if m.peak_memory_mb else 0.0,
            m.mean_cpu_frac,
        )))
    with open(results_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for value, strategy, seed, vals in rows:
            cells = [spec.sweep_var, str(value), strategy, str(seed)]
            cells.extend(map(str, vals))
            fh.write(",".join(cells) + "\n")

    # aggregate across seeds, population stddev so a single seed reads as 0
    agg_path = os.path.join(spec.out_dir, "aggregate.csv")
    groups = {}
    for value, strategy, _seed, vals in rows:
        groups.setdefault((value, strategy), []).append(vals)
    with open(agg_path, "w", encoding="utf-8", newline="\n") as fh:
        header = ["sweep_var", "sweep_value", "strategy", "n_seeds"]
        for name in _AGG_METRICS:
            header.extend((f"{name}_mean", f"{name}_std"))
        fh.write(",".join(header) + "\n")
        for (value, strategy), rows_v in groups.items():
            cells = [spec.sweep_var, str(value), strategy, str(len(rows_v))]
            for i in range(len(_AGG_METRICS)):
                xs = [r[i] for r in rows_v]
                mean = left_sum(xs) / len(xs)
                var = max(0.0, left_sum(x * x for x in xs) / len(xs) - mean * mean)
                cells.extend((str(mean), str(math.sqrt(var))))
            fh.write(",".join(cells) + "\n")
    log.info("wrote %s and %s", results_path, agg_path)
    return results_path, agg_path


def _read_results(path: str):
    """The data rows of a results.csv, each a dict with its metrics as floats."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise InputError(f"{path} is empty")
    if lines[0][1] != RESULTS_HEADER:
        raise SchemaError(f"{path}:{lines[0][0]}", f"columns must be exactly {RESULTS_HEADER!r}")
    header = RESULTS_HEADER.split(",")
    rows = []
    for n, ln in lines[1:]:
        where, cells = f"{path}:{n}", ln.split(",")
        if len(cells) != len(header):
            raise SchemaError(where, f"expected {len(header)} cells, got {len(cells)}")
        row = dict(zip(header, cells))
        for name in _AGG_METRICS:
            try:
                row[name] = float(row[name])
            except ValueError:
                raise SchemaError(where, f"{name} must be a number, got {row[name]!r}") from None
        rows.append(row)
    if not rows:
        raise InputError(f"{path} has no data rows")
    return rows


def _reference_node(executor: ExecutorConfig | None) -> WorkerNode:
    cfg = default_config()
    t = cfg.node_templates[0]
    return WorkerNode(id="ref", cpu=t.cpu, memory=t.memory_mb, power=t.power_w,
                      unit_cost=t.unit_cost, time_const=t.time_const_s,
                      executor_mode=t.executor_mode,
                      executor=cfg.executor if executor is None else executor)


def _device_count(sweep_var: str, value) -> float:
    """The x of the completion figure, which needs a devices sweep: a
    strategy sweep has no numeric axis, and a workers sweep another one."""
    try:
        if sweep_var == "devices":
            return float(value)
    except ValueError:
        pass
    kind = "devices" if sweep_var == "workers" else "numeric"
    raise InputError(f"figure completion_vs_devices needs a {kind} sweep, got "
                     f"{sweep_var}={value}")


def emit_plot_data(results_csv: str, figure: str, out_dir: str | None = None,
                   executor: ExecutorConfig | None = None) -> list:
    """Write two-column data files for one figure; returns the paths written.

    Series from the results feed the completion and fairness figures; the
    memory and CPU versus task count figures come from the executor load
    model's constants, one series per mode. The memory figure adds the image
    overheads of `executor`, the built-in config's when it is None.
    """
    _in_enum("figure", figure, FIGURES)
    rows = _read_results(results_csv)
    if out_dir is None:
        out_dir = os.path.dirname(os.path.abspath(results_csv))
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write_series(name: str, pairs):
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,y\n")
            for x, y in pairs:
                fh.write(f"{x},{y}\n")
        written.append(path)

    def order(strategy):  # strategies this version does not know go last
        return (STRATEGIES.index(strategy) if strategy in STRATEGIES else len(STRATEGIES), strategy)

    if figure == "completion_vs_devices":
        series = {}
        for r in rows:
            x = _device_count(r["sweep_var"], r["sweep_value"])
            series.setdefault((r["strategy"], x), []).append(r["mean_completion_s"])
        for strategy in sorted({s for s, _ in series}, key=order):
            pairs = sorted((x, left_sum(v) / len(v)) for (s, x), v in series.items()
                           if s == strategy)
            write_series(f"completion_vs_devices__{strategy}", pairs)
    elif figure == "fairness_table":
        by_strategy = {}
        for r in rows:
            by_strategy.setdefault(r["strategy"], []).append(r["fairness_jain"])
        path = os.path.join(out_dir, "fairness_table.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("strategy,fairness_jain_mean\n")
            for strategy in sorted(by_strategy, key=order):
                vals = by_strategy[strategy]
                fh.write(f"{strategy},{left_sum(vals) / len(vals)}\n")
        written.append(path)
    elif figure == "memory_vs_tasks":
        node = _reference_node(executor)
        counts = range(0, 51, 5)
        for mode in ("container", "vm"):
            write_series(f"memory_vs_tasks__{mode}",
                         [(k, memory_footprint(node, k, mode)) for k in counts])
    elif figure == "cpu_vs_tasks":
        counts = range(0, 51, 5)
        for mode in ("container", "vm"):
            scale = 1.0 + (ExecutorConfig.vm_cpu_overhead_frac if mode == "vm" else 0.0)
            write_series(f"cpu_vs_tasks__{mode}", [
                (k, min(1.0, k * ExecutorConfig.cpu_share_per_task * scale)) for k in counts])
    return written


def _parse_seeds(text: str) -> tuple:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise SchemaError("seeds", f"cannot parse {text!r}: {exc}") from exc
    except (MemoryError, OverflowError) as exc:  # a range too long to hold
        raise ConstraintError("seeds", f"{text!r} names more seeds than fit in memory") from exc


def _parse_sweep(text: str) -> tuple:
    if "=" not in text:
        raise SchemaError("sweep", f"expected var=v1,v2,..., got {text!r}")
    var, _, values = text.partition("=")
    var = var.strip()
    if var not in SWEEP_VARS:
        raise UnknownEnumError("sweep", f"must sweep one of {SWEEP_VARS}, got {var!r}")
    vals = [v.strip() for v in values.split(",") if v.strip()]
    if not vals:
        raise SchemaError("sweep", "needs at least one value")
    if var == "strategy":
        return var, tuple(vals)
    try:
        return var, tuple(int(v) for v in vals)
    except ValueError as exc:
        raise SchemaError("sweep", f"{var} values must be integers: {exc}") from exc


def _setup_logging():
    level_name = os.environ.get("AUCRAC_LOG", "info").lower()
    _in_enum("AUCRAC_LOG", level_name, ("info", "off"))
    if level_name == "off":
        logging.disable(logging.CRITICAL)
        return
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="aucrac",
                                description="Run offloading simulations and export CSV results.")
    p.add_argument("--config", help="JSON config file; defaults to the built-in config")
    p.add_argument("--sweep", help="sweep spec, e.g. devices=10,20,30,40,50")
    p.add_argument("--seeds", help="seed list '0,1,2' or range '0..29' (default 0..29)")
    p.add_argument("--strategy", help="one strategy name, or 'all' (default: all)")
    p.add_argument("--mode", choices=("literal", "repaired"), help="auction mode override")
    p.add_argument("--win-rule", choices=("highest", "lowest"), help="win rule override")
    p.add_argument("--out", default="results", help="output directory (default ./results)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--emit-plots", help="comma list of figures, or 'all'")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        # flags win over the config file, and the file over the built-in defaults
        doc = _read_config(args.config) if args.config else {}
        config = config_from_dict(doc)
        if args.mode:
            config = replace(config, auction_mode=args.mode)
        if args.win_rule:
            config = replace(config, win_rule=args.win_rule)
        strategies = (config.strategy,) if "strategy" in doc else STRATEGIES
        if args.strategy == "all":
            strategies = STRATEGIES
        elif args.strategy:
            strategies = (args.strategy,)
            config = replace(config, strategy=args.strategy)
        sweep_var, sweep_values = ("devices", (config.num_devices,))
        if args.sweep:
            sweep_var, sweep_values = _parse_sweep(args.sweep)
        if sweep_var == "strategy":  # the sweep wins over a config file's strategy
            if args.strategy and args.strategy != "all":
                raise ConstraintError("strategy", f"--strategy {args.strategy} conflicts "
                                                  "with a strategy sweep")
            strategies = STRATEGIES
        if args.seeds:
            seeds = _parse_seeds(args.seeds)
        else:
            seeds = (config.seed,) if "seed" in doc else tuple(range(30))
        if args.emit_plots == "all":  # every figure the sweep supports
            figures = tuple(f for f in FIGURES
                            if sweep_var == "devices" or f != "completion_vs_devices")
        else:
            figures = tuple(f.strip() for f in (args.emit_plots or "").split(",") if f.strip())
        for figure in figures:  # a bad figure fails before the sweep, not after it
            _in_enum("figure", figure, FIGURES)
            if figure == "completion_vs_devices":
                _device_count(sweep_var, sweep_values[0])
        spec = ExperimentSpec(base=config, sweep_var=sweep_var, sweep_values=sweep_values,
                              strategies=strategies, seeds=seeds, out_dir=args.out,
                              jobs=args.jobs)
        results_path, _agg = run_experiment(spec)
        for figure in figures:
            for path in emit_plot_data(results_path, figure, out_dir=args.out,
                                       executor=config.executor):
                log.info("wrote %s", path)
    except SchemaError as exc:
        print(f"config schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except UnknownEnumError as exc:
        print(f"unknown value: {exc}", file=sys.stderr)
        return EXIT_ENUM
    except ConstraintError as exc:
        print(f"config constraint violated: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AucracError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
