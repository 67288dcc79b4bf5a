"""Every setting a config can hold changes a run.

One row per leaf value that `dataclasses.fields` reaches from `SimConfig`:
the row changes it to another valid value, in a small context, and the run's
log, metrics or tasks must differ. A setting without a row fails the
completeness check, so a knob that no run reads cannot come back unnoticed.
"""

from dataclasses import fields

import pytest

from aucrac.core import (ExecutorConfig, NodeTemplate, ResourceWeights, SimConfig,
                         WorkloadSpec, config_from_dict, config_to_dict)
from aucrac.sim import run

_BLOCKS = {"weights": ResourceWeights, "workload": WorkloadSpec, "executor": ExecutorConfig,
           "node_templates": NodeTemplate}

# every row runs the default strategy and mode (aucrac, repaired) unless its context says
_BASE = {"num_devices": 40, "num_workers": 6}
_MCT = {"strategy": "mct"}  # a whole-node strategy: node time constants time its runs
_VM = {"node_templates.executor_mode": "vm"}  # VM guests pay the OS image, not the layer

# (the changes, whose first key names the setting; the context). The triples
# change two members at once, so each still sums to 1.
_ROWS = [
    ({"seed": 1}, {}),
    ({"num_devices": 30}, {}),
    ({"num_workers": 7}, {}),
    ({"strategy": "mct"}, {}),
    ({"auction_mode": "literal"}, {}),
    ({"win_rule": "highest"}, {}),
    ({"unit_price": 0.7}, {}),
    ({"bid_margin": 0.2}, {}),
    ({"horizon_s": 100.0}, {}),
    ({"retry_interval_s": 1.0}, {}),
    ({"weights.lambda1": 0.5, "weights.lambda2": 1 / 6}, {}),
    ({"weights.lambda2": 0.5, "weights.lambda3": 1 / 6}, {}),
    ({"weights.lambda3": 0.5, "weights.lambda1": 1 / 6}, {}),
    ({"weights.alpha1": 2.0}, {}),
    ({"weights.alpha2": 2.0}, {}),
    ({"weights.delta": 2.0}, {}),
    ({"workload.arrival_rate_hz": 0.8}, {}),
    ({"workload.tasks_per_device": 2}, {}),
    ({"workload.mix_lit": 0.5, "workload.mix_mit": 0.2}, {}),
    ({"workload.mix_mit": 0.5, "workload.mix_hit": 0.1}, {}),
    ({"workload.mix_hit": 0.5, "workload.mix_lit": 0.2}, {}),
    ({"workload.lit_cycles": [1e8, 4e8]}, {}),
    ({"workload.mit_cycles": [5e8, 3e9]}, {}),
    ({"workload.hit_cycles": [2e9, 2e10]}, {}),
    ({"workload.memory_mb": [64.0, 1024.0]}, {}),
    ({"workload.power_w": [1.0, 20.0]}, {}),
    ({"workload.data_in_mb": [1.0, 40.0]}, {}),
    ({"workload.data_out_mb": [0.1, 4.0]}, {}),  # reaches only the returned tasks
    ({"workload.deadline_s": [5.0, 10.0]}, {}),
    ({"workload.td_max_s": [1.0, 4.0]}, {}),
    ({"executor.lib_overhead_mb": 30.0}, {}),
    ({"executor.os_image_overhead_mb": 600.0}, _VM),
    ({"executor.slice_granularity": 1e9}, {}),
    ({"executor.idle_ttl_s": 2.0}, {}),
    ({"executor.max_requeues": 1}, {}),
    ({"node_templates.cpu": 3e9}, {}),
    ({"node_templates.memory_mb": 2048.0}, {}),
    ({"node_templates.power_w": 50.0}, {}),
    ({"node_templates.unit_cost": 2.0}, {}),
    ({"node_templates.time_const_s": 2.0}, _MCT),
    ({"node_templates.executor_mode": "vm"}, {}),
]


def _name(changes) -> str:
    return next(iter(changes))


def _settings() -> list:
    """Every settable leaf value, dotted; a template field stands for every template."""
    names = []
    for f in fields(SimConfig):
        block = _BLOCKS.get(f.name)
        names.extend([f"{f.name}.{g.name}" for g in fields(block)] if block else [f.name])
    return names


def _outcome(changes: dict):
    """What a run of the base config with `changes` shows: its log, metrics and tasks."""
    doc = config_to_dict(config_from_dict(_BASE))
    for dotted, value in changes.items():
        block, _, name = dotted.rpartition(".")
        targets = doc[block] if block == "node_templates" else [doc[block] if block else doc]
        for target in targets:
            target[name] = value
    result = run(config_from_dict(doc))
    return list(result.log_lines), result.metrics, result.tasks


def test_every_setting_has_a_row():
    names = [_name(changes) for changes, _ in _ROWS]
    assert len(names) == len(set(names))
    assert set(names) == set(_settings())
    assert len(names) == 41


@pytest.mark.parametrize("changes, context", _ROWS, ids=[_name(c) for c, _ in _ROWS])
def test_every_setting_changes_a_run(changes, context):
    assert _outcome({**context, **changes}) != _outcome(context)
