"""Golden digests: a speed-only change to the engine must keep every run byte-identical.

Each digest is the SHA-256 of a run's log lines (one per line, newline
terminated) followed by repr() of its metrics record. The digests were
recorded before the engine stopped re-pricing every node on every round,
so they pin the behaviour of the straightforward full-rescan engine.
"""

import functools
import hashlib
import os

import pytest

from aucrac import default_config, run
from aucrac.cli import ExperimentSpec, run_experiment
from aucrac.core import STRATEGIES, NodeTemplate

CASES = {f"{s}/seed={seed}": dict(strategy=s, seed=seed)
         for s in STRATEGIES for seed in (0, 1)}
CASES.update({
    f"{s}/{knob}": dict(strategy=s, **{knob.split("=")[0]: knob.split("=")[1]})
    for s in ("aucrac", "auction_basic")
    for knob in ("win_rule=highest", "auction_mode=literal")
})
# large enough to show retries, failed placements and idle reaps
CASES["aucrac/300x20"] = dict(strategy="aucrac", num_devices=300, num_workers=20)
# the cases below were recorded while every node was still priced per task,
# before the engine priced once per node class; past wn999 the string order
# of node ids no longer follows node order
CASES["aucrac/200x1200"] = dict(strategy="aucrac", num_devices=200, num_workers=1200)
CASES["auction_basic/200x1000"] = dict(strategy="auction_basic", num_devices=200,
                                       num_workers=1000)
# every node of one template, and one template per node with a shared unit cost
CASES["aucrac/one_template"] = dict(
    strategy="aucrac", num_devices=300, num_workers=20,
    node_templates=(NodeTemplate(cpu=5e9, memory_mb=8192.0, power_w=200.0),))
CASES["aucrac/template_per_node"] = dict(
    strategy="aucrac", num_devices=300, num_workers=12,
    node_templates=tuple(NodeTemplate(cpu=2e9 + i * 1e9, memory_mb=4096.0 + 512.0 * i,
                                      power_w=100.0 + 10 * i) for i in range(12)))

DIGESTS = {
    "aucrac/200x1200":
        "08ae67a1f476ae05a81e1628fadfb39d1b468c6a38f1af0b32acae369ddcfb2e",
    "aucrac/one_template":
        "a3bb9482b8b7f44a4e041463ecf201996cd5fe1b08bd4cee6991ef38be0dd9ee",
    "aucrac/template_per_node":
        "7d3b26682a6eff7e015dad100a62bf632ad2342e726ada9cf9c09f1a91b8ea39",
    "auction_basic/200x1000":
        "32519682447546ef63212c511992ec2540dbdd1e9aeba1f620f4afed033d469a",
    "aucrac/300x20":
        "72fb9486c7681ac84fb3b740d4ae5c94ff0fcb19cdcefc08031ea671ce4444a9",
    "aucrac/auction_mode=literal":
        "07875ee21155739c4cc254d432d5067f8838459fb755eefababa37648180357f",
    "aucrac/seed=0":
        "2d642fe12816bd0f25e51908d94ea99c3d42f398d35c5120b0f5eef1be0f13d0",
    "aucrac/seed=1":
        "e8a5f024356cdf73613c6dd43f90a1c5d351de074e0debd86bd63963ecd83bdc",
    "aucrac/win_rule=highest":
        "3a01b2e00a8e858b493fae69d0bf839fac38f313417a7a9bcaa7e824f9ac4654",
    "auction_basic/auction_mode=literal":
        "f63ee494b6c0095d7c4bb8159e479567cef602730f0b30689a4ebaa03753640d",
    "auction_basic/seed=0":
        "8afe6740ab52904c041d81452c2330e248a0186c104cf29fa3cde0f44a9120a4",
    "auction_basic/seed=1":
        "d270c64878485fe0c8883931693f0b6e1508d6af7e36979e737e00fa78b73b66",
    "auction_basic/win_rule=highest":
        "1a9d2a2bda437077b0fc105adb6f206cca389e4bde2f6f33b16961f9b3aa2227",
    "greedy/seed=0":
        "258209b41a8f1f464acac75623e7cc0d67be36424a4a9e3cbb99268af0c98d28",
    "greedy/seed=1":
        "278bd26d751f611396bfb35a8d642b97fb5eb7a3a9c0783074b59f380dcca720",
    "mct/seed=0":
        "acf52f5bb92452fbec205e1d6900824adccef5ae4709992faac826fd98577786",
    "mct/seed=1":
        "53c1182e437767476e40e3c86be8f46403797a8b18439c3ac45543183c1378dc",
    "random/seed=0":
        "a5292829b9fd77ea879dd2ec23c60fd71584478aada4fc4e65c299748f5424f4",
    "random/seed=1":
        "6d81bd48a89fccda50d987c15ef232a6777c736cb7328d07995e04de0f918571",
    "round_robin/seed=0":
        "27f3c9919b91bb9ede971e4c2d089382f07f564c7d35a8cdb381111d65e2b139",
    "round_robin/seed=1":
        "791967051b8c6bea0a775cb80c0d57f5a33e315e6567c812c8d533a535f65d08",
}


def digest(result) -> str:
    h = hashlib.sha256()
    for line in result.log_lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    h.update(repr(result.metrics).encode("utf-8"))
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _run(name):
    return run(default_config(**CASES[name]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden_digest(name):
    assert digest(_run(name)) == DIGESTS[name]


def test_the_large_case_exercises_retries_failures_and_reaps():
    lines = _run("aucrac/300x20").log_lines
    assert any("result=retry" in ln for ln in lines)
    assert any("result=failed_to_place" in ln for ln in lines)
    assert any("destroyed=1" in ln for ln in lines)


# the CLI's CSV formatting and seed aggregation over a small sweep:
# devices 10 and 20, all six strategies, seeds 0-2
SWEEP_DIGESTS = {
    "results.csv": "1c9ee75359c81574c9bcdc3d81ddc0532e275906e11d2e545be456bc2edbc9a0",
    "aggregate.csv": "2be9767d644e49414be4065ea3c6b29e5884c96640f41634520b3e2d518c8e0f",
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_csvs_match_their_golden_digests(tmp_path, jobs):
    spec = ExperimentSpec(base=default_config(), sweep_values=(10, 20), seeds=(0, 1, 2),
                          out_dir=str(tmp_path), jobs=jobs)
    for path in run_experiment(spec):
        with open(path, "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        assert got == SWEEP_DIGESTS[os.path.basename(path)]
