"""Tests of the benchmark itself, at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(capsys, workload, trace, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def _collisim_bindings():
    """Identity snapshot of every name the tracer may patch."""
    import collisim.engine
    import collisim.scenarios
    names = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "collisim" or mod_name.startswith("collisim."):
            for key, value in vars(mod).items():
                names[(mod_name, key)] = id(value)
    for key, value in collisim.scenarios.SCENARIOS.items():
        names[("SCENARIOS", key)] = id(value)
    names["validate"] = id(vars(collisim.engine.CollisionConfig)["validate"])
    names["eigvalsh"] = id(np.linalg.eigvalsh)
    names["eigh"] = id(np.linalg.eigh)
    return names


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_layer_map_covers_declared_metrics():
    groups = json.loads((HERE / "layer_map.json").read_text())["groups"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    mapped = set().union(*(g["metrics"] for g in groups.values()))
    assert mapped == per_layer
    for group in groups.values():
        for target in group["moves"] + group["flat"]:
            assert target["metric"] in end_to_end
            assert target["workload"] in workloads.WORKLOADS


def test_full_size_collision_counts(tmp_path):
    counts = {w: workloads.build(w, 0, tmp_path).collisions for w in workloads.WORKLOADS}
    assert counts == {"markov_stream": 14700, "memory_oracle": 760, "pair_scan": 17280}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(capsys, workload):
    code, result, out = _bench(capsys, workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac = 0 " in out


def test_per_layer_metrics_and_restored_bindings(capsys):
    before = _collisim_bindings()
    produced = set()
    for workload in workloads.WORKLOADS:
        code, result, _ = _bench(capsys, workload, trace=1)
        assert code == 0 and result["correct"], workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        produced |= {k for k, v in result["metrics"].items() if v["value"] != 0}
        assert (run.OUT / workload / "spans.csv").is_file()
    assert _collisim_bindings() == before
    # every declared layer metric is measured by at least one workload
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_wrappers_reach_every_binding_site():
    import collisim.engine
    import collisim.scenarios
    originals = [collisim.engine.run, collisim.engine.run_paired,
                 collisim.scenarios.run_scenario, collisim.scenarios.write_trajectory_csv,
                 *collisim.scenarios.SCENARIOS.values()]
    validate, eigvalsh = collisim.engine.CollisionConfig.validate, np.linalg.eigvalsh
    tracer = tracing.Tracer()
    with tracer.installed():
        for original in originals:
            assert list(tracing.binding_sites(original)) == [], original
        assert collisim.engine.CollisionConfig.validate is not validate
        assert np.linalg.eigvalsh is not eigvalsh
    assert collisim.engine.run is originals[0]
    assert np.linalg.eigvalsh is eigvalsh


def test_injected_check_failure_raises_failed_frac(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "check_summary", lambda *args: ["injected failure"])
    code, result, out = _bench(capsys, "markov_stream", trace=0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "failed_frac = 1 " in out


def test_layer_metrics_self_time():
    spans = [(-1, "engine.run", 0, 100, 0, ("windowed", 4)),
             (0, "engine.setup", 10, 30, 0, None),
             (0, "linalg.partial_trace", 40, 50, 0, 8),
             (2, "numpy.eig.small", 42, 47, 0, None)]
    m = tracing.layer_metrics(spans)
    assert m["engine.run.self_s"] == pytest.approx(70e-9)
    assert m["linalg.partial_trace.self_s"] == pytest.approx(5e-9)
    assert m["engine.windowed.s_per_collision"] == pytest.approx(80e-9 / 4)
    assert m["engine.max_joint_dim"] == 8
