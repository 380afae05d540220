"""The library surface the benchmark calls still works: each workload of
``perfbench/workloads.py``, built at its tiny size, runs in-process and
passes the benchmark's own checks.  Renaming or re-signing something the
benchmark uses then fails here, not only when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["markov_stream", "memory_oracle", "pair_scan"])
def test_tiny_workload_passes_its_checks(workloads, tmp_path, name):
    assert name in workloads.WORKLOADS
    workload = workloads.build(name, 1, tmp_path, tiny=True)
    assert workload.items
    for item in workload.items:
        assert item.check(item.run()) == [], item.label
