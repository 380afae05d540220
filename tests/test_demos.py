"""Each demo script runs to the end against the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("demo_*.py"))


def test_demos_found():
    assert [p.stem for p in DEMOS] == ["demo_battery", "demo_landauer",
                                       "demo_memory_effects", "demo_thermalization"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a demo saves its figure when matplotlib is present
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
