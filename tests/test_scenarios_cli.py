import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collisim
from collisim import cli, engine, nonmarkov, scenarios
from collisim.engine import run, run_paired
from collisim.errors import ConfigError
from test_engine import BROKEN, CLAMPED, plant

FAST = {"n_steps": 150}  # enough steps for the default flux window
SMALL = {  # a few collisions per scenario, enough for every window
    "thermalization": {"n_steps": 10},
    "nonmarkov_sweep": {"n_steps": 4, "p_grid": [0.5], "bound_steps": 2},
    "battery": {"n_steps": 20, "window": 5},
    "two_qubit_local_global": {"n_steps": 60, "window": 20},
    "landauer": {"n_steps": 120, "window": 20, "beta_grid": [1.0]},
    "continuous_limit": {"total_time": 1.0, "tau_grid": [0.1, 0.05]},
}


class TestRegistry:
    def test_all_scenarios_registered(self):
        assert set(scenarios.SCENARIOS) == {
            "thermalization", "nonmarkov_sweep", "battery",
            "two_qubit_local_global", "landauer", "continuous_limit"}

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown scenario 'nope'; available: battery, "
                                              "continuous_limit, landauer, nonmarkov_sweep, "
                                              "thermalization, two_qubit_local_global"):
            scenarios.run_scenario("nope")

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            scenarios.run_scenario("thermalization", {"not_a_key": 1})

    def test_summaries_echo_parameters(self):
        result = scenarios.run_scenario("thermalization", FAST)
        assert result.summary["params"]["n_steps"] == 150
        assert result.summary["seed"] == 0
        assert result.summary["log_base"] == 2.0


class TestRunner:
    def test_defaults_match_registry(self):
        assert set(scenarios.DEFAULTS) == set(scenarios.SCENARIOS)

    @pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
    def test_echoed_defaults_are_valid_overrides(self, name):
        # every default has a type the override check handles, so the
        # parameters a summary echoes are themselves a valid override set
        echoed = scenarios._merge(scenarios.DEFAULTS[name], {}, name)
        assert scenarios._merge(scenarios.DEFAULTS[name], echoed, name) == echoed

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_summary_opens_with_echo(self, name):
        result = scenarios.run_scenario(name, SMALL[name], seed=3, log_base=math.e)
        params = scenarios._merge(scenarios.DEFAULTS[name], SMALL[name], name)
        assert list(result.summary.items())[:3] == [
            ("params", params), ("seed", 3), ("log_base", math.e)]
        assert result.trajectory.config.rng_seed == 3

    @pytest.mark.parametrize("name", sorted(SMALL))
    @pytest.mark.parametrize("seed", [-1, True, 1.0, "3", None])
    def test_bad_seed_is_named_before_any_config(self, monkeypatch, name, seed):
        def no_config(*args, **kwargs):
            raise AssertionError("a configuration was built")
        monkeypatch.setattr(scenarios, "CollisionConfig", no_config)
        with pytest.raises(ConfigError, match=r"^seed must be an integer >= 0, got "):
            scenarios.run_scenario(name, SMALL[name], seed=seed)

    def test_log_base_of_one_is_named(self):
        with pytest.raises(ConfigError, match=r"^log_base must be finite and > 1, got 1.0$"):
            scenarios.run_scenario("thermalization", {"n_steps": 5}, log_base=1.0)


def reference_csv(rows, path):
    """The CSV writer formatting one cell at a time: the oracle for its bytes."""
    with open(path, "w") as fh:
        fh.write(f"# schema_version {scenarios.CSV_SCHEMA_VERSION}\n")
        fh.write(scenarios.CSV_HEADER + "\n")
        for row in rows:
            cells = [str(row[0])] + [f"{x:.17g}" for x in row[1:]]
            fh.write(",".join(cells) + "\n")


def reference_json(summary, rows, path):
    """The JSON writer as one ``json.dump``: the oracle for its bytes."""
    names = scenarios.CSV_HEADER.split(",")
    doc = {"schema_version": scenarios.CSV_SCHEMA_VERSION, "summary": summary,
           "records": [dict(zip(names, row)) for row in rows]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def assert_writers_match_reference(tmp_path, traj, summary):
    """Both public writers give the reference bytes of the checked columns."""
    expected = list(zip(*(column.tolist() for column in scenarios._checked_columns(traj))))
    reference_csv(expected, tmp_path / "ref.csv")
    reference_json(summary, expected, tmp_path / "ref.json")
    scenarios.write_trajectory_csv(traj, tmp_path / "out.csv")
    scenarios.write_trajectory_json(traj, summary, tmp_path / "out.json")
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"out{suffix}").read_bytes() \
            == (tmp_path / f"ref{suffix}").read_bytes(), suffix


WRITERS = {  # each public writer, the JSON one with an empty summary
    "csv": scenarios.write_trajectory_csv,
    "json": lambda traj, path: scenarios.write_trajectory_json(traj, {}, path),
}


def written_rows(stem, traj) -> list[int]:
    """The rows each writer writes for ``traj``, CSV then JSON."""
    for suffix, write in WRITERS.items():
        write(traj, stem.with_suffix("." + suffix))
    return [len(stem.with_suffix(".csv").read_text().splitlines()) - 2,
            len(json.loads(stem.with_suffix(".json").read_text())["records"])]


def assert_write_rejected(stem, traj, message):
    """Each writer rejects ``traj`` with ``message`` and leaves no file."""
    for suffix, write in WRITERS.items():
        path = stem.with_suffix("." + suffix)
        with pytest.raises(ConfigError, match=message):
            write(traj, path)
        assert not path.exists(), suffix


# one value outside the range of each parameter in scenarios.RANGES (a grid's
# value is its first entry)
OUT_OF_RANGE = {
    "beta": -1.0, "beta_hot": math.nan, "beta_cold": math.inf, "beta_grid": [-1.0],
    "gamma": math.inf, "tau": -1.0, "tau_grid": [0.0], "total_time": 0.0,
    "p_grid": [1.5], "modes": ["off"], "metric": "js", "window": 0, "theta": math.inf,
}

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-17, 3.0]
CHUNK = scenarios.WRITE_CHUNK


class TestWriterBytes:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_scenario_files_match_reference(self, tmp_path, name):
        result = scenarios.run_scenario(name, SMALL[name])
        d_pair = result.trajectory.ledger.get("D_pair")
        # only the paired sweep fills D_pair; the other files carry a NaN column
        assert (d_pair is not None and np.all(np.isfinite(d_pair))) \
            == (name == "nonmarkov_sweep")
        assert_writers_match_reference(tmp_path, result.trajectory, result.summary)

    @pytest.mark.parametrize("n_rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_special_values_and_chunk_seams(self, tmp_path, monkeypatch, n_rows):
        # every row holds non-finite, signed-zero, subnormal and huge cells,
        # each in a column that moves from row to row; the columns stand in
        # for the checked ones, as the check rejects an infinite residual
        width = len(scenarios.CSV_HEADER.split(",")) - 1
        columns = [np.arange(n_rows)] + [
            np.array([SPECIAL[(i + j) % len(SPECIAL)] for i in range(n_rows)], dtype=float)
            for j in range(width)]
        monkeypatch.setattr(scenarios, "_checked_columns", lambda traj: columns)
        result = scenarios.run_scenario("thermalization", SMALL["thermalization"])
        summary = {**result.summary, "extremes": SPECIAL}
        assert_writers_match_reference(tmp_path, result.trajectory, summary)


class TestTrajectoryOutput:
    def test_json_reruns_are_byte_identical(self, tmp_path):
        # criterion 11 asks this of the CSV; the JSON file is held to the same
        files = []
        for i in range(2):
            result = scenarios.run_scenario("thermalization", FAST, seed=1)
            path = tmp_path / f"run{i}.json"
            scenarios.write_trajectory_json(result.trajectory, result.summary, path)
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_csv_reruns_are_byte_identical(self, tmp_path):
        paths = []
        for i in range(2):
            result = scenarios.run_scenario("thermalization", FAST, seed=1)
            path = tmp_path / f"run{i}.csv"
            scenarios.write_trajectory_csv(result.trajectory, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_csv_schema_and_shape(self, tmp_path):
        result = scenarios.run_scenario("thermalization", FAST)
        path = tmp_path / "out.csv"
        scenarios.write_trajectory_csv(result.trajectory, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# schema_version {scenarios.CSV_SCHEMA_VERSION}"
        assert lines[1] == scenarios.CSV_HEADER
        assert len(lines) == 2 + 150
        assert all(len(line.split(",")) == 10 for line in lines[2:])

    def test_csv_and_json_agree_numerically(self, tmp_path):
        result = scenarios.run_scenario("thermalization", FAST)
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
        scenarios.write_trajectory_csv(result.trajectory, csv_path)
        scenarios.write_trajectory_json(result.trajectory, result.summary, json_path)
        doc = json.loads(json_path.read_text())
        assert doc["schema_version"] == scenarios.CSV_SCHEMA_VERSION
        names = scenarios.CSV_HEADER.split(",")
        csv_lines = csv_path.read_text().splitlines()[2:]
        assert len(csv_lines) == len(doc["records"])
        for line, rec in zip(csv_lines, doc["records"]):
            cells = line.split(",")
            assert int(cells[0]) == rec["step"]
            for name, cell in zip(names[1:], cells[1:]):
                csv_val = float(cell)
                json_val = rec[name]
                if math.isnan(csv_val):
                    assert json_val is None or math.isnan(json_val)
                else:
                    assert csv_val == json_val  # 17 significant digits round-trip

    def test_first_law_checked_at_write_time(self, tmp_path):
        traj = scenarios.run_scenario("thermalization", FAST).trajectory
        assert written_rows(tmp_path / "ok", traj) == [150, 150]
        traj.ledger["W"][7] += 1e-6
        assert_write_rejected(tmp_path / "bad", traj, "first-law residual")

    def test_entropy_chain_checked_at_write_time(self, tmp_path):
        traj = scenarios.run_scenario("thermalization", FAST).trajectory
        traj.ledger["I_SE"][7] = -1e-6
        assert_write_rejected(tmp_path / "bad", traj, "entropy-production chain")
        # with unit-unit collisions a unit may arrive correlated: no chain check
        traj = scenarios.run_scenario("nonmarkov_sweep", SMALL["nonmarkov_sweep"]).trajectory
        assert traj.config.aa_mode == "coherent"
        traj.ledger["I_SE"][1] = -1e-6
        assert written_rows(tmp_path / "ok", traj) == [4, 4]

    def test_writing_memory_is_bounded_by_the_run(self, tmp_path):
        # formatting holds one chunk of rows, not the whole ledger as rows
        traj = scenarios.run_scenario("thermalization", {"n_steps": 20000}).trajectory
        stored = sum(a.nbytes for a in traj.ledger.values()) + traj.snapshots.nbytes
        for suffix, write in WRITERS.items():
            write(traj, tmp_path / "warm")
            tracemalloc.start()
            try:
                write(traj, tmp_path / "out")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < stored, suffix


class TestCli:
    def test_happy_path_csv(self, tmp_path, capsys):
        code = cli.main(["thermalization", "--out", str(tmp_path), "--seed", "3"])
        assert code == cli.EXIT_OK
        out_file = tmp_path / "thermalization_3.csv"
        assert out_file.exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["scenario"] == "thermalization"
        assert summary["outputs"] == [str(out_file)]

    def test_emit_both(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"n_steps": 60}, "emit": "both"}))
        code = cli.main(["thermalization", "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "thermalization_0.csv").exists()
        assert (tmp_path / "thermalization_0.json").exists()

    @pytest.mark.parametrize("below", [False, True])
    def test_out_naming_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                    below):
        # --out names an existing file, or a directory below one
        def never(*args):
            raise AssertionError("the scenario ran")
        monkeypatch.setattr(cli, "run_scenario", never)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below else taken
        code = cli.main(["thermalization", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"config error: cannot create --out {str(out)!r}: " in capsys.readouterr().err
        assert taken.read_text() == ""

    @pytest.mark.parametrize("emit", ["csv", "json"])
    def test_unwritable_output_file_is_a_config_error(self, tmp_path, capsys, emit):
        # the output file's name is taken by a directory
        taken = tmp_path / f"thermalization_0.{emit}"
        taken.mkdir()
        code = cli.main(["thermalization", "--out", str(tmp_path), "--emit", emit])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot write {taken}: ")

    def test_unknown_scenario_names_registry(self, capsys):
        code = cli.main(["warp_drive"])
        assert code == cli.EXIT_UNKNOWN_SCENARIO
        err = capsys.readouterr().err
        assert "warp_drive" in err
        assert "thermalization" in err

    @pytest.mark.parametrize("argv", [["thermalization", "--seed", "abc"],
                                      ["thermalization", "--emit", "xml"]])
    def test_malformed_command_line_exits_2_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: collisim ")

    def test_bad_override_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"bogus": 1}}))
        code = cli.main(["thermalization", "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_malformed_config_document(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert cli.main(["thermalization", "--config", str(cfg)]) == cli.EXIT_CONFIG
        cfg.write_text(json.dumps({"extra_top_level": True}))
        assert cli.main(["thermalization", "--config", str(cfg)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("data", [
        b'{"overrides": {"n_steps": ' + b"9" * 5000 + b"}}",  # past int's digit limit
        b"\xff\xfe{}",                                       # not UTF-8
    ])
    def test_unreadable_config_text_is_config_error(self, tmp_path, capsys, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        assert cli.main(["thermalization", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "cannot parse config" in capsys.readouterr().err

    def test_run_too_large_to_store_exits_before_anything_is_built(self, tmp_path, capsys,
                                                                   monkeypatch):
        # a qubit run of 10**9 steps would store about 176 GB; none of it is made
        def unbuilt(*args):
            raise AssertionError("a collision unitary was built")
        monkeypatch.setattr(engine, "collision_unitary", unbuilt)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"n_steps": 10**9}}))
        assert cli.main(["thermalization", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "config error: n_steps is too large" in capsys.readouterr().err

    def test_non_convergence_exit(self, tmp_path):
        # far too few collisions for a steady state
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"n_steps": 55}}))
        code = cli.main(["landauer", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_NOT_CONVERGED

    def test_log_base_flag(self, tmp_path, capsys):
        code = cli.main(["thermalization", "--out", str(tmp_path),
                         "--log-base", "e"])
        assert code == cli.EXIT_OK
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["log_base"] == pytest.approx(math.e)

    def test_nonmarkov_sweep_without_p_one_writes_trajectory(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {
            "p_grid": [0.0, 0.5], "n_steps": 10, "bound_steps": 3}}))
        code = cli.main(["nonmarkov_sweep", "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        out_file = tmp_path / "nonmarkov_sweep_0.csv"
        assert json.loads(capsys.readouterr().out)["outputs"] == [str(out_file)]
        assert len(out_file.read_text().splitlines()) == 2 + 10

    def test_representative_is_largest_coherent_p(self):
        result = scenarios.run_scenario("nonmarkov_sweep", {
            "p_grid": [0.5, 0.25], "n_steps": 4, "bound_steps": 2})
        cfg = result.trajectory.config
        assert (cfg.aa_mode, cfg.aa_swap_prob) == ("coherent", 0.5)
        result = scenarios.run_scenario("nonmarkov_sweep", {
            "p_grid": [0.5, 0.25], "modes": ["incoherent"], "n_steps": 4,
            "bound_steps": 2})
        cfg = result.trajectory.config
        assert (cfg.aa_mode, cfg.aa_swap_prob) == ("incoherent", 0.25)

    def test_each_distinct_sweep_channel_runs_once(self, monkeypatch):
        calls = []

        def counted(cfg, *inits):
            calls.append((cfg.aa_mode, cfg.aa_swap_prob, cfg.backend))
            return run_paired(cfg, *inits)
        monkeypatch.setattr(scenarios, "run_paired", counted)
        sweep = scenarios.run_scenario("nonmarkov_sweep", {
            "p_grid": [0.0, 0.5, 1.0], "n_steps": 6, "bound_steps": 3}).summary["sweep"]
        # p = 0 in either mode and p = 1 in either mode are one channel each
        assert sorted(calls) == sorted(
            (mode, p, backend) for mode, p in [("off", 0.0), ("coherent", 0.5),
                                               ("incoherent", 0.5), ("coherent", 1.0)]
            for backend in ("windowed", "full"))
        entries = {(e["mode"], e["p"]): e for e in sweep}
        for p in (0.0, 1.0):
            coherent, incoherent = entries["coherent", p], entries["incoherent", p]
            assert {**coherent, "mode": None} == {**incoherent, "mode": None}

    def test_unknown_metric_fails_before_any_collision(self, tmp_path, capsys,
                                                        monkeypatch):
        built = []
        monkeypatch.setattr(engine, "collision_unitary", lambda *args: built.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"metric": "js"}}))
        code = cli.main(["nonmarkov_sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "parameter 'metric' must be one of ('trace', 'jensen-shannon'), got 'js'" \
            in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("bound_steps", [0, 11])
    def test_bad_bound_steps_fails_before_any_collision(self, tmp_path, capsys,
                                                        monkeypatch, bound_steps):
        built = []
        monkeypatch.setattr(engine, "collision_unitary", lambda *args: built.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"bound_steps": bound_steps}}))
        code = cli.main(["nonmarkov_sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert f"bound_steps {bound_steps}:" in capsys.readouterr().err
        assert built == []

    def test_each_distinct_landauer_beta_runs_once(self, monkeypatch, landauer_result):
        betas = []

        def counted(cfg):
            betas.append(cfg.streams[0].beta)
            return run(cfg)
        monkeypatch.setattr(scenarios, "run", counted)
        result = scenarios.run_scenario("landauer")
        # beta = 1.0 is also a grid entry: 4 runs, not 5
        assert betas == [1.0, 0.1, 0.5, 2.0]
        assert result.summary == landauer_result.summary

    def test_nan_theta_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"overrides": {"theta": NaN, "n_steps": 10}}')
        code = cli.main(["thermalization", "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "parameter 'theta' must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("n_steps", [10.5, "10", True])
    def test_non_integer_n_steps_is_config_error(self, tmp_path, capsys, n_steps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"n_steps": n_steps}}))
        code = cli.main(["battery", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "n_steps" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario,overrides,key", [
        ("thermalization", {"omega": "1"}, "omega"),
        ("continuous_limit", {"tau_grid": []}, "tau_grid"),
        ("continuous_limit", {"tau_grid": 0.1}, "tau_grid"),
        ("continuous_limit", {"gamma": -0.5}, "gamma"),
        ("continuous_limit", {"gamma": math.inf}, "'gamma'"),
        ("nonmarkov_sweep", {"p_grid": 5}, "p_grid"),
        ("landauer", {"beta_grid": "x"}, "beta_grid"),
        ("landauer", {"beta_grid": [1.0, True]}, "beta_grid[1]"),
        ("thermalization", {"theta": False}, "theta"),
        ("nonmarkov_sweep", {"bound_steps": 2.5}, "bound_steps"),
        ("continuous_limit", {"total_time": math.nan}, "total_time"),
        ("continuous_limit", {"tau_grid": [0.1, 0.0]}, "tau_grid"),
        ("nonmarkov_sweep", {"modes": []}, "modes"),
        ("nonmarkov_sweep", {"p_grid": []}, "p_grid"),
        ("landauer", {"beta_grid": []}, "beta_grid"),
        ("battery", {"interaction": "spin"}, "unknown interaction kind 'spin'"),
        # a non-finite Hamiltonian scale is rejected before inf * 0 gives NaN
        ("thermalization", {"omega": math.inf}, "'omega'"),
        ("thermalization", {"omega": math.nan}, "'omega'"),
        ("nonmarkov_sweep", {"omega": math.inf}, "'omega'"),
        ("battery", {"omega": math.inf}, "'omega'"),
        ("landauer", {"omega": -math.inf}, "'omega'"),
        ("continuous_limit", {"omega": math.inf}, "'omega'"),
        ("two_qubit_local_global", {"J": math.inf}, "'J'"),
        ("two_qubit_local_global", {"Jz": -math.inf}, "'Jz'"),
        # a step count derived from a scenario key is checked under that key
        ("continuous_limit", {"total_time": 0.01}, "total_time"),
        ("continuous_limit", {"total_time": 0.01}, "tau_grid"),
        ("nonmarkov_sweep", {"bound_steps": 0}, "bound_steps"),
        # the oracle's joint dimension cap is reported under the key that sets it
        ("nonmarkov_sweep", {"bound_steps": 11}, "bound_steps"),
        # a one-collision tail never holds a collision with both baths
        ("two_qubit_local_global", {"window": 1, "n_steps": 40}, "window"),
        # an inverse temperature out of range is reported under its own key
        ("thermalization", {"beta": -1.0, "n_steps": 10}, "'beta'"),
        ("nonmarkov_sweep", {"beta": math.inf, "n_steps": 4}, "'beta'"),
        ("battery", {"beta": math.nan, "n_steps": 10}, "'beta'"),
        ("two_qubit_local_global", {"beta_hot": -1.0}, "'beta_hot'"),
        ("two_qubit_local_global", {"beta_cold": math.inf}, "'beta_cold'"),
        ("landauer", {"beta_grid": [-1.0]}, "beta_grid[0]"),
        ("landauer", {"beta": -0.5}, "'beta'"),
        # found by the config fuzzer: theta / tau raised ZeroDivisionError
        ("thermalization", {"beta": 0.6335159497065812, "n_steps": 1, "tau": 0.0}, "tau"),
        ("nonmarkov_sweep", {"tau": 0.0, "n_steps": 4, "bound_steps": 4}, "tau"),
        # int(round(total_time / tau)) raised OverflowError
        ("continuous_limit", {"total_time": 1.8530729387025624,
                              "tau_grid": [0.324765987681986, 0.75, 5e-324]}, "tau_grid"),
        # a collision count whose states no numpy array can address (none of
        # these allocates: each is rejected before the first array is made)
        ("continuous_limit", {"tau_grid": [0.92, 1e-300]}, "tau_grid"),
        ("continuous_limit", {"tau_grid": [0.92, 1e-300]}, "total_time"),
        ("continuous_limit", {"total_time": 1e300}, "total_time"),
        ("thermalization", {"n_steps": 10**30}, "n_steps"),
        ("thermalization", {"n_steps": 2**62}, "n_steps"),
        ("nonmarkov_sweep", {"bound_steps": 10**30}, "bound_steps"),
        # found by the fuzzer's huge values: numpy overflow warnings
        ("landauer", {"n_steps": 6, "tau": 1e300, "omega": 1e300, "window": 2},
         "phase of exp(-i h t) overflows"),
        ("thermalization", {"n_steps": 24, "omega": 1e300, "theta": 5e-324,
                            "tau": 2.6205742617166825, "beta": 1e300}, "beta 1e+300"),
        ("landauer", {"window": 1, "n_steps": 18, "g": 1e300, "omega": -1e300,
                      "beta_grid": [5e-324, 1e300, 0.6053249429182177]}, "beta 1e+300"),
        # scales near the float maximum: each overflowing product is named
        ("battery", {"omega": 1e308}, "'omega'"),
        ("battery", {"omega": -1e308}, "'omega'"),
        ("battery", {"g": 1e308}, "the coupling of parameter 'g': collision Hamiltonian "
         "of stream 0 overflows: coupling 1e+308"),
        ("battery", {"g": -1e308}, "the coupling of parameter 'g': collision Hamiltonian "
         "of stream 0 overflows: coupling -1e+308"),
        ("two_qubit_local_global", {"g": 1e308}, "the coupling of parameter 'g': "
         "collision Hamiltonian of stream 0 overflows: coupling 1e+308"),
        ("two_qubit_local_global", {"g": -1e308}, "the coupling of parameter 'g': "
         "collision Hamiltonian of stream 0 overflows: coupling -1e+308"),
        ("landauer", {"g": math.inf}, "the coupling of parameter 'g'"),
        # theta / tau overflows, though each is finite and in its range
        ("thermalization", {"theta": 1e308, "tau": 1e-10},
         "the coupling of parameters 'theta' / 'tau': collision Hamiltonian of stream 0 "
         "overflows: coupling inf"),
        ("nonmarkov_sweep", {"theta": -1e308, "tau": 1e-10},
         "the coupling of parameters 'theta' / 'tau'"),
        ("two_qubit_local_global", {"J": 1e308}, "'J'"),
        ("two_qubit_local_global", {"J": -1e308}, "'J'"),
        # beta Q stays finite, beta Q / ln 2 does not
        ("nonmarkov_sweep", {"omega": 1.7e308, "n_steps": 1, "bound_steps": 1},
         "beta 1 times its energy spread 1.7e+308 over 1 collisions overflows"),
        # each beta Q / ln 2 is finite, their sum over the flux window is not
        ("landauer", {"n_steps": 14, "window": 9, "beta_grid": [1e308], "tau": 1e308},
         "beta 1e+308 times its energy spread 1 over 14 collisions overflows"),
        # at the default step count, not at write time as a violated entropy chain
        ("thermalization", {"omega": 1e308},
         "energy spread 1e+308 over 2000 collisions overflows"),
        # the sweep's own list keys, named before any run: "off" is no memory mode
        ("nonmarkov_sweep", {"modes": ["off"]}, "'modes[0]' must be 'coherent' or"),
        ("nonmarkov_sweep", {"modes": ["foo"]}, "'modes[0]' must be 'coherent' or"),
        ("nonmarkov_sweep", {"p_grid": [-0.5]}, "'p_grid[0]' must lie in [0, 1]"),
        ("nonmarkov_sweep", {"metric": "js"}, "'metric' must be one of"),
        # the tau-grid coupling sqrt(gamma * tau) / tau overflows through gamma
        ("continuous_limit", {"gamma": 1e308, "tau_grid": [10.0], "total_time": 40.0},
         "gamma 1e+308"),
        # gamma = (pi/2)^2 / 0.0125: a full swap on the finest default step
        # empties the excited state in one collision, leaving one point to fit
        ("continuous_limit", {"gamma": 197.39208802178717},
         "gamma 197.39208802178717 over the finest tau_grid step 0.0125"),
    ])
    def test_malformed_override_is_config_error(self, tmp_path, capsys, scenario,
                                                overrides, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": overrides}))
        code = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("doc,argv,key", [
        ({"seed": "abc"}, [], "seed"),
        ({"seed": 1.7}, [], "seed"),
        ({"seed": True}, [], "seed"),
        ({"seed": -1}, [], "seed"),
        ({}, ["--seed", "-1"], "seed"),
        ({"log_base": "10"}, [], "log_base"),
        ({"log_base": 10}, [], "log_base"),
        ({"log_base": 2.5}, [], "log_base"),
        ({"emit": "xml"}, [], "emit"),
    ])
    def test_bad_top_level_value_is_config_error(self, tmp_path, capsys, doc, argv, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**doc, "overrides": {"n_steps": 10}}))
        code = cli.main(["thermalization", "--config", str(cfg), "--out", str(tmp_path),
                         *argv])
        assert code == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("jz", [1e308, -1e308])
    def test_near_maximum_jz_is_config_error(self, tmp_path, capsys, jz):
        # Jz zz spreads its energies past the float maximum: rejected before any
        # product with it (the detailed-balance commutators) can overflow
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"Jz": jz}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["two_qubit_local_global", "--config", str(cfg),
                             "--out", str(tmp_path)])
        assert caught == []
        assert code == cli.EXIT_CONFIG
        assert "'Jz'" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["thermalization", "landauer"])
    def test_integer_past_float_range_is_config_error(self, tmp_path, capsys, scenario):
        # valid JSON whose integer no float holds: rejected with the override
        # checks, not by an OverflowError where the value is first scaled
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"overrides": {"omega": 1' + "0" * 400 + "}}")
        code = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "override 'omega'" in capsys.readouterr().err

    def test_integer_past_float_range_in_grid_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"overrides": {"beta_grid": [0.5, 1' + "0" * 400 + "]}}")
        code = cli.main(["landauer", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "override 'beta_grid[1]'" in capsys.readouterr().err

    def test_detailed_balance_overflow_is_config_error(self, tmp_path, capsys):
        # omega's energy spread passes, but the detailed-balance commutators
        # of system plus unit would overflow: rejected, with no warning,
        # before any product and before the run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {
            "omega": 8e307, "beta_hot": 0.0, "beta_cold": 0.0, "n_steps": 10,
            "window": 2}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["two_qubit_local_global", "--config", str(cfg),
                             "--out", str(tmp_path)])
        assert caught == []
        assert code == cli.EXIT_CONFIG
        assert "'omega'" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario,key", [
        (name, key) for name in sorted(scenarios.DEFAULTS)
        for key in sorted(scenarios.DEFAULTS[name]) if key in scenarios.RANGES])
    def test_out_of_range_fails_before_any_collision(self, tmp_path, capsys, monkeypatch,
                                                     scenario, key):
        # every scenario gets the range check of each of its keys, before any run
        assert set(OUT_OF_RANGE) == set(scenarios.RANGES)
        built = []
        monkeypatch.setattr(engine, "collision_unitary", lambda *args: built.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {key: OUT_OF_RANGE[key]}}))
        code = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        quoted = f"'{key}[0]'" if isinstance(scenarios.DEFAULTS[scenario][key], tuple) \
            else f"'{key}'"
        assert f"parameter {quoted} must" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("scenario,overrides,words", [
        # a steady-state window longer than the run, named with the run's length
        ("battery", {"window": 400}, ["'window'", "'n_steps'"]),
        ("two_qubit_local_global", {"window": 2001}, ["'window'", "'n_steps'"]),
        ("landauer", {"window": 1600}, ["'window'", "'n_steps'"]),
        ("landauer", {"n_steps": 40}, ["'window'", "'n_steps'"]),
        # a grid config is validated before the first run, under its grid key
        ("landauer", {"beta_grid": [1.0, 1e308]}, ["beta_grid", "beta 1e+308"]),
    ])
    def test_joint_limit_fails_before_any_collision(self, tmp_path, capsys, monkeypatch,
                                                    scenario, overrides, words):
        built = []
        monkeypatch.setattr(engine, "collision_unitary", lambda *args: built.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": overrides}))
        code = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(word in err for word in words), err
        assert built == []

    @pytest.mark.parametrize("scenario,overrides,code", [
        ("battery", {"n_steps": 100, "window": 50}, cli.EXIT_OK),
        ("two_qubit_local_global", {"n_steps": 60, "window": 30}, cli.EXIT_OK),
        # the drift is read over the whole run, which starts far from steady
        ("landauer", {"n_steps": 20, "window": 20, "beta_grid": [1.0]},
         cli.EXIT_NOT_CONVERGED),
    ])
    def test_longest_window_is_read(self, tmp_path, scenario, overrides, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": overrides}))
        assert cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)]) == code

    def test_zero_window_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"window": 0}}))
        code = cli.main(["battery", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("state", [BROKEN, CLAMPED])
    def test_broken_propagated_state_exits_4(self, tmp_path, capsys, monkeypatch, state):
        plant(monkeypatch, 6, 0, state)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": {"n_steps": 10}}))
        code = cli.main(["thermalization", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == cli.EXIT_INTEGRITY
        assert "step 6, stack member 0" in capsys.readouterr().err

    def test_negative_seed_flag_names_seed_alone(self, tmp_path, capsys):
        code = cli.main(["continuous_limit", "--out", str(tmp_path), "--seed", "-1"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed must be an integer >= 0, got -1" in err and "gamma" not in err

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "overrides": {"n_steps": 60}}))
        code = cli.main(["thermalization", "--config", str(cfg),
                        "--out", str(tmp_path), "--seed", "4"])
        assert code == cli.EXIT_OK
        assert (tmp_path / "thermalization_4.csv").exists()


# Config documents for the fuzzer: a valid document with at most one fault.
# Every addressable step count is small, so no run takes more than a few MB:
# n_steps <= 40, bound_steps <= 6, and total_time / min(tau_grid) <= 2 / 0.01
# (no wrong value below is a small positive tau).  A wrong value of a key that
# sets a count may also be a count whose states no numpy array can address,
# which is rejected before anything is allocated; never draw a huge
# addressable count.
NASTY = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0]),
    st.lists(st.lists(st.integers(-1, 2), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["", "0"]), st.integers(-1, 1), min_size=1))
UNADDRESSABLE = {
    "n_steps": st.sampled_from([10**30, 2**62]),
    "bound_steps": st.sampled_from([10**30, 2**62]),
    "total_time": st.just(1e300),
    "tau_grid": st.just(1e-300),
}
# huge (up to the float maximum's order) and subnormal finite values, and an
# integer past the float range, for the reals that set no step count
EXTREME = st.sampled_from([1e300, -1e300, 1e308, -1e308, 8e307, 5e-324, 10**400])


def _grid(entries):
    return st.lists(entries, min_size=1, max_size=3)


VALID = {
    "n_steps": st.integers(1, 40),
    "bound_steps": st.integers(1, 6),
    "total_time": st.floats(0.0, 2.0),
    "tau_grid": _grid(st.floats(0.01, 1.0)),
    "window": st.integers(1, 20),
    "p_grid": _grid(st.floats(0.0, 1.0)),
    "modes": _grid(st.sampled_from(["coherent", "incoherent"])),
    "metric": st.sampled_from(["trace", "js"]),
    "interaction": st.sampled_from(["battery", "exchange"]),
}
ALWAYS_SET = ("n_steps", "bound_steps", "total_time", "tau_grid", "window")


@st.composite
def cli_configs(draw, name):
    """Scenario ``name``, or a wrong name, and the text of a config document
    for it.

    In half of the documents every real that sets no step count (``omega``,
    the betas, ``theta``, ``g``, ``J``, ``Jz``, ``gamma`` and ``tau``) may
    also be huge or subnormal, so such values meet each other.
    """
    defaults = scenarios.DEFAULTS[name]
    real = st.floats(0.0, 3.0) | EXTREME if draw(st.booleans()) else st.floats(0.0, 3.0)
    values = {key: VALID.get(key, _grid(real) if key == "beta_grid" else real)
              for key in defaults}
    overrides = draw(st.fixed_dictionaries(
        {k: v for k, v in values.items() if k in ALWAYS_SET},
        optional={k: v for k, v in values.items() if k not in ALWAYS_SET}))
    doc = draw(st.fixed_dictionaries({"overrides": st.just(overrides)}, optional={
        "seed": st.integers(0, 2**64), "emit": st.sampled_from(["csv", "json", "both"]),
        "log_base": st.sampled_from(["2", 2, "e"])}))
    fault = draw(st.none() | st.sampled_from([
        "scenario", "text", "document", "overrides", "top-level", "unknown override",
        *defaults]))
    wrong = draw(NASTY | UNADDRESSABLE[fault] if fault in UNADDRESSABLE else NASTY)
    if fault == "scenario":
        name = "warp_drive"
    elif fault == "document":
        doc = wrong
    elif fault == "overrides":
        doc["overrides"] = wrong
    elif fault == "top-level":
        doc[draw(st.sampled_from(["seed", "emit", "log_base", "extra"]))] = wrong
    elif fault == "unknown override":
        overrides["bogus"] = wrong
    elif fault in defaults:  # a wrong value, or a wrong entry in a grid
        grid = isinstance(defaults[fault], tuple) and draw(st.booleans())
        overrides[fault] = [*overrides.get(fault, defaults[fault])[:2], wrong] \
            if grid else wrong
    return name, "{" if fault == "text" else json.dumps(doc)


# cases the derandomized draws need not hold: a two_qubit_local_global omega
# whose detailed-balance commutators overflow, and an integer past the float
# range
PINNED = {
    "two_qubit_local_global": json.dumps({"overrides": {
        "omega": 8e307, "beta_hot": 0.0, "beta_cold": 0.0, "n_steps": 10, "window": 2}}),
    "landauer": '{"overrides": {"omega": 1' + "0" * 400 + "}}",
}


def assert_documented_exit_code(name_and_text):
    name, text = name_and_text
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "cfg.json"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([name, "--config", str(path), "--out", out])
    assert code in {cli.EXIT_OK, cli.EXIT_UNKNOWN_SCENARIO, cli.EXIT_CONFIG,
                    cli.EXIT_INTEGRITY, cli.EXIT_NOT_CONVERGED}


class TestCliFuzz:
    @pytest.mark.parametrize("scenario", sorted(scenarios.SCENARIOS))
    def test_only_documented_exit_codes(self, scenario):
        # every scenario gets its own draws, and its pinned case
        check = given(cli_configs(scenario))(assert_documented_exit_code)
        if scenario in PINNED:
            check = example((scenario, PINNED[scenario]))(check)
        settings(max_examples=17)(check)()


class TestModuleEntryPoint:
    """``python -m collisim.cli``: the ``__main__`` block and ``cli.entry``."""

    @pytest.mark.parametrize("scenario,overrides,code", [
        ("thermalization", {"n_steps": 10}, cli.EXIT_OK),
        ("warp_drive", {}, cli.EXIT_UNKNOWN_SCENARIO),
        ("thermalization", {"n_steps": 0}, cli.EXIT_CONFIG),
    ])
    def test_exit_codes(self, tmp_path, scenario, overrides, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"overrides": overrides}))
        src = str(Path(collisim.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "collisim.cli", scenario, "--config", str(cfg),
             "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert (tmp_path / "thermalization_0.csv").exists() == (code == cli.EXIT_OK)


class TestRevivalSlack:
    """``min_revival_slack``: the bound's smallest slack over genuine
    revivals, which can be non-zero where ``min_bound_slack`` cannot."""

    def test_respects_the_bound(self, nonmarkov_result):
        sweep = nonmarkov_result.summary["sweep"]
        found = [e["min_revival_slack"] for e in sweep if e["min_revival_slack"]]
        assert found
        for r in found:
            assert r["slack"] >= -1e-9
            assert r["t"] > r["s"] >= 1 and r["lhs"] > nonmarkov.REVIVAL_THRESHOLD
            assert r["slack"] == r["rhs_env"] + r["rhs_corr_rho"] + r["rhs_corr_sigma"] \
                - r["lhs"]

    def test_memoryless_entries_have_none(self, nonmarkov_result):
        sweep = nonmarkov_result.summary["sweep"]
        assert [e["min_revival_slack"] for e in sweep if e["p"] == 0] == [None, None]

    def test_memoryless_js_entries_have_no_revival(self):
        # the roots of rounding-level JS divergences (about 1e-16) would cross
        # REVIVAL_THRESHOLD; qstate.JS_FLOOR reads such divergences as 0
        sweep = scenarios.run_scenario("nonmarkov_sweep", {
            "metric": "jensen-shannon", "p_grid": [0.0], "bound_steps": 2}).summary["sweep"]
        assert [(e["blp"], e["first_revival_step"]) for e in sweep] == [(0.0, None)] * 2

    def test_full_swap_slack(self, nonmarkov_result):
        entry = next(e for e in nonmarkov_result.summary["sweep"]
                     if (e["mode"], e["p"]) == ("coherent", 1.0))
        r = entry["min_revival_slack"]
        assert (r["s"], r["t"]) == (5, 7)
        assert r["slack"] == pytest.approx(0.0955, abs=1e-4)


class TestScenarioDeterminism:
    def test_same_seed_same_summary(self):
        a = scenarios.run_scenario("thermalization", FAST, seed=5)
        b = scenarios.run_scenario("thermalization", FAST, seed=5)
        assert a.summary == b.summary
        for sa, sb in zip(a.trajectory.snapshots, b.trajectory.snapshots):
            assert np.array_equal(sa, sb)
