import json
import math

import numpy as np
import pytest

from collisim import cli, scenarios
from collisim.engine import run_paired
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
        with pytest.raises(KeyError):
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


class TestTrajectoryOutput:
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

    def test_first_law_checked_at_write_time(self):
        result = scenarios.run_scenario("thermalization", FAST)
        rows = scenarios.trajectory_rows(result.trajectory)
        assert len(rows) == 150


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

    def test_unknown_scenario_names_registry(self, capsys):
        code = cli.main(["warp_drive"])
        assert code == cli.EXIT_UNKNOWN_SCENARIO
        err = capsys.readouterr().err
        assert "warp_drive" in err
        assert "thermalization" in err

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

    def test_nan_theta_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"overrides": {"theta": NaN, "n_steps": 10}}')
        code = cli.main(["thermalization", "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "coupling" in capsys.readouterr().err

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
    ])
    def test_bad_top_level_value_is_config_error(self, tmp_path, capsys, doc, argv, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**doc, "overrides": {"n_steps": 10}}))
        code = cli.main(["thermalization", "--config", str(cfg), "--out", str(tmp_path),
                         *argv])
        assert code == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

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

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "overrides": {"n_steps": 60}}))
        code = cli.main(["thermalization", "--config", str(cfg),
                        "--out", str(tmp_path), "--seed", "4"])
        assert code == cli.EXIT_OK
        assert (tmp_path / "thermalization_4.csv").exists()


class TestScenarioDeterminism:
    def test_same_seed_same_summary(self):
        a = scenarios.run_scenario("thermalization", FAST, seed=5)
        b = scenarios.run_scenario("thermalization", FAST, seed=5)
        assert a.summary == b.summary
        for sa, sb in zip(a.trajectory.snapshots, b.trajectory.snapshots):
            assert np.array_equal(sa, sb)
