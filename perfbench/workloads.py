"""The benchmark's workloads: their inputs, one pass of work, and the checks.

A workload is a list of items.  A pass runs every item once, and only
that is timed; the items' outputs are checked afterwards.  Inputs are
pinned here instead of being read from the package defaults, so the
benchmark keeps measuring the same work when a default moves.  At full
size they equal the scenario defaults of ``collisim.scenarios`` at the
commit that introduced the benchmark.

Why these three workloads:

- ``markov_stream`` runs the five memoryless scenarios through the CLI.
  Its joint states are at most 8-dimensional, so per-step Python
  overhead, small eigendecompositions, the ledger and file output
  dominate, and the dense kernel and the bound oracle stay idle.
- ``memory_oracle`` runs ``nonmarkov_sweep`` through the CLI.  The
  full-backend oracle reaches 512 dimensions, so the dense kernel
  (conjugation, the integrity eigensolve, 512-dim trace distances in the
  bound terms) dominates.
- ``pair_scan`` runs ``blp_optimize_pairs`` from the library (the CLI
  does not expose it): 288 paired runs on short windows under one
  channel realisation, so per-run set-up and pairing dominate and no
  file is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from collisim import cli, engine, linalg, nonmarkov, qstate, scenarios

WORKLOADS = ("markov_stream", "memory_oracle", "pair_scan")
CLI_SCENARIOS = {  # the scenarios each CLI workload runs, in order
    "markov_stream": ("thermalization", "battery", "two_qubit_local_global",
                      "landauer", "continuous_limit"),
    "memory_oracle": ("nonmarkov_sweep",),
}

# Frozen BLP sweep at seed 0 with the nonmarkov_sweep defaults, copied from
# GOLDEN_BLP_COHERENT / GOLDEN_BLP_INCOHERENT in tests/test_acceptance.py.
GOLDEN_BLP = {
    "coherent": [0.0, 0.0, 0.15232127510419874, 0.7750668246483897,
                 7.8541019662496705],
    "incoherent": [0.0, 0.27950851262714976, 0.8090172652872404,
                   1.0051680478728997, 7.8541019662496705],
}
GOLDEN_PAIR_SCAN = 0.8090172652872406  # best BLP of pair_scan at seed 0
GOLDEN_REL = 1e-6
GOLDEN_ABS = 1e-12
FIRST_LAW_TOL = 1e-9
SLACK_TOL = -1e-9
THERMAL_TOL = 1e-6

FULL_PARAMS = {
    "thermalization": {"omega": 1.0, "beta": 1.0, "theta": 0.05 * math.pi,
                       "tau": 1.0, "n_steps": 2000},
    "battery": {"omega": 1.0, "beta": 1.0, "g": 1.0, "tau": 0.7, "n_steps": 600,
                "interaction": "battery", "window": 50},
    "two_qubit_local_global": {"omega": 1.0, "J": 0.2, "Jz": 0.15, "g": 0.5,
                               "tau": 1.0, "beta_hot": 0.5, "beta_cold": 2.0,
                               "n_steps": 4000, "window": 200},
    "landauer": {"omega": 1.0, "beta": 1.0, "g": 0.5, "tau": 1.0, "n_steps": 1500,
                 "window": 50, "beta_grid": [0.1, 0.5, 1.0, 2.0]},
    "continuous_limit": {"gamma": 0.5, "total_time": 4.0,
                         "tau_grid": [0.1, 0.05, 0.025, 0.0125], "omega": 1.0},
    "nonmarkov_sweep": {"omega": 1.0, "beta": 1.0, "theta": 0.3 * math.pi,
                        "tau": 1.0, "n_steps": 30,
                        "p_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
                        "modes": ["coherent", "incoherent"], "metric": "trace",
                        "bound_steps": 8},
    "pair_scan": {"grid_resolution": 12},
}

# A few collisions per scenario, for the benchmark's own tests; chosen so
# that every check still holds.
TINY_OVERRIDES = {
    "thermalization": {"theta": 0.25 * math.pi, "n_steps": 40},
    "battery": {"n_steps": 100},
    "two_qubit_local_global": {"n_steps": 60, "window": 20},
    "landauer": {"n_steps": 120, "window": 20, "beta_grid": [1.0]},
    "continuous_limit": {"total_time": 1.0, "tau_grid": [0.1, 0.05]},
    "nonmarkov_sweep": {"n_steps": 10, "p_grid": [0.0, 1.0], "bound_steps": 5},
    "pair_scan": {"grid_resolution": 2},
}


def params(tiny: bool = False) -> dict:
    return {name: {**p, **(TINY_OVERRIDES[name] if tiny else {})}
            for name, p in FULL_PARAMS.items()}


def scenario_collisions(name: str, p: dict) -> int:
    """Collisions one run of scenario ``name`` with parameters ``p`` performs."""
    if name == "landauer":
        return p["n_steps"] * (1 + len(p["beta_grid"]))
    if name == "continuous_limit":
        return sum(round(p["total_time"] / tau) for tau in p["tau_grid"])
    if name == "nonmarkov_sweep":  # paired windowed runs plus paired oracle runs
        return len(p["modes"]) * len(p["p_grid"]) * 2 * (p["n_steps"] + p["bound_steps"])
    return p["n_steps"]


def emitted_rows(name: str, p: dict) -> int:
    """Rows in the trajectory file the CLI writes for scenario ``name``."""
    if name == "continuous_limit":
        return round(p["total_time"] / min(p["tau_grid"]))
    return p["n_steps"]


def pswap_config(p: dict, seed: int, **extra) -> engine.CollisionConfig:
    """Qubit system and thermal qubit stream under a partial SWAP, as the
    thermalization and nonmarkov_sweep scenarios build them."""
    h = p["omega"] * linalg.SIGMA_Z / 2
    stream = engine.AncillaStream(dim=2, hamiltonian=h,
                                  init_state=qstate.thermal_state(h, p["beta"]),
                                  beta=p["beta"])
    return engine.CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=scenarios.EXCITED,
        streams=[stream], interactions=[engine.partial_swap_interaction(2)],
        tau=p["tau"], coupling=p["theta"] / p["tau"], n_steps=p["n_steps"],
        rng_seed=seed, **extra)


def first_config(workload: str, seed: int, tiny: bool = False) -> engine.CollisionConfig:
    """The first CollisionConfig a pass of ``workload`` builds."""
    p = params(tiny)
    if workload == "markov_stream":
        return pswap_config(p["thermalization"], seed)
    if workload == "memory_oracle":  # first sweep entry: p = 0, unit-unit collisions off
        return pswap_config(p["nonmarkov_sweep"], seed, pair_metric="trace")
    if workload == "pair_scan":
        return pswap_config(p["nonmarkov_sweep"], seed, aa_mode="incoherent",
                            aa_swap_prob=0.5)
    raise KeyError(workload)


@dataclass
class Item:
    """One unit of work in a pass and the check of its result."""
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    items: list[Item]
    collisions: int          # per pass
    outputs: list[Path]      # files a pass writes; removed before each pass


def _rel_close(value: float, expected: float) -> bool:
    return abs(value - expected) <= max(GOLDEN_REL * abs(expected), GOLDEN_ABS)


def check_trajectory_files(stem: Path, rows: int) -> list[str]:
    """The CSV and JSON trajectory files exist, agree in length and obey the
    first law between successive rows (dE_S = W - Q)."""
    csv, js = stem.with_suffix(".csv"), stem.with_suffix(".json")
    if not (csv.is_file() and js.is_file()):
        return [f"missing trajectory output {stem}.csv/.json"]
    table = np.loadtxt(csv, delimiter=",", skiprows=2, ndmin=2)
    problems = []
    if table.shape[0] != rows:
        problems.append(f"{csv.name} has {table.shape[0]} rows, expected {rows}")
    with open(js) as fh:
        n_json = len(json.load(fh)["records"])
    if n_json != table.shape[0]:
        problems.append(f"{js.name} has {n_json} records, CSV has {table.shape[0]}")
    e_s, q_res, q_bath, w = table[:, 1], table[:, 2], table[:, 3], table[:, 4]
    residual = np.diff(e_s) - (w[1:] - q_res[1:] - q_bath[1:])
    worst = float(np.max(np.abs(residual), initial=0.0))
    if not worst < FIRST_LAW_TOL:
        problems.append(f"{csv.name}: first-law residual {worst:.3g}")
    return problems


def check_summary(name: str, summary: dict, golden: bool) -> list[str]:
    """Scenario-specific invariants on the CLI's JSON summary."""
    problems = []
    if name == "thermalization":
        if not summary["final_distance_to_thermal"] < THERMAL_TOL:
            problems.append(f"distance to thermal {summary['final_distance_to_thermal']:.3g}")
        if not summary["monotone_decay"]:
            problems.append("distance to thermal does not decay monotonically")
    if name == "two_qubit_local_global" and \
            not summary["max_first_law_residual"] < FIRST_LAW_TOL:
        problems.append(f"first-law residual {summary['max_first_law_residual']:.3g}")
    if name == "nonmarkov_sweep":
        for entry in summary["sweep"]:
            if not entry["min_bound_slack"] >= SLACK_TOL:
                problems.append(f"bound violated at {entry['mode']} p={entry['p']}: "
                                f"slack {entry['min_bound_slack']:.3g}")
        if golden:
            blp = {(e["mode"], e["p"]): e["blp"] for e in summary["sweep"]}
            grid = FULL_PARAMS["nonmarkov_sweep"]["p_grid"]
            for mode, values in GOLDEN_BLP.items():
                for p, expected in zip(grid, values):
                    if not _rel_close(blp[(mode, p)], expected):
                        problems.append(f"BLP {mode} p={p}: {blp[(mode, p)]!r} "
                                        f"!= golden {expected!r}")
    return problems


def _cli_item(name: str, p: dict, seed: int, out_dir: Path, golden: bool):
    config = out_dir / f"{name}.config.json"
    config.write_text(json.dumps({"overrides": p}))
    argv = [name, "--config", str(config), "--out", str(out_dir),
            "--seed", str(seed), "--emit", "both"]
    stem = out_dir / f"{name}_{seed}"

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[-300:]}"]
        summary = json.loads(out.splitlines()[-1])["summary"]
        return (check_trajectory_files(stem, emitted_rows(name, p))
                + check_summary(name, summary, golden))

    item = Item(name, run, check)
    return item, [stem.with_suffix(".csv"), stem.with_suffix(".json")]


def _pair_scan_item(seed: int, tiny: bool):
    cfg = first_config("pair_scan", seed, tiny)
    resolution = params(tiny)["pair_scan"]["grid_resolution"]
    # The grid must do at least as well as the (|0>, |1>) pair, computed here
    # directly from one paired run.
    traj_a, traj_b = engine.run_paired(cfg, scenarios.EXCITED, scenarios.GROUND)
    reference = nonmarkov.blp_measure(nonmarkov.distinguishability_series(traj_a, traj_b))

    def run():
        return nonmarkov.blp_optimize_pairs(cfg, "trace", grid_resolution=resolution)

    def check(result) -> list[str]:
        (rho_a, rho_b), best = result
        problems = []
        for rho in (rho_a, rho_b):
            qstate.validate_density_matrix(rho)
        if not best >= reference - GOLDEN_ABS:
            problems.append(f"best BLP {best!r} below the (|0>,|1>) pair's {reference!r}")
        if seed == 0 and not tiny and not _rel_close(best, GOLDEN_PAIR_SCAN):
            problems.append(f"best BLP {best!r} != golden {GOLDEN_PAIR_SCAN!r}")
        return problems

    return Item("blp_optimize_pairs", run, check)


def build(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """Make the inputs of ``workload`` from ``seed``; outputs go to ``out_dir``."""
    p = params(tiny)
    golden = seed == 0 and not tiny
    if workload == "pair_scan":
        n = p["nonmarkov_sweep"]["n_steps"]
        res = p["pair_scan"]["grid_resolution"]  # res values of cos(theta), 2 res of phi
        return Workload(workload, [_pair_scan_item(seed, tiny)], res * 2 * res * 2 * n, [])
    names = CLI_SCENARIOS[workload]
    items, outputs = [], []
    for name in names:
        item, files = _cli_item(name, p[name], seed, out_dir, golden)
        items.append(item)
        outputs += files
    collisions = sum(scenario_collisions(name, p[name]) for name in names)
    return Workload(workload, items, collisions, outputs)
