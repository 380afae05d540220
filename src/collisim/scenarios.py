"""Named scenario runners and trajectory output.

Each scenario binds a physical narrative (thermalization, memory sweep,
dissipative battery charging, local-vs-global two-qubit transport,
Landauer accounting, continuous-time limit) to a runnable configuration.
Defaults live here in code; a config document supplies overrides only and
unknown keys are hard errors.  Every default is echoed into the summary
so emitted files are self-describing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, nonmarkov, qstate, thermo
from .engine import (AncillaStream, CollisionConfig, Trajectory,
                     partial_swap_interaction, run, run_paired)
from .errors import ConfigError

CSV_SCHEMA_VERSION = 1
CSV_HEADER = "step,E_S,Q_resource,Q_bath,W,S_S,S_anc,I_SE,Sigma,D_pair"

EXCITED = qstate.pure_state(np.array([1.0, 0.0]))  # +1 eigenstate of sigma_z
GROUND = qstate.pure_state(np.array([0.0, 1.0]))


@dataclass
class ScenarioResult:
    name: str
    summary: dict
    trajectory: Trajectory | None = None


def _merge(defaults: dict, overrides: dict, name: str) -> dict:
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown override keys for scenario {name!r}: {sorted(unknown)}; "
            f"valid keys: {sorted(defaults)}")
    out = dict(defaults)
    out.update(overrides)
    return out


def _qubit_stream(omega: float, beta: float) -> AncillaStream:
    h = omega * linalg.SIGMA_Z / 2
    return AncillaStream(dim=2, hamiltonian=h,
                         init_state=qstate.thermal_state(h, beta), beta=beta)


def _pswap_config(p: dict, seed: int, log_base: float, **extra) -> CollisionConfig:
    """Qubit system + thermal qubit stream coupled by a partial SWAP."""
    h_s = p["omega"] * linalg.SIGMA_Z / 2
    return CollisionConfig(
        system_dim=2, system_hamiltonian=h_s, system_init=EXCITED,
        streams=[_qubit_stream(p["omega"], p["beta"])],
        interactions=[partial_swap_interaction(2)],
        tau=p["tau"], coupling=p["theta"] / p["tau"], n_steps=p["n_steps"],
        rng_seed=seed, log_base=log_base, **extra)


# --------------------------------------------------------------------------
# thermalization

THERMALIZATION_DEFAULTS = {
    "omega": 1.0, "beta": 1.0, "theta": 0.05 * math.pi, "tau": 1.0,
    "n_steps": 2000,
}


def scenario_thermalization(overrides: dict, seed: int = 0,
                            log_base: float = 2.0) -> ScenarioResult:
    p = _merge(THERMALIZATION_DEFAULTS, overrides, "thermalization")
    cfg = _pswap_config(p, seed, log_base)
    traj = run(cfg)
    target = qstate.thermal_state(cfg.system_hamiltonian, p["beta"])
    dist = np.array([qstate.trace_distance(s, target) for s in traj.snapshots])
    monotone = bool(np.all(np.diff(dist) <= 1e-12))
    summary = {
        "params": p, "seed": seed, "log_base": log_base,
        "final_distance_to_thermal": float(dist[-1]),
        "monotone_decay": monotone,
    }
    return ScenarioResult("thermalization", summary, traj)


# --------------------------------------------------------------------------
# nonmarkov_sweep

NONMARKOV_DEFAULTS = {
    "omega": 1.0, "beta": 1.0, "theta": 0.3 * math.pi, "tau": 1.0,
    "n_steps": 30, "p_grid": (0.0, 0.25, 0.5, 0.75, 1.0),
    "modes": ("coherent", "incoherent"), "metric": "trace",
    "bound_steps": 8,
}


def scenario_nonmarkov_sweep(overrides: dict, seed: int = 0,
                             log_base: float = 2.0) -> ScenarioResult:
    p = _merge(NONMARKOV_DEFAULTS, overrides, "nonmarkov_sweep")
    sweep = []
    # representative trajectory: the coherent entry with the largest p, or
    # the last entry when no mode is coherent
    rep_traj, rep_p = None, -math.inf
    for mode in p["modes"]:
        for prob in p["p_grid"]:
            cfg = _pswap_config(p, seed, log_base,
                                aa_mode=mode if prob > 0 else "off",
                                aa_swap_prob=prob, pair_metric=p["metric"])
            traj_a, traj_b = run_paired(cfg, EXCITED, GROUND)
            series = nonmarkov.distinguishability_series(traj_a, traj_b, p["metric"])
            entry = {
                "mode": mode, "p": prob,
                "blp": nonmarkov.blp_measure(series),
                "first_revival_step": nonmarkov.first_revival_step(series),
            }
            # bound verification on the exact full-state backend
            bcfg = replace(cfg, n_steps=p["bound_steps"], backend="full",
                           keep_joint_snapshots=True)
            fa, fb = run_paired(bcfg, EXCITED, GROUND)
            reports = nonmarkov.all_pair_bound_reports(fa, fb, p["metric"])
            entry["min_bound_slack"] = float(min(r.slack for r in reports))
            entry["max_revival_lhs"] = float(max(r.lhs for r in reports))
            sweep.append(entry)
            if mode == "coherent" and prob >= rep_p:
                rep_traj, rep_p = traj_a, prob
            elif rep_p == -math.inf:
                rep_traj = traj_a
    summary = {"params": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in p.items()},
               "seed": seed, "log_base": log_base, "sweep": sweep}
    return ScenarioResult("nonmarkov_sweep", summary, rep_traj)


# --------------------------------------------------------------------------
# battery

BATTERY_DEFAULTS = {
    "omega": 1.0, "beta": 1.0, "g": 1.0, "tau": 0.7, "n_steps": 600,
    "interaction": "battery",  # "battery": sx sx - sy sy; "exchange": sx sx + sy sy
    "window": 50,
}


def battery_interaction(kind: str) -> np.ndarray:
    xx = linalg.kron(linalg.SIGMA_X, linalg.SIGMA_X)
    yy = linalg.kron(linalg.SIGMA_Y, linalg.SIGMA_Y)
    if kind == "battery":
        return xx - yy
    if kind == "exchange":
        return xx + yy
    raise ConfigError(f"unknown interaction kind {kind!r}")


def scenario_battery(overrides: dict, seed: int = 0,
                     log_base: float = 2.0) -> ScenarioResult:
    p = _merge(BATTERY_DEFAULTS, overrides, "battery")
    h = p["omega"] * linalg.SIGMA_Z  # gap 2*omega on both sides keeps V resonant
    stream = AncillaStream(dim=2, hamiltonian=h,
                           init_state=qstate.thermal_state(h, p["beta"]),
                           beta=p["beta"])
    cfg = CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=GROUND,
        streams=[stream], interactions=[battery_interaction(p["interaction"])],
        tau=p["tau"], coupling=p["g"], n_steps=p["n_steps"],
        rng_seed=seed, log_base=log_base)
    traj = run(cfg)
    final = traj.snapshots[-1]
    pops = np.diag(final).real
    thermal = qstate.thermal_state(h, p["beta"])
    inverted = qstate.thermal_state(-h, p["beta"])  # beta -> -beta
    fluxes = thermo.steady_state_fluxes(traj, p["window"])
    summary = {
        "params": p, "seed": seed, "log_base": log_base,
        "steady_populations": [float(x) for x in pops],
        "distance_to_thermal": qstate.trace_distance(final, thermal),
        "distance_to_inverted_thermal": qstate.trace_distance(final, inverted),
        "population_inverted": bool(pops[0] > pops[1]),  # non-passive flag
        "Q_rate": fluxes.Q_rate, "W_rate": fluxes.W_rate,
        "fluxes_converged": fluxes.converged,
    }
    return ScenarioResult("battery", summary, traj)


# --------------------------------------------------------------------------
# two_qubit_local_global

TWO_QUBIT_DEFAULTS = {
    "omega": 1.0, "J": 0.2, "Jz": 0.15, "g": 0.5, "tau": 1.0,
    "beta_hot": 0.5, "beta_cold": 2.0, "n_steps": 4000, "window": 200,
}


def _two_qubit_config(p: dict, seed: int, log_base: float) -> CollisionConfig:
    sx, sy, sz, eye = linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z, linalg.EYE2
    h_local = p["omega"] / 2 * (linalg.kron(sz, eye) + linalg.kron(eye, sz))
    h_int = p["J"] * (linalg.kron(sx, sx) + linalg.kron(sy, sy)) \
        + p["Jz"] * linalg.kron(sz, sz)
    h_s = h_local + h_int
    h_e = p["omega"] * sz / 2
    streams = [
        AncillaStream(2, h_e, qstate.thermal_state(h_e, p["beta_hot"]),
                      role="bath", beta=p["beta_hot"]),
        AncillaStream(2, h_e, qstate.thermal_state(h_e, p["beta_cold"]),
                      role="bath", beta=p["beta_cold"]),
    ]
    # energy-preserving local exchange with each qubit's own reservoir
    v1 = linalg.kron(sx, eye, sx) + linalg.kron(sy, eye, sy)
    v2 = linalg.kron(eye, sx, sx) + linalg.kron(eye, sy, sy)
    init = linalg.kron(qstate.thermal_state(h_e, p["beta_hot"]),
                       qstate.thermal_state(h_e, p["beta_cold"]))
    return CollisionConfig(
        system_dim=4, system_hamiltonian=h_s, system_init=init,
        streams=streams, interactions=[v1, v2], tau=p["tau"], coupling=p["g"],
        n_steps=p["n_steps"], rng_seed=seed, log_base=log_base)


def scenario_two_qubit_local_global(overrides: dict, seed: int = 0,
                                    log_base: float = 2.0) -> ScenarioResult:
    p = _merge(TWO_QUBIT_DEFAULTS, overrides, "two_qubit_local_global")
    cfg = _two_qubit_config(p, seed, log_base)
    traj = run(cfg)
    w = p["window"]
    tail = traj.records[-w:]
    q_hot = float(np.mean([r.Q for r in tail if r.stream == 0]))
    q_cold = float(np.mean([r.Q for r in tail if r.stream == 1]))
    w_rate = float(np.mean([r.W for r in tail]))
    ledger = thermo.build_ledger(traj)
    db = [thermo.detailed_balance_report(
        cfg.system_hamiltonian, cfg.streams[i].hamiltonian, cfg.interactions[i])
        for i in range(2)]
    fluxes = thermo.steady_state_fluxes(traj, w)
    summary = {
        "params": p, "seed": seed, "log_base": log_base,
        "Q_rate_hot": q_hot, "Q_rate_cold": q_cold, "W_rate": w_rate,
        "heat_flows_hot_to_cold": bool(q_hot < 0 < q_cold),
        "max_first_law_residual": float(np.max(np.abs(ledger.first_law_residual))),
        "cumulative_W": float(ledger.W.sum()),
        "max_abs_W": float(np.max(np.abs(ledger.W))),
        "cumulative_Sigma": float(ledger.Sigma.sum()),
        "global_db_violation": [d.local_db for d in db],
        "fluxes_converged": fluxes.converged,
    }
    return ScenarioResult("two_qubit_local_global", summary, traj)


# --------------------------------------------------------------------------
# landauer

LANDAUER_DEFAULTS = {
    "omega": 1.0, "beta": 1.0, "g": 0.5, "tau": 1.0, "n_steps": 1500,
    "window": 50, "beta_grid": (0.1, 0.5, 1.0, 2.0),
}


def _landauer_config(p: dict, beta: float, seed: int,
                     log_base: float) -> CollisionConfig:
    h = p["omega"] * linalg.SIGMA_Z / 2
    stream = AncillaStream(2, h, qstate.thermal_state(h, beta), beta=beta)
    v = linalg.kron(linalg.SIGMA_X, linalg.SIGMA_X)  # not energy preserving
    return CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=EXCITED,
        streams=[stream], interactions=[v], tau=p["tau"], coupling=p["g"],
        n_steps=p["n_steps"], rng_seed=seed, log_base=log_base)


def scenario_landauer(overrides: dict, seed: int = 0,
                      log_base: float = 2.0) -> ScenarioResult:
    p = _merge(LANDAUER_DEFAULTS, overrides, "landauer")
    cfg = _landauer_config(p, p["beta"], seed, log_base)
    traj = run(cfg)
    report = thermo.landauer_report(traj, p["window"])
    grid = []
    for beta in p["beta_grid"]:
        gtraj = run(_landauer_config(p, beta, seed, log_base))
        grep = thermo.landauer_report(gtraj, p["window"])
        grid.append({"beta": beta, "beta_Q": grep.beta_Q, "dS_anc": grep.dS_anc,
                     "landauer_gap": grep.landauer_gap})
    summary = {
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in p.items()},
        "seed": seed, "log_base": log_base,
        "beta_Q": report.beta_Q, "dS_anc": report.dS_anc, "I_SE": report.I_SE,
        "D_relent": report.D_relent, "residual": report.residual,
        "landauer_gap": report.landauer_gap, "beta_grid": grid,
    }
    return ScenarioResult("landauer", summary, traj)


# --------------------------------------------------------------------------
# continuous_limit

CONTINUOUS_DEFAULTS = {
    "gamma": 0.5, "total_time": 4.0,
    "tau_grid": (0.1, 0.05, 0.025, 0.0125), "omega": 1.0,
}


def scenario_continuous_limit(overrides: dict, seed: int = 0,
                              log_base: float = 2.0) -> ScenarioResult:
    p = _merge(CONTINUOUS_DEFAULTS, overrides, "continuous_limit")
    h = p["omega"] * linalg.SIGMA_Z / 2
    stream = AncillaStream(2, h, GROUND)  # zero-temperature units
    curves = {}
    rep_traj = None
    for tau in p["tau_grid"]:
        theta = math.sqrt(p["gamma"] * tau)
        n = int(round(p["total_time"] / tau))
        cfg = CollisionConfig(
            system_dim=2, system_hamiltonian=h, system_init=EXCITED,
            streams=[stream], interactions=[partial_swap_interaction(2)],
            tau=tau, coupling=theta / tau, n_steps=n,
            rng_seed=seed, log_base=log_base)
        traj = run(cfg)
        t = tau * np.arange(n + 1)
        pop = np.array([s[0, 0].real for s in traj.snapshots])
        curves[tau] = (t, pop)
        rep_traj = traj if tau == min(p["tau_grid"]) else rep_traj
    # decay rate fitted on the finest grid
    t_fine, pop_fine = curves[min(p["tau_grid"])]
    mask = pop_fine > 1e-12
    rate = 0.0
    if p["gamma"] > 0:
        rate = float(-np.polyfit(t_fine[mask], np.log(pop_fine[mask]), 1)[0])
    deviations = []
    for tau in p["tau_grid"]:
        t, pop = curves[tau]
        deviations.append(float(np.max(np.abs(pop - np.exp(-rate * t)))))
    summary = {
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in p.items()},
        "seed": seed, "log_base": log_base,
        "fitted_rate": rate,
        "tau_grid": list(p["tau_grid"]),
        "max_deviation_per_tau": deviations,
        "deviation_strictly_decreasing": bool(
            all(a > b for a, b in zip(deviations, deviations[1:]))),
    }
    return ScenarioResult("continuous_limit", summary, rep_traj)


# --------------------------------------------------------------------------
# registry and output

SCENARIOS = {
    "thermalization": scenario_thermalization,
    "nonmarkov_sweep": scenario_nonmarkov_sweep,
    "battery": scenario_battery,
    "two_qubit_local_global": scenario_two_qubit_local_global,
    "landauer": scenario_landauer,
    "continuous_limit": scenario_continuous_limit,
}


def run_scenario(name: str, overrides: dict | None = None, seed: int = 0,
                 log_base: float = 2.0) -> ScenarioResult:
    if name not in SCENARIOS:
        raise KeyError(name)
    return SCENARIOS[name](overrides or {}, seed=seed, log_base=log_base)


def _check_ledger(traj: Trajectory, ledger: thermo.ThermoLedger):
    """Re-check ledger invariants at write time."""
    res = np.max(np.abs(ledger.first_law_residual))
    if res >= 1e-9:
        raise ConfigError(f"first-law residual {res:.3g} violates ledger invariant")
    if traj.config.aa_mode == "off":
        # the entropy-production chain presumes uncorrelated fresh units
        if np.min(ledger.Sigma - ledger.I_SE) < -1e-9 or np.min(ledger.I_SE) < -1e-9:
            raise ConfigError("entropy-production chain violated at write time")


def trajectory_rows(traj: Trajectory) -> list[list[float]]:
    ledger = thermo.build_ledger(traj)
    _check_ledger(traj, ledger)
    rows = []
    for i in range(len(ledger.step)):
        rows.append([int(ledger.step[i]), ledger.E_S[i], ledger.Q_resource[i],
                     ledger.Q_bath[i], ledger.W[i], ledger.S_S[i], ledger.S_anc[i],
                     ledger.I_SE[i], ledger.Sigma[i], ledger.D_pair[i]])
    return rows


def write_trajectory_csv(traj: Trajectory, path):
    with open(path, "w") as fh:
        fh.write(f"# schema_version {CSV_SCHEMA_VERSION}\n")
        fh.write(CSV_HEADER + "\n")
        for row in trajectory_rows(traj):
            cells = [str(row[0])] + [f"{x:.17g}" for x in row[1:]]
            fh.write(",".join(cells) + "\n")


def write_trajectory_json(traj: Trajectory, summary: dict, path):
    names = CSV_HEADER.split(",")
    records = []
    for row in trajectory_rows(traj):
        rec = dict(zip(names, row))
        rec["step"] = int(rec["step"])
        records.append(rec)
    doc = {"schema_version": CSV_SCHEMA_VERSION, "summary": summary,
           "records": records}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
