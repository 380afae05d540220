"""Named scenario runners and trajectory output.

Each scenario binds a physical narrative (thermalization, memory sweep,
dissipative battery charging, local-vs-global two-qubit transport,
Landauer accounting, continuous-time limit) to a runnable configuration.
Defaults live here in code; a config document supplies overrides only and
unknown keys are hard errors.  ``run_scenario`` is the one runner: it
merges and type-checks the overrides, calls the scenario with the merged
parameters, and echoes the parameters, seed and log base at the head of
the summary, so emitted files are self-describing.  A scenario function
computes only its own findings and returns them with its representative
trajectory.
"""

from __future__ import annotations

import json
import math
import numbers
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
    trajectory: Trajectory


def _merge(defaults: dict, overrides: dict, name: str) -> dict:
    """The defaults updated by type-checked overrides; grids become lists."""
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown override keys for scenario {name!r}: {sorted(unknown)}; "
            f"valid keys: {sorted(defaults)}")
    for key, value in overrides.items():
        _check_override(name, key, value, defaults[key])
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in {**defaults, **overrides}.items()}


# what an override must be, by the type of its default
_KINDS = {tuple: ((list, tuple), "a non-empty list"), str: (str, "a string"),
          int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number")}


def _check_override(name: str, key: str, value, default) -> None:
    """Reject an override whose type differs from its default's.

    A bool is never a number, a grid is never empty, and each entry of a
    list must match the default's first entry.  Ranges are checked where
    values are used.
    """
    accepted, kind = _KINDS[type(default)]
    if not isinstance(value, accepted) or isinstance(value, bool) \
            or (isinstance(default, tuple) and not value):
        raise ConfigError(f"override {key!r} of scenario {name!r} must be {kind}, "
                          f"got {value!r}")
    if isinstance(default, tuple):
        for i, entry in enumerate(value):
            _check_override(name, f"{key}[{i}]", entry, default[0])


def _finite(p: dict, key: str) -> float:
    """``p[key]``, checked finite before it scales an operator (inf * 0 is NaN)."""
    if not math.isfinite(p[key]):
        raise ConfigError(f"parameter {key!r} must be finite, got {p[key]!r}")
    return p[key]


def _thermal_stream(h: np.ndarray, beta: float, role: str = "resource") -> AncillaStream:
    """Units of Hamiltonian ``h``, each thermal at inverse temperature ``beta``."""
    return AncillaStream(len(h), h, qstate.thermal_state(h, beta), role=role, beta=beta)


def _pswap_config(p: dict, seed: int, log_base: float, **extra) -> CollisionConfig:
    """Qubit system + thermal qubit stream coupled by a partial SWAP."""
    h = _finite(p, "omega") * linalg.SIGMA_Z / 2
    return CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=EXCITED,
        streams=[_thermal_stream(h, p["beta"])],
        interactions=[partial_swap_interaction(2)],
        tau=p["tau"], coupling=p["theta"] / p["tau"], n_steps=p["n_steps"],
        rng_seed=seed, log_base=log_base, **extra)


# --------------------------------------------------------------------------
# thermalization

THERMALIZATION_DEFAULTS = {
    "omega": 1.0, "beta": 1.0, "theta": 0.05 * math.pi, "tau": 1.0,
    "n_steps": 2000,
}


def scenario_thermalization(p: dict, seed: int, log_base: float):
    cfg = _pswap_config(p, seed, log_base)
    traj = run(cfg)
    target = qstate.thermal_state(cfg.system_hamiltonian, p["beta"])
    dist = qstate.trace_distance(traj.snapshots,
                                 np.broadcast_to(target, traj.snapshots.shape))
    monotone = bool(np.all(np.diff(dist) <= 1e-12))
    return {"final_distance_to_thermal": float(dist[-1]),
            "monotone_decay": monotone}, traj


# --------------------------------------------------------------------------
# nonmarkov_sweep

NONMARKOV_DEFAULTS = {
    "omega": 1.0, "beta": 1.0, "theta": 0.3 * math.pi, "tau": 1.0,
    "n_steps": 30, "p_grid": (0.0, 0.25, 0.5, 0.75, 1.0),
    "modes": ("coherent", "incoherent"), "metric": "trace",
    "bound_steps": 8,
}


def scenario_nonmarkov_sweep(p: dict, seed: int, log_base: float):
    sweep, done = [], {}
    # representative trajectory: the coherent entry with the largest p, or
    # the last entry when no mode is coherent
    rep_traj, rep_p = None, -math.inf
    for mode in p["modes"]:
        for prob in p["p_grid"]:
            # p = 0 is the memoryless channel in both modes, and incoherent
            # p = 1 swaps at every step (each coin is below 1), as coherent
            # p = 1 does: each distinct channel runs once
            channel = ("off" if prob == 0 else "coherent" if prob == 1 else mode, prob)
            if channel not in done:
                cfg = _pswap_config(p, seed, log_base, aa_mode=channel[0],
                                    aa_swap_prob=prob, pair_metric=p["metric"])
                traj_a, traj_b = run_paired(cfg, EXCITED, GROUND)
                series = nonmarkov.distinguishability_series(traj_a, traj_b, p["metric"])
                # bound verification on the exact full-state backend
                oracle = replace(cfg, n_steps=p["bound_steps"], backend="full")
                try:  # cfg is valid: only bound_steps can be rejected here
                    oracle.validate()
                except ConfigError as exc:
                    raise ConfigError(f"bound_steps {p['bound_steps']!r}: {exc}") from None
                # the joint snapshots of the oracle pair are freed once the reports exist
                reports = nonmarkov.all_pair_bound_reports(
                    *run_paired(oracle, EXCITED, GROUND), p["metric"])
                done[channel] = traj_a, {
                    "blp": nonmarkov.blp_measure(series),
                    "first_revival_step": nonmarkov.first_revival_step(series),
                    "min_bound_slack": float(min(r.slack for r in reports)),
                    "max_revival_lhs": float(max(r.lhs for r in reports)),
                }
            traj_a, findings = done[channel]
            sweep.append({"mode": mode, "p": prob, **findings})
            if mode == "coherent" and prob >= rep_p:
                rep_traj, rep_p = traj_a, prob
            elif rep_p == -math.inf:
                rep_traj = traj_a
    return {"sweep": sweep}, rep_traj


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


def scenario_battery(p: dict, seed: int, log_base: float):
    h = _finite(p, "omega") * linalg.SIGMA_Z  # gap 2*omega on both sides keeps V resonant
    stream = _thermal_stream(h, p["beta"])
    cfg = CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=GROUND,
        streams=[stream], interactions=[battery_interaction(p["interaction"])],
        tau=p["tau"], coupling=p["g"], n_steps=p["n_steps"],
        rng_seed=seed, log_base=log_base)
    traj = run(cfg)
    final = traj.snapshots[-1]
    pops = np.diag(final).real
    inverted = qstate.thermal_state(-h, p["beta"])  # beta -> -beta
    fluxes = thermo.steady_state_fluxes(traj, p["window"])
    return {
        "steady_populations": [float(x) for x in pops],
        "distance_to_thermal": qstate.trace_distance(final, stream.init_state),
        "distance_to_inverted_thermal": qstate.trace_distance(final, inverted),
        "population_inverted": bool(pops[0] > pops[1]),  # non-passive flag
        "Q_rate": fluxes.Q_rate, "W_rate": fluxes.W_rate,
        "fluxes_converged": fluxes.converged,
    }, traj


# --------------------------------------------------------------------------
# two_qubit_local_global

TWO_QUBIT_DEFAULTS = {
    "omega": 1.0, "J": 0.2, "Jz": 0.15, "g": 0.5, "tau": 1.0,
    "beta_hot": 0.5, "beta_cold": 2.0, "n_steps": 4000, "window": 200,
}


def _two_qubit_config(p: dict, seed: int, log_base: float) -> CollisionConfig:
    sx, sy, sz, eye = linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z, linalg.EYE2
    h_local = _finite(p, "omega") / 2 * (linalg.kron(sz, eye) + linalg.kron(eye, sz))
    h_int = _finite(p, "J") * (linalg.kron(sx, sx) + linalg.kron(sy, sy)) \
        + _finite(p, "Jz") * linalg.kron(sz, sz)
    h_e = p["omega"] * sz / 2
    streams = [_thermal_stream(h_e, p["beta_hot"], "bath"),
               _thermal_stream(h_e, p["beta_cold"], "bath")]
    # energy-preserving local exchange with each qubit's own reservoir
    v1 = linalg.kron(sx, eye, sx) + linalg.kron(sy, eye, sy)
    v2 = linalg.kron(eye, sx, sx) + linalg.kron(eye, sy, sy)
    return CollisionConfig(
        system_dim=4, system_hamiltonian=h_local + h_int,
        system_init=linalg.kron(streams[0].init_state, streams[1].init_state),
        streams=streams, interactions=[v1, v2], tau=p["tau"], coupling=p["g"],
        n_steps=p["n_steps"], rng_seed=seed, log_base=log_base)


def scenario_two_qubit_local_global(p: dict, seed: int, log_base: float):
    cfg = _two_qubit_config(p, seed, log_base)
    w = p["window"]
    if w < len(cfg.streams):  # the tail must hold a collision with each bath
        raise ConfigError(f"window must be >= {len(cfg.streams)}, got {w!r}")
    traj = run(cfg)
    fluxes = thermo.steady_state_fluxes(traj, w)  # validates the window first
    stream, q = traj.config.stream_index()[-w:], traj.ledger["Q"][-w:]
    q_hot = float(np.mean(q[stream == 0]))
    q_cold = float(np.mean(q[stream == 1]))
    ledger = thermo.build_ledger(traj)
    db = [thermo.detailed_balance_report(
        cfg.system_hamiltonian, cfg.streams[i].hamiltonian, cfg.interactions[i])
        for i in range(2)]
    return {
        "Q_rate_hot": q_hot, "Q_rate_cold": q_cold, "W_rate": fluxes.W_rate,
        "heat_flows_hot_to_cold": bool(q_hot < 0 < q_cold),
        "max_first_law_residual": float(np.max(np.abs(ledger.first_law_residual))),
        "cumulative_W": float(ledger.W.sum()),
        "max_abs_W": float(np.max(np.abs(ledger.W))),
        "cumulative_Sigma": float(ledger.Sigma.sum()),
        "global_db_violation": [d.local_db for d in db],
        "fluxes_converged": fluxes.converged,
    }, traj


# --------------------------------------------------------------------------
# landauer

LANDAUER_DEFAULTS = {
    "omega": 1.0, "beta": 1.0, "g": 0.5, "tau": 1.0, "n_steps": 1500,
    "window": 50, "beta_grid": (0.1, 0.5, 1.0, 2.0),
}


def _landauer_config(p: dict, beta: float, seed: int,
                     log_base: float) -> CollisionConfig:
    h = _finite(p, "omega") * linalg.SIGMA_Z / 2
    v = linalg.kron(linalg.SIGMA_X, linalg.SIGMA_X)  # not energy preserving
    return CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=EXCITED,
        streams=[_thermal_stream(h, beta)], interactions=[v], tau=p["tau"],
        coupling=p["g"], n_steps=p["n_steps"], rng_seed=seed, log_base=log_base)


def scenario_landauer(p: dict, seed: int, log_base: float):
    cfg = _landauer_config(p, p["beta"], seed, log_base)
    traj = run(cfg)
    report = thermo.landauer_report(traj, p["window"])
    grid = []
    for beta in p["beta_grid"]:
        gtraj = run(_landauer_config(p, beta, seed, log_base))
        grep = thermo.landauer_report(gtraj, p["window"])
        grid.append({"beta": beta, "beta_Q": grep.beta_Q, "dS_anc": grep.dS_anc,
                     "landauer_gap": grep.landauer_gap})
    return {
        "beta_Q": report.beta_Q, "dS_anc": report.dS_anc, "I_SE": report.I_SE,
        "D_relent": report.D_relent, "residual": report.residual,
        "landauer_gap": report.landauer_gap, "beta_grid": grid,
    }, traj


# --------------------------------------------------------------------------
# continuous_limit

CONTINUOUS_DEFAULTS = {
    "gamma": 0.5, "total_time": 4.0,
    "tau_grid": (0.1, 0.05, 0.025, 0.0125), "omega": 1.0,
}


def scenario_continuous_limit(p: dict, seed: int, log_base: float):
    if not all(0 < tau < math.inf for tau in p["tau_grid"]):
        raise ConfigError(f"tau_grid steps must be positive and finite, got {p['tau_grid']!r}")
    if not 0 < p["total_time"] < math.inf:
        raise ConfigError(f"total_time must be positive and finite, got {p['total_time']!r}")
    if not p["gamma"] >= 0:
        raise ConfigError(f"gamma must be >= 0, got {p['gamma']!r}")
    h = _finite(p, "omega") * linalg.SIGMA_Z / 2
    stream = AncillaStream(2, h, GROUND)  # zero-temperature units
    curves = {}
    rep_traj = None
    for tau in p["tau_grid"]:
        theta = math.sqrt(p["gamma"] * tau)
        n = int(round(p["total_time"] / tau))
        if n < 1:
            raise ConfigError(f"total_time {p['total_time']!r} rounds to zero "
                              f"collisions at the tau_grid step {tau!r}")
        cfg = CollisionConfig(
            system_dim=2, system_hamiltonian=h, system_init=EXCITED,
            streams=[stream], interactions=[partial_swap_interaction(2)],
            tau=tau, coupling=theta / tau, n_steps=n,
            rng_seed=seed, log_base=log_base)
        traj = run(cfg)
        t = tau * np.arange(n + 1)
        pop = traj.snapshots[:, 0, 0].real
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
    return {
        "fitted_rate": rate,
        "tau_grid": p["tau_grid"],
        "max_deviation_per_tau": deviations,
        "deviation_strictly_decreasing": bool(
            all(a > b for a, b in zip(deviations, deviations[1:]))),
    }, rep_traj


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
DEFAULTS = {
    "thermalization": THERMALIZATION_DEFAULTS,
    "nonmarkov_sweep": NONMARKOV_DEFAULTS,
    "battery": BATTERY_DEFAULTS,
    "two_qubit_local_global": TWO_QUBIT_DEFAULTS,
    "landauer": LANDAUER_DEFAULTS,
    "continuous_limit": CONTINUOUS_DEFAULTS,
}


def run_scenario(name: str, overrides: dict | None = None, seed: int = 0,
                 log_base: float = 2.0) -> ScenarioResult:
    """Run scenario ``name`` with its defaults updated by ``overrides``.

    The summary opens with the merged parameters, the seed and the log
    base, followed by the scenario's findings.  An unknown ``name`` raises
    ``KeyError``.
    """
    p = _merge(DEFAULTS[name], overrides or {}, name)
    findings, traj = SCENARIOS[name](p, seed, log_base)
    return ScenarioResult(name, {"params": p, "seed": seed, "log_base": log_base,
                                 **findings}, traj)


def _check_ledger(traj: Trajectory, ledger: thermo.ThermoLedger):
    """Re-check ledger invariants at write time."""
    res = np.max(np.abs(ledger.first_law_residual))
    if res >= 1e-9:
        raise ConfigError(f"first-law residual {res:.3g} violates ledger invariant")
    if traj.config.aa_mode == "off":
        # the entropy-production chain presumes uncorrelated fresh units
        if np.min(ledger.Sigma - ledger.I_SE) < -1e-9 or np.min(ledger.I_SE) < -1e-9:
            raise ConfigError("entropy-production chain violated at write time")


def trajectory_rows(traj: Trajectory) -> list[tuple]:
    """One row per collision, in ``CSV_HEADER`` column order."""
    ledger = thermo.build_ledger(traj)
    _check_ledger(traj, ledger)
    return list(zip(*(getattr(ledger, name).tolist() for name in CSV_HEADER.split(","))))


def write_trajectory_csv(traj: Trajectory, path, rows: list[tuple] | None = None):
    """The trajectory as CSV; ``rows`` are its ``trajectory_rows`` if already built."""
    with open(path, "w") as fh:
        fh.write(f"# schema_version {CSV_SCHEMA_VERSION}\n")
        fh.write(CSV_HEADER + "\n")
        for row in trajectory_rows(traj) if rows is None else rows:
            cells = [str(row[0])] + [f"{x:.17g}" for x in row[1:]]
            fh.write(",".join(cells) + "\n")


def write_trajectory_json(traj: Trajectory, summary: dict, path,
                          rows: list[tuple] | None = None):
    """The summary and the trajectory as JSON; ``rows`` as in the CSV writer."""
    names = CSV_HEADER.split(",")
    records = [dict(zip(names, row))
               for row in (trajectory_rows(traj) if rows is None else rows)]
    doc = {"schema_version": CSV_SCHEMA_VERSION, "summary": summary,
           "records": records}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
