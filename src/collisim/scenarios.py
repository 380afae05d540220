"""Named scenario runners and trajectory output.

Each scenario binds a physical narrative (thermalization, memory sweep,
dissipative battery charging, local-vs-global two-qubit transport,
Landauer accounting, continuous-time limit) to a runnable configuration.
Defaults live here in code; a config document supplies overrides only and
unknown keys are hard errors.  ``run_scenario`` is the one runner: it
merges the overrides, checking the type of each and its range in ``RANGES``
before any run, calls the scenario with the merged parameters, and echoes
the parameters, seed and log base at the head of the summary, so emitted
files are self-describing.  A scenario function checks only the limits
that join a parameter with others (a window against ``n_steps`` in
``_check_windows``), validates each of its configurations before its
first run, with an engine rejection of a derived value re-raised under
the keys that set it (``_keyed``), computes only its own findings and
returns them with its representative trajectory.  The two writers check
the ledger (``_check_ledger``) before they open their file, so a failed
check leaves no file, and format its columns ``WRITE_CHUNK`` rows at a
time, so writing holds one chunk of rows beside the run's arrays.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, nonmarkov, qstate, thermo
from .engine import (AncillaStream, CollisionConfig, Trajectory, collision_hamiltonian,
                     partial_swap_interaction, run, run_paired)
from .errors import ConfigError, check_kind

CSV_SCHEMA_VERSION = 1
CSV_HEADER = "step,E_S,Q_resource,Q_bath,W,S_S,S_anc,I_SE,Sigma,D_pair"
WRITE_CHUNK = 256  # rows formatted and written at once: bounds memory

# One row of each file as a % template.  A JSON record is a dict as
# json.dump(indent=1) lays it out inside the top-level "records" list, with
# floats as float.__repr__; json's NaN and Infinity are put in after
# formatting: each value follows ": ", which occurs nowhere else in a record.
_CSV_ROW = "%d" + ",%.17g" * CSV_HEADER.count(",") + "\n"
_JSON_RECORD = "  {\n" + ",\n".join(
    f"   {json.dumps(name)}: %{'d' if name == 'step' else 'r'}"
    for name in CSV_HEADER.split(",")) + "\n  }"
_JSON_NON_FINITE = [(": nan", ": NaN"), (": inf", ": Infinity"), (": -inf", ": -Infinity")]

EXCITED = qstate.pure_state(np.array([1.0, 0.0]))  # +1 eigenstate of sigma_z
GROUND = qstate.pure_state(np.array([0.0, 1.0]))


@dataclass
class ScenarioResult:
    name: str
    summary: dict
    trajectory: Trajectory


def _merge(defaults: dict, overrides: dict, name: str) -> dict:
    """The defaults updated by type- and range-checked overrides; grids become lists."""
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown override keys for scenario {name!r}: {sorted(unknown)}; "
            f"valid keys: {sorted(defaults)}")
    for key, value in overrides.items():
        _check_override(name, key, value, defaults[key])
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in {**defaults, **overrides}.items()}


# what an override must be, by the type of its default: a ``check_kind`` kind for a number
_KINDS = {tuple: ((list, tuple), "a non-empty list"), str: (str, "a string"),
          int: "integer", float: "real"}

_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "be finite and >= 0")
_POSITIVE = (lambda v: 0 < v < math.inf, "be positive and finite")
# the range of a parameter, by name, as a test of one value and the words that
# complete "must"; the range of a grid holds for each of its entries
RANGES = {
    **dict.fromkeys(["beta", "beta_hot", "beta_cold", "beta_grid", "gamma"], _NON_NEGATIVE),
    **dict.fromkeys(["tau", "tau_grid", "total_time"], _POSITIVE),
    "theta": (math.isfinite, "be finite"),
    "p_grid": (lambda v: 0 <= v <= 1, "lie in [0, 1]"),
    "modes": (lambda v: v in ("coherent", "incoherent"), "be 'coherent' or 'incoherent'"),
    "metric": (lambda v: v in qstate.METRICS, f"be one of {qstate.METRICS}"),
    "window": (lambda v: v >= 1, "be >= 1"),
}


def _check_override(name: str, key: str, value, default, rng=None) -> None:
    """Reject an override whose type differs from its default's, or whose
    value lies outside the range ``rng``, by default that of ``key`` in ``RANGES``.

    A bool is never a number, a grid is never empty, a real number must
    convert to a float (an integer past the float range does not), and each
    entry of a list must match the default's first entry and lie in the
    list's range.
    """
    what, kind = f"override {key!r} of scenario {name!r}", _KINDS[type(default)]
    if isinstance(kind, str):
        check_kind(what, value, kind)
    elif not isinstance(value, kind[0]) or (isinstance(default, tuple) and not value):
        raise ConfigError(f"{what} must be {kind[1]}, got {value!r}")
    if isinstance(default, float):
        try:
            float(value)
        except OverflowError:  # its digits may be too many to print
            raise ConfigError(f"{what} must be in the float range, got an integer of "
                              f"{value.bit_length()} bits") from None
    if isinstance(default, tuple):
        for i, entry in enumerate(value):
            _check_override(name, f"{key}[{i}]", entry, default[0], RANGES.get(key))
    elif (rng := rng or RANGES.get(key)) and not rng[0](value):
        raise ConfigError(f"parameter {key!r} must {rng[1]}, got {value!r}")


@contextmanager
def _keyed(label: str):
    """Re-raise a ``ConfigError`` of the block as "``label``: message", so a
    rejection of a derived value names the scenario keys it came from."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def _check_windows(p: dict, count: int, what: str) -> None:
    """Reject a run of ``n_steps`` collisions too short for ``count`` steady-state
    windows of ``window`` steps, before any configuration is built."""
    if count * p["window"] > p["n_steps"]:
        raise ConfigError(f"parameters 'window' and 'n_steps' must fit {what} in the run, "
                          f"got window {p['window']!r} and n_steps {p['n_steps']!r}")


def _scaled(p: dict, key: str, op: np.ndarray) -> np.ndarray:
    """``p[key] * op``, rejected under ``key`` before it is formed if the scale is
    not finite (inf * 0 is NaN) or spreads the energies of ``op`` past the float range."""
    vals = np.linalg.eigvalsh(op).tolist()
    if not math.isfinite(abs(p[key]) * (vals[-1] - vals[0])):
        raise ConfigError(f"parameter {key!r} must be finite and keep the energy spread "
                          f"in the float range, got {p[key]!r}")
    return p[key] * op


def _coupled(cfg: CollisionConfig, keys: str) -> CollisionConfig:
    """``cfg``, rejected under ``keys`` if its coupling overflows a collision Hamiltonian."""
    with _keyed(f"the coupling of {keys}"):
        for i in range(len(cfg.streams)):
            collision_hamiltonian(cfg, i)
    return cfg


def _thermal_stream(h: np.ndarray, beta: float, role: str = "resource") -> AncillaStream:
    """Units of Hamiltonian ``h``, each thermal at inverse temperature ``beta``."""
    return AncillaStream(len(h), h, qstate.thermal_state(h, beta), role=role, beta=beta)


def _pswap_config(p: dict, seed: int, log_base: float, **extra) -> CollisionConfig:
    """Qubit system + thermal qubit stream coupled by a partial SWAP."""
    h = _scaled(p, "omega", linalg.SIGMA_Z / 2)
    return _coupled(CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=EXCITED,
        streams=[_thermal_stream(h, p["beta"])],
        interactions=[partial_swap_interaction(2)],
        tau=p["tau"], coupling=p["theta"] / p["tau"], n_steps=p["n_steps"],
        rng_seed=seed, log_base=log_base, **extra), "parameters 'theta' / 'tau'")


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
    cfg = _pswap_config(p, seed, log_base, pair_metric=p["metric"])
    cfg.validate()
    # bound verification on the exact full-state backend
    oracle = replace(cfg, n_steps=p["bound_steps"], backend="full")
    with _keyed(f"bound_steps {p['bound_steps']!r}"):  # only bound_steps can fail here
        oracle.validate()
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
                gate = {"aa_mode": channel[0], "aa_swap_prob": prob}
                traj_a, traj_b = run_paired(replace(cfg, **gate), EXCITED, GROUND)
                series = nonmarkov.distinguishability_series(traj_a, traj_b)
                pair = run_paired(replace(oracle, **gate), EXCITED, GROUND)
                done[channel] = traj_a, {
                    "blp": nonmarkov.blp_measure(series),
                    "first_revival_step": nonmarkov.first_revival_step(series),
                    **nonmarkov.bound_findings(nonmarkov.distinguishability_series(*pair),
                                               nonmarkov.bound_terms(*pair)),
                }
                del pair  # the oracle pair is freed before the next one runs
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
    _check_windows(p, 2, "two flux windows")
    h = _scaled(p, "omega", linalg.SIGMA_Z)  # gap 2*omega on both sides keeps V resonant
    stream = _thermal_stream(h, p["beta"])
    cfg = _coupled(CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=GROUND,
        streams=[stream], interactions=[battery_interaction(p["interaction"])],
        tau=p["tau"], coupling=p["g"], n_steps=p["n_steps"],
        rng_seed=seed, log_base=log_base), "parameter 'g'")
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
    h_local = _scaled(p, "omega", (linalg.kron(sz, eye) + linalg.kron(eye, sz)) / 2)
    h_int = _scaled(p, "J", linalg.kron(sx, sx) + linalg.kron(sy, sy)) \
        + _scaled(p, "Jz", linalg.kron(sz, sz))
    h_e = p["omega"] * sz / 2
    streams = [_thermal_stream(h_e, p["beta_hot"], "bath"),
               _thermal_stream(h_e, p["beta_cold"], "bath")]
    # energy-preserving local exchange with each qubit's own reservoir
    v1 = linalg.kron(sx, eye, sx) + linalg.kron(sy, eye, sy)
    v2 = linalg.kron(eye, sx, sx) + linalg.kron(eye, sy, sy)
    return _coupled(CollisionConfig(
        system_dim=4, system_hamiltonian=h_local + h_int,
        system_init=linalg.kron(streams[0].init_state, streams[1].init_state),
        streams=streams, interactions=[v1, v2], tau=p["tau"], coupling=p["g"],
        n_steps=p["n_steps"], rng_seed=seed, log_base=log_base), "parameter 'g'")


def scenario_two_qubit_local_global(p: dict, seed: int, log_base: float):
    _check_windows(p, 2, "two flux windows")
    cfg = _two_qubit_config(p, seed, log_base)
    w = p["window"]
    if w < len(cfg.streams):  # the tail must hold a collision with each bath
        raise ConfigError(f"window must be >= {len(cfg.streams)}, got {w!r}")
    # the commutators need no run: a scale that overflows them fails first
    with _keyed("parameters 'omega', 'J' and 'Jz' set the energies of the "
                "detailed-balance commutators"):
        db = [thermo.detailed_balance_report(
            cfg.system_hamiltonian, cfg.streams[i].hamiltonian, cfg.interactions[i])
            for i in range(2)]
    traj = run(cfg)
    fluxes = thermo.steady_state_fluxes(traj, w)  # validates the window first
    stream, q = traj.config.stream_index()[-w:], traj.ledger["Q"][-w:]
    q_hot = float(np.mean(q[stream == 0]))
    q_cold = float(np.mean(q[stream == 1]))
    ledger = thermo.build_ledger(traj)
    return {
        "Q_rate_hot": q_hot, "Q_rate_cold": q_cold, "W_rate": fluxes.W_rate,
        "heat_flows_hot_to_cold": bool(q_hot < 0 < q_cold),
        "max_first_law_residual": float(np.max(np.abs(ledger["first_law_residual"]))),
        "cumulative_W": float(ledger["W"].sum()),
        "max_abs_W": float(np.max(np.abs(ledger["W"]))),
        "cumulative_Sigma": float(ledger["Sigma"].sum()),
        "global_db_violation": [d.local_db for d in db],
        "fluxes_converged": fluxes.converged,
    }, traj


# --------------------------------------------------------------------------
# landauer

LANDAUER_DEFAULTS = {
    "omega": 1.0, "beta": 1.0, "g": 0.5, "tau": 1.0, "n_steps": 1500,
    "window": 50, "beta_grid": (0.1, 0.5, 1.0, 2.0),
}


def _landauer_config(p: dict, beta: float, seed: int, log_base: float) -> CollisionConfig:
    """The erasure run at inverse temperature ``beta``."""
    h = _scaled(p, "omega", linalg.SIGMA_Z / 2)
    v = linalg.kron(linalg.SIGMA_X, linalg.SIGMA_X)  # not energy preserving
    return _coupled(CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=EXCITED,
        streams=[_thermal_stream(h, beta)], interactions=[v], tau=p["tau"], coupling=p["g"],
        n_steps=p["n_steps"], rng_seed=seed, log_base=log_base), "parameter 'g'")


def scenario_landauer(p: dict, seed: int, log_base: float):
    _check_windows(p, 1, "the drift window")  # the drift reads window + 1 snapshots
    # one run per distinct beta; every config is validated before the first run,
    # and a grid config differs from the first one only in its beta
    cfgs = {beta: _landauer_config(p, beta, seed, log_base)
            for beta in [p["beta"], *p["beta_grid"]]}
    first, *grid = cfgs
    cfgs[first].validate()
    for beta in grid:
        with _keyed(f"beta_grid entry {beta!r}"):
            cfgs[beta].validate()
    runs = {beta: run(cfg) for beta, cfg in cfgs.items()}
    reports = {beta: thermo.landauer_report(traj, p["window"]) for beta, traj in runs.items()}
    report = reports[p["beta"]]
    grid = [{"beta": beta, "beta_Q": reports[beta].beta_Q, "dS_anc": reports[beta].dS_anc,
             "landauer_gap": reports[beta].landauer_gap} for beta in p["beta_grid"]]
    return {
        "beta_Q": report.beta_Q, "dS_anc": report.dS_anc, "I_SE": report.I_SE,
        "D_relent": report.D_relent, "residual": report.residual,
        "landauer_gap": report.landauer_gap, "beta_grid": grid,
    }, runs[p["beta"]]


# --------------------------------------------------------------------------
# continuous_limit

CONTINUOUS_DEFAULTS = {
    "gamma": 0.5, "total_time": 4.0,
    "tau_grid": (0.1, 0.05, 0.025, 0.0125), "omega": 1.0,
}


def scenario_continuous_limit(p: dict, seed: int, log_base: float):
    h = _scaled(p, "omega", linalg.SIGMA_Z / 2)
    stream = AncillaStream(2, h, GROUND)  # zero-temperature units
    cfgs = {}  # one run per distinct step; every config is validated before the first run
    for tau in p["tau_grid"]:
        # the collision count is set by total_time and tau: name both
        where = f"total_time {p['total_time']!r} over the tau_grid step {tau!r}"
        if not 0.5 < p["total_time"] / tau < math.inf:  # round(0.5) is 0
            raise ConfigError(f"{where} must round to a finite count of at least one "
                              f"collision, got {p['total_time'] / tau!r}")
        cfgs[tau] = CollisionConfig(
            system_dim=2, system_hamiltonian=h, system_init=EXCITED,
            streams=[stream], interactions=[partial_swap_interaction(2)],
            tau=tau, coupling=math.sqrt(p["gamma"] * tau) / tau,
            n_steps=int(round(p["total_time"] / tau)), rng_seed=seed, log_base=log_base)
        with _keyed(f"gamma {p['gamma']!r} and {where}"):  # the coupling is sqrt(gamma / tau)
            cfgs[tau].validate()
    curves = {}
    rep_traj = None
    for tau, cfg in cfgs.items():
        traj = run(cfg)
        t = tau * np.arange(cfg.n_steps + 1)
        pop = traj.snapshots[:, 0, 0].real
        curves[tau] = (t, pop)
        rep_traj = traj if tau == min(p["tau_grid"]) else rep_traj
    # decay rate fitted on the finest grid
    t_fine, pop_fine = curves[min(p["tau_grid"])]
    mask = pop_fine > 1e-12
    rate = 0.0
    if p["gamma"] > 0:
        if mask.sum() < 2:  # a full swap empties the excited state in one collision
            raise ConfigError(f"gamma {p['gamma']!r} over the finest tau_grid step "
                              f"{min(p['tau_grid'])!r} leaves {int(mask.sum())} populated "
                              f"point(s) to fit the decay rate; the fit needs 2")
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
    base, followed by the scenario's findings.  A ``seed`` that is not an
    integer >= 0 is rejected before any configuration is built, as are an
    unknown ``name`` (the error lists the scenarios) and ``overrides`` that
    are not a dict.
    """
    if not (isinstance(name, str) and name in SCENARIOS):
        raise ConfigError(f"unknown scenario {name!r}; available: "
                          f"{', '.join(sorted(SCENARIOS))}")
    if not isinstance(overrides or {}, dict):
        raise ConfigError(f"overrides must be a dict, got {overrides!r}")
    check_kind("seed", seed, "integer", 0)
    p = _merge(DEFAULTS[name], overrides or {}, name)
    findings, traj = SCENARIOS[name](p, seed, log_base)
    return ScenarioResult(name, {"params": p, "seed": seed, "log_base": log_base,
                                 **findings}, traj)


def _check_ledger(traj: Trajectory, ledger: dict[str, np.ndarray]):
    """Re-check ledger invariants at write time."""
    res = np.max(np.abs(ledger["first_law_residual"]))
    if res >= 1e-9:
        raise ConfigError(f"first-law residual {res:.3g} violates ledger invariant")
    if traj.config.aa_mode == "off":
        # the entropy-production chain presumes uncorrelated fresh units
        if np.min(ledger["Sigma"] - ledger["I_SE"]) < -1e-9 or np.min(ledger["I_SE"]) < -1e-9:
            raise ConfigError("entropy-production chain violated at write time")


def _checked_columns(traj: Trajectory) -> list[np.ndarray]:
    """The ledger's columns in ``CSV_HEADER`` order, after the write-time check."""
    ledger = thermo.build_ledger(traj)
    _check_ledger(traj, ledger)
    return [ledger[name] for name in CSV_HEADER.split(",")]


def _formatted_chunks(columns: list[np.ndarray], template: str, sep: str):
    """Each ``WRITE_CHUNK`` rows of ``columns`` as ``sep.join(template % row ...)``."""
    for start in range(0, len(columns[0]), WRITE_CHUNK):
        rows = zip(*(column[start:start + WRITE_CHUNK].tolist() for column in columns))
        yield sep.join([template % row for row in rows])


def write_trajectory_csv(traj: Trajectory, path):
    """The trajectory as CSV; the ledger is checked before the file is opened."""
    columns = _checked_columns(traj)
    with open(path, "w") as fh:
        fh.write(f"# schema_version {CSV_SCHEMA_VERSION}\n{CSV_HEADER}\n")
        fh.writelines(_formatted_chunks(columns, _CSV_ROW, ""))


def write_trajectory_json(traj: Trajectory, summary: dict, path):
    """The summary and the trajectory as JSON; checked as in the CSV writer.

    The bytes are those of ``json.dump(doc, fh, indent=1)`` plus a newline.
    """
    columns = _checked_columns(traj)
    head = json.dumps({"schema_version": CSV_SCHEMA_VERSION, "summary": summary},
                      indent=1)
    with open(path, "w") as fh:
        fh.write(head[:-len("\n}")] + ',\n "records": [')
        for i, text in enumerate(_formatted_chunks(columns, _JSON_RECORD, ",\n")):
            for old, new in _JSON_NON_FINITE:
                text = text.replace(old, new)
            fh.write((",\n" if i else "\n") + text)
        fh.write("\n ]\n}\n" if len(columns[0]) else "]\n}\n")
