"""Thermodynamic accounting over collision trajectories.

The engine computes the per-collision ledger; this module reads its
columns.  Sign conventions, used everywhere: Q > 0 is heat flowing into the
colliding unit (dissipated); W > 0 is work injected into system plus
unit by switching the interaction on and off, so the first law reads
dE_S = W - Q per collision.  Entropies are in the configured log base;
beta * Q terms are converted to the same base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, qstate
from .engine import Trajectory
from .errors import ConfigError, NotConvergedError

STEADY_WINDOW = 50
STEADY_DRIFT = 1e-8


@dataclass
class DetailedBalanceReport:
    local_db: float               # ||[H_S + H_E, V]||; zero iff local detailed balance
    inverted_db: float            # ||[H_S - H_E, V]||; zero for the battery interaction
    global_db: float | None = None  # ||[H_I, V]|| when an intersystem H_I is supplied


def detailed_balance_report(h_s: np.ndarray, h_anc: np.ndarray, v: np.ndarray,
                            h_int: np.ndarray | None = None) -> DetailedBalanceReport:
    """Commutator diagnostics for local/inverted/global detailed balance."""
    d_s, d_a = h_s.shape[0], h_anc.shape[0]
    plus = linalg.kron(h_s, np.eye(d_a)) + linalg.kron(np.eye(d_s), h_anc)
    minus = linalg.kron(h_s, np.eye(d_a)) - linalg.kron(np.eye(d_s), h_anc)
    glob = None
    if h_int is not None:
        glob = linalg.commutator_norm(linalg.kron(h_int, np.eye(d_a)), v)
    return DetailedBalanceReport(
        local_db=linalg.commutator_norm(plus, v),
        inverted_db=linalg.commutator_norm(minus, v),
        global_db=glob)


@dataclass
class ThermoLedger:
    """Per-step and cumulative thermodynamic series for a trajectory."""
    step: np.ndarray
    E_S: np.ndarray           # system energy after each collision
    dE_S: np.ndarray
    Q_resource: np.ndarray
    Q_bath: np.ndarray
    W: np.ndarray
    S_S: np.ndarray
    S_anc: np.ndarray
    dS_S: np.ndarray
    dS_anc: np.ndarray
    I_SE: np.ndarray
    Sigma: np.ndarray
    D_env_relent: np.ndarray
    D_pair: np.ndarray

    @property
    def Q_total(self) -> np.ndarray:
        return self.Q_resource + self.Q_bath

    @property
    def first_law_residual(self) -> np.ndarray:
        return self.dE_S - (self.W - self.Q_total)

    def cumulative(self, name: str) -> np.ndarray:
        return np.cumsum(getattr(self, name))


def build_ledger(traj: Trajectory) -> ThermoLedger:
    led = traj.ledger
    q = led["Q"]
    is_bath = np.array([st.role == "bath" for st in traj.config.streams])[
        traj.config.stream_index()]
    return ThermoLedger(
        step=np.arange(len(q)),
        E_S=led["E_S_post"],
        dE_S=led["E_S_post"] - led["E_S_pre"],
        Q_resource=np.where(is_bath, 0.0, q),
        Q_bath=np.where(is_bath, q, 0.0),
        W=led["W"],
        S_S=led["S_S_post"],
        S_anc=led["S_anc_post"],
        dS_S=led["S_S_post"] - led["S_S_pre"],
        dS_anc=led["S_anc_post"] - led["S_anc_pre"],
        I_SE=led["I_SE"],
        Sigma=led["Sigma"],
        D_env_relent=led["D_env_relent"],
        D_pair=led.get("D_pair", np.full(len(q), math.nan)),
    )


def _check_window(window) -> None:
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window < 1:
        raise ConfigError(f"window must be an integer >= 1, got {window!r}")


def steady_state_drift(traj: Trajectory, window: int = STEADY_WINDOW) -> float:
    """Largest trace distance between successive system snapshots in the window."""
    _check_window(window)
    if traj.snapshots is None or len(traj.snapshots) < window + 1:
        raise ConfigError("trajectory too short (or missing snapshots) for the window")
    tail = traj.snapshots[-(window + 1):]
    return float(np.max(qstate.trace_distance(tail[:-1], tail[1:])))


@dataclass
class FluxReport:
    Q_rate: float
    W_rate: float
    converged: bool
    drift: float


def steady_state_fluxes(traj: Trajectory, window: int = STEADY_WINDOW,
                        tol: float = STEADY_DRIFT) -> FluxReport:
    """Windowed per-collision averages of heat and work near the end of a run."""
    _check_window(window)
    q, w = traj.ledger["Q"], traj.ledger["W"]
    if len(q) < 2 * window:
        raise ConfigError("trajectory too short for two flux windows")
    q1, w1 = q[-window:].mean(), w[-window:].mean()
    q0, w0 = q[-2 * window:-window].mean(), w[-2 * window:-window].mean()
    drift = max(abs(q1 - q0), abs(w1 - w0))
    return FluxReport(Q_rate=float(q1), W_rate=float(w1),
                      converged=bool(drift < tol), drift=float(drift))


@dataclass
class LandauerReport:
    """Per-collision averages at steady state, configured log base throughout."""
    beta_Q: float        # beta * heat into the unit, in entropy units
    dS_anc: float
    I_SE: float
    D_relent: float
    dS_S: float
    residual: float      # beta_Q + dS_S - I_SE - D_relent; ~0 for thermal units

    @property
    def landauer_gap(self) -> float:
        """beta_Q - dS_anc >= 0 is the Landauer inequality."""
        return self.beta_Q - self.dS_anc


def landauer_report(traj: Trajectory, window: int = STEADY_WINDOW,
                    tol: float = STEADY_DRIFT) -> LandauerReport:
    """Landauer accounting over the final ``window`` collisions.

    Requires a converged steady state; the exact identity
    beta Q = -dS_S + I_SE + S(rho'_E || rho_E) for thermal units reduces
    to beta Q = I_SE + D_relent once dS_S ~ 0.
    """
    drift = steady_state_drift(traj, window)
    if drift >= tol:
        raise NotConvergedError(
            f"steady state not reached: snapshot drift {drift:.3g} >= {tol:g}",
            drift=drift)
    base = traj.config.log_base
    led = build_ledger(traj)
    # None (a stream that is not thermal) becomes nan
    beta = np.array([st.beta for st in traj.config.streams], dtype=float)[
        traj.config.stream_index()[-window:]]
    if np.isnan(beta).any():
        raise ConfigError("Landauer accounting needs thermal ancilla streams")
    beta_q = float(np.mean(beta * traj.ledger["Q"][-window:] / math.log(base)))
    ds_anc = float(np.mean(led.dS_anc[-window:]))
    i_se = float(np.mean(led.I_SE[-window:]))
    d_rel = float(np.mean(led.D_env_relent[-window:]))
    ds_s = float(np.mean(led.dS_S[-window:]))
    return LandauerReport(beta_Q=beta_q, dS_anc=ds_anc, I_SE=i_se, D_relent=d_rel,
                         dS_S=ds_s, residual=beta_q + ds_s - i_se - d_rel)
