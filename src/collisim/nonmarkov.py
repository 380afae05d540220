"""Distinguishability trajectories, revival quantification and the
information-backflow bound.

A revival of the distinguishability between two evolved system states
signals information returning from the environment.  Revivals are
quantified by summing positive increments along the series (discrete BLP
construction) and every revival is bounded by environment-state change
plus the two system-environment correlation terms, evaluated here on the
full-state oracle backend.

The search for the most non-Markovian pair propagates each row of its
Bloch grid (one value of cos theta) as a single stack through the
collision loop, so every pair shares the channel realization, and scores
all pairs of the row from one stacked distance series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, qstate
from .engine import CollisionConfig, Trajectory, run_paired, run_stack
from .errors import ConfigError

REVIVAL_THRESHOLD = 1e-10  # increments below this are rounding noise


@dataclass
class DistinguishabilitySeries:
    metric: str
    values: np.ndarray  # one entry per snapshot, index 0 = initial states


def distinguishability_series(traj_a: Trajectory, traj_b: Trajectory,
                              metric: str = "trace") -> DistinguishabilitySeries:
    """Pointwise metric between the system snapshots of two trajectories."""
    if traj_a.snapshots is None or traj_b.snapshots is None:
        raise ConfigError("paired trajectories must retain snapshots")
    vals = qstate.state_distance(traj_a.snapshots, traj_b.snapshots, metric,
                                 traj_a.config.log_base)
    return DistinguishabilitySeries(metric=metric, values=vals)


def blp_measure(series, threshold: float = REVIVAL_THRESHOLD):
    """Sum of positive increments of a distinguishability series.

    A 2-D array holds one series per column and gives one sum per column.
    """
    vals = series.values if isinstance(series, DistinguishabilitySeries) else np.asarray(series)
    if len(vals) < 2:
        raise ConfigError("series needs at least two points")
    inc = np.diff(vals, axis=0)
    total = np.where(inc > threshold, inc, 0.0).sum(axis=0)
    return float(total) if np.ndim(total) == 0 else total


def first_revival_step(series, threshold: float = REVIVAL_THRESHOLD) -> int | None:
    """Index n of the first increase values[n] -> values[n+1], or None."""
    vals = series.values if isinstance(series, DistinguishabilitySeries) else np.asarray(series)
    idx = np.nonzero(np.diff(vals) > threshold)[0]
    return int(idx[0]) if idx.size else None


def antipodal_pair(theta: float, phi: float):
    """Pure qubit state at (theta, phi) and its Bloch antipode."""
    return (qstate.bloch_state(theta, phi),
            qstate.bloch_state(math.pi - theta, phi + math.pi))


def blp_optimize_pairs(cfg: CollisionConfig, metric: str = "trace",
                       grid_resolution: int = 12):
    """Maximize the BLP sum over antipodal pure-state pairs on a Bloch grid.

    The grid is uniform in (cos theta, phi) to avoid pole clustering;
    resolution 1 degenerates to exactly the (|0>, |1>) pair.  Each row of
    the grid runs as one stack: its 2 res states followed by their
    antipodes.  Pairs are visited row by row and a pair replaces the best
    only when it scores strictly higher.
    Returns ((rho_a, rho_b), value).
    """
    if cfg.system_dim != 2:
        raise ConfigError("BLP pair optimization supports qubit systems only")
    if grid_resolution == 1:
        u_vals, phi_vals = [1.0], [0.0]
    else:
        u_vals = np.linspace(1.0, 0.0, grid_resolution)  # antipodal pairs: u >= 0 suffices
        phi_vals = np.linspace(0.0, 2 * math.pi, 2 * grid_resolution, endpoint=False)
    cfg = replace(cfg, keep_snapshots=True)
    best, best_pair = -1.0, None
    for u in u_vals:
        pairs = [antipodal_pair(math.acos(u), phi) for phi in phi_vals]
        stack = run_stack(cfg, [a for a, _ in pairs] + [b for _, b in pairs])
        half = len(pairs)
        series = qstate.state_distance(stack.snapshots[:, :half], stack.snapshots[:, half:],
                                       metric, cfg.log_base)
        for pair, val in zip(pairs, blp_measure(series).tolist()):
            if val > best:
                best, best_pair = val, pair
    return best_pair, best


@dataclass
class BoundReport:
    """One instance of the information-backflow inequality."""
    s: int
    t: int
    lhs: float            # revival D(t) - D(s)
    rhs_env: float        # environment-state distinguishability at s
    rhs_corr_rho: float   # correlation term of the first trajectory at s
    rhs_corr_sigma: float  # correlation term of the second trajectory at s

    @property
    def slack(self) -> float:
        return self.rhs_env + self.rhs_corr_rho + self.rhs_corr_sigma - self.lhs


def _full_paired(cfg: CollisionConfig, init_a, init_b):
    cfg = replace(cfg, backend="full", keep_snapshots=True, keep_joint_snapshots=True)
    return run_paired(cfg, init_a, init_b)


def _bound_terms(traj_a: Trajectory, traj_b: Trajectory, s: int, metric: str):
    """Environment and correlation terms of the bound at collision index s."""
    base = traj_a.config.log_base
    if s == 0:
        return 0.0, 0.0, 0.0  # no unit has collided; environment is common and fixed
    dims = traj_a.joint_dims(s)
    n = len(dims)
    env_a = linalg.partial_trace(traj_a.joint_snapshots[s], dims, range(1, n))
    env_b = linalg.partial_trace(traj_b.joint_snapshots[s], dims, range(1, n))
    rhs_env = qstate.state_distance(env_a, env_b, metric, base)
    corr = []
    for traj, env in ((traj_a, env_a), (traj_b, env_b)):
        joint = traj.joint_snapshots[s]
        sys = linalg.partial_trace(joint, dims, [0])
        corr.append(qstate.state_distance(joint, linalg.kron(sys, env), metric, base))
    return rhs_env, corr[0], corr[1]


def bound_report_from_pair(traj_a: Trajectory, traj_b: Trajectory, s: int, t: int,
                           metric: str = "trace") -> BoundReport:
    if t < s:
        raise ConfigError("bound report needs t >= s")
    if traj_a.joint_snapshots is None:
        raise ConfigError("bound report needs full-backend joint snapshots")
    dist = distinguishability_series(traj_a, traj_b, metric).values
    rhs_env, corr_a, corr_b = _bound_terms(traj_a, traj_b, s, metric)
    return BoundReport(s=s, t=t, lhs=float(dist[t] - dist[s]), rhs_env=rhs_env,
                       rhs_corr_rho=corr_a, rhs_corr_sigma=corr_b)


def revival_bound_report(cfg: CollisionConfig, init_a, init_b, s: int, t: int,
                         metric: str = "trace") -> BoundReport:
    """Run paired full-backend trajectories and evaluate the bound at (s, t)."""
    traj_a, traj_b = _full_paired(cfg, init_a, init_b)
    return bound_report_from_pair(traj_a, traj_b, s, t, metric)


def precursor_series(cfg: CollisionConfig, init_a, init_b, metric: str = "trace"):
    """The three right-hand-side terms of the bound at every collision index.

    Returns (env_term, corr_rho, corr_sigma) arrays of length n_steps + 1.
    """
    traj_a, traj_b = _full_paired(cfg, init_a, init_b)
    terms = np.array([_bound_terms(traj_a, traj_b, s, metric)
                      for s in range(cfg.n_steps + 1)])
    return terms[:, 0], terms[:, 1], terms[:, 2]


def all_pair_bound_reports(traj_a: Trajectory, traj_b: Trajectory,
                           metric: str = "trace") -> list[BoundReport]:
    """Exhaustive (s, t) bound family over a completed full-backend pair."""
    dist = distinguishability_series(traj_a, traj_b, metric).values.tolist()
    reports = []
    for s, d_s in enumerate(dist):
        rhs = _bound_terms(traj_a, traj_b, s, metric)
        for t in range(s, len(dist)):
            reports.append(BoundReport(s=s, t=t, lhs=dist[t] - d_s, rhs_env=rhs[0],
                                       rhs_corr_rho=rhs[1], rhs_corr_sigma=rhs[2]))
    return reports
