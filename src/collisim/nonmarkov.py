"""Distinguishability trajectories, revival quantification and the
information-backflow bound.

A revival of the distinguishability between two evolved system states
signals information returning from the environment.  Revivals are
quantified by summing positive increments along the series (discrete BLP
construction) and every revival is bounded by environment-state change
plus the two system-environment correlation terms, which ``bound_terms``
evaluates at every collision index on the full-state oracle backend.

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


def distinguishability_series(traj_a: Trajectory, traj_b: Trajectory,
                              metric: str = "trace") -> np.ndarray:
    """Pointwise metric between the system snapshots of two trajectories,
    one entry per snapshot (index 0 = initial states)."""
    return qstate.state_distance(traj_a.snapshots, traj_b.snapshots, metric,
                                 traj_a.config.log_base)


def blp_measure(series, threshold: float = REVIVAL_THRESHOLD):
    """Sum of positive increments of a distinguishability series.

    A 2-D array holds one series per column and gives one sum per column.
    """
    if len(series) < 2:
        raise ConfigError("series needs at least two points")
    inc = np.diff(series, axis=0)
    total = np.where(inc > threshold, inc, 0.0).sum(axis=0)
    return float(total) if np.ndim(total) == 0 else total


def first_revival_step(series, threshold: float = REVIVAL_THRESHOLD) -> int | None:
    """Index n of the first increase series[n] -> series[n+1], or None."""
    idx = np.nonzero(np.diff(series) > threshold)[0]
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


def bound_terms(traj_a: Trajectory, traj_b: Trajectory,
                metric: str = "trace") -> np.ndarray:
    """The environment term and the two correlation terms of the bound at
    every collision index of a full-backend pair, as an (n_steps + 1, 3)
    array; row 0 is zero, since no unit has collided yet."""
    if traj_a.joint_snapshots is None or traj_b.joint_snapshots is None:
        raise ConfigError("bound terms need full-backend joint snapshots")
    base = traj_a.config.log_base
    terms = np.zeros((len(traj_a.joint_snapshots), 3))
    for s in range(1, len(terms)):
        dims = traj_a.joint_dims(s)
        joints = traj_a.joint_snapshots[s], traj_b.joint_snapshots[s]
        envs = [linalg.partial_trace(joint, dims, range(1, len(dims))) for joint in joints]
        terms[s, 0] = qstate.state_distance(*envs, metric, base)
        for i, (joint, env) in enumerate(zip(joints, envs), 1):
            # the product state stays unnamed: one member's copy at a time
            terms[s, i] = qstate.state_distance(
                joint, linalg.kron(linalg.partial_trace(joint, dims, [0]), env),
                metric, base)
    return terms


def precursor_series(cfg: CollisionConfig, init_a, init_b, metric: str = "trace"):
    """The three right-hand-side terms of the bound at every collision index
    of a full-backend pair: (env_term, corr_rho, corr_sigma), each n_steps + 1 long."""
    terms = bound_terms(*run_paired(replace(cfg, backend="full"), init_a, init_b), metric)
    return terms[:, 0], terms[:, 1], terms[:, 2]


def all_pair_bound_reports(traj_a: Trajectory, traj_b: Trajectory,
                           metric: str = "trace") -> list[BoundReport]:
    """Exhaustive (s, t) bound family, t >= s, over a completed full-backend pair."""
    terms = bound_terms(traj_a, traj_b, metric).tolist()
    dist = distinguishability_series(traj_a, traj_b, metric).tolist()
    return [BoundReport(s, t, dist[t] - dist[s], *terms[s])
            for s in range(len(dist)) for t in range(s, len(dist))]
