"""Distinguishability trajectories, revival quantification and the
information-backflow bound.

A revival of the distinguishability between two evolved system states
signals information returning from the environment.  Revivals are
quantified by summing positive increments along the series (discrete BLP
construction) and every revival is bounded by environment-state change
plus the two system-environment correlation terms, which ``bound_terms``
reads at every collision index from the record of the full-state oracle
backend; ``bound_findings`` reduces the (s, t) family of bounds with arrays.

The search for the most non-Markovian pair sets the collision loop up
once, propagates each row of its Bloch grid (one value of cos theta) as a
single stack, so every pair shares the channel realization, and scores
all pairs of the row from one stacked distance series.  It computes no
ledger: the BLP sum reads the system states alone, so its only check is
the propagation's own, of each carried state as it is stored, for
finiteness and the eigenvalue floor; the accounting's checks of every
collision are not run.
"""

from __future__ import annotations

import math

import numpy as np

from . import qstate
from .engine import CollisionConfig, Trajectory, _snapshot_stacks
from .errors import ConfigError, check_kind

REVIVAL_THRESHOLD = 1e-10  # increments below this are rounding noise


def distinguishability_series(traj_a: Trajectory, traj_b: Trajectory) -> np.ndarray:
    """Pointwise ``pair_metric`` between the system snapshots of two
    trajectories, one entry per snapshot (index 0 = initial states)."""
    return qstate.state_distance(traj_a.snapshots, traj_b.snapshots,
                                 traj_a.config.pair_metric, traj_a.config.log_base)


def _series(series, ranks=(1,), name="series") -> np.ndarray:
    """``series`` as an array, rejected unless it is non-empty, of a rank in
    ``ranks``, and its entries are finite real numbers."""
    series = check_kind(name, np.asarray(series), "matrix")
    if series.ndim not in ranks or not series.size or np.iscomplexobj(series) \
            or not np.isfinite(series).all():
        raise ConfigError(f"{name} must be a non-empty array of finite real numbers of "
                          f"rank {' or '.join(map(str, ranks))}, got {series!r}")
    return series


def blp_measure(series):
    """Sum of the increments above ``REVIVAL_THRESHOLD`` of a series.

    A 2-D array holds one series per column and gives one sum per column.
    """
    series = _series(series, (1, 2))
    if len(series) < 2:
        raise ConfigError("series needs at least two points")
    inc = np.diff(series, axis=0)
    total = np.where(inc > REVIVAL_THRESHOLD, inc, 0.0).sum(axis=0)
    return float(total) if np.ndim(total) == 0 else total


def first_revival_step(series) -> int | None:
    """Index n of the first revival series[n] -> series[n+1], or None."""
    idx = np.nonzero(np.diff(_series(series)) > REVIVAL_THRESHOLD)[0]
    return int(idx[0]) if idx.size else None


def antipodal_pair(theta: float, phi: float):
    """Pure qubit state at (theta, phi) and its Bloch antipode."""
    return (qstate.bloch_state(theta, phi),
            qstate.bloch_state(math.pi - theta, phi + math.pi))


def blp_optimize_pairs(cfg: CollisionConfig, metric: str | None = None,
                       grid_resolution: int = 12):
    """Maximize the BLP sum over antipodal pure-state pairs on a Bloch grid.

    Pairs are scored in ``cfg.pair_metric``; a ``metric`` given as well
    must name the same one.

    The grid is uniform in (cos theta, phi) to avoid pole clustering;
    resolution 1 degenerates to exactly the (|0>, |1>) pair.  The scan
    validates ``cfg`` and builds its unitaries and maps once; each row of
    the grid then runs as one stack: its 2 res states followed by their
    antipodes.  No ledger is computed.  The propagation checks each
    carried state once as it stores it, for finiteness and the eigenvalue
    floor; that is weaker than the per-collision checks of an accounted
    run, and covers all the scan reads.  Pairs are visited row by row and
    a pair replaces the best only when it scores strictly higher.
    Returns ((rho_a, rho_b), value).
    """
    if cfg.system_dim != 2:
        raise ConfigError("BLP pair optimization supports qubit systems only")
    if metric not in (None, cfg.pair_metric):
        raise ConfigError(f"metric {metric!r} disagrees with the configuration's "
                          f"pair_metric {cfg.pair_metric!r}")
    check_kind("grid_resolution", grid_resolution, "integer", 1)
    if grid_resolution == 1:
        u_vals, phi_vals = [1.0], [0.0]
    else:
        u_vals = np.linspace(1.0, 0.0, grid_resolution)  # antipodal pairs: u >= 0 suffices
        phi_vals = np.linspace(0.0, 2 * math.pi, 2 * grid_resolution, endpoint=False)
    rows = [[antipodal_pair(math.acos(u), phi) for phi in phi_vals] for u in u_vals]
    half = len(phi_vals)
    stacks = [[a for a, _ in pairs] + [b for _, b in pairs] for pairs in rows]
    best, best_pair = -1.0, None
    for pairs, snapshots in zip(rows, _snapshot_stacks(cfg, stacks)):
        series = qstate.state_distance(snapshots[:, :half], snapshots[:, half:],
                                       cfg.pair_metric, cfg.log_base)
        for pair, val in zip(pairs, blp_measure(series).tolist()):
            if val > best:
                best, best_pair = val, pair
    return best_pair, best


def bound_terms(traj_a: Trajectory, traj_b: Trajectory) -> np.ndarray:
    """The environment term (the distance of the two recorded environment
    states) and the two recorded correlation terms of the bound, in the pair's
    metric, at every collision index of a full-backend pair, as an
    (n_steps + 1, 3) array; row 0 is zero, since no unit has collided yet."""
    if traj_a.env_states is None or traj_b.env_states is None:
        raise ConfigError("bound terms need the full-backend environment states")
    for key in ("pair_metric", "log_base", "n_steps"):
        a, b = getattr(traj_a.config, key), getattr(traj_b.config, key)
        if a != b:
            raise ConfigError(f"bound terms need one {key} for both runs, got {a!r} and {b!r}")
    metric, base = traj_a.config.pair_metric, traj_a.config.log_base
    terms = np.zeros((len(traj_a.env_states) + 1, 3))
    terms[1:, 0] = [qstate.state_distance(env_a, env_b, metric, base)
                    for env_a, env_b in zip(traj_a.env_states, traj_b.env_states)]
    terms[1:, 1], terms[1:, 2] = traj_a.correlations, traj_b.correlations
    return terms


def bound_findings(dist, terms) -> dict:
    """The smallest slack, the tightest genuine revival and the largest revival
    of the exhaustive (s, t) bound family, t >= s, of a pair's series ``dist``
    and ``bound_terms``: each member bounds lhs = dist[t] - dist[s] by the
    terms at s, with slack their sum minus lhs.  A genuine revival has s >= 1
    and lhs above ``REVIVAL_THRESHOLD`` (so t > s); the rest of the family is
    tight by construction (t = s has lhs = 0, s = 0 has all terms 0).  Members
    run s-major and the first wins a tie; no genuine revival gives None."""
    dist, terms = _series(dist, name="dist"), _series(terms, (2,), "terms")
    if terms.shape != (len(dist), 3):
        raise ConfigError(f"terms must have shape ({len(dist)}, 3) for a series of "
                          f"{len(dist)} points, got {terms.shape}")
    s, t = np.triu_indices(len(dist))
    lhs = dist[t] - dist[s]
    slack = terms[s, 0] + terms[s, 1] + terms[s, 2] - lhs
    revivals = np.flatnonzero((s >= 1) & (lhs > REVIVAL_THRESHOLD))
    tightest = None
    if revivals.size:
        i = revivals[np.argmin(slack[revivals])]
        tightest = {"slack": float(slack[i]), "s": int(s[i]), "t": int(t[i]),
                    "lhs": float(lhs[i]), **dict(zip(
                        ("rhs_env", "rhs_corr_rho", "rhs_corr_sigma"), terms[s[i]].tolist()))}
    return {"min_bound_slack": float(slack[np.argmin(slack)]),
            "min_revival_slack": tightest,
            "max_revival_lhs": float(lhs[np.argmax(lhs)])}
