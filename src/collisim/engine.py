"""Collision-model stepper.

Advances a system through sequential unitary collisions with a stream of
fresh environmental units, optionally with ancilla-ancilla collisions
(stochastic partial SWAP, coherent or incoherent) and partial erasure of
the correlations left behind by each collision.

One stepping loop serves both backends, which differ only in what they
retain after each step: ``windowed`` traces down to the system (or to the
system plus the fresh unit when ancilla-ancilla collisions are on), so it
carries at most the system and two live ancillas; ``full`` keeps every
ancilla in one joint state and serves as the exact small-instance oracle.

Step ordering: append fresh unit, ancilla-ancilla collision between the
carried and fresh unit, system-fresh collision, erasure, integrity check,
retention.  Every collision is a local gate: its two-site unitary is
contracted into the joint state's factors (``linalg.conjugate`` with
targets), never lifted to the whole space.  The integrity check tests
the eigenvalue floor with a Cholesky factorization and computes the
spectrum only when that fails.  Incoherent ancilla-ancilla swaps consume
exactly one RNG coin per step so paired runs can share a channel
realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, qstate
from .errors import ConfigError, IntegrityError

PSD_ABORT = -1e-8   # eigenvalue floor beyond which a run aborts
AA_MODES = ("off", "coherent", "incoherent")


def swap_unitary(dim: int) -> np.ndarray:
    """SWAP on two ``dim``-dimensional factors."""
    d2 = dim * dim
    return np.eye(d2, dtype=complex).reshape(dim, dim, dim, dim) \
        .transpose(1, 0, 2, 3).reshape(d2, d2)


def partial_swap_unitary(dim: int, theta: float) -> np.ndarray:
    """cos(theta) I + i sin(theta) SWAP on two ``dim``-dimensional factors."""
    if dim < 2:
        raise ConfigError("partial swap needs dim >= 2")
    d2 = dim * dim
    return math.cos(theta) * np.eye(d2, dtype=complex) \
        + 1j * math.sin(theta) * swap_unitary(dim)


def partial_swap_interaction(dim: int) -> np.ndarray:
    """Hermitian generator V with exp(-i g V tau) = partial swap at theta = g tau."""
    return -swap_unitary(dim)


@dataclass
class AncillaStream:
    """One stream of identical environmental units."""
    dim: int
    hamiltonian: np.ndarray
    init_state: np.ndarray
    role: str = "resource"          # "resource" or "bath"
    beta: float | None = None       # set iff init_state is thermal

    def validate(self):
        if self.role not in ("resource", "bath"):
            raise ConfigError(f"unknown stream role {self.role!r}")
        if self.hamiltonian.shape != (self.dim, self.dim):
            raise ConfigError("stream Hamiltonian dimension mismatch")
        qstate.validate_density_matrix(self.init_state)
        if self.init_state.shape != (self.dim, self.dim):
            raise ConfigError("stream init_state dimension mismatch")
        if self.beta is not None:
            th = qstate.thermal_state(self.hamiltonian, self.beta)
            if np.max(np.abs(th - self.init_state)) > 1e-10:
                raise ConfigError("stream beta does not match init_state")


@dataclass
class CollisionConfig:
    """Full description of one collision-model experiment."""
    system_dim: int
    system_hamiltonian: np.ndarray
    system_init: np.ndarray
    streams: list[AncillaStream]
    interactions: list[np.ndarray]   # Hermitian V per stream, on S (x) E
    tau: float = 1.0
    coupling: float = 1.0            # g; total H during a collision is H_S + H_E + g V
    n_steps: int = 1
    aa_swap_prob: float = 0.0
    aa_mode: str = "off"
    aa_theta: float = math.pi / 2    # partial-swap angle of the AA collision
    erasure_lambda: float = 1.0
    rng_seed: int = 0
    backend: str = "windowed"
    full_factor_cap: int = 10        # full backend joint dim <= 2**cap
    log_base: float = 2.0
    pair_metric: str = "trace"
    keep_snapshots: bool = True
    keep_joint_snapshots: bool = False

    def validate(self):
        finite = {"system_hamiltonian": self.system_hamiltonian,
                  "system_init": self.system_init, "tau": self.tau,
                  "coupling": self.coupling, "aa_theta": self.aa_theta}
        for i, st in enumerate(self.streams):
            finite[f"streams[{i}].hamiltonian"] = st.hamiltonian
            finite[f"streams[{i}].init_state"] = st.init_state
        for i, v in enumerate(self.interactions):
            finite[f"interactions[{i}]"] = v
        for name, value in finite.items():
            if not np.all(np.isfinite(value)):
                raise ConfigError(f"{name} has non-finite entries")
        qstate.validate_density_matrix(self.system_init)
        if self.system_init.shape != (self.system_dim, self.system_dim):
            raise ConfigError("system_init dimension mismatch")
        if self.system_hamiltonian.shape != (self.system_dim, self.system_dim):
            raise ConfigError("system Hamiltonian dimension mismatch")
        if not self.streams:
            raise ConfigError("at least one ancilla stream is required")
        if len(self.interactions) != len(self.streams):
            raise ConfigError("one interaction matrix per stream is required")
        for st, v in zip(self.streams, self.interactions):
            st.validate()
            d = self.system_dim * st.dim
            if v.shape != (d, d):
                raise ConfigError(f"interaction shape {v.shape} != ({d}, {d})")
            if not linalg.is_hermitian(v):
                raise ConfigError("interaction matrix is not Hermitian")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if not 0.0 <= self.aa_swap_prob <= 1.0:
            raise ConfigError("aa_swap_prob must lie in [0, 1]")
        if not 0.0 <= self.erasure_lambda <= 1.0:
            raise ConfigError("erasure_lambda must lie in [0, 1]")
        if self.aa_mode not in AA_MODES:
            raise ConfigError(f"aa_mode must be one of {AA_MODES}")
        if self.aa_mode != "off" and len(self.streams) > 1:
            raise ConfigError("ancilla-ancilla collisions need a single stream")
        if self.backend not in ("windowed", "full"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == "full":
            dim = self.system_dim
            for k in range(self.n_steps):
                dim *= self.streams[k % len(self.streams)].dim
            if dim > 2 ** self.full_factor_cap:
                raise ConfigError(
                    f"full backend joint dimension {dim} exceeds cap "
                    f"{2 ** self.full_factor_cap}")

    def stream_for_step(self, step: int) -> tuple[int, AncillaStream]:
        i = step % len(self.streams)
        return i, self.streams[i]


@dataclass
class CollisionRecord:
    """Per-collision ledger entry."""
    step: int
    stream: int
    role: str
    E_S_pre: float
    E_S_post: float
    E_anc_pre: float
    E_anc_post: float
    Q: float                 # heat into the colliding unit
    W: float                 # switching work injected into S+E
    S_S_pre: float
    S_S_post: float
    S_anc_pre: float
    S_anc_post: float
    I_SE: float              # mutual information S : colliding unit, after the step
    Sigma: float             # per-collision entropy production
    D_env_relent: float      # S(unit after || unit before), nats / configured base
    D_pair: float | None = None

    @property
    def dE_S(self) -> float:
        return self.E_S_post - self.E_S_pre

    @property
    def dS_S(self) -> float:
        return self.S_S_post - self.S_S_pre

    @property
    def dS_anc(self) -> float:
        return self.S_anc_post - self.S_anc_pre


@dataclass
class Trajectory:
    """Ordered collision records plus per-step system snapshots."""
    config: CollisionConfig
    records: list[CollisionRecord]
    snapshots: list[np.ndarray] | None = None       # len n_steps + 1
    final_joint: np.ndarray | None = None           # full backend only
    joint_snapshots: list[np.ndarray] | None = None  # full backend, len n_steps + 1
    anc_dims: list[int] = field(default_factory=list)  # ancilla dim per step

    def joint_dims(self, step: int) -> list[int]:
        """Factor dimensions of the joint snapshot after ``step`` collisions."""
        return [self.config.system_dim] + self.anc_dims[:step]


def collision_unitary(cfg: CollisionConfig, stream: int) -> np.ndarray:
    """exp(-i (H_S + H_E + g V) tau) on the system (x) unit space."""
    st = cfg.streams[stream]
    h = linalg.kron(cfg.system_hamiltonian, np.eye(st.dim)) \
        + linalg.kron(np.eye(cfg.system_dim), st.hamiltonian) \
        + cfg.coupling * cfg.interactions[stream]
    return linalg.unitary_from_hamiltonian(h, cfg.tau)


def erase_correlations(joint: np.ndarray, dims: list[int], lam: float,
                       split: int | None = None) -> np.ndarray:
    """lam * rho + (1 - lam) * rho_A (x) rho_B across dims[:split] | dims[split:]."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("erasure lambda must lie in [0, 1]")
    if lam == 1.0:
        return joint
    n = len(dims)
    if split is None:
        split = n - 1
    rho_a = linalg.partial_trace(joint, dims, range(split))
    rho_b = linalg.partial_trace(joint, dims, range(split, n))
    return lam * joint + (1.0 - lam) * linalg.kron(rho_a, rho_b)


def apply_aa_collision(joint: np.ndarray, dims: list[int], targets: list[int],
                       p: float, mode: str, theta: float = math.pi / 2,
                       coin: float | None = None) -> np.ndarray:
    """Stochastic (partial) SWAP between two ancilla factors.

    Incoherent mode applies the swap unitary when ``coin`` < p; coherent
    mode applies the mixing channel p S rho S† + (1-p) rho deterministically.
    """
    if mode == "off" or p == 0.0:
        return joint
    if mode not in AA_MODES:
        raise ConfigError(f"unknown aa mode {mode!r}")
    d = dims[targets[0]]
    if dims[targets[1]] != d:
        raise ConfigError("ancilla-ancilla collision needs equal dims")
    u = partial_swap_unitary(d, theta)
    if mode == "incoherent":
        if coin is None:
            raise ConfigError("incoherent aa collision needs a coin")
        return linalg.conjugate(u, joint, dims, targets) if coin < p else joint
    return p * linalg.conjugate(u, joint, dims, targets) + (1.0 - p) * joint


def system_channel(cfg: CollisionConfig, stream: int = 0):
    """The CPTP map of a single Markovian collision on the system."""
    st = cfg.streams[stream]
    u = collision_unitary(cfg, stream)
    dims = [cfg.system_dim, st.dim]

    def channel(rho_s: np.ndarray) -> np.ndarray:
        joint = linalg.conjugate(u, linalg.kron(rho_s, st.init_state))
        return linalg.partial_trace(joint, dims, [0])

    return channel


def _expect(h: np.ndarray, rho: np.ndarray) -> float:
    return float(np.trace(h @ rho).real)


def _integrity(joint: np.ndarray, step: int) -> np.ndarray:
    """Hermitize, check the eigenvalue floor, renormalize the trace.

    The Cholesky factorization of joint - PSD_ABORT I exists exactly when
    the smallest eigenvalue exceeds PSD_ABORT; only when it fails is the
    spectrum computed, so rounding at the boundary never aborts a run.
    """
    joint = linalg.hermitize(joint)
    if not np.all(np.isfinite(joint)):
        raise IntegrityError(f"state has non-finite entries at step {step}")
    try:
        np.linalg.cholesky(joint - PSD_ABORT * np.eye(len(joint)))
    except np.linalg.LinAlgError:
        vals = np.linalg.eigvalsh(joint)
        if vals[0] < PSD_ABORT:
            raise IntegrityError(
                f"state lost positivity at step {step}: "
                f"min eigenvalue {vals[0]:.3g}") from None
    return joint / np.trace(joint).real


class _Runner:
    """The stepping loop shared by both backends."""

    def __init__(self, cfg: CollisionConfig, coins: np.ndarray | None = None):
        cfg.validate()
        self.cfg = cfg
        self.unitaries = [collision_unitary(cfg, i) for i in range(len(cfg.streams))]
        if coins is not None:
            self.coins = coins
        elif cfg.aa_mode == "incoherent":
            self.coins = np.random.default_rng(cfg.rng_seed).random(cfg.n_steps)
        else:
            self.coins = np.zeros(cfg.n_steps)

    def _record(self, step, stream_idx, st, pre_s, pre_e, post_s, post_e,
                i_se, aa_active):
        cfg = self.cfg
        base = cfg.log_base
        e_s_pre = _expect(cfg.system_hamiltonian, pre_s)
        e_s_post = _expect(cfg.system_hamiltonian, post_s)
        e_a_pre = _expect(st.hamiltonian, pre_e)
        e_a_post = _expect(st.hamiltonian, post_e)
        q = e_a_post - e_a_pre
        w = (e_s_post - e_s_pre) + q
        s_s_pre = qstate.von_neumann_entropy(pre_s, base)
        s_s_post = qstate.von_neumann_entropy(post_s, base)
        s_a_pre = qstate.von_neumann_entropy(pre_e, base)
        s_a_post = qstate.von_neumann_entropy(post_e, base)
        d_rel = qstate.relative_entropy(post_e, pre_e, base)
        if st.beta is not None and not aa_active:
            # thermal fresh unit: Sigma = dS_S + beta Q equals I_SE + D_relent
            sigma = (s_s_post - s_s_pre) + st.beta * q / math.log(base)
        else:
            sigma = (s_s_post - s_s_pre) + (s_a_post - s_a_pre)
        return CollisionRecord(
            step=step, stream=stream_idx, role=st.role,
            E_S_pre=e_s_pre, E_S_post=e_s_post,
            E_anc_pre=e_a_pre, E_anc_post=e_a_post, Q=q, W=w,
            S_S_pre=s_s_pre, S_S_post=s_s_post,
            S_anc_pre=s_a_pre, S_anc_post=s_a_post,
            I_SE=i_se, Sigma=sigma, D_env_relent=d_rel)

    def run(self) -> Trajectory:
        cfg = self.cfg
        full = cfg.backend == "full"
        joint = cfg.system_init.copy()
        dims = [cfg.system_dim]
        records, anc_dims = [], []
        snapshots = [joint.copy()] if cfg.keep_snapshots else None
        joints = [joint] if full and cfg.keep_joint_snapshots else None
        for k in range(cfg.n_steps):
            si, st = cfg.stream_for_step(k)
            anc_dims.append(st.dim)
            joint = linalg.kron(joint, st.init_state)
            dims = dims + [st.dim]
            fresh = len(dims) - 1
            aa_active = cfg.aa_mode != "off" and fresh >= 2
            if aa_active:
                joint = apply_aa_collision(joint, dims, [fresh - 1, fresh],
                                           cfg.aa_swap_prob, cfg.aa_mode,
                                           cfg.aa_theta, self.coins[k])
            pre_s = linalg.partial_trace(joint, dims, [0])
            pre_e = linalg.partial_trace(joint, dims, [fresh])
            joint = linalg.conjugate(self.unitaries[si], joint, dims, [0, fresh])
            joint = erase_correlations(joint, dims, cfg.erasure_lambda)
            joint = _integrity(joint, k)
            post_s = linalg.partial_trace(joint, dims, [0])
            post_e = linalg.partial_trace(joint, dims, [fresh])
            pair = linalg.partial_trace(joint, dims, [0, fresh])
            i_se = qstate.mutual_information(pair, [cfg.system_dim, st.dim], 1,
                                             cfg.log_base)
            records.append(self._record(k, si, st, pre_s, pre_e, post_s, post_e,
                                        i_se, aa_active))
            if snapshots is not None:
                snapshots.append(post_s)
            # retention: full keeps everything, windowed only what the next
            # step can touch
            if full:
                if joints is not None:
                    joints.append(joint)
            elif cfg.aa_mode == "off":
                joint, dims = post_s, [cfg.system_dim]
            else:
                joint, dims = pair, [cfg.system_dim, st.dim]
        return Trajectory(config=cfg, records=records, snapshots=snapshots,
                          final_joint=joint if full else None,
                          joint_snapshots=joints, anc_dims=anc_dims)


def run(cfg: CollisionConfig, coins: np.ndarray | None = None) -> Trajectory:
    """Run a configured collision-model trajectory."""
    return _Runner(cfg, coins).run()


def run_paired(cfg: CollisionConfig, init_a: np.ndarray, init_b: np.ndarray):
    """Run two trajectories under one channel realization (shared AA coins).

    The per-step distinguishability of the two system states is filled
    into ``D_pair`` of both record sequences, using ``cfg.pair_metric``.
    """
    qstate.validate_density_matrix(init_a)
    qstate.validate_density_matrix(init_b)
    if cfg.aa_mode == "incoherent":
        coins = np.random.default_rng(cfg.rng_seed).random(cfg.n_steps)
    else:
        coins = np.zeros(cfg.n_steps)
    cfg_a = replace(cfg, system_init=init_a, keep_snapshots=True)
    cfg_b = replace(cfg, system_init=init_b, keep_snapshots=True)
    traj_a = run(cfg_a, coins)
    traj_b = run(cfg_b, coins)
    for k in range(cfg.n_steps):
        d = qstate.state_distance(traj_a.snapshots[k + 1], traj_b.snapshots[k + 1],
                                  cfg.pair_metric, cfg.log_base)
        traj_a.records[k].D_pair = d
        traj_b.records[k].D_pair = d
    return traj_a, traj_b
