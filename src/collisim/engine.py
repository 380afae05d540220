"""Collision-model stepper.

Advances a system through sequential unitary collisions with a stream of
fresh environmental units, optionally with ancilla-ancilla collisions
(stochastic partial SWAP, coherent or incoherent) and partial erasure of
the correlations left behind by each collision.

One stepping loop serves both backends, which differ only in what they
retain after each step: ``windowed`` traces down to the system (or to the
system plus the fresh unit when ancilla-ancilla collisions are on), so it
carries at most the system and two live ancillas; ``full`` keeps every
ancilla in one joint state, stores that joint state after every step, and
serves as the exact small-instance oracle.  Both store the system state
after every step.

The loop propagates a stack of B initial system states at once, under one
configuration and one coin sequence: every state carries a leading batch
axis, and the per-step ledger is computed once per step for the whole
stack.  ``run_stack`` returns the stack; ``run`` is a stack of one.

The ledger is stored only as the loop computes it, one column per name in
``LEDGER_FIELDS`` (plus ``D_pair`` for paired runs); ``Trajectory.records``
is a read-only view that builds ``CollisionRecord`` rows from the columns.

Step ordering: append fresh unit, ancilla-ancilla collision between the
carried and fresh unit, system-fresh collision, erasure, integrity check,
ledger, retention.  Every collision is a local gate: its two-site unitary is
contracted into the joint state's factors (``linalg.conjugate`` with
targets), never lifted to the whole space.  The integrity check tests
the eigenvalue floor with a Cholesky factorization and computes the
spectrum only when that fails.  Incoherent ancilla-ancilla swaps consume
exactly one coin per step, drawn from ``rng_seed``, so every run of one
configuration (both runs of a pair, say) shares one channel realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, qstate
from .errors import ConfigError, IntegrityError

PSD_ABORT = -1e-8   # eigenvalue floor beyond which a run aborts
AA_MODES = ("off", "coherent", "incoherent")
# the per-collision quantities of a CollisionRecord, in declaration order
LEDGER_FIELDS = ("E_S_pre", "E_S_post", "E_anc_pre", "E_anc_post", "Q", "W",
                 "S_S_pre", "S_S_post", "S_anc_pre", "S_anc_post", "I_SE",
                 "Sigma", "D_env_relent")


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
        if isinstance(self.n_steps, bool) or \
                not isinstance(self.n_steps, (int, np.integer)):
            raise ConfigError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed!r}")
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

    def stream_index(self) -> np.ndarray:
        """The index of the stream each collision draws its unit from."""
        return np.arange(self.n_steps) % len(self.streams)


@dataclass(frozen=True)
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
    """Per-collision ledger columns plus per-step system snapshots.

    ``ledger`` maps each name in ``LEDGER_FIELDS`` to an (n_steps,) array,
    plus ``D_pair`` for paired runs; ``snapshots`` has shape
    (n_steps + 1, d_S, d_S).
    """
    config: CollisionConfig
    ledger: dict[str, np.ndarray]
    snapshots: np.ndarray | None = None
    joint_snapshots: list[np.ndarray] | None = None  # full backend, len n_steps + 1

    @property
    def records(self) -> tuple[CollisionRecord, ...]:
        """One read-only ``CollisionRecord`` per collision, built from the
        columns on every access."""
        streams = self.config.streams
        names = [name for name in LEDGER_FIELDS + ("D_pair",) if name in self.ledger]
        columns = [self.ledger[name].tolist() for name in names]
        schedule = self.config.stream_index().tolist()
        return tuple(
            CollisionRecord(step=k, stream=si, role=streams[si].role,
                            **dict(zip(names, row)))
            for k, (si, *row) in enumerate(zip(schedule, *columns)))

    def joint_dims(self, step: int) -> list[int]:
        """Factor dimensions of the joint snapshot after ``step`` collisions."""
        streams = self.config.streams
        return [self.config.system_dim] + [
            streams[i].dim for i in self.config.stream_index()[:step].tolist()]


@dataclass
class TrajectoryStack:
    """B trajectories propagated under one channel realization.

    ``ledger`` maps each name in ``LEDGER_FIELDS`` to an (n_steps, B)
    array; ``snapshots`` has shape (n_steps + 1, B, d_S, d_S) and each
    joint snapshot is a (B, D, D) stack.
    """
    config: CollisionConfig
    inits: np.ndarray                                # (B, d_S, d_S)
    ledger: dict[str, np.ndarray]
    snapshots: np.ndarray
    joint_snapshots: list[np.ndarray] | None = None  # full backend

    def member(self, b: int) -> Trajectory:
        """The trajectory of stack member ``b``: slices of the stack's arrays."""
        return Trajectory(
            config=replace(self.config, system_init=self.inits[b]),
            ledger={name: column[:, b] for name, column in self.ledger.items()},
            snapshots=self.snapshots[:, b],
            joint_snapshots=None if self.joint_snapshots is None
            else [j[b] for j in self.joint_snapshots])


def collision_unitary(cfg: CollisionConfig, stream: int) -> np.ndarray:
    """exp(-i (H_S + H_E + g V) tau) on the system (x) unit space."""
    st = cfg.streams[stream]
    h = linalg.kron(cfg.system_hamiltonian, np.eye(st.dim)) \
        + linalg.kron(np.eye(cfg.system_dim), st.hamiltonian) \
        + cfg.coupling * cfg.interactions[stream]
    return linalg.unitary_from_hamiltonian(h, cfg.tau)


def erase_correlations(joint: np.ndarray, dims: list[int], lam: float) -> np.ndarray:
    """lam * rho + (1 - lam) * rho_A (x) rho_B, B the last factor of ``dims``."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("erasure lambda must lie in [0, 1]")
    if lam == 1.0:
        return joint
    n = len(dims)
    rho_a = linalg.partial_trace(joint, dims, range(n - 1))
    rho_b = linalg.partial_trace(joint, dims, [n - 1])
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


def _expect(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.trace(h @ rho, axis1=-2, axis2=-1).real


def _integrity(joint: np.ndarray, step: int) -> np.ndarray:
    """Check finiteness, hermitize, check the eigenvalue floor, renormalize.

    ``joint`` is one state or a stack (..., d, d), checked by a single
    Cholesky factorization of joint - PSD_ABORT I.  It exists exactly when
    every member's smallest eigenvalue exceeds PSD_ABORT; only when it
    fails are the spectra computed, so rounding at the boundary never
    aborts a run.  An abort names the step and the first failing member.
    """
    d = joint.shape[-1]
    finite = np.isfinite(joint.reshape(-1, d * d)).all(axis=1)
    if not finite.all():
        raise IntegrityError(f"state has non-finite entries at step {step}, "
                             f"stack member {np.argmin(finite)}")
    joint = linalg.hermitize(joint)
    try:
        np.linalg.cholesky(joint - PSD_ABORT * np.eye(d))
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(joint.reshape(-1, d, d))[:, 0]
        bad = np.flatnonzero(low < PSD_ABORT)
        if bad.size:
            raise IntegrityError(
                f"state lost positivity at step {step}, stack member {bad[0]}: "
                f"min eigenvalue {low[bad[0]]:.3g}") from None
    return joint / np.trace(joint, axis1=-2, axis2=-1).real[..., None, None]


def _ledger(cfg: CollisionConfig, step: int, st: AncillaStream, pre_s, pre_e,
            post_s, post_e, pair, aa_active: bool) -> tuple[np.ndarray, ...]:
    """The ledger of one collision for every stack member.

    Returns one (B,) array per name in ``LEDGER_FIELDS``, in that order.

    A reduced state outside the entropy code's eigenvalue clamp window is a
    broken propagated state, so it aborts with ``IntegrityError``.
    """
    base = cfg.log_base
    e_s_pre = _expect(cfg.system_hamiltonian, pre_s)
    e_s_post = _expect(cfg.system_hamiltonian, post_s)
    e_a_pre = _expect(st.hamiltonian, pre_e)
    e_a_post = _expect(st.hamiltonian, post_e)
    q = e_a_post - e_a_pre
    try:
        s_s_pre = qstate.von_neumann_entropy(pre_s, base)
        s_s_post = qstate.von_neumann_entropy(post_s, base)
        s_a_pre = qstate.von_neumann_entropy(pre_e, base)
        s_a_post = qstate.von_neumann_entropy(post_e, base)
        d_rel = qstate.relative_entropy(post_e, pre_e, base)
        i_se = (s_s_post + s_a_post) - qstate.von_neumann_entropy(pair, base)
    except ConfigError as exc:
        raise IntegrityError(f"reduced state broken at step {step}: {exc}") from exc
    if st.beta is not None and not aa_active:
        # thermal fresh unit: Sigma = dS_S + beta Q equals I_SE + D_relent
        sigma = (s_s_post - s_s_pre) + st.beta * q / math.log(base)
    else:
        sigma = (s_s_post - s_s_pre) + (s_a_post - s_a_pre)
    return (e_s_pre, e_s_post, e_a_pre, e_a_post, q, (e_s_post - e_s_pre) + q,
            s_s_pre, s_s_post, s_a_pre, s_a_post, i_se, sigma, d_rel)


def _propagate(cfg: CollisionConfig, inits) -> TrajectoryStack:
    """The stepping loop of both backends, over the (B, d_S, d_S) stack ``inits``."""
    cfg.validate()
    unitaries = [collision_unitary(cfg, i) for i in range(len(cfg.streams))]
    # drawn afresh from the seed on every run, so all runs of one config
    # share one channel realization; drawn only where read, because
    # importing numpy.random costs about 6 MB
    coins = (np.random.default_rng(cfg.rng_seed).random(cfg.n_steps)
             if cfg.aa_mode == "incoherent" else np.zeros(cfg.n_steps))
    full = cfg.backend == "full"
    joint = inits = np.array(inits, dtype=complex)
    dims = [cfg.system_dim]
    # preallocated: a list of per-step arrays costs far more memory
    ledger = np.empty((len(LEDGER_FIELDS), cfg.n_steps, len(inits)))
    snapshots = np.empty((cfg.n_steps + 1,) + inits.shape, dtype=complex)
    snapshots[0] = inits
    joints = [joint] if full else None
    for k, si in enumerate(cfg.stream_index().tolist()):
        st = cfg.streams[si]
        joint = linalg.kron(joint, st.init_state)
        dims = dims + [st.dim]
        fresh = len(dims) - 1
        aa_active = cfg.aa_mode != "off" and fresh >= 2
        if aa_active:
            joint = apply_aa_collision(joint, dims, [fresh - 1, fresh],
                                       cfg.aa_swap_prob, cfg.aa_mode,
                                       cfg.aa_theta, coins[k])
        pre_s = linalg.partial_trace(joint, dims, [0])
        pre_e = linalg.partial_trace(joint, dims, [fresh])
        joint = linalg.conjugate(unitaries[si], joint, dims, [0, fresh])
        joint = erase_correlations(joint, dims, cfg.erasure_lambda)
        joint = _integrity(joint, k)
        post_s = linalg.partial_trace(joint, dims, [0])
        post_e = linalg.partial_trace(joint, dims, [fresh])
        pair = linalg.partial_trace(joint, dims, [0, fresh])
        ledger[:, k] = _ledger(cfg, k, st, pre_s, pre_e, post_s, post_e, pair,
                               aa_active)
        snapshots[k + 1] = post_s
        # retention: full keeps everything, windowed only what the next
        # step can touch
        if full:
            joints.append(joint)
        elif cfg.aa_mode == "off":
            joint, dims = post_s, [cfg.system_dim]
        else:
            joint, dims = pair, [cfg.system_dim, st.dim]
    return TrajectoryStack(
        config=cfg, inits=inits, ledger=dict(zip(LEDGER_FIELDS, ledger)),
        snapshots=snapshots, joint_snapshots=joints)


def run(cfg: CollisionConfig) -> Trajectory:
    """Run a configured collision-model trajectory: a stack of one."""
    return _propagate(cfg, [cfg.system_init]).member(0)


def run_stack(cfg: CollisionConfig, inits) -> TrajectoryStack:
    """Propagate a (B, d_S, d_S) stack of initial system states together.

    Every member goes through the same collisions and, in incoherent mode,
    the same coins, so the members share one channel realization;
    ``cfg.system_init`` is not used beyond validation.
    """
    inits = np.asarray(inits, dtype=complex)
    if inits.ndim != 3 or inits.shape[1:] != (cfg.system_dim, cfg.system_dim):
        raise ConfigError(f"initial states must have shape (B, {cfg.system_dim}, "
                          f"{cfg.system_dim}), got {inits.shape}")
    for rho in inits:
        qstate.validate_density_matrix(rho)
    return _propagate(cfg, inits)


def run_paired(cfg: CollisionConfig, init_a: np.ndarray, init_b: np.ndarray):
    """Run two trajectories under one channel realization (shared AA coins).

    The per-step distinguishability of the two system states, in
    ``cfg.pair_metric``, is the ``D_pair`` column of both ledgers.
    """
    traj_a = run(replace(cfg, system_init=init_a))
    traj_b = run(replace(cfg, system_init=init_b))
    traj_a.ledger["D_pair"] = traj_b.ledger["D_pair"] = qstate.state_distance(
        traj_a.snapshots[1:], traj_b.snapshots[1:], cfg.pair_metric, cfg.log_base)
    return traj_a, traj_b
