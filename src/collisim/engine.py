"""Collision-model stepper.

Advances a system through sequential unitary collisions with a stream of
fresh environmental units, optionally with ancilla-ancilla collisions
(stochastic partial SWAP, coherent or incoherent) and partial erasure of
the correlations left behind by each collision.

A run propagates a stack of B initial system states at once, under one
configuration and one coin sequence, and then accounts for it: a set-up
(validation, collision unitaries, step keys and maps), the propagation,
and the accounting.  A pair scan sets up once for all its stacks and
computes no ledger.

Propagation stores the carried state before every step: the system, plus
the last unit when unit-unit collisions are on (before the first step, a
fresh unit that step ignores).  Each step applies one of a few fixed
maps: one per stream, and with unit-unit collisions one without and one
with that collision.  Within a step: append the fresh unit, collide it
with the carried unit, then with the system, then erase.  Every collision
is a local gate, contracted into the state's factors (``linalg.conjugate``
with targets) and never lifted to the whole space.  At the start of a run
each map is pushed once through that step, as superoperators on the
vectorized carried state: one to the state after the system-unit
collision, one to the fresh unit before it.  The ``windowed`` backend
iterates their partial traces onto the carried factors, a linear
recurrence that it computes as a blocked scan: about 3 sqrt(n) batched
products per run instead of one per step.  Erasure of a carried unit's
correlations is not linear; a run with it goes step by step.  The
``full`` backend keeps every unit in one live joint state, the exact
small-instance oracle; after every step it stores the carried part and
what the backflow bound reads: each member's environment state and its
correlation term D(rho_SE, rho_S (x) rho_E) in the pair metric.

Accounting then rebuilds each step's states from its carried state with
one product by its map, in blocks of about ``LEDGER_BLOCK`` states (steps
times stack members), and computes the ledger of a block in one batched
pass: one column per name in ``LEDGER_FIELDS`` (plus ``D_pair`` for
paired runs).  One function serves both backends.  ``Trajectory.records``
is a read-only view that builds ``CollisionRecord`` rows from the columns.

Integrity: every state is checked once where it is stored, by
``_integrity``: finiteness and the eigenvalue floor (a Cholesky
factorization that computes spectra only when it fails), then it is
hermitized and renormalized.  The windowed backend checks each carried
state, the full backend its joint state after every step.  The full
backend's per-step sector plan (``_sector_plan``) is the only sector
split: its check and its trace-metric correlation spectra go block by
block, and every other check is one dense factorization.  Accounting
adds its own checks: each step's state after collision and erasure, and
each reduced state's spectrum against the entropy code's clamp window.  A
scan that computes no ledger has only the propagation's check, weaker than
the accounting's.  ``_abort`` names the first failing step and stack member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, qstate
from .errors import ConfigError, IntegrityError, check_kind

PSD_ABORT = -1e-8   # eigenvalue floor beyond which a run aborts
FULL_FACTOR_CAP = 10  # the full backend's joint dimension is at most 2**FULL_FACTOR_CAP
LEDGER_BLOCK = 256  # states (steps x stack members) accounted at once: bounds memory
MAX_RUN_BYTES = 2 ** 31  # the most one member of a run may store: _step_bytes per step
AA_MODES = ("off", "coherent", "incoherent")
# the per-collision quantities of a CollisionRecord, in declaration order
LEDGER_FIELDS = ("E_S_pre", "E_S_post", "E_anc_pre", "E_anc_post", "Q", "W",
                 "S_S_pre", "S_S_post", "S_anc_pre", "S_anc_post", "I_SE",
                 "Sigma", "D_env_relent")


def swap_unitary(dim: int) -> np.ndarray:
    """SWAP on two ``dim``-dimensional factors."""
    d2 = check_kind("dim", dim, "integer", 1) ** 2
    return np.eye(d2, dtype=complex).reshape(dim, dim, dim, dim) \
        .transpose(1, 0, 2, 3).reshape(d2, d2)


def partial_swap_unitary(dim: int, theta: float) -> np.ndarray:
    """cos(theta) I + i sin(theta) SWAP on two ``dim``-dimensional factors."""
    if check_kind("dim", dim, "integer") < 2:
        raise ConfigError("partial swap needs dim >= 2")
    if not math.isfinite(check_kind("theta", theta, "real")):
        raise ConfigError(f"theta must be finite, got {theta!r}")
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
    log_base: float = 2.0
    pair_metric: str = "trace"       # the distinguishability metric of a pair's runs

    def validate(self):
        integers = {"system_dim": self.system_dim, "n_steps": self.n_steps,
                    "rng_seed": self.rng_seed,
                    **{f"streams[{i}].dim": st.dim for i, st in enumerate(self.streams)}}
        reals = {"tau": self.tau, "coupling": self.coupling,
                 "aa_swap_prob": self.aa_swap_prob, "aa_theta": self.aa_theta,
                 "erasure_lambda": self.erasure_lambda, "log_base": self.log_base,
                 **{f"streams[{i}].beta": st.beta for i, st in enumerate(self.streams)
                    if st.beta is not None}}
        matrices = {"system_hamiltonian": self.system_hamiltonian,
                    "system_init": self.system_init,
                    **{f"streams[{i}].{name}": getattr(st, name)
                       for i, st in enumerate(self.streams)
                       for name in ("hamiltonian", "init_state")},
                    **{f"interactions[{i}]": v for i, v in enumerate(self.interactions)}}
        for fields, kind in ((integers, "integer"), (reals, "real"), (matrices, "matrix")):
            for name, value in fields.items():
                check_kind(name, value, kind)
        qstate.check_base(self.log_base, "log_base")
        finite = {**matrices, "tau": self.tau, "coupling": self.coupling,
                  "aa_theta": self.aa_theta}
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
            if st.role not in ("resource", "bath"):
                raise ConfigError(f"unknown stream role {st.role!r}")
            if st.hamiltonian.shape != (st.dim, st.dim):
                raise ConfigError("stream Hamiltonian dimension mismatch")
            qstate.validate_density_matrix(st.init_state)
            if st.init_state.shape != (st.dim, st.dim):
                raise ConfigError("stream init_state dimension mismatch")
            if st.beta is not None and np.max(np.abs(
                    qstate.thermal_state(st.hamiltonian, st.beta) - st.init_state)) > 1e-10:
                raise ConfigError("stream beta does not match init_state")
            d = self.system_dim * st.dim
            if v.shape != (d, d):
                raise ConfigError(f"interaction shape {v.shape} != ({d}, {d})")
            if not linalg.is_hermitian(v):
                raise ConfigError("interaction matrix is not Hermitian")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")
        check_kind("n_steps", self.n_steps, "integer", 1)
        check_kind("rng_seed", self.rng_seed, "integer", 0)
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
        if self.pair_metric not in qstate.METRICS:
            raise ConfigError(f"unknown pair_metric {self.pair_metric!r}, "
                              f"not in {qstate.METRICS}")
        # a member's carried states, snapshots and ledger, before anything is allocated
        step_bytes = _step_bytes(self)
        if (int(self.n_steps) + 1) * step_bytes > MAX_RUN_BYTES:
            raise ConfigError(f"n_steps is too large: at {step_bytes} bytes per step for "
                              f"one member's states, snapshots and ledger, a run may have "
                              f"at most {MAX_RUN_BYTES // step_bytes - 1} steps")
        # the ledger sums beta Q / ln(base) over the run, and |Q| <= the energy spread
        for st in (st for st in self.streams if st.beta is not None):
            low, high = np.linalg.eigvalsh(st.hamiltonian)[[0, -1]].tolist()
            if not math.isfinite(float(st.beta) * (high - low) / math.log(self.log_base)
                                 * int(self.n_steps)):
                raise ConfigError(f"stream beta {st.beta:.3g} times its energy spread "
                                  f"{high - low:.3g} over {self.n_steps} collisions overflows")
        if self.backend == "full":
            dim = self.system_dim
            for k in range(self.n_steps):
                dim *= self.streams[k % len(self.streams)].dim
                if dim > 2 ** FULL_FACTOR_CAP:
                    raise ConfigError(f"full backend joint dimension {dim} exceeds "
                                      f"cap {2 ** FULL_FACTOR_CAP}")

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
    env_states: list[np.ndarray] | None = None  # full backend: the units after each step
    correlations: np.ndarray | None = None  # full backend: (n_steps,) correlation terms

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


@dataclass
class TrajectoryStack:
    """B trajectories propagated under one channel realization.

    ``ledger`` maps each name in ``LEDGER_FIELDS`` to an (n_steps, B)
    array; ``snapshots`` has shape (n_steps + 1, B, d_S, d_S), each
    environment state is a (B, d, d) stack and ``correlations`` (n_steps, B).
    """
    config: CollisionConfig
    ledger: dict[str, np.ndarray]
    snapshots: np.ndarray
    env_states: list[np.ndarray] | None = None
    correlations: np.ndarray | None = None

    def member(self, b: int) -> Trajectory:
        """The trajectory of stack member ``b``: slices of the stack's arrays."""
        return Trajectory(
            config=replace(self.config, system_init=self.snapshots[0, b]),
            ledger={name: column[:, b] for name, column in self.ledger.items()},
            snapshots=self.snapshots[:, b],
            env_states=None if self.env_states is None else [e[b] for e in self.env_states],
            correlations=None if self.correlations is None else self.correlations[:, b])


def collision_hamiltonian(cfg: CollisionConfig, stream: int) -> np.ndarray:
    """H_S + H_E + g V on the system (x) unit space, rejected if it overflows."""
    if check_kind("stream", stream, "integer", 0) >= len(cfg.streams):
        raise ConfigError(f"stream {stream} out of range for {len(cfg.streams)} streams")
    st = cfg.streams[stream]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        h = linalg.kron(cfg.system_hamiltonian, np.eye(st.dim)) \
            + linalg.kron(np.eye(cfg.system_dim), st.hamiltonian) \
            + cfg.coupling * cfg.interactions[stream]
    if not np.isfinite(h).all():
        raise ConfigError(f"collision Hamiltonian of stream {stream} overflows: coupling "
                          f"{cfg.coupling:.3g} times its interaction, plus H_S + H_E")
    return h


def collision_unitary(cfg: CollisionConfig, stream: int) -> np.ndarray:
    """exp(-i (H_S + H_E + g V) tau) on the system (x) unit space."""
    return linalg.unitary_from_hamiltonian(collision_hamiltonian(cfg, stream), cfg.tau)


def erase_correlations(joint: np.ndarray, dims: list[int], lam: float) -> np.ndarray:
    """lam * rho + (1 - lam) * rho_A (x) rho_B, B the last factor of ``dims``."""
    if not 0.0 <= check_kind("lam", lam, "real") <= 1.0:
        raise ConfigError("erasure lambda must lie in [0, 1]")
    if lam == 1.0:
        return joint
    n = np.size(dims)  # partial_trace checks dims
    rho_a = linalg.partial_trace(joint, dims, range(n - 1))
    rho_b = linalg.partial_trace(joint, dims, [n - 1])
    return lam * joint + (1.0 - lam) * linalg.kron(rho_a, rho_b)


def system_channel(cfg: CollisionConfig, stream: int = 0):
    """The CPTP map of a single Markovian collision on the system: the
    engine's step with a fresh unit of ``stream``, that unit traced out."""
    unitaries = {stream: collision_unitary(cfg, stream)}

    def channel(rho_s: np.ndarray) -> np.ndarray:
        _, after, dims = _collide(cfg, unitaries, rho_s, [cfg.system_dim], stream)
        return linalg.partial_trace(after, dims, [0])

    return channel


def _expect(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.einsum('ij,...ji->...', h, rho).real


def _abort(what: str, bad: np.ndarray, steps, detail: str = "", values=None):
    """Raise "``what`` at step S, stack member M" plus ``detail``, formatted with the
    entry of ``values`` at the first flag in ``bad`` (step-major over ``steps``)."""
    steps = np.atleast_1d(steps)
    members, index = bad.size // len(steps), int(np.argmax(bad))
    step, member = int(steps[index // members]), index % members
    if values is not None:
        detail = detail.format(np.ravel(values)[index])
    raise IntegrityError(f"{what} at step {step}, stack member {member}{detail}",
                         step) from None


def _integrity(joint: np.ndarray, steps, blocks: list[np.ndarray] | None = None) -> np.ndarray:
    """The check of every state before it is stored: finiteness, then
    hermitize, then the eigenvalue floor, then renormalize.

    ``joint`` is one state or a stack (B, d, d) at step ``steps``, or a
    block (n, B, d, d) of stacks at the n steps ``steps``; on both backends
    a state to be stored is named by its index in ``carried`` (the state
    after k collisions is step k), and the accounting names the states it
    rebuilds from ``carried[s]`` step s.  The floor is a Cholesky
    factorization of joint - PSD_ABORT I, which exists exactly when every
    smallest eigenvalue exceeds PSD_ABORT; only when it fails are the
    spectra computed, so rounding at the boundary never aborts a run.  An
    abort names the first failing step and stack member.

    Given more than one of ``blocks`` (such as the full backend's sector
    plan: index sets that partition ``range(d)`` with no nonzero entry
    between two of them), the floor and the failure spectra go block by
    block; a permuted block-diagonal matrix has a Cholesky factor exactly
    when each block has one.  Otherwise the check is one dense call.
    """
    finite = np.isfinite(joint).all(axis=(-2, -1))
    if not finite.all():
        _abort("state has non-finite entries", ~finite, steps)
    joint = linalg.hermitize(joint)
    d = joint.shape[-1]
    blocks = [np.arange(d)] if blocks is None else blocks
    try:
        if len(blocks) == 1:
            np.linalg.cholesky(joint - PSD_ABORT * np.eye(d))
        else:
            for b in blocks:
                np.linalg.cholesky(joint[..., b[:, None], b] - PSD_ABORT * np.eye(len(b)))
    except np.linalg.LinAlgError:
        low = linalg.sector_eigvalsh(joint, blocks)[..., 0]
        if (low < PSD_ABORT).any():
            _abort("state lost positivity", low < PSD_ABORT, steps,
                   ": min eigenvalue {:.3g}", low)
    return joint / np.trace(joint, axis1=-2, axis2=-1).real[..., None, None]


def _step_keys(cfg: CollisionConfig) -> np.ndarray:
    """The map of each step: its stream's index, plus the number of streams
    when a unit-unit collision acts at that step (the second step on).

    Incoherent unit-unit collisions consume one coin per step, drawn from
    ``rng_seed``, and act when it is below ``aa_swap_prob``, so every run of
    one configuration (both runs of a pair, say) shares one realization.
    """
    keys = cfg.stream_index()
    if cfg.aa_mode == "off":
        return keys
    acts = np.arange(cfg.n_steps) >= 1
    if cfg.aa_mode == "incoherent":  # drawn only where read: numpy.random costs 6 MB
        acts &= np.random.default_rng(cfg.rng_seed).random(cfg.n_steps) < cfg.aa_swap_prob
    return keys + len(cfg.streams) * acts


def _step_bytes(cfg: CollisionConfig) -> int:
    """The bytes one member of a run stores per step: its carried state, its
    system snapshot when a unit is carried as well, and a ledger row."""
    dims = _carried_dims(cfg)
    states = math.prod(dims) ** 2 + (cfg.system_dim ** 2 if len(dims) > 1 else 0)
    return states * np.dtype(complex).itemsize \
        + (len(LEDGER_FIELDS) + 1) * np.dtype(float).itemsize


def _carried_dims(cfg: CollisionConfig) -> list[int]:
    """Factors of the windowed carried state: the system, and the last unit
    when unit-unit collisions are on."""
    return [cfg.system_dim] + [cfg.streams[0].dim] * (cfg.aa_mode != "off")


def _collide(cfg: CollisionConfig, unitaries, state, dims: list[int], key: int):
    """A step of map ``key`` on ``state`` with factors ``dims``: append the
    fresh unit, collide it with the last unit if the key says so, then with
    the system.  An incoherent unit-unit collision, whose coin ``_step_keys``
    drew, is the partial swap; a coherent one mixes it in with weight
    ``aa_swap_prob``.  Returns the state before and after the system-unit
    collision and its factors; linear in ``state``, a stack of any shape."""
    si = key % len(cfg.streams)
    before = linalg.kron(state, cfg.streams[si].init_state)
    dims = dims + [cfg.streams[si].dim]
    fresh = len(dims) - 1
    if key >= len(cfg.streams):
        p = cfg.aa_swap_prob
        swapped = linalg.conjugate(partial_swap_unitary(dims[fresh], cfg.aa_theta), before,
                                   dims, [fresh - 1, fresh])
        before = swapped if cfg.aa_mode == "incoherent" else p * swapped + (1.0 - p) * before
    return before, linalg.conjugate(unitaries[si], before, dims, [0, fresh]), dims


def _kept(cfg: CollisionConfig, dims: list[int]) -> list[int]:
    """The factors of ``dims`` (after a step) that the next step carries."""
    return [0] if cfg.aa_mode == "off" else [0, len(dims) - 1]


def _maps(cfg: CollisionConfig, unitaries, keys: np.ndarray) -> list[tuple]:
    """Per key, the linear maps of a step on the row-major vectorized carried
    state, with the factors after the step: ``(after, pre_e, dims)``.

    ``after`` (d_c², D, D) gives the state after the system-unit collision,
    before erasure; ``pre_e`` (d_c², d_E, d_E) the fresh unit before that
    collision.  Built once per run by pushing the d_c² matrix units through
    ``_collide``; propagation and accounting share them.
    """
    dims = _carried_dims(cfg)
    dc = math.prod(dims)
    units = np.eye(dc * dc, dtype=complex).reshape(-1, dc, dc)
    maps = []
    for key in range(int(keys.max()) + 1):
        before, after, out = _collide(cfg, unitaries, units, dims, key)
        maps.append((after, linalg.partial_trace(before, out, [len(out) - 1]), out))
    return maps


def _apply(m: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The images of ``states`` (..., d_c, d_c) under a map ``m`` (d_c², d, d).

    One vector-matrix product per state, so a state's image does not
    depend on the stack it is in.
    """
    n, lead = m.shape[0], states.shape[:-2]
    return (states.reshape(lead + (1, n)) @ m.reshape(n, -1)).reshape(lead + m.shape[1:])


def _iterate(cfg: CollisionConfig, maps, keys: np.ndarray, carried: np.ndarray):
    """The windowed backend: fill ``carried[1:]`` from ``carried[0]``.

    Each step applies the transfer map T of its key, the partial trace of
    its ``after`` map onto the factors the next step carries, and stores
    the result through ``_integrity``, which names it by its index in
    ``carried``.  Erasure of a carried unit's correlations
    (``erasure_lambda < 1``) is not linear: such runs go step by step.
    Every other run is the linear recurrence x_{k+1} = x_k T[key_k] on the
    row-vectorized states, a blocked scan over chunks of b = ceil(sqrt(n))
    steps: the product of each whole chunk's maps, the state at each
    chunk's start, then all chunks at once, one position at a time, each
    position's states checked together (so an abort names the first
    failing chunk of the first position that fails).  That is about 3 b
    batched products instead of n, each a row vector times a matrix as in
    ``_apply``, so a state's image does not depend on the stack it is in.
    """
    dims = _carried_dims(cfg)
    transfer = [linalg.partial_trace(after, out, _kept(cfg, out)) for after, _, out in maps]
    if len(dims) > 1 and cfg.erasure_lambda < 1.0:
        c = carried[0]
        for k, key in enumerate(keys.tolist()):
            c = erase_correlations(_apply(transfer[key], c), dims, cfg.erasure_lambda)
            carried[k + 1] = c = _integrity(c, k + 1)
        return
    n, m, members = len(keys), len(transfer[0]), carried.shape[1]
    t = np.array(transfer).reshape(-1, m, m)
    b = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    whole = keys[:(n - 1) // b * b].reshape(-1, b)  # every chunk but the last
    chunks = t[whole[:, 0]]
    for i in range(1, b):
        chunks = chunks @ t[whole[:, i]]
    y = np.empty((len(whole) + 1, members, 1, m), dtype=complex)
    y[0] = carried[0].reshape(members, 1, m)
    for j, chunk in enumerate(chunks):
        y[j + 1] = y[j] @ chunk
    for i in range(b):
        at = keys[i::b]  # the key of position i in each chunk that reaches it
        x = (y[:len(at)] @ t[at][:, None]).reshape((len(at),) + carried.shape[1:])
        carried[1 + i::b] = x = _integrity(x, np.arange(1 + i, n + 1, b))
        y = x.reshape(len(at), members, 1, m)


def _sector_plan(joint: np.ndarray, dims: list[int]) -> list[np.ndarray]:
    """The ``linalg.sectors`` that serve one step of ``_grow``, from the
    joint state (B, D, D) before its check: the union over the stack of
    its exact nonzero pattern, taken symmetric, and of a pattern that
    contains rho_S (x) rho_E's.  A partial trace is nonzero only where the
    traced diagonal of the pattern is, so the product's pattern lies
    within the product of the two traced patterns."""
    d, d_s = joint.shape[-1], dims[0]
    pattern = (joint != 0).reshape(-1, d, d).any(axis=0)
    pattern |= pattern.T
    split = pattern.reshape(d_s, d // d_s, d_s, d // d_s)
    on_s = np.diagonal(split, axis1=1, axis2=3).any(axis=-1)
    on_e = np.diagonal(split, axis1=0, axis2=2).any(axis=-1)
    return linalg.sectors(pattern | (on_s[:, None, :, None] & on_e[None, :, None, :])
                          .reshape(d, d))


def _grow(cfg: CollisionConfig, unitaries, keys: np.ndarray, inits: np.ndarray,
          carried: np.ndarray):
    """The full backend: the live joint state, checked after every step, with
    its carried part stored in ``carried``.  The check names the joint state
    after n collisions step n, the index in ``carried`` of its carried
    part, as the windowed backend does.  Returns the (B, d_E, d_E) units'
    states after each step and the (n_steps, B) correlation terms in
    ``cfg.pair_metric``, each from its member's own joint state.

    Each step labels its sectors once (``_sector_plan``), whatever the
    metric; the check and the trace metric's spectrum of joint - rho_S (x)
    rho_E go along them.  That difference is not hermitized again: the
    joint was just hermitized, a product of Hermitian factors is exactly
    Hermitian, and ``eigvalsh`` reads one triangle.  The Jensen-Shannon
    terms are one stacked ``qstate.state_distance``."""
    joint, dims = inits, [cfg.system_dim]
    envs, corr = [], np.empty((len(keys), len(inits)))
    for k, key in enumerate(keys.tolist()):
        joint, dims = _collide(cfg, unitaries, joint, dims, key)[1:]
        joint = erase_correlations(joint, dims, cfg.erasure_lambda)
        blocks = _sector_plan(joint, dims)
        joint = _integrity(joint, k + 1, blocks)
        carried[k + 1] = linalg.partial_trace(joint, dims, _kept(cfg, dims))
        envs.append(linalg.partial_trace(joint, dims, range(1, len(dims))))
        product = linalg.kron(linalg.partial_trace(joint, dims, [0]), envs[-1])
        if cfg.pair_metric == "trace":
            corr[k] = 0.5 * np.abs(linalg.sector_eigvalsh(joint - product, blocks)).sum(-1)
        else:
            corr[k] = qstate.state_distance(joint, product, cfg.pair_metric, cfg.log_base)
    return envs, corr


def _block_ledger(cfg: CollisionConfig, maps, key: int, carried: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
    """The ledger of ``steps``, all of map ``key``, from their carried
    states: one (n, B) array per name in ``LEDGER_FIELDS``.  The states of
    the step are one product each by the key's maps; the system before the
    step is the carried system, which the unit-unit collision leaves alone.

    A state that fails the integrity check after the collision and erasure,
    or a reduced state outside the entropy code's eigenvalue clamp window,
    aborts through ``_abort``, which names the first failing step and member.
    """
    st = cfg.streams[key % len(cfg.streams)]
    after_map, pre_e_map, dims = maps[key]
    fresh = len(dims) - 1
    pre_s = linalg.partial_trace(carried, dims[:-1], [0])
    pre_e, after = _apply(pre_e_map, carried), _apply(after_map, carried)
    after = _integrity(erase_correlations(after, dims, cfg.erasure_lambda), steps)
    post_s, post_e, pair = (linalg.partial_trace(after, dims, keep)
                            for keep in ([0], [fresh], [0, fresh]))
    # one eigensolve per reduced state; pre_e's eigenvectors also give D(post_e || pre_e)
    e_vals, e_vecs = np.linalg.eigh(linalg.hermitize(pre_e))
    spectra = [qstate._spectrum(x) for x in (pre_s, post_s, post_e, pair)] + [e_vals]
    low = np.min([vals[..., 0] for vals in spectra], axis=0)
    if (low < -qstate.EIG_CLAMP).any():
        _abort("reduced state broken", low < -qstate.EIG_CLAMP, steps,
               ": eigenvalue {:.3g} below the clamp window", low)
    base = cfg.log_base
    s_s_pre, s_s_post, s_a_post, s_pair, s_a_pre = (qstate._entropy(vals, base)
                                                     for vals in spectra)
    e_s_pre = _expect(cfg.system_hamiltonian, pre_s)
    e_s_post = _expect(cfg.system_hamiltonian, post_s)
    e_a_pre, e_a_post = _expect(st.hamiltonian, pre_e), _expect(st.hamiltonian, post_e)
    q = e_a_post - e_a_pre
    sigma = (s_s_post - s_s_pre) + (s_a_post - s_a_pre)
    if st.beta is not None:
        # thermal unit uncorrelated with the system: Sigma = dS_S + beta Q
        # equals I_SE + D_relent
        fresh_unit = (steps == 0) | (cfg.aa_mode == "off")
        sigma = np.where(fresh_unit[:, None],
                         (s_s_post - s_s_pre) + st.beta * q / math.log(base), sigma)
    return np.array([e_s_pre, e_s_post, e_a_pre, e_a_post, q, (e_s_post - e_s_pre) + q,
                     s_s_pre, s_s_post, s_a_pre, s_a_post, (s_s_post + s_a_post) - s_pair,
                     sigma, qstate._relative_entropy(s_a_post, post_e, e_vals, e_vecs, base)])


def _account(cfg: CollisionConfig, maps, keys: np.ndarray,
             carried: np.ndarray) -> np.ndarray:
    """The ledger, (len(LEDGER_FIELDS), n_steps, B), from the carried states
    and the ``_maps`` of the run.

    Steps are accounted in blocks of about ``LEDGER_BLOCK`` states (steps
    times stack members), the steps of one map together, so the rebuilt
    states take bounded memory.  An abort at step s accounts the steps
    before s first, so the abort that names the first failing step wins.
    """
    ledger = np.empty((len(LEDGER_FIELDS), len(keys), carried.shape[1]))
    size = max(1, LEDGER_BLOCK // carried.shape[1])
    for start in range(0, len(keys), size):
        block = np.arange(start, min(start + size, len(keys)))
        for key in np.unique(keys[block]).tolist():
            steps = block[keys[block] == key]
            try:
                ledger[:, steps] = _block_ledger(cfg, maps, key, carried[steps], steps)
            except IntegrityError as exc:
                _account(cfg, maps, keys[:exc.step], carried[:exc.step])
                raise
    return ledger


def _setup(cfg: CollisionConfig):
    """Validate ``cfg`` and build what every run of it shares: the collision
    unitaries, the step keys and the step maps."""
    cfg.validate()
    unitaries = [collision_unitary(cfg, i) for i in range(len(cfg.streams))]
    keys = _step_keys(cfg)
    return unitaries, keys, _maps(cfg, unitaries, keys)


def _evolve(cfg: CollisionConfig, setup, inits):
    """Propagate the (B, d_S, d_S) stack ``inits`` with the ``_setup`` of
    ``cfg``.  Returns the carried states, the system snapshots and, for the
    full backend, the units' states and the correlation terms of ``_grow``."""
    unitaries, keys, maps = setup
    inits = np.array(inits, dtype=complex)
    dims = _carried_dims(cfg)
    # before the first step the carried unit is a fresh one that step ignores
    first = linalg.kron(inits, cfg.streams[0].init_state) if len(dims) > 1 else inits
    carried = np.empty((cfg.n_steps + 1,) + first.shape, dtype=complex)
    carried[0] = first
    envs = corr = None
    if cfg.backend == "full":
        envs, corr = _grow(cfg, unitaries, keys, inits, carried)
    else:
        _iterate(cfg, maps, keys, carried)
    snapshots = carried
    if len(dims) > 1:
        snapshots = linalg.partial_trace(carried, dims, [0])
        snapshots[0] = inits
    return carried, snapshots, envs, corr


def _propagate(cfg: CollisionConfig, inits) -> TrajectoryStack:
    """Propagate the (B, d_S, d_S) stack ``inits``, then account for it."""
    setup = _setup(cfg)
    _, keys, maps = setup
    carried, snapshots, envs, corr = _evolve(cfg, setup, inits)
    ledger = _account(cfg, maps, keys, carried)
    return TrajectoryStack(config=cfg, ledger=dict(zip(LEDGER_FIELDS, ledger)),
                           snapshots=snapshots, env_states=envs, correlations=corr)


def _checked_inits(cfg: CollisionConfig, inits) -> np.ndarray:
    """``inits`` as a complex array, rejected unless it is a (B, d_S, d_S)
    stack of density matrices."""
    inits = check_kind("initial states", np.asarray(inits), "matrix")
    if inits.ndim != 3 or inits.shape[1:] != (cfg.system_dim, cfg.system_dim):
        raise ConfigError(f"initial states must have shape (B, {cfg.system_dim}, "
                          f"{cfg.system_dim}), got {inits.shape}")
    return qstate.validate_density_matrix(inits)


def _snapshot_stacks(cfg: CollisionConfig, stacks):
    """Yield the system snapshots of each (B, d_S, d_S) stack of the
    (R, B, d_S, d_S) ``stacks``, from one ``_setup`` of ``cfg`` and with no
    ledger.  The initial states are checked as ``run_stack`` checks them,
    all before the first run, and the propagation checks every carried
    state it stores."""
    stacks = np.asarray(stacks, dtype=complex)
    _checked_inits(cfg, stacks.reshape((-1,) + stacks.shape[-2:]))
    setup = _setup(cfg)
    for inits in stacks:
        yield _evolve(cfg, setup, inits)[1]


def run(cfg: CollisionConfig) -> Trajectory:
    """Run a configured collision-model trajectory: a stack of one."""
    return _propagate(cfg, [cfg.system_init]).member(0)


def run_stack(cfg: CollisionConfig, inits) -> TrajectoryStack:
    """Propagate a (B, d_S, d_S) stack of initial system states together.

    Every member goes through the same collisions and, in incoherent mode,
    the same coins, so the members share one channel realization;
    ``cfg.system_init`` is not used beyond validation.
    """
    return _propagate(cfg, _checked_inits(cfg, inits))


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
