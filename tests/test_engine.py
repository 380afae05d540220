import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collisim import engine, linalg, nonmarkov, qstate
from collisim.engine import (AncillaStream, CollisionConfig, apply_aa_collision,
                             collision_unitary, erase_correlations,
                             partial_swap_interaction, partial_swap_unitary, run,
                             run_paired, run_stack, swap_unitary, system_channel)
from collisim.errors import ConfigError, IntegrityError
from conftest import mutual_information, random_density_matrix, random_hermitian

SX, SY, SZ, I2 = linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z, linalg.EYE2
EXCITED = qstate.pure_state([1, 0])
GROUND = qstate.pure_state([0, 1])


def qubit_config(theta=0.3, beta=1.0, n_steps=5, omega=1.0, tau=1.0, **extra):
    h = omega * SZ / 2
    stream = AncillaStream(2, h, qstate.thermal_state(h, beta), beta=beta)
    return CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=EXCITED,
        streams=[stream], interactions=[partial_swap_interaction(2)],
        tau=tau, coupling=theta / tau, n_steps=n_steps, **extra)


class TestPartialSwapUnitary:
    def test_theta_zero_is_identity(self):
        assert np.allclose(partial_swap_unitary(2, 0.0), np.eye(4))

    def test_full_swap(self):
        assert np.allclose(partial_swap_unitary(2, math.pi / 2), 1j * swap_unitary(2))

    def test_unitary(self):
        u = partial_swap_unitary(3, 0.8)
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-12

    def test_quarter_swap_conjugation_oracle(self):
        rng = np.random.default_rng(0)
        rho, sigma = random_density_matrix(rng, 2), random_density_matrix(rng, 2)
        u = partial_swap_unitary(2, math.pi / 4)
        joint = u @ linalg.kron(rho, sigma) @ u.conj().T
        s = swap_unitary(2)
        c = math.cos(math.pi / 4)
        expected = (c * np.eye(4) + 1j * c * s) @ linalg.kron(rho, sigma) \
            @ (c * np.eye(4) - 1j * c * s)
        assert np.allclose(joint, expected, atol=1e-13)
        # marginals interpolate between the inputs
        out = linalg.partial_trace(joint, [2, 2], [0])
        mix = 0.5 * rho + 0.5 * sigma
        assert qstate.trace_distance(out, mix) < qstate.trace_distance(rho, sigma)


class TestCollisionUnitary:
    def test_uncoupled_factorizes(self):
        cfg = qubit_config(theta=0.0)
        cfg = replace(cfg, coupling=0.0)
        u = collision_unitary(cfg, 0)
        u_s = linalg.unitary_from_hamiltonian(cfg.system_hamiltonian, cfg.tau)
        u_e = linalg.unitary_from_hamiltonian(cfg.streams[0].hamiltonian, cfg.tau)
        assert np.max(np.abs(u - linalg.kron(u_s, u_e))) < 1e-12

    def test_matches_partial_swap_parametrization(self):
        # bare Hamiltonians zero: exp(-i g V tau) with V = -SWAP is the
        # theta = g tau partial swap
        h0 = np.zeros((2, 2), dtype=complex)
        stream = AncillaStream(2, h0, qstate.maximally_mixed(2))
        cfg = CollisionConfig(
            system_dim=2, system_hamiltonian=h0, system_init=EXCITED,
            streams=[stream], interactions=[partial_swap_interaction(2)],
            tau=0.5, coupling=0.8)
        u = collision_unitary(cfg, 0)
        assert np.max(np.abs(u - partial_swap_unitary(2, 0.8 * 0.5))) < 1e-10

    def test_resonant_exchange_commutes_with_bare_hamiltonian(self):
        h = SZ / 2
        v = linalg.kron(SX, SX) + linalg.kron(SY, SY)
        bare = linalg.kron(h, I2) + linalg.kron(I2, h)
        assert linalg.commutator_norm(bare, v) < 1e-12
        stream = AncillaStream(2, h, qstate.thermal_state(h, 1.0), beta=1.0)
        cfg = CollisionConfig(2, h, EXCITED, [stream], [v], tau=1.0, coupling=0.5)
        u = collision_unitary(cfg, 0)
        assert linalg.commutator_norm(u, bare) < 1e-10


class TestStep:
    def test_full_swap_replaces_state(self):
        cfg = qubit_config(theta=math.pi / 2, n_steps=1)
        traj = run(cfg)
        assert qstate.trace_distance(traj.snapshots[1], cfg.streams[0].init_state) < 1e-12

    def test_no_interaction(self):
        cfg = replace(qubit_config(n_steps=3), coupling=0.0)
        traj = run(cfg)
        for r in traj.records:
            assert abs(r.Q) < 1e-12
            assert abs(r.W) < 1e-12
            assert abs(r.I_SE) < 1e-9
        # system evolves unitarily: spectrum preserved
        v0 = np.linalg.eigvalsh(traj.snapshots[0])
        v1 = np.linalg.eigvalsh(traj.snapshots[-1])
        assert np.allclose(v0, v1, atol=1e-10)


class TestBackendAgreement:
    @pytest.mark.parametrize("mode,p", [("off", 0.0), ("coherent", 1.0),
                                        ("coherent", 0.5), ("incoherent", 0.7)])
    def test_windowed_matches_full(self, mode, p):
        cfg = qubit_config(theta=0.9, n_steps=6, aa_mode=mode, aa_swap_prob=p,
                           erasure_lambda=0.7, rng_seed=5)
        tw = run(cfg)
        tf = run(replace(cfg, backend="full"))
        for a, b in zip(tw.snapshots, tf.snapshots):
            assert qstate.trace_distance(a, b) < 1e-10
        for ra, rb in zip(tw.records, tf.records):
            assert ra.Q == pytest.approx(rb.Q, abs=1e-12)
            assert ra.W == pytest.approx(rb.W, abs=1e-12)
            assert ra.I_SE == pytest.approx(rb.I_SE, abs=1e-10)


@st.composite
def small_runs(draw):
    """A random small configuration and initial stack: qubit system and
    units, one or two streams (unit-unit collisions need one), any
    erasure, up to three members and six steps.

    Hypothesis draws the structure and a seed; the seed draws the matrices
    and the continuous parameters, so no example is degenerate by accident.
    Probabilities and the erasure strength may also sit at 0 or 1.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def unit_interval():
        return draw(st.sampled_from([rng.uniform(), 0.0, 1.0]))

    mode = draw(st.sampled_from(("coherent", "incoherent", "off")))
    n_streams = draw(st.integers(1, 2)) if mode == "off" else 1
    streams = []
    for _ in range(n_streams):
        h = random_hermitian(rng, 2)
        beta = draw(st.sampled_from([rng.uniform(0.1, 3.0), None]))
        init = random_density_matrix(rng, 2) if beta is None else qstate.thermal_state(h, beta)
        streams.append(AncillaStream(2, h, init, beta=beta))
    cfg = CollisionConfig(
        2, random_hermitian(rng, 2), EXCITED, streams,
        [random_hermitian(rng, 4) for _ in streams], tau=rng.uniform(0.1, 2.0),
        coupling=rng.uniform(0.1, 1.5), n_steps=draw(st.integers(1, 6)),
        aa_swap_prob=unit_interval(), aa_mode=mode, aa_theta=rng.uniform(0.0, math.pi),
        erasure_lambda=unit_interval(), rng_seed=draw(st.integers(0, 1000)))
    return cfg, random_stack(rng, n=draw(st.integers(1, 3)))


class TestBackendProperty:
    @given(small_runs())
    def test_windowed_equals_full(self, run_args):
        cfg, inits = run_args
        windowed = run_stack(cfg, inits)
        full = run_stack(replace(cfg, backend="full"), inits)
        np.testing.assert_allclose(windowed.snapshots, full.snapshots, rtol=0, atol=1e-10)
        assert windowed.ledger.keys() == full.ledger.keys()
        for name, column in windowed.ledger.items():
            np.testing.assert_allclose(column, full.ledger[name], rtol=0, atol=1e-10,
                                       err_msg=name)


class TestRun:
    def test_single_step_composition_base_case(self):
        cfg = qubit_config(n_steps=1)
        traj = run(cfg)
        assert len(traj.records) == 1
        assert len(traj.snapshots) == 2

    def test_zero_steps_disallowed(self):
        with pytest.raises(ConfigError):
            run(qubit_config(n_steps=0))

    def test_negative_seed_disallowed(self):
        with pytest.raises(ConfigError, match="rng_seed"):
            run(qubit_config(rng_seed=-1))

    def test_markovian_distance_to_thermal_nonincreasing(self):
        cfg = qubit_config(theta=0.4, n_steps=40)
        traj = run(cfg)
        target = qstate.thermal_state(cfg.system_hamiltonian, 1.0)
        dist = [qstate.trace_distance(s, target) for s in traj.snapshots]
        assert all(b <= a + 1e-12 for a, b in zip(dist, dist[1:]))

    def test_determinism(self):
        cfg = qubit_config(theta=0.5, n_steps=10, aa_mode="incoherent",
                           aa_swap_prob=0.5, rng_seed=42)
        t1, t2 = run(cfg), run(cfg)
        for r1, r2 in zip(t1.records, t2.records):
            assert r1 == r2  # bit-identical records
        for s1, s2 in zip(t1.snapshots, t2.snapshots):
            assert np.array_equal(s1, s2)

    def test_semigroup_consistency(self):
        cfg = qubit_config(theta=0.35, n_steps=7)
        traj = run(cfg)
        mid = traj.snapshots[3]
        cont = run(replace(cfg, system_init=mid, n_steps=4))
        assert qstate.trace_distance(cont.snapshots[-1], traj.snapshots[-1]) < 1e-10

    def test_unitality_with_mixed_ancillas_and_swap(self):
        h = SZ / 2
        stream = AncillaStream(2, h, qstate.maximally_mixed(2))
        cfg = CollisionConfig(2, h, EXCITED, [stream],
                              [partial_swap_interaction(2)],
                              tau=1.0, coupling=0.6, n_steps=60)
        traj = run(cfg)
        assert qstate.trace_distance(traj.snapshots[-1], qstate.maximally_mixed(2)) < 1e-8

    def test_full_backend_cap(self):
        cfg = qubit_config(n_steps=12, backend="full")
        with pytest.raises(ConfigError):
            run(cfg)

    def test_full_backend_cap_is_inclusive(self):
        # 2 * 2**9 = 2**10: exactly at the default cap (validated, not run)
        qubit_config(n_steps=9, backend="full").validate()
        qubit_config(n_steps=3, backend="full", full_factor_cap=4).validate()
        with pytest.raises(ConfigError):
            qubit_config(n_steps=4, backend="full", full_factor_cap=4).validate()

    def test_full_backend_retains_joint(self):
        cfg = qubit_config(n_steps=3, backend="full")
        traj = run(cfg)
        assert traj.joint_snapshots[-1].shape == (16, 16)
        qstate.validate_density_matrix(traj.joint_snapshots[-1])


class TestChannelProperty:
    def test_trace_preserving_and_positive(self):
        rng = np.random.default_rng(1)
        channel = system_channel(qubit_config(theta=0.8))
        for _ in range(100):
            rho = random_density_matrix(rng, 2)
            out = channel(rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(linalg.hermitize(out))[0] > -1e-10


class TestEraseCorrelations:
    def make_correlated(self):
        u = partial_swap_unitary(2, 0.7)
        joint = linalg.kron(EXCITED, qstate.thermal_state(SZ, 1.0))
        return u @ joint @ u.conj().T

    def test_lambda_one_is_identity(self):
        joint = self.make_correlated()
        assert erase_correlations(joint, [2, 2], 1.0) is joint

    def test_lambda_zero_kills_mutual_information(self):
        joint = self.make_correlated()
        out = erase_correlations(joint, [2, 2], 0.0)
        assert mutual_information(out, [2, 2], 1) == pytest.approx(0.0, abs=1e-10)
        # marginals are untouched
        assert np.allclose(linalg.partial_trace(out, [2, 2], [0]),
                           linalg.partial_trace(joint, [2, 2], [0]), atol=1e-12)

    def test_partial_erasure_interpolates(self):
        joint = self.make_correlated()
        i_full = mutual_information(joint, [2, 2], 1)
        i_half = mutual_information(erase_correlations(joint, [2, 2], 0.5), [2, 2], 1)
        assert 0.0 < i_half < i_full

    def test_output_is_valid_state(self):
        out = erase_correlations(self.make_correlated(), [2, 2], 0.3)
        qstate.validate_density_matrix(out)


class TestAaCollision:
    def make_joint(self):
        rng = np.random.default_rng(2)
        return linalg.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))

    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    def test_p_zero_is_identity(self, mode):
        joint = self.make_joint()
        out = apply_aa_collision(joint, [2, 2], [0, 1], 0.0, mode, coin=0.3)
        assert np.array_equal(out, joint)

    def test_p_one_modes_coincide(self):
        joint = self.make_joint()
        a = apply_aa_collision(joint, [2, 2], [0, 1], 1.0, "coherent")
        b = apply_aa_collision(joint, [2, 2], [0, 1], 1.0, "incoherent", coin=0.5)
        s = swap_unitary(2)
        assert np.allclose(a, s @ joint @ s.conj().T, atol=1e-13)
        assert np.allclose(a, b, atol=1e-13)

    def test_half_probability_coherent_mixture(self):
        joint = self.make_joint()
        out = apply_aa_collision(joint, [2, 2], [0, 1], 0.5, "coherent")
        s = swap_unitary(2)
        expected = 0.5 * (s @ joint @ s.conj().T) + 0.5 * joint
        assert np.allclose(out, expected, atol=1e-13)


class TestRunPaired:
    def test_identical_inits(self):
        cfg = qubit_config(n_steps=5)
        ta, tb = run_paired(cfg, EXCITED, EXCITED.copy())
        assert all(r.D_pair == pytest.approx(0.0, abs=1e-12) for r in ta.records)

    def test_markovian_antipodal_nonincreasing(self):
        cfg = qubit_config(theta=0.5, n_steps=20)
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        d = [1.0] + [r.D_pair for r in ta.records]
        assert all(b <= a + 1e-10 for a, b in zip(d, d[1:]))

    def test_aa_swap_produces_revival(self):
        cfg = qubit_config(theta=0.3 * math.pi, n_steps=12, aa_mode="coherent",
                           aa_swap_prob=1.0)
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        d = [r.D_pair for r in ta.records]
        assert any(b > a + 1e-6 for a, b in zip(d, d[1:]))

    def test_incoherent_runs_share_coins(self):
        cfg = qubit_config(theta=0.4, n_steps=10, aa_mode="incoherent",
                           aa_swap_prob=0.5, rng_seed=7)
        ta, tb = run_paired(cfg, EXCITED, EXCITED.copy())
        # identical inputs through a shared realization stay identical
        for sa, sb in zip(ta.snapshots, tb.snapshots):
            assert np.array_equal(sa, sb)


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            qubit_config(aa_swap_prob=1.5).validate()

    def test_bad_interaction_dimension(self):
        cfg = qubit_config()
        cfg.interactions = [np.eye(3, dtype=complex)]
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_non_hermitian_interaction(self):
        cfg = qubit_config()
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1] = 1.0
        cfg.interactions = [v]
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_beta_mismatch(self):
        h = SZ / 2
        stream = AncillaStream(2, h, qstate.maximally_mixed(2), beta=3.0)
        with pytest.raises(ConfigError):
            stream.validate()

    def test_nan_coupling_names_field(self):
        with pytest.raises(ConfigError, match="coupling"):
            qubit_config(theta=math.nan).validate()

    def test_infinite_aa_theta_names_field(self):
        cfg = qubit_config(aa_mode="coherent", aa_swap_prob=0.5, aa_theta=math.inf)
        with pytest.raises(ConfigError, match="aa_theta"):
            cfg.validate()

    @pytest.mark.parametrize("field", ["system_hamiltonian", "system_init",
                                       "streams[0].hamiltonian",
                                       "streams[0].init_state", "interactions[0]"])
    def test_non_finite_matrix_names_field(self, field):
        cfg = qubit_config()
        st = cfg.streams[0]
        arrays = {"system_hamiltonian": cfg.system_hamiltonian.copy(),
                  "system_init": cfg.system_init.copy(),
                  "streams[0].hamiltonian": st.hamiltonian.copy(),
                  "streams[0].init_state": st.init_state.copy(),
                  "interactions[0]": cfg.interactions[0].copy()}
        arrays[field][0, 0] = np.nan
        cfg.system_hamiltonian = arrays["system_hamiltonian"]
        cfg.system_init = arrays["system_init"]
        cfg.streams = [replace(st, hamiltonian=arrays["streams[0].hamiltonian"],
                               init_state=arrays["streams[0].init_state"])]
        cfg.interactions = [arrays["interactions[0]"]]
        with pytest.raises(ConfigError, match=re.escape(field)):
            cfg.validate()

    @pytest.mark.parametrize("n_steps", [10.5, "10", True, None])
    def test_non_integer_n_steps_names_field(self, n_steps):
        with pytest.raises(ConfigError, match="n_steps"):
            qubit_config(n_steps=n_steps).validate()

    def test_numpy_integer_n_steps_accepted(self):
        qubit_config(n_steps=np.int64(3)).validate()

    def test_aa_needs_single_stream(self):
        h = SZ / 2
        stream = AncillaStream(2, h, qstate.thermal_state(h, 1.0), beta=1.0)
        cfg = CollisionConfig(2, h, EXCITED, [stream, stream],
                              [partial_swap_interaction(2)] * 2,
                              aa_mode="coherent", aa_swap_prob=0.5)
        with pytest.raises(ConfigError):
            cfg.validate()


def state_with_min_eig(min_eig, dim=8, trace=2.0):
    """A Hermitian matrix with smallest eigenvalue ``min_eig`` in a random basis."""
    rng = np.random.default_rng(3)
    vals = np.linspace(0.1, 1.0, dim)
    vals[0] = min_eig
    vals[1:] *= (trace - min_eig) / vals[1:].sum()
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return (q * vals) @ q.conj().T


class TestIntegrity:
    def test_non_finite_state_raises(self):
        joint = np.full((8, 8), np.nan, dtype=complex)
        with pytest.raises(IntegrityError, match="non-finite"):
            engine._integrity(joint, 3)

    def test_eigenvalue_below_floor_raises_and_quotes_it(self):
        with pytest.raises(IntegrityError, match="-1e-06"):
            engine._integrity(state_with_min_eig(-1e-6), 0)

    def test_rounding_above_floor_is_accepted_and_renormalized(self):
        out = engine._integrity(state_with_min_eig(-1e-9), 0)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(out - out.conj().T)) == 0.0

    def test_failed_factorization_alone_never_aborts(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("not positive definite")
        monkeypatch.setattr(np.linalg, "cholesky", fail)
        out = engine._integrity(state_with_min_eig(-9e-9), 0)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)

    def test_stack_names_the_failing_member(self):
        stack = np.array([state_with_min_eig(m) for m in (0.01, -1e-9, -1e-6, -1e-5)])
        with pytest.raises(IntegrityError, match=r"step 4, stack member 2: .*-1e-06"):
            engine._integrity(stack, 4)

    def test_stack_names_the_non_finite_member(self):
        stack = np.array([state_with_min_eig(0.01)] * 3)
        stack[1, 2, 3] = np.inf
        with pytest.raises(IntegrityError, match="step 0, stack member 1"):
            engine._integrity(stack, 0)

    def test_stack_renormalizes_each_member(self):
        stack = np.array([state_with_min_eig(0.01, trace=t) for t in (0.5, 2.0, 3.0)])
        out = engine._integrity(stack, 0)
        assert np.allclose(np.trace(out, axis1=1, axis2=2), 1.0, atol=1e-14, rtol=0)


def account(cfg, carried):
    """The deferred accounting of ``cfg`` over the carried states ``carried``."""
    unitaries = [collision_unitary(cfg, i) for i in range(len(cfg.streams))]
    return engine._account(cfg, unitaries, engine._step_keys(cfg), carried)


def carried_states(n_steps=8, members=3):
    """Valid qubit states, (n_steps + 1, members, 2, 2)."""
    rng = np.random.default_rng(4)
    return np.array([[random_density_matrix(rng, 2) for _ in range(members)]
                     for _ in range(n_steps + 1)])


class TestLedger:
    def test_eigenvalue_below_clamp_is_integrity_error(self):
        # -1e-9 passes the PSD_ABORT floor of the joint state but lies below
        # the entropy code's clamp window: a broken state, not bad input
        cfg = qubit_config(n_steps=8)
        carried = carried_states()
        carried[7, 1] = np.diag([1.0 + 1e-9, -1e-9])
        assert engine.PSD_ABORT < -1e-9 < -qstate.EIG_CLAMP
        with pytest.raises(IntegrityError, match="step 7"):
            account(cfg, carried)

    def test_fields_per_member(self):
        ledger = account(qubit_config(n_steps=8), carried_states())
        assert len(ledger) == len(engine.LEDGER_FIELDS)
        assert all(v.shape == (8, 3) for v in ledger)


BROKEN = np.diag([1.0 + 1e-6, -1e-6])     # fails the PSD_ABORT floor
CLAMPED = np.diag([1.0 + 1e-9, -1e-9])    # passes it, fails the clamp window


def plant(monkeypatch, step, member, state):
    """Make the windowed loop store ``state`` as the carried state of stack
    member ``member`` before step ``step``."""
    iterate = engine._iterate

    def planted(cfg, unitaries, keys, carried):
        iterate(cfg, unitaries, keys, carried)
        carried[step, member] = state
    monkeypatch.setattr(engine, "_iterate", planted)


class TestDeferredAccounting:
    """Aborts found by the accounting after the loop name the first failing
    step and stack member."""

    @pytest.mark.parametrize("state,message", [
        (BROKEN, r"lost positivity at step 4, stack member 2: min eigenvalue -7"),
        (CLAMPED, r"reduced state broken at step 4, stack member 2"),
    ])
    def test_names_step_and_member(self, state, message):
        carried = carried_states()
        carried[4, 2] = state
        with pytest.raises(IntegrityError, match=message):
            account(qubit_config(n_steps=8), carried)

    def test_through_run_stack(self, monkeypatch):
        plant(monkeypatch, 5, 1, BROKEN)
        with pytest.raises(IntegrityError, match="step 5, stack member 1"):
            run_stack(qubit_config(n_steps=8), random_stack(np.random.default_rng(1), n=3))

    @pytest.mark.parametrize("early,late", [(CLAMPED, BROKEN), (BROKEN, CLAMPED)])
    def test_first_failing_step_across_checks_and_streams(self, early, late):
        # steps 1 and 3 are stream 1's, steps 2 and 4 stream 0's, and the
        # 6 steps of 3 members are accounted in one block
        assert engine.LEDGER_BLOCK // 3 >= 6
        carried = carried_states(n_steps=6)
        carried[4, 0], carried[3, 2] = late, early
        with pytest.raises(IntegrityError, match="step 3, stack member 2"):
            account(two_stream_config(), carried)
        carried[3, 2] = carried[1, 2]
        carried[2, 1] = early
        with pytest.raises(IntegrityError, match="step 2, stack member 1"):
            account(two_stream_config(), carried)


def random_stack(rng, n=5, dim=2):
    return np.array([random_density_matrix(rng, dim) for _ in range(n)])


class TestRunStack:
    @pytest.mark.parametrize("backend", ["windowed", "full"])
    @pytest.mark.parametrize("mode,p", [("off", 0.0), ("coherent", 0.6),
                                        ("incoherent", 0.5)])
    def test_members_match_single_runs(self, backend, mode, p):
        cfg = qubit_config(theta=0.8, n_steps=5, aa_mode=mode, aa_swap_prob=p,
                           erasure_lambda=0.8, rng_seed=11, backend=backend)
        inits = random_stack(np.random.default_rng(8))
        stack = run_stack(cfg, inits)
        for b, init in enumerate(inits):
            member = stack.member(b)
            single = run(replace(cfg, system_init=init))
            pairs = list(zip(member.snapshots, single.snapshots))
            if backend == "full":
                pairs += list(zip(member.joint_snapshots, single.joint_snapshots))
            else:
                assert member.joint_snapshots is None
            for a, c in pairs:
                assert np.max(np.abs(a - c)) < 1e-12
            assert len(member.records) == len(single.records) == 5
            for ra, rc in zip(member.records, single.records):
                for name, value in vars(rc).items():
                    if isinstance(value, float):
                        assert getattr(ra, name) == pytest.approx(value, abs=1e-12), name
                    else:
                        assert getattr(ra, name) == value, name
            assert np.array_equal(member.config.system_init, init)

    def test_two_streams(self):
        h = SZ / 2
        streams = [AncillaStream(2, h, qstate.thermal_state(h, b), beta=b)
                   for b in (0.5, 2.0)]
        v = linalg.kron(SX, SX) + linalg.kron(SY, SY)
        cfg = CollisionConfig(2, h, EXCITED, streams, [v, v], coupling=0.7,
                              n_steps=4)
        inits = random_stack(np.random.default_rng(9), n=3)
        stack = run_stack(cfg, inits)
        single = run(replace(cfg, system_init=inits[2]))
        assert [r.stream for r in stack.member(2).records] == [0, 1, 0, 1]
        assert stack.member(2).records[3].Q == pytest.approx(single.records[3].Q,
                                                             abs=1e-12)

    def test_rejects_bad_stack(self):
        cfg = qubit_config()
        with pytest.raises(ConfigError, match="shape"):
            run_stack(cfg, EXCITED)
        with pytest.raises(ConfigError):
            run_stack(cfg, [EXCITED, 2 * GROUND])


def two_stream_config(**extra):
    h = SZ / 2
    streams = [AncillaStream(2, h, qstate.thermal_state(h, 0.5), beta=0.5),
               AncillaStream(2, h, qstate.thermal_state(h, 2.0), role="bath", beta=2.0)]
    v = linalg.kron(SX, SX) + linalg.kron(SY, SY)
    return CollisionConfig(2, h, EXCITED, streams, [v, v], coupling=0.7, n_steps=6,
                           **extra)


class TestLedgerColumns:
    """The per-step columns are the stored ledger; ``records`` is a view."""

    @staticmethod
    def assert_columns_match_records(traj):
        n = traj.config.n_steps
        records = traj.records
        assert [r.step for r in records] == list(range(n))
        assert [r.stream for r in records] == traj.config.stream_index().tolist()
        for name, column in traj.ledger.items():
            assert column.shape == (n,), name
            assert column.tolist() == [getattr(r, name) for r in records], name

    def test_two_stream_run(self):
        traj = run(two_stream_config())
        assert set(traj.ledger) == set(engine.LEDGER_FIELDS)
        assert traj.snapshots.shape == (7, 2, 2)
        self.assert_columns_match_records(traj)
        assert [r.role for r in traj.records] == ["resource", "bath"] * 3
        assert all(r.D_pair is None for r in traj.records)

    def test_incoherent_paired_run(self):
        cfg = qubit_config(theta=0.4, n_steps=8, aa_mode="incoherent",
                           aa_swap_prob=0.5, rng_seed=3)
        for traj in run_paired(cfg, EXCITED, GROUND):
            assert set(traj.ledger) == set(engine.LEDGER_FIELDS) | {"D_pair"}
            self.assert_columns_match_records(traj)

    @pytest.mark.parametrize("metric", ["trace", "jensen-shannon"])
    def test_d_pair_is_the_distinguishability_series(self, metric):
        cfg = qubit_config(theta=0.4, n_steps=8, aa_mode="incoherent",
                           aa_swap_prob=0.5, rng_seed=3, pair_metric=metric)
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        series = nonmarkov.distinguishability_series(ta, tb, metric)
        assert np.array_equal(ta.ledger["D_pair"], series[1:])
        assert np.array_equal(tb.ledger["D_pair"], series[1:])

    def test_member_slices_the_stack(self):
        stack = run_stack(two_stream_config(), random_stack(np.random.default_rng(2), n=3))
        member = stack.member(1)
        for name in engine.LEDGER_FIELDS:
            assert np.shares_memory(member.ledger[name], stack.ledger[name])
        assert np.shares_memory(member.snapshots, stack.snapshots)

    def test_records_are_read_only(self):
        record = run(qubit_config()).records[0]
        with pytest.raises(FrozenInstanceError):
            record.Q = 1.0
