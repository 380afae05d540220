import math
import re
import tracemalloc
from contextlib import suppress
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collisim import engine, linalg, nonmarkov, qstate, scenarios
from collisim.engine import (AncillaStream, CollisionConfig, collision_unitary,
                             erase_correlations, partial_swap_interaction,
                             partial_swap_unitary, run, run_paired, run_stack,
                             swap_unitary, system_channel)
from collisim.errors import ConfigError, IntegrityError
from conftest import (capture_joints, mutual_information, random_density_matrix,
                      random_hermitian)

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
        # a qubit and n qubit units: 2**(n + 1), exactly at the cap for
        # n = FULL_FACTOR_CAP - 1 (validated, not run: nothing is allocated)
        cap = engine.FULL_FACTOR_CAP
        qubit_config(n_steps=cap - 1, backend="full").validate()
        with pytest.raises(ConfigError, match=f"joint dimension {2 ** (cap + 1)} exceeds"):
            qubit_config(n_steps=cap, backend="full").validate()

    def test_full_backend_records_the_bound_inputs(self, monkeypatch):
        # after each step: the units' state, and the correlation term of the
        # joint state with the product of its marginals, in the pair metric
        cfg = qubit_config(n_steps=3, backend="full")
        joints = capture_joints(monkeypatch)
        traj = run(cfg)
        assert [env.shape for env in traj.env_states] == [(2, 2), (4, 4), (8, 8)]
        assert traj.correlations.shape == (3,)
        for s, (env, corr) in enumerate(zip(traj.env_states, traj.correlations), 1):
            qstate.validate_density_matrix(env)
            joint, dims = joints[s][0], [2] * (s + 1)
            assert joint.shape == (2 ** (s + 1),) * 2
            qstate.validate_density_matrix(joint)
            assert np.array_equal(env, linalg.partial_trace(joint, dims, range(1, s + 1)))
            assert corr == qstate.trace_distance(
                joint, linalg.kron(linalg.partial_trace(joint, dims, [0]), env))
        assert traj.correlations[-1] > 1e-3

    def test_full_backend_keeps_no_joint_state(self):
        # the 9-qubit joint state (512 x 512) of an 8-step run is not kept:
        # no array the trajectory holds is larger than its last environment state
        traj = run(qubit_config(n_steps=8, backend="full"))
        assert traj.env_states[-1].shape == (256, 256)
        assert max(root_nbytes(a) for a in arrays_in(traj)) == traj.env_states[-1].nbytes


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


class TestUnitUnitCollision:
    """The unit-unit collision of the engine's own step, on a carried
    system-unit qubit pair: map 1 collides the fresh unit with the carried
    one before the system-unit collision, map 0 does not."""

    @staticmethod
    def steps(mode, p):
        """The states before and after the system-unit collision, under
        maps 0 and 1, and those two maps."""
        cfg = qubit_config(theta=0.8, n_steps=4, aa_mode=mode, aa_swap_prob=p, rng_seed=1)
        unitaries = [collision_unitary(cfg, 0)]
        carried = random_stack(np.random.default_rng(2), n=3, dim=4)
        states = [engine._collide(cfg, unitaries, carried, [2, 2], key)[:2] for key in (0, 1)]
        return states, engine._maps(cfg, unitaries, np.array([0, 1]))

    @staticmethod
    def swapped(joint):
        """``joint`` with its two units swapped."""
        s = linalg.kron(I2, swap_unitary(2))
        return s @ joint @ s.conj().T

    def test_coherent_p_zero_is_identity(self):
        (plain, mixed), maps = self.steps("coherent", 0.0)
        for a, b in zip(plain, mixed):
            assert np.array_equal(a, b)
        assert np.array_equal(maps[0][0], maps[1][0])
        assert np.array_equal(maps[0][1], maps[1][1])

    def test_coherent_p_one_is_an_acting_incoherent_step(self):
        (plain, coherent), _ = self.steps("coherent", 1.0)
        (_, incoherent), _ = self.steps("incoherent", 0.5)
        assert np.max(np.abs(coherent[0] - self.swapped(plain[0]))) <= 1e-13
        for a, b in zip(coherent, incoherent):
            assert np.max(np.abs(a - b)) <= 1e-13

    def test_coherent_half_is_the_exact_mixture(self):
        (plain, mixed), _ = self.steps("coherent", 0.5)
        expected = 0.5 * self.swapped(plain[0]) + 0.5 * plain[0]
        assert np.max(np.abs(mixed[0] - expected)) <= 1e-13


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
        with pytest.raises(ConfigError, match="stream beta does not match init_state"):
            replace(qubit_config(), streams=[stream]).validate()

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

    @pytest.mark.parametrize("log_base", [1.0, -2.0, math.nan, 0.5, math.inf])
    def test_log_base_must_be_finite_and_above_one(self, log_base):
        with pytest.raises(ConfigError, match=r"^log_base must be finite and > 1, got "):
            run(qubit_config(log_base=log_base))

    @pytest.mark.parametrize("field,value", [
        ("rng_seed", 1.5), ("rng_seed", "3"), ("rng_seed", True),
        ("system_dim", 2.0), ("streams[0].dim", 2.0)])
    def test_non_integer_field_is_named(self, field, value):
        cfg = qubit_config(aa_mode="incoherent", aa_swap_prob=0.5)
        if field == "streams[0].dim":
            cfg.streams = [replace(cfg.streams[0], dim=value)]
        else:
            setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be an integer, got ")):
            run(cfg)

    def test_numpy_integer_fields_accepted(self):
        cfg = qubit_config(aa_mode="incoherent", aa_swap_prob=0.5, rng_seed=np.int64(3))
        cfg.system_dim = np.int64(2)
        cfg.streams = [replace(cfg.streams[0], dim=np.int64(2))]
        assert run(cfg).snapshots.shape == (6, 2, 2)

    def test_run_too_large_to_store_is_rejected_before_anything_is_built(self, monkeypatch):
        # a qubit run of 10**9 steps would store about 176 GB; none of it is made
        def unbuilt(*args):
            raise AssertionError("a collision unitary was built")
        monkeypatch.setattr(engine, "collision_unitary", unbuilt)
        with pytest.raises(ConfigError, match="n_steps is too large: at 176 bytes per step"):
            run(qubit_config(n_steps=10**9))

    @pytest.mark.parametrize("mode", ["off", "coherent"])
    def test_largest_storable_run_is_accepted(self, mode):
        # validation alone: neither run is allocated
        cfg = qubit_config(aa_mode=mode, aa_swap_prob=0.5)
        limit = engine.MAX_RUN_BYTES // engine._step_bytes(cfg) - 1
        replace(cfg, n_steps=limit).validate()
        with pytest.raises(ConfigError, match=f"at most {limit} steps"):
            replace(cfg, n_steps=limit + 1).validate()

    def test_aa_needs_single_stream(self):
        h = SZ / 2
        stream = AncillaStream(2, h, qstate.thermal_state(h, 1.0), beta=1.0)
        cfg = CollisionConfig(2, h, EXCITED, [stream, stream],
                              [partial_swap_interaction(2)] * 2,
                              aa_mode="coherent", aa_swap_prob=0.5)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("reject,fragment", [
        (lambda: replace(qubit_config(), tau=0.0).validate(), "tau must be positive"),
        (lambda: qubit_config(erasure_lambda=1.5).validate(), "erasure_lambda must lie"),
        (lambda: qubit_config(backend="gpu").validate(), "unknown backend 'gpu'"),
        (lambda: qubit_config(pair_metric="js").validate(), "unknown pair_metric 'js'"),
        (lambda: replace(qubit_config(), system_init=qstate.maximally_mixed(3)).validate(),
         "system_init dimension mismatch"),
        (lambda: replace(qubit_config(), system_hamiltonian=np.eye(3)).validate(),
         "system Hamiltonian dimension mismatch"),
        (lambda: replace(qubit_config(), streams=[], interactions=[]).validate(),
         "at least one ancilla stream"),
        (lambda: replace(qubit_config(), streams=qubit_config().streams * 2).validate(),
         "one interaction matrix per stream"),
        (lambda: with_field(qubit_config(), "streams[0].role", "sink").validate(),
         "unknown stream role 'sink'"),
        (lambda: with_field(qubit_config(), "streams[0].hamiltonian", np.eye(3)).validate(),
         "stream Hamiltonian dimension mismatch"),
        (lambda: replace(qubit_config(), streams=[replace(
            qubit_config().streams[0], beta=None,
            init_state=qstate.maximally_mixed(3))]).validate(),
         "stream init_state dimension mismatch"),
        (lambda: collision_unitary(replace(qubit_config(theta=1e308), interactions=[
            linalg.kron(SX, SX) - linalg.kron(SY, SY)]), 0),  # entries 2e308
         "collision Hamiltonian of stream 0 overflows: coupling 1e+308"),
        (lambda: partial_swap_unitary(1, 0.3), "partial swap needs dim >= 2"),
        (lambda: qubit_config(aa_mode="sometimes").validate(), "aa_mode must be one of"),
        (lambda: erase_correlations(np.eye(4) / 4, [2, 2], 1.5), "erasure lambda must lie"),
        (lambda: run(replace(qubit_config(), system_dim=0, system_hamiltonian=np.zeros((0, 0)),
                             system_init=np.zeros((0, 0)))), "non-empty, got (0, 0)"),
        (lambda: run_stack(qubit_config(), np.zeros((0, 2, 2))), "non-empty, got (0, 2, 2)"),
    ])
    def test_rejection_names_its_cause(self, reject, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            reject()

    @pytest.mark.parametrize("field,value", [
        ("log_base", "2"), ("tau", "1"), ("aa_swap_prob", "0.5"), ("tau", 1 + 0j),
        ("streams[0].beta", "1"), ("coupling", 1 + 1j), ("tau", True),
        ("streams[0].beta", True)])
    def test_non_real_field_is_named(self, field, value):
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be a real number, got ")):
            run(with_field(qubit_config(), field, value))

    # a nested list with a nan entry: the type is named before finiteness
    @pytest.mark.parametrize("value", [[[math.nan, 0.0], [0.0, 1.0]], None, "1"])
    @pytest.mark.parametrize("field", ["system_hamiltonian", "system_init",
                                       "streams[0].hamiltonian",
                                       "streams[0].init_state", "interactions[0]"])
    def test_matrix_that_is_not_an_array_is_named(self, field, value):
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be a numpy array, got ")):
            run(with_field(qubit_config(), field, value))


def with_field(cfg, field, value):
    """``cfg`` with one field set: a top-level name, ``interactions[0]`` or
    ``streams[0].<name>``."""
    if field == "interactions[0]":
        return replace(cfg, interactions=[value])
    if field.startswith("streams[0]."):
        stream = replace(cfg.streams[0], **{field.removeprefix("streams[0]."): value})
        return replace(cfg, streams=[stream])
    return replace(cfg, **{field: value})


MALFORMED_VALUES = ["1", True, None, 1 + 0j, [[1.0]], math.nan, math.inf, -1]
MALFORMED_FIELDS = ([f.name for f in fields(CollisionConfig)
                     if f.name not in ("streams", "interactions")] + ["interactions[0]"]
                    + [f"streams[0].{f.name}" for f in fields(AncillaStream)])


class TestMalformedFields:
    """Each field of a 3-step qubit configuration set to each malformed
    value: the run either goes through or is a ``ConfigError``."""

    @pytest.mark.parametrize("value", MALFORMED_VALUES)
    @pytest.mark.parametrize("field", MALFORMED_FIELDS)
    def test_runs_or_is_a_config_error(self, field, value):
        with suppress(ConfigError):
            run(with_field(qubit_config(n_steps=3), field, value))


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

    @pytest.mark.parametrize("backend", ["windowed", "full"])
    def test_backends_name_a_broken_state_by_its_carried_index(self, monkeypatch, backend):
        # the erasure after collision 5 gives NaN: the state it yields is
        # carried[5], and both backends name it step 5
        calls = []

        def erase(joint, dims, lam):
            calls.append(1)
            out = erase_correlations(joint, dims, lam)
            return out * np.nan if len(calls) == 5 else out
        monkeypatch.setattr(engine, "erase_correlations", erase)
        cfg = qubit_config(n_steps=8, aa_mode="coherent", aa_swap_prob=0.5,
                           erasure_lambda=0.7, backend=backend)
        with pytest.raises(IntegrityError, match=r"^state has non-finite entries at step 5, "
                                                 r"stack member 0$") as caught:
            run(cfg)
        assert caught.value.step == 5

    def test_scan_row_peak_stays_near_its_carried_states(self):
        # a pair scan's row: 400 steps of 48 members with a carried unit; the
        # propagation checks each position block of the scan as it stores it,
        # so nothing of the size of the whole run is built beside it
        cfg = qubit_config(n_steps=400, aa_mode="incoherent", aa_swap_prob=0.5, rng_seed=3)
        row = random_stack(np.random.default_rng(7), n=48)
        carried = (cfg.n_steps + 1) * len(row) * 4 * 4 * np.dtype(complex).itemsize
        list(engine._snapshot_stacks(cfg, [row]))  # a warm row
        tracemalloc.start()
        try:
            list(engine._snapshot_stacks(cfg, [row]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * carried

    def test_first_failing_step_of_a_block(self):
        # 90 steps of 3 members, more than LEDGER_BLOCK states: of the two
        # failures, the first names its step and member
        rng = np.random.default_rng(8)
        block = np.array([random_density_matrix(rng, 2)
                          for _ in range(90 * 3)]).reshape(90, 3, 2, 2)
        assert engine.LEDGER_BLOCK <= 88 * 3 + 2 < 2 * engine.LEDGER_BLOCK
        out = engine._integrity(block, np.arange(1, 91))
        assert out.shape == block.shape
        assert np.allclose(out, block, atol=1e-15, rtol=0)
        block[88, 2], block[89, 0] = BROKEN, state_with_min_eig(-1e-5, dim=2, trace=1.0)
        with pytest.raises(IntegrityError, match=r"at step 89, stack member 2: min "
                                                 r"eigenvalue -1e-06") as caught:
            engine._integrity(block, np.arange(1, 91))
        assert caught.value.step == 89


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The matrix dimension of every ``np.linalg.cholesky`` call, in order."""
    calls, dense = [], np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(a.shape[-1])
        return dense(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def sector_state(min_eig, sizes=(30, 20, 14), seed=5):
    """A permuted block-diagonal Hermitian matrix, 64 dims by default, with
    exact zeros between its blocks and smallest eigenvalue ``min_eig`` in
    the second block, the others' smallest being 0.01; and its blocks."""
    blocks = [state_with_min_eig(min_eig if i == 1 else 0.01, dim=n)
              for i, n in enumerate(sizes)]
    ends = np.cumsum(sizes)
    h = np.zeros((ends[-1], ends[-1]), dtype=complex)
    for block, end, n in zip(blocks, ends, sizes):
        h[end - n:end, end - n:end] = block
    perm = np.random.default_rng(seed).permutation(ends[-1])
    inverse = np.argsort(perm)
    return h[perm[:, None], perm], [np.sort(inverse[end - n:end])
                                    for end, n in zip(ends, sizes)]


class TestIntegrityBySector:
    """Given blocks, the floor is one Cholesky factorization per block; the
    verdicts and messages are those of the dense check.  Without blocks the
    check never labels a state: it is one dense factorization."""

    def test_eigenvalue_below_floor_in_one_block_raises_and_quotes_it(self, cholesky_calls):
        state, blocks = sector_state(-1e-6)
        with pytest.raises(IntegrityError, match=r"^state lost positivity at step 0, stack "
                                                 r"member 0: min eigenvalue -1e-06$"):
            engine._integrity(state, 0, blocks)
        assert cholesky_calls and set(cholesky_calls) <= {30, 20, 14}

    def test_rounding_above_floor_is_accepted_and_renormalized(self, cholesky_calls):
        state, blocks = sector_state(-9e-9)
        out = engine._integrity(state, 0, blocks)
        assert sorted(cholesky_calls) == [14, 20, 30]
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)
        assert np.array_equal(out == 0, state == 0)

    def test_stack_names_the_member_failing_in_one_block(self, cholesky_calls):
        # member 2 fails in its second block, member 3 in a block of its own
        # pattern: the blocks given are the union over the stack (50 and 14),
        # and the first failing member is named
        stack = np.array([sector_state(m)[0] for m in (0.01, -9e-9, -1e-6)]
                         + [sector_state(-1e-5, sizes=(20, 30, 14))[0]])
        blocks = sector_state(0.01)[1]
        union = [np.sort(np.concatenate(blocks[:2])), blocks[2]]
        with pytest.raises(IntegrityError, match=r"^state lost positivity at step 4, stack "
                                                 r"member 2: min eigenvalue -1e-06$"):
            engine._integrity(stack, 4, union)
        assert cholesky_calls and set(cholesky_calls) <= {50, 14}

    @pytest.fixture
    def no_labels(self, monkeypatch):
        def no_labels(pattern):
            raise AssertionError("the check labelled a state")
        monkeypatch.setattr(linalg, "sectors", no_labels)

    def test_non_finite_entry_is_reported_before_any_labelling(self, no_labels):
        stack = np.array([sector_state(0.01)[0]] * 3)
        stack[1, 2, 3] = np.inf
        with pytest.raises(IntegrityError, match=r"^state has non-finite entries at step 0, "
                                                 r"stack member 1$"):
            engine._integrity(stack, 0)

    def test_given_blocks_are_factorized(self, cholesky_calls):
        state, blocks = sector_state(0.01)
        wider = [np.sort(np.concatenate(blocks[:2])), blocks[2]]
        engine._integrity(state, 0, wider)
        assert cholesky_calls == [50, 14]

    def test_without_blocks_is_one_dense_call(self, cholesky_calls, no_labels):
        state, _ = sector_state(0.01)
        out = engine._integrity(state, 0)
        assert cholesky_calls == [64]
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)

    def test_without_blocks_the_failure_spectrum_is_dense(self, no_labels):
        with pytest.raises(IntegrityError, match=r"^state lost positivity at step 0, stack "
                                                 r"member 0: min eigenvalue -1e-06$"):
            engine._integrity(sector_state(-1e-6)[0], 0)


def grow_checks(monkeypatch, cholesky_calls) -> dict:
    """Filled by the full-backend runs that follow: the dimension of each
    factorization in the check of a joint state of 64 dims or more, keyed
    by its step; the first run's, when several runs follow."""
    checks, integrity = {}, engine._integrity

    def counted(joint, steps, *blocks):
        start = len(cholesky_calls)
        out = integrity(joint, steps, *blocks)
        if joint.shape[-1] >= 64:
            checks.setdefault(steps, cholesky_calls[start:])
        return out
    monkeypatch.setattr(engine, "_integrity", counted)
    return checks


class TestSectorPlan:
    def test_product_joins_the_joints_sectors(self):
        # |psi> has no |11> component, so the joint's pattern splits {3} off;
        # rho_S and rho_E both have coherences, and their product links 0 and 3
        psi = np.array([0.6, 0.48, 0.64, 0.0])
        joint = 0.7 * np.outer(psi, psi) + np.diag([0.0, 0.0, 0.0, 0.3])
        product = linalg.kron(linalg.partial_trace(joint, [2, 2], [0]),
                              linalg.partial_trace(joint, [2, 2], [1]))
        assert len(linalg.sectors(joint != 0)) == 2 and product[0, 3] != 0
        assert [b.tolist() for b in engine._sector_plan(joint[None], [2, 2])] \
            == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("metric,distance,tol", [
        ("trace", qstate.trace_distance, 1e-13), ("jensen-shannon", qstate.js_distance, 0)],
        ids=qstate.METRICS)
    def test_stack_correlations_match_each_members_distance(self, monkeypatch, metric,
                                                            distance, tol):
        # one member without coherences, one with: the trace terms go along
        # the plan, the union over the stack, and the Jensen-Shannon terms are
        # one stacked call; each member's term is its own distance
        cfg = qubit_config(n_steps=6, backend="full", aa_mode="coherent", aa_swap_prob=0.5,
                           pair_metric=metric)
        joints = capture_joints(monkeypatch)
        stack = run_stack(cfg, [EXCITED, qstate.bloch_state(1.0, 0.5)])
        for s in range(1, 7):
            dims = [2] * (s + 1)
            for b, joint in enumerate(joints[s]):
                product = linalg.kron(linalg.partial_trace(joint, dims, [0]),
                                      linalg.partial_trace(joint, dims, range(1, s + 1)))
                assert stack.correlations[s - 1, b] == pytest.approx(
                    distance(joint, product), abs=tol)


class TestSectorCounts:
    """The factorizations the full backend's checks make, by dimension."""

    @pytest.mark.parametrize("metric", qstate.METRICS)
    def test_oracle_pair_factorizes_excitation_sectors(self, monkeypatch, cholesky_calls,
                                                       metric):
        # the default 8-step oracle pair (coherent, p = 1): the 9-qubit joint
        # splits into the sectors of fixed excitation number, C(9, k) each,
        # under either pair metric
        p = scenarios.NONMARKOV_DEFAULTS
        cfg = scenarios._pswap_config(p, 0, 2.0, aa_mode="coherent", aa_swap_prob=1.0,
                                      pair_metric=metric)
        checks = grow_checks(monkeypatch, cholesky_calls)
        run_paired(replace(cfg, n_steps=p["bound_steps"], backend="full"),
                   scenarios.EXCITED, scenarios.GROUND)
        assert sorted(checks) == [5, 6, 7, 8]
        assert sorted(checks[8], reverse=True) == [126, 126, 84, 84, 36, 36, 9, 9, 1, 1]
        assert max(cholesky_calls) == 126

    def test_landauer_factorizes_two_parity_blocks(self, monkeypatch, cholesky_calls):
        cfg = scenarios._landauer_config(scenarios.LANDAUER_DEFAULTS, 1.0, 0, 2.0)
        checks = grow_checks(monkeypatch, cholesky_calls)
        run(replace(cfg, n_steps=8, backend="full"))
        assert checks[8] == [256, 256]

    def test_coherent_start_factorizes_one_dense_matrix(self, monkeypatch, cholesky_calls):
        cfg = scenarios._landauer_config(scenarios.LANDAUER_DEFAULTS, 1.0, 0, 2.0)
        checks = grow_checks(monkeypatch, cholesky_calls)
        run(replace(cfg, n_steps=8, backend="full", system_init=qstate.bloch_state(1.0, 0.5)))
        assert checks[8] == [512]


def account(cfg, carried):
    """The deferred accounting of ``cfg`` over the carried states ``carried``."""
    unitaries = [collision_unitary(cfg, i) for i in range(len(cfg.streams))]
    keys = engine._step_keys(cfg)
    return engine._account(cfg, engine._maps(cfg, unitaries, keys), keys, carried)


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

    def test_one_eigensolve_per_reduced_state(self, monkeypatch):
        # the system and the unit before and after the collision, and their
        # pair: five spectra; the unit's eigenvectors before it give D_env_relent
        cfg = qubit_config(n_steps=8)
        keys = engine._step_keys(cfg)
        maps = engine._maps(cfg, [collision_unitary(cfg, 0)], keys)
        calls = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, solve=solve: calls.append(a.shape) or solve(a))
        engine._block_ledger(cfg, maps, 0, carried_states()[:8], np.arange(8))
        assert sorted(calls) == [(8, 3, 2, 2)] * 4 + [(8, 3, 4, 4)]


class TestStepMaps:
    """The maps of each key, applied to a carried stack, give what
    ``_collide`` gives on it directly."""

    @staticmethod
    def assert_maps_match(cfg, n_keys):
        unitaries = [collision_unitary(cfg, i) for i in range(len(cfg.streams))]
        maps = engine._maps(cfg, unitaries, engine._step_keys(cfg))
        assert len(maps) == n_keys
        dims = engine._carried_dims(cfg)
        carried = random_stack(np.random.default_rng(6), n=4, dim=math.prod(dims))
        for key, (after_map, pre_e_map, out) in enumerate(maps):
            before, after, direct_out = engine._collide(cfg, unitaries, carried, dims, key)
            assert out == direct_out
            assert np.max(np.abs(engine._apply(after_map, carried) - after)) <= 1e-13
            pre_e = linalg.partial_trace(before, out, [len(out) - 1])
            assert np.max(np.abs(engine._apply(pre_e_map, carried) - pre_e)) <= 1e-13

    @pytest.mark.parametrize("erasure", [1.0, 0.6])
    @pytest.mark.parametrize("mode,p,n_keys", [("off", 0.0, 1), ("coherent", 0.6, 2),
                                               ("incoherent", 1.0, 2)])
    def test_one_stream(self, mode, p, n_keys, erasure):
        self.assert_maps_match(qubit_config(theta=0.8, n_steps=4, aa_mode=mode,
                                            aa_swap_prob=p, erasure_lambda=erasure),
                               n_keys)

    @pytest.mark.parametrize("erasure", [1.0, 0.6])
    def test_two_streams(self, erasure):
        self.assert_maps_match(two_stream_config(erasure_lambda=erasure), 2)

    def test_two_qubit_system(self):
        p = dict(scenarios.TWO_QUBIT_DEFAULTS, n_steps=4)
        self.assert_maps_match(scenarios._two_qubit_config(p, 0, 2.0), 2)


def reference_iterate(cfg, maps, keys, carried):
    """The windowed backend one step at a time, as ``engine._iterate`` ran
    before the blocked scan: the reference the scan is checked against."""
    dims = engine._carried_dims(cfg)
    transfer = [linalg.partial_trace(after, out, engine._kept(cfg, out))
                for after, _, out in maps]
    c = carried[0]
    for k, key in enumerate(keys.tolist()):
        c = engine._apply(transfer[key], c)
        if len(dims) > 1:
            c = erase_correlations(c, dims, cfg.erasure_lambda)
        c = linalg.hermitize(c)
        carried[k + 1] = c = c / c.trace(axis1=1, axis2=2).real[:, None, None]


def scan_inputs(cfg, members):
    """What ``engine._iterate`` takes for a random stack of ``members``: the
    maps, the step keys, and the carried states with only the first filled."""
    _, keys, maps = engine._setup(cfg)
    first = random_stack(np.random.default_rng(members), n=members)
    if len(engine._carried_dims(cfg)) > 1:
        first = linalg.kron(first, cfg.streams[0].init_state)
    carried = np.empty((cfg.n_steps + 1,) + first.shape, dtype=complex)
    carried[0] = first
    return maps, keys, carried


def iterated(cfg, members, iterate):
    """The carried states that ``iterate`` fills from ``scan_inputs``."""
    maps, keys, carried = scan_inputs(cfg, members)
    iterate(cfg, maps, keys, carried)
    return carried


SCAN_CHANNELS = {
    "one stream": lambda n: qubit_config(theta=0.8, n_steps=n),
    "two streams": lambda n: replace(two_stream_config(), n_steps=n),
    "coherent": lambda n: qubit_config(theta=0.8, n_steps=n, aa_mode="coherent",
                                       aa_swap_prob=0.6),
    "incoherent": lambda n: qubit_config(theta=0.8, n_steps=n, aa_mode="incoherent",
                                         aa_swap_prob=0.5, rng_seed=11),
}


class TestBlockedScan:
    """The windowed backend's blocked scan gives the step-by-step loop's
    carried states; erasure of a carried unit still goes step by step."""

    @pytest.mark.parametrize("members", [1, 5])
    @pytest.mark.parametrize("channel", list(SCAN_CHANNELS))
    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 4000])
    def test_matches_the_step_by_step_loop(self, n, channel, members):
        cfg = SCAN_CHANNELS[channel](n)
        scan = iterated(cfg, members, engine._iterate)
        assert np.max(np.abs(scan - iterated(cfg, members, reference_iterate))) <= 1e-13
        # every stored state hermitized and renormalized
        assert np.array_equal(scan[1:], linalg.hermitize(scan[1:]))
        assert np.max(np.abs(np.trace(scan, axis1=2, axis2=3) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("members", [1, 5])
    @pytest.mark.parametrize("channel", ["coherent", "incoherent"])
    @pytest.mark.parametrize("n", [1, 17, 200])
    def test_erasure_of_a_carried_unit_is_the_loop_bitwise(self, n, channel, members):
        cfg = replace(SCAN_CHANNELS[channel](n), erasure_lambda=0.7)
        assert np.array_equal(iterated(cfg, members, engine._iterate),
                              iterated(cfg, members, reference_iterate))

    @staticmethod
    def hermitize_calls(monkeypatch, cfg):
        maps, keys, carried = scan_inputs(cfg, 2)
        calls, hermitize = [], linalg.hermitize
        monkeypatch.setattr(linalg, "hermitize", lambda a: calls.append(1) or hermitize(a))
        engine._iterate(cfg, maps, keys, carried)
        return len(calls)

    def test_scan_takes_order_sqrt_n_steps(self, monkeypatch):
        n = 4000
        calls = self.hermitize_calls(monkeypatch, SCAN_CHANNELS["two streams"](n))
        assert calls <= 3 * math.ceil(math.sqrt(n))

    def test_erasure_takes_one_step_per_collision(self, monkeypatch):
        n = 4000
        cfg = replace(SCAN_CHANNELS["coherent"](n), erasure_lambda=0.7)
        assert self.hermitize_calls(monkeypatch, cfg) == n


BROKEN = np.diag([1.0 + 1e-6, -1e-6])     # fails the PSD_ABORT floor
CLAMPED = np.diag([1.0 + 1e-9, -1e-9])    # passes it, fails the clamp window


def plant(monkeypatch, step, member, state):
    """Make the windowed loop store ``state`` as the carried state of stack
    member ``member`` before step ``step``."""
    iterate = engine._iterate

    def planted(cfg, maps, keys, carried):
        iterate(cfg, maps, keys, carried)
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


MEMBERS = 32
BLOCK_STEPS = engine.LEDGER_BLOCK // MEMBERS  # steps in one accounting block


class TestAbortAcrossBlocks:
    """The first failing step wins across a ``LEDGER_BLOCK`` boundary: the
    run has two blocks of steps, and every failure sits in the second."""

    @staticmethod
    def config():
        return replace(two_stream_config(), n_steps=BLOCK_STEPS + 4)

    @pytest.mark.parametrize("state", [BROKEN, CLAMPED])
    def test_only_failure_in_second_block(self, state):
        step = BLOCK_STEPS + 2
        carried = carried_states(n_steps=step + 2, members=MEMBERS)
        carried[step, 5] = state
        with pytest.raises(IntegrityError, match=f"step {step}, stack member 5"):
            account(self.config(), carried)

    # with an even BLOCK_STEPS the late step is stream 0's, whose map its
    # block accounts first; the early step is of the same stream or the other
    @pytest.mark.parametrize("early_step", [BLOCK_STEPS, BLOCK_STEPS + 1])
    @pytest.mark.parametrize("early,late", [(CLAMPED, BROKEN), (BROKEN, CLAMPED)])
    def test_first_failing_step_wins(self, early, late, early_step):
        carried = carried_states(n_steps=BLOCK_STEPS + 4, members=MEMBERS)
        carried[early_step, 3], carried[BLOCK_STEPS + 2, 7] = early, late
        with pytest.raises(IntegrityError, match=f"step {early_step}, stack member 3"):
            account(self.config(), carried)

    @pytest.mark.parametrize("early_step", [BLOCK_STEPS, BLOCK_STEPS + 1])
    @pytest.mark.parametrize("early,late", [(CLAMPED, BROKEN), (BROKEN, CLAMPED)])
    def test_through_run_stack(self, monkeypatch, early, late, early_step):
        plant(monkeypatch, BLOCK_STEPS + 2, 7, late)
        plant(monkeypatch, early_step, 3, early)
        with pytest.raises(IntegrityError, match=f"step {early_step}, stack member 3"):
            run_stack(self.config(), random_stack(np.random.default_rng(5), n=MEMBERS))


def arrays_in(obj):
    """Every numpy array reachable from ``obj`` through dataclass fields,
    dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from arrays_in(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from arrays_in(value)
    elif is_dataclass(obj):
        for field in fields(obj):
            yield from arrays_in(getattr(obj, field.name))


def root_nbytes(a: np.ndarray) -> int:
    """The bytes of the array that ``a`` views, or of ``a`` itself."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


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
                pairs += list(zip(member.env_states, single.env_states))
                pairs.append((member.correlations, single.correlations))
            else:
                assert member.env_states is None and member.correlations is None
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

    def test_rejects_one_bad_member(self):
        inits = random_stack(np.random.default_rng(3))
        inits[2] = np.diag([1.25, -0.25])
        with pytest.raises(ConfigError, match="negative eigenvalue -0.25"):
            run_stack(qubit_config(), inits)


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
        series = nonmarkov.distinguishability_series(ta, tb)
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
