import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collisim import linalg, qstate, thermo
from collisim.engine import (LEDGER_FIELDS, AncillaStream, CollisionConfig, Trajectory,
                             collision_unitary, partial_swap_interaction, run,
                             run_stack, swap_unitary, system_channel)
from collisim.errors import ConfigError, NotConvergedError
from conftest import random_density_matrix, random_hermitian
from test_engine import small_runs

SX, SY, SZ, I2 = linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z, linalg.EYE2
EXCITED = qstate.pure_state([1, 0])
GROUND = qstate.pure_state([0, 1])

BATTERY_V = linalg.kron(SX, SX) - linalg.kron(SY, SY)
EXCHANGE_V = linalg.kron(SX, SX) + linalg.kron(SY, SY)


def make_config(v, h_s=None, h_e=None, init=None, anc=None, beta=1.0,
                theta=0.4, **extra):
    h_s = SZ / 2 if h_s is None else h_s
    h_e = SZ / 2 if h_e is None else h_e
    anc = qstate.thermal_state(h_e, beta) if anc is None else anc
    stream = AncillaStream(2, h_e, anc, beta=beta)
    return CollisionConfig(
        system_dim=2, system_hamiltonian=h_s,
        system_init=EXCITED if init is None else init,
        streams=[stream], interactions=[v], tau=1.0, coupling=theta, **extra)


def collide_once(cfg):
    """One explicit conjugation, returning (joint_before, joint_after)."""
    joint = linalg.kron(cfg.system_init, cfg.streams[0].init_state)
    u = collision_unitary(cfg, 0)
    return joint, u @ joint @ u.conj().T


class TestHeatToAncilla:
    """The engine's Q column: heat into the colliding unit."""

    def test_no_coupling(self):
        cfg = make_config(partial_swap_interaction(2), theta=0.0)
        q = run(cfg).ledger["Q"][0]
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_full_swap_excited_into_ground(self):
        # resonant full swap moves exactly one quantum omega into the unit
        omega = 1.3
        cfg = make_config(partial_swap_interaction(2), h_s=omega * SZ / 2,
                          h_e=omega * SZ / 2, anc=GROUND, beta=None,
                          theta=math.pi / 2)
        q = run(cfg).ledger["Q"][0]
        assert q == pytest.approx(omega, abs=1e-10)

    def test_energy_preserving_interaction_balances_system(self):
        # resonant exchange: whatever the unit gains, the system loses
        rng = np.random.default_rng(0)
        cfg = make_config(EXCHANGE_V, init=random_density_matrix(rng, 2),
                          anc=random_density_matrix(rng, 2), beta=None, theta=0.7)
        before, after = collide_once(cfg)
        q = run(cfg).ledger["Q"][0]
        de_s = float(np.trace(linalg.kron(SZ / 2, I2) @ (after - before)).real)
        assert q == pytest.approx(-de_s, abs=1e-10)
        assert abs(q) > 1e-3  # the exchange genuinely moves energy


class TestSwitchingWork:
    def test_resonant_partial_swap_costs_nothing(self):
        cfg = make_config(partial_swap_interaction(2), theta=0.6, n_steps=30)
        traj = run(cfg)
        assert all(abs(r.W) < 1e-10 for r in traj.records)

    def test_battery_interaction_oracle(self):
        # independent route: explicit 4x4 conjugation of the first collision
        rng = np.random.default_rng(1)
        cfg = make_config(BATTERY_V, init=random_density_matrix(rng, 2), theta=0.8)
        before, after = collide_once(cfg)
        h = linalg.kron(SZ / 2, I2) + linalg.kron(I2, SZ / 2)
        expected = float(np.trace(h @ after).real - np.trace(h @ before).real)
        assert abs(expected) > 1e-3

        traj = run(cfg)
        assert traj.ledger["W"][0] == pytest.approx(expected, abs=1e-12)
        assert traj.records[0].W == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("label,v", [
        ("swap", partial_swap_interaction(2)),
        ("exchange", EXCHANGE_V),
        ("xx", linalg.kron(SX, SX)),
        ("battery", BATTERY_V),
        ("random", None),
    ])
    def test_zero_work_iff_commuting(self, label, v):
        # a generic coherent initial state avoids accidental zeros
        if v is None:
            v = random_hermitian(np.random.default_rng(2), 4)
        init = qstate.bloch_state(1.1, 0.4)
        anc = qstate.bloch_state(2.0, 1.3)
        cfg = make_config(v, init=init, anc=anc, beta=None, theta=0.5, n_steps=6)
        bare = linalg.kron(SZ / 2, I2) + linalg.kron(I2, SZ / 2)
        commuting = linalg.commutator_norm(bare, v) < 1e-12
        traj = run(cfg)
        w_max = max(abs(r.W) for r in traj.records)
        if commuting:
            assert w_max < 1e-10
        else:
            assert w_max > 1e-6


class TestEntropyProduction:
    @pytest.mark.parametrize("base", [math.e, 2.0])
    def test_direct_formula(self, base):
        # a non-thermal unit: Sigma = dS_S + dS_anc
        rng = np.random.default_rng(6)
        cfg = make_config(EXCHANGE_V, anc=random_density_matrix(rng, 2), beta=None,
                          theta=0.9, n_steps=4, log_base=base)
        for r in run(cfg).records:
            assert r.Sigma == pytest.approx(r.dS_S + r.dS_anc, abs=1e-12)
        # a thermal unit: Sigma = dS_S + beta Q, the beta Q term converted
        # to the configured base (divided by ln 2 for bits)
        beta = 2.0
        cfg = make_config(linalg.kron(SX, SX), beta=beta, theta=0.9, n_steps=4,
                          log_base=base)
        for r in run(cfg).records:
            assert abs(r.Q) > 1e-3
            assert r.Sigma == pytest.approx(r.dS_S + beta * r.Q / math.log(base),
                                            abs=1e-12)
        # entropies and beta Q change base together
        bits = run(replace(cfg, log_base=2.0)).ledger["Sigma"]
        nats = run(replace(cfg, log_base=math.e)).ledger["Sigma"]
        np.testing.assert_allclose(bits, nats / math.log(2), rtol=0, atol=1e-12)

    def test_no_coupling_produces_nothing(self):
        cfg = make_config(partial_swap_interaction(2), theta=0.0, n_steps=3)
        traj = run(cfg)
        assert all(abs(r.Sigma) < 1e-10 for r in traj.records)

    def test_nonthermal_unit_reduces_to_mutual_information(self):
        # for a product-input unitary collision with no bath label,
        # dS_S + dS_anc equals the generated mutual information
        rng = np.random.default_rng(3)
        cfg = make_config(EXCHANGE_V, anc=random_density_matrix(rng, 2),
                          beta=None, theta=0.9, n_steps=1)
        traj = run(cfg)
        r = traj.records[0]
        assert r.Sigma == pytest.approx(r.I_SE, abs=1e-10)

    def test_thermal_decomposition(self):
        # Sigma = I_SE + S(rho'_E || rho_E) when the unit starts thermal
        cfg = make_config(partial_swap_interaction(2), theta=0.7, n_steps=1)
        traj = run(cfg)
        r = traj.records[0]
        assert r.Sigma == pytest.approx(r.I_SE + r.D_env_relent, abs=1e-9)
        assert r.Sigma > r.I_SE - 1e-12


class TestFirstLaw:
    def test_per_record_residual(self):
        rng = np.random.default_rng(4)
        cfg = make_config(random_hermitian(rng, 4),
                          init=random_density_matrix(rng, 2), theta=0.8, n_steps=25)
        traj = run(cfg)
        for r in traj.records:
            assert r.dE_S == pytest.approx(r.W - r.Q, abs=1e-10)

    def test_cumulative_ledger(self):
        cfg = make_config(BATTERY_V, theta=0.5, n_steps=40)
        ledger = thermo.build_ledger(run(cfg))
        assert np.max(np.abs(ledger["first_law_residual"])) < 1e-10
        total = np.cumsum(ledger["dE_S"])[-1]
        q_total = ledger["Q_resource"] + ledger["Q_bath"]
        assert total == pytest.approx(ledger["W"].sum() - q_total.sum(), abs=1e-9)

    def test_joint_energy_with_interaction_is_conserved(self):
        # during the collision <H_S + H_E + g V> is a constant of motion
        rng = np.random.default_rng(5)
        v = random_hermitian(rng, 4)
        cfg = make_config(v, init=random_density_matrix(rng, 2), theta=0.9)
        before, after = collide_once(cfg)
        h_tot = linalg.kron(SZ / 2, I2) + linalg.kron(I2, SZ / 2) + cfg.coupling * v
        e0 = float(np.trace(h_tot @ before).real)
        e1 = float(np.trace(h_tot @ after).real)
        assert e1 == pytest.approx(e0, abs=1e-10)


class TestLedgerProperties:
    """The ledger identities on random small configurations (see
    ``test_engine.small_runs``), on both backends."""

    @given(small_runs(), st.sampled_from(["windowed", "full"]))
    def test_identities(self, run_args, backend):
        cfg, inits = run_args
        stack = run_stack(replace(cfg, backend=backend), inits)
        led = stack.ledger
        # the first law per collision, dE_S = W - Q, with E_S from the ledger
        # and from the stored system states
        e_s = np.trace(cfg.system_hamiltonian @ stack.snapshots, axis1=-2, axis2=-1).real
        for de_s in (led["E_S_post"] - led["E_S_pre"], np.diff(e_s, axis=0)):
            np.testing.assert_allclose(de_s, led["W"] - led["Q"], rtol=0, atol=1e-10)
        if cfg.aa_mode == "off":  # each unit arrives uncorrelated
            assert np.all(led["Sigma"] - led["I_SE"] >= -1e-9)
            assert np.all(led["I_SE"] >= -1e-9)

    @given(small_runs())
    def test_system_channel_is_cptp(self, run_args):
        cfg, _ = run_args
        d = cfg.system_dim
        units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[i, j] = |i><j|
        for stream in range(len(cfg.streams)):
            channel = system_channel(cfg, stream)
            choi = sum(linalg.kron(units[i, j], channel(units[i, j]))
                       for i in range(d) for j in range(d))
            assert np.linalg.eigvalsh(linalg.hermitize(choi))[0] >= -1e-10
            np.testing.assert_allclose(linalg.partial_trace(choi, [d, d], [0]), np.eye(d),
                                       rtol=0, atol=1e-12)


def record_built_ledger(traj):
    """The ledger series, written out from the trajectory's records."""
    recs = traj.records
    return {
        "step": [r.step for r in recs],
        "E_S": [r.E_S_post for r in recs],
        "dE_S": [r.dE_S for r in recs],
        "Q_resource": [r.Q if r.role == "resource" else 0.0 for r in recs],
        "Q_bath": [r.Q if r.role == "bath" else 0.0 for r in recs],
        "W": [r.W for r in recs],
        "S_S": [r.S_S_post for r in recs],
        "S_anc": [r.S_anc_post for r in recs],
        "dS_S": [r.dS_S for r in recs],
        "dS_anc": [r.dS_anc for r in recs],
        "I_SE": [r.I_SE for r in recs],
        "Sigma": [r.Sigma for r in recs],
        "D_env_relent": [r.D_env_relent for r in recs],
        "D_pair": [math.nan if r.D_pair is None else r.D_pair for r in recs],
    }


class TestBuildLedger:
    def test_matches_record_built_reference(self):
        h = SZ / 2
        streams = [AncillaStream(2, h, qstate.thermal_state(h, 1.0), beta=1.0),
                   AncillaStream(2, h, qstate.thermal_state(h, 2.0), role="bath",
                                 beta=2.0)]
        cfg = CollisionConfig(2, h, EXCITED, streams, [EXCHANGE_V, EXCHANGE_V],
                              coupling=0.6, n_steps=7)
        # arbitrary columns, with a pair column, pin which column feeds
        # which series; the run covers the ledger without one
        rng = np.random.default_rng(12)
        arbitrary = Trajectory(cfg, ledger={name: rng.normal(size=7) for name in
                                            LEDGER_FIELDS + ("D_pair",)})
        for traj in (run(cfg), arbitrary):
            ledger = thermo.build_ledger(traj)
            reference = record_built_ledger(traj)
            assert set(ledger) == set(reference) | {"first_law_residual"}
            for name, expected in reference.items():
                np.testing.assert_array_equal(ledger[name], expected, err_msg=name)


class TestDetailedBalanceReport:
    def test_resonant_swap(self):
        rep = thermo.detailed_balance_report(SZ / 2, SZ / 2, -swap_unitary(2))
        assert rep.local_db < 1e-12
        assert rep.inverted_db > 1.0
        assert [f.name for f in fields(rep)] == ["local_db", "inverted_db"]

    def test_pauli_oracle_for_inverted_commutator(self):
        # [sz x I - I x sz, SWAP] = [.., (sx sx + sy sy)/2] = 2i(sy sx - sx sy)... built by hand
        hand = (linalg.kron(2j * SY, SX) - linalg.kron(2j * SX, SY)
                + linalg.kron(-2j * SX, SY) + linalg.kron(2j * SY, SX)) / 2
        rep = thermo.detailed_balance_report(SZ, SZ, swap_unitary(2))
        assert rep.inverted_db == pytest.approx(np.max(np.abs(hand)), abs=1e-12)

    def test_battery_interaction(self):
        rep = thermo.detailed_balance_report(SZ / 2, SZ / 2, BATTERY_V)
        assert rep.inverted_db < 1e-12
        assert rep.local_db > 1.0


class TestSteadyStateFluxes:
    def test_equilibrium_has_no_flux(self):
        beta = 1.0
        cfg = make_config(partial_swap_interaction(2),
                          init=qstate.thermal_state(SZ / 2, beta), beta=beta,
                          theta=0.4, n_steps=120)
        rep = thermo.steady_state_fluxes(run(cfg))
        assert rep.converged
        assert abs(rep.Q_rate) < 1e-12
        assert abs(rep.W_rate) < 1e-12

    def test_detuned_interaction_sustains_work(self):
        # off-resonant xx coupling: the drive keeps paying switching work
        cfg = make_config(linalg.kron(SX, SX), h_s=1.0 * SZ / 2, h_e=1.3 * SZ / 2,
                          theta=0.5, n_steps=600)
        rep = thermo.steady_state_fluxes(run(cfg))
        assert rep.drift < 1e-6
        assert abs(rep.W_rate) > 1e-4

    def test_too_short_raises(self):
        cfg = make_config(partial_swap_interaction(2), n_steps=10)
        with pytest.raises(ConfigError):
            thermo.steady_state_fluxes(run(cfg), window=50)


class TestLandauerReport:
    def make_relaxing(self, beta=1.0, n_steps=800, erasure_lambda=1.0):
        return make_config(partial_swap_interaction(2), beta=beta, theta=0.15,
                           n_steps=n_steps, erasure_lambda=erasure_lambda)

    def test_identity_residual(self):
        rep = thermo.landauer_report(run(self.make_relaxing()))
        assert rep.residual == pytest.approx(0.0, abs=1e-9)
        assert rep.landauer_gap >= -1e-12

    def test_equilibrium_start_is_silent(self):
        cfg = make_config(partial_swap_interaction(2),
                          init=qstate.thermal_state(SZ / 2, 1.0), theta=0.3,
                          n_steps=200)
        rep = thermo.landauer_report(run(cfg))
        assert abs(rep.beta_Q) < 1e-12
        assert abs(rep.dS_anc) < 1e-12
        assert abs(rep.I_SE) < 1e-10

    def test_infinite_temperature(self):
        rep = thermo.landauer_report(run(self.make_relaxing(beta=0.0, n_steps=1000)))
        assert rep.beta_Q == pytest.approx(0.0, abs=1e-12)
        # a maximally mixed unit can only lose entropy
        assert rep.dS_anc <= 1e-12
        assert rep.landauer_gap >= -1e-12

    def test_not_converged(self):
        cfg = self.make_relaxing(n_steps=60)
        with pytest.raises(NotConvergedError) as exc:
            thermo.landauer_report(run(cfg), window=50)
        assert exc.value.drift > 0.0

    def test_nonthermal_stream_rejected(self):
        cfg = make_config(partial_swap_interaction(2),
                          anc=qstate.maximally_mixed(2), beta=None,
                          init=qstate.maximally_mixed(2), theta=0.2, n_steps=120)
        with pytest.raises(ConfigError):
            thermo.landauer_report(run(cfg))


class TestSteadyStateDrift:
    def test_fixed_point_has_zero_drift(self):
        cfg = make_config(partial_swap_interaction(2),
                          init=qstate.thermal_state(SZ / 2, 1.0), n_steps=80)
        assert thermo.steady_state_drift(run(cfg)) < 1e-14

    def test_short_trajectory_rejected(self):
        cfg = make_config(partial_swap_interaction(2), n_steps=5)
        with pytest.raises(ConfigError):
            thermo.steady_state_drift(run(cfg), window=50)


@pytest.mark.parametrize("window", [0, -3, 2.5, True, "10"])
@pytest.mark.parametrize("fn", [thermo.steady_state_drift, thermo.steady_state_fluxes,
                                thermo.landauer_report])
def test_window_must_be_a_positive_integer(fn, window):
    traj = run(make_config(linalg.kron(SX, SX), n_steps=20))
    with pytest.raises(ConfigError, match="window"):
        fn(traj, window)
