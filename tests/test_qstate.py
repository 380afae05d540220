import math

import numpy as np
import pytest

from collisim import linalg, qstate
from collisim.engine import (AncillaStream, CollisionConfig, partial_swap_interaction,
                             partial_swap_unitary, run, system_channel)
from collisim.errors import ConfigError
from conftest import mutual_information, random_density_matrix, random_hermitian

SZ, I2 = linalg.SIGMA_Z, linalg.EYE2


def random_channel(rng):
    """A single Markovian collision channel with random ingredients."""
    h_s = random_hermitian(rng, 2)
    h_e = random_hermitian(rng, 2)
    v = random_hermitian(rng, 4)
    stream = AncillaStream(2, h_e, random_density_matrix(rng, 2))
    cfg = CollisionConfig(
        system_dim=2, system_hamiltonian=h_s,
        system_init=qstate.maximally_mixed(2), streams=[stream],
        interactions=[v], tau=float(rng.uniform(0.2, 2.0)),
        coupling=float(rng.uniform(0.2, 2.0)))
    return system_channel(cfg)


class TestThermalState:
    def test_infinite_temperature(self):
        assert np.allclose(qstate.thermal_state(SZ, 0.0), np.eye(2) / 2)

    def test_qubit_populations(self):
        rho = qstate.thermal_state(SZ, 1.0)
        z = math.exp(-1.0) + math.exp(1.0)
        assert rho[0, 0].real == pytest.approx(math.exp(-1.0) / z, abs=1e-12)
        assert rho[1, 1].real == pytest.approx(math.exp(1.0) / z, abs=1e-12)
        assert rho[0, 0].real == pytest.approx(0.119202922022118, abs=1e-12)

    def test_zero_temperature_limit(self):
        rho = qstate.thermal_state(SZ, 50.0)
        assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-10)

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 4)
        rho = qstate.thermal_state(h, 0.7)
        assert linalg.commutator_norm(rho, h) < 1e-10

    def test_is_valid_state(self):
        rng = np.random.default_rng(1)
        qstate.validate_density_matrix(qstate.thermal_state(random_hermitian(rng, 5), 2.0))

    def test_rejects_negative_beta(self):
        with pytest.raises(ConfigError):
            qstate.thermal_state(SZ, -1.0)


class TestTraceDistance:
    def test_identical(self):
        rho = qstate.thermal_state(SZ, 1.0)
        assert qstate.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        zero = qstate.pure_state([1, 0])
        one = qstate.pure_state([0, 1])
        assert qstate.trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_example(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert qstate.trace_distance(rho, np.eye(2) / 2) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_density_matrix(rng, 3), random_density_matrix(rng, 3)
            d = qstate.trace_distance(a, b)
            assert d == pytest.approx(qstate.trace_distance(b, a), abs=1e-12)
            assert -1e-12 <= d <= 1 + 1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 2)
        assert qstate.trace_distance(a, b) > 1e-3  # generic states differ
        assert qstate.trace_distance(a, a.copy()) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            qstate.trace_distance(np.eye(2) / 2, np.eye(3) / 3)


class TestRelativeEntropy:
    def test_identical(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng, 3)
        assert qstate.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_maximally_mixed(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert qstate.relative_entropy(rho, np.eye(2) / 2, base=2) == pytest.approx(1.0, abs=1e-10)
        assert qstate.relative_entropy(rho, np.eye(2) / 2, base=math.e) == pytest.approx(
            math.log(2), abs=1e-10)

    def test_disjoint_support_sentinel(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        assert qstate.relative_entropy(rho, sigma) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = random_density_matrix(rng, 3), random_density_matrix(rng, 3)
            assert qstate.relative_entropy(a, b) >= -1e-10


class TestJsDistance:
    def test_identical(self):
        rho = qstate.thermal_state(SZ, 0.5)
        assert qstate.js_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pure_is_one_bit(self):
        zero = qstate.pure_state([1, 0])
        one = qstate.pure_state([0, 1])
        assert qstate.js_distance(zero, one, base=2) == pytest.approx(1.0, abs=1e-10)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = random_density_matrix(rng, 2), random_density_matrix(rng, 2)
            d = qstate.js_distance(a, b)
            assert -1e-10 <= d <= 1 + 1e-10
            assert d == pytest.approx(qstate.js_distance(b, a), abs=1e-10)

    @pytest.mark.parametrize("metric", ["trace", "jensen-shannon"])
    def test_triangle_inequality_sampled(self, metric):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b, c = (random_density_matrix(rng, 2) for _ in range(3))
            dab = qstate.state_distance(a, b, metric)
            dac = qstate.state_distance(a, c, metric)
            dcb = qstate.state_distance(c, b, metric)
            assert dab <= dac + dcb + 1e-10


class TestContractivity:
    @pytest.mark.parametrize("metric", ["trace", "jensen-shannon"])
    def test_random_collision_channels(self, metric):
        rng = np.random.default_rng(8)
        for _ in range(10):
            channel = random_channel(rng)
            for _ in range(10):
                a, b = random_density_matrix(rng, 2), random_density_matrix(rng, 2)
                before = qstate.state_distance(a, b, metric)
                after = qstate.state_distance(channel(a), channel(b), metric)
                assert after <= before + 1e-10


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert qstate.von_neumann_entropy(qstate.pure_state([1, 0])) == pytest.approx(
            0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert qstate.von_neumann_entropy(np.eye(2) / 2, base=2) == pytest.approx(1.0, abs=1e-12)
        assert qstate.von_neumann_entropy(np.eye(2) / 2, base=math.e) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_thermal_binary_entropy(self):
        rho = qstate.thermal_state(SZ, 1.0)
        p = rho[1, 1].real
        expected = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        assert qstate.von_neumann_entropy(rho, base=2) == pytest.approx(expected, abs=1e-12)


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(9)
        joint = linalg.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert mutual_information(joint, [2, 2], 1) == pytest.approx(0.0, abs=1e-10)

    def test_bell_state(self):
        bell = qstate.pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert mutual_information(bell, [2, 2], 1, base=2) == pytest.approx(2.0, abs=1e-10)

    def test_partial_swap_oracle(self):
        # independent route: conjugate explicitly and evaluate all three entropies
        u = partial_swap_unitary(2, math.pi / 4)
        joint = u @ linalg.kron(qstate.pure_state([1, 0]),
                                qstate.thermal_state(SZ, 1.0)) @ u.conj().T
        s_a = qstate.von_neumann_entropy(linalg.partial_trace(joint, [2, 2], [0]))
        s_b = qstate.von_neumann_entropy(linalg.partial_trace(joint, [2, 2], [1]))
        s_ab = qstate.von_neumann_entropy(joint)
        expected = s_a + s_b - s_ab
        assert expected > 0.1  # the collision genuinely correlates
        assert mutual_information(joint, [2, 2], 1) == pytest.approx(expected, abs=1e-12)
        # the engine's I_SE column for the same collision: exp(i pi/4 SWAP)
        # with no bare Hamiltonians
        zero = np.zeros((2, 2))
        stream = AncillaStream(2, zero, qstate.thermal_state(SZ, 1.0))
        cfg = CollisionConfig(2, zero, qstate.pure_state([1, 0]), [stream],
                              [partial_swap_interaction(2)], coupling=math.pi / 4)
        assert run(cfg).ledger["I_SE"][0] == pytest.approx(expected, abs=1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(10)
        u = partial_swap_unitary(2, 0.6)
        joint = u @ linalg.kron(random_density_matrix(rng, 2),
                                random_density_matrix(rng, 2)) @ u.conj().T
        i0 = mutual_information(joint, [2, 2], 1)
        local = linalg.kron(linalg.unitary_from_hamiltonian(random_hermitian(rng, 2), 1.0),
                            linalg.unitary_from_hamiltonian(random_hermitian(rng, 2), 1.0))
        i1 = mutual_information(local @ joint @ local.conj().T, [2, 2], 1)
        assert i1 == pytest.approx(i0, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            joint = random_density_matrix(rng, 4)
            assert mutual_information(joint, [2, 2], 1) >= -1e-9


class TestStacks:
    """One matrix gives a float; a stack gives one value per member."""

    def make_pairs(self, dim=4, n=5):
        rng = np.random.default_rng(21)
        rho = np.array([random_density_matrix(rng, dim) for _ in range(n)])
        sigma = np.array([random_density_matrix(rng, dim) for _ in range(n)])
        # one rank-deficient sigma that rho leaks out of, and one pure rho
        sigma[1] = qstate.pure_state(np.eye(dim)[0])
        rho[2] = qstate.pure_state(np.arange(1, dim + 1))
        return rho, sigma

    @pytest.mark.parametrize("fn", [
        lambda r, s: qstate.von_neumann_entropy(r),
        lambda r, s: qstate.von_neumann_entropy(r, math.e),
        lambda r, s: qstate.trace_distance(r, s),
        lambda r, s: qstate.relative_entropy(r, s),
        lambda r, s: qstate.relative_entropy(s, r),
        lambda r, s: qstate.js_distance(r, s),
        lambda r, s: qstate.state_distance(r, s, "jensen-shannon", math.e),
        lambda r, s: mutual_information(r, [2, 2], 1),
    ])
    def test_stack_matches_members(self, fn):
        rho, sigma = self.make_pairs()
        out = fn(rho, sigma)
        assert isinstance(out, np.ndarray) and out.shape == (len(rho),)
        for i in range(len(rho)):
            single = fn(rho[i], sigma[i])
            assert isinstance(single, float)
            if math.isinf(single):
                assert out[i] == single
            else:
                assert out[i] == pytest.approx(single, abs=1e-14)

    def test_leak_is_infinite_in_a_stack(self):
        rho, sigma = self.make_pairs()
        out = qstate.relative_entropy(rho, sigma)
        assert math.isinf(out[1]) and np.all(np.isfinite(np.delete(out, 1)))

    def test_negative_eigenvalue_in_any_member_is_rejected(self):
        rho, _ = self.make_pairs()
        rho[3] = np.diag([1.0 + 1e-9, 0.0, 0.0, -1e-9])
        with pytest.raises(ConfigError, match="-1e-09"):
            qstate.von_neumann_entropy(rho)
