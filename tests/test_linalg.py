import math

import numpy as np
import pytest

from collisim import linalg
from collisim.errors import ConfigError
from conftest import random_density_matrix, random_hermitian

SX, SY, SZ, I2 = linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z, linalg.EYE2


def embed_operator(u, dims, targets):
    """Reference dense lift of ``u``, acting on the factors ``targets`` in
    that order, to the whole space, identity elsewhere: the operator that
    ``linalg.conjugate`` with targets applies without building it."""
    n = len(dims)
    rest = [i for i in range(n) if i not in targets]
    big = np.kron(u, np.eye(math.prod([dims[i] for i in rest])))
    perm = list(targets) + rest
    inv = list(np.argsort(perm))
    tens = big.reshape([dims[i] for i in perm] * 2).transpose(inv + [n + j for j in inv])
    return tens.reshape(math.prod(dims), math.prod(dims))


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(I2, I2), np.eye(4))

    def test_diagonal_tensor(self):
        assert np.allclose(linalg.kron(SZ, I2), np.diag([1, 1, -1, -1]))

    def test_index_formula_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        k = linalg.kron(a, b)
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(2):
                        assert k[2 * i + p, 2 * j + q] == pytest.approx(a[i, j] * b[p, q])

    def test_associativity_exact(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        # scalar products are reassociated, so agreement is to rounding only
        assert np.allclose(left, right, rtol=1e-14, atol=1e-16)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(rng, 2)
        sigma = random_density_matrix(rng, 3)
        out = linalg.partial_trace(linalg.kron(rho, sigma), [2, 3], [0])
        assert np.allclose(out, rho, atol=1e-12)

    def test_bell_marginal(self):
        bell = np.zeros((4, 4), dtype=complex)
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        bell = np.outer(v, v)
        out = linalg.partial_trace(bell, [2, 2], [0])
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 4)
        out = linalg.partial_trace(m, [2, 2], [0])
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += m[2 * i + k, 2 * j + k]
        assert np.allclose(out, expected, atol=1e-13)

    def test_keep_second_factor(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng, 2)
        sigma = random_density_matrix(rng, 2)
        out = linalg.partial_trace(linalg.kron(rho, sigma), [2, 2], [1])
        assert np.allclose(out, sigma, atol=1e-12)

    def test_sequential_equals_full_trace(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 8)
        dims = [2, 2, 2]
        for order in ([0], [1], [2]):
            partial = linalg.partial_trace(m, dims, order)
            assert np.trace(partial) == pytest.approx(np.trace(m), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            linalg.partial_trace(np.eye(4), [2, 3], [0])


class TestHermEig:
    def test_pauli_spectrum(self):
        vals, _ = linalg.herm_eig(SZ)
        assert np.allclose(vals, [-1, 1])

    def test_identity(self):
        vals, vecs = linalg.herm_eig(np.eye(5, dtype=complex))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(5), atol=1e-10)

    def test_residual(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 8)
        vals, vecs = linalg.herm_eig(h)
        assert np.max(np.abs(h @ vecs - vecs @ np.diag(vals))) < 1e-9
        assert np.all(np.diff(vals) >= 0)

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 6)
        vals, _ = linalg.herm_eig(h)
        assert vals.sum() == pytest.approx(np.trace(h).real, abs=1e-10 * 6)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ConfigError):
            linalg.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestUnitaryFromHamiltonian:
    def test_zero_time(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 4)
        assert np.allclose(linalg.unitary_from_hamiltonian(h, 0.0), np.eye(4), atol=1e-12)

    def test_diagonal_exponential(self):
        u = linalg.unitary_from_hamiltonian(SZ, np.pi / 2)
        assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]),
                           atol=1e-12)

    def test_group_inverse(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 5)
        t = 0.37
        u = linalg.unitary_from_hamiltonian(h, t)
        v = linalg.unitary_from_hamiltonian(h, -t)
        assert np.max(np.abs(u @ v - np.eye(5))) < 1e-10

    def test_composition(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 4)
        u1 = linalg.unitary_from_hamiltonian(h, 0.4)
        u2 = linalg.unitary_from_hamiltonian(h, 0.9)
        u12 = linalg.unitary_from_hamiltonian(h, 1.3)
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9

    def test_unitarity(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 6)
        u = linalg.unitary_from_hamiltonian(h, 2.1)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10


class TestCommutator:
    def test_self_commutation(self):
        assert linalg.commutator_norm(SZ, SZ) == 0.0

    def test_pauli_algebra(self):
        # [sx, sy] = 2i sz
        assert linalg.commutator_norm(SX, SY) == pytest.approx(2.0)

    def test_battery_interaction_commutes_with_difference(self):
        # H = omega sz on both sides; V = sx sx - sy sy commutes with H_S - H_E
        omega = 1.0
        diff = linalg.kron(omega * SZ, I2) - linalg.kron(I2, omega * SZ)
        v = linalg.kron(SX, SX) - linalg.kron(SY, SY)
        assert linalg.commutator_norm(diff, v) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            linalg.commutator_norm(SZ, np.eye(3))


class TestEmbedOperator:
    def test_matches_kron_on_leading_factors(self):
        rng = np.random.default_rng(12)
        u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        full = embed_operator(u, [2, 2, 2], [0, 1])
        assert np.allclose(full, linalg.kron(u, I2), atol=1e-13)

    def test_non_contiguous_targets(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        full = embed_operator(linalg.kron(a, b), [2, 2, 2], [0, 2])
        assert np.allclose(full, linalg.kron(a, I2, b), atol=1e-13)

    def test_swapped_target_order(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        full = embed_operator(linalg.kron(b, a), [2, 2], [1, 0])
        assert np.allclose(full, linalg.kron(a, b), atol=1e-13)


class TestLocalConjugate:
    @pytest.mark.parametrize("dims,targets", [
        ([2, 2, 2], [0, 2]),       # non-contiguous
        ([2, 2, 2], [2, 0]),       # reversed
        ([2, 3, 2], [0, 1]),       # mixed dims
        ([2, 3, 2], [2, 1]),
        ([2] * 9, [0, 8]),         # first and last of nine qubits
    ])
    def test_matches_dense_lift(self, dims, targets):
        rng = np.random.default_rng(15)
        d_t = int(np.prod([dims[i] for i in targets]))
        u = rng.normal(size=(d_t, d_t)) + 1j * rng.normal(size=(d_t, d_t))
        rho = random_density_matrix(rng, int(np.prod(dims)))
        local = linalg.conjugate(u, rho, dims, targets)
        dense = linalg.conjugate(embed_operator(u, dims, targets), rho)
        assert np.max(np.abs(local - dense)) < 1e-12

    def test_all_factors_in_order_is_dense_product(self):
        rng = np.random.default_rng(16)
        u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = random_density_matrix(rng, 4)
        assert np.array_equal(linalg.conjugate(u, rho, [2, 2], [0, 1]),
                              u @ rho @ u.conj().T)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            linalg.conjugate(np.eye(3), np.eye(8), [2, 2, 2], [0, 2])


class TestStacks:
    """Stacked (..., d, d) inputs agree with a loop over their members."""

    def make_stack(self, dim, n=4, seed=17):
        rng = np.random.default_rng(seed)
        return np.array([random_density_matrix(rng, dim) for _ in range(n)])

    def test_kron_broadcasts_leading_axes(self):
        a, b = self.make_stack(2), self.make_stack(3, seed=18)
        out = linalg.kron(a, b)
        single = linalg.kron(a, SZ)
        for i in range(len(a)):
            assert np.array_equal(out[i], np.kron(a[i], b[i]))
            assert np.array_equal(single[i], np.kron(a[i], SZ))

    def test_hermitize(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        out = linalg.hermitize(a)
        for i in range(3):
            assert np.array_equal(out[i], (a[i] + a[i].conj().T) / 2)

    @pytest.mark.parametrize("keep", [[0], [1], [2], [0, 2], [1, 2]])
    def test_partial_trace(self, keep):
        stack = self.make_stack(12)
        out = linalg.partial_trace(stack, [2, 3, 2], keep)
        for i in range(len(stack)):
            assert np.array_equal(out[i], linalg.partial_trace(stack[i], [2, 3, 2], keep))

    def test_partial_trace_two_batch_axes(self):
        stack = self.make_stack(4, n=6).reshape(2, 3, 4, 4)
        out = linalg.partial_trace(stack, [2, 2], [1])
        assert out.shape == (2, 3, 2, 2)
        assert np.array_equal(out[1, 2], linalg.partial_trace(stack[1, 2], [2, 2], [1]))

    @pytest.mark.parametrize("dims,targets", [([2, 3, 2], [2, 0]), ([2, 2], [0, 1])])
    def test_conjugate(self, dims, targets):
        rng = np.random.default_rng(20)
        d_t = int(np.prod([dims[i] for i in targets]))
        u = rng.normal(size=(d_t, d_t)) + 1j * rng.normal(size=(d_t, d_t))
        stack = self.make_stack(int(np.prod(dims)))
        out = linalg.conjugate(u, stack, dims, targets)
        for i in range(len(stack)):
            ref = linalg.conjugate(u, stack[i], dims, targets)
            assert np.max(np.abs(out[i] - ref)) < 1e-14

    def test_rejects_non_square_stack(self):
        with pytest.raises(ConfigError):
            linalg.partial_trace(np.zeros((3, 4, 2)), [2, 2], [0])
