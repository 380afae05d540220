import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collisim import linalg, qstate, scenarios
from collisim.engine import run, run_paired
from collisim.errors import ConfigError
from conftest import capture_joints, random_density_matrix, random_hermitian

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


def partial_trace_loop(m, dims, keep):
    """Reference partial trace: one ``np.trace`` per traced factor, on a
    strided view, last factor first.  ``linalg.partial_trace`` does it in
    one contraction."""
    batch, n = m.shape[:-2], len(dims)
    t = m.reshape(batch + tuple(dims + dims))
    for k, ax in enumerate(sorted(set(range(n)) - set(keep), reverse=True)):
        t = np.trace(t, axis1=len(batch) + ax, axis2=len(batch) + ax + n - k)
    dk = math.prod(dims[i] for i in keep)
    return t.reshape(batch + (dk, dk))


@st.composite
def traced_operators(draw):
    """A random complex operator on 1-4 factors of dims 1-3, with 0-2 batch
    axes, and its factor dims."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    shape = (*draw(st.lists(st.integers(1, 3), max_size=2)), math.prod(dims),
             math.prod(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape), dims


class TestPartialTrace:
    @given(traced_operators())
    def test_matches_per_factor_traces(self, case):
        m, dims = case
        for k in range(1, len(dims) + 1):  # every non-empty keep set
            for keep in itertools.combinations(range(len(dims)), k):
                out = linalg.partial_trace(m, dims, keep)
                assert np.max(np.abs(out - partial_trace_loop(m, dims, keep))) <= 1e-13

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


def block_diagonal(rng, sizes, batch=()):
    """A stack of Hermitian block-diagonal matrices with dense blocks of
    ``sizes``: a pattern whose components are exactly those blocks."""
    d = sum(sizes)
    h = np.zeros(batch + (d, d), dtype=complex)
    start = 0
    for size in sizes:
        a = rng.normal(size=batch + (size, size)) + 1j * rng.normal(size=batch + (size, size))
        h[..., start:start + size, start:start + size] = a + linalg.dagger(a) + 1.0
        start += size
    return h


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The matrix dimension of every ``np.linalg.eigvalsh`` call, in order."""
    calls, dense = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape[-1])
        return dense(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestSectors:
    def test_one_sided_pattern_is_symmetrized(self):
        # 0-2 only above the diagonal, 3-1 only below it
        pattern = np.eye(4, dtype=bool)
        pattern[0, 2] = pattern[3, 1] = True
        assert [b.tolist() for b in linalg.sectors(pattern)] == [[0, 2], [1, 3]]

    def test_zero_rows_are_singletons(self):
        pattern = np.ones((5, 5), dtype=bool)
        pattern[[1, 3], :] = pattern[:, [1, 3]] = False
        assert [b.tolist() for b in linalg.sectors(pattern)] == [[0, 2, 4], [1], [3]]

    def test_dense_pattern_is_one_block(self):
        assert [b.tolist() for b in linalg.sectors(np.ones((6, 6), dtype=bool))] \
            == [list(range(6))]

    def test_input_is_not_modified(self):
        pattern = np.zeros((3, 3), dtype=bool)
        pattern[0, 1] = True
        linalg.sectors(pattern)
        assert not pattern[1, 0]

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_blocks_partition_the_indices(self, sizes, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(sum(sizes))
        pattern = block_diagonal(rng, sizes)[perm[:, None], perm] != 0
        blocks = linalg.sectors(pattern)
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(sum(sizes)))
        assert sorted(map(len, blocks)) == sorted(sizes)
        assert all(np.all(np.diff(b) > 0) for b in blocks)
        for b in blocks:  # no entry joins a block to the rest
            rest = np.setdiff1d(np.arange(sum(sizes)), b)
            assert not pattern[b[:, None], rest].any()


class TestSectorEigvalsh:
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5),
           st.sampled_from([(), (1,), (3,), (2, 2)]), st.integers(0, 2**32 - 1))
    def test_permuted_blocks_match_dense(self, sizes, batch, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(sum(sizes))
        h = block_diagonal(rng, sizes, batch)[..., perm[:, None], perm]
        vals = linalg.sector_eigvalsh(h)
        assert vals.shape == batch + (sum(sizes),)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(h)), initial=0.0) < 1e-12

    def test_all_zero_matrix_is_singletons(self, eigvalsh_calls):
        vals = linalg.sector_eigvalsh(np.zeros((5, 5), dtype=complex))
        assert np.array_equal(vals, np.zeros(5))
        assert eigvalsh_calls == [1] * 5

    def test_zero_rows_are_singletons(self, eigvalsh_calls):
        rng = np.random.default_rng(40)
        h = random_hermitian(rng, 6)
        h[[1, 4], :] = h[:, [1, 4]] = 0.0
        vals = linalg.sector_eigvalsh(h)
        assert sorted(eigvalsh_calls) == [1, 1, 4]
        assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) < 1e-12

    def test_spectrum_is_ascending(self):
        # the blocks' spectra interleave: 3 > 2 > 1 by block, 0.5 < 2.5 < 4
        h = np.diag([3.0, 0.5, 2.0, 2.5, 1.0, 4.0]).astype(complex)
        h[0, 5] = h[5, 0] = 1e-3
        vals = linalg.sector_eigvalsh(h)
        assert np.all(np.diff(vals) > 0)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) < 1e-12

    def test_dense_matrix_is_one_call(self, eigvalsh_calls):
        h = random_hermitian(np.random.default_rng(41), 6)
        assert np.array_equal(linalg.sector_eigvalsh(h), np.linalg.eigvalsh(h))
        assert eigvalsh_calls == [6, 6]

    def test_given_blocks_replace_the_labelling(self, eigvalsh_calls, monkeypatch):
        # wider blocks (the sectors of a pattern that contains the matrix's)
        # give the same spectrum, and nothing is labelled
        rng = np.random.default_rng(42)
        h = block_diagonal(rng, [2, 3, 1])

        def no_labels(pattern):
            raise AssertionError("given blocks were labelled again")
        monkeypatch.setattr(linalg, "sectors", no_labels)
        vals = linalg.sector_eigvalsh(h, [np.arange(5), np.array([5])])
        assert eigvalsh_calls[:2] == [5, 1]
        assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) < 1e-12

    def test_oracle_joint_splits_into_excitation_sectors(self, eigvalsh_calls, monkeypatch):
        # the nonmarkov_sweep oracle (coherent unit-unit swaps) at s = 8: the
        # 9-qubit joint conserves the excitation number, so its components are
        # the sectors of fixed excitation number, C(9, k) each
        p = scenarios.NONMARKOV_DEFAULTS
        cfg = scenarios._pswap_config(p, 0, 2.0, aa_mode="coherent", aa_swap_prob=1.0,
                                      pair_metric=p["metric"])
        joints = capture_joints(monkeypatch)
        run_paired(replace(cfg, n_steps=p["bound_steps"], backend="full"),
                   scenarios.EXCITED, scenarios.GROUND)
        joint = joints[8][0]
        assert joint.shape == (512, 512)
        eigvalsh_calls.clear()  # the run's own spectra
        vals = linalg.sector_eigvalsh(joint)
        assert sorted(eigvalsh_calls, reverse=True) == [126, 126, 84, 84, 36, 36, 9, 9, 1, 1]
        assert np.max(np.abs(vals - np.linalg.eigvalsh(joint))) < 1e-12

    def test_symmetry_breaking_joint_keeps_only_parity(self, eigvalsh_calls, monkeypatch):
        # landauer's sx sx coupling changes the excitation number by 0 or 2:
        # its excitation sectors merge, and only the two parity halves remain
        cfg = scenarios._landauer_config(scenarios.LANDAUER_DEFAULTS, 1.0, 0, 2.0)
        joints = capture_joints(monkeypatch)
        run(replace(cfg, n_steps=3, backend="full"))
        joint = joints[3][0]
        assert joint.shape == (16, 16)
        eigvalsh_calls.clear()
        vals = linalg.sector_eigvalsh(joint)
        assert eigvalsh_calls == [8, 8]
        assert np.max(np.abs(vals - np.linalg.eigvalsh(joint))) < 1e-12

    def test_coherent_landauer_joint_is_one_component(self, eigvalsh_calls, monkeypatch):
        # a system state with coherences breaks the parity too: one block,
        # diagonalized by the plain dense call
        cfg = scenarios._landauer_config(scenarios.LANDAUER_DEFAULTS, 1.0, 0, 2.0)
        cfg = replace(cfg, n_steps=3, backend="full", system_init=qstate.bloch_state(1.0, 0.5))
        joints = capture_joints(monkeypatch)
        run(cfg)
        joint = joints[3][0]
        eigvalsh_calls.clear()
        vals = linalg.sector_eigvalsh(joint)
        assert eigvalsh_calls == [16]
        assert np.max(np.abs(vals - np.linalg.eigvalsh(joint))) < 1e-12

    @pytest.mark.parametrize("entry", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_a_config_error(self, entry, bad):
        # the dense eigvalsh gives such an input an error or NaN eigenvalues;
        # the split spectrum names it instead, on a diagonal or a split entry
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        h[2, 3] = h[3, 2] = 0.5
        h[entry] = h[entry[::-1]] = bad
        with pytest.raises(ConfigError, match="matrix has non-finite entries"):
            linalg.sector_eigvalsh(h)


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
        ([2, 2], [0, 1]),          # all factors, in order
        ([4, 2], [0, 1]),
    ])
    def test_matches_dense_lift(self, dims, targets):
        rng = np.random.default_rng(15)
        d_t = int(np.prod([dims[i] for i in targets]))
        u = rng.normal(size=(d_t, d_t)) + 1j * rng.normal(size=(d_t, d_t))
        rho = random_density_matrix(rng, int(np.prod(dims)))
        local = linalg.conjugate(u, rho, dims, targets)
        lift = embed_operator(u, dims, targets)
        assert np.max(np.abs(local - lift @ rho @ lift.conj().T)) < 1e-12

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


@pytest.mark.parametrize("reject,fragment", [
    (lambda: linalg.partial_trace(np.eye(4), [2, 2], []), "bad keep set []"),
    (lambda: linalg.partial_trace(np.eye(4), [2, 2], [0, 2]), "bad keep set [0, 2]"),
    (lambda: linalg.unitary_from_hamiltonian(SZ, math.inf), "evolution time must be finite"),
    (lambda: linalg.commutator(8e307 * SZ, SX), "in dimension 2 overflows"),
])
def test_rejection_names_its_cause(reject, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        reject()
