"""Dense complex matrix kernel.

Tensor products, partial traces, Hermitian eigendecomposition,
Hamiltonian-generated unitaries, commutators and conjugation by an
operator on a subset of factors.
All operators are plain ``numpy.ndarray`` in row-major order; subsystem
index 0 is always the system, ascending indices are later ancillas, and
``kron`` composes left-to-right in that order.  ``kron``, ``hermitize``,
``partial_trace``, ``herm_eig`` and ``conjugate`` also take stacks of
shape ``(..., d, d)`` and act on each matrix of the stack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

TOL_HERM = 1e-10

# Pauli matrices and friends, used throughout the package and the tests.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more operators, left to right.

    Leading axes of stacked operators broadcast against each other.
    """
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        prod = out[..., :, None, :, None] * op[..., None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (out.shape[-2] * op.shape[-2],
                                              out.shape[-1] * op.shape[-1]))
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a†)/2."""
    return (a + dagger(a)) / 2


def is_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> bool:
    return bool(np.max(np.abs(a - dagger(a))) <= tol)


def _check_square(a: np.ndarray) -> int:
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[-1]


def partial_trace(m: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Trace out all factors not listed in ``keep``.

    ``dims`` lists the subsystem dimensions whose product must equal the
    matrix dimension; kept factors appear in their original order.
    """
    m = np.asarray(m, dtype=complex)
    d = _check_square(m)
    dims = list(dims)
    if math.prod(dims) != d:
        raise ConfigError(f"dims {dims} do not factor dimension {d}")
    n = len(dims)
    keep = sorted(set(keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ConfigError(f"bad keep set {keep} for {n} factors")
    batch = m.shape[:-2]
    t = m.reshape(batch + tuple(dims + dims))
    b, k = len(batch), n
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=b + ax, axis2=b + ax + k)
        k -= 1
    dk = math.prod(dims[i] for i in keep)
    return t.reshape(batch + (dk, dk))


def herm_eig(h: np.ndarray, tol: float = TOL_HERM):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Rejects inputs
    that are not Hermitian within ``tol`` (max absolute entry of h - h†).
    """
    h = np.asarray(h, dtype=complex)
    _check_square(h)
    if not is_hermitian(h, tol):
        raise ConfigError(
            f"matrix is not Hermitian within {tol:g} "
            f"(deviation {np.max(np.abs(h - dagger(h))):.3g})"
        )
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def unitary_from_hamiltonian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition."""
    if not np.isfinite(t):
        raise ConfigError("evolution time must be finite")
    vals, vecs = herm_eig(h)
    phases = np.exp(-1j * vals * t)
    return (vecs * phases) @ vecs.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ConfigError(f"commutator shape mismatch {a.shape} vs {b.shape}")
    return a @ b - b @ a


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry absolute value of the commutator ab - ba."""
    return float(np.max(np.abs(commutator(a, b))))


def conjugate(u: np.ndarray, rho: np.ndarray, dims: list[int] | None = None,
              targets: list[int] | None = None) -> np.ndarray:
    """u rho u†.

    With ``dims`` and ``targets``, ``u`` acts on the factors ``targets`` of
    ``rho`` (in that order, identity elsewhere) without lifting it to the
    whole space: u (x) conj(u) is contracted into the ket and bra axes of
    the targets in one pass.  Targets that are all the factors
    in order give the dense product.  A stack ``rho`` of shape
    ``(..., d, d)`` is conjugated member by member.
    """
    if targets is None or list(targets) == list(range(len(dims))):
        return u @ rho @ u.conj().T
    dims, targets = list(dims), list(targets)
    n, m = len(dims), len(targets)
    t_dims = [dims[i] for i in targets]
    d_t = math.prod(t_dims)
    if u.shape != (d_t, d_t):
        raise ConfigError(f"operator shape {u.shape} does not match targets {targets}")
    u_t = u.reshape(t_dims * 2)
    sup = np.multiply.outer(u_t, u_t.conj())  # axes: ket out, ket in, bra out, bra in
    batch = rho.shape[:-2]
    kets_bras = [len(batch) + i for i in targets + [n + i for i in targets]]
    t = np.tensordot(sup, rho.reshape(batch + tuple(dims * 2)),
                     axes=([*range(m, 2 * m), *range(3 * m, 4 * m)], kets_bras))
    return np.moveaxis(t, range(2 * m), kets_bras).reshape(rho.shape)
