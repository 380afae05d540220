"""Dense complex matrix kernel.

Tensor products, partial traces, Hermitian eigendecomposition,
spectra split along the exact nonzero pattern, Hamiltonian-generated
unitaries, commutators and conjugation by an operator on a subset of
factors.
All operators are plain ``numpy.ndarray`` in row-major order; subsystem
index 0 is always the system, ascending indices are later ancillas, and
``kron`` composes left-to-right in that order.  ``kron``, ``hermitize``,
``partial_trace``, ``herm_eig``, ``sector_eigvalsh`` and ``conjugate``
also take stacks of shape ``(..., d, d)`` and act on each matrix of the
stack.  Every function takes its matrices through ``as_square`` (a square
matrix or stack of ``check_kind``'s "matrix" kind) and its factor lists
as integers, so a malformed input is a ``ConfigError``.

``sectors`` labels the connected components of a bool pattern, and
``sector_eigvalsh`` diagonalizes each component of a matrix's nonzero
pattern on its own.  Permuting to blocks is a similarity transform, so
the spectrum is exact and no tolerance is involved; a dense matrix is one
block and takes the plain ``eigvalsh`` call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, check_kind

TOL_HERM = 1e-10  # the largest |entry| of h - h† that a Hermitian h may have

# Pauli matrices and friends, used throughout the package and the tests.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more operators, left to right.

    Leading axes of stacked operators broadcast against each other.
    """
    out = np.asarray(as_square(ops[0]), dtype=complex)
    for op in ops[1:]:
        op = np.asarray(as_square(op), dtype=complex)
        prod = out[..., :, None, :, None] * op[..., None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (out.shape[-2] * op.shape[-2],
                                              out.shape[-1] * op.shape[-1]))
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    return as_square(a).conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a†)/2."""
    return (as_square(a) + dagger(a)) / 2


def is_hermitian(a: np.ndarray) -> bool:
    return bool(np.max(np.abs(as_square(a) - dagger(a))) <= TOL_HERM)


def as_square(a, name: str = "matrix") -> np.ndarray:
    """``a``, rejected unless it is a square matrix, or a stack ``(..., d, d)``
    of them, of ``check_kind``'s "matrix" kind: a numpy array of integer,
    real or complex dtype."""
    check_kind(name, a, "matrix")
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    return a


def _integers(name: str, values, low: int = 0) -> list:
    """The entries of ``values``, each rejected unless an integer >= ``low``."""
    if not np.iterable(values):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return [check_kind(f"{name} entry", v, "integer", low) for v in values]


def partial_trace(m: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Trace out all factors not listed in ``keep``.

    ``dims`` lists the subsystem dimensions whose product must equal the
    matrix dimension; kept factors appear in their original order.
    """
    m = np.asarray(as_square(m), dtype=complex)
    d = m.shape[-1]
    dims = _integers("dims", dims, 1)
    if math.prod(dims) != d:
        raise ConfigError(f"dims {dims} do not factor dimension {d}")
    n = len(dims)
    keep = sorted(set(_integers("keep", keep)))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ConfigError(f"bad keep set {keep} for {n} factors")
    # one axis per run of adjacent factors all kept or all traced: einsum has
    # only 52 labels, and a kept axis takes two
    sizes, kept = [], []
    for i, dim in enumerate(dims):
        if kept and kept[-1] == (i in keep):
            sizes[-1] *= dim
        else:
            sizes.append(dim)
            kept.append(i in keep)
    n = len(sizes)
    batch = m.shape[:-2]
    out = [i for i in range(n) if kept[i]]
    t = np.einsum(m.reshape(batch + tuple(sizes * 2)),
                  [..., *range(n), *(n + i if kept[i] else i for i in range(n))],
                  [..., *out, *(n + i for i in out)])
    dk = math.prod(dims[i] for i in keep)
    return t.reshape(batch + (dk, dk))


def herm_eig(h: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Rejects inputs
    that are not Hermitian within ``TOL_HERM``.
    """
    h = np.asarray(as_square(h), dtype=complex)
    if not is_hermitian(h):
        raise ConfigError(
            f"matrix is not Hermitian within {TOL_HERM:g} "
            f"(deviation {np.max(np.abs(h - dagger(h))):.3g})"
        )
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def sectors(pattern: np.ndarray) -> list[np.ndarray]:
    """The index sets, each ascending, of the connected components of a
    ``(d, d)`` bool pattern, taken symmetric (an entry on either side
    joins its row and column).  An index with no entry off the diagonal is
    a singleton, and a dense pattern is one set."""
    pattern = np.asarray(pattern)
    if pattern.dtype != bool or pattern.ndim != 2 or pattern.shape[0] != pattern.shape[1]:
        raise ConfigError(f"pattern must be a square bool array, got a {pattern.dtype} "
                          f"array of shape {pattern.shape}")
    d = pattern.shape[-1]
    pattern = pattern | pattern.T
    # min-label propagation with pointer jumping: each index ends up holding
    # an index of its own component, the same one across the component
    label = np.arange(d)
    while True:
        new = np.minimum(label, np.where(pattern, label, d).min(axis=1))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def sector_eigvalsh(a: np.ndarray, blocks: list[np.ndarray] | None = None) -> np.ndarray:
    """Eigenvalues, ascending, of a Hermitian matrix or stack ``(..., d, d)``,
    one ``eigvalsh`` per connected component of the union of the stack's
    nonzero patterns.

    Only exact zeros split the matrix, so the result equals the dense
    spectrum up to rounding.  A dense matrix is one component, and without
    ``blocks`` a non-finite entry is a ``ConfigError``.  ``blocks``, when
    given, are used in place of the components: index sets that partition
    ``range(d)`` with no nonzero entry between two of them, such as the
    ``sectors`` of a wider pattern.
    """
    a = as_square(a)
    d = a.shape[-1]
    if blocks is None:
        if not np.isfinite(a).all():
            raise ConfigError("matrix has non-finite entries")
        pattern = (a != 0).reshape(-1, d, d).any(axis=0)
        if pattern.all():
            return np.linalg.eigvalsh(a)
        blocks = sectors(pattern)
    if len(blocks) == 1:
        return np.linalg.eigvalsh(a)
    vals = [np.linalg.eigvalsh(a[..., b[:, None], b]) for b in blocks]
    return np.sort(np.concatenate(vals, axis=-1), axis=-1)


def unitary_from_hamiltonian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition."""
    if not math.isfinite(check_kind("t", t, "real")):
        raise ConfigError("evolution time must be finite")
    vals, vecs = herm_eig(h)
    radius = float(np.max(np.abs(vals)))
    if not math.isfinite(radius * float(t)):  # a phase beyond the float range
        raise ConfigError(f"phase of exp(-i h t) overflows: spectral radius "
                          f"{radius:.3g} times t = {t:.3g}")
    phases = np.exp(-1j * vals * t)
    return (vecs * phases) @ vecs.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba, rejected before the products if they could leave the float
    range: a partial sum of either product is at most d max|a| max|b|."""
    a, b = as_square(a), as_square(b)
    if a.shape != b.shape:
        raise ConfigError(f"commutator shape mismatch {a.shape} vs {b.shape}")
    a_max, b_max = float(np.max(np.abs(a))), float(np.max(np.abs(b)))
    if not math.isfinite(2 * a.shape[-1] * a_max * b_max):
        raise ConfigError(f"commutator of operators with entries up to {a_max:.3g} "
                          f"and {b_max:.3g} in dimension {a.shape[-1]} overflows")
    return a @ b - b @ a


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry absolute value of the commutator ab - ba."""
    return float(np.max(np.abs(commutator(a, b))))


def conjugate(u: np.ndarray, rho: np.ndarray, dims: list[int],
              targets: list[int]) -> np.ndarray:
    """u rho u†, ``u`` acting on the factors ``targets`` of ``rho`` (in that
    order, identity elsewhere), whose factors are ``dims``.

    ``u`` is never lifted to the whole space: u (x) conj(u) is contracted into
    the ket and bra axes of the targets in one pass.  A stack ``(..., d, d)``
    is conjugated member by member.
    """
    u, rho = as_square(u), as_square(rho)
    dims, targets = _integers("dims", dims, 1), _integers("targets", targets)
    n, m = len(dims), len(targets)
    if math.prod(dims) != rho.shape[-1] or len(set(targets)) != m or max(targets + [-1]) >= n:
        raise ConfigError(f"dims {dims} with targets {targets} do not fit a matrix of "
                          f"dimension {rho.shape[-1]}")
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
