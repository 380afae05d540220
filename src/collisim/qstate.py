"""Quantum states, entropies and distinguishability metrics.

States are plain density matrices (Hermitian, unit trace, PSD up to
rounding).  Entropic quantities take a ``base`` argument; the default is
base 2 so entropies read in bits and the Jensen-Shannon distance lives in
[0, 1].  Mixed-base bugs are avoided by threading one base through a run.

The entropies and distances also take stacks of shape ``(..., d, d)``:
one matrix gives a float, a stack gives one value per member (the
engine's mutual information is a difference of these entropies).  They
take their matrices as ``linalg.as_square`` does, with finite entries, and
a log base as ``check_base`` does; anything else is a ``ConfigError``.

The trace distance takes the spectrum of rho - sigma block by block
along its exact nonzero pattern (``linalg.sector_eigvalsh``): the
excitation-conserving collisions leave joint states block diagonal, a
dense difference is one block, and no tolerance is involved.  The
entropy spectra stay dense, one eigensolve per state.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import ConfigError, check_kind

EIG_CLAMP = 1e-10       # eigenvalues in [-EIG_CLAMP, 0) are treated as 0
STATE_TOL = 1e-10       # a valid state's trace error and negative eigenvalues are smaller
SUPPORT_CUTOFF = 1e-12  # sigma eigenvalues below this count as outside support
METRICS = ("trace", "jensen-shannon")  # the names ``state_distance`` accepts
JS_FLOOR = 1e-12        # Jensen-Shannon divergences at or below this are rounding: 0


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return as complex array.

    A stack ``(..., d, d)`` is checked member by member; the error names the
    first failing member's value, as a check of that member alone would.
    """
    rho = np.asarray(check_kind("density matrix", rho, "matrix"), dtype=complex)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1] or rho.size == 0:
        raise ConfigError(f"density matrix must be square and non-empty, got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ConfigError("density matrix has non-finite entries")
    if not linalg.is_hermitian(rho):
        raise ConfigError("density matrix is not Hermitian within tolerance")
    tr = np.ravel(np.trace(rho, axis1=-2, axis2=-1).real)
    off = np.abs(tr - 1.0) > STATE_TOL
    if off.any():
        raise ConfigError(f"density matrix trace {tr[np.argmax(off)]} != 1")
    low = np.ravel(np.linalg.eigvalsh(linalg.hermitize(rho))[..., 0])
    if (low < -STATE_TOL).any():
        raise ConfigError(f"density matrix has negative eigenvalue "
                          f"{low[np.argmax(low < -STATE_TOL)]:.3g}")
    return rho


def pure_state(vec: np.ndarray) -> np.ndarray:
    """Projector |v><v| for a (normalized on the fly) state vector."""
    v = check_kind("state vector", np.asarray(vec), "matrix").astype(complex).ravel()
    norm = np.linalg.norm(v)
    if not 0 < norm < math.inf:
        raise ConfigError(f"state vector must have a finite non-zero norm, got {vec!r}")
    v = v / norm
    return np.outer(v, v.conj())


def bloch_state(theta: float, phi: float) -> np.ndarray:
    """Pure qubit state at polar angle theta, azimuth phi on the Bloch sphere."""
    check_kind("theta", theta, "real"), check_kind("phi", phi, "real")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ConfigError(f"Bloch angles must be finite, got {theta!r} and {phi!r}")
    v = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
    return np.outer(v, v.conj())


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(check_kind("dim", dim, "integer", 1), dtype=complex) / dim


def thermal_state(h: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta h)/Z, stabilized by a spectral shift."""
    if not (math.isfinite(check_kind("beta", beta, "real")) and beta >= 0):
        raise ConfigError(f"inverse temperature must be finite and >= 0, got {beta}")
    vals, vecs = linalg.herm_eig(h)
    with np.errstate(over="ignore"):  # beta * gap past the float range: weight exp(-inf) = 0
        p = np.exp(-beta * (vals - vals.min()))
    p /= p.sum()
    return (vecs * p) @ vecs.conj().T


def _value(x):
    """A float for a single matrix's result, the array for a stack's."""
    return float(x) if np.ndim(x) == 0 else x


def _spectrum(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``rho`` or of each member."""
    return np.linalg.eigvalsh(linalg.hermitize(np.asarray(rho, dtype=complex)))


def _entropy(vals: np.ndarray, base: float) -> np.ndarray:
    """-sum p log p over a spectrum clamped at 0, in ``base``; 0 log 0 = 0."""
    p = np.maximum(vals, 0.0)
    return -(p * np.log(np.maximum(p, np.finfo(float).tiny))).sum(axis=-1) / math.log(base)


def _relative_entropy(s_rho, rho, s_vals, s_vecs, base):
    """-S(rho) - sum_j <s_j|rho|s_j> log s_j from S(rho) = ``s_rho`` in ``base``
    and sigma's eigendecomposition (s_j, |s_j>); +inf as in ``relative_entropy``."""
    weight = np.sum(s_vecs.conj() * (rho @ s_vecs), axis=-2).real  # <s_j|rho|s_j>
    inside = s_vals >= SUPPORT_CUTOFF
    leak = np.where(inside, 0.0, weight).sum(axis=-1)
    log_s = np.where(inside, np.log(np.maximum(s_vals, SUPPORT_CUTOFF)), 0.0)
    return np.where(leak > 1e-10, math.inf,
                    -s_rho - (weight * log_s).sum(axis=-1) / math.log(base))


def _finite(x, name: str) -> np.ndarray:
    """``x`` as an array, rejected unless a square matrix or stack with finite entries."""
    x = linalg.as_square(x, name)
    if not np.isfinite(x).all():
        raise ConfigError(f"{name} has non-finite entries")
    return x


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Both as arrays, rejected unless ``_finite`` and of one shape."""
    rho, sigma = _finite(rho, "rho"), _finite(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ConfigError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    return rho, sigma


def check_base(base, name: str = "base") -> None:
    """Reject a log base that is not a real number, finite and > 1."""
    if not (check_kind(name, base, "real") > 1 and math.isfinite(base)):
        raise ConfigError(f"{name} must be finite and > 1, got {base!r}")


def von_neumann_entropy(rho: np.ndarray, base: float = 2.0):
    """-Tr rho log rho with 0 log 0 = 0."""
    check_base(base)
    vals = _spectrum(_finite(rho, "rho"))
    if (vals[..., 0] < -EIG_CLAMP).any():
        raise ConfigError(f"eigenvalue {vals[..., 0].min():.3g} below clamp window; "
                          "broken upstream state")
    return _value(_entropy(vals, base))


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """(1/2) Tr |rho - sigma|."""
    rho, sigma = _pair(rho, sigma)
    diff = linalg.hermitize(np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex))
    vals = linalg.sector_eigvalsh(diff)
    return _value(0.5 * np.abs(vals).sum(axis=-1))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray, base: float = 2.0):
    """-S(rho) - Tr rho log sigma from rho's spectrum and sigma's eigenvectors; +inf
    when rho puts weight above 1e-10 on those below ``SUPPORT_CUTOFF``."""
    rho, sigma = _pair(rho, sigma)
    check_base(base)
    s_vals, s_vecs = linalg.herm_eig(linalg.hermitize(sigma))
    return _value(_relative_entropy(_entropy(_spectrum(rho), base), rho, s_vals, s_vecs, base))


def js_distance(rho: np.ndarray, sigma: np.ndarray, base: float = 2.0):
    """Square root of the Jensen-Shannon divergence S(m) - S(rho)/2 - S(sigma)/2,
    m the equal mixture: three spectra, always finite, in [0, 1] for base 2.

    A divergence at or below ``JS_FLOOR`` is set to 0 before the root, which
    would lift rounding of about 1e-16 to a distance of about 1e-8.
    """
    rho, sigma = _pair(rho, sigma)
    check_base(base)
    s_mid, s_rho, s_sigma = (_entropy(_spectrum(x), base)
                             for x in ((rho + sigma) / 2, rho, sigma))
    div = s_mid - s_rho / 2 - s_sigma / 2
    return _value(np.sqrt(np.where(div > JS_FLOOR, div, 0.0)))


def state_distance(rho: np.ndarray, sigma: np.ndarray, metric: str = "trace",
                   base: float = 2.0):
    """Dispatch between the two contractive metrics ``METRICS``."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; one of {METRICS}")
    return trace_distance(rho, sigma) if metric == "trace" else js_distance(rho, sigma, base)

