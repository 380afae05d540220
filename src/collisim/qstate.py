"""Quantum states, entropies and distinguishability metrics.

States are plain density matrices (Hermitian, unit trace, PSD up to
rounding).  Entropic quantities take a ``base`` argument; the default is
base 2 so entropies read in bits and the Jensen-Shannon distance lives in
[0, 1].  Mixed-base bugs are avoided by threading one base through a run.

The entropies and distances also take stacks of shape ``(..., d, d)``:
one matrix gives a float, a stack gives one value per member (the
engine's mutual information is a difference of these entropies).
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import ConfigError

EIG_CLAMP = 1e-10       # eigenvalues in [-EIG_CLAMP, 0) are treated as 0
SUPPORT_CUTOFF = 1e-12  # sigma eigenvalues below this count as outside support
_TINY = np.finfo(float).tiny


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return as complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ConfigError(f"density matrix must be square, got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ConfigError("density matrix has non-finite entries")
    if not linalg.is_hermitian(rho, tol):
        raise ConfigError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol:
        raise ConfigError(f"density matrix trace {tr} != 1")
    vals = np.linalg.eigvalsh(linalg.hermitize(rho))
    if vals[0] < -tol:
        raise ConfigError(f"density matrix has negative eigenvalue {vals[0]:.3g}")
    return rho


def pure_state(vec: np.ndarray) -> np.ndarray:
    """Projector |v><v| for a (normalized on the fly) state vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def bloch_state(theta: float, phi: float) -> np.ndarray:
    """Pure qubit state at polar angle theta, azimuth phi on the Bloch sphere."""
    v = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
    return np.outer(v, v.conj())


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def thermal_state(h: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta h)/Z, stabilized by a spectral shift."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ConfigError(f"inverse temperature must be finite and >= 0, got {beta}")
    vals, vecs = linalg.herm_eig(h)
    w = -beta * (vals - vals.min())
    p = np.exp(w)
    p /= p.sum()
    return (vecs * p) @ vecs.conj().T


def _value(x):
    """A float for a single matrix's result, the array for a stack's."""
    return float(x) if np.ndim(x) == 0 else x


def _clamped_eigvals(rho: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(linalg.hermitize(np.asarray(rho, dtype=complex)))
    if (vals[..., 0] < -EIG_CLAMP).any():
        raise ConfigError(f"eigenvalue {vals[..., 0].min():.3g} below clamp window; "
                          "broken upstream state")
    return np.maximum(vals, 0.0)


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p elementwise for p >= 0; 0 log 0 = 0 since the log stays finite."""
    return p * np.log(np.maximum(p, _TINY))


def von_neumann_entropy(rho: np.ndarray, base: float = 2.0):
    """-Tr rho log rho with 0 log 0 = 0."""
    return _value(-_xlogx(_clamped_eigvals(rho)).sum(axis=-1) / np.log(base))


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """(1/2) Tr |rho - sigma|."""
    if rho.shape != sigma.shape:
        raise ConfigError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    diff = linalg.hermitize(np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex))
    vals = np.linalg.eigvalsh(diff)
    return _value(0.5 * np.abs(vals).sum(axis=-1))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray, base: float = 2.0):
    """Tr rho (log rho - log sigma); +inf when rho leaks out of sigma's support."""
    if rho.shape != sigma.shape:
        raise ConfigError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    r_vals, r_vecs = linalg.herm_eig(linalg.hermitize(np.asarray(rho, dtype=complex)))
    s_vals, s_vecs = linalg.herm_eig(linalg.hermitize(np.asarray(sigma, dtype=complex)))
    r_vals = np.maximum(r_vals, 0.0)
    overlap = np.abs(linalg.dagger(r_vecs) @ s_vecs) ** 2  # (i, j) -> |<r_i|s_j>|^2
    weight = (r_vals[..., None, :] @ overlap)[..., 0, :]  # rho's weight on each s_j
    inside = s_vals >= SUPPORT_CUTOFF
    leak = np.where(inside, 0.0, weight).sum(axis=-1)
    log_s = np.where(inside, np.log(np.maximum(s_vals, SUPPORT_CUTOFF)), 0.0)
    rel = (_xlogx(r_vals).sum(axis=-1) - (weight * log_s).sum(axis=-1)) / math.log(base)
    return _value(np.where(leak > 1e-10, math.inf, rel))


def js_distance(rho: np.ndarray, sigma: np.ndarray, base: float = 2.0):
    """Square root of the Jensen-Shannon divergence.

    (1/sqrt 2) [S(rho||m) + S(sigma||m)]^(1/2) with m the equal mixture;
    always finite since m dominates both supports.  In [0, 1] for base 2.
    """
    mid = (np.asarray(rho, dtype=complex) + np.asarray(sigma, dtype=complex)) / 2
    div = relative_entropy(rho, mid, base) + relative_entropy(sigma, mid, base)
    return _value(np.sqrt(np.maximum(div, 0.0) / 2.0))


def state_distance(rho: np.ndarray, sigma: np.ndarray, metric: str = "trace",
                   base: float = 2.0):
    """Dispatch between the two contractive metrics used in the package."""
    if metric == "trace":
        return trace_distance(rho, sigma)
    if metric == "jensen-shannon":
        return js_distance(rho, sigma, base)
    raise ConfigError(f"unknown metric {metric!r}")

