"""Dense real linear algebra: SVD, pseudo-inverse, projectors, SPD square roots.

All routines validate finiteness on entry and are pure functions of their
inputs, so they are safe to call concurrently.  Matrices are plain 2-D numpy
arrays of float64; vectors are 1-D arrays.

One rank convention (``rank_cutoff``) holds throughout.  ``pinv_gram``
applies it to the eigenvalues of an m-row Gram matrix G = A K A^T: those
<= m * eps * lambda_max count as zero, i.e. singular values of A below
sqrt(m * eps) * sigma_max.  Its Cholesky branch runs only when certified
above that cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from .errors import InvalidInputError, NumericFailureError

__all__ = [
    "PinvFactorization",
    "svd",
    "pinv",
    "pinv_gram",
    "projector_col",
    "projector_row",
    "sqrt_spd",
    "rank_cutoff",
]


def as_matrix(m, name="matrix"):
    """Coerce to a finite 2-D float array, raising InvalidInputError otherwise."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"{name} must be 2-D with positive shape, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def rank_cutoff(shape, sigma_max, multiplier=1.0):
    """Singular values at or below this threshold count as zero.

    Standard numerical-rank convention: max(rows, cols) * sigma_max * eps,
    scaled by a configurable multiplier.  Applied to the eigenvalues of an
    m x m Gram A K A^T it drops singular values of A below sqrt(m * eps).
    """
    return max(shape) * sigma_max * np.finfo(float).eps * multiplier


@dataclass(frozen=True)
class PinvFactorization:
    """SVD factors of a matrix together with its numerical rank.

    ``u @ diag(singular_values) @ vt`` reconstructs the input.  Exactly the
    first ``numerical_rank`` singular values exceed ``rank_tolerance``.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray
    numerical_rank: int
    rank_tolerance: float

    def pinv(self):
        """Moore-Penrose pseudo-inverse assembled from the factors."""
        k = self.numerical_rank
        if k == 0:
            return np.zeros((self.vt.shape[1], self.u.shape[0]))
        inv = self.vt[:k].T / self.singular_values[:k]
        return inv @ self.u[:, :k].T

    def reconstruct(self):
        k = self.singular_values.size
        return (self.u[:, :k] * self.singular_values) @ self.vt[:k]


def svd(m, rank_multiplier=1.0):
    """Full SVD with numerical rank determination.

    Raises InvalidInputError on non-finite input and NumericFailureError if
    the iteration does not converge.
    """
    a = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"SVD did not converge: {exc}") from exc
    tol = rank_cutoff(a.shape, s[0] if s.size else 0.0, rank_multiplier)
    rank = int(np.sum(s > tol))
    return PinvFactorization(u, s, vt, rank, tol)


def pinv(m, rank_multiplier=1.0):
    """Moore-Penrose pseudo-inverse via SVD."""
    return svd(m, rank_multiplier).pinv()


def pinv_gram(g, rhs, rank_multiplier=1.0):
    """``(G+ @ rhs, rank)`` for a symmetric PSD Gram matrix G.

    Cholesky solves when dpocon's reciprocal 1-norm condition estimate beats
    the cutoff ratio m * eps * rank_multiplier by a factor 1e3 * m (which
    covers the 1-norm/2-norm gap and the estimator's slack), so every
    eigenvalue would be kept.  Otherwise ``eigh`` forms G+ and sets the rank.
    """
    a = as_matrix(g, "gram matrix")
    a = 0.5 * (a + a.T)
    m = a.shape[0]
    chol, info = dpotrf(a)
    if info == 0:
        rcond, _ = dpocon(chol, np.abs(a).sum(axis=0).max())
        if rcond > 1e3 * m * rank_cutoff(a.shape, 1.0, rank_multiplier):
            return dpotrs(chol, rhs)[0], m
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
    keep = w > rank_cutoff(a.shape, abs(w[-1]), rank_multiplier)
    qk = q[:, keep]
    return ((qk / w[keep]) @ qk.T) @ rhs, int(np.sum(keep))


def projector_col(m, rank_multiplier=1.0):
    """Orthogonal projector onto the column space, M @ M+."""
    a = as_matrix(m)
    return a @ pinv(a, rank_multiplier)


def projector_row(m, rank_multiplier=1.0):
    """Orthogonal projector onto the row space, M+ @ M."""
    a = as_matrix(m)
    return pinv(a, rank_multiplier) @ a


def sqrt_spd(k, sym_tol=1e-10):
    """Symmetric positive-definite square root via eigendecomposition."""
    a = as_matrix(k, "SPD matrix")
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"SPD matrix must be square, got {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=sym_tol * max(1.0, np.abs(a).max())):
        raise InvalidInputError("matrix is not symmetric")
    w, q = np.linalg.eigh(0.5 * (a + a.T))
    if w[0] <= 0.0:
        raise InvalidInputError(f"matrix is not positive-definite (min eigenvalue {w[0]:.3e})")
    return (q * np.sqrt(w)) @ q.T
