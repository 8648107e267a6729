"""Dense real linear algebra: minimum-norm Gram solves.

All routines validate finiteness on entry and are pure functions of their
inputs, so they are safe to call concurrently.  Matrices are plain 2-D numpy
arrays of float64; vectors are 1-D arrays.

One rank convention (``rank_cutoff``) holds for ``pinv_gram`` and the
verdict LP.  ``pinv_gram`` applies it to the eigenvalues of an m-row Gram
matrix G = A K A^T: those <= m * eps * lambda_max count as zero, i.e.
singular values of A below sqrt(m * eps) * sigma_max.  Grams of m >= 4 rows
first try a Cholesky solve, taken only when certified above that cutoff;
smaller ones go straight to ``eigh``, where Cholesky saves nothing, and
leave scipy unloaded.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericFailureError

_CHOLESKY_MIN_ROWS = 4   # Grams with fewer rows skip the Cholesky attempt


def as_matrix(m, name="matrix"):
    """Coerce to a finite 2-D float array, raising InvalidInputError otherwise."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"{name} must be 2-D with positive shape, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def rank_cutoff(shape, sigma_max):
    """Singular values at or below this threshold count as zero.

    Standard numerical-rank convention: max(rows, cols) * sigma_max * eps.
    Applied to the eigenvalues of an m x m Gram A K A^T it drops singular
    values of A below sqrt(m * eps).
    """
    return max(shape) * sigma_max * np.finfo(float).eps


def pinv_gram(g, rhs):
    """``(G+ @ rhs, rank)`` for a symmetric PSD Gram matrix G.

    From ``_CHOLESKY_MIN_ROWS`` rows up, Cholesky solves when dpocon's
    reciprocal 1-norm condition estimate beats the cutoff ratio m * eps by a
    factor 1e3 * m (which covers the 1-norm/2-norm gap and the estimator's
    slack), so every eigenvalue would be kept.  Otherwise ``eigh`` forms G+
    and sets the rank.
    """
    a = as_matrix(g, "gram matrix")
    a = 0.5 * (a + a.T)
    m = a.shape[0]
    if m >= _CHOLESKY_MIN_ROWS:
        from scipy.linalg.lapack import dpocon, dpotrf, dpotrs
        chol, info = dpotrf(a)
        if info == 0:
            rcond, _ = dpocon(chol, np.abs(a).sum(axis=0).max())
            if rcond > 1e3 * m * rank_cutoff(a.shape, 1.0):
                return dpotrs(chol, rhs)[0], m
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
    keep = w > rank_cutoff(a.shape, abs(w[-1]))
    qk = q[:, keep]
    return ((qk / w[keep]) @ qk.T) @ rhs, int(np.sum(keep))
