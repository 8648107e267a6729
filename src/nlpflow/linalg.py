"""Dense and banded real linear algebra: minimum-norm Gram solves.

All routines reject non-finite input with InvalidInputError and are pure
functions of their inputs, so they are safe to call concurrently.  Matrices are plain 2-D numpy
arrays of float64; vectors are 1-D arrays.

One rank convention (``rank_cutoff``) holds for ``pinv_gram`` and the
verdict LP.  ``pinv_gram`` factors an m-row Gram G = H K H^T once, for
b -> G+ b, on one of three branches, all under that convention: eigenvalues
of G at or below m * eps * lambda_max count as zero, i.e. singular values
of H K^(1/2) below sqrt(m * eps) * sigma_max.
- Banded LU (``dgbtrf``): from ``_BAND_MIN_ROWS`` rows up, when K is
  diagonal and G, with H's rows ordered by first nonzero column, is banded.
  Its certified LU, ``banded_lu``, also solves the flow's saddle-point
  systems (``dynamics.linearize``).
- Cholesky (``dpotrf``): from ``_CHOLESKY_MIN_ROWS`` rows up.
- ``eigh``: forms G+ and sets the rank.
The first two factor only when a 1-norm condition estimate certifies that
every eigenvalue would be kept, so they return rank m; anything else falls
through to the next.  Grams under ``_CHOLESKY_MIN_ROWS`` rows go straight to
``eigh``, where Cholesky saves nothing, and leave scipy unloaded.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericFailureError

_CHOLESKY_MIN_ROWS = 4   # Grams with fewer rows skip the Cholesky attempt
_BAND_MIN_ROWS = 48      # under this many rows the dense solve is the faster


def rank_cutoff(shape, sigma_max):
    """Singular values at or below this threshold count as zero.

    Standard numerical-rank convention: max(rows, cols) * sigma_max * eps.
    Applied to the eigenvalues of an m x m Gram A K A^T it drops singular
    values of A below sqrt(m * eps).
    """
    return max(shape) * sigma_max * np.finfo(float).eps


def _certified(rcond, m):
    """True when a reciprocal 1-norm condition estimate beats the cutoff
    ratio m * eps by a factor 1e3 * m, which covers the 1-norm/2-norm gap and
    the estimator's slack, so every eigenvalue of the Gram would be kept."""
    return rcond > 1e3 * m * rank_cutoff((m, m), 1.0)


def times_gain(a, k):
    """a @ k for a gain k held as a matrix or, when diagonal, as its
    diagonal; for finite a the broadcast product equals a @ diag(k) bitwise."""
    return a * k if k.ndim == 1 else a @ k


def pinv_gram(rows, gain):
    """``pinv_psd``'s ``(solve, rank)`` for G = H K H^T of stacked rows
    H (m x n) and a positive-definite gain K, n x n or its diagonal if diagonal.

    Tries the banded LU first (see the module docstring), then forms G and
    factors it with ``pinv_psd``.
    """
    m = rows.shape[0]
    if m >= _BAND_MIN_ROWS and gain.ndim == 1:
        solve = _banded_solve(rows, gain)
        if solve is not None:
            return solve, m
    return pinv_psd(times_gain(rows, gain) @ rows.T)


def _banded_solve(rows, d):
    """``banded_lu``'s solve of H diag(d) H^T, or None.

    The rows are ordered by first nonzero column (``first_columns``), so the
    rows after row i that share a column with it are those that start at or
    before its last nonzero column, and ``searchsorted`` gives the
    half-bandwidth.  None when the band is not narrower than a quarter of the
    rows (a zero row, read as spanning every column, makes it so) or when
    ``banded_lu`` finds no certified LU.
    """
    m = rows.shape[0]
    first, last = first_columns(rows), rows.shape[1] - 1 - first_columns(rows[:, ::-1])
    order = np.argsort(first, kind="stable")
    first, last = first[order], last[order]
    bw = int((np.searchsorted(first, last, side="right") - np.arange(1, m + 1)).max())
    if 4 * bw >= m:
        return None
    h = rows[order]
    # LAPACK band storage: G[i, j] at ab[2 bw + i - j, j], rows 0..bw-1 for the LU's fill
    ab = np.zeros((3 * bw + 1, m))
    ab[2 * bw] = np.einsum("ij,j,ij->i", h, d, h)
    for k in range(1, bw + 1):
        ab[2 * bw - k, k:] = ab[2 * bw + k, :-k] = np.einsum("ij,j,ij->i", h[:-k], d, h[k:])
    return banded_lu(ab, bw, bw, order)


def first_columns(rows):
    """Each row's first nonzero column, 0 for a zero row.  Ordering rows by it
    (Cuthill & McKee 1969) makes a chain's Gram and saddle-point matrices
    banded."""
    return (rows != 0).argmax(axis=1)


def banded_lu(ab, kl, ku, order):
    """``solve(b) = A^-1 b`` for b of N rows, where A's rows and columns, both
    in ``order``, form the band matrix B in LAPACK storage ``ab`` (B[i, j] at
    ab[kl + ku + i - j, j], the top kl rows left for fill); None unless
    dgbtrf factors B and dgbcon's estimate passes ``_certified``."""
    from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs
    size = ab.shape[1]
    lu, piv, info = dgbtrf(ab, kl, ku)
    if info != 0 or not _certified(
            dgbcon(kl, ku, lu, piv, np.abs(ab).sum(axis=0).max())[0], size):
        return None

    def solve(b):
        x = np.empty_like(b)
        x[order] = dgbtrs(lu, kl, ku, b[order].reshape(size, -1), piv)[0].reshape(b.shape)
        return x
    return solve


def pinv_psd(g):
    """``(solve, rank)``, ``solve(b) = G+ b``, for a formed symmetric PSD G.

    From ``_CHOLESKY_MIN_ROWS`` rows up, Cholesky solves when dpocon's
    reciprocal 1-norm condition estimate is certified (``_certified``).
    Otherwise ``eigh`` sets the rank and forms G+ = L diag(lambda)^-1 L^T from
    the kept eigenpairs.
    """
    if not np.isfinite(g).all():
        raise InvalidInputError("gram matrix contains non-finite entries")
    a = 0.5 * (g + g.T)
    m = a.shape[0]
    if m >= _CHOLESKY_MIN_ROWS:
        from scipy.linalg.lapack import dpocon, dpotrf, dpotrs
        chol, info = dpotrf(a)
        if info == 0:
            rcond, _ = dpocon(chol, np.abs(a).sum(axis=0).max())
            if _certified(rcond, m):
                return (lambda b: dpotrs(chol, b)[0]), m
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
    keep = w > rank_cutoff(a.shape, abs(w[-1]) if m else 0.0)
    rank = int(np.count_nonzero(keep))
    if rank < m:
        q, w = q[:, keep], w[keep]
    pinv = (q / w) @ q.T
    return (lambda b: pinv @ b), rank
