"""Right-hand-side assembly for the optimization flow.

Given an evaluated point, this module classifies activated inequality
constraints, settles the working subset treated as instantaneous equalities
via an active-set loop, computes the multipliers through pseudo-inverse
formulas, and produces d(theta)/d(tau).  A priority schedule over inequality
groups handles hard infeasible starts; an auxiliary feasibility LP gives the
verdict when the working set cannot settle.

Everything here is a pure function of its arguments; solver state (working
set warm start, priority schedule progress) is threaded explicitly.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CyclingError, InfeasibleSubproblemError, InvalidInputError,
                     NumericFailureError)
from .linalg import banded_lu, first_columns, pinv_gram, rank_cutoff, times_gain

_EPS_ACT = 1e-8         # g_i >= -_EPS_ACT counts as activated
# a working multiplier below -_SIGN_TOL leaves the working set; an activated
# row whose decay residual dg_i/dtau + k_g[i] g_i exceeds _DYN_TOL joins it
_SIGN_TOL = 1e-9
_DYN_TOL = 1e-8
_MULTIPLIER_BOUND = 1e6
_TINY = np.finfo(float).tiny


class MultiplierBoundWarning(RuntimeWarning):
    """Multiplier norm exceeded _MULTIPLIER_BOUND; the flow continues."""


@dataclass(frozen=True)
class GainSet:
    """Positive-definite gains for the flow.

    ``k_theta`` (n x n) scales the descent direction, ``k_h`` (s x s) the
    equality-violation decay, ``k_g`` (length r, strictly positive) the
    per-inequality violation decay rates.  The flow applies ``_k_theta`` and
    ``_k_h``: k_theta's and k_h's diagonals when they have no off-diagonal
    nonzero, so that products become broadcasts (``times_gain``), else the
    matrices.
    """

    k_theta: np.ndarray
    k_h: np.ndarray
    k_g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k_theta", np.asarray(self.k_theta, dtype=float))
        object.__setattr__(self, "k_h", np.asarray(self.k_h, dtype=float))
        object.__setattr__(self, "k_g", np.atleast_1d(np.asarray(self.k_g, dtype=float)))
        for name in ("k_theta", "k_h", "k_g"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidInputError(f"{name} must be finite")
        for name in ("k_theta", "k_h"):
            m = getattr(self, name)
            if m.size == 0:
                continue
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InvalidInputError(f"{name} must be square, got {m.shape}")
            if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
                raise InvalidInputError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(m)[0] <= 0.0:
                raise InvalidInputError(f"{name} must be positive-definite")
        if self.k_g.size and self.k_g.min() <= 0.0:
            raise InvalidInputError("k_g entries must be strictly positive")
        for name in ("k_theta", "k_h"):
            k = getattr(self, name)
            d = np.diag(k) if k.size else np.zeros(0)
            object.__setattr__(self, "_" + name,
                               d if np.count_nonzero(k) == np.count_nonzero(d) else k)

    @classmethod
    def uniform(cls, n, s, r, k_theta=0.1, k_h=0.1, k_g=0.1):
        """Scalar shorthands expanded to scaled identities / constant vectors."""
        return cls(np.diag(np.full(n, float(k_theta))), np.diag(np.full(s, float(k_h))),
                   np.full(r, float(k_g)))


def _gain_times(k, a):
    """k @ a, a vector or matrix, for a gain held as in ``times_gain``."""
    return k @ a if k.ndim == 2 else (k[:, None] if a.ndim == 2 else k) * a


@dataclass(frozen=True, eq=False)
class PtsState:
    """Priority schedule over inequality groups.

    ``group[i]`` is row i's priority group (0 first) among ``count`` groups,
    as ``covering`` builds them; ``enabled`` counts how many leading groups
    are currently enforced, so the mask ``group < enabled`` gives the enforced
    rows in increasing order.  Enablement is monotone: once a group joins it
    never leaves.
    """

    group: np.ndarray
    count: int
    enabled: int = 1

    @classmethod
    def covering(cls, r, groups=()):
        """``groups`` of the rows 0..r-1 in priority order, then the rows in
        none; a row outside [0, r), a row in two groups or a group that is
        not a sequence of integer rows (a bool or a float is not one) is an
        InvalidInputError."""
        try:
            groups = [list(g) for g in groups]
            bad = sorted(set().union(*groups).difference(range(r)))
        except TypeError:
            raise InvalidInputError("priority groups must be sequences of rows") from None
        if bad:
            raise InvalidInputError(f"priority group row {bad[0]} outside [0, {r})")
        rows = [i for g in groups for i in g]
        if len(set(rows)) != len(rows):
            raise InvalidInputError("priority groups must be disjoint")
        if any(isinstance(i, bool) or not isinstance(i, numbers.Integral) for i in rows):
            raise InvalidInputError(f"priority groups must be sequences of rows, got {rows}")
        group = np.full(r, len(groups))
        for k, g in enumerate(groups):
            group[np.array(g, dtype=int)] = k
        # the rows in none form a last group, which is also the only one when none is given
        return cls(group, len(groups) + int(len(rows) < r or not groups))


def pts_update(state, point):
    """Advance the priority schedule.

    The next group joins once every constraint in all currently enabled
    groups satisfies g_i <= 1e-6; repeated so that fully satisfied problems
    enable everything at once.  Equalities are always enforced and are not
    part of the schedule.
    """
    enabled = state.enabled
    while enabled < state.count and not np.any(point.g[state.group < enabled] > 1e-6):
        enabled += 1
    if enabled == state.enabled:
        return state
    return PtsState(state.group, state.count, enabled)


@dataclass(frozen=True)
class WorkingSet:
    """Activated inequality rows and the working subset treated as equalities,
    each a tuple of distinct rows in increasing order as ``classify`` and
    ``resolve_working_set`` build them; nothing re-sorts them."""

    activated: tuple
    working: tuple

    def __post_init__(self):
        if not set(self.working) <= set(self.activated):
            raise InvalidInputError("working set must be a subset of activated set")


@dataclass(frozen=True)
class RhsResult:
    """Flow direction with its multipliers and working-set diagnostics, and
    the system it solved for them: ``rows``, the stacked rows H, and
    ``gram``, ``pinv_gram``'s solve b -> (H K H^T)+ b (None with no row),
    which a later ``rhs_general`` on bitwise-equal rows reuses."""

    dtheta: np.ndarray
    pi_e: np.ndarray
    pi_i: np.ndarray
    working_set: WorkingSet
    stacked_jacobian_rank: int
    rows: np.ndarray
    gram: object


def classify(point, pts=None, warm=()):
    """Initial working-set candidate at a point.

    Activated means g_i >= -_EPS_ACT among priority-enabled rows; the working
    candidate is the previous step's working set (sorted rows) intersected
    with the activated set (warm start).
    """
    on = point.g >= -_EPS_ACT
    if pts is not None:
        on &= pts.group < pts.enabled
    warm = np.asarray(warm, dtype=int)
    return WorkingSet(activated=tuple(np.flatnonzero(on).tolist()),
                      working=tuple(warm[on[warm]].tolist()))


def rhs_general(point, gains, ws, prior=None):
    """Flow direction valid anywhere: violations decay at first order.

    Equality values follow dh/dtau = -K_h h (projected onto the achievable
    subspace when the stacked Jacobian is rank deficient) and each working
    inequality follows dg_i/dtau = -k_g[i] g_i.

    ``prior``, an RhsResult under the same gains, lends its Gram solve and
    rank to rows bitwise equal to its own (0.0 and -0.0 are not).
    """
    s = point.h.size
    working = list(ws.working)
    hbar = np.concatenate([point.h_jac, point.g_jac[working]])
    m = hbar.shape[0]
    kt = gains._k_theta
    rank, gram, pi, grad_lag = 0, None, np.zeros(0), point.f_grad
    if m:
        targets = np.concatenate([_gain_times(gains._k_h, point.h),
                                  gains.k_g[working] * point.g[working]])
        same = prior is not None and np.array_equal(prior.rows.view(np.int64), hbar.view(np.int64))
        gram, rank = (prior.gram, prior.stacked_jacobian_rank) if same else pinv_gram(hbar, kt)
        pi = -gram(hbar @ _gain_times(kt, point.f_grad) - targets)
        grad_lag = point.f_grad + hbar.T @ pi
    dtheta = -_gain_times(kt, grad_lag)
    if not (np.isfinite(dtheta).all() and np.isfinite(pi).all()):
        raise NumericFailureError("flow right-hand side produced non-finite values")
    if pi.size and np.linalg.norm(pi) > _MULTIPLIER_BOUND:
        warnings.warn(
            f"multiplier norm {np.linalg.norm(pi):.3e} exceeds bound "
            f"{_MULTIPLIER_BOUND:.1e}", MultiplierBoundWarning, stacklevel=2)
    pi_i = np.zeros(point.g.size)
    pi_i[working] = pi[s:]
    return RhsResult(dtheta=dtheta, pi_e=pi[:s], pi_i=pi_i, working_set=ws,
                     stacked_jacobian_rank=rank, rows=hbar, gram=gram)


def linearize(gains, res, curv):
    """The flow's linearization at an evaluated point, on the smooth piece of
    the working set ``res`` settled there: ``factor(sigma, dense)`` is the
    solve v -> (sigma I - J)^-1 v for the flow's Jacobian J.

    ``curv``, ``curvature_at``'s (W, G_v, H_v) at ``res``, gives W, the
    Lagrangian's Hessian, and M, the rows of H_v and G_v[working].  With the
    gain K, T = blkdiag(K_h, diag k_g[working]), the stacked rows
    H = ``res.rows`` and G+ = ``res.gram``, the pseudo-inverse of
    G = H K H^T, J = -K W + K H^T Y with Y = G+ (H K W - T H - M).  With
    diagonal gains and m > 0 full-rank rows the solve is that of the
    saddle-point system (Benzi, Golub & Liesen 2005), y = Y delta:

        [ sigma I + K W        -K H^T ] [delta]   [ v ]
        [ sigma H + T H + M      0    ] [  y  ] = [H v].

    Its nonzeros are found once; each sigma adds sigma [I; H] and scales
    rows, then columns, to max-abs 1.  A band under a quarter of n + m (rows
    of H placed by ``first_columns``) is factored by ``banded_lu``; else, or
    with no certified LU, ``dense`` factors the formed system.  Otherwise
    (rank-deficient rows, matrix gains or no row) J is formed, by one
    ``res.gram`` solve, and ``dense`` factors sigma I - J.
    """
    n, s = res.dtheta.size, res.pi_e.size
    kt, kh, working = gains._k_theta, gains._k_h, list(res.working_set.working)
    w, g_v, h_v = curv
    rows, m_rows = res.rows, np.concatenate([h_v, g_v[working]])
    if res.stacked_jacobian_rank < len(rows) or max(kt.ndim, kh.ndim) > 1 or not len(rows):
        m_rows += np.concatenate([_gain_times(kh, rows[:s]), gains.k_g[working, None] * rows[s:]])
        kr = times_gain(rows, kt)   # J formed, by one Gram solve
        jac = (kr.T @ res.gram(kr @ w - m_rows) if len(rows) else 0.0) - _gain_times(kt, w)
        return lambda sigma, dense: dense(sigma * np.eye(n) - jac)
    decay = np.concatenate([kh, gains.k_g[working]])   # K and T scale the nonzeros of W and H
    on, on_h = w != 0, (rows != 0) | (m_rows != 0)
    np.fill_diagonal(on, True)
    size = n + rows.shape[0]
    # flat indices: flatnonzero is ten times faster than a 2-D nonzero
    w_at, h_at = np.flatnonzero(on), np.flatnonzero(on_h)
    (wi, wj), (hk, hj) = divmod(w_at, n), divmod(h_at, n)
    h = rows.ravel()[h_at]
    at_rows, at_cols = np.concatenate([wi, hj, n + hk]), np.concatenate([wj, n + hk, hj])
    const = np.concatenate([kt[wi] * w.ravel()[w_at], -kt[hj] * h,
                            decay[hk] * h + m_rows.ravel()[h_at]])
    slope = np.concatenate([wi == wj, 0.0 * h, h])
    order = np.argsort(np.concatenate([np.arange(n), first_columns(rows)]), kind="stable")
    pos = np.argsort(order)
    offset = pos[at_rows] - pos[at_cols]
    kl, ku = int(offset.max()), int(-offset.min())
    banded = 4 * max(kl, ku) < size
    band = (kl + ku + offset) * size + pos[at_cols]

    def factor(sigma, dense):
        vals = const + sigma * slope
        # a zero row or column keeps its zeros, and dgbtrf then fails
        row_max, col_max = np.full(size, _TINY), np.full(size, _TINY)
        np.maximum.at(row_max, at_rows, np.abs(vals))
        vals /= row_max[at_rows]
        np.maximum.at(col_max, at_cols, np.abs(vals))
        vals /= col_max[at_cols]
        solve = banded and banded_lu(_scatter((2 * kl + ku + 1, size), band, vals), kl, ku, order)
        solve = solve or dense(_scatter((size, size), at_rows * size + at_cols, vals))
        return lambda v: solve(np.concatenate([v, rows @ v]) / row_max)[:n] / col_max[:n]
    return factor


def _scatter(shape, at, vals):
    a = np.zeros(shape)
    a.flat[at] = vals
    return a


def resolve_working_set(point, gains, candidate, prior=None):
    """Active-set loop settling the working subset.

    Iterates: compute the direction treating the working set as equalities;
    drop the most negative working multiplier (a negative multiplier marks
    the constraint inactive); otherwise add the activated index whose
    required decay dg_i/dtau + k_g[i] g_i <= _DYN_TOL is worst violated.
    Ties prefer the smallest index.  Terminates when signs and dynamics are
    simultaneously satisfied.  Each direction takes the last one computed,
    at first ``prior`` (see ``rhs_general``), as its prior.

    On failure to settle within 2r+2 iterations the auxiliary LP is run for
    a verdict: an infeasible subproblem raises InfeasibleSubproblemError,
    otherwise CyclingError carries the oscillating sets.
    """
    activated = np.array(candidate.activated, dtype=int)
    in_work = np.zeros(point.g.size, dtype=bool)
    in_work[list(candidate.working)] = True
    history = []
    max_iter = 2 * max(1, point.g.size) + 2
    res = prior
    for _ in range(max_iter):
        w = np.flatnonzero(in_work)
        history.append(tuple(w.tolist()))
        res = rhs_general(point, gains, WorkingSet(candidate.activated, history[-1]), res)
        if w.size:
            mults = res.pi_i[w]
            worst = int(np.argmin(mults))
            if mults[worst] < -_SIGN_TOL:
                in_work[w[worst]] = False
                continue
        outside = activated[~in_work[activated]]
        if outside.size:
            resid = point.g_jac[outside] @ res.dtheta + gains.k_g[outside] * point.g[outside]
            worst = int(np.argmax(resid))
            if resid[worst] > _DYN_TOL:
                in_work[outside[worst]] = True
                continue
        return res

    lp_gamma = None
    if point.h.size + len(activated) > 0:
        box = 10.0 * (1.0 + np.linalg.norm(res.dtheta))
        lp_gamma = feasibility_lp(point, gains, box, activated).gamma
        if lp_gamma > _DYN_TOL:
            raise InfeasibleSubproblemError(
                "no direction satisfies the required constraint dynamics "
                f"(gamma = {lp_gamma:.3e})", lp_gamma=lp_gamma)
    raise CyclingError("working-set loop failed to settle",
                       index_sets=history[-6:], lp_gamma=lp_gamma)


class LpResult(NamedTuple):
    gamma: float
    direction: np.ndarray
    excluded: tuple


def feasibility_lp(point, gains, box, activated):
    """Auxiliary LP certifying existence of a direction with the required
    constraint dynamics.

    minimize gamma subject to  h_jac d = -K_h h  and, for each activated row
    with non-negligible gradient,  (g_i' d + k_g[i] g_i) / ||g_i'|| <= gamma,
    with d box-bounded componentwise.  gamma <= 0 certifies feasibility of
    the direction-finding subproblem.  Rows whose gradient norm falls below
    the rank cutoff are excluded and reported.  ``activated`` lists rows
    in increasing order.
    """
    from scipy.optimize import linprog   # only a working set that fails to settle needs it

    n = point.theta.size
    s = point.h.size
    activated = np.array(activated, dtype=int)
    if s + activated.size == 0:
        raise InvalidInputError("feasibility LP needs at least one constraint")
    if box <= 0:
        raise InvalidInputError("box bound must be positive")

    norms = np.linalg.norm(point.g_jac[activated], axis=1)
    cutoff = rank_cutoff((max(1, activated.size), n), norms.max() if norms.size else 1.0)
    keep = norms > cutoff
    rows = point.g_jac[activated[keep]] / norms[keep, None]
    consts = gains.k_g[activated[keep]] * point.g[activated[keep]] / norms[keep]

    gmax = box * np.sqrt(n) + np.abs(consts).max(initial=0.0) + 1.0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = b_ub = None
    if consts.size:
        a_ub = np.hstack([rows, -np.ones((consts.size, 1))])
        b_ub = -consts
    a_eq = b_eq = None
    if s:
        a_eq = np.hstack([point.h_jac, np.zeros((s, 1))])
        b_eq = -(gains.k_h @ point.h)
    bounds = [(-box, box)] * n + [(-gmax, gmax)]
    sol = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not sol.success:
        raise InfeasibleSubproblemError(
            f"auxiliary LP has no solution within the box: {sol.message}")
    return LpResult(gamma=float(sol.x[-1]), direction=sol.x[:-1].copy(),
                    excluded=tuple(activated[~keep].tolist()))
