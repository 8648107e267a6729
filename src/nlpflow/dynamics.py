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

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CyclingError, InfeasibleSubproblemError, InvalidInputError,
                     NumericFailureError)
from .linalg import pinv_gram, rank_cutoff

# a working multiplier below -_SIGN_TOL leaves the working set; an activated
# row whose decay residual dg_i/dtau + k_g[i] g_i exceeds _DYN_TOL joins it
_SIGN_TOL = 1e-9
_DYN_TOL = 1e-8
_MULTIPLIER_BOUND = 1e6


class MultiplierBoundWarning(RuntimeWarning):
    """Multiplier norm exceeded _MULTIPLIER_BOUND; the flow continues."""


@dataclass(frozen=True)
class GainSet:
    """Positive-definite gains for the flow.

    ``k_theta`` (n x n) scales the descent direction, ``k_h`` (s x s) the
    equality-violation decay, ``k_g`` (length r, strictly positive) the
    per-inequality violation decay rates.
    """

    k_theta: np.ndarray
    k_h: np.ndarray
    k_g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k_theta", np.asarray(self.k_theta, dtype=float))
        object.__setattr__(self, "k_h", np.asarray(self.k_h, dtype=float))
        object.__setattr__(self, "k_g", np.atleast_1d(np.asarray(self.k_g, dtype=float)))
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

    @classmethod
    def uniform(cls, n, s, r, k_theta=0.1, k_h=0.1, k_g=0.1):
        """Scalar shorthands expanded to scaled identities / constant vectors."""
        return cls(k_theta * np.eye(n), k_h * np.eye(s), np.full(r, float(k_g)))


@dataclass(frozen=True)
class PtsState:
    """Priority schedule over inequality groups.

    ``groups`` partitions the inequality indices by priority (group 0 first);
    ``enabled`` counts how many leading groups are currently enforced.
    Enablement is monotone: once a group joins it never leaves.
    """

    groups: tuple
    enabled: int = 1

    def __post_init__(self):
        object.__setattr__(self, "groups",
                           tuple(tuple(sorted(int(i) for i in g)) for g in self.groups))
        seen = [i for g in self.groups for i in g]
        if len(set(seen)) != len(seen):
            raise InvalidInputError("priority groups must be disjoint")
        if not 1 <= self.enabled <= max(1, len(self.groups)):
            raise InvalidInputError("enabled group count out of range")

    @classmethod
    def covering(cls, r, groups=()):
        """``groups`` of the rows 0..r-1 in priority order, then the rows in
        none; a row outside [0, r) is an InvalidInputError."""
        groups = [tuple(g) for g in groups]
        bad = set().union(*groups).difference(range(r))
        if bad:
            raise InvalidInputError(f"priority group row {min(bad)} outside [0, {r})")
        rest = set(range(r)).difference(*groups)
        return cls(groups=groups + [rest] if rest or not groups else groups)

    def enabled_indices(self):
        return sorted(i for g in self.groups[:self.enabled] for i in g)


def pts_update(state, point):
    """Advance the priority schedule.

    The next group joins once every constraint in all currently enabled
    groups satisfies g_i <= 1e-6; repeated so that fully satisfied problems
    enable everything at once.  Equalities are always enforced and are not
    part of the schedule.
    """
    enabled = state.enabled
    while enabled < len(state.groups):
        idx = [i for g in state.groups[:enabled] for i in g]
        if idx and np.max(point.g[idx]) > 1e-6:
            break
        enabled += 1
    if enabled == state.enabled:
        return state
    return PtsState(groups=state.groups, enabled=enabled)


@dataclass(frozen=True)
class WorkingSet:
    """Activated inequality indices and the working subset treated as equalities."""

    activated: tuple
    working: tuple

    def __post_init__(self):
        object.__setattr__(self, "activated", tuple(sorted(set(self.activated))))
        object.__setattr__(self, "working", tuple(sorted(set(self.working))))
        if not set(self.working) <= set(self.activated):
            raise InvalidInputError("working set must be a subset of activated set")


@dataclass(frozen=True)
class RhsResult:
    """Flow direction with its multipliers and working-set diagnostics."""

    dtheta: np.ndarray
    pi_e: np.ndarray
    pi_i: np.ndarray
    working_set: WorkingSet
    stacked_jacobian_rank: int


def classify(point, eps_act, pts=None, warm=()):
    """Initial working-set candidate at a point.

    Activated means g_i >= -eps_act among priority-enabled rows; the working
    candidate is the previous step's working set intersected with the
    activated set (warm start).
    """
    r = point.g.size
    pts = PtsState.covering(r) if pts is None else pts
    enabled = pts.enabled_indices()
    activated = tuple(i for i in enabled if point.g[i] >= -eps_act)
    working = tuple(i for i in warm if i in activated)
    return WorkingSet(activated=activated, working=working)


def rhs_general(point, gains, ws):
    """Flow direction valid anywhere: violations decay at first order.

    Equality values follow dh/dtau = -K_h h (projected onto the achievable
    subspace when the stacked Jacobian is rank deficient) and each working
    inequality follows dg_i/dtau = -k_g[i] g_i.
    """
    s = point.h.size
    working = sorted(ws.working)
    if working:
        hbar = np.vstack([point.h_jac, point.g_jac[working]])
    else:
        hbar = point.h_jac
    m = hbar.shape[0]
    if m == 0:
        pi = np.zeros(0)
        dtheta = -gains.k_theta @ point.f_grad
        rank = 0
    else:
        hk = hbar @ gains.k_theta
        gram = hk @ hbar.T
        targets = np.concatenate([gains.k_h @ point.h if s else np.zeros(0),
                                  gains.k_g[working] * point.g[working]])
        sol, rank = pinv_gram(gram, hk @ point.f_grad - targets)
        pi = -sol
        dtheta = -gains.k_theta @ (point.f_grad + hbar.T @ pi)
    if not np.all(np.isfinite(dtheta)) or not np.all(np.isfinite(pi)):
        raise NumericFailureError("flow right-hand side produced non-finite values")
    if pi.size and np.linalg.norm(pi) > _MULTIPLIER_BOUND:
        warnings.warn(
            f"multiplier norm {np.linalg.norm(pi):.3e} exceeds bound "
            f"{_MULTIPLIER_BOUND:.1e}", MultiplierBoundWarning, stacklevel=2)
    pi_i = np.zeros(point.g.size)
    if working:
        pi_i[working] = pi[s:]
    return RhsResult(dtheta=dtheta, pi_e=pi[:s], pi_i=pi_i,
                     working_set=ws, stacked_jacobian_rank=rank)


def flow_jacobian(point, gains, res, curvature):
    """Jacobian of the flow at an evaluated point, on the smooth piece of the
    working set ``res`` settled there.

    With H the stacked Jacobian of the equality and working rows, K the
    direction gain, G = H K H^T and T = blkdiag(K_h, diag k_g[working]):

        J = -K W + K H^T G+ (H K W - T H - M),

    where ``curvature(point, pi_e, pi_i, v)`` gives W, the Hessian of the
    Lagrangian at the multipliers of ``res``, and the rows of M,
    (grad^2 c_j theta')^T over the rows of H at v = theta'.  One Gram solve
    with a matrix right-hand side; -K W when no row is working.
    """
    w, g_v, h_v = curvature(point, res.pi_e, res.pi_i, res.dtheta)
    kw = gains.k_theta @ w
    working = list(res.working_set.working)
    hbar = np.vstack([point.h_jac, point.g_jac[working]])
    if hbar.shape[0] == 0:
        return -kw
    hk = hbar @ gains.k_theta
    t_hbar = np.vstack([gains.k_h @ point.h_jac,
                        gains.k_g[working, None] * point.g_jac[working]])
    m_rows = np.vstack([h_v, g_v[working]])
    sol, _ = pinv_gram(hk @ hbar.T, hbar @ kw - t_hbar - m_rows)
    return hk.T @ sol - kw


def resolve_working_set(point, gains, candidate):
    """Active-set loop settling the working subset.

    Iterates: compute the direction treating the working set as equalities;
    drop the most negative working multiplier (a negative multiplier marks
    the constraint inactive); otherwise add the activated index whose
    required decay dg_i/dtau + k_g[i] g_i <= _DYN_TOL is worst violated.
    Ties prefer the smallest index.  Terminates when signs and dynamics are
    simultaneously satisfied.

    On failure to settle within 2r+2 iterations the auxiliary LP is run for
    a verdict: an infeasible subproblem raises InfeasibleSubproblemError,
    otherwise CyclingError carries the oscillating sets.
    """
    activated = list(candidate.activated)
    working = [i for i in candidate.working if i in activated]
    history = []
    max_iter = 2 * max(1, point.g.size) + 2
    res = None
    for _ in range(max_iter):
        ws = WorkingSet(activated=tuple(activated), working=tuple(working))
        res = rhs_general(point, gains, ws)
        history.append(tuple(working))
        if working:
            mults = res.pi_i[working]
            worst = int(np.argmin(mults))
            if mults[worst] < -_SIGN_TOL:
                working.pop(worst)
                continue
        outside = [i for i in activated if i not in working]
        if outside:
            resid = point.g_jac[outside] @ res.dtheta + gains.k_g[outside] * point.g[outside]
            worst = int(np.argmax(resid))
            if resid[worst] > _DYN_TOL:
                working.append(outside[worst])
                working.sort()
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
    the rank cutoff are excluded and reported.
    """
    from scipy.optimize import linprog   # only a working set that fails to settle needs it

    n = point.theta.size
    s = point.h.size
    activated = sorted(activated)
    if s + len(activated) == 0:
        raise InvalidInputError("feasibility LP needs at least one constraint")
    if box <= 0:
        raise InvalidInputError("box bound must be positive")

    norms = np.linalg.norm(point.g_jac[activated], axis=1) if activated else np.zeros(0)
    cutoff = rank_cutoff((max(1, len(activated)), n), norms.max() if norms.size else 1.0)
    rows, consts, excluded = [], [], []
    for i, nrm in zip(activated, norms):
        if nrm <= cutoff:
            excluded.append(i)
            continue
        rows.append(point.g_jac[i] / nrm)
        consts.append(gains.k_g[i] * point.g[i] / nrm)

    gmax = box * np.sqrt(n) + (max(abs(c) for c in consts) if consts else 0.0) + 1.0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = b_ub = None
    if rows:
        a_ub = np.hstack([np.asarray(rows), -np.ones((len(rows), 1))])
        b_ub = -np.asarray(consts)
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
                    excluded=tuple(excluded))
