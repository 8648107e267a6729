import itertools
import math
import types
from functools import partial

import numpy as np
import pytest
from scipy.linalg import sqrtm

from nlpflow import GainSet, builtin, parse_problem
from nlpflow.dynamics import (
    MultiplierBoundWarning,
    PtsState,
    WorkingSet,
    classify,
    feasibility_lp,
    linearize,
    pts_update,
    resolve_working_set,
    rhs_general,
)
from nlpflow.errors import InvalidInputError, NumericFailureError
from nlpflow.integrate import _ROS_GAMMA, fd_jacobian
from nlpflow.linalg import pinv_psd
from nlpflow.problems import EvalPoint, curvature_at, evaluate

OPT1 = np.array([2.0, 0.5, 0.5])


def formed_jacobian(gains, res, curv):
    """The flow's Jacobian formed densely from ``linearize``'s formula, the
    reference for its solves: with H = ``res.rows``, G = H K H^T and
    T = blkdiag(K_h, diag k_g[working]),

        J = -K W + K H^T G+ (H K W - T H - M),

    for ``curv`` = (W, G_v, H_v) and M the rows of H_v and G_v[working]."""
    w, g_v, h_v = curv
    k, kw = gains.k_theta, gains.k_theta @ w
    hbar, s, working = res.rows, res.pi_e.size, list(res.working_set.working)
    if hbar.shape[0] == 0:
        return -kw
    t_hbar = np.vstack([gains.k_h.reshape(s, s) @ hbar[:s], gains.k_g[working, None] * hbar[s:]])
    gram = pinv_psd(hbar @ k @ hbar.T)[0]
    return (hbar @ k).T @ gram(hbar @ kw - t_hbar - np.vstack([h_v, g_v[working]])) - kw


def make_point(theta, f_grad, g=(), g_jac=None, h=(), h_jac=None, f=0.0):
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    g_jac = np.zeros((g.size, n)) if g_jac is None else np.asarray(g_jac, dtype=float)
    h_jac = np.zeros((h.size, n)) if h_jac is None else np.asarray(h_jac, dtype=float)
    return EvalPoint(theta=theta, f=f, f_grad=np.asarray(f_grad, dtype=float),
                     g=g, g_jac=g_jac, h=h, h_jac=h_jac)


class TestGainSet:
    def test_uniform(self):
        gains = GainSet.uniform(3, 2, 5, k_theta=0.1, k_h=0.2, k_g=0.3)
        assert np.array_equal(gains.k_theta, 0.1 * np.eye(3))
        assert np.array_equal(gains.k_h, 0.2 * np.eye(2))
        assert np.array_equal(gains.k_g, np.full(5, 0.3))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            GainSet(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(1), np.ones(1))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            GainSet(np.diag([1.0, -1.0]), np.eye(1), np.ones(1))

    @pytest.mark.parametrize("gains", [
        (np.full((2, 2), math.nan), np.eye(1), np.ones(1)),
        (np.eye(2), np.diag([math.inf]), np.ones(1)),
        (np.eye(2), np.eye(1), np.array([1.0, math.inf])),
    ])
    def test_rejects_non_finite(self, gains):
        with pytest.raises(InvalidInputError, match="must be finite"):
            GainSet(*gains)

    def test_uniform_rejects_non_finite_without_warning(self):
        # an infinite scalar is not multiplied by the identity's zeros
        for scalars in ((math.inf, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.inf)):
            with pytest.raises(InvalidInputError, match="must be finite"):
                GainSet.uniform(2, 1, 1, *scalars)

    @pytest.mark.parametrize("gains", [
        (np.ones((2, 3)), np.eye(1), np.ones(1)),
        (np.eye(2), np.ones(1), np.ones(1)),
    ])
    def test_rejects_non_square(self, gains):
        with pytest.raises(InvalidInputError, match="must be square"):
            GainSet(*gains)

    def test_rejects_nonpositive_decay(self):
        with pytest.raises(InvalidInputError):
            GainSet(np.eye(2), np.eye(1), np.array([1.0, 0.0]))


def active_point(g):
    return make_point(np.zeros(1), np.zeros(1), g=g)


class TestPrioritySchedule:
    def test_single_group(self):
        pts = PtsState.covering(4)
        assert pts.count == 1 and pts.enabled == 1
        assert classify(active_point([0.5] * 4), pts).activated == (0, 1, 2, 3)
        empty = PtsState.covering(0)
        assert empty.count == 1 and empty.group.size == 0
        assert pts_update(empty, active_point([])) is empty

    def test_covering_adds_unlisted_rows_as_last_group(self):
        pts = PtsState.covering(5, [(2, 0), ()])
        assert pts.group.tolist() == [0, 2, 0, 2, 2] and pts.count == 3
        violated = active_point([0.5] * 5)
        assert classify(violated, pts).activated == (0, 2)
        # group 0 satisfied: the empty group joins with it, then the rest
        rest = pts_update(pts, active_point([-1.0, 0.5, -1.0, 0.5, 0.5]))
        assert rest.enabled == 3
        assert classify(violated, rest).activated == (0, 1, 2, 3, 4)
        listed = PtsState.covering(3, [(1,), (0, 2)])
        assert listed.group.tolist() == [1, 0, 1] and listed.count == 2
        assert classify(active_point([0.5] * 3), listed).activated == (1,)

    def test_covering_rejects_a_row_that_is_not_a_row_number(self):
        with pytest.raises(InvalidInputError, match="row 1.5 outside"):
            PtsState.covering(5, [(1.5,)])

    @pytest.mark.parametrize("groups", [[0, 1], [(0,), 1], [[[0]]], [(1.5, "a")],
                                        [[True], [2.0]], [[2.0]], [(0,), (np.True_,)]])
    def test_covering_rejects_a_group_that_is_not_a_sequence_of_rows(self, groups):
        with pytest.raises(InvalidInputError, match="sequences of rows"):
            PtsState.covering(5, groups)

    def test_rejects_overlap(self):
        for groups in ([(0, 1), (1, 2)], [(0, 0)], [(2,), (2.0,)]):
            with pytest.raises(InvalidInputError, match="disjoint"):
                PtsState.covering(3, groups)

    def test_monotone_advance(self):
        pts = PtsState.covering(4, [(0, 1), (2,), (3,)])
        assert classify(active_point([0.5] * 4), pts).activated == (0, 1)
        behind = active_point([0.5, -1.0, -1.0, -1.0])
        assert pts_update(pts, behind) is pts
        ready = active_point([-0.1, -0.1, 0.4, -1.0])
        advanced = pts_update(pts, ready)
        assert advanced.enabled == 2
        # never retreats even if an earlier group re-violates
        assert pts_update(advanced, behind).enabled == 2
        assert pts_update(advanced, behind) is advanced

    def test_multi_advance_when_all_satisfied(self):
        pts = PtsState.covering(3, [(0,), (1,), (2,)])
        ok = active_point([-1.0, -1.0, -1.0])
        assert pts_update(pts, ok).enabled == 3 == pts.count


def reference_schedule(r, groups, enabled, g, warm):
    """Plain-set model of the schedule: the next enablement count and the
    working-set candidate at that count."""
    sets = [set(grp) for grp in groups]
    rest = set(range(r)).difference(*sets)
    sets += [rest] if rest or not groups else []
    while enabled < len(sets) and not any(g[i] > 1e-6 for grp in sets[:enabled] for i in grp):
        enabled += 1
    activated = {i for grp in sets[:enabled] for i in grp if g[i] >= -1e-8}
    return enabled, tuple(sorted(activated)), tuple(sorted(activated & set(warm)))


def test_schedule_and_classify_match_a_set_reference():
    rng = np.random.default_rng(20181121)
    edge = [-2e-8, -1e-8, 0.0, 1e-6, 2e-6, math.nan]
    for _ in range(400):
        r = int(rng.integers(0, 9))
        label = rng.integers(-1, int(rng.integers(1, 5)), size=r)   # -1: in no group
        groups = [list(rng.permutation(np.flatnonzero(label == k)))
                  for k in range(label.max(initial=-1) + 1 + int(rng.integers(0, 2)))]
        pts = PtsState.covering(r, groups)
        enabled = 1
        for _ in range(3):
            g = np.where(rng.random(r) < 0.3, rng.choice(edge, size=r), rng.normal(0, 1e-6, r))
            warm = tuple(np.flatnonzero(rng.random(r) < 0.5).tolist())
            enabled, activated, working = reference_schedule(r, groups, enabled, g, warm)
            new = pts_update(pts, active_point(g))
            assert new.enabled == enabled
            assert (new is pts) == (new.enabled == pts.enabled)
            ws = classify(active_point(g), new, warm)
            assert (ws.activated, ws.working) == (activated, working)
            assert all(type(i) is int for i in ws.activated + ws.working)
            pts = new


class TestClassify:
    def test_example1_at_optimum(self):
        point = evaluate(builtin("example1"), OPT1)
        ws = classify(point)
        assert ws.activated == (3,)
        assert ws.working == ()

    def test_interior_point_empty(self):
        point = make_point(np.zeros(1), np.zeros(1), g=[-1.0, -0.5])
        assert classify(point).activated == ()

    def test_priority_filtering_and_warm_start(self):
        point = make_point(np.zeros(1), np.zeros(1), g=[0.2, 0.3, 0.4])
        pts = PtsState.covering(3, [(0, 1), (2,)])
        ws = classify(point, pts, warm=(1, 2))
        assert ws.activated == (0, 1)
        assert ws.working == (1,)    # warm index 2 is not enabled yet

    def test_working_must_be_subset(self):
        with pytest.raises(InvalidInputError):
            WorkingSet(activated=(0,), working=(1,))


class TestRhsClosedForms:
    def test_ec_quadratic_at_optimum(self):
        point = evaluate(builtin("ec-quadratic"), np.array([1.0, 1.0]))
        gains = GainSet.uniform(2, 1, 0, k_theta=1.0, k_h=1.0)
        res = rhs_general(point, gains, WorkingSet((), ()))
        assert np.allclose(res.pi_e, [-1.0], atol=1e-12)
        assert np.abs(res.dtheta).max() <= 1e-12

    def test_ec_quadratic_infeasible_start(self):
        point = evaluate(builtin("ec-quadratic"), np.array([0.0, 0.0]))
        gains = GainSet.uniform(2, 1, 0, k_theta=1.0, k_h=1.0)
        res = rhs_general(point, gains, WorkingSet((), ()))
        assert np.allclose(res.pi_e, [-1.0])
        assert np.allclose(res.dtheta, [1.0, 1.0])
        # the equality violation decays at exactly first order
        assert np.isclose(point.h_jac @ res.dtheta, -(gains.k_h @ point.h))

    def test_example1_multipliers_at_optimum(self):
        point = evaluate(builtin("example1"), OPT1)
        gains = GainSet.uniform(3, 2, 5)
        res = resolve_working_set(point, gains, classify(point))
        assert np.abs(res.dtheta).max() <= 1e-10
        assert np.allclose(res.pi_e, [0.35, 0.70], atol=1e-10)
        assert np.isclose(res.pi_i[3], 0.75, atol=1e-10)
        assert np.all(res.pi_i[[0, 1, 2, 4]] == 0.0)
        assert res.working_set.working == (3,)

    def test_full_row_rank_matches_direct_solve(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(1, n))
            point = make_point(rng.standard_normal(n), rng.standard_normal(n),
                               h=rng.standard_normal(s),
                               h_jac=rng.standard_normal((s, n)))
            gains = GainSet.uniform(n, s, 0, k_theta=0.5, k_h=0.7)
            res = rhs_general(point, gains, WorkingSet((), ()))
            gram = point.h_jac @ gains.k_theta @ point.h_jac.T
            b = point.h_jac @ gains.k_theta @ point.f_grad - gains.k_h @ point.h
            assert np.allclose(res.pi_e, -np.linalg.solve(gram, b), atol=1e-9)

    def test_feasible_direction_matches_projector_factored_form(self):
        # dtheta = -K^(1/2) (I - P_row(hbar K^(1/2))) K^(1/2) f_grad
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(1, n + 1))
            a = rng.standard_normal((n, n))
            k_theta = a @ a.T + np.eye(n)
            h_jac = rng.standard_normal((s, n))
            point = make_point(rng.standard_normal(n), rng.standard_normal(n),
                               h=np.zeros(s), h_jac=h_jac)
            gains = GainSet(k_theta, np.eye(s), np.zeros(0))
            res = rhs_general(point, gains, WorkingSet((), ()))
            root = sqrtm(k_theta)
            m = h_jac @ root
            proj = np.linalg.pinv(m) @ m
            expected = -root @ (np.eye(n) - proj) @ root @ point.f_grad
            assert np.allclose(res.dtheta, expected, atol=1e-8)

    def test_non_diagonal_gain_takes_the_dense_route(self, monkeypatch):
        import scipy.linalg.lapack as lapack

        def no_band(*args, **kwargs):
            raise AssertionError("a non-diagonal gain must not take the banded branch")

        monkeypatch.setattr(lapack, "dgbtrf", no_band)
        n = 100
        rng = np.random.default_rng(3)
        theta = rng.uniform(0.7, 1.2, n)
        theta[0] = 2.0
        point = evaluate(builtin("example2", size=n), theta)
        off = 0.02 * np.ones(n - 1)
        k_theta = 0.1 * np.eye(n) + np.diag(off, 1) + np.diag(off, -1)
        gains = GainSet(k_theta, np.eye(n - 1), np.ones(2 * n))
        working = (4,)
        res = rhs_general(point, gains, WorkingSet(working, working))
        hbar = np.vstack([point.h_jac, point.g_jac[list(working)]])
        gram = hbar @ k_theta @ hbar.T
        b = (hbar @ k_theta @ point.f_grad
             - np.concatenate([point.h, point.g[list(working)]]))
        pi = -np.linalg.solve(gram, b)
        assert res.stacked_jacobian_rank == n
        assert np.abs(np.concatenate([res.pi_e, res.pi_i[list(working)]]) - pi).max() \
            <= 1e-9 * np.abs(pi).max()

    def test_diagonal_gains_equal_the_dense_products_bitwise(self):
        """On example1 the broadcasts replace K @ x, H @ K and K_h @ x without
        changing a bit of the flow or its linearization."""
        p = builtin("example1")
        gains = GainSet(np.diag([0.1, 0.3, 0.2]), np.diag([0.4, 0.7]),
                        np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        k, k_h = gains.k_theta, gains.k_h
        for theta, working in (([1.7, 0.8, 0.6], (3, 4)), ([-4.8578, 3.8180, -2.7364], ()),
                               (OPT1, (3,)), ([2.5, 0.1, 0.9], (0, 2))):
            point = evaluate(p, np.array(theta))
            res = rhs_general(point, gains, WorkingSet(working, working))
            w = list(working)
            hbar = np.vstack([point.h_jac, point.g_jac[w]])
            hk = hbar @ k
            gram, rank, _ = pinv_psd(hk @ hbar.T)
            sol = gram(hk @ point.f_grad - np.concatenate(
                [k_h @ point.h, gains.k_g[w] * point.g[w]]))
            assert np.array_equal(res.dtheta, -k @ (point.f_grad - hbar.T @ sol))
            assert np.array_equal(np.concatenate([res.pi_e, res.pi_i[w]]), -sol)
            assert res.stacked_jacobian_rank == rank
            curv = curvature_at(p, point, res.pi_e, res.pi_i, res.dtheta)
            # the same gains held as matrices take the dense products
            full = types.SimpleNamespace(_k_theta=k, _k_h=k_h, k_g=gains.k_g)
            v = np.array([0.3, -1.2, 0.7])
            for sigma in (0.5, 40.0):
                solves = [linearize(g, res, curv)(sigma, lambda a: partial(np.linalg.solve, a))(v)
                          for g in (gains, full)]
                assert np.array_equal(*solves)

    def test_non_finite_flow_is_a_numeric_failure(self):
        # valid finite input whose direction overflows
        point = make_point([0.0], [1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericFailureError, match="non-finite"):
            rhs_general(point, GainSet.uniform(1, 0, 0, k_theta=10.0), WorkingSet((), ()))

    def test_multiplier_bound_warning(self):
        point = evaluate(builtin("ec-quadratic"), np.array([0.0, 0.0]))
        gains = GainSet.uniform(2, 1, 0, k_theta=1e-8, k_h=1.0)
        with pytest.warns(MultiplierBoundWarning):
            rhs_general(point, gains, WorkingSet((), ()))


class TestRedundantRows:
    @staticmethod
    def with_extra_equality_row(point, scale, row_index=0):
        return EvalPoint(
            theta=point.theta, f=point.f, f_grad=point.f_grad,
            g=point.g, g_jac=point.g_jac,
            h=np.append(point.h, scale * point.h[row_index]),
            h_jac=np.vstack([point.h_jac, scale * point.h_jac[row_index]]))

    @pytest.mark.parametrize("scale", [1.0, 2.0, -0.5])
    def test_example1_direction_invariant(self, scale):
        rng = np.random.default_rng(2)
        problem = builtin("example1")
        for _ in range(10):
            point = evaluate(problem, rng.uniform(-3, 3, size=3))
            gains = GainSet.uniform(3, point.h.size, 5)
            base = resolve_working_set(point, gains, classify(point))
            extended = self.with_extra_equality_row(point, scale)
            gains_ext = GainSet.uniform(3, extended.h.size, 5)
            more = resolve_working_set(extended, gains_ext, classify(extended))
            assert np.abs(base.dtheta - more.dtheta).max() <= 1e-8

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_random_problems_direction_invariant(self, scale):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            s = int(rng.integers(1, n))
            h_jac = rng.standard_normal((s, n))
            point = make_point(rng.standard_normal(n), rng.standard_normal(n),
                               h=rng.standard_normal(s), h_jac=h_jac)
            gains = GainSet.uniform(n, s, 0)
            base = rhs_general(point, gains, WorkingSet((), ()))
            extended = self.with_extra_equality_row(point, scale)
            gains_ext = GainSet.uniform(n, s + 1, 0)
            more = rhs_general(extended, gains_ext, WorkingSet((), ()))
            assert np.abs(base.dtheta - more.dtheta).max() <= 1e-8


def brute_force_directions(point, gains, candidate, sign_tol=1e-9, dyn_tol=1e-8):
    """Enumerate every working subset and keep those satisfying the sign and
    decay conditions; the independent oracle for resolve_working_set."""
    activated = list(candidate.activated)
    found = []
    for size in range(len(activated) + 1):
        for subset in itertools.combinations(activated, size):
            ws = WorkingSet(activated=tuple(activated), working=subset)
            res = rhs_general(point, gains, ws)
            if subset and res.pi_i[list(subset)].min() < -sign_tol:
                continue
            outside = [i for i in activated if i not in subset]
            if outside:
                resid = (point.g_jac[outside] @ res.dtheta
                         + gains.k_g[outside] * point.g[outside])
                if resid.max() > dyn_tol:
                    continue
            found.append((subset, res.dtheta))
    return found


class TestWorkingSetResolution:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        solved = 0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            r = int(rng.integers(1, 4))
            s = int(rng.integers(0, 2))
            theta = rng.uniform(-1, 1, size=n)
            a = rng.uniform(-1, 1, size=n)
            b_mat = rng.standard_normal((r, n))
            c = rng.uniform(-0.5, 0.5, size=r)
            d = rng.standard_normal((s, n))
            e = rng.uniform(-0.5, 0.5, size=s)
            point = make_point(theta, theta - a,
                               g=b_mat @ theta - c, g_jac=b_mat,
                               h=d @ theta - e if s else (), h_jac=d)
            gains = GainSet.uniform(n, s, r, k_theta=1.0, k_h=1.0, k_g=1.0)
            candidate = classify(point)
            oracle = brute_force_directions(point, gains, candidate)
            try:
                res = resolve_working_set(point, gains, candidate)
            except NumericFailureError:
                assert not oracle
                continue
            assert oracle, "resolver settled but the oracle found nothing"
            best = min(np.abs(res.dtheta - d0).max() for _, d0 in oracle)
            assert best <= 1e-6
            solved += 1
        assert solved >= 80   # the vast majority of random instances settle

    def test_drops_negative_multiplier(self):
        # descent pushes away from a touching constraint; its multiplier
        # would be negative, so the working set must come back empty
        point = make_point([0.0], f_grad=[-1.0], g=[0.0], g_jac=[[-1.0]])
        gains = GainSet.uniform(1, 0, 1, k_theta=1.0, k_g=1.0)
        res = resolve_working_set(point, gains,
                                  WorkingSet(activated=(0,), working=(0,)))
        assert res.working_set.working == ()
        assert np.allclose(res.dtheta, [1.0])

    def test_adds_violated_dynamics(self):
        # descent increases g; the constraint must join the working set
        point = make_point([0.0], f_grad=[-1.0], g=[0.0], g_jac=[[1.0]])
        gains = GainSet.uniform(1, 0, 1, k_theta=1.0, k_g=1.0)
        res = resolve_working_set(point, gains,
                                  WorkingSet(activated=(0,), working=()))
        assert res.working_set.working == (0,)
        assert np.allclose(res.dtheta, [0.0])
        assert res.pi_i[0] >= 0.0

    def test_conflicting_dynamics_stall_with_balanced_multipliers(self):
        # two violated one-sided bounds demand motion in opposite directions;
        # the pseudo-inverse projects the unachievable decay away and the
        # flow stalls instead of oscillating
        point = make_point([1.5], f_grad=[0.0],
                           g=[0.5, 0.5], g_jac=[[1.0], [-1.0]])
        gains = GainSet.uniform(1, 0, 2, k_theta=1.0, k_g=1.0)
        res = resolve_working_set(point, gains,
                                  WorkingSet(activated=(0, 1), working=()))
        assert res.working_set.working == (0, 1)
        assert np.abs(res.dtheta).max() <= 1e-12
        assert np.all(res.pi_i >= -1e-12)


class TestFeasibilityLp:
    def test_certifies_feasible_case(self):
        point = make_point([1.5], f_grad=[0.0], g=[0.5], g_jac=[[1.0]])
        gains = GainSet.uniform(1, 0, 1, k_g=1.0)
        lp = feasibility_lp(point, gains, box=10.0, activated=[0])
        assert lp.gamma <= 1e-9
        assert lp.excluded == ()

    def test_flags_conflicting_violations(self):
        point = make_point([1.5], f_grad=[0.0],
                           g=[0.5, 0.5], g_jac=[[1.0], [-1.0]])
        gains = GainSet.uniform(1, 0, 2, k_g=1.0)
        lp = feasibility_lp(point, gains, box=10.0, activated=[0, 1])
        assert lp.gamma > 1e-3

    def test_equality_rows_are_hard(self):
        point = make_point([0.0, 0.0], f_grad=[0.0, 0.0],
                           g=[0.2], g_jac=[[1.0, 0.0]],
                           h=[-2.0], h_jac=[[1.0, 1.0]])
        gains = GainSet.uniform(2, 1, 1, k_h=1.0, k_g=1.0)
        lp = feasibility_lp(point, gains, box=10.0, activated=[0])
        assert np.isclose(point.h_jac @ lp.direction, 2.0, atol=1e-9)
        assert lp.gamma <= 1e-9

    def test_zero_gradient_rows_excluded(self):
        point = make_point([0.0], f_grad=[0.0],
                           g=[0.1, 0.2], g_jac=[[1.0], [0.0]])
        gains = GainSet.uniform(1, 0, 2, k_g=1.0)
        lp = feasibility_lp(point, gains, box=10.0, activated=[0, 1])
        assert lp.excluded == (1,)

    def test_requires_constraints(self):
        point = make_point([0.0], f_grad=[0.0])
        gains = GainSet.uniform(1, 0, 0)
        with pytest.raises(InvalidInputError):
            feasibility_lp(point, gains, box=1.0, activated=[])

    @pytest.mark.parametrize("box", [0.0, -1.0])
    def test_requires_a_positive_box(self, box):
        point = make_point([1.5], f_grad=[0.0], g=[0.5], g_jac=[[1.0]])
        with pytest.raises(InvalidInputError, match="box bound must be positive"):
            feasibility_lp(point, GainSet.uniform(1, 0, 1), box=box, activated=[0])


class TestFlowJacobian:
    """The shifted solve v -> (sigma I - J)^-1 v of the flow's linearization
    against the formed Jacobian (``formed_jacobian``), and that against
    forward differences of rhs_general with the working set frozen."""

    def check(self, problem, theta, gains, working, rank, banded=False, differenced=True):
        ws = WorkingSet(activated=working, working=working)
        point = evaluate(problem, theta)
        res = rhs_general(point, gains, ws)
        assert res.stacked_jacobian_rank == rank
        curv = curvature_at(problem, point, res.pi_e, res.pi_i, res.dtheta)
        jac = formed_jacobian(gains, res, curv)
        ref = fd_jacobian(lambda t: rhs_general(evaluate(problem, t), gains, ws).dtheta,
                          theta, res.dtheta)
        if differenced:
            assert np.abs(jac - ref).max() <= 1e-5 * max(1.0, np.abs(ref).max())

        def dense(lhs):
            assert not banded, "the banded path formed the saddle-point system"
            return lambda v: np.linalg.solve(lhs, v)

        factor = linearize(gains, res, curv)
        v = np.random.default_rng(7).standard_normal(theta.size)
        # the stiff stepper's sigma = 1/(h gamma) at h = 0.05, 1 and 100
        for sigma in (1 / (0.05 * _ROS_GAMMA), 1 / _ROS_GAMMA, 1 / (100 * _ROS_GAMMA)):
            got = factor(sigma, dense)(v)
            # the solve inverts a matrix within 1e-5 of sigma I - J_fd; its
            # difference from the solve with J_fd is that times the condition
            # number, which for the chain reaches 2e3 at h = 100
            lhs = sigma * np.eye(theta.size) - ref
            if differenced:
                assert (np.abs(lhs @ got - v).max()
                        <= 1e-5 * np.abs(lhs).sum(axis=1).max() * np.abs(got).max())
            want = np.linalg.solve(sigma * np.eye(theta.size) - jac, v)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_rank_deficient_gram(self):
        # the duplicated equality leaves 4 stacked rows of rank 3: eigh branch
        p = builtin("example1")
        self.check(p, np.array([1.7, 0.8, 0.6]), GainSet.uniform(3, 2, 5, 0.1, 0.3, 0.7),
                   working=(3, 4), rank=3)

    def test_full_rank_gram(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("full-rank Gram should be solved by Cholesky")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        n = 10
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n))
        k_theta = 0.1 * (a @ a.T / n + np.eye(n))
        gains = GainSet(k_theta, 1.5 * np.eye(n - 1), rng.uniform(0.5, 2.0, 2 * n))
        # the equality rows and one quadratic band row span R^n
        self.check(builtin("example2", size=n), rng.uniform(0.7, 1.2, n), gains,
                   working=(4,), rank=n)

    def test_banded_gram(self, monkeypatch):
        import scipy.linalg.lapack as lapack
        calls = [0]
        dgbtrf = lapack.dgbtrf

        def counted(*args, **kwargs):
            calls[0] += 1
            return dgbtrf(*args, **kwargs)

        monkeypatch.setattr(lapack, "dgbtrf", counted)
        n = 100
        rng = np.random.default_rng(6)
        gains = GainSet(np.diag(rng.uniform(0.05, 0.2, n)), np.diag(rng.uniform(0.5, 2.0, n - 1)),
                        rng.uniform(0.5, 2.0, 2 * n))
        theta = rng.uniform(0.7, 1.2, n)
        # the band row, appended after the equalities, makes the Gram arrow-shaped
        self.check(builtin("example2", size=n), theta, gains, working=(6,), rank=n,
                   banded=True)
        assert calls[0] >= 5

    def test_rank_deficient_banded_rows(self):
        # the same draws with working rows (6, 31, 82): 102 stacked rows of
        # rank 100, so the system is built on the Gram's range and solved densely.
        # The forward-difference checks stay off: J, formed or solved, leaves
        # out the derivative of G+ where the targets are not in G's range, and
        # differs from forward differences by 14.6 against a largest entry of
        # 9.3; that defect is still open.
        n = 100
        rng = np.random.default_rng(6)
        gains = GainSet(np.diag(rng.uniform(0.05, 0.2, n)), np.diag(rng.uniform(0.5, 2.0, n - 1)),
                        rng.uniform(0.5, 2.0, 2 * n))
        theta = rng.uniform(0.7, 1.2, n)
        self.check(builtin("example2", size=n), theta, gains, working=(6, 31, 82), rank=n,
                   differenced=False)

    def test_empty_equality_gain_of_either_shape(self):
        # GainSet accepts any empty k_h when there is no equality
        p = parse_problem("var 2\nmin x1^2 + x2^2\nineq 1 - x1\n")
        for k_h in (np.zeros(0), np.zeros((0, 0))):
            self.check(p, np.array([0.5, 3.0]), GainSet(np.eye(2), k_h, np.ones(1)),
                       working=(0,), rank=1)

    def test_no_rows(self):
        p = builtin("unconstrained-quadratic", size=3)
        gains = GainSet(np.diag([0.5, 1.0, 2.0]), np.eye(0), np.zeros(0))
        self.check(p, np.array([1.0, -2.0, 0.5]), gains, working=(), rank=0)
        point = evaluate(p, np.ones(3))
        res = rhs_general(point, gains, WorkingSet((), ()))
        factor = linearize(gains, res, curvature_at(p, point, res.pi_e, res.pi_i, res.dtheta))
        formed = []

        def dense(lhs):
            formed.append(lhs.shape)
            return lambda v: np.linalg.solve(lhs, v)

        # J = -K: the system is sigma I + K alone
        v = np.array([1.0, -2.0, 3.0])
        got = factor(2.0, dense)(v)
        assert formed == [(3, 3)]
        assert np.abs(got - v / (2.0 + np.diag(gains.k_theta))).max() <= 1e-15
