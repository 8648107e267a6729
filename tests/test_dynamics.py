import itertools

import numpy as np
import pytest
from scipy.linalg import sqrtm

from nlpflow import GainSet, builtin
from nlpflow.dynamics import (
    MultiplierBoundWarning,
    PtsState,
    WorkingSet,
    classify,
    feasibility_lp,
    flow_jacobian,
    pts_update,
    resolve_working_set,
    rhs_general,
)
from nlpflow.errors import InvalidInputError, NumericFailureError
from nlpflow.integrate import fd_jacobian
from nlpflow.problems import EvalPoint, curvature_at, evaluate

OPT1 = np.array([2.0, 0.5, 0.5])


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

    def test_rejects_nonpositive_decay(self):
        with pytest.raises(InvalidInputError):
            GainSet(np.eye(2), np.eye(1), np.array([1.0, 0.0]))


class TestPrioritySchedule:
    def test_single_group(self):
        pts = PtsState.covering(4)
        assert pts.groups == ((0, 1, 2, 3),)
        assert pts.enabled_indices() == [0, 1, 2, 3]
        assert PtsState.covering(0).groups == ((),)

    def test_covering_adds_unlisted_rows_as_last_group(self):
        pts = PtsState.covering(5, [(2, 0), ()])
        assert pts.groups == ((0, 2), (), (1, 3, 4))
        assert PtsState.covering(3, [(1,), (0, 2)]).groups == ((1,), (0, 2))

    def test_covering_rejects_a_row_that_is_not_a_row_number(self):
        with pytest.raises(InvalidInputError, match="row 1.5 outside"):
            PtsState.covering(5, [(1.5,)])

    def test_rejects_overlap(self):
        with pytest.raises(InvalidInputError):
            PtsState(groups=((0, 1), (1, 2)))

    def test_monotone_advance(self):
        pts = PtsState(groups=((0, 1), (2,), (3,)))
        assert pts.enabled_indices() == [0, 1]
        behind = make_point(np.zeros(1), np.zeros(1), g=[0.5, -1.0, -1.0, -1.0])
        assert pts_update(pts, behind) is pts
        ready = make_point(np.zeros(1), np.zeros(1), g=[-0.1, -0.1, 0.4, -1.0])
        advanced = pts_update(pts, ready)
        assert advanced.enabled == 2
        # never retreats even if an earlier group re-violates
        assert pts_update(advanced, behind).enabled == 2

    def test_multi_advance_when_all_satisfied(self):
        pts = PtsState(groups=((0,), (1,), (2,)))
        ok = make_point(np.zeros(1), np.zeros(1), g=[-1.0, -1.0, -1.0])
        assert pts_update(pts, ok).enabled == 3


class TestClassify:
    def test_example1_at_optimum(self):
        point = evaluate(builtin("example1"), OPT1)
        ws = classify(point, eps_act=1e-8)
        assert ws.activated == (3,)
        assert ws.working == ()

    def test_interior_point_empty(self):
        point = make_point(np.zeros(1), np.zeros(1), g=[-1.0, -0.5])
        assert classify(point, 1e-8).activated == ()

    def test_priority_filtering_and_warm_start(self):
        point = make_point(np.zeros(1), np.zeros(1), g=[0.2, 0.3, 0.4])
        pts = PtsState(groups=((0, 1), (2,)))
        ws = classify(point, 1e-8, pts, warm=(1, 2))
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
        res = resolve_working_set(point, gains, classify(point, 1e-8))
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
            base = resolve_working_set(point, gains, classify(point, 1e-8))
            extended = self.with_extra_equality_row(point, scale)
            gains_ext = GainSet.uniform(3, extended.h.size, 5)
            more = resolve_working_set(extended, gains_ext, classify(extended, 1e-8))
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
            candidate = classify(point, eps_act=1e-8)
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


class TestFlowJacobian:
    """The exact flow Jacobian against forward differences of rhs_general
    with the working set frozen."""

    def check(self, problem, theta, gains, working, rank):
        ws = WorkingSet(activated=working, working=working)
        point = evaluate(problem, theta)
        res = rhs_general(point, gains, ws)
        assert res.stacked_jacobian_rank == rank
        jac = flow_jacobian(point, gains, res,
                            lambda *args: curvature_at(problem, *args))
        ref = fd_jacobian(lambda t: rhs_general(evaluate(problem, t), gains, ws).dtheta,
                          theta, res.dtheta)
        assert np.abs(jac - ref).max() <= 1e-5 * max(1.0, np.abs(ref).max())

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

    def test_no_rows(self):
        p = builtin("unconstrained-quadratic", size=3)
        gains = GainSet(np.diag([0.5, 1.0, 2.0]), np.eye(0), np.zeros(0))
        self.check(p, np.array([1.0, -2.0, 0.5]), gains, working=(), rank=0)
        point = evaluate(p, np.ones(3))
        res = rhs_general(point, gains, WorkingSet((), ()))
        jac = flow_jacobian(point, gains, res, lambda *args: curvature_at(p, *args))
        assert np.array_equal(jac, -gains.k_theta)
