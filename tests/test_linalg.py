import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlpflow import builtin
from nlpflow.errors import InvalidInputError
from nlpflow.linalg import pinv, pinv_gram, projector_col, projector_row, rank_cutoff
from nlpflow.problems import evaluate

EPS = np.finfo(float).eps


def random_matrices(count, max_dim=20, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, max_dim + 1))
        n = int(rng.integers(1, max_dim + 1))
        if rng.random() < 0.5:
            # rank-deficient by construction: inner dimension below min(m, n)
            k = int(rng.integers(1, max(2, min(m, n))))
            yield rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        else:
            yield rng.standard_normal((m, n))


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_rank_one_frozen(self):
        assert np.allclose(pinv([[1.0, 1.0], [2.0, 2.0]]),
                           [[0.1, 0.2], [0.1, 0.2]], atol=1e-12)

    def test_zero(self):
        assert np.array_equal(pinv(np.zeros((3, 5))), np.zeros((5, 3)))

    def test_zero_square(self):
        assert np.array_equal(pinv(np.zeros((2, 2))), np.zeros((2, 2)))
        x, rank = pinv_gram(np.zeros((2, 2)), np.ones(2))
        assert rank == 0
        assert np.array_equal(x, np.zeros(2))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            pinv([[1.0, np.nan]])

    def test_inverse_when_square_nonsingular(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        assert np.allclose(pinv(a), np.linalg.inv(a), atol=1e-10)

    def test_penrose_conditions(self):
        count = 0
        for a in random_matrices(200, seed=3):
            p = pinv(a)
            scale = max(1.0, np.abs(a).max())
            assert np.abs(a @ p @ a - a).max() <= 1e-8 * scale
            assert np.abs(p @ a @ p - p).max() <= 1e-8 * max(1.0, np.abs(p).max())
            assert np.abs((a @ p) - (a @ p).T).max() <= 1e-8
            assert np.abs((p @ a) - (p @ a).T).max() <= 1e-8
            count += 1
        assert count == 200

    def test_gram_identities(self):
        # M+ = M^T (M M^T)+ = (M^T M)+ M^T
        for a in random_matrices(50, max_dim=12, seed=4):
            p = pinv(a)
            left = a.T @ pinv(a @ a.T)
            right = pinv(a.T @ a) @ a.T
            assert np.abs(p - left).max() <= 1e-8
            assert np.abs(p - right).max() <= 1e-8

    def test_row_scaling_invariance_on_consistent_systems(self):
        # min-norm solution of M x = b is unchanged by any nonsingular
        # row transformation S applied to both sides
        rng = np.random.default_rng(5)
        for _ in range(50):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            a = rng.standard_normal((m, n))
            b = a @ rng.standard_normal(n)   # consistent by construction
            s = rng.standard_normal((m, m)) + 3 * np.eye(m)
            x0 = pinv(a) @ b
            x1 = pinv(s @ a) @ (s @ b)
            assert np.abs(x0 - x1).max() <= 1e-6

    def test_pinv_gram_matches_svd_path(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m, k = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            a = rng.standard_normal((m, k))
            gram = a @ a.T
            via_gram, rank = pinv_gram(gram, np.eye(m))
            assert np.abs(via_gram - pinv(gram)).max() <= 1e-8
            assert rank == np.linalg.matrix_rank(gram)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=st.integers(2, 12), log_ratio=st.floats(-17.5, -2.0),
           log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_pinv_gram_planted_spectrum(self, m, log_ratio, log_scale, seed):
        """Spectra from lambda_min/lambda_max = 1e-2 * m * eps up to 1e-2
        straddle the rank cutoff m * eps * lambda_max."""
        assume(log_ratio >= np.log10(1e-2 * m * EPS))
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        lam = 10.0 ** rng.uniform(log_ratio, 0.0, m)
        lam[:2] = 1.0, 10.0 ** log_ratio
        gram = (q * (10.0 ** log_scale * lam)) @ q.T
        rhs = rng.standard_normal(m)
        w = np.linalg.eigvalsh(gram)
        cutoff = rank_cutoff(gram.shape, w[-1])
        # eigenvalue solvers disagree by a few eps * lambda_max; keep clear of the cutoff
        assume(not np.any((w > cutoff / 8) & (w < 8 * cutoff)))
        sol, rank = pinv_gram(gram, rhs)
        assert rank == int(np.sum(w > cutoff))
        ref = pinv(gram) @ rhs
        kept = w[w > cutoff]
        cond = kept[-1] / kept[0]
        assert np.linalg.norm(sol - ref) <= 10 * m * EPS * cond * np.linalg.norm(rhs) / kept[0]

    def test_pinv_gram_branches(self, monkeypatch):
        """Full-rank Grams are solved by Cholesky; rank-deficient ones by eigh."""
        calls = [0]
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls[0] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        n = 100
        chain = builtin("example2", size=n)
        theta = np.random.default_rng(0).uniform(0.7, 1.2, size=n)
        theta[0] = 2.0
        point = evaluate(chain, theta)
        gram = 0.1 * point.h_jac @ point.h_jac.T
        rhs = 0.1 * point.h_jac @ point.f_grad
        sol, rank = pinv_gram(gram, rhs)
        assert calls[0] == 0
        assert rank == n - 1
        assert np.linalg.norm(gram @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)

        product = builtin("example1")
        point = evaluate(product, np.array([-4.8578, 3.8180, -2.7364]))
        gram = 0.1 * point.h_jac @ point.h_jac.T
        sol, rank = pinv_gram(gram, np.array([1.0, 2.0]))
        assert calls[0] == 1
        assert rank == 1
        assert np.allclose(sol, pinv(gram) @ [1.0, 2.0], rtol=1e-12)


    def test_pinv_gram_matrix_rhs(self, monkeypatch):
        """A matrix right-hand side gives G+ @ rhs on both branches."""
        calls = [0]
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls[0] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 8))
        rhs = rng.standard_normal((6, 5))
        for gram, rank, eigh_calls in ((a @ a.T, 6, 0), (a[:, :4] @ a[:, :4].T, 4, 1)):
            sol, got = pinv_gram(gram, rhs)
            assert (got, calls[0]) == (rank, eigh_calls)
            ref = pinv(gram) @ rhs
            assert sol.shape == ref.shape
            assert np.abs(sol - ref).max() <= 1e-10 * np.abs(ref).max()


class TestProjectors:
    def test_full_row_rank_col_projector_is_identity(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        assert np.allclose(projector_col(a), np.eye(2), atol=1e-10)

    def test_rank_one_frozen(self):
        assert np.allclose(projector_col([[1.0, 1.0], [2.0, 2.0]]),
                           [[0.2, 0.4], [0.4, 0.8]], atol=1e-12)

    def test_duplicate_row_leaves_row_projector_unchanged(self):
        assert np.allclose(projector_row([[1.0, 1.0], [1.0, 1.0]]),
                           projector_row([[1.0, 1.0]]), atol=1e-12)
        for a in random_matrices(50, max_dim=10, seed=7):
            rng = np.random.default_rng(int(a.size))
            i = int(rng.integers(a.shape[0]))
            stacked = np.vstack([a, a[i]])
            assert np.abs(projector_row(stacked) - projector_row(a)).max() <= 1e-8

    def test_idempotent_and_symmetric(self):
        for a in random_matrices(50, max_dim=12, seed=8):
            for p in (projector_col(a), projector_row(a)):
                assert np.abs(p @ p - p).max() <= 1e-8
                assert np.abs(p - p.T).max() <= 1e-8

