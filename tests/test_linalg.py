import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlpflow import builtin, linalg
from nlpflow.errors import InvalidInputError, NumericFailureError
from nlpflow.linalg import lu_factor, pinv_gram, pinv_psd, rank_cutoff
from nlpflow.problems import evaluate

EPS = np.finfo(float).eps


def gram_pinv(a):
    """The pseudo-inverse the solver forms: A+ = A^T (A A^T)+, via pinv_gram."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return a.T @ pinv_gram(a, np.ones(a.shape[1]))[0](np.eye(a.shape[0]))


def svd_pinv(a):
    """numpy's SVD pseudo-inverse under the rank convention of ``rank_cutoff``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return np.linalg.pinv(a, rcond=max(a.shape) * EPS)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts the calls of numpy.linalg.eigh, pinv_gram's rank-revealing branch."""
    calls = [0]
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls[0] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


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
    """Identities of A+ = A^T (A A^T)+ formed through pinv_gram."""

    def test_identity(self):
        assert np.allclose(gram_pinv(np.eye(3)), np.eye(3))

    def test_rank_one_frozen(self):
        assert np.allclose(gram_pinv([[1.0, 1.0], [2.0, 2.0]]),
                           [[0.1, 0.2], [0.1, 0.2]], atol=1e-12)

    def test_zero(self):
        assert np.array_equal(gram_pinv(np.zeros((3, 5))), np.zeros((5, 3)))

    def test_zero_square(self):
        for m in (0, 2, 5):
            solve, rank = pinv_psd(np.zeros((m, m)))
            x = solve(np.ones(m))
            assert rank == 0
            assert np.array_equal(x, np.zeros(m))

    def test_rejects_non_finite(self):
        for m in (2, 5):
            gram = np.eye(m)
            gram[0, 1] = np.nan
            with pytest.raises(InvalidInputError):
                pinv_psd(gram)

    def test_inverse_when_square_nonsingular(self):
        rng = np.random.default_rng(2)
        for m in (3, 4):
            a = rng.standard_normal((m, m)) + 4 * np.eye(m)
            assert np.allclose(gram_pinv(a), np.linalg.inv(a), atol=1e-10)

    def test_penrose_conditions(self):
        count = 0
        for a in random_matrices(200, seed=3):
            p = gram_pinv(a)
            scale = max(1.0, np.abs(a).max())
            assert np.abs(a @ p @ a - a).max() <= 1e-8 * scale
            assert np.abs(p @ a @ p - p).max() <= 1e-8 * max(1.0, np.abs(p).max())
            assert np.abs((a @ p) - (a @ p).T).max() <= 1e-8
            assert np.abs((p @ a) - (p @ a).T).max() <= 1e-8
            count += 1
        assert count == 200

    def test_gram_identities(self):
        # M+ = M^T (M M^T)+ = (M^T M)+ M^T, against numpy's SVD pseudo-inverse
        for a in random_matrices(50, max_dim=12, seed=4):
            p = svd_pinv(a)
            left = gram_pinv(a)
            right = pinv_gram(a.T, np.ones(a.shape[0]))[0](a.T)
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
            x0 = gram_pinv(a) @ b
            x1 = gram_pinv(s @ a) @ (s @ b)
            assert np.abs(x0 - x1).max() <= 1e-6

    def test_pinv_gram_matches_svd_path(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m, k = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            a = rng.standard_normal((m, k))
            gram = a @ a.T
            solve, rank = pinv_gram(a, np.ones(k))
            via_gram = solve(np.eye(m))
            assert np.abs(via_gram - svd_pinv(gram)).max() <= 1e-8
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
        solve, rank = pinv_psd(gram)
        sol = solve(rhs)
        assert rank == int(np.sum(w > cutoff))
        ref = svd_pinv(gram) @ rhs
        kept = w[w > cutoff]
        cond = kept[-1] / kept[0]
        bound = 10 * m * EPS * cond * np.linalg.norm(rhs) / kept[0]
        assert np.linalg.norm(sol - ref) <= bound

    def test_pinv_gram_branches(self, eigh_calls):
        """Every formed Gram, full-rank or rank-deficient, is solved by one eigh."""
        n = 100
        chain = builtin("example2", size=n)
        theta = np.random.default_rng(0).uniform(0.7, 1.2, size=n)
        theta[0] = 2.0
        point = evaluate(chain, theta)
        gram = 0.1 * point.h_jac @ point.h_jac.T
        rhs = 0.1 * point.h_jac @ point.f_grad
        solve, rank = pinv_psd(gram)
        sol = solve(rhs)
        assert eigh_calls[0] == 1
        assert rank == n - 1
        assert np.linalg.norm(gram @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)

        product = builtin("example1")
        point = evaluate(product, np.array([-4.8578, 3.8180, -2.7364]))
        gram = 0.1 * point.h_jac @ point.h_jac.T
        solve, rank = pinv_psd(gram)
        sol = solve(np.array([1.0, 2.0]))
        assert eigh_calls[0] == 2
        assert rank == 1
        assert np.allclose(sol, svd_pinv(gram) @ [1.0, 2.0], rtol=1e-12)

    def test_pinv_gram_branch_boundary(self, eigh_calls):
        """Full-rank Grams of 3 and 4 rows are each solved by one eigh call."""
        rng = np.random.default_rng(10)
        for m in (3, 4):
            eigh_calls[0] = 0
            a = rng.standard_normal((m, m + 2))
            gram, rhs = a @ a.T, rng.standard_normal(m)
            solve, rank = pinv_psd(gram)
            sol = solve(rhs)
            assert (rank, eigh_calls[0]) == (m, 1)
            ref = np.linalg.pinv(gram) @ rhs
            assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_pinv_gram_matrix_rhs(self, eigh_calls):
        """A matrix right-hand side gives G+ @ rhs, at full rank and below it."""
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 8))
        rhs = rng.standard_normal((6, 5))
        for gram, rank, expected in ((a @ a.T, 6, 1), (a[:, :4] @ a[:, :4].T, 4, 2)):
            solve, got = pinv_psd(gram)
            sol = solve(rhs)
            assert (got, eigh_calls[0]) == (rank, expected)
            ref = svd_pinv(gram) @ rhs
            assert sol.shape == ref.shape
            assert np.abs(sol - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [4, 19, 99])
    def test_full_rank_chain_gram_matches_cholesky(self, m, eigh_calls):
        """The chain's equality Grams under a gain that is not diagonal (so no
        band) have full rank m on eigh and match a Cholesky solve."""
        from scipy.linalg import cho_factor, cho_solve
        n = m + 1
        rng = np.random.default_rng(m)
        theta = rng.uniform(0.7, 1.2, n)
        theta[0] = 2.0
        rows = evaluate(builtin("example2", size=n), theta).h_jac
        off = 0.02 * np.ones(n - 1)
        gain = 0.1 * np.eye(n) + np.diag(off, 1) + np.diag(off, -1)
        solve, rank = pinv_gram(rows, gain)
        ref_factor = cho_factor(rows @ gain @ rows.T)
        assert (rank, eigh_calls[0]) == (m, 1)
        for rhs in (rng.standard_normal(m), rng.standard_normal((m, 3))):
            ref = cho_solve(ref_factor, rhs)
            assert np.abs(solve(rhs) - ref).max() <= 1e-12 * np.abs(ref).max()


class TestLuFactor:
    """``lu_factor``, the dense solve of the stiff stages and the endgame."""

    def test_equals_numpy_solve_bitwise(self):
        rng = np.random.default_rng(14)
        for m in (1, 3, 20):
            a = rng.standard_normal((m, m)) + m * np.eye(m)
            solve = lu_factor(a)
            for v in (rng.standard_normal(m), rng.standard_normal((m, 4))):
                assert np.array_equal(solve(v), np.linalg.solve(a, v))

    @pytest.mark.parametrize("case", ["exactly singular", "nan", "inf"])
    def test_failure_is_a_numeric_failure(self, case):
        a = np.array([[1.0, 2.0], [2.0, 4.0]]) if case == "exactly singular" else np.eye(2)
        if case != "exactly singular":
            a[0, 1] = math.nan if case == "nan" else math.inf
        with pytest.raises(NumericFailureError):
            lu_factor(a)(np.ones(2))


def projector_col(a):
    """Orthogonal projector onto the column space, A A+."""
    return np.atleast_2d(a) @ gram_pinv(a)


def projector_row(a):
    """Orthogonal projector onto the row space, A+ A."""
    return gram_pinv(a) @ np.atleast_2d(a)


class TestProjectors:
    """The projectors that A+ = A^T (A A^T)+ forms."""

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



@pytest.fixture
def dgbtrf_calls(monkeypatch):
    """Counts the calls of LAPACK's banded LU, pinv_gram's banded branch."""
    import scipy.linalg.lapack as lapack
    calls = [0]
    dgbtrf = lapack.dgbtrf

    def counted(*args, **kwargs):
        calls[0] += 1
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgbtrf", counted)
    return calls


def narrow_rows(rng, starts, n):
    """Rows of width 1 to 3 starting at ``starts``, leading entry of magnitude
    at least 1: distinct starts give full row rank (echelon form)."""
    rows = np.zeros((len(starts), n))
    for i, s in enumerate(starts):
        width = min(int(rng.integers(1, 4)), n - s)
        rows[i, s:s + width] = rng.standard_normal(width)
        rows[i, s] = rng.choice([-1.0, 1.0]) * (1.0 + abs(rows[i, s]))
    return rows


def gram_reference(rows, d, rhs):
    """(H diag(d) H^T)+ @ rhs and its rank, formed and solved by eigh."""
    gram = (rows * d) @ rows.T
    w, q = np.linalg.eigh(gram)
    keep = w > rank_cutoff(gram.shape, w[-1])
    return ((q[:, keep] / w[keep]) @ q[:, keep].T) @ rhs, int(keep.sum())


class TestBandedGram:
    """pinv_gram's banded branch: diagonal gain, from _BAND_MIN_ROWS rows up."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_eigh_on_shuffled_narrow_rows(self, seed, dgbtrf_calls, eigh_calls):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(linalg._BAND_MIN_ROWS + 5, 140))
        m = int(rng.integers(linalg._BAND_MIN_ROWS, n + 1))
        rows = narrow_rows(rng, np.sort(rng.choice(n, size=m, replace=False)), n)
        # some rows moved to the end make the Gram arrow-shaped, as the
        # working band rows appended after the equalities do; or any order
        moved = rng.choice(m, size=m // 8, replace=False)
        order = (np.concatenate([np.delete(np.arange(m), moved), moved]) if seed % 2
                 else rng.permutation(m))
        rows = rows[order]
        d = rng.uniform(0.05, 3.0, n)
        for rhs in (rng.standard_normal(m), rng.standard_normal((m, 7))):
            before = dgbtrf_calls[0]
            solve, rank = pinv_gram(rows, d)
            sol = solve(rhs)
            ref, ref_rank = gram_reference(rows, d, rhs)
            assert (rank, ref_rank, dgbtrf_calls[0] - before) == (m, m, 1)
            assert sol.shape == rhs.shape
            assert np.abs(sol - ref).max() <= 1e-9 * np.abs(ref).max()
        assert eigh_calls[0] == 2   # the references only

    @pytest.mark.parametrize("case", ["zero row", "duplicated row", "more rows than columns"])
    def test_rank_deficient_rows_go_to_eigh(self, case, eigh_calls):
        rng = np.random.default_rng(11)
        m = n = linalg._BAND_MIN_ROWS + 8
        rows = narrow_rows(rng, np.arange(m), n)
        if case == "zero row":
            rows[m // 2] = 0.0
        elif case == "duplicated row":
            rows = np.insert(rows, m // 3, -2.5 * rows[m - 5], axis=0)
        else:
            rows = np.vstack([rows, narrow_rows(rng, rng.choice(n, size=6), n)])[
                rng.permutation(m + 6)]
        d = rng.uniform(0.05, 3.0, n)
        gram = (rows * d) @ rows.T
        for rhs in (gram @ rng.standard_normal(rows.shape[0]),
                    gram @ rng.standard_normal((rows.shape[0], 3))):
            eigh_calls[0] = 0
            solve, rank = pinv_gram(rows, d)
            sol = solve(rhs)
            assert eigh_calls[0] == 1
            ref, ref_rank = gram_reference(rows, d, rhs)
            assert rank == ref_rank == min(rows.shape) - (case == "zero row")
            assert np.abs(sol - ref).max() <= 1e-8 * np.abs(ref).max()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_non_finite_gram_is_invalid_input(self, bad):
        rng = np.random.default_rng(13)
        n = linalg._BAND_MIN_ROWS + 4
        rows = narrow_rows(rng, np.arange(n - 2), n)
        rows[5, 5] = bad
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InvalidInputError, match="non-finite"):
            pinv_gram(rows, np.ones(n))

    def test_threshold(self, dgbtrf_calls):
        """Under _BAND_MIN_ROWS rows, with a gain that is not diagonal, or with
        a band not narrower than a quarter of the rows, the Gram is formed and
        solved densely; from _BAND_MIN_ROWS narrow rows the band solves it."""
        rng = np.random.default_rng(12)
        n = linalg._BAND_MIN_ROWS + 4
        d = rng.uniform(0.5, 2.0, n)
        for m, gain, wide, expected in ((linalg._BAND_MIN_ROWS - 1, d, False, 0),
                                        (linalg._BAND_MIN_ROWS, np.diag(d), False, 0),
                                        (linalg._BAND_MIN_ROWS, d, True, 0),
                                        (linalg._BAND_MIN_ROWS, d, False, 1)):
            dgbtrf_calls[0] = 0
            rows = narrow_rows(rng, np.sort(rng.choice(n, size=m, replace=False)), n)
            if wide:   # a first row reaching the last column spans the whole band
                rows[0, -1] = 1.0
            rhs = rng.standard_normal(m)
            solve, rank = pinv_gram(rows, gain)
            sol = solve(rhs)
            assert (rank, dgbtrf_calls[0]) == (m, expected)
            gram = rows @ np.diag(d) @ rows.T
            assert np.linalg.norm(gram @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)
