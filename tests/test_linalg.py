import importlib.util
import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgkit import (
    BuiltinProblemSpec,
    CgKitError,
    DimensionError,
    MatrixSPD,
    NotPositiveDefiniteError,
    ProblemSpecError,
    QuadraticProblem,
    SolverConfig,
    SpectrumSpec,
    SymmetryError,
    builtin_problem,
    check_gradient_conjugacy,
    dot,
    estimate_condition,
    generate_spd,
    matvec,
    read_matrix_market,
    run_all_checks,
    solve,
    solve_direct,
    spd_validate,
)
from cgkit.linalg import as_vector
from conftest import assert_refused, make_spd_problem


class TestDot:
    def test_orthogonal_axes(self):
        assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_self_inner_product(self):
        assert dot([2.0, 1.0], [2.0, 1.0]) == 5.0

    def test_negated_pair(self):
        # g_0 . d_0 on the worked 2x2 instance
        assert dot([-2.0, -1.0], [2.0, 1.0]) == -5.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dot([1.0, 2.0], [1.0])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_matches_compensated_sum(self, values):
        import math
        u = np.asarray(values)
        expected = math.fsum(v * v for v in values)
        got = dot(u, u)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-30)


def _random_symmetric_csr(n, density, seed):
    rng = np.random.default_rng(seed)
    m = sparse.random(n, n, density=density, format="csr", dtype=np.float64,
                      random_state=rng)
    m = sparse.csr_matrix(m + m.T)
    return MatrixSPD.from_csr(m.indptr, m.indices, m.data, n), m.toarray()


def _bincount_matvec(indptr, indices, data, x):
    """Per-row sums of ``data * x[indices]``, each added left to right."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return np.bincount(rows, weights=data * x[indices], minlength=indptr.size - 1)


class TestMatvec:
    def test_identity(self):
        a = MatrixSPD.from_dense(np.eye(2))
        np.testing.assert_array_equal(matvec(a, [3.0, 4.0]), [3.0, 4.0])

    def test_diagonal(self):
        a = MatrixSPD.from_dense(np.diag([2.0, 1.0]))
        np.testing.assert_array_equal(matvec(a, [2.0, 1.0]), [4.0, 1.0])

    def test_diagonal_fractions(self):
        a = MatrixSPD.from_dense(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(matvec(a, [-10 / 81, 40 / 81]),
                                   [-20 / 81, 40 / 81], rtol=1e-15)

    def test_dimension_mismatch(self):
        a = MatrixSPD.from_dense(np.eye(3))
        with pytest.raises(DimensionError):
            matvec(a, [1.0, 2.0])

    @given(arrays(np.float64, (6, 6),
                  elements=st.floats(min_value=-1e4, max_value=1e4)),
           arrays(np.float64, (6,),
                  elements=st.floats(min_value=-1e3, max_value=1e3)),
           arrays(np.float64, (6,),
                  elements=st.floats(min_value=-1e3, max_value=1e3)))
    @settings(max_examples=50, deadline=None)
    def test_adjoint_symmetry(self, m, u, v):
        a = MatrixSPD.from_dense((m + m.T) / 2)
        lhs = dot(u, a.matvec(v))
        rhs = dot(v, a.matvec(u))
        bound = 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * a.frobenius_norm()
        assert abs(lhs - rhs) <= max(bound, 1e-30)

    @given(arrays(np.float64, (8, 8),
                  elements=st.floats(min_value=-1e4, max_value=1e4)),
           arrays(np.float64, (8,),
                  elements=st.floats(min_value=-1e3, max_value=1e3)))
    # cancellation: each y_i is -2.06e4 from terms of 2.7e6, and the two
    # summation orders differ by 2.3e-10, more than 1e-14 * |y_i|
    @example(np.full((8, 8), 3429.9124056),
             np.array([670.0, -794.0, 547.0, -429.0, 0.0, 0.0, 0.0, 0.0]))
    @settings(max_examples=50, deadline=None)
    def test_storage_equivalence(self, m, x):
        sym = (m + m.T) / 2
        dense = MatrixSPD.from_dense(sym)
        csr = sparse.csr_matrix(sym)
        as_csr = MatrixSPD.from_csr(csr.indptr, csr.indices, csr.data, 8)
        yd = dense.matvec(x)
        ys = as_csr.matvec(x)
        # two summation orders of row i differ by a few eps * (|A| |x|)_i,
        # the scale of the terms summed, which |y_i| undercuts when they cancel
        bound = 1e-14 * (np.abs(sym) @ np.abs(x))
        assert np.all(np.abs(ys - yd) <= bound + 1e-300)

    def test_dense_matches_blas(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((37, 37))
        m = MatrixSPD.from_dense((a + a.T) / 2)
        x = rng.standard_normal(37)
        np.testing.assert_array_equal(m.matvec(x), m.to_dense() @ x)

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_csr_matches_dense(self, density):
        m, dense = _random_symmetric_csr(29, density, seed=1)
        x = np.random.default_rng(2).standard_normal(29)
        np.testing.assert_allclose(m.matvec(x), dense @ x, rtol=1e-14, atol=1e-14)

    def test_csr_empty_rows_contribute_zero(self):
        # row 1 of 3 stores nothing
        m = MatrixSPD.from_csr([0, 1, 1, 2], [0, 2], [3.0, 4.0], 3)
        np.testing.assert_array_equal(m.matvec([1.0, 1.0, 1.0]), [3.0, 0.0, 4.0])

    @pytest.mark.parametrize("which", ["laplacian1d", "random"])
    def test_csr_bit_identical_to_row_sums(self, which):
        if which == "laplacian1d":
            m = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=1001)).A
        else:
            m, _ = _random_symmetric_csr(500, 0.02, seed=3)
        x = np.random.default_rng(4).standard_normal(m.n)
        np.testing.assert_array_equal(m.matvec(x), _bincount_matvec(*m.csr_arrays, x))


class TestMatrixSPD:
    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            MatrixSPD.from_dense(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            MatrixSPD.from_dense([[1.0, 0.0], [1.0, 1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(CgKitError):
            MatrixSPD.from_dense([[1.0, np.nan], [np.nan, 1.0]])

    def test_tiny_asymmetry_is_symmetrized(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-14, 3.0]])
        m = MatrixSPD.from_dense(a)
        dense = m.to_dense()
        assert dense[0, 1] == dense[1, 0]

    def test_csr_rejects_asymmetric_pattern(self):
        # one stored triangle is not enough: both triangles are required
        with pytest.raises(SymmetryError):
            MatrixSPD.from_csr([0, 2, 2], [0, 1], [1.0, 2.0], 2)

    @pytest.mark.parametrize("asymmetry", [0.0, 1e-14], ids=["exact", "tiny"])
    def test_csr_is_stored_as_its_symmetrization(self, asymmetry):
        rng = np.random.default_rng(7)
        n = 30
        values = rng.standard_normal((n, n))
        values = values + values.T
        mask = rng.uniform(size=(n, n)) < 0.2
        mask = mask | mask.T | np.eye(n, dtype=bool)
        values[3, 5] = values[5, 3] = values[7, 7] = 0.0  # stored explicit zeros
        mask[3, 5] = mask[5, 3] = mask[7, 7] = True
        values[2, 4] += asymmetry * abs(values[2, 4])
        rows, cols = np.nonzero(mask)
        given = sparse.csr_array((values[rows, cols], (rows, cols)), shape=(n, n))
        assert np.count_nonzero(given.data == 0.0) == 3
        assert np.array_equal(given.data, given.T.tocsr().data) == (asymmetry == 0.0)
        arrays = [arr.copy() for arr in (given.indptr, given.indices, given.data)]

        m = MatrixSPD.from_csr(given.indptr, given.indices, given.data, n)
        expected = (given + given.T) / 2.0
        expected.sort_indices()
        for got, want in zip(m.csr_arrays, (expected.indptr, expected.indices,
                                            expected.data)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        for kept, arr in zip(arrays, (given.indptr, given.indices, given.data)):
            assert np.array_equal(kept, arr) and arr.flags.writeable

    def test_unsorted_csr_input_is_left_untouched(self):
        indptr, indices = np.array([0, 2, 4]), np.array([1, 0, 1, 0])
        data = np.array([1.0, 2.0, 3.0, 1.0])
        m = MatrixSPD.from_csr(indptr, indices, data, 2)
        assert m.to_dense().tolist() == [[2.0, 1.0], [1.0, 3.0]]
        assert indices.tolist() == [1, 0, 1, 0] and data.tolist() == [1.0, 2.0, 3.0, 1.0]
        assert indices.flags.writeable and data.flags.writeable

    def test_backing_arrays_are_readonly(self):
        m = MatrixSPD.from_dense(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            m.to_dense()[0, 0] = 5.0

    def test_nnz_and_shape(self):
        m = MatrixSPD.from_csr([0, 1, 2], [0, 1], [2.0, 1.0], 2)
        assert m.shape == (2, 2)
        assert m.nnz == 2
        assert not m.is_dense


class TestSpdValidate:
    def test_valid_diagonal(self):
        assert spd_validate(np.diag([2.0, 1.0])) is None

    def test_indefinite(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefiniteError):
            spd_validate(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric(self):
        with pytest.raises(SymmetryError):
            spd_validate(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_sparse_densified_path(self):
        m = MatrixSPD.from_csr([0, 1, 2], [0, 1], [2.0, 1.0], 2)
        assert spd_validate(m) is None

    def test_sparse_negative_diagonal_rejected(self):
        n = 40
        diag = sparse.diags(-np.ones(n), format="csr")
        m = MatrixSPD.from_csr(diag.indptr, diag.indices, diag.data, n)
        with pytest.raises(NotPositiveDefiniteError):
            spd_validate(m)


class TestSpectrumSpec:
    def test_requires_some_spec(self):
        with pytest.raises(ProblemSpecError):
            SpectrumSpec()

    def test_rejects_nonpositive_eigenvalue(self):
        with pytest.raises(ProblemSpecError):
            SpectrumSpec(eigenvalues=(1.0, -2.0))

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ProblemSpecError):
            SpectrumSpec(lam_min=0.0, lam_max=1.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ProblemSpecError):
            SpectrumSpec(lam_min=2.0, lam_max=1.0)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ProblemSpecError):
            SpectrumSpec(lam_min=1.0, lam_max=2.0, distribution="zipf")

    @pytest.mark.parametrize("dist", ["loguniform", "linear", "clustered"])
    def test_ranged_spectra_pin_extremes(self, dist):
        spec = SpectrumSpec(lam_min=1.0, lam_max=100.0, distribution=dist)
        lams = spec.materialize(20, np.random.default_rng(0))
        assert lams[0] == 1.0
        assert lams[-1] == 100.0
        assert np.all(lams > 0)
        assert np.all(np.diff(lams) >= 0)


class TestGenerateSpd:
    def test_negative_seed_is_refused(self):
        # NumPy's generators would refuse it with a ValueError
        with pytest.raises(ProblemSpecError, match="seed must be nonnegative, got -1"):
            generate_spd(3, SpectrumSpec(eigenvalues=(1.0, 2.0, 3.0)), seed=-1)

    def test_one_by_one_is_forced(self):
        m = generate_spd(1, SpectrumSpec(eigenvalues=(3.0,)), seed=9)
        np.testing.assert_array_equal(m.to_dense(), [[3.0]])

    def test_similarity_invariants(self):
        m = generate_spd(2, SpectrumSpec(eigenvalues=(2.0, 1.0)), seed=11)
        dense = m.to_dense()
        assert np.trace(dense) == pytest.approx(3.0, rel=1e-12)
        assert np.linalg.det(dense) == pytest.approx(2.0, rel=1e-12)

    def test_spectrum_within_requested_range(self):
        spec = SpectrumSpec(lam_min=1.0, lam_max=100.0, distribution="loguniform")
        m = generate_spd(50, spec, seed=7)
        # independent oracle: direct eigensolve bounds the Rayleigh quotients
        vals = np.linalg.eigvalsh(m.to_dense())
        assert vals[0] >= 1.0 - 1e-10
        assert vals[-1] <= 100.0 + 1e-8
        assert vals[-1] / vals[0] == pytest.approx(100.0, rel=1e-10)

    @pytest.mark.parametrize("n", [200, 500])
    @pytest.mark.parametrize("dist", ["loguniform", "linear"])
    def test_each_eigenvalue_planted_to_working_precision(self, n, dist):
        # one Householder QR gives a Q orthogonal to working precision
        spec = SpectrumSpec(lam_min=1.0, lam_max=1e4, distribution=dist)
        lams = spec.materialize(n, np.random.default_rng(n))
        vals = np.linalg.eigvalsh(generate_spd(n, spec, seed=n).to_dense())
        assert np.abs(vals - lams).max() <= 64 * np.finfo(np.float64).eps * lams[-1]

    def test_trace_matches_eigenvalue_sum(self):
        spec = SpectrumSpec(lam_min=0.5, lam_max=9.0, distribution="linear")
        m = generate_spd(30, spec, seed=3)
        lams = spec.materialize(30, np.random.default_rng(3))
        assert np.trace(m.to_dense()) == pytest.approx(lams.sum(), rel=1e-10)

    def test_validates_spd(self):
        m = generate_spd(25, SpectrumSpec(lam_min=1.0, lam_max=50.0), seed=5)
        assert spd_validate(m) is None

    def test_deterministic_in_seed(self):
        spec = SpectrumSpec(lam_min=1.0, lam_max=10.0)
        a = generate_spd(12, spec, seed=42).to_dense()
        b = generate_spd(12, spec, seed=42).to_dense()
        c = generate_spd(12, spec, seed=43).to_dense()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 200])
    @pytest.mark.parametrize("spec", [
        SpectrumSpec(lam_min=1.0, lam_max=1e6, distribution="loguniform"),
        SpectrumSpec(lam_min=0.5, lam_max=9.0, distribution="linear"),
        SpectrumSpec(lam_min=1.0, lam_max=1e3, distribution="clustered", clusters=3),
    ], ids=["loguniform", "linear", "clustered"])
    def test_equals_the_haar_signed_construction(self, n, spec):
        # signing Q's columns by diag(R) makes Q Haar; each column's sign
        # cancels in (q * lams) @ q.T term by term, so A is the same bits
        rng = np.random.default_rng(n + 17)
        lams = spec.materialize(n, rng)
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
        haar = MatrixSPD.from_dense((q * lams) @ q.T)
        assert np.array_equal(generate_spd(n, spec, seed=n + 17).to_dense(), haar.to_dense())

    def test_eigenvalue_count_must_match(self):
        with pytest.raises(ProblemSpecError):
            generate_spd(3, SpectrumSpec(eigenvalues=(1.0, 2.0)), seed=0)


class TestSolveDirect:
    def test_matches_inverse(self):
        a = MatrixSPD.from_dense(np.diag([2.0, 1.0]))
        x = solve_direct(a, [2.0, 1.0])
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_direct(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])

    def test_random_spd_roundtrip(self):
        m = generate_spd(20, SpectrumSpec(lam_min=1.0, lam_max=30.0), seed=1)
        rng = np.random.default_rng(2)
        x_true = rng.standard_normal(20)
        rhs = m.matvec(x_true)
        np.testing.assert_allclose(solve_direct(m, rhs), x_true, rtol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 63, 64, 65, 300]), log_cond=st.floats(0.0, 14.0),
           seed=st.integers(0, 2**16))
    def test_dense_substitution_is_as_backward_stable_as_lapack(self, n, log_cond, seed):
        # the blocked substitution on NumPy's factor, one block edge on
        # each side of n = 64, against LAPACK's potrs on the same factor;
        # measured over such draws, its normwise backward error stayed
        # below 0.83 times max(potrs's, eps)
        m = generate_spd(n, SpectrumSpec(lam_min=1.0, lam_max=10.0 ** log_cond), seed)
        a = m.to_dense()
        rhs = np.random.default_rng(seed + 1).standard_normal(n)
        norm_a = np.linalg.norm(a, 2)

        def backward_error(x):
            residual = np.linalg.norm(rhs - a @ x)
            return residual / (norm_a * np.linalg.norm(x) + np.linalg.norm(rhs))

        lapack = scipy.linalg.cho_solve((np.linalg.cholesky(a), True), rhs)
        eps = np.finfo(np.float64).eps
        assert backward_error(solve_direct(m, rhs)) <= 4.0 * max(backward_error(lapack), eps)


class TestSparseDirectSolve:
    def test_above_densify_cap(self):
        n = 5000
        lap = sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                           (-1, 0, 1), format="csr")
        m = MatrixSPD.from_csr(lap.indptr, lap.indices, lap.data, n)
        rhs = np.random.default_rng(0).standard_normal(n)
        x = solve_direct(m, rhs)
        assert np.linalg.norm(m.matvec(x) - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_matches_dense_cholesky(self):
        dense = generate_spd(12, SpectrumSpec(lam_min=1.0, lam_max=50.0), seed=4).to_dense()
        csr = sparse.csr_matrix(dense)
        m = MatrixSPD.from_csr(csr.indptr, csr.indices, csr.data, 12)
        rhs = np.arange(1.0, 13.0)
        np.testing.assert_allclose(solve_direct(m, rhs), solve_direct(dense, rhs),
                                   rtol=1e-12)

    def test_rejects_singular_matrix(self):
        m = MatrixSPD.from_csr([0, 1, 2, 3], [0, 1, 2], [1.0, 0.0, 2.0], 3)
        with pytest.raises(NotPositiveDefiniteError):
            solve_direct(m, [1.0, 1.0, 1.0])


def _csr(a) -> MatrixSPD:
    a = sparse.csr_array(a)
    return MatrixSPD.from_csr(a.indptr, a.indices, a.data, a.shape[0])


def _tridiagonal(diag) -> sparse.csr_array:
    off = -np.ones(len(diag) - 1)
    return sparse.diags_array([off, diag, off], offsets=(-1, 0, 1), format="csr")


def _shuffled_path(n, seed) -> sparse.csr_array:
    """tridiag(-1, 2, -1) of order ``n``, symmetrically permuted at random."""
    p = np.random.default_rng(seed).permutation(n)
    lap = _tridiagonal(np.full(n, 2.0)).tocoo()
    return sparse.csr_array((lap.data, (p[lap.row], p[lap.col])), shape=(n, n))


DEFECTS = ("negative diagonal", "indefinite", "singular", "missing diagonal")


@st.composite
def not_spd(draw):
    """A symmetric matrix above order 2000 that is not positive definite: a
    tridiagonal (-1, d, -1) with one defect, symmetrically permuted at
    random so that the ordering has a band to find.

    * negative diagonal: one entry of d = 2 is negative;
    * indefinite: d = 2 - delta > 0, whose smallest eigenvalue is about
      -delta + (pi / (n + 1))**2 < 0;
    * singular: the path-graph Laplacian (d = 1 at both ends, 2 inside),
      whose last Cholesky pivot is exactly 0.  It is left in path order,
      whose band is already the narrowest, so the factor keeps that order:
      in another order rounding leaves that pivot tiny and of either sign;
    * missing diagonal: d = 2 with one diagonal entry not stored.
    """
    n = draw(st.integers(2001, 2100))
    defect = draw(st.sampled_from(DEFECTS))
    k = draw(st.integers(0, n - 1))
    diag = np.full(n, 2.0)
    if defect == "negative diagonal":
        diag[k] = -draw(st.floats(1e-6, 10.0))
    elif defect == "indefinite":
        diag -= draw(st.floats(1e-3, 1.0))
    elif defect == "singular":
        diag[[0, -1]] = 1.0
    a = _tridiagonal(diag).tocoo()
    keep = (a.row != k) | (a.col != k) if defect == "missing diagonal" else slice(None)
    seed = draw(st.integers(0, 2**32 - 1))
    p = np.arange(n) if defect == "singular" else np.random.default_rng(seed).permutation(n)
    return defect, sparse.csr_array((a.data[keep], (p[a.row[keep]], p[a.col[keep]])),
                                    shape=(n, n))


class TestCholeskyCertificate:
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @settings(max_examples=10, deadline=None)
    @given(case=not_spd())
    def test_rejects_matrices_that_are_not_spd(self, storage, case):
        _, a = case
        m = MatrixSPD.from_dense(a.toarray()) if storage == "dense" else _csr(a)
        with pytest.raises(NotPositiveDefiniteError):
            spd_validate(m)

    @pytest.mark.parametrize("build", [
        lambda n: sparse.diags_array(np.where(np.arange(n) == n // 2, -1.0, 1.0)),
        lambda n: _tridiagonal(np.full(n, 2.0 - 1e-3)),
    ], ids=["signed-diagonal", "shifted-laplacian"])
    def test_indefinite_csr_of_order_5000(self, build):
        m = _csr(build(5000))
        for certify in (spd_validate, lambda a: solve_direct(a, np.ones(a.n)),
                        lambda a: QuadraticProblem(a, np.ones(a.n))):
            with pytest.raises(NotPositiveDefiniteError):
                certify(m)

    def test_singular_to_working_precision_is_rejected(self):
        # path-graph Laplacian, null vector of ones: in a random order rounding
        # leaves its last pivot positive, far below n * eps * a_ii
        n = 2001
        lap = _tridiagonal(np.r_[1.0, np.full(n - 2, 2.0), 1.0]).toarray()
        p = np.random.default_rng(0).permutation(n)
        with pytest.raises(NotPositiveDefiniteError, match=r"pivot of row \d+ .* 2001 \* eps"):
            spd_validate(lap[np.ix_(p, p)])

    def test_hilbert_12_clears_the_pivot_test(self):
        # its smallest pivot ratio, about 2e-12, is far above 12 * eps
        assert spd_validate(scipy.linalg.hilbert(12)) is None
        assert spd_validate(_csr(scipy.linalg.hilbert(12))) is None

    def test_band_above_budget_is_refused_before_allocation(self):
        n = 20_000
        rng = np.random.default_rng(0)
        rows, cols = rng.integers(0, n, (2, 5 * n))
        off = sparse.coo_array((rng.uniform(-1.0, 1.0, 5 * n), (rows, cols)), shape=(n, n))
        a = (off + off.T).tocsr()
        # diagonally dominant, so SPD: the refusal is not a verdict
        m = _csr(a + sparse.diags_array(abs(a).sum(axis=1) + 1.0))
        tracemalloc.start()
        try:
            with pytest.raises(CgKitError) as info:
                spd_validate(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(info.value) is CgKitError
        assert f"x {n} entries" in str(info.value) and "GiB" in str(info.value)
        assert peak < 50e6
        with pytest.raises(CgKitError, match="above the 1 GiB budget"):
            solve_direct(m, np.ones(n))

    def test_certificate_and_oracle_need_no_sparse_lu(self, monkeypatch):
        import scipy.sparse.linalg

        def refuse(*_args, **_kwargs):
            raise RuntimeError("sparse LU is not part of the certificate")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        n = 4000
        values = np.array([1.0, 1.7, 2.4, 3.3, 4.1, 5.6, 7.2, 10.0])
        diagonal = builtin_problem(BuiltinProblemSpec(
            family="diagonal", n=n, eigenvalues=tuple(values[np.arange(n) % 8]),
            b_mode="random", b_seed=3))
        _, trace = solve(diagonal)
        finite = run_all_checks(trace, diagonal).check("finite_termination")
        assert finite.passed and finite.note == "", finite.note

        n = 3000
        laplacian = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=n))
        bands = np.array([np.r_[0.0, -np.ones(n - 1)], np.full(n, 2.0),
                          np.r_[-np.ones(n - 1), 0.0]])
        expected = scipy.linalg.solve_banded((1, 1), bands, -laplacian.b)
        x = laplacian.direct_solution()
        assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_certificate_memory_is_linear_in_the_order(self):
        spd_validate(_csr(np.eye(2)))  # imports are not counted
        n = 100_000
        a = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=n)).A
        tracemalloc.start()
        try:
            assert spd_validate(a) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * n

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_undoes_the_ordering(self, seed):
        n = 300
        rng = np.random.default_rng(seed)
        p = rng.permutation(n)
        lap = _tridiagonal(np.full(n, 2.0)).tocoo()
        m = _csr(sparse.coo_array((lap.data, (p[lap.row], p[lap.col])), shape=(n, n)))
        x_true = rng.standard_normal(n)
        np.testing.assert_allclose(solve_direct(m, m.matvec(x_true)), x_true, rtol=1e-9)


def _masked_band(a) -> tuple[np.ndarray, np.ndarray | None]:
    """Oracle for ``linalg._lower_band``: the band in the matrix's own order
    (``perm`` None) when its half-band is ceil(Delta / 2), for Delta the
    most off-diagonal entries of a row, and :func:`_rcm_masked_band`
    otherwise."""
    n = a.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    off = rows != a.indices
    delta = np.bincount(rows[off], minlength=n).max()
    if np.abs(rows - a.indices).max() > (delta + 1) // 2:
        return _rcm_masked_band(a)
    return _masked_scatter(a, np.arange(n)), None


def _rcm_masked_band(a) -> tuple[np.ndarray, np.ndarray]:
    """The band after reverse Cuthill-McKee ordering, and that order."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(a.shape[0], dtype=perm.dtype)
    return _masked_scatter(a, inv), perm


def _masked_scatter(a, inv) -> np.ndarray:
    """The lower band as a masked 2-D scatter wrote it, keeping only the
    entries on or below the diagonal once entry (i, j) is moved to
    (inv[i], inv[j])."""
    cols = inv[a.indices]
    offset = np.repeat(inv, np.diff(a.indptr)) - cols
    lower = offset >= 0
    band = np.zeros((int(offset.max()) + 1, a.shape[0]), order="F")
    band[offset[lower], cols[lower]] = a.data[lower]
    return band


def _minimizer(factor, perm, b) -> np.ndarray:
    """``-A^{-1} b`` from a banded factor in the order ``perm``."""
    if perm is None:
        return scipy.linalg.cho_solve_banded((factor, True), -b)
    x = np.empty_like(b)
    x[perm] = scipy.linalg.cho_solve_banded((factor, True), -b[perm])
    return x


BAND_INPUTS = ("exactly symmetric", "symmetrized", "diagonal", "order 1", "components")


@st.composite
def spd_csr_input(draw):
    """CSR arrays of a diagonally dominant SPD matrix, as ``from_csr`` input.

    * exactly symmetric: random off-diagonal pairs, a tenth of them explicit
      zeros whose mirror has the other sign (equal, but not bit for bit);
    * symmetrized: the upper entries one ulp away from the lower ones, so
      ``from_csr`` stores ``(A + A.T) / 2``;
    * diagonal, and order 1;
    * components: pairs only inside 2-4 random groups of rows, so the
      graph that the ordering walks has several components.
    """
    kind = draw(st.sampled_from(BAND_INPUTS))
    n = 1 if kind == "order 1" else draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = rng.integers(0, n, (2, 0 if kind in ("diagonal", "order 1") else 3 * n))
    keep = rows > cols
    if kind == "components":
        group = rng.integers(0, draw(st.integers(2, 4)), n)
        keep &= group[rows] == group[cols]
    pairs = np.c_[rows[keep], cols[keep]]
    if kind == "symmetrized":
        pairs = np.r_[pairs, [[1, 0]]]  # at least one pair to symmetrize
    pairs = np.unique(pairs, axis=0)
    lower = rng.uniform(-1.0, 1.0, len(pairs))
    lower[rng.random(len(pairs)) < 0.1] = 0.0
    if kind == "symmetrized":
        upper = np.nextafter(lower, np.inf)
    else:
        upper = np.where(lower == 0.0, -0.0, lower)
    weight = np.zeros(n)
    np.add.at(weight, pairs[:, 0], np.abs(lower))
    np.add.at(weight, pairs[:, 1], np.abs(upper))
    diag = weight + rng.uniform(0.5, 2.0, n)
    r = np.r_[pairs[:, 0], pairs[:, 1], np.arange(n)]
    c = np.r_[pairs[:, 1], pairs[:, 0], np.arange(n)]
    a = sparse.coo_array((np.r_[lower, upper, diag], (r, c)), shape=(n, n)).tocsr()
    return kind, a


class TestBandAssembly:
    """The one-pass band scatter against the masked scatter it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(case=spd_csr_input(), seed=st.integers(0, 2**32 - 1))
    def test_band_factor_and_minimizer_equal_the_masked_oracle(self, case, seed):
        from cgkit.linalg import _cholesky, _lower_band

        _, a = case
        m = MatrixSPD.from_csr(a.indptr, a.indices, a.data, a.shape[0])
        band, perm = _lower_band(m._a)
        expected, expected_perm = _masked_band(m._a)
        assert (perm is None) == (expected_perm is None)
        np.testing.assert_array_equal(perm, expected_perm)
        assert band.flags.f_contiguous and band.shape == expected.shape
        assert band.tobytes() == expected.tobytes()

        factor, perm = _cholesky(m)
        oracle = scipy.linalg.cholesky_banded(expected, lower=True)
        assert factor.shape == oracle.shape and factor.tobytes() == oracle.tobytes()
        b = np.random.default_rng(seed).standard_normal(m.n)
        x = _minimizer(oracle, expected_perm, b)
        assert QuadraticProblem(m, b).direct_solution().tobytes() == x.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(case=spd_csr_input())
    def test_kept_order_is_as_narrow_as_rcm(self, case):
        from cgkit.linalg import _lower_band

        kind, a = case
        m = MatrixSPD.from_csr(a.indptr, a.indices, a.data, a.shape[0])
        band, perm = _lower_band(m._a)
        if kind in ("diagonal", "order 1"):
            assert perm is None and band.shape[0] == 1
        if perm is None:
            assert _rcm_masked_band(m._a)[0].shape[0] >= band.shape[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_laplacian_arrays_equal_scipy_diags(self, n):
        from cgkit.problems_io import _laplacian1d

        off = -np.ones(n - 1)
        expected = sparse.diags([off, np.full(n, 2.0), off], offsets=(-1, 0, 1),
                                format="csr")
        for got, want in zip(_laplacian1d(n).csr_arrays,
                             (expected.indptr, expected.indices, expected.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 100_000])
    def test_laplacian_operand_equals_from_csr(self, n):
        # the builtin skips from_csr's copy and checks; it must store what
        # from_csr would store, frozen
        from cgkit.problems_io import _laplacian1d

        lap = _laplacian1d(n)
        assert (lap.n, lap.storage) == (n, "csr")
        for got, want in zip(lap.csr_arrays, MatrixSPD.from_csr(*lap.csr_arrays, n).csr_arrays):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable


def _gate_grid() -> MatrixSPD:
    """The 3 x 4 grid matrix that ``tools/gate.py`` writes as ``A.mtx``."""
    path = Path(__file__).resolve().parents[1] / "tools" / "gate.py"
    spec = importlib.util.spec_from_file_location("gate", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return read_matrix_market(io.StringIO(gate.grid_general_mtx()))


def _tridiagonal_mtx() -> MatrixSPD:
    """A symmetric tridiagonal MatrixMarket file of order 50 with varied entries."""
    rng = np.random.default_rng(4)
    off = rng.uniform(-1.0, 1.0, 49)
    lines = [f"{i + 1} {i + 1} {3.0 + rng.uniform():.17g}" for i in range(50)]
    lines += [f"{i + 2} {i + 1} {v:.17g}" for i, v in enumerate(off)]
    text = "\n".join(["%%MatrixMarket matrix coordinate real symmetric",
                      f"50 50 {len(lines)}", *lines, ""])
    return read_matrix_market(io.StringIO(text))


class TestOwnOrder:
    """A CSR matrix whose own order has the narrowest possible band is
    factored in that order; any other goes through reverse Cuthill-McKee."""

    @pytest.mark.parametrize("build", [
        lambda: builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=1000)).A,
        lambda: builtin_problem(BuiltinProblemSpec(
            family="diagonal", n=40, eigenvalues=tuple(np.linspace(1.0, 9.0, 40)))).A,
        lambda: MatrixSPD.from_csr([0, 1], [0], [3.0], 1),
        _tridiagonal_mtx,
    ], ids=["laplacian1d", "diagonal", "order-1", "tridiagonal-mtx"])
    def test_narrowest_own_order_skips_the_ordering(self, build, monkeypatch):
        import scipy.sparse.csgraph
        from cgkit.linalg import _cholesky, _lower_band

        def refuse(*_args, **_kwargs):
            raise AssertionError("reverse Cuthill-McKee was called")

        monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", refuse)
        m = build()
        band, perm = _lower_band(m._a)
        assert perm is None and band.shape[0] <= 2
        assert _cholesky(m)[1] is None
        x = QuadraticProblem(m, np.ones(m.n)).direct_solution()
        np.testing.assert_allclose(m.matvec(x), -np.ones(m.n), rtol=1e-8)

    @pytest.mark.parametrize("build", [
        lambda: _csr(_shuffled_path(300, seed=5)),
        _gate_grid,
    ], ids=["shuffled-path", "gate-grid"])
    def test_other_orders_keep_the_rcm_band_and_factor(self, build):
        # the bytes that every CSR matrix got before the own order was kept
        from cgkit.linalg import _cholesky, _lower_band

        m = build()
        band, perm = _lower_band(m._a)
        expected, expected_perm = _rcm_masked_band(m._a)
        assert perm is not None
        np.testing.assert_array_equal(perm, expected_perm)
        assert band.tobytes() == expected.tobytes()
        factor, perm = _cholesky(m)
        oracle = scipy.linalg.cholesky_banded(expected, lower=True)
        assert factor.tobytes() == oracle.tobytes()
        b = np.random.default_rng(6).standard_normal(m.n)
        x = _minimizer(oracle, expected_perm, b)
        assert QuadraticProblem(m, b).direct_solution().tobytes() == x.tobytes()

    def test_oracle_equals_the_minimizer_in_the_own_order(self):
        problem = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=5000,
                                                     b_mode="random", b_seed=2))
        x = problem.direct_solution()
        assert solve_direct(problem.A, -problem.b).tobytes() == x.tobytes()
        band = np.array([np.full(5000, 2.0), np.r_[-np.ones(4999), 0.0]], order="F")
        factor = scipy.linalg.cholesky_banded(band, lower=True)
        assert _minimizer(factor, None, problem.b).tobytes() == x.tobytes()


class TestMatmat:
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_matches_column_matvecs(self, storage):
        m = generate_spd(9, SpectrumSpec(lam_min=1.0, lam_max=10.0), seed=2)
        if storage == "csr":
            csr = sparse.csr_matrix(m.to_dense())
            m = MatrixSPD.from_csr(csr.indptr, csr.indices, csr.data, 9)
        block = np.random.default_rng(3).standard_normal((9, 4))
        expected = np.column_stack([m.matvec(col) for col in block.T])
        np.testing.assert_allclose(m.matmat(block), expected, rtol=1e-13, atol=1e-13)

    def test_shape_mismatch(self):
        m = MatrixSPD.from_dense(np.eye(3))
        with pytest.raises(DimensionError):
            m.matmat(np.ones((2, 2)))


_RANGE = SpectrumSpec(lam_min=1.0, lam_max=2.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: MatrixSPD(np.eye(2)), TypeError,
     "use MatrixSPD.from_dense or MatrixSPD.from_csr"),
    (lambda: MatrixSPD.from_dense(np.empty((0, 0))), DimensionError,
     "matrix order must be at least 1"),
    (lambda: MatrixSPD.from_csr([0], [], [], 0), DimensionError,
     "matrix order must be at least 1"),
    (lambda: MatrixSPD.from_csr([0, 1], [0], [np.nan], 1), CgKitError,
     "matrix contains non-finite entries"),
    (lambda: MatrixSPD.from_csr([0, 1], [1], [2.0], 1), DimensionError,
     "invalid CSR structure: "),
    (lambda: MatrixSPD.from_csr([0, 1, 2], [0, -1], [2.0, 2.0], 2), DimensionError,
     "invalid CSR structure: "),
    (lambda: MatrixSPD.from_dense(np.eye(2)).csr_arrays, CgKitError,
     "matrix is not stored in CSR form"),
    (lambda: as_vector(np.eye(2)), DimensionError, "vector must be 1-D, got shape (2, 2)"),
    (lambda: dot(np.eye(2), np.ones(2)), DimensionError,
     "dot operands must be 1-D and share one length"),
    (lambda: SpectrumSpec(eigenvalues=(1.0,), lam_min=1.0), ProblemSpecError,
     "give either explicit eigenvalues or a range, not both"),
    (lambda: SpectrumSpec(eigenvalues=()), ProblemSpecError, "eigenvalue list is empty"),
    (lambda: SpectrumSpec(lam_min=1.0, lam_max=np.inf), ProblemSpecError,
     "eigenvalue bounds must be finite"),
    (lambda: SpectrumSpec(lam_min=1.0, lam_max=2.0, distribution="clustered", clusters=0),
     ProblemSpecError, "clusters must be an integer of at least 1, got 0"),
    (lambda: _RANGE.materialize(0, np.random.default_rng(0)), ProblemSpecError,
     "n must be an integer of at least 1, got 0"),
    (lambda: generate_spd(0, _RANGE, 0), ProblemSpecError,
     "n must be an integer of at least 1, got 0"),
    # a raw array reaches estimate_condition through MatrixSPD.from_dense
    (lambda: estimate_condition(np.array([[1.0, 5.0], [0.0, 1.0]])), SymmetryError,
     "matrix is not symmetric: max |A_ij - A_ji| = 5.000e+00 exceeds 1e-12 * max|A| "
     "= 5.000e-12"),
    (lambda: estimate_condition(np.full((2, 2), np.nan)), CgKitError,
     "matrix contains non-finite entries"),
    (lambda: estimate_condition(np.ones(3)), DimensionError,
     "expected a square matrix, got shape (3,)"),
], ids=["constructor", "dense-order-0", "csr-order-0", "csr-non-finite",
        "csr-index-past-n", "csr-negative-index", "csr-arrays-of-dense", "as-vector-2d",
        "dot-2d", "spectrum-list-and-range", "spectrum-empty-list", "spectrum-infinite-bound",
        "spectrum-no-clusters", "materialize-0", "generate-spd-0",
        "condition-of-asymmetric", "condition-of-nan", "condition-of-1d"])
def test_typed_refusals(call, error, message):
    assert_refused(call, error, message)


@pytest.mark.parametrize("call", [
    lambda a: QuadraticProblem(a, np.ones(2)),
    spd_validate,
    lambda a: solve_direct(a, np.ones(2)),
    lambda a: check_gradient_conjugacy(solve(make_spd_problem([1.0, 2.0], 0))[1], a),
    estimate_condition,
], ids=["quadratic-problem", "spd-validate", "solve-direct", "gradient-conjugacy",
        "estimate-condition"])
def test_raw_matrix_operands_go_through_from_dense(call):
    assert_refused(lambda: call(np.ones((2, 3))), DimensionError,
                   "expected a square matrix, got shape (2, 3)")


# each count site, as a call of the count alone
_COUNT_SITES = {
    "builtin-n": ("n", lambda k: builtin_problem(BuiltinProblemSpec(family="hilbert", n=k)).n),
    "materialize-n": ("n", lambda k: _RANGE.materialize(k, np.random.default_rng(0)).size),
    "generate-spd-n": ("n", lambda k: generate_spd(k, _RANGE, 0).n),
    "clusters": ("clusters", lambda k: SpectrumSpec(
        lam_min=1.0, lam_max=2.0, distribution="clustered", clusters=k).clusters),
    "max-iterations": ("max_iterations", lambda k: solve(
        builtin_problem(BuiltinProblemSpec(family="hilbert", n=5)),
        config=SolverConfig(max_iterations=k))[1].terminated_at),
}


@pytest.mark.parametrize("site", list(_COUNT_SITES))
@pytest.mark.parametrize("value", [2.5, 0, True, "3", np.float64(3.0)],
                         ids=["2.5", "0", "bool", "str", "float64"])
def test_counts_are_integers_of_at_least_1(site, value):
    name, call = _COUNT_SITES[site]
    assert_refused(lambda: call(value), ProblemSpecError,
                   f"{name} must be an integer of at least 1, got {value!r}")


@pytest.mark.parametrize("site", list(_COUNT_SITES))
def test_numpy_integer_counts_are_accepted(site):
    assert _COUNT_SITES[site][1](np.int64(3)) == 3
