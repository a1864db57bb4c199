import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgkit import (
    BuiltinProblemSpec,
    CgKitError,
    DimensionError,
    MatrixSPD,
    NotPositiveDefiniteError,
    ProblemSpecError,
    SpectrumSpec,
    SymmetryError,
    builtin_problem,
    dot,
    generate_spd,
    matvec,
    solve_direct,
    spd_validate,
)


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
    @settings(max_examples=50, deadline=None)
    def test_storage_equivalence(self, m, x):
        sym = (m + m.T) / 2
        dense = MatrixSPD.from_dense(sym)
        csr = sparse.csr_matrix(sym)
        as_csr = MatrixSPD.from_csr(csr.indptr, csr.indices, csr.data, 8)
        yd = dense.matvec(x)
        ys = as_csr.matvec(x)
        np.testing.assert_allclose(ys, yd, rtol=1e-14,
                                   atol=1e-14 * max(np.abs(yd).max(), 1.0))

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
        result = spd_validate(np.diag([2.0, 1.0]))
        assert result.method == "cholesky"
        assert not result.probable

    def test_indefinite(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefiniteError):
            spd_validate(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric(self):
        with pytest.raises(SymmetryError):
            spd_validate(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_sparse_densified_path(self):
        m = MatrixSPD.from_csr([0, 1, 2], [0, 1], [2.0, 1.0], 2)
        result = spd_validate(m)
        assert result.method == "cholesky"

    def test_sparse_randomized_path(self):
        n = 40
        diag = sparse.diags(np.linspace(1.0, 3.0, n), format="csr")
        m = MatrixSPD.from_csr(diag.indptr, diag.indices, diag.data, n)
        result = spd_validate(m, densify_cap=10)
        assert result.method == "randomized"
        assert result.probable

    def test_sparse_randomized_catches_negative_definite(self):
        n = 40
        diag = sparse.diags(-np.ones(n), format="csr")
        m = MatrixSPD.from_csr(diag.indptr, diag.indices, diag.data, n)
        with pytest.raises(NotPositiveDefiniteError):
            spd_validate(m, densify_cap=10)


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

    def test_trace_matches_eigenvalue_sum(self):
        spec = SpectrumSpec(lam_min=0.5, lam_max=9.0, distribution="linear")
        m = generate_spd(30, spec, seed=3)
        lams = spec.materialize(30, np.random.default_rng(3))
        assert np.trace(m.to_dense()) == pytest.approx(lams.sum(), rel=1e-10)

    def test_validates_spd(self):
        m = generate_spd(25, SpectrumSpec(lam_min=1.0, lam_max=50.0), seed=5)
        assert spd_validate(m).method == "cholesky"

    def test_deterministic_in_seed(self):
        spec = SpectrumSpec(lam_min=1.0, lam_max=10.0)
        a = generate_spd(12, spec, seed=42).to_dense()
        b = generate_spd(12, spec, seed=42).to_dense()
        c = generate_spd(12, spec, seed=43).to_dense()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

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
