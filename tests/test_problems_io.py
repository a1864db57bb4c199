import io
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from cgkit import (
    CgKitError,
    MatrixMarketError,
    MatrixSPD,
    NotPositiveDefiniteError,
    ProblemSpecError,
    QuadraticProblem,
    SolverConfig,
    SpectrumSpec,
    SymmetryError,
    solve,
)
from cgkit.problems_io import (
    BuiltinProblemSpec,
    TraceDocument,
    builtin_problem,
    read_matrix_market,
    read_trace,
    read_vector_file,
    report_from_dict,
    report_to_dict,
    write_matrix_market,
    write_trace,
    write_vector_file,
)
from cgkit.verify import run_all_checks
from conftest import assert_refused

DIAG21_COORD = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 2\n"
                "1 1 2.0\n"
                "2 2 1.0\n")

DIAG21_ARRAY = ("%%MatrixMarket matrix array real general\n"
                "2 2\n"
                "2.0\n0.0\n0.0\n1.0\n")


class TestBuiltinProblems:
    def test_laplacian1d_matrix(self):
        problem = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=3))
        expected = [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
        np.testing.assert_array_equal(problem.A.to_dense(), expected)
        assert problem.A.storage == "csr"

    def test_hilbert_matrix(self):
        problem = builtin_problem(BuiltinProblemSpec(family="hilbert", n=2))
        np.testing.assert_array_equal(problem.A.to_dense(),
                                      [[1.0, 0.5], [0.5, 1 / 3]])

    def test_hilbert_order_cap(self):
        with pytest.raises(ProblemSpecError):
            BuiltinProblemSpec(family="hilbert", n=13)

    def test_diagonal_known_solution_reproduces_worked_instance(self):
        spec = BuiltinProblemSpec(family="diagonal", n=2,
                                  eigenvalues=(2.0, 1.0),
                                  b_mode="from_known_solution",
                                  known_solution=(1.0, 1.0))
        problem = builtin_problem(spec)
        np.testing.assert_array_equal(problem.b, [-2.0, -1.0])

    def test_diagonal_requires_eigenvalues(self):
        with pytest.raises(ProblemSpecError):
            BuiltinProblemSpec(family="diagonal", n=2)

    def test_random_spd_uses_spectrum(self):
        spec = BuiltinProblemSpec(
            family="random_spd", n=12,
            spectrum=SpectrumSpec(lam_min=1.0, lam_max=9.0, distribution="linear"),
            seed=5, b_mode="random", b_seed=2)
        problem = builtin_problem(spec)
        vals = np.linalg.eigvalsh(problem.A.to_dense())
        assert vals[0] == pytest.approx(1.0, rel=1e-10)
        assert vals[-1] == pytest.approx(9.0, rel=1e-10)

    def test_unknown_family(self):
        with pytest.raises(ProblemSpecError):
            BuiltinProblemSpec(family="toeplitz", n=4)

    @pytest.mark.parametrize("field", ["seed", "b_seed"])
    def test_negative_seed_is_refused(self, field):
        spec = BuiltinProblemSpec(family="random_spd", n=5,
                                  spectrum=SpectrumSpec(lam_min=1.0, lam_max=10.0),
                                  b_mode="random", **{field: -1})
        with pytest.raises(ProblemSpecError, match=f"^{field} must be nonnegative, got -1$"):
            builtin_problem(spec)

    @pytest.mark.parametrize("family,kw", [
        ("random_spd", dict(spectrum=SpectrumSpec(lam_min=1.0, lam_max=10.0))),
        ("diagonal", dict(eigenvalues=(2.0, 3.0)))])
    def test_overflowing_known_solution_is_a_typed_error(self, family, kw):
        # -A x* overflows: QuadraticProblem refuses b, with no NumPy warning first
        spec = BuiltinProblemSpec(family=family, n=2, b_mode="from_known_solution",
                                  known_solution=(1e308, 1e308), **kw)
        with pytest.raises(CgKitError, match="b contains non-finite entries"):
            builtin_problem(spec)

    @pytest.mark.parametrize("source", [
        "laplacian1d n=1", "laplacian1d n=1000", "diagonal n=1", "diagonal n=4000",
        "coordinate symmetric", "coordinate general"])
    def test_every_csr_source_stores_int32_indices(self, source):
        family, _, n = source.partition(" n=")
        if family in ("laplacian1d", "diagonal"):
            n = int(n)
            eigs = tuple(np.linspace(1.0, 10.0, n)) if family == "diagonal" else None
            a = builtin_problem(BuiltinProblemSpec(family=family, n=n, eigenvalues=eigs)).A
        else:
            symmetry = source.split()[1]
            upper = "" if symmetry == "symmetric" else "1 2 -1.0000000000001\n"
            a = read_matrix_market(io.StringIO(
                f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                f"2 2 {3 + bool(upper)}\n1 1 2\n2 1 -1\n{upper}2 2 2\n"))
        indptr, indices, data = a.csr_arrays
        assert (indptr.dtype, indices.dtype, data.dtype) == (np.int32, np.int32, np.float64)

    def test_hilbert_condition_grows_monotonically(self):
        # direct-eigensolve oracle across the supported orders
        conds = []
        for n in range(2, 13):
            problem = builtin_problem(BuiltinProblemSpec(family="hilbert", n=n))
            vals = np.linalg.eigvalsh(problem.A.to_dense())
            conds.append(vals[-1] / vals[0])
        assert all(b > a for a, b in zip(conds, conds[1:]))

    @pytest.mark.parametrize("family,kw", [
        ("diagonal", dict(n=5, eigenvalues=(2.0, 3.0, 5.0, 8.0, 13.0))),
        ("random_spd", dict(n=20, spectrum=SpectrumSpec(
            lam_min=1.0, lam_max=100.0, distribution="linear"), seed=3)),
    ])
    def test_planted_solution_recovered(self, family, kw):
        x_star = np.linspace(-1.0, 1.0, kw["n"])
        spec = BuiltinProblemSpec(family=family, b_mode="from_known_solution",
                                  known_solution=tuple(x_star), **kw)
        problem = builtin_problem(spec)
        x, trace = solve(problem)
        assert np.linalg.norm(x - x_star) <= 1e-8 * np.linalg.norm(x_star)

    @pytest.mark.parametrize("kw, message", [
        (dict(family="diagonal", eigenvalues=(1.0, math.nan)),
         "eigenvalues must be finite and strictly positive"),
        (dict(family="diagonal", eigenvalues=(1.0, math.inf)),
         "eigenvalues must be finite and strictly positive"),
        (dict(family="laplacian1d", b_mode="from_known_solution",
              known_solution=(math.nan, 1.0)), "known_solution entries must be finite"),
        (dict(family="laplacian1d", b_mode="from_known_solution",
              known_solution=(1.0, -math.inf)), "known_solution entries must be finite"),
    ], ids=["diagonal-nan", "diagonal-inf", "solution-nan", "solution-minus-inf"])
    def test_non_finite_numbers_are_refused(self, kw, message):
        assert_refused(lambda: BuiltinProblemSpec(n=2, **kw), ProblemSpecError, message)

    @pytest.mark.parametrize("spec, text", [
        (BuiltinProblemSpec(family="laplacian1d", n=4),
         '{"family": "laplacian1d", "n": 4, "b_mode": "ones"}'),
        (BuiltinProblemSpec(family="hilbert", n=3),
         '{"family": "hilbert", "n": 3, "b_mode": "ones"}'),
        (BuiltinProblemSpec(family="diagonal", n=3, eigenvalues=(1, 2.5, 4)),
         '{"family": "diagonal", "n": 3, "eigenvalues": [1.0, 2.5, 4.0], "b_mode": "ones"}'),
        (BuiltinProblemSpec(family="random_spd", n=6, seed=7,
                            spectrum=SpectrumSpec(lam_min=1.0, lam_max=100.0)),
         '{"family": "random_spd", "n": 6, "spectrum": {"eigenvalues": null, '
         '"lam_min": 1.0, "lam_max": 100.0, "distribution": "loguniform", '
         '"clusters": 2}, "seed": 7, "b_mode": "ones"}'),
        (BuiltinProblemSpec(family="random_spd", n=3, spectrum=SpectrumSpec(
            eigenvalues=(1, 2, 3), distribution="clustered", clusters=3)),
         '{"family": "random_spd", "n": 3, "spectrum": {"eigenvalues": [1.0, 2.0, 3.0], '
         '"lam_min": null, "lam_max": null, "distribution": "clustered", '
         '"clusters": 3}, "seed": 0, "b_mode": "ones"}'),
        (BuiltinProblemSpec(family="laplacian1d", n=5, b_mode="random", b_seed=5),
         '{"family": "laplacian1d", "n": 5, "b_mode": "random", "b_seed": 5}'),
        (BuiltinProblemSpec(family="diagonal", n=2, eigenvalues=(2.0, 1.0),
                            b_mode="from_known_solution", known_solution=(1, -0.5)),
         '{"family": "diagonal", "n": 2, "eigenvalues": [2.0, 1.0], '
         '"b_mode": "from_known_solution", "known_solution": [1.0, -0.5]}'),
    ], ids=["laplacian1d", "hilbert", "diagonal", "random-spd-range",
            "random-spd-list-clusters", "b-random", "known-solution"])
    def test_describe_is_pinned(self, spec, text):
        assert json.dumps(spec.describe()) == text


class TestMatrixMarketRead:
    def test_coordinate_symmetric(self):
        m = read_matrix_market(io.StringIO(DIAG21_COORD))
        np.testing.assert_array_equal(m.to_dense(), [[2.0, 0.0], [0.0, 1.0]])
        assert m.storage == "csr"

    def test_array_general_equivalent(self):
        m = read_matrix_market(io.StringIO(DIAG21_ARRAY))
        np.testing.assert_array_equal(m.to_dense(), [[2.0, 0.0], [0.0, 1.0]])
        assert m.storage == "dense"

    def test_symmetric_file_mirrors_one_triangle(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 3\n"
                "1 1 2.0\n"
                "2 1 -0.5\n"
                "2 2 2.0\n")
        m = read_matrix_market(io.StringIO(text))
        np.testing.assert_array_equal(m.to_dense(),
                                      [[2.0, -0.5], [-0.5, 2.0]])

    def test_array_symmetric_lower_triangle(self):
        text = ("%%MatrixMarket matrix array real symmetric\n"
                "2 2\n"
                "2.0\n-0.5\n2.0\n")
        m = read_matrix_market(io.StringIO(text))
        np.testing.assert_array_equal(m.to_dense(),
                                      [[2.0, -0.5], [-0.5, 2.0]])

    def test_integer_field_accepted(self):
        text = ("%%MatrixMarket matrix coordinate integer symmetric\n"
                "2 2 2\n1 1 2\n2 2 1\n")
        m = read_matrix_market(io.StringIO(text))
        np.testing.assert_array_equal(m.to_dense(), [[2.0, 0.0], [0.0, 1.0]])

    def test_complex_field_rejected(self):
        text = DIAG21_COORD.replace("real", "complex")
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(io.StringIO(text))
        assert "complex" in str(info.value)
        assert info.value.line == 1

    def test_malformed_header(self):
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(io.StringIO("%%NotMatrixMarket nonsense\n"))
        assert info.value.line == 1

    def test_bad_entry_reports_line_number(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 2\n"
                "1 1 2.0\n"
                "2 Q 1.0\n")
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(io.StringIO(text))
        assert info.value.line == 4

    def test_truncated_file_rejected(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 2\n"
                "1 1 2.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(io.StringIO(text))

    def test_out_of_range_index(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 1\n"
                "3 1 2.0\n")
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(io.StringIO(text))
        assert info.value.line == 3

    def test_general_file_must_be_symmetric(self):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 2 3\n"
                "1 1 1.0\n"
                "2 1 1.0\n"
                "2 2 1.0\n")
        with pytest.raises(SymmetryError):
            read_matrix_market(io.StringIO(text))

    def test_indefinite_matrix_rejected(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 3\n"
                "1 1 1.0\n"
                "2 1 2.0\n"
                "2 2 1.0\n")
        with pytest.raises(NotPositiveDefiniteError):
            read_matrix_market(io.StringIO(text))

    def test_rectangular_rejected(self):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 3 1\n"
                "1 1 1.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(io.StringIO(text))

    def test_binary_stream_accepted_and_left_open(self):
        buf = io.BytesIO(DIAG21_COORD.encode("ascii"))
        m = read_matrix_market(buf)
        np.testing.assert_array_equal(m.to_dense(), [[2.0, 0.0], [0.0, 1.0]])
        assert not buf.closed  # caller's handle survives

    def test_binary_file_handle(self, tmp_path):
        path = tmp_path / "diag.mtx"
        path.write_text(DIAG21_COORD)
        with open(path, "rb") as handle:
            m = read_matrix_market(handle)
        np.testing.assert_array_equal(m.to_dense(), [[2.0, 0.0], [0.0, 1.0]])

    def test_comments_and_blank_lines_skipped(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "% a comment\n"
                "\n"
                "2 2 2\n"
                "% another\n"
                "1 1 2.0\n"
                "2 2 1.0\n")
        m = read_matrix_market(io.StringIO(text))
        np.testing.assert_array_equal(m.to_dense(), [[2.0, 0.0], [0.0, 1.0]])


class TestMatrixMarketRoundTrip:
    def test_csr_roundtrip(self, tmp_path):
        from cgkit.problems_io import _laplacian1d
        a = _laplacian1d(7)
        path = tmp_path / "lap.mtx"
        write_matrix_market(a, path)
        back = read_matrix_market(path)
        np.testing.assert_array_equal(back.to_dense(), a.to_dense())

    def test_dense_roundtrip(self, tmp_path):
        from cgkit import generate_spd
        a = generate_spd(9, SpectrumSpec(lam_min=1.0, lam_max=20.0), seed=4)
        path = tmp_path / "rand.mtx"
        write_matrix_market(a, path)
        back = read_matrix_market(path)
        np.testing.assert_array_equal(back.to_dense(), a.to_dense())

    def test_forced_array_format(self, tmp_path):
        a = MatrixSPD.from_dense(np.diag([2.0, 1.0]))
        path = tmp_path / "diag.mtx"
        write_matrix_market(a, path, fmt="coordinate")
        assert "coordinate" in path.read_text().splitlines()[0]
        back = read_matrix_market(path)
        np.testing.assert_array_equal(back.to_dense(), a.to_dense())



class TestMatrixMarketFromCsr:
    """The coordinate writer reads CSR storage as stored, never densified."""

    # written by the dense route: densify, take the nonzero lower triangle
    LAPLACIAN4 = ("%%MatrixMarket matrix coordinate real symmetric\n4 4 7\n"
                  "1 1 2\n2 1 -1\n2 2 2\n3 2 -1\n3 3 2\n4 3 -1\n4 4 2\n")
    MIXED = ("%%MatrixMarket matrix coordinate real symmetric\n4 4 5\n"
             "1 1 4\n2 1 0.10000000000000001\n2 2 3\n"
             "3 3 0.33333333333333331\n4 4 2.5\n")

    def test_bytes_match_dense_route(self):
        lap = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=4)).A
        mixed = MatrixSPD.from_csr([0, 2, 4, 5, 6], [0, 1, 0, 1, 2, 3],
                                   [4.0, 0.1, 0.1, 3.0, 1 / 3, 2.5], 4)
        for a, expected in ((lap, self.LAPLACIAN4), (mixed, self.MIXED)):
            buf = io.StringIO()
            write_matrix_market(a, buf)
            assert buf.getvalue() == expected

    @staticmethod
    def _entry_by_entry(a: MatrixSPD) -> str:
        """The coordinate file written one entry at a time: the nonzero
        lower triangle in row-major order."""
        if a.is_dense:
            m = sparse.csr_matrix(a.to_dense())
        else:
            indptr, indices, data = a.csr_arrays
            m = sparse.csr_matrix((data, indices, indptr), shape=(a.n, a.n))
        lower = sparse.tril(m, format="csr")
        lower.eliminate_zeros()
        lower.sort_indices()
        stream = io.StringIO()
        stream.write("%%MatrixMarket matrix coordinate real symmetric\n")
        stream.write(f"{a.n} {a.n} {lower.nnz}\n")
        for i in range(a.n):
            lo, hi = lower.indptr[i], lower.indptr[i + 1]
            for j, v in zip(lower.indices[lo:hi].tolist(), lower.data[lo:hi].tolist()):
                stream.write(f"{i + 1} {j + 1} {'%.17g' % v}\n")
        return stream.getvalue()

    # laplacian1d and random_spd write more lines than one joined slice
    # (4096) holds
    @pytest.mark.parametrize("spec", [
        BuiltinProblemSpec(family="laplacian1d", n=5000),
        BuiltinProblemSpec(family="random_spd", n=100, seed=3,
                           spectrum=SpectrumSpec(lam_min=1.0, lam_max=1e3)),
        BuiltinProblemSpec(family="hilbert", n=12)], ids=["csr", "dense", "hilbert"])
    def test_bytes_equal_an_entry_by_entry_loop(self, spec):
        a = builtin_problem(spec).A
        buf = io.StringIO()
        write_matrix_market(a, buf, fmt="coordinate")
        assert buf.getvalue() == self._entry_by_entry(a)

    def test_large_laplacian_written_without_densifying(self):
        n = 100_000  # a dense copy would take 80 GB
        a = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=n)).A
        buf = io.StringIO()
        write_matrix_market(a, buf)
        lines = buf.getvalue().splitlines()
        assert lines[1] == f"{n} {n} {2 * n - 1}"
        assert lines[2:5] == ["1 1 2", "2 1 -1", "2 2 2"]
        assert lines[-1] == f"{n} {n} 2"


def _in_storage(a: MatrixSPD, storage: str) -> MatrixSPD:
    if a.storage == storage:
        return a
    if storage == "dense":
        return MatrixSPD.from_dense(a.to_dense())
    m = sparse.csr_matrix(a.to_dense())
    return MatrixSPD.from_csr(m.indptr, m.indices, m.data, a.n)


class TestMatrixMarketArray:
    """The array writer streams each column from the stored row of its
    index, never densified, with the bytes of an entry-by-entry loop."""

    @staticmethod
    def _entry_by_entry(a: MatrixSPD) -> str:
        dense = a.to_dense()
        lines = ["%%MatrixMarket matrix array real general", f"{a.n} {a.n}"]
        lines += ["%.17g" % dense[i, j] for j in range(a.n) for i in range(a.n)]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("spec", [
        BuiltinProblemSpec(family="laplacian1d", n=300),
        BuiltinProblemSpec(family="random_spd", n=120,
                           spectrum=SpectrumSpec(lam_min=1.0, lam_max=100.0)),
        BuiltinProblemSpec(family="hilbert", n=7),
    ], ids=["laplacian1d", "random_spd", "hilbert"])
    def test_bytes_match_the_entry_loop(self, spec, storage):
        a = _in_storage(builtin_problem(spec).A, storage)
        buf = io.StringIO()
        write_matrix_market(a, buf, fmt="array")
        assert buf.getvalue() == self._entry_by_entry(a)

    def test_csr_is_written_in_memory_linear_in_n(self, tmp_path):
        n = 400  # a dense copy alone is 400 * 8n bytes
        a = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=n)).A
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_matrix_market(a, tmp_path / "a.mtx", fmt="array")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 64 * 8 * n
        assert read_matrix_market(tmp_path / "a.mtx").to_dense().tolist() == \
            a.to_dense().tolist()


class TestVectorFiles:
    def test_roundtrip(self, tmp_path):
        v = np.array([1.5, -2.25, 1e-17, 3.0])
        path = tmp_path / "b.txt"
        write_vector_file(v, path)
        np.testing.assert_array_equal(read_vector_file(path), v)

    def test_comments_skipped(self):
        got = read_vector_file(io.StringIO("# header\n1.5\n% note\n-2.0\n"))
        np.testing.assert_array_equal(got, [1.5, -2.0])

    @pytest.mark.parametrize("text", ["", "\n", "# only a comment\r\n\r\n% and another\n"],
                             ids=["empty", "blank", "comments"])
    def test_no_entries_read_as_an_empty_vector(self, text):
        got = read_vector_file(io.StringIO(text))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_zeros_keep_their_sign(self):
        got = read_vector_file(io.StringIO("-0\n0\n-0.0e5\n-1e-400\n.0\n-.0\n"))
        np.testing.assert_array_equal(got, 0.0)
        assert np.signbit(got).tolist() == [True, False, True, True, False, True]

    def test_bad_entry_reports_line(self):
        with pytest.raises(MatrixMarketError) as info:
            read_vector_file(io.StringIO("1.0\nxyz\n"))
        assert info.value.line == 2

    def test_lines_of_a_stream_split_at_cr_keep_their_numbers(self):
        # a stream that ends lines at CR alone leaves an LF inside a line
        def stream(data):
            return io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="\r")

        np.testing.assert_array_equal(read_vector_file(stream(b"1\r2\n\r3\r")), [1, 2, 3])
        with pytest.raises(MatrixMarketError) as info:
            read_vector_file(stream(b"1\r2\n3\r4\r"))
        assert info.value.line == 2

    @pytest.mark.parametrize("entry", ["1_000", "+1", "+.5", "\u0661"],
                             ids=["underscore", "plus", "plus-fraction", "arabic-digit"])
    def test_python_float_dialect_is_refused(self, entry):
        # Python's float reads each of these; a MatrixMarket file may not hold them
        float(entry)
        with pytest.raises(MatrixMarketError, match="malformed number") as info:
            read_vector_file(io.StringIO(f"% b\n1.0\n{entry}\n2.0\n"))
        assert info.value.line == 3
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(io.StringIO(f"%%MatrixMarket matrix array real general\n"
                                           f"1 1\n{entry}\n"))
        assert info.value.line == 3

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_any_finite_float_roundtrips_exactly(self, values):
        buf = io.StringIO()
        write_vector_file(np.asarray(values), buf)
        buf.seek(0)
        got = read_vector_file(buf)
        np.testing.assert_array_equal(got, np.asarray(values))

    def test_long_vector_is_written_in_bounded_memory(self, tmp_path):
        # the bytes of one "%.17g\n" per value, joined a slice at a time
        n = 100_000
        v = np.random.default_rng(0).standard_normal(n) * 10.0 ** np.arange(-150, 150, 3e-3)
        expected = "".join(map("%.17g\n".__mod__, v.tolist())).encode()
        path = tmp_path / "v.txt"
        tracemalloc.start()
        try:
            write_vector_file(v, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == expected
        assert peak < 1e6


class TestTraceDocuments:
    @pytest.fixture
    def solved(self, worked_problem):
        config = SolverConfig()
        x, trace = solve(worked_problem, config=config)
        return worked_problem, config, trace

    def test_structured_roundtrip_is_exact(self, solved, tmp_path):
        problem, config, trace = solved
        doc = TraceDocument.from_solve(problem, config, trace,
                                       include_vectors=True)
        path = tmp_path / "trace.json"
        write_trace(doc, path)
        back = read_trace(path)
        assert back.iterations == doc.iterations
        assert back.final == doc.final
        assert back.vectors == doc.vectors
        assert back.metadata["grad_tolerance"] == doc.metadata["grad_tolerance"]

    def test_tabular_rows_match_hand_values(self, solved):
        problem, config, trace = solved
        doc = TraceDocument.from_solve(problem, config, trace, timestamp=False)
        text = doc.to_tabular()
        lines = text.strip().splitlines()
        header_at = lines.index("k,alpha,beta,grad_norm,objective")
        rows = lines[header_at + 1:]
        assert len(rows) == 2
        k0 = rows[0].split(",")
        assert k0[0] == "0"
        assert k0[1] == "%.17g" % (5 / 9)
        assert k0[2] == ""  # beta undefined at k=0
        assert k0[3] == "%.17g" % math.sqrt(5.0)
        k1 = rows[1].split(",")
        assert k1[1] == "%.17g" % 0.9
        # 17 significant digits reproduce the recorded scalar exactly; the
        # recorded beta itself sits within one ulp of the hand value 4/81
        assert float(k1[2]) == trace.records[1].beta
        assert float(k1[2]) == pytest.approx(4 / 81, rel=1e-15)

    def test_empty_trace_gives_header_only(self, worked_problem):
        config = SolverConfig()
        _, trace = solve(worked_problem, x_0=[1.0, 1.0], config=config)
        doc = TraceDocument.from_solve(worked_problem, config, trace)
        lines = doc.to_tabular().strip().splitlines()
        assert lines[-1] == "k,alpha,beta,grad_norm,objective"
        assert any(line.startswith("#") for line in lines)

    @pytest.mark.parametrize("update", ["recurrence", "explicit"])
    def test_objective_from_recorded_gradient(self, update):
        problem = builtin_problem(BuiltinProblemSpec(
            family="random_spd", n=60, seed=3, b_mode="random", b_seed=3,
            spectrum=SpectrumSpec(lam_min=1.0, lam_max=100.0)))
        config = SolverConfig(gradient_update=update)
        _, trace = solve(problem, config=config)
        doc = TraceDocument.from_solve(problem, config, trace)
        eps = np.finfo(np.float64).eps
        b, a_norm = problem.b, problem.A.frobenius_norm()
        for rec, row in zip(trace.records, doc.iterations, strict=True):
            # x.(g + b)/2 departs from f(x) by half of x.(drift of the
            # recorded g from A x + b), plus rounding in both formulas
            x_norm = np.linalg.norm(rec.x)
            drift = np.linalg.norm(rec.g - problem.gradient(rec.x))
            scale = x_norm * (a_norm * x_norm + np.linalg.norm(b) + np.linalg.norm(rec.g))
            bound = 0.5 * x_norm * drift + 4 * problem.n * eps * scale
            assert abs(row["objective"] - problem.objective(rec.x)) <= bound
        assert doc.final["objective"] == problem.objective(trace.final_x)

    @pytest.mark.parametrize("include_vectors", [False, True])
    @pytest.mark.parametrize("update", ["recurrence", "explicit"])
    def test_document_equals_the_one_from_hand_built_records(self, update,
                                                             include_vectors):
        # a solver trace replays g_k, x_k and d_k from what it stored; a
        # hand-built trace of the same records stacks their own vectors
        problem = builtin_problem(BuiltinProblemSpec(
            family="random_spd", n=40, seed=2, b_mode="random", b_seed=2,
            spectrum=SpectrumSpec(lam_min=1.0, lam_max=100.0)))
        config = SolverConfig(gradient_update=update, beta_rule="hs")
        x_0 = np.random.default_rng(4).standard_normal(problem.n)
        _, trace = solve(problem, x_0, config)
        by_hand = replace(trace, records=tuple(trace.records))
        report = run_all_checks(trace, problem)
        assert report == run_all_checks(by_hand, problem)
        docs = [TraceDocument.from_solve(problem, config, t, report=report,
                                         include_vectors=include_vectors,
                                         timestamp=False)
                for t in (trace, by_hand)]
        assert docs[0].to_json() == docs[1].to_json()
        assert docs[0].to_tabular() == docs[1].to_tabular()

    def test_breakdown_run_records_the_breakdown(self, tmp_path):
        # d.Ad underflows the breakdown threshold at the first step
        problem = QuadraticProblem(MatrixSPD.from_dense([[1e-305]]), [1.0])
        config = SolverConfig()
        _, trace = solve(problem, config=config)
        doc = TraceDocument.from_solve(problem, config, trace, timestamp=False)
        assert doc.final["termination_reason"] == "breakdown"
        assert doc.final["breakdown"] == trace.breakdown
        assert "iteration 0" in doc.final["breakdown"]
        path = tmp_path / "trace.json"
        write_trace(doc, path)
        assert read_trace(path).final == doc.final

    def test_converged_run_has_no_breakdown(self, solved):
        problem, config, trace = solved
        assert "breakdown" not in TraceDocument.from_solve(problem, config, trace).final

    @pytest.mark.parametrize("document", [{"format": "cg-report", "version": 1},
                                          {"version": 1}, {}],
                             ids=["other-format", "no-format", "empty"])
    def test_read_trace_refuses_another_format(self, tmp_path, document):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(document))
        with pytest.raises(CgKitError, match="not a cg-trace document"):
            read_trace(path)

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "top level is a list"),
        ('{"format": "cg-trace"}', "lacks metadata, iterations, final"),
        ("not json", "invalid JSON"),
        ("", "invalid JSON"),
    ], ids=["list", "no-sections", "not-json", "empty"])
    def test_read_trace_refuses_malformed_input_with_a_typed_error(self, tmp_path, text,
                                                                   message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(CgKitError, match=message):
            read_trace(path)

    def test_timestamp_suppression(self, solved):
        problem, config, trace = solved
        with_ts = TraceDocument.from_solve(problem, config, trace)
        without = TraceDocument.from_solve(problem, config, trace,
                                           timestamp=False)
        assert "created" in with_ts.metadata
        assert "created" not in without.metadata

    def test_vectors_excluded_by_default(self, solved):
        problem, config, trace = solved
        doc = TraceDocument.from_solve(problem, config, trace)
        assert doc.vectors is None
        assert "x" in doc.final  # the answer itself is always present

    def test_final_solution_recoverable(self, solved):
        problem, config, trace = solved
        doc = TraceDocument.from_solve(problem, config, trace)
        np.testing.assert_allclose(doc.final["x"], [1.0, 1.0], rtol=1e-15)

    def test_verification_section_roundtrip(self, solved, tmp_path):
        problem, config, trace = solved
        report = run_all_checks(trace, problem)
        doc = TraceDocument.from_solve(problem, config, trace, report=report)
        path = tmp_path / "report.json"
        write_trace(doc, path)
        data = json.loads(path.read_text())
        assert data["verification"]["passed"] is True
        restored = report_from_dict(data["verification"])
        assert restored == report

    def test_report_dict_roundtrip(self, solved):
        problem, config, trace = solved
        report = run_all_checks(trace, problem)
        assert report_from_dict(report_to_dict(report)) == report

    def test_unknown_format_rejected(self, solved):
        problem, config, trace = solved
        doc = TraceDocument.from_solve(problem, config, trace)
        with pytest.raises(ValueError):
            write_trace(doc, io.StringIO(), fmt="yaml")


# A number as a MatrixMarket file may write it: an optional '-', then
# digits with at most one '.' and an optional exponent, or inf, infinity or
# nan in any case.
_MM_NUMBER = re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                        r"|inf|infinity|nan)", re.IGNORECASE | re.ASCII)


def _read_vector_lines(stream) -> np.ndarray:
    """The vector-file reader as a line loop: each entry in the MatrixMarket
    number syntax is read by ``float``, as the reader did before it checked
    that syntax; the first entry outside it is refused at its line."""
    values = []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith(("#", "%")):
            continue
        if not _MM_NUMBER.fullmatch(text):
            raise MatrixMarketError(f"not a MatrixMarket number: {text!r}", line=lineno)
        values.append(float(text))
    return np.asarray(values, dtype=np.float64)


def _outcome(read):
    """The values read, or the line of the error: the two readers word
    their errors differently."""
    try:
        return "values", [value.hex() for value in read().tolist()]
    except MatrixMarketError as err:
        return "error", err.line


_VECTOR_LINES = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda v: f"  {v:.17g}\t"),
    st.sampled_from(["", "   ", "# note", "% note", "  % 1.0", "nan", "-Infinity",
                     "1_000", "1e", "0x1", "+.5", "1 2", "1,5"]),
    # control characters that str.splitlines would split on, and bytes
    # outside ASCII, which read as U+FFFD
    st.text(alphabet="0123456789.eE+-_ \t\x0b\x0c\x1c\x1f#%xé ", max_size=8),
)


class TestVectorFileOnePass:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_VECTOR_LINES, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]),
           st.booleans())
    def test_equals_the_line_loop(self, lines, newline, trailing):
        data = (newline.join(lines) + (newline if trailing else "")).encode()

        def line_loop():
            stream = io.TextIOWrapper(io.BytesIO(data), encoding="ascii",
                                      errors="replace")
            return _read_vector_lines(stream)

        assert _outcome(lambda: read_vector_file(io.BytesIO(data))) == _outcome(line_loop)
        # a caller's text stream splits lines by its own newline setting
        text = data.decode("ascii", "replace")
        assert (_outcome(lambda: read_vector_file(io.StringIO(text, newline="")))
                == _outcome(lambda: _read_vector_lines(io.StringIO(text, newline=""))))

    def test_bad_entry_after_many_good_ones(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("# b\n" + "1.5\n" * 1000 + "\n2.5x\n3\n")
        with pytest.raises(MatrixMarketError) as info:
            read_vector_file(path)
        assert info.value.line == 1003
        assert "could not convert string to float: '2.5x'" in str(info.value)


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                          st.floats().map(np.float64), st.text())


def _json_documents(keys):
    return st.recursive(
        _JSON_SCALARS,
        lambda children: st.one_of(st.lists(children, max_size=5),
                                   st.lists(children, max_size=5).map(tuple),
                                   st.dictionaries(keys, children, max_size=5)),
        max_leaves=40)


class TestIndentedJson:
    """``_json_indented`` writes what ``json.dumps(obj, indent=2)`` writes."""

    @settings(max_examples=200, deadline=None)
    @given(_json_documents(st.text()))
    def test_equals_json_dumps(self, obj):
        from cgkit.problems_io import _json_indented

        assert _json_indented(obj) == json.dumps(obj, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(_json_documents(st.one_of(st.text(), st.integers(), st.floats(),
                                     st.booleans(), st.none())))
    def test_keys_of_other_types_equal_json_dumps(self, obj):
        from cgkit.problems_io import _json_indented

        assert _json_indented(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        {"a": [1, np.arange(2)]}, [{"b": {1, 2}}], {"c": {(1, 2): 3}}, np.int64(3)],
        ids=["array", "set", "tuple-key", "numpy-int"])
    def test_unserializable_values_raise_as_json_dumps(self, obj):
        from cgkit.problems_io import _json_indented

        with pytest.raises(TypeError) as expected:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as got:
            _json_indented(obj)
        assert str(got.value) == str(expected.value)

    def test_circular_reference_raises(self):
        from cgkit.problems_io import _json_indented

        loop = {"a": [1.0]}
        loop["a"].append(loop)
        with pytest.raises(ValueError, match="Circular reference detected"):
            _json_indented(loop)

    def test_trace_document_equals_json_dumps(self, worked_problem):
        config = SolverConfig()
        _, trace = solve(worked_problem, config=config)
        doc = TraceDocument.from_solve(worked_problem, config, trace,
                                       report=run_all_checks(trace, worked_problem),
                                       include_vectors=True, timestamp=False)
        data = json.loads(doc.to_json())
        assert doc.to_json() == json.dumps(data, indent=2)


def _spec(**kw):
    return lambda: BuiltinProblemSpec(**kw)


def _read(text):
    return lambda: read_matrix_market(io.StringIO(text))


_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize("call, error, message", [
    (_spec(family="laplacian1d", n=0), ProblemSpecError,
     "n must be an integer of at least 1, got 0"),
    (_spec(family="diagonal", n=3, eigenvalues=(1.0, 2.0)), ProblemSpecError,
     "eigenvalues must number 3, got 2"),
    (_spec(family="diagonal", n=2, eigenvalues=(1.0, 0.0)), ProblemSpecError,
     "eigenvalues must be finite and strictly positive"),
    (_spec(family="random_spd", n=2), ProblemSpecError,
     "random_spd problems need a SpectrumSpec"),
    (_spec(family="laplacian1d", n=2, b_mode="zeros"), ProblemSpecError,
     "unknown b_mode 'zeros'; expected one of ('ones', 'random', 'from_known_solution')"),
    (_spec(family="laplacian1d", n=2, b_mode="from_known_solution"), ProblemSpecError,
     "b_mode=from_known_solution needs known_solution"),
    (_spec(family="laplacian1d", n=2, b_mode="from_known_solution", known_solution=(1.0,)),
     ProblemSpecError, "known_solution entries must number 2, got 1"),
    (_read(""), MatrixMarketError, "line 1: empty input"),
    (_read(_HEADER + "% comment\n\n"), MatrixMarketError, "line 3: missing size line"),
    (_read(_HEADER + "2 2 -1\n"), MatrixMarketError, "line 2: negative entry count -1"),
    (lambda: write_matrix_market(MatrixSPD.from_dense(np.eye(2)), io.StringIO(), fmt="csc"),
     ValueError, "unknown MatrixMarket format 'csc'"),
], ids=["spec-n-0", "diagonal-length", "diagonal-zero", "random-spd-no-spectrum",
        "unknown-b-mode", "no-known-solution", "short-known-solution", "read-empty",
        "read-header-and-comments", "read-negative-entry-count", "write-csc"])
def test_typed_refusals(call, error, message):
    assert_refused(call, error, message)


def test_numpy_integer_counts_are_written_as_ints():
    # each count is stored as a Python int, which the JSON writer takes
    spectrum = SpectrumSpec(lam_min=1.0, lam_max=2.0, distribution="clustered",
                            clusters=np.int64(2))
    spec = BuiltinProblemSpec(family="random_spd", n=np.int64(4), spectrum=spectrum)
    config = SolverConfig(max_iterations=np.int64(3))
    problem = builtin_problem(spec)
    _, trace = solve(problem, config=config)
    stream = io.StringIO()
    write_trace(TraceDocument.from_solve(problem, config, trace,
                                         problem_description=spec.describe()), stream)
    meta = json.loads(stream.getvalue())["metadata"]
    assert (meta["problem"]["n"], meta["problem"]["spectrum"]["clusters"],
            meta["config"]["max_iterations"]) == (4, 2, 3)


# Each site that reads a list of numbers: (build from the list, the name its
# texts use, whether values must be positive, whether the length is n = 2).
# The last two give lists to a spec whose family or b_mode does not read them.
_LIST_SITES = {
    "spectrum": (lambda v: SpectrumSpec(eigenvalues=v), "eigenvalues", True, False),
    "materialize": (lambda v: SpectrumSpec(eigenvalues=v).materialize(
        2, np.random.default_rng(0)), "eigenvalues", True, True),
    "diagonal": (lambda v: BuiltinProblemSpec(family="diagonal", n=2, eigenvalues=v),
                 "eigenvalues", True, True),
    "known-solution": (lambda v: BuiltinProblemSpec(
        family="laplacian1d", n=2, b_mode="from_known_solution", known_solution=v),
        "known_solution entries", False, True),
    "unread-eigenvalues": (lambda v: BuiltinProblemSpec(
        family="laplacian1d", n=2, eigenvalues=v), "eigenvalues", True, True),
    "unread-known-solution": (lambda v: BuiltinProblemSpec(
        family="diagonal", n=2, eigenvalues=(1.0, 2.0), b_mode="random", known_solution=v),
        "known_solution entries", False, True),
}
_BAD_LISTS = {  # (values, text after the name, needs positive, needs a length)
    "empty": ((), "must not be empty", False, False),
    "too-long": ((1.0, 2.0, 3.0), "must number 2, got 3", False, True),
    "nan": ((1.0, math.nan), "must be finite", False, False),
    "inf": ((math.inf, 1.0), "must be finite", False, False),
    "minus-inf": ((1.0, -math.inf), "must be finite", False, False),
    "zero": ((1.0, 0.0), "must be finite", True, False),
    "negative": ((-1.0, 1.0), "must be finite", True, False),
}


@pytest.mark.parametrize("site, values, message", [
    pytest.param(site, values, f"{what} {text}" + " and strictly positive" * (
        positive and text == "must be finite"), id=f"{site}-{case}")
    for site, (_, what, positive, sized) in _LIST_SITES.items()
    for case, (values, text, needs_positive, needs_length) in _BAD_LISTS.items()
    if (positive or not needs_positive) and (sized or not needs_length)])
def test_number_lists_take_one_check(site, values, message):
    assert_refused(lambda: _LIST_SITES[site][0](values), ProblemSpecError, message)


def test_number_lists_are_stored_as_python_floats():
    spec = BuiltinProblemSpec(family="diagonal", n=2, eigenvalues=np.array([2, 1]),
                              b_mode="from_known_solution",
                              known_solution=[np.float32(0.5), 1])
    spectrum = SpectrumSpec(eigenvalues=[np.int64(3), 1.5])
    for stored in (spec.eigenvalues, spec.known_solution, spectrum.eigenvalues):
        assert type(stored) is tuple and {type(v) for v in stored} == {float}
    assert json.dumps(spec.describe()) == (
        '{"family": "diagonal", "n": 2, "eigenvalues": [2.0, 1.0], '
        '"b_mode": "from_known_solution", "known_solution": [0.5, 1.0]}')
    lams = spectrum.materialize(2, np.random.default_rng(0))
    assert lams.dtype == np.float64 and lams.tolist() == [1.5, 3.0]
