import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cgkit.cli as cli
from cgkit import solve
from cgkit.cli import main
from cgkit.problems_io import TraceDocument, read_matrix_market, read_vector_file


def run_cli(*argv):
    return main(list(argv))


class TestSolve:
    def test_builtin_laplacian_single_unknown(self, capsys):
        code = run_cli("solve", "--builtin", "laplacian1d", "--n", "1",
                       "--b", "ones")
        out = capsys.readouterr().out
        assert code == 0
        assert "iterations: 1" in out
        assert "gradient_below_tolerance" in out

    def test_trace_file_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = run_cli("solve", "--builtin", "diagonal", "--eigs", "2,1",
                       "--known-solution", "1,1", "--output", str(trace))
        assert code == 0
        doc = json.loads(trace.read_text())
        assert doc["final"]["iterations"] == 2
        np.testing.assert_allclose(doc["final"]["x"], [1.0, 1.0], rtol=1e-15)

    @pytest.mark.parametrize("extra, code", [((), 0), (("--max-iters", "3"), 2)])
    def test_summary_without_output_matches_traced_run(self, tmp_path, capsys,
                                                        monkeypatch, extra, code):
        argv = ("solve", "--builtin", "laplacian1d", "--n", "50", "--b", "random",
                *extra)
        out = tmp_path / "trace.json"
        assert run_cli(*argv, "--output", str(out)) == code
        traced = capsys.readouterr().out.splitlines()

        def refuse(*args, **kwargs):
            raise AssertionError("trace document built without --output")

        configs = []

        def spy(problem, config):
            configs.append(config)
            return solve(problem, config=config)

        monkeypatch.setattr(TraceDocument, "from_solve", refuse)
        monkeypatch.setattr(cli, "solve", spy)
        assert run_cli(*argv) == code
        plain = capsys.readouterr().out.splitlines()
        assert traced == [f"trace written to {out}", *plain]
        assert [c.record_trace for c in configs] == [False]

    def test_tabular_output(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("solve", "--builtin", "laplacian1d", "--n", "5",
                       "--output", str(out), "--format", "tabular")
        assert code == 0
        lines = out.read_text().splitlines()
        assert "k,alpha,beta,grad_norm,objective" in lines

    def test_iteration_cap_exit_code(self):
        code = run_cli("solve", "--builtin", "laplacian1d", "--n", "50",
                       "--max-iters", "1")
        assert code == 2

    @pytest.mark.parametrize("stepsize, message", [
        ("exact", "exact-stepsize denominator d.Ad = 1.000e-305 "
                  "is numerically zero or negative"),
        ("orthogonal", "orthogonality-stepsize denominator g.Ad = -1.000e-305 "
                       "is numerically zero"),
    ])
    def test_breakdown_exit_code(self, tmp_path, capsys, stepsize, message):
        mtx = tmp_path / "tiny.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "1 1 1\n"
                       "1 1 1e-305\n")
        code = run_cli("solve", "--matrix", str(mtx), "--stepsize", stepsize)
        assert code == 3
        assert capsys.readouterr().err == f"breakdown: {message} (iteration 0)\n"

    def test_missing_source_is_an_error(self, capsys):
        code = run_cli("solve")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_both_sources_is_an_error(self, tmp_path):
        mtx = tmp_path / "a.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "1 1 1\n1 1 2.0\n")
        code = run_cli("solve", "--matrix", str(mtx), "--builtin", "hilbert",
                       "--n", "2")
        assert code == 1

    def test_matrix_file_with_b_file(self, tmp_path, capsys):
        mtx = tmp_path / "a.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "2 2 2\n1 1 2.0\n2 2 1.0\n")
        bfile = tmp_path / "b.txt"
        bfile.write_text("-2\n-1\n")
        code = run_cli("solve", "--matrix", str(mtx), "--b-file", str(bfile))
        assert code == 0
        assert "iterations: 2" in capsys.readouterr().out

    @pytest.mark.parametrize("body, code", [
        ("coordinate real symmetric\n2 2 2\n1 1 2.0\n2 2 1.0\n", 0),
        ("array real general\n2 2\n2.0\n0.0\n0.0\n1.0\n", 0),
        ("coordinate real symmetric\n2 2 3\n1 1 1.0\n2 1 2.0\n2 2 1.0\n", 1),
    ], ids=["spd-coordinate", "spd-array", "indefinite"])
    def test_matrix_file_is_certified_once(self, tmp_path, capsys, monkeypatch,
                                           body, code):
        import cgkit.linalg as linalg

        calls = []

        def counted(m):
            calls.append(m.n)
            return cholesky(m)

        cholesky = linalg._cholesky
        monkeypatch.setattr(linalg, "_cholesky", counted)
        mtx = tmp_path / "a.mtx"
        mtx.write_text("%%MatrixMarket matrix " + body)
        assert run_cli("solve", "--matrix", str(mtx)) == code
        assert calls == [2]
        if code:
            assert "Cholesky factorization failed" in capsys.readouterr().err

    def test_missing_file_reports_error(self, capsys):
        code = run_cli("solve", "--matrix", "/nonexistent/a.mtx")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify", "compare"])
    @pytest.mark.parametrize("flag", [("--max-iters", "0"), ("--tol", "-1")],
                             ids=["max-iters", "tol"])
    def test_bad_solver_option_is_an_error(self, capsys, command, flag):
        code = run_cli(command, "--builtin", "laplacian1d", "--n", "5", *flag)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags,name", [
        (("--builtin", "random_spd", "--n", "5", "--seed", "-1"), "seed"),
        (("--builtin", "random_spd", "--n", "5", "--b", "random", "--b-seed", "-1"), "b_seed"),
        (("--matrix", "one.mtx", "--b", "random", "--b-seed", "-1"), "b_seed")],
        ids=["seed", "b-seed", "matrix-b-seed"])
    def test_negative_seed_is_an_error(self, tmp_path, monkeypatch, capsys, flags, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one.mtx").write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 2\n")
        code = run_cli("verify", *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {name} must be nonnegative, got -1\n"

    def test_overflowing_known_solution_is_an_error(self, capsys):
        # -A x* overflows; the error comes with no NumPy warning first
        code = run_cli("verify", "--builtin", "random_spd", "--n", "2",
                       "--known-solution", "1e308,1e308")
        assert code == 1
        assert capsys.readouterr().err == "error: b contains non-finite entries\n"

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("solve", "--builtin", "hilbert", "--n", "2", "--frobnicate")

    def test_determinism_modulo_timestamp(self, tmp_path):
        args = ("solve", "--builtin", "random_spd", "--n", "20", "--cond", "10",
                "--dist", "linear", "--seed", "7", "--b", "random",
                "--b-seed", "3", "--no-timestamp")
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert run_cli(*args, "--output", str(first)) == 0
        assert run_cli(*args, "--output", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()


class TestVerify:
    def test_worked_instance_passes(self, capsys):
        code = run_cli("verify", "--builtin", "diagonal", "--eigs", "2,1",
                       "--known-solution", "1,1")
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out

    def test_report_file(self, tmp_path):
        report = tmp_path / "report.json"
        code = run_cli("verify", "--builtin", "diagonal", "--eigs", "2,1",
                       "--known-solution", "1,1", "--output", str(report))
        assert code == 0
        data = json.loads(report.read_text())
        assert data["verification"]["passed"] is True
        checks = {c["check"] for c in data["verification"]["checks"]}
        assert "gradient_conjugacy_far" in checks

    def test_ill_conditioned_fails_with_exit_4(self, capsys):
        code = run_cli("verify", "--builtin", "hilbert", "--n", "12")
        out = capsys.readouterr().out
        assert code == 4
        assert "relaxed" in out
        assert "overall: FAIL" in out

    def test_both_stepsize_rules_verify(self, capsys):
        for rule in ("exact", "orthogonal"):
            code = run_cli("verify", "--builtin", "random_spd", "--n", "20",
                           "--cond", "10", "--dist", "linear", "--seed", "1",
                           "--stepsize", rule)
            assert code == 0, capsys.readouterr().out

    def test_summary_without_output_builds_no_document(self, tmp_path, capsys,
                                                        monkeypatch):
        argv = ("verify", "--builtin", "random_spd", "--n", "20", "--cond", "10",
                "--dist", "linear", "--seed", "3")
        out = tmp_path / "report.json"
        assert run_cli(*argv, "--output", str(out)) == 0
        written = capsys.readouterr().out.splitlines()

        def refuse(*args, **kwargs):
            raise AssertionError("report document built without --output")

        monkeypatch.setattr(TraceDocument, "from_solve", refuse)
        assert run_cli(*argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert written == [f"report written to {out}", *plain]


class TestCompare:
    def test_seeded_random_problem_within_tolerance(self, capsys):
        code = run_cli("compare", "--builtin", "random_spd", "--n", "50",
                       "--cond", "100", "--seed", "7")
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative stepsize discrepancy" in out

    def test_tolerance_flag_controls_exit(self, capsys):
        code = run_cli("compare", "--builtin", "random_spd", "--n", "30",
                       "--cond", "50", "--seed", "2", "--tolerance", "1e-30")
        assert code == 4


    def test_optimal_start_takes_no_iterations(self, capsys):
        # b = -A x* with x* = 0 is zero, so g_0 = 0 at the default x_0 = 0
        code = run_cli("compare", "--builtin", "diagonal", "--eigs", "2,1",
                       "--known-solution", "0,0")
        assert code == 0
        assert capsys.readouterr().out == "no iterations taken; nothing to compare\n"


class TestGenerate:
    def test_files_roundtrip(self, tmp_path):
        mtx = tmp_path / "problem.mtx"
        bvec = tmp_path / "problem.b.txt"
        code = run_cli("generate", "--builtin", "laplacian1d", "--n", "6",
                       "--out-matrix", str(mtx), "--out-b", str(bvec))
        assert code == 0
        a = read_matrix_market(mtx)
        b = read_vector_file(bvec)
        assert a.n == 6
        np.testing.assert_array_equal(b, np.ones(6))

    def test_generated_problem_solves(self, tmp_path, capsys):
        mtx = tmp_path / "gen.mtx"
        bvec = tmp_path / "gen.b.txt"
        run_cli("generate", "--builtin", "random_spd", "--n", "15",
                "--cond", "20", "--seed", "9", "--b", "random",
                "--out-matrix", str(mtx), "--out-b", str(bvec))
        code = run_cli("solve", "--matrix", str(mtx), "--b-file", str(bvec))
        assert code == 0

    def test_generate_requires_builtin(self, tmp_path, capsys):
        mtx = tmp_path / "x.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "1 1 1\n1 1 2.0\n")
        code = run_cli("generate", "--matrix", str(mtx),
                       "--out-matrix", str(tmp_path / "o.mtx"),
                       "--out-b", str(tmp_path / "o.b"))
        assert code == 1


def test_import_leaves_costly_scipy_modules_unloaded():
    # each is loaded by the command that needs it, not at start-up
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, cgkit; print([m for m in ('scipy.io', 'scipy.sparse.csgraph', "
            "'scipy.sparse.linalg', 'scipy.sparse', 'scipy.linalg') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_path_problems_never_load_the_graph_ordering():
    # a tridiagonal problem is factored in its own order, so building one
    # needs no reverse Cuthill-McKee from scipy.sparse.csgraph
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, cgkit; "
            "cgkit.builtin_problem(cgkit.BuiltinProblemSpec(family='laplacian1d', n=1000)); "
            "print('scipy.sparse.csgraph' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_dense_problems_never_load_scipy(tmp_path):
    # a dense problem is certified, solved for its minimizer, run and
    # verified with NumPy alone: no scipy module is loaded, in the library
    # or in the CLI's verify
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    scipy_modules = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"
    library = (
        "import sys, cgkit; "
        "spec = cgkit.BuiltinProblemSpec(family='random_spd', n=50, b_mode='random', "
        "spectrum=cgkit.SpectrumSpec(lam_min=1.0, lam_max=10.0, distribution='linear')); "
        "p = cgkit.builtin_problem(spec); _, trace = cgkit.solve(p); "
        "assert cgkit.run_all_checks(trace, p).passed; "
        f"print({scipy_modules})")
    # what `python -m cgkit verify ...` runs, short of its exit
    cli = ("import sys; from cgkit.cli import main; "
           "code = main(['verify', '--builtin', 'random_spd', '--n', '50', '--cond', '10', "
           "'--dist', 'linear', '--b', 'random', '--output', 'v.json']); "
           f"print(code, {scipy_modules})")
    for code, printed in ((library, "[]\n"), (cli, "0 []\n")):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.endswith(printed)
    assert json.loads((tmp_path / "v.json").read_text())["verification"]["passed"]


def test_benchmark_imports_only_public_names():
    # the benchmark imports these names from the package; deleting one
    # breaks it, and it is changed only on its own
    import cgkit

    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "cgkit"
                for alias in node.names]
    assert imported
    assert sorted(set(imported) - set(cgkit.__all__)) == []
    assert [name for name in cgkit.__all__ if not hasattr(cgkit, name)] == []


def test_each_public_name_is_declared_once():
    import cgkit
    from cgkit import cg, errors, linalg, problems_io, verify

    modules = (errors, linalg, cg, verify, problems_io)
    declared = [name for module in modules for name in getattr(module, "__all__", ())]
    assert len(set(cgkit.__all__)) == len(cgkit.__all__)
    assert sorted(cgkit.__all__) == sorted([*declared, "__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(cgkit, name) is getattr(module, name)


def test_python_dash_m_runs_without_install():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-m", "cgkit", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: cgkit")


class TestOneLinearTerm:
    """Each source of b that would be ignored is an error, and the check
    comes before any file is read."""

    @pytest.fixture
    def files(self, tmp_path):
        mtx = tmp_path / "a.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "2 2 2\n1 1 2.0\n2 2 1.0\n")
        bfile = tmp_path / "b.txt"
        bfile.write_text("-2\n-1\n")
        return str(mtx), str(bfile)

    @pytest.mark.parametrize("command", ["solve", "verify", "compare"])
    def test_b_file_with_builtin(self, command, capsys):
        code = run_cli(command, "--builtin", "laplacian1d", "--n", "5",
                       "--b-file", "/nonexistent/b.txt")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "--b-file works with --matrix" in err

    @pytest.mark.parametrize("extra", [("--b", "random"), ("--b", "ones"),
                                       ("--known-solution", "1,1")],
                             ids=["b-random", "b-ones", "known-solution"])
    def test_b_file_with_another_linear_term(self, files, extra, capsys):
        mtx, bfile = files
        code = run_cli("solve", "--matrix", mtx, "--b-file", bfile, *extra)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "at most one linear term" in err

    @pytest.mark.parametrize("mode", ["ones", "random"])
    def test_b_mode_with_known_solution(self, mode, capsys):
        code = run_cli("solve", "--builtin", "diagonal", "--eigs", "2,1",
                       "--b", mode, "--known-solution", "1,1")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "at most one linear term" in err

    def test_one_linear_term_each_still_works(self, files, capsys):
        mtx, bfile = files
        assert run_cli("solve", "--matrix", mtx, "--b-file", bfile) == 0
        assert run_cli("solve", "--matrix", mtx, "--b", "random") == 0
        assert run_cli("solve", "--matrix", mtx, "--known-solution", "1,2") == 0
        assert run_cli("solve", "--builtin", "laplacian1d", "--n", "4", "--b", "ones") == 0


def test_generate_refuses_a_matrix_source_before_reading_it(tmp_path, capsys):
    code = run_cli("generate", "--matrix", "/nonexistent/a.mtx",
                   "--out-matrix", str(tmp_path / "o.mtx"),
                   "--out-b", str(tmp_path / "o.b"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "generate works with --builtin sources" in err
    assert not (tmp_path / "o.mtx").exists()


class TestUnreadProblemOptions:
    """A problem option the chosen source does not read is an error, not
    dropped."""

    @pytest.fixture
    def mtx(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 2\n1 1 2.0\n2 2 1.0\n")
        return str(path)

    @pytest.mark.parametrize("source, options, message", [
        (("--builtin", "laplacian1d", "--n", "5"), ("--eigs", "1,2"),
         "--eigs works with --builtin diagonal"),
        (("--builtin", "random_spd", "--n", "5"), ("--eigs", "1,2"),
         "--eigs works with --builtin diagonal"),
        (("--builtin", "laplacian1d", "--n", "5"), ("--cond", "1e6"),
         "--cond works with --builtin random_spd"),
        (("--builtin", "hilbert", "--n", "5"), ("--dist", "linear"),
         "--dist works with --builtin random_spd"),
        (("--builtin", "diagonal", "--eigs", "2,1"), ("--clusters", "2"),
         "--clusters works with --builtin random_spd"),
        (("--builtin", "laplacian1d", "--n", "5"), ("--seed", "3"),
         "--seed works with --builtin random_spd"),
        (("--builtin", "random_spd", "--n", "5"), ("--clusters", "3"),
         "--clusters works with --dist clustered"),
        (("--builtin", "random_spd", "--n", "5", "--dist", "linear"), ("--clusters", "3"),
         "--clusters works with --dist clustered"),
        (("--builtin", "laplacian1d", "--n", "5"), ("--b-seed", "2"),
         "--b-seed works with --b random"),
        (("--builtin", "laplacian1d", "--n", "5", "--b", "ones"), ("--b-seed", "2"),
         "--b-seed works with --b random"),
        (("--builtin", "diagonal", "--eigs", "2,1"), ("--known-solution", "1,1",
                                                      "--b-seed", "2"),
         "--b-seed works with --b random"),
        ("mtx", ("--n", "3"), "--n works with --builtin sources"),
        ("mtx", ("--eigs", "2,1"), "--eigs works with --builtin diagonal"),
        ("mtx", ("--cond", "5"), "--cond works with --builtin random_spd"),
        ("mtx", ("--dist", "linear"), "--dist works with --builtin random_spd"),
        ("mtx", ("--clusters", "2"), "--clusters works with --builtin random_spd"),
        ("mtx", ("--seed", "1"), "--seed works with --builtin random_spd"),
        ("mtx", ("--b-seed", "1"), "--b-seed works with --b random"),
    ], ids=["laplacian1d-eigs", "random_spd-eigs", "laplacian1d-cond", "hilbert-dist",
            "diagonal-clusters", "laplacian1d-seed", "clusters-default-dist",
            "clusters-linear-dist", "b-seed-default-b", "b-seed-b-ones",
            "b-seed-known-solution", "matrix-n", "matrix-eigs", "matrix-cond",
            "matrix-dist", "matrix-clusters", "matrix-seed", "matrix-b-seed"])
    def test_refused(self, mtx, capsys, source, options, message):
        if source == "mtx":
            source = ("--matrix", mtx)
        code = run_cli("solve", *source, *options)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command, options, message", [
        ("solve", ("--include-vectors",), "--include-vectors works with --output"),
        ("solve", ("--format", "structured"), "--format works with --output"),
        ("solve", ("--no-timestamp",), "--no-timestamp works with --output"),
        ("solve", ("--include-vectors", "--format", "tabular", "--output", "t.csv"),
         "--include-vectors works with --format structured"),
        ("verify", ("--include-vectors",), "--include-vectors works with --output"),
        ("verify", ("--no-timestamp",), "--no-timestamp works with --output"),
    ], ids=["solve-vectors", "solve-format", "solve-no-timestamp", "solve-vectors-tabular",
            "verify-vectors", "verify-no-timestamp"])
    def test_document_options_refused(self, tmp_path, monkeypatch, capsys, command,
                                      options, message):
        monkeypatch.chdir(tmp_path)
        code = run_cli(command, "--builtin", "laplacian1d", "--n", "5", *options)
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_each_option_of_the_table_is_read_where_it_is_accepted(self):
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        documents = {"--include-vectors": {"solve", "verify"},
                     "--no-timestamp": {"solve", "verify"}, "--format": {"solve"}}
        for flag, _, _ in cli._WORKS_WITH:
            # the loop reads the option under this name
            dest = flag[2:].replace("-", "_")
            accepting = {name for name, parser in commands.items()
                         for action in parser._actions
                         if flag in action.option_strings and action.dest == dest}
            assert accepting == documents.get(flag, set(commands)), flag

    def test_options_the_source_reads_still_work(self, mtx):
        assert run_cli("solve", "--matrix", mtx, "--b", "random", "--b-seed", "3") == 0
        assert run_cli("solve", "--builtin", "random_spd", "--n", "10", "--dist",
                       "clustered", "--clusters", "3", "--seed", "2") == 0
        assert run_cli("solve", "--builtin", "diagonal", "--n", "2", "--eigs", "2,1") == 0

    @pytest.mark.parametrize("source, defaults", [
        (("--builtin", "random_spd", "--n", "20", "--b", "random"),
         ("--dist", "loguniform", "--seed", "0", "--b-seed", "0")),
        (("--builtin", "random_spd", "--n", "20", "--dist", "clustered"),
         ("--clusters", "2")),
        ("mtx", ("--b-seed", "0")),
    ], ids=["random-spd", "clustered", "matrix"])
    def test_defaults_given_write_the_same_bytes(self, tmp_path, mtx, source, defaults):
        if source == "mtx":
            source = ("--matrix", mtx, "--b", "random")
        written = []
        for extra in ((), defaults):
            out = tmp_path / f"trace{len(written)}.json"
            assert run_cli("solve", *source, *extra, "--output", str(out),
                           "--no-timestamp") == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


@pytest.mark.parametrize("command", ["solve", "verify", "compare", "generate"])
@pytest.mark.parametrize("source, message", [
    (("--builtin", "laplacian1d"), "--builtin laplacian1d requires --n"),
    (("--builtin", "hilbert"), "--builtin hilbert requires --n"),
    (("--builtin", "random_spd", "--cond", "10"), "--builtin random_spd requires --n"),
    (("--builtin", "diagonal"), "--builtin diagonal requires --eigs"),
], ids=["laplacian1d", "hilbert", "random_spd", "diagonal"])
def test_builtin_without_its_size_is_an_error(tmp_path, capsys, command, source, message):
    outputs = (("--out-matrix", str(tmp_path / "o.mtx"), "--out-b", str(tmp_path / "o.b"))
               if command == "generate" else ())
    code = run_cli(command, *source, *outputs)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (("--builtin", "diagonal", "--eigs", "1,nan"),
     "eigenvalues must be finite and strictly positive"),
    (("--builtin", "diagonal", "--eigs", "1,inf"),
     "eigenvalues must be finite and strictly positive"),
    (("--builtin", "laplacian1d", "--n", "2", "--known-solution", "1,nan"),
     "known_solution entries must be finite"),
    (("--builtin", "diagonal", "--eigs", "1,2", "--known-solution=-inf,1"),
     "known_solution entries must be finite"),
], ids=["eigs-nan", "eigs-inf", "known-solution-nan", "known-solution-minus-inf"])
def test_non_finite_builtin_numbers_are_an_error(capsys, flags, message):
    code = run_cli("verify", *flags)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (("--builtin", "diagonal", "--eigs", "1,x"),
     "--eigs expects comma-separated numbers: could not convert string to float: 'x'"),
    (("--builtin", "laplacian1d", "--n", "2", "--known-solution", "a,b"),
     "--known-solution expects comma-separated numbers: "
     "could not convert string to float: 'a'"),
    # worded like --check-tol's refusal
    (("--builtin", "laplacian1d", "--n", "2", "--tol", "-1"),
     "grad_tolerance must be nonnegative, got -1.0"),
], ids=["eigs", "known-solution", "tol"])
def test_typed_refusals(capsys, flags, message):
    code = run_cli("verify", *flags)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, text, message", [
    # each field in a vector file's syntax, not in all that float reads
    ("--eigs", "1_0,+2,\u0661", "line 1: malformed number in '1_0'"),
    ("--eigs", "1,+2", "line 2: malformed number in '+2'"),
    ("--eigs", "1,\u0661", "line 2: malformed number in '\u0661'"),
    ("--known-solution", "1_0,1", "line 1: malformed number in '1_0'"),
    # a field that float refuses too is refused in its words, blank ones too
    ("--eigs", "1_0,x", "could not convert string to float: 'x'"),
    ("--eigs", "1,,2", "could not convert string to float: ''"),
    ("--known-solution", "1,", "could not convert string to float: ''"),
], ids=["eigs-underscore", "eigs-plus", "eigs-non-ascii-digit", "known-solution-underscore",
        "float-refuses-too", "eigs-blank", "known-solution-blank"])
def test_number_lists_take_the_vector_file_syntax(capsys, flag, text, message):
    source = ("--eigs", "1,2") if flag == "--known-solution" else ()
    code = run_cli("verify", "--builtin", "diagonal", *source, f"{flag}={text}")
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {flag} expects comma-separated numbers: {message}\n")


def test_number_lists_read_each_accepted_form_as_float_does():
    text = " 1e0,2.,.5,4E-1,-0,1e-320,-2.5E+3,inf,-nan,3 "
    got = cli._parse_floats(text, "--eigs")
    assert np.array(got).tobytes() == np.array([float(v) for v in text.split(",")]).tobytes()
