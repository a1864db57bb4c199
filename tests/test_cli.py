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

    def test_breakdown_exit_code(self, tmp_path):
        mtx = tmp_path / "tiny.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "1 1 1\n"
                       "1 1 1e-305\n")
        code = run_cli("solve", "--matrix", str(mtx))
        assert code == 3

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

    def test_missing_file_reports_error(self, capsys):
        code = run_cli("solve", "--matrix", "/nonexistent/a.mtx")
        assert code == 1
        assert "error:" in capsys.readouterr().err

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


def test_python_dash_m_runs_without_install():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-m", "cgkit", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: cgkit")
