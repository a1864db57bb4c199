"""The repository's tools: ``tools/gate.py`` reads a commit's files with
``git archive``, writes nothing under ``.git``, reads back the files a
command names as its own outputs and names the JSON members at which two
outputs differ; its vector file reads as ``float`` reads each entry."""

import importlib.util
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from cgkit.problems_io import read_vector_file

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git_state() -> list:
    return sorted((str(path), path.stat().st_mtime_ns, path.stat().st_size)
                  for path in (ROOT / ".git").rglob("*"))


@pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                    reason="not a git checkout")
def test_gate_extracts_the_ref_and_leaves_git_unchanged(tmp_path):
    gate = _load_tool("gate")
    before = _git_state()
    gate.extract("HEAD", tmp_path)
    assert (tmp_path / "src" / "cgkit" / "__init__.py").is_file()
    assert _git_state() == before


def test_gate_vector_file_reads_as_floats_of_its_entries():
    text = _load_tool("gate").grid_b_txt()
    entries = [line for line in text.split("\r\n") if line and line[0] not in "#%"]
    got = read_vector_file(io.BytesIO(text.encode()))
    assert "\r\n\r\n" in text and len(entries) == 12
    assert got.tobytes() == np.array([float(e) for e in entries]).tobytes()


def test_gate_names_the_json_members_that_differ():
    gate = _load_tool("gate")
    old = (b'{"verification": {"passed": false, "condition_estimate": 1.6e16,'
           b' "notes": ["relaxed for 1.65e+16", "b"]}, "beta": [NaN, 0.5]}')
    new = (b'{"verification": {"passed": false, "condition_estimate": 1.6e8,'
           b' "notes": ["relaxed for 1.63e+08", "b"]}, "beta": [NaN, 0.5, 0.25]}')
    assert gate.json_differences(old, new) == [
        "verification.condition_estimate", "verification.notes[0]", "beta"]
    assert gate.json_differences(old, new, limit=1) == ["verification.condition_estimate"]
    assert gate.json_differences(old, old) == []
    assert gate.json_differences(b"k,alpha\n0,0.5\n", old) == []
    assert gate.json_differences(None, new) == []


@pytest.mark.parametrize("name, printed, code, stderr", [
    ("help-solve", [b"usage: cgkit solve ", b"--stepsize {exact,orthogonal}",
                    b"--beta {fr,hs,prp,dy}", b"--grad-update {recurrence,explicit}",
                    b"--format {structured,tabular}"], 0, b""),
    ("help-generate", [b"usage: cgkit generate ", b"--dist {loguniform,linear,clustered}",
                       b"(default: loguniform)", b"(default: 2)",
                       b"--mtx-format {coordinate,array}"], 0, b""),
    ("solve-untraced", [b"iterations: 100\ntermination: gradient_below_tolerance\n"], 0, b""),
    ("verify-diagonal-known", [b"report written to out.json\n", b"overall: PASS"], 0, b""),
    ("solve-clustered-orthogonal-dy", [b"trace written to out.json\n"], 0, b""),
    ("solve-breakdown-exact", [b"trace written to out.json\n", b"termination: breakdown\n"],
     3, b"breakdown: exact-stepsize denominator d.Ad = 1.000e-305 is numerically zero "
        b"or negative (iteration 0)\n"),
    ("solve-breakdown-orthogonal", [b"trace written to out.json\n",
                                    b"termination: breakdown\n"],
     3, b"breakdown: orthogonality-stepsize denominator g.Ad = -1.000e-305 is "
        b"numerically zero (iteration 0)\n"),
    ("solve-builtin-without-n", [], 1, b"error: --builtin hilbert requires --n\n"),
    ("verify-diagonal-number-forms", [b"report written to out.json\n", b"overall: PASS"],
     0, b""),
])
def test_gate_commands_of_the_cli_options(tmp_path, monkeypatch, name, printed, code,
                                          stderr):
    gate = _load_tool("gate")
    monkeypatch.setattr(gate, "COMMANDS", [c for c in gate.COMMANDS if c[0] == name])
    (got_code, stdout, got_stderr, written), = gate.run(ROOT, tmp_path).values()
    assert (got_code, got_stderr) == (code, stderr)
    assert [text for text in printed if text not in stdout] == []
    if name == "verify-diagonal-known":  # b = -A x* plants x* = (1, -2, 0.5, 3)
        final = json.loads(written[0])["final"]
        np.testing.assert_allclose(final["x"], [1.0, -2.0, 0.5, 3.0], rtol=1e-13)
    elif name == "solve-clustered-orthogonal-dy":
        config = json.loads(written[0])["metadata"]["config"]
        assert (config["stepsize_rule"], config["beta_rule"]) == ("orthogonal", "dy")
    elif name.startswith("solve-breakdown-"):  # a document of no step
        assert json.loads(written[0])["final"]["iterations"] == 0
    elif name == "verify-diagonal-number-forms":
        problem = json.loads(written[0])["metadata"]["problem"]
        assert problem["eigenvalues"] == [1.0, 2.0, 0.5, 0.4, 3.0]
    else:
        assert written == ()


def test_gate_reads_the_files_a_command_names_as_its_own(tmp_path, monkeypatch):
    gate = _load_tool("gate")
    monkeypatch.setattr(gate, "COMMANDS", [
        c for c in gate.COMMANDS if c[0] in ("generate-laplacian", "compare-random")])
    results = gate.run(ROOT, tmp_path)
    # neither command is given --output, which both would refuse
    code, stdout, stderr, (matrix, b) = results["generate-laplacian"]
    assert (code, stderr) == (0, b"")
    assert stdout == b"matrix written to L.mtx\nb vector written to L_b.txt\n"
    assert matrix.startswith(b"%%MatrixMarket matrix coordinate real symmetric\n300 300 599\n")
    assert b == b"1\n" * 300
    code, stdout, stderr, written = results["compare-random"]
    assert (code, stderr, written) == (0, b"", ())
    assert stdout.endswith(b"the two stepsize formulas agree\n")
