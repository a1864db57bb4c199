"""The repository's tools: ``tools/gate.py`` reads a commit's files with
``git archive`` and writes nothing under ``.git``."""

import importlib.util
import shutil
from pathlib import Path

import pytest

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
