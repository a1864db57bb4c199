#!/usr/bin/env python3
"""Bit-identity gate: the --no-timestamp outputs of REF and of the working tree.

    python3 tools/gate.py REF        # e.g. HEAD, main, a commit id

REF is checked out into a temporary ``git worktree``.  Each gate command
runs once under each tree's ``src`` (``python -m cgkit ... --output FILE
--no-timestamp``) from a directory of its own, so that the two runs print
the same text.  The output files, standard output, standard error and exit
codes are compared byte for byte.  The worktree is removed afterwards.
Exit status: 0 when every command agrees, 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, arguments, output file); every command also gets --output and
# --no-timestamp
COMMANDS = (
    ("verify-random-n200", ["verify", "--builtin", "random_spd", "--n", "200",
                            "--cond", "100", "--dist", "loguniform"], "out.json"),
    ("verify-explicit-hs", ["verify", "--builtin", "random_spd", "--n", "100",
                            "--cond", "50", "--grad-update", "explicit", "--beta", "hs",
                            "--include-vectors"], "out.json"),
    ("verify-hilbert", ["verify", "--builtin", "hilbert", "--n", "12"], "out.json"),
    ("verify-laplacian-n3000", ["verify", "--builtin", "laplacian1d", "--n", "3000"],
     "out.json"),
    ("solve-vectors-json", ["solve", "--builtin", "laplacian1d", "--n", "300",
                            "--include-vectors"], "out.json"),
    ("solve-vectors-tabular", ["solve", "--builtin", "laplacian1d", "--n", "300",
                               "--include-vectors", "--format", "tabular"], "out.csv"),
    ("verify-random-n500-vectors", ["verify", "--builtin", "random_spd", "--n", "500",
                                    "--cond", "100", "--b", "random",
                                    "--include-vectors"], "out.json"),
)


def run(tree: Path, workdir: Path) -> dict[str, tuple]:
    """Each command's (exit code, stdout, stderr, output bytes) under ``tree``."""
    results = {}
    for name, args, output in COMMANDS:
        cwd = workdir / name
        cwd.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "cgkit", *args, "--output", output, "--no-timestamp"],
            cwd=cwd, capture_output=True, env=dict(os.environ, PYTHONPATH=str(tree / "src")))
        written = (cwd / output).read_bytes() if (cwd / output).exists() else None
        results[name] = (proc.returncode, proc.stdout, proc.stderr, written)
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/gate.py REF", file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="cgkit-gate-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "ref"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(checkout), ref], check=True)
        try:
            before = run(checkout, tmp / "runs-ref")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(checkout)], check=True)
        after = run(ROOT, tmp / "runs-tree")
    fields = ("exit code", "stdout", "stderr", "output file")
    failed = 0
    for name, *_ in COMMANDS:
        differ = [field for field, old, new in zip(fields, before[name], after[name])
                  if old != new]
        size = len(after[name][3] or b"")
        print(f"{'DIFFER' if differ else 'same  '} {name} (exit {after[name][0]}, "
              f"{size} bytes){': ' + ', '.join(differ) if differ else ''}")
        failed += bool(differ)
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands equal to {ref}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
