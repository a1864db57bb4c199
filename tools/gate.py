#!/usr/bin/env python3
"""Bit-identity gate: the --no-timestamp outputs of REF and of the working tree.

    python3 tools/gate.py REF        # e.g. HEAD, main, a commit id

REF's files are extracted with ``git archive`` into a temporary directory,
so the run writes nothing under ``.git``.  Each gate command runs once
under each tree's ``src`` (``python -m cgkit ... --output FILE
--no-timestamp``) from a directory of its own, so that the two runs print
the same text.  A command that names its own output files instead
(``generate``'s ``--out-matrix`` and ``--out-b``, or none for ``compare``)
gets neither option.  The output files, standard output, standard error
and exit codes are compared byte for byte; where an output file differs
and both sides parse as JSON, the first paths at which they differ are
printed too.
Each directory first gets ``A.mtx`` (``grid_general_mtx``), ``P.mtx``
(``shuffled_path_mtx``), ``T.mtx`` (``TINY_MTX``) and ``b.txt``
(``grid_b_txt``), the files that the ``--matrix`` and ``--b-file``
commands read.
Exit status: 0 when every command agrees, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, arguments, outputs): a str names the file that the command writes
# by --output, and the command also gets --no-timestamp; a tuple names the
# files that its own arguments write, and the command gets neither
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
    # the tabular writer, which has no column for vectors
    ("solve-tabular", ["solve", "--builtin", "laplacian1d", "--n", "300",
                       "--format", "tabular"], "out.csv"),
    ("verify-random-n500-vectors", ["verify", "--builtin", "random_spd", "--n", "500",
                                    "--cond", "100", "--b", "random",
                                    "--include-vectors"], "out.json"),
    ("solve-matrix-general", ["solve", "--matrix", "A.mtx", "--b", "random",
                              "--include-vectors"], "out.json"),
    # its finite-termination residual reads the minimizer of the banded factor
    ("verify-matrix-general", ["verify", "--matrix", "A.mtx", "--b", "random"], "out.json"),
    # above n = 10000, where OpenBLAS splits ddot over its threads; its
    # document replays K recomputed CSR products
    ("verify-laplacian-n20000", ["verify", "--builtin", "laplacian1d", "--n", "20000",
                                 "--b", "random", "--max-iters", "60"], "out.json"),
    # a path whose own order is not the narrowest: reverse Cuthill-McKee
    # recovers its band, and the minimizer comes back through the ordering
    ("verify-matrix-shuffled-path", ["verify", "--matrix", "P.mtx", "--b", "random"],
     "out.json"),
    # a vector file of A.mtx's order with comments, a blank line, CRLF line
    # ends and entries in each form the reader takes
    ("solve-matrix-bfile", ["solve", "--matrix", "A.mtx", "--b-file", "b.txt",
                            "--include-vectors"], "out.json"),
    # a dense trace of K = 128 steps, which ends on a replay block edge: at
    # n = 300 a block holds 64 rows
    ("verify-random-n300-edge", ["verify", "--builtin", "random_spd", "--n", "300",
                                 "--cond", "1e4", "--b", "random", "--max-iters", "128",
                                 "--include-vectors"], "out.json"),
    # the MatrixMarket coordinate and array writers and the vector writer
    ("generate-laplacian", ["generate", "--builtin", "laplacian1d", "--n", "300",
                            "--out-matrix", "L.mtx", "--out-b", "L_b.txt"],
     ("L.mtx", "L_b.txt")),
    ("generate-random-array", ["generate", "--builtin", "random_spd", "--n", "40",
                               "--cond", "100", "--b", "random", "--mtx-format", "array",
                               "--out-matrix", "R.mtx", "--out-b", "R_b.txt"],
     ("R.mtx", "R_b.txt")),
    # compare writes no file: its printout is its output
    ("compare-random", ["compare", "--builtin", "random_spd", "--n", "200",
                        "--cond", "100", "--b", "random"], ()),
    # the option text, whose choices and defaults are read from the library
    ("help-solve", ["solve", "--help"], ()),
    ("help-generate", ["generate", "--help"], ()),
    # a solve that records no trace: its printout is its output
    ("solve-untraced", ["solve", "--builtin", "laplacian1d", "--n", "200"], ()),
    # the diagonal family, with the linear term b = -A x* of a planted minimizer
    ("verify-diagonal-known", ["verify", "--builtin", "diagonal", "--eigs", "3,1,2,10",
                               "--known-solution", "1,-2,0.5,3"], "out.json"),
    # the orthogonality stepsize and the DY coupling on a clustered spectrum
    ("solve-clustered-orthogonal-dy", ["solve", "--builtin", "random_spd", "--n", "60",
                                       "--cond", "1e3", "--dist", "clustered",
                                       "--clusters", "5", "--stepsize", "orthogonal",
                                       "--beta", "dy"], "out.json"),
    # the benchmark's CLI verify: a dense problem whose minimizer, Ritz
    # extremes and report come from NumPy alone, with no SciPy import
    ("verify-random-n50-linear", ["verify", "--builtin", "random_spd", "--n", "50",
                                  "--cond", "10", "--dist", "linear", "--seed", "0",
                                  "--b", "random", "--b-seed", "0"], "out.json"),
    # the wording of each stepsize's breakdown, at the first step on the 1 x 1
    # matrix [1e-305], whose denominators fall below EPS_DENOMINATOR
    ("solve-breakdown-exact", ["solve", "--matrix", "T.mtx", "--stepsize", "exact"],
     "out.json"),
    ("solve-breakdown-orthogonal", ["solve", "--matrix", "T.mtx", "--stepsize",
                                    "orthogonal"], "out.json"),
    # the refusal of a builtin family without the option that sizes it
    ("solve-builtin-without-n", ["solve", "--builtin", "hilbert"], ()),
    # each number form that a comma-separated list takes, read to its bits
    ("verify-diagonal-number-forms", ["verify", "--builtin", "diagonal", "--eigs",
                                      "1e0,2.,.5,4E-1,3"], "out.json"),
)


# the 1 x 1 matrix [1e-305]: SPD, but every stepsize denominator of its
# first step is below EPS_DENOMINATOR, so each rule breaks down there
TINY_MTX = "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1e-305\n"


def grid_general_mtx() -> str:
    """A 'general' MatrixMarket file of 4.5 I minus the adjacency of a
    3 x 4 grid, diagonally dominant and so SPD.  Each lower entry is
    -1 and its mirror -1 - 1e-13, inside the symmetry tolerance, so the
    reader stores (A + A.T) / 2; the grid's band after reverse Cuthill-McKee
    ordering is wider than a path's."""
    cols = 4
    n = 3 * cols
    lines = []
    for i in range(n):
        lines.append(f"{i + 1} {i + 1} 4.5")
        for j in (i + 1, i + cols):
            if j < n and (j == i + cols or j % cols):
                lines += [f"{j + 1} {i + 1} -1", f"{i + 1} {j + 1} -1.0000000000001"]
    return "\n".join(["%%MatrixMarket matrix coordinate real general",
                      f"{n} {n} {len(lines)}", *lines, ""])


def grid_b_txt() -> str:
    """A vector file of the 12 entries of a ``b`` for ``grid_general_mtx``:
    '#' and '%' comment lines, a blank line and CRLF line ends, with a
    negative zero, a subnormal, and a leading or trailing point."""
    lines = ["# b for A.mtx", "1", "-0", ".5", "5.", "% MatrixMarket-style comment",
             "1e-320", "-2.5E+3", "0.125", "-3", "2.5e2", "", "7", "-1.5e-3", "1e-1"]
    return "\r\n".join([*lines, ""])


def shuffled_path_mtx() -> str:
    """A 'symmetric' MatrixMarket file of tridiag(-1, 2, -1) of order 400,
    its rows and columns permuted by a seeded shuffle."""
    n = 400
    p = list(range(n))
    random.Random(0).shuffle(p)
    lines = [f"{p[i] + 1} {p[i] + 1} 2" for i in range(n)]
    lines += [f"{max(p[i], p[i + 1]) + 1} {min(p[i], p[i + 1]) + 1} -1" for i in range(n - 1)]
    return "\n".join(["%%MatrixMarket matrix coordinate real symmetric",
                      f"{n} {n} {len(lines)}", *lines, ""])


def extract(ref: str, dest: Path) -> None:
    """Write the files of commit ``ref`` into ``dest``, by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run(tree: Path, workdir: Path) -> dict[str, tuple]:
    """Each command's (exit code, stdout, stderr, output files) under
    ``tree``: the bytes of each output file, None for one not written."""
    results = {}
    for name, args, outputs in COMMANDS:
        if isinstance(outputs, str):
            args = [*args, "--output", outputs, "--no-timestamp"]
            outputs = (outputs,)
        cwd = workdir / name
        cwd.mkdir(parents=True)
        (cwd / "A.mtx").write_text(grid_general_mtx())
        (cwd / "P.mtx").write_text(shuffled_path_mtx())
        (cwd / "T.mtx").write_text(TINY_MTX)
        (cwd / "b.txt").write_bytes(grid_b_txt().encode())
        proc = subprocess.run(
            [sys.executable, "-m", "cgkit", *args], cwd=cwd, capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")))
        written = tuple((cwd / output).read_bytes() if (cwd / output).exists() else None
                        for output in outputs)
        results[name] = (proc.returncode, proc.stdout, proc.stderr, written)
    return results


def json_differences(old: bytes | None, new: bytes | None, limit: int = 5) -> list[str]:
    """The first ``limit`` paths, such as ``verification.notes[0]``, of the
    members that differ between two JSON documents; empty when either side
    is not JSON."""
    try:
        docs = json.loads(old), json.loads(new)
    except (TypeError, ValueError):
        return []
    found: list[str] = []

    def walk(a, b, path: str) -> None:
        if len(found) >= limit:
            return
        if isinstance(a, dict) and isinstance(b, dict):
            for key in [*a, *(k for k in b if k not in a)]:
                walk(a.get(key), b.get(key), f"{path}.{key}" if path else key)
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif repr(a) != repr(b):  # repr, so that NaN equals NaN
            found.append(path or "(document)")

    walk(*docs, "")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/gate.py REF", file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="cgkit-gate-") as tmp:
        tmp = Path(tmp)
        extract(ref, tmp / "ref")
        before = run(tmp / "ref", tmp / "runs-ref")
        after = run(ROOT, tmp / "runs-tree")
    fields = ("exit code", "stdout", "stderr", "output files")
    failed = 0
    for name, *_ in COMMANDS:
        differ = [field for field, old, new in zip(fields, before[name], after[name])
                  if old != new]
        size = sum(len(written or b"") for written in after[name][3])
        print(f"{'DIFFER' if differ else 'same  '} {name} (exit {after[name][0]}, "
              f"{size} bytes){': ' + ', '.join(differ) if differ else ''}")
        paths = [path for old, new in zip(before[name][3], after[name][3])
                 for path in json_differences(old, new)] if differ else []
        if paths:
            print(f"       members: {', '.join(paths)}")
        failed += bool(differ)
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands equal to {ref}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
