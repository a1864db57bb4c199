"""Run one child process and read its own resource usage.

``os.wait4`` returns the rusage of exactly the child it reaps (with the
children that child reaped itself), so each workload and each CLI command
gets its own peak RSS.  ``RUSAGE_CHILDREN`` would instead give a high-water
mark over every child this process ever had.

A child's peak RSS also counts the memory of the process that forked it,
up to the moment it calls exec.  So a large process starts the commands it
measures through this file run as a small launcher (``run_launched``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    output: str


def run_child(cmd: list[str], *, timeout: float, cwd=None, env=None,
              stderr=subprocess.STDOUT) -> ChildResult:
    """Run ``cmd`` to completion; kill it if it outlives ``timeout`` seconds.

    Standard output (and standard error, unless redirected) is captured.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=stderr, stdin=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       output.decode("utf-8", "replace"))


def run_launched(cmd: list[str], *, timeout: float, cwd=None) -> ChildResult:
    """``run_child`` from a small launcher process: the peak RSS is that of
    ``cmd`` alone, and the wall time excludes the launcher's start-up."""
    outer = run_child([sys.executable, __file__, str(timeout), *cmd],
                      timeout=timeout + 30, cwd=cwd)
    if outer.returncode != 0:
        raise RuntimeError(f"launcher failed: {outer.output[-2000:]}")
    return ChildResult(**json.loads(outer.output.splitlines()[-1]))


if __name__ == "__main__":
    print(json.dumps(asdict(run_child(sys.argv[2:], timeout=float(sys.argv[1])))))
