"""The machine and library versions a result was measured with.

BLAS threads and the garbage collector are left at their defaults, so the
benchmark measures cgkit as users run it; this module only records them.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
from pathlib import Path


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def llc() -> str | None:
    """Size of the highest-level cache of CPU 0, as the kernel reports it."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level and size and (best is None or int(level) >= best[0]):
            best = (int(level), size)
    return f"L{best[0]} {best[1]}" if best else None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, read through ctypes."""
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def collect() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import numba  # noqa: F401  (recorded only: cgkit may use it when present)
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc": llc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba_importable": has_numba,
        "gc_enabled": gc.isenabled(),
    }
