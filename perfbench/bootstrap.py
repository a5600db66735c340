"""Process set-up shared by the benchmark's entry points, and the
environment block every result carries.

``pin_process`` must run before numpy is imported: OpenBLAS reads its
thread count once, when the library loads.
"""

from __future__ import annotations

import glob
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_process() -> None:
    """Pin BLAS to one thread, drop mvsc's environment overrides, and put
    the checkout's ``src/`` first on the import path."""
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    for name in [k for k in os.environ if k.startswith("MVSC_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))


def import_mvsc():
    """Import mvsc from this checkout, and refuse any other copy."""
    import mvsc

    if Path(mvsc.__file__).resolve().parent != SRC / "mvsc":
        raise SystemExit(f"mvsc was imported from {mvsc.__file__}, not from {SRC}")
    return mvsc


def _openblas_threads(package) -> int | None:
    """Thread count reported by the OpenBLAS bundled with a numpy or scipy wheel."""
    import ctypes

    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_numpy": _openblas_threads(numpy),
        "blas_threads_scipy": _openblas_threads(scipy),
        "git_commit": _git_commit(),
    }
