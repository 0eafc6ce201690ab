"""The header every result record carries, and the machine-speed reference.

Thread settings are recorded, never set: the benchmark measures the program
as users run it.

Shared virtual machines change speed under the benchmark: on the 2-vCPU Xeon
VM the bounds were set on, the same workload ran 25% faster or slower from
one minute to the next, and a pure-Python loop flipped between two speeds
every few seconds.  :func:`reference_unit_s` times a fixed unit of work that
belongs to the benchmark, never to the program, between the workload's reps;
its measured time against :data:`REFERENCE_UNIT_NOMINAL_S` says how fast the
machine was running around each rep.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Optional

#: Seconds one reference unit takes on that VM at its usual speed (median of
#: 49 samples).  Wall seconds times ``REFERENCE_UNIT_NOMINAL_S / measured``
#: are seconds at that nominal speed.
REFERENCE_UNIT_NOMINAL_S = 0.009

_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")


def git_revision(root: Path) -> str:
    """``HEAD`` of the checkout, or ``"unknown"`` when it is not a git work tree.

    Without its own ``.git`` the checkout may sit inside another repository,
    whose ``HEAD`` would be wrong, so git is not asked at all.
    """
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    revision = done.stdout.strip()
    return revision if done.returncode == 0 and revision else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount-point match)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _openblas_threads(numpy_module: Any) -> Optional[int]:
    """Thread count the bundled OpenBLAS will use, if it can be asked."""
    libs = Path(numpy_module.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def reference_unit_s(seconds: float = 0.4) -> float:
    """Mean seconds of one reference unit, over units run for about ``seconds``.

    A unit is interpreter work (an integer loop) plus NumPy work (a small
    matrix product through BLAS and an element-wise pass), the two kinds of
    work the workloads do.
    """
    import numpy

    matrix = numpy.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)
    vector = numpy.linspace(0.0, 1.0, 100_000)
    units = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        total = 0
        for i in range(100_000):
            total += i * i
        (matrix @ matrix).sum()
        numpy.exp(vector).sum()
        units += 1
        now = time.perf_counter()
        if now >= deadline:
            return (now - started) / units


def header(root: Path, store_dir: Path) -> Dict[str, Any]:
    """The environment header of one result record."""
    import numpy

    from repro.sinr.backends._kernels import KERNEL_BACKEND

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": KERNEL_BACKEND,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(numpy),
        "thread_env": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
        # The grid executor forks its workers when the start method is unset
        # and fork exists; forked workers inherit the traced run's wrappers.
        "start_method": multiprocessing.get_start_method(allow_none=True),
        "fork_available": "fork" in multiprocessing.get_all_start_methods(),
        "store_filesystem": filesystem_of(store_dir),
    }
