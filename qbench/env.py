"""Process environment for the benchmark: thread pinning, source path, record.

Import this module before numpy: it pins every BLAS/OpenMP pool to one
thread through the environment, which the libraries read when they load.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class MissingSource(RuntimeError):
    """The checkout does not hold the qindirect sources next to the benchmark."""


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on sys.path and check it is used.

    The benchmark measures the package as it sits in this checkout; an
    installed copy elsewhere must not be picked up instead.
    """
    if not os.path.isfile(os.path.join(SRC, "qindirect", "__init__.py")):
        raise MissingSource(f"no qindirect package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qindirect
    where = os.path.dirname(os.path.abspath(qindirect.__file__))
    if where != os.path.join(SRC, "qindirect"):
        raise MissingSource(f"qindirect imported from {where}, not from {SRC}")


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qindirect")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(module) -> str:
    try:
        cfg = module.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def record() -> dict:
    """Commit, interpreter, library and machine facts for every output."""
    import numpy
    import scipy
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "processes": "one measuring process, no worker pool; set-up "
                     "interpreters started one at a time",
    }
