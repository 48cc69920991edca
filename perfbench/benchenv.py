"""Process set-up shared by the benchmark's entry scripts.

``bootstrap()`` must run before numpy is imported: it pins the BLAS thread
pools, so that all load comes from the one benchmark process, and it puts
the checkout's ``src/`` first on ``sys.path`` so that the library measured
is the one in this checkout and never an installed copy.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "uniswarm"

# One BLAS thread: the benchmark process is the only source of load.  At
# m=500, one and two OpenBLAS threads gave no steady difference.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingLibrary(RuntimeError):
    """The checkout holds no ``src/uniswarm`` package to measure."""


def bootstrap() -> Path:
    """Pin BLAS threads and make ``import uniswarm`` load ``src/uniswarm``."""
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap() must run before numpy is imported")
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingLibrary(f"no uniswarm package under {SRC}")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for name in _BLAS_ENV:
        os.environ[name] = threads
    sys.path.insert(0, str(SRC))
    import uniswarm

    if Path(uniswarm.__file__).resolve().parent != PACKAGE.resolve():
        raise MissingLibrary(f"uniswarm was imported from {uniswarm.__file__}, not {PACKAGE}")
    return ROOT


def git_revision() -> str:
    """HEAD commit of the checkout; 'unknown' outside a git clone."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the library's source files, which identifies the code
    measured also in a checkout that is not a git clone."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {"git_revision": git_revision(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
