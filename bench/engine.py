"""Pins the environment and imports the engine from the checkout's ``src``.

Call :func:`load` before anything imports numpy: the BLAS thread count is
read once, when numpy loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class EngineMissing(RuntimeError):
    pass


def load(root: Path) -> None:
    """Single-threaded BLAS, then ``import blbayes`` from ``root/src`` and
    nowhere else (an installed copy would measure the wrong code)."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = (root / "src").resolve()
    if not (src / "blbayes" / "__init__.py").is_file():
        raise EngineMissing(f"no blbayes package under {src}")
    sys.path.insert(0, str(src))
    import blbayes

    if Path(blbayes.__file__).resolve().parent != src / "blbayes":
        raise EngineMissing(f"blbayes was imported from {blbayes.__file__}, not {src}")


def versions() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
