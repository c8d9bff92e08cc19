"""Process set-up shared by the benchmark and its set-up probe.

Nothing here imports numpy, so the thread pins are in place before the
first BLAS library is loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(RuntimeError):
    """The program under test cannot be found or set up."""


def pin_environment(env=os.environ) -> None:
    """One BLAS thread, and the library's default (validating) mode."""
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env.pop("SJK_FAST", None)


def import_sjkit():
    """Import sjkit from the checkout's own source tree, never from elsewhere."""
    if not (SRC / "sjkit" / "__init__.py").is_file():
        raise SetupError(f"no sjkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sjkit
    import sjkit.serialize  # not imported by the package itself

    if SRC.resolve() not in Path(sjkit.__file__).resolve().parents:
        raise SetupError(f"sjkit was imported from {sjkit.__file__}, not from {SRC}")
    fast = getattr(sjkit.numkit, "fast_mode", None)
    if fast is not None and fast():
        raise SetupError("sjkit validation is switched off")
    return sjkit


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": seed,
    }
