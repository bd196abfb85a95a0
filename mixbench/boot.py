"""Import set-up shared by the benchmark's entry points.

The benchmark measures the ``mixrec`` source of the checkout it lives in,
never an installed copy, and pins the BLAS/OpenMP pools to one thread so
that runs on a shared machine do not contend with themselves.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"


def start() -> None:
    """Pin thread pools and put the checkout's ``src`` first on the path.

    Call before anything imports numpy. Exits with status 2 when the
    checkout holds no ``mixrec`` source.
    """
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    src = CHECKOUT / "src"
    if not (src / "mixrec" / "__init__.py").is_file():
        sys.exit(f"no mixrec source under {src}; run the benchmark from a full checkout")
    sys.path.insert(0, str(src))
    import mixrec

    if Path(mixrec.__file__).resolve().parent != (src / "mixrec").resolve():
        sys.exit(f"imported mixrec from {mixrec.__file__}, not from {src}")


def thread_settings() -> dict[str, str]:
    return {k: os.environ.get(k, "") for k in THREAD_VARS}
