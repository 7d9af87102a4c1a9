"""Kernel backend selection.

The hot loops (simplex pivoting, placement sampling) exist twice: a
compiled Cython extension and a pure-Python reference.  Both implement
the same exact-rational algorithms and return identical results; the
compiled one is merely faster.  Selection happens once at import:

  * ``DELGRAPHS_BACKEND=python`` forces the pure kernels,
  * ``DELGRAPHS_BACKEND=compiled`` requires the extension (ImportError
    if it is missing),
  * otherwise the extension is used when importable, else the pure
    kernels, silently; ``backend_name()`` says which one runs.
"""

from __future__ import annotations

import os

_requested = os.environ.get("DELGRAPHS_BACKEND", "").strip().lower()

if _requested == "python":
    from . import _pure as kernel
elif _requested == "compiled":
    from . import _speedups as kernel  # type: ignore[no-redef]
else:
    try:
        from . import _speedups as kernel  # type: ignore[no-redef]
    except ImportError:
        from . import _pure as kernel  # type: ignore[no-redef]

solve_slack_lp = kernel.solve_slack_lp
sample_pair_search = kernel.sample_pair_search


def backend_name() -> str:
    return kernel.BACKEND_NAME
