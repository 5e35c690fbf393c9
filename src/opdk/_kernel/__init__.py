"""Dense mod-p arithmetic kernels.

Two interchangeable implementations: a Cython extension (built at install
time) and a pure Python fallback.  Import-time selection, overridable with
OPDK_PURE_PYTHON=1.  Both expose the same three functions; BACKEND names
the one in use, and benchmarks/run.py records it with every result.
"""

import os

from . import pykernel

if os.environ.get("OPDK_PURE_PYTHON") == "1":
    _impl = pykernel
else:
    try:
        from . import _fastkernel as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = pykernel

BACKEND = _impl.BACKEND
matmul_mod = _impl.matmul_mod
rref_mod = _impl.rref_mod
