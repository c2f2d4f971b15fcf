"""The sketch hot paths, and which implementation runs them.

The scatter/gather/median loop is the entire ingest and query cost of the
system, so it is worth compiling.  This package holds the two
implementations of the count-sketch primitives and is the only module
that knows which one runs:

* :mod:`repro.sketch.kernels.numpy_ref` — the numpy kernels
  :class:`repro.sketch.CountSketch` calls (sign application and the
  median of tables; hashing, scatter and gather stay inline on the
  sketch and its storage), plus the contract every implementation
  keeps: layout, hash arithmetic and summation order.  The numpy path
  ``CountSketch`` runs is the executable specification.
* :mod:`repro.sketch.kernels.numba_jit` — the count-sketch insert and
  query compiled with numba.  Identical ``(K*R,)`` flat layout,
  identical uint64 hash arithmetic, identical accumulation order, so
  results are bit-identical to the numpy path (the equivalence tests pin
  them against a ``CountSketch`` pinned to numpy, and the conformance
  suite re-runs every sketch kind per backend).  ``insert_and_query`` is
  those two kernel calls.

Which kernels run
-----------------
The platform decides: numba when :mod:`~repro.sketch.kernels.numba_jit`
imports, numpy otherwise.  Nothing overrides it — both paths give
bit-identical results, so there is nothing for a caller to choose.  The
choice is never state either: it enters neither
:func:`repro.sketch.serialization.sketch_to_arrays` nor a
:class:`repro.distributed.ShardSpec`, so snapshots are byte-identical
across hosts and a file written on one host loads on any other.

A host without numba is the normal numpy-only install and stays silent.
Any other import failure — say, a numba build that rejects the installed
numpy — is logged once as a structured ``kernels.numba_unavailable``
warning carrying the exception text, so a host meant to be fast is never
silently slow.
"""

from __future__ import annotations

import numpy as np

from repro.obs.log import get_logger

__all__ = [
    "available_backends",
    "jit_target",
    "numba_available",
    "numba_kernels",
    "numba_version",
    "resolve_backend",
]

_log = get_logger(__name__)

#: Lazy one-shot import state for the compiled module (tests and the
#: kernels bench patch these two to pin either leg deterministically).
_jit_checked = False
_jit_module = None


def numba_kernels():
    """The compiled kernel module, or ``None`` when numba is unavailable.

    The import is attempted once per process.  numba not being installed
    stays silent; any other failure is logged once as
    ``kernels.numba_unavailable`` and also leaves the numpy path in charge.
    """
    global _jit_checked, _jit_module
    if not _jit_checked:
        _jit_checked = True
        try:
            from repro.sketch.kernels import numba_jit
        except Exception as exc:
            if not (isinstance(exc, ModuleNotFoundError) and exc.name == "numba"):
                _log.warning(
                    "kernels.numba_unavailable",
                    error=f"{type(exc).__name__}: {exc}",
                    using="numpy",
                )
        else:
            _jit_module = numba_jit
    return _jit_module


def numba_available() -> bool:
    """Whether the compiled kernels run in this process."""
    return numba_kernels() is not None


def numba_version() -> str | None:
    """The importable numba version string, or ``None``."""
    module = numba_kernels()
    return None if module is None else module.NUMBA_VERSION


def available_backends() -> tuple[str, ...]:
    """Kernel implementations importable in this process, numpy first."""
    if numba_available():
        return ("numpy", "numba")
    return ("numpy",)


def resolve_backend(_requested: str = "auto") -> str:
    """The backend this process runs: ``"numba"`` if importable, else ``"numpy"``.

    The argument is ignored; it is accepted so that existing
    ``resolve_backend("auto")`` calls keep working.
    """
    return "numba" if numba_available() else "numpy"


def jit_target(store):
    """``(module, flat)`` when the compiled kernels can run on ``store``.

    The storage half of the eligibility test: numba importable and
    plain float64 counters — not quantized, not widened, not mmap-backed
    (serving snapshots).  Returns ``None`` otherwise, and the caller takes
    its bit-identical numpy path.
    """
    module = numba_kernels()
    if module is None or store.quantum is not None or store.dtype != np.float64:
        return None
    raw = store.raw
    if isinstance(raw, np.memmap):
        return None
    return module, raw
