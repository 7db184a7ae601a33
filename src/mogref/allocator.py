"""glibc heap settings for the processes that train and evaluate.

A training step frees and allocates mid-size arrays (a few hundred KB to a
few MB) every step. With glibc's defaults, freed heap above 128 KB of free
top is handed back to the OS and arrays past the dynamic mmap threshold get
fresh mappings, so the next step faults the same pages in again: thousands
of minor faults and several ms of system CPU per step. Raising the mmap
threshold to 8 MiB and the trim threshold to 256 MiB keeps those pages
mapped and reused.

The settings are process-wide, so importing :mod:`mogref` never applies
them; the CLI's ``train``, ``eval`` and ``sweep``,
``scripts/op_profile.py`` and ``scripts/scene_memory.py`` call
:func:`tune_allocator` once.
"""

from __future__ import annotations

import ctypes

# mallopt parameters from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD_BYTES = 8 << 20
TRIM_THRESHOLD_BYTES = 256 << 20

_applied: bool | None = None  # None until tune_allocator has run


def _mallopt():
    """glibc's ``mallopt``, or None where the C library has none."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no C library to load by name (e.g. Windows)
        return None
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
    return mallopt


def tune_allocator() -> bool:
    """Set the mmap and trim thresholds once; whether both settings took.

    A no-op that returns False where ``mallopt`` is absent. Later calls
    return the first call's result without calling ``mallopt`` again.
    """
    global _applied
    if _applied is None:
        mallopt = _mallopt()
        _applied = mallopt is not None and all(
            mallopt(param, value) == 1
            for param, value in ((M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
                                 (M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)))
    return _applied

