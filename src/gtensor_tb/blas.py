"""One OpenBLAS thread while a k-loop runs.

Each k-point costs one small (at most 40x40) ``eigh``.  OpenBLAS runs
it on all cores, and on two cores its second thread spins through
every solve without speeding any of them up: a serial surface burns
twice the CPU time for the same wall time.  :func:`one_blas_thread`
sets every loaded OpenBLAS to one thread while the wrapped call runs
and then puts back the count it found; ``--workers N`` processes are
the way to use N cores.

The thread count is a process-wide setting, so the save/restore is
shared by all threads: the first caller in saves the counts and the
last caller out restores them, and nested or overlapping calls never
leave the process at one thread.  Where there is no ``/proc`` (macOS),
no OpenBLAS (MKL, Accelerate) or no ``openblas_set_num_threads_local``
symbol, the decorator does nothing.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading

_lock = threading.Lock()
_depth = 0
_saved: tuple = ()


@functools.cache
def _openblas_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every loaded OpenBLAS.

    Each setter takes the new count and returns the previous one.  All
    loaded copies are pinned, not the first one listed: with SciPy
    imported, ``/proc/self/maps`` lists SciPy's OpenBLAS before the one
    numpy's ``eigh`` calls.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = dict.fromkeys(
        f[5].strip() for f in fields
        if len(f) == 6 and "openblas" in os.path.basename(f[5]))
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return tuple(setters)


def one_blas_thread(func):
    """Run ``func`` with every loaded OpenBLAS set to one thread."""

    @functools.wraps(func)
    def pinned(*args, **kwargs):
        global _depth, _saved
        setters = _openblas_setters()
        with _lock:
            if _depth == 0:
                _saved = tuple(setter(1) for setter in setters)
            _depth += 1
        try:
            return func(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    for setter, count in zip(setters, _saved):
                        setter(count)

    return pinned
