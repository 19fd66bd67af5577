"""numpy's OpenBLAS, reached through ctypes: thread pinning and a subset solve.

Each k-point costs one small (at most 40x40) ``eigh``.  A full
``np.linalg.eigh`` of a 40x40 H(k) (Si and Ge band tables, g-lines and
g_tot scans) runs on all cores, and on two cores its second thread
spins through every solve without speeding any of them up: such a job
burns twice the CPU time for the same wall time (README "Threads" has
the numbers).  ZHEEVR window solves and 16x16 full solves start no
second thread.  :func:`one_blas_thread`
sets every loaded OpenBLAS to one thread while the wrapped call runs
and then puts back the count it found; ``--workers N`` processes are
the way to use N cores.

The thread count is a process-wide setting, so the save/restore is
shared by all threads: the first caller in saves the counts and the
last caller out restores them, and nested or overlapping calls never
leave the process at one thread.  Where there is no ``/proc`` (macOS),
no OpenBLAS (MKL, Accelerate) or no ``openblas_set_num_threads_local``
symbol, the decorator does nothing.

g_S scans and entropy tables read only a pair and its neighbours in the
spectrum (whole Kramers doublets where every band is degenerate, see
:func:`~gtensor_tb.bands.pair_window`).
:func:`eigh_window` computes just those eigenpairs with LAPACK's ZHEEVR
(bisection and inverse iteration for an index range), called from the
OpenBLAS numpy itself is linked against, so no SciPy is loaded.  The
whole spectrum, or a window where that build is absent, is sliced from
a full ``np.linalg.eigh``.

A surface makes thousands of these window solves, each about 110-125
us of LAPACK for six of the 40 bands (a window that ends inside a
degenerate doublet costs about 10 us more).  Reading an array's address
through ``ndarray.ctypes.data`` costs about 2 us and a call passes seven
addresses, so each thread keeps one ZHEEVR workspace per ``(n, count)``:
the six output and scratch arrays, their addresses and the argument tail
built from them (:func:`_workspace`).  Those arguments, and the ones no
call changes, are converted to ctypes once, which saves about 1.5 us of
argument conversion per call.  The matrix's own address comes from a
ctypes view of its buffer.  An entry holds the arrays themselves,
not only their addresses: the address of a freed array points into
memory the allocator hands out again, and LAPACK would then write over
the heap.  The workspace is per thread because ZHEEVR writes into it,
and the energies and vectors returned are fresh copies, so no result
aliases it.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading

import numpy as np

_lock = threading.Lock()
_depth = 0
_saved: tuple = ()

_COL_MAJOR = 102            # LAPACK_COL_MAJOR in lapacke.h
_INT = ctypes.c_int64       # numpy's OpenBLAS is an ILP64 build
_PTR = ctypes.c_void_p
# ZHEEVR arguments that no call changes, converted to ctypes once:
# layout, jobz (vectors), range (index range), uplo; vl, vu and abstol
_MODE = (ctypes.c_int(_COL_MAJOR), ctypes.c_char(b"V"), ctypes.c_char(b"I"),
         ctypes.c_char(b"L"))
_ZERO = ctypes.c_double(0.0)


@functools.cache
def _openblas_libraries() -> tuple:
    """Every OpenBLAS mapped into this process, as ``ctypes.CDLL``.

    Listed in ``/proc/self/maps`` order; with SciPy imported, SciPy's
    OpenBLAS comes before the one numpy calls.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = dict.fromkeys(
        f[5].strip() for f in fields
        if len(f) == 6 and "openblas" in os.path.basename(f[5]))
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libraries)


@functools.cache
def _openblas_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every loaded OpenBLAS.

    Each setter takes the new count and returns the previous one.  All
    loaded copies are pinned, not the first one listed, so the one
    numpy's ``eigh`` calls is among them.
    """
    setters = []
    for library in _openblas_libraries():
        try:
            setter = library.openblas_set_num_threads_local
        except AttributeError:
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@functools.cache
def _lapacke_zheevr():
    """``LAPACKE_zheevr_work`` with 64-bit integers, or None if not loaded.

    Only numpy's own OpenBLAS wheel exports it, under the symbol
    ``scipy_LAPACKE_zheevr_work64_``; SciPy's OpenBLAS uses 32-bit
    integers and another name, so it is never picked by mistake.  The
    ``_work`` entry point takes the caller's workspace, see
    :func:`eigh_window`.
    """
    for library in _openblas_libraries():
        try:
            zheevr = library.scipy_LAPACKE_zheevr_work64_
        except AttributeError:
            continue
        zheevr.argtypes = [
            ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,
            _INT, _PTR, _INT,                       # n, a, lda
            ctypes.c_double, ctypes.c_double,       # vl, vu
            _INT, _INT, ctypes.c_double,            # il, iu, abstol
            ctypes.POINTER(_INT), _PTR,             # m, w
            _PTR, _INT, _PTR,                       # z, ldz, isuppz
            _PTR, _INT, _PTR, _INT, _PTR, _INT]     # work, rwork, iwork
        zheevr.restype = _INT
        return zheevr
    return None


class _Workspaces(threading.local):
    """One thread's ZHEEVR workspaces, keyed by ``(n, count)``."""

    def __init__(self):
        self.by_shape = {}


_workspaces = _Workspaces()


def _workspace(n: int, count: int) -> tuple:
    """This thread's ZHEEVR arrays for ``count`` eigenpairs of an n x n matrix.

    Returns ``(energies, z, found, order, tail, arrays)``: ``order`` is
    ``n`` as a ctypes integer, ``tail`` every argument after ``abstol``,
    with ``found`` by reference and the addresses of the six arrays, all
    converted to ctypes once, and ``arrays`` keeps those arrays alive for
    as long as the addresses are in use.
    """
    ws = _workspaces.by_shape.get((n, count))
    if ws is None:
        energies = np.empty(n)
        z = np.empty((count, n), dtype=complex)  # column-major (n, count)
        isuppz = np.empty(2 * count, dtype=np.int64)
        # the smallest workspace ZHEEVR accepts: it selects the unblocked
        # tridiagonal reduction, about 10% faster at n = 40 than the
        # blocked one an optimal-size workspace selects
        work = np.empty(2 * n, dtype=complex)
        rwork = np.empty(24 * n)
        iwork = np.empty(10 * n, dtype=np.int64)
        found = _INT()
        order = _INT(n)
        tail = (ctypes.byref(found), _PTR(energies.ctypes.data),
                _PTR(z.ctypes.data), order, _PTR(isuppz.ctypes.data),
                _PTR(work.ctypes.data), _INT(work.size),
                _PTR(rwork.ctypes.data), _INT(rwork.size),
                _PTR(iwork.ctypes.data), _INT(iwork.size))
        ws = (energies, z, found, order, tail, (isuppz, work, rwork, iwork))
        _workspaces.by_shape[(n, count)] = ws
    return ws


def eigh_window(h: np.ndarray, lo: int, hi: int) -> tuple:
    """Eigenpairs ``lo..hi`` (inclusive) of the Hermitian matrix ``h``.

    Returns ``(energies, states)`` like ``np.linalg.eigh(h)`` sliced to
    ``[lo:hi + 1]``: ascending energies and the eigenvectors as the
    columns of an ``(n, hi - lo + 1)`` array.  ``h`` must be a C-ordered
    complex128 square matrix with both triangles filled, and it is
    overwritten.  LAPACK reads the C-ordered array as its transpose,
    conj(h), which has the same eigenvalues and conjugate eigenvectors,
    so the vectors are conjugated on return; ``np.linalg.eigh`` solves
    the whole spectrum, and any window where ZHEEVR is absent.  Raises
    ``ValueError`` for a bad window or array before any foreign call,
    and ``np.linalg.LinAlgError`` if LAPACK fails or finds fewer eigenvalues.
    """
    if not (isinstance(h, np.ndarray) and h.dtype == np.complex128
            and h.ndim == 2 and h.shape[0] == h.shape[1]
            and h.flags.c_contiguous and h.flags.writeable):
        raise ValueError("eigh_window needs a writeable C-ordered "
                         "complex128 square matrix")
    n = h.shape[0]
    integer = (int, np.integer)
    if not (isinstance(lo, integer) and isinstance(hi, integer)
            and 0 <= lo <= hi < n):
        raise ValueError(f"band window ({lo}, {hi}) is not within 0..{n - 1}")
    count = hi - lo + 1
    zheevr = None if count == n else _lapacke_zheevr()
    if zheevr is None:
        energies, states = np.linalg.eigh(h)
        return energies[lo:hi + 1], states[:, lo:hi + 1]
    energies, z, found, order, tail, _ = _workspace(n, count)
    # a ctypes view of h's buffer passes its address for a quarter of
    # the cost of h.ctypes.data, and keeps h alive through the call
    info = zheevr(*_MODE, order, ctypes.byref(ctypes.c_char.from_buffer(h)),
                  order, _ZERO, _ZERO, lo + 1, hi + 1, _ZERO, *tail)
    if info != 0 or found.value != count:
        raise np.linalg.LinAlgError(
            f"zheevr returned info {info} and {found.value} of {count} "
            f"eigenvalues for the window ({lo}, {hi})")
    return energies[:count].copy(), z.T.conj()


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
