"""numpy's OpenBLAS, reached through ctypes: thread pinning and a subset solve.

Each k-point costs one small (at most 40x40) ``eigh``.  A full
``np.linalg.eigh`` of a 40x40 H(k) (Si and Ge band tables, g-lines and
g_tot scans) runs on all cores, and on two cores its second thread
spins through every solve without speeding any of them up: such a job
burns twice the CPU time for the same wall time (README "Threads" has
the numbers).  Window solves and 16x16 full solves start no
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

g_S scans and entropy tables read the energies of a pair and its
neighbours in the spectrum (whole Kramers doublets where every band is
degenerate, see :func:`~gtensor_tb.bands.solve`) and the pair's two
eigenvectors.  :func:`eigh_window` computes just those with the four
LAPACK routines ZHEEVR runs for an index range: ZHETRD reduces H to a
real tridiagonal T, DSTEBZ finds the window's eigenvalues of T by
bisection and lists them ascending, ZSTEIN forms the eigenvectors asked
for, the pair's two or band i's alone, of T by inverse iteration and
ZUNMTR turns them into eigenvectors of H.  ZHEEVR would form a vector
for every band of the window, six where this route forms one or two.
On k_z = 0, for Si and Ge, ``solve`` solves the order-20 block of the
diamond glide in place of H, asks for band i's vector alone and takes
its Kramers partner from PT.  The routines come from the OpenBLAS numpy
itself is linked against, so no SciPy is loaded; where that build is
absent the window is sliced from a full ``np.linalg.eigh``.

A surface makes thousands of these window solves.  A Si split-off solve
of H (n = 40) takes about 110 us, where ZHEEVR took about 130 us, and
one of the glide block (n = 20) about 65 us (README "Band windows" has
the time of each step).  ZHETRD and ZUNMTR get the workspace ZHEEVR
hands them, ``lwork = n``: that selects their
unblocked code, which at n = 40 is faster than the blocked code a
larger workspace selects (ZHETRD 57 against 70 us, ZUNMTR on two
columns 13 against 47 us).

Reading an array's address through ``ndarray.ctypes.data`` costs about
2 us and the four calls pass 27 addresses, so each thread keeps
one :class:`_Workspace` per matrix order: the output and scratch arrays
and the arguments built from them, converted to ctypes once, as are the
arguments no call changes.  The matrix's own address comes from a
ctypes view of its buffer.  A workspace holds the arrays themselves,
not only their addresses: the address of a freed array points into
memory the allocator hands out again, and LAPACK would then write over
the heap.  The workspace is per thread because LAPACK writes into it,
and the energies and vectors returned are fresh copies, so no result
aliases it.
"""
from __future__ import annotations

import collections
import ctypes
import functools
import os
import threading

import numpy as np

_lock = threading.Lock()
_depth = 0
_saved: tuple = ()

_INT = ctypes.c_int64       # numpy's OpenBLAS is an ILP64 build
_PTR = ctypes.c_void_p
_CHAR = ctypes.c_char
_REAL = ctypes.c_double
_INT_OUT = ctypes.POINTER(_INT)
# arguments that no call changes, converted to ctypes once
_COL_MAJOR = ctypes.c_int(102)    # LAPACK_COL_MAJOR in lapacke.h
_LOWER, _LEFT, _NO_TRANS = _CHAR(b"L"), _CHAR(b"L"), _CHAR(b"N")
_BY_INDEX, _BY_ENERGY = _CHAR(b"I"), _CHAR(b"E")
_ZERO = _REAL(0.0)                # vl, vu (unused) and abstol (default)
_VECTORS = {1: _INT(1), 2: _INT(2)}   # band i's vector, or the pair's two

_Lapack = collections.namedtuple("_Lapack", "zhetrd dstebz zstein zunmtr")
# the argument types of each LAPACKE_*_work entry point, as in lapacke.h
_ARGTYPES = _Lapack(
    # layout, uplo, n, a, lda, d, e, tau, work, lwork
    zhetrd=[ctypes.c_int, _CHAR, _INT, _PTR, _INT, _PTR, _PTR, _PTR, _PTR,
            _INT],
    # range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock,
    # isplit, work, iwork
    dstebz=[_CHAR, _CHAR, _INT, _REAL, _REAL, _INT, _INT, _REAL, _PTR, _PTR,
            _INT_OUT, _INT_OUT, _PTR, _PTR, _PTR, _PTR, _PTR],
    # layout, n, d, e, m, w, iblock, isplit, z, ldz, work, iwork, ifail
    zstein=[ctypes.c_int, _INT, _PTR, _PTR, _INT, _PTR, _PTR, _PTR, _PTR,
            _INT, _PTR, _PTR, _PTR],
    # layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
    zunmtr=[ctypes.c_int, _CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR,
            _PTR, _INT, _PTR, _INT])


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
def _lapack():
    """The four ``LAPACKE_*_work`` routines with 64-bit integers, or None.

    Only numpy's own OpenBLAS wheel exports them, under symbols such as
    ``scipy_LAPACKE_zhetrd_work64_``; SciPy's OpenBLAS uses 32-bit
    integers and other names, so it is never picked by mistake.  The
    ``_work`` entry points take the caller's workspace and, for a
    column-major call, neither allocate nor transpose.
    """
    for library in _openblas_libraries():
        try:
            routines = _Lapack._make(
                getattr(library, f"scipy_LAPACKE_{name}_work64_")
                for name in _Lapack._fields)
        except AttributeError:
            continue
        for routine, argtypes in zip(routines, _ARGTYPES):
            routine.argtypes = argtypes
            routine.restype = _INT
        return routines
    return None


class _Workspace:
    """One thread's arrays and ctypes arguments for n x n window solves.

    ``trd``, ``bz``, ``stein`` and ``mtr`` hold the ZHETRD, DSTEBZ,
    ZSTEIN and ZUNMTR arguments before and after the ones a call
    supplies (the matrix, the index range, the number of vectors);
    ZSTEIN reads the eigenvalues and block numbers of the vectors from
    ``pair_w`` and ``pair_block``.  ZHETRD and ZUNMTR get ``lwork =
    n``, the size ZHEEVR passes them.
    """

    def __init__(self, n: int):
        self.d, self.e, self.w = np.empty(n), np.empty(n), np.empty(n)
        self.tau = np.empty(n, dtype=complex)
        self.work = np.empty(n, dtype=complex)
        self.iblock = np.empty(n, dtype=np.int64)
        self.isplit = np.empty(n, dtype=np.int64)
        self.rwork = np.empty(5 * n)                  # DSTEBZ 4n, ZSTEIN 5n
        self.iwork = np.empty(3 * n, dtype=np.int64)  # DSTEBZ 3n, ZSTEIN n
        self.pair_w = np.empty(2)
        self.pair_block = np.empty(2, dtype=np.int64)
        self.z = np.empty((2, n), dtype=complex)      # column-major (n, 2)
        self.ifail = np.empty(2, dtype=np.int64)
        self.found, self.nsplit = _INT(), _INT()
        order = _INT(n)
        d, e, tau, work, isplit, z, rwork, iwork = (
            _PTR(a.ctypes.data) for a in (self.d, self.e, self.tau, self.work,
                                          self.isplit, self.z, self.rwork,
                                          self.iwork))
        self.trd = ((_COL_MAJOR, _LOWER, order),
                    (order, d, e, tau, work, order))
        self.bz = ((_BY_INDEX, _BY_ENERGY, order, _ZERO, _ZERO),
                   (_ZERO, d, e, ctypes.byref(self.found),
                    ctypes.byref(self.nsplit), _PTR(self.w.ctypes.data),
                    _PTR(self.iblock.ctypes.data), isplit, rwork, iwork))
        self.stein = ((_COL_MAJOR, order, d, e),
                      (_PTR(self.pair_w.ctypes.data),
                       _PTR(self.pair_block.ctypes.data), isplit, z, order,
                       rwork, iwork, _PTR(self.ifail.ctypes.data)))
        self.mtr = ((_COL_MAJOR, _LEFT, _LOWER, _NO_TRANS, order),
                    (order, tau, z, order, work, order))


class _Workspaces(threading.local):
    """One thread's :class:`_Workspace` per matrix order."""

    def __init__(self):
        self.by_order = {}


_workspaces = _Workspaces()


def eigh_window(h: np.ndarray, lo: int, hi: int, i: int,
                vectors: int = 2) -> tuple:
    """Energies ``lo..hi`` (inclusive) of the Hermitian matrix ``h`` and
    the eigenvectors of bands ``i`` to ``i + vectors - 1``.

    ``vectors`` is 2, the pair's two bands, or 1, band ``i`` alone.
    Returns ``(energies, states)`` like ``np.linalg.eigh(h)`` with the
    energies sliced to ``[lo:hi + 1]`` and the vectors to ``[:, i:i +
    vectors]``: ascending energies and an ``(n, vectors)`` array of
    columns.  ``h`` must be a C-ordered complex128 square matrix with
    both triangles filled, and it is overwritten.  LAPACK reads the
    C-ordered array as its transpose, conj(h), which has the same
    eigenvalues and conjugate eigenvectors, so the vectors are
    conjugated on return.  DSTEBZ lists the energies ascending, but
    ZSTEIN takes them grouped by block where the tridiagonal splits: a
    pair whose upper band is in an earlier block is handed over
    swapped, and its columns swapped back.  Raises ``ValueError`` for a
    bad window or array before any foreign call, and
    ``np.linalg.LinAlgError`` naming the routine if LAPACK fails or
    finds fewer eigenvalues.
    """
    if not (isinstance(h, np.ndarray) and h.dtype == np.complex128
            and h.ndim == 2 and h.shape[0] == h.shape[1]
            and h.flags.c_contiguous and h.flags.writeable):
        raise ValueError("eigh_window needs a writeable C-ordered "
                         "complex128 square matrix")
    n = h.shape[0]
    integer = (int, np.integer)
    if not (isinstance(lo, integer) and isinstance(hi, integer)
            and isinstance(i, integer) and isinstance(vectors, integer)
            and vectors in _VECTORS
            and 0 <= lo <= i <= i + vectors - 1 <= hi < n):
        raise ValueError(f"band window ({lo}, {hi}) does not hold "
                         f"{vectors} bands from {i} of 0..{n - 1}")
    lapack = _lapack()
    if lapack is None:
        energies, states = np.linalg.eigh(h)
        return energies[lo:hi + 1], states[:, i:i + vectors]
    ws = _workspaces.by_order.get(n)
    if ws is None:
        ws = _workspaces.by_order[n] = _Workspace(n)
    # a ctypes view of h's buffer passes its address for a quarter of
    # the cost of h.ctypes.data, and keeps h alive through the calls
    a = ctypes.byref(ctypes.c_char.from_buffer(h))
    if info := lapack.zhetrd(*ws.trd[0], a, *ws.trd[1]):
        raise _failure("zhetrd", info, lo, hi)
    count = hi - lo + 1
    info = lapack.dstebz(*ws.bz[0], lo + 1, hi + 1, *ws.bz[1])
    if info or ws.found.value != count:
        raise _failure("dstebz", info, lo, hi,
                       f" and {ws.found.value} of {count} eigenvalues")
    energies = ws.w[:count].copy()
    first, second = i - lo, i - lo + vectors - 1
    swapped = ws.iblock[first] > ws.iblock[second]
    if swapped:
        first, second = second, first
    ws.pair_w[0], ws.pair_w[1] = energies[first], energies[second]
    ws.pair_block[0], ws.pair_block[1] = ws.iblock[first], ws.iblock[second]
    m = _VECTORS[vectors]
    if info := lapack.zstein(*ws.stein[0], m, *ws.stein[1]):
        raise _failure("zstein", info, lo, hi)
    if info := lapack.zunmtr(*ws.mtr[0], m, a, *ws.mtr[1]):
        raise _failure("zunmtr", info, lo, hi)
    states = ws.z[:vectors].T.conj()
    return energies, states[:, ::-1] if swapped else states


def _failure(routine: str, info: int, lo: int, hi: int,
             detail: str = "") -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(f"{routine} returned info {info}{detail} "
                                 f"for the window ({lo}, {hi})")


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
