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

g_S scans and entropy tables read the pair's two eigenvectors and its
energies, and decide whether the pair is isolated from the rest of the
spectrum (see :func:`~gtensor_tb.bands.select_pair`).  For that
decision every other band counts only by whether it lies within the
isolation floor of the pair: :data:`~gtensor_tb.materials.PAIR_SPLIT_TOL`,
or a T_d compound's own split.  :func:`eigh_window` computes just those
with the LAPACK routines ZHEEVR runs: ZHETRD reduces H to a real
tridiagonal T; DSTEBZ finds the pair's energies by bisection on
eigenvalue counts, first by index to a coarse tolerance and then, at
full precision, together with every band of T within the floor plus a
margin of them (the reach); ZSTEIN forms the eigenvectors asked for, the
pair's two or band i's alone, of T by inverse iteration, with the
pair's full-precision energies as shifts; and ZUNMTR turns them into
eigenvectors of H.  A Sturm count is exact about which side of an
energy a band of T lies on, so a band the reach does not hold lies
beyond the floor, and the decision is the one all bands would give.
On k_z = 0, for Si and Ge, ``solve`` solves the order-20 block of the
diamond glide in place of H, asks for band i's vector alone and takes
its Kramers partner from PT.  The routines come from the OpenBLAS numpy
itself is linked against, so no SciPy is loaded; where that build is
absent every energy comes from a full ``np.linalg.eigh``.

A surface makes thousands of these window solves.  A Si split-off solve
of H (n = 40) takes about 100 us, where ZHEEVR took about 130 us, and
one of the glide block (n = 20) about 60 us (README "Band windows" has
the time of each step).  Bisection was the second largest step: for
the pair and the whole doublet on each side, at full precision, DSTEBZ
took 34 us on H and 14 us on the block; the coarse call for the pair
and the call for its reach take 21 and 12 us.  ZHETRD and ZUNMTR get
the workspace ZHEEVR hands them, ``lwork = n``: that selects their
unblocked code, which at n = 40 is faster than the blocked code a
larger workspace selects (ZHETRD 57 against 70 us, ZUNMTR on two
columns 13 against 47 us).

Reading an array's address through ``ndarray.ctypes.data`` costs about
2 us and the five calls of a solve pass 36 addresses, so each thread
keeps one :class:`_Workspace` per matrix order: the output and scratch arrays
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

import bisect
import collections
import ctypes
import functools
import math
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
_BY_INDEX, _BY_VALUE, _BY_ENERGY = _CHAR(b"I"), _CHAR(b"V"), _CHAR(b"E")
_ZERO = _REAL(0.0)                # vl, vu (unused) and abstol (default)
# the absolute tolerance of the bisection for the pair's own bands, Ha
_COARSE = _REAL(1e-6)
# a count of the bands at or below an energy: an interval below every
# Gershgorin bound and a tolerance wider than any spectrum bisect nothing
_LOWEST, _COUNT_ONLY = _REAL(-math.inf), _REAL(1e300)
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

    ``trd``, ``stein`` and ``mtr`` hold the ZHETRD, ZSTEIN and ZUNMTR
    arguments before and after the ones a call supplies (the matrix, the
    number of vectors), and ``bz`` the DSTEBZ arguments after its range,
    bounds and tolerance; ZSTEIN reads the eigenvalues and block numbers
    of the vectors from ``pair_w`` and ``pair_block``.  ZHETRD and
    ZUNMTR get ``lwork = n``, the size ZHEEVR passes them.
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
        self.order = order
        self.bz = (d, e, ctypes.byref(self.found), ctypes.byref(self.nsplit),
                   _PTR(self.w.ctypes.data), _PTR(self.iblock.ctypes.data),
                   isplit, rwork, iwork)
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


def eigh_window(h: np.ndarray, i: int, vectors: int = 2,
                floor: float | None = None) -> tuple:
    """The eigenvectors of bands ``i`` to ``i + vectors - 1`` of the
    Hermitian matrix ``h`` and the energies of every band within the
    isolation reach of them.

    ``vectors`` is 2, the pair's two bands, or 1, band ``i`` alone.
    ``floor`` is the isolation floor in Ha, or None for the pair's own
    split.  Returns ``(energies, states, first, reach)``: the ascending
    energies of bands ``first`` to ``first + len(energies) - 1``, the
    ``(n, vectors)`` columns ``np.linalg.eigh(h)[1][:, i:i + vectors]``
    would give, and a reach above the floor: every band within
    ``reach`` Ha of the pair's energies is among ``energies``.  ``h``
    must be a C-ordered complex128 square matrix with both triangles
    filled, and it is overwritten.  DSTEBZ finds the pair by index to
    :data:`_COARSE`, then at full precision every band in (E_i - R,
    E_{i + 1} + R], E the coarse energies and R the floor plus 3
    :data:`_COARSE`; where another band lies within :data:`_COARSE` of
    them, a count at E_i - R fixes the pair's place.  LAPACK reads the
    C-ordered array as its transpose, conj(h), which has the same
    eigenvalues and conjugate eigenvectors, so the vectors are
    conjugated on return.  ZSTEIN takes the energies grouped by block
    where the tridiagonal splits: a pair whose upper band is in an
    earlier block is handed over swapped, and its columns swapped back.
    Without the routines every energy comes from ``np.linalg.eigh``,
    with ``first = 0`` and an infinite reach.  Raises ``ValueError``
    for a bad band, floor or array before any foreign call, and
    ``np.linalg.LinAlgError`` naming the routine if LAPACK fails or
    does not find the pair.
    """
    if not (isinstance(h, np.ndarray) and h.dtype == np.complex128
            and h.ndim == 2 and h.shape[0] == h.shape[1]
            and h.flags.c_contiguous and h.flags.writeable):
        raise ValueError("eigh_window needs a writeable C-ordered "
                         "complex128 square matrix")
    n = h.shape[0]
    integer = (int, np.integer)
    if not (isinstance(i, integer) and isinstance(vectors, integer)
            and vectors in _VECTORS and 0 <= i <= i + vectors - 1 < n):
        raise ValueError(f"band window of {vectors} bands from {i} is "
                         f"not in 0..{n - 1}")
    if not (floor is None or isinstance(floor, (float, int))
            and 0 <= floor < math.inf):
        raise ValueError(f"isolation floor {floor!r} is not a finite "
                         "energy >= 0 or None")
    lapack = _lapack()
    if lapack is None:
        energies, states = np.linalg.eigh(h)
        return energies, states[:, i:i + vectors], 0, math.inf
    ws = _workspaces.by_order.get(n)
    if ws is None:
        ws = _workspaces.by_order[n] = _Workspace(n)
    # a ctypes view of h's buffer passes its address for a quarter of
    # the cost of h.ctypes.data, and keeps h alive through the calls
    a = ctypes.byref(ctypes.c_char.from_buffer(h))
    if info := lapack.zhetrd(*ws.trd[0], a, *ws.trd[1]):
        raise _failure("zhetrd", info, i)
    info = lapack.dstebz(_BY_INDEX, _BY_ENERGY, ws.order, _ZERO, _ZERO,
                         i + 1, i + vectors, _COARSE, *ws.bz)
    if info or ws.found.value != vectors:
        raise _failure("dstebz", info, i,
                       f" and {ws.found.value} of {vectors} eigenvalues")
    coarse = ws.w[:vectors].tolist()
    low, high = coarse[0], coarse[-1]
    margin = (high - low if floor is None else floor) + 3 * _COARSE.value
    vl = low - margin
    info = lapack.dstebz(_BY_VALUE, _BY_ENERGY, ws.order, vl, high + margin,
                         0, 0, _ZERO, *ws.bz)
    if info:
        raise _failure("dstebz", info, i)
    held = ws.found.value
    energies = ws.w[:held].copy()
    listed = energies.tolist()
    p = bisect.bisect_left(listed, low - _COARSE.value)
    blocks = ws.iblock
    if bisect.bisect_right(listed, high + _COARSE.value) - p != vectors:
        # another band lies within _COARSE of the pair: count the bands
        # at or below vl, as the call above counted them
        blocks = ws.iblock[:held].copy()
        info = lapack.dstebz(_BY_VALUE, _BY_ENERGY, ws.order, _LOWEST, vl,
                             0, 0, _COUNT_ONLY, *ws.bz)
        if info:
            raise _failure("dstebz", info, i)
        p = i - ws.found.value
    if not 0 <= p <= held - vectors:
        raise _failure("dstebz", 0, i, f" and band {i} at {p} of {held}")
    first, second = p, p + vectors - 1
    swapped = blocks[first] > blocks[second]
    if swapped:
        first, second = second, first
    ws.pair_w[0], ws.pair_w[1] = listed[first], listed[second]
    ws.pair_block[0], ws.pair_block[1] = blocks[first], blocks[second]
    m = _VECTORS[vectors]
    if info := lapack.zstein(*ws.stein[0], m, *ws.stein[1]):
        raise _failure("zstein", info, i)
    if info := lapack.zunmtr(*ws.mtr[0], m, a, *ws.mtr[1]):
        raise _failure("zunmtr", info, i)
    states = ws.z[:vectors].T.conj()
    return (energies, states[:, ::-1] if swapped else states, i - p,
            margin - 2 * _COARSE.value)


def _failure(routine: str, info: int, i: int,
             detail: str = "") -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(f"{routine} returned info {info}{detail} "
                                 f"for the window of band {i}")


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
