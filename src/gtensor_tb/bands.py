"""Diagonalization and Kramers-pair selection."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .blas import eigh_window
from .errors import InputError, PairingAmbiguityError
from .hamiltonian import bloch_hamiltonian
from .materials import PAIR_SPLIT_TOL, MaterialModel, band_pair_problem


@dataclasses.dataclass
class BlochSolution:
    """Eigensystem of H(k): ascending energies, eigenvectors as columns.

    A solution of a band window holds bands ``first`` to ``first +
    len(energies) - 1`` of the full spectrum only.
    """

    k: np.ndarray
    energies: np.ndarray
    states: np.ndarray
    first: int = 0


@dataclasses.dataclass
class KramersPair:
    """Two adjacent bands treated as a (pseudo-)Kramers doublet.

    ``states`` holds the two eigenvectors as columns (xi, xi_bar).
    """

    k: np.ndarray
    band_indices: tuple
    states: np.ndarray


def solve(model: MaterialModel, k, bands: tuple | None = None) -> BlochSolution:
    """Diagonalize the Bloch Hamiltonian at one k-point.

    ``bands=(lo, hi)`` computes bands ``lo..hi`` (inclusive, 0-based in
    the full ascending spectrum) and nothing else; the solution records
    ``lo`` as ``first``.  A window outside ``0..model.dim - 1`` raises
    ``ValueError``.  By default the full spectrum is solved.
    :func:`~gtensor_tb.blas.eigh_window` picks the eigensolver.
    """
    k = np.asarray(k, dtype=float)
    lo, hi = (0, model.dim - 1) if bands is None else bands
    energies, states = eigh_window(bloch_hamiltonian(model, k), lo, hi)
    return BlochSolution(k, energies, states, lo)


def resolve_band_indices(model: MaterialModel, band_id) -> tuple:
    """Map a configured label (or explicit index pair) to band indices.

    An unknown label, or an explicit pair that breaks the rule of a
    material file (:func:`~gtensor_tb.materials.band_pair_problem`),
    raises ``InputError``.
    """
    if isinstance(band_id, str):
        if band_id not in model.band_pairs:
            raise InputError(f"material {model.name!r} configures pairs "
                             f"{sorted(model.band_pairs)}, not {band_id!r}")
        return model.band_pairs[band_id]
    problem = band_pair_problem(band_id, model.dim)
    if problem:
        raise InputError(f"band pair {band_id!r} is not {problem}")
    return tuple(map(int, band_id))


def pair_window(model: MaterialModel, band_id) -> tuple:
    """The bands :func:`select_pair` reads: the pair and its neighbours.

    Returns the inclusive ``(lo, hi)`` range for ``solve(..., bands=)``.
    With inversion (every point group but T_d) bands 2m and 2m + 1 are
    one Kramers doublet, and the window takes whole doublets: an index
    range whose edge splits a degenerate cluster costs ZHEEVR more than
    one with two bands more.
    """
    i, _ = resolve_band_indices(model, band_id)
    lo, hi = _neighbour_window(model.dim, i)
    if model.point_group == "Td":
        return lo, hi
    return lo - lo % 2, hi | 1  # dim is even, so hi | 1 < dim


def _neighbour_window(dim: int, i: int) -> tuple:
    """Bands ``i``, ``i + 1`` of ``0..dim - 1`` and every neighbour of them."""
    return max(i - 1, 0), min(i + 2, dim - 1)


def select_pair(model: MaterialModel, sol: BlochSolution, band_id) -> KramersPair:
    """Extract a Kramers pair from a solved k-point.

    ``sol`` may hold a window of the spectrum (see :func:`solve`) as
    long as it contains the pair and every neighbour of it that exists,
    and ``ValueError`` is raised otherwise.

    Raises :class:`PairingAmbiguityError` when the two bands are not
    isolated from the rest of the spectrum: for inversion-symmetric
    materials the intra-pair split must stay below
    :data:`~gtensor_tb.materials.PAIR_SPLIT_TOL` and the gap to any other
    band above it; for T_d compounds the (physical) intra-pair split
    itself sets the isolation scale.
    """
    i, j = resolve_band_indices(model, band_id)
    lo, hi = _neighbour_window(model.dim, i)
    first = sol.first
    e = sol.energies.tolist()
    if not first <= lo <= hi < first + len(e):
        raise ValueError(
            f"solution holds bands {first}..{first + len(e) - 1}, "
            f"pair {(i, j)} needs bands {lo}..{hi}")
    # a is the pair's offset from sol.first; energies ascend, so the
    # split is >= 0 and the band nearest to the pair is a neighbour,
    # inside lo..hi; a pair has at least one, since dim >= 4
    a = i - first
    ea, eb = e[a], e[a + 1]
    split = eb - ea
    gap_to_rest = math.inf
    for m in (a - 1, a + 2):
        if lo <= m + first <= hi:
            gap_to_rest = min(gap_to_rest, abs(e[m] - ea), abs(e[m] - eb))
    # the isolation scale: PAIR_SPLIT_TOL, or a T_d compound's own split
    floor = split if model.point_group == "Td" else PAIR_SPLIT_TOL
    if split > floor or gap_to_rest <= floor:
        raise PairingAmbiguityError(sol.k, (i, j), split, gap_to_rest)
    states = sol.states[:, a:a + 2].copy(order="F")
    return KramersPair(sol.k, (i, j), states)


def remix_pair(pair: KramersPair, w: np.ndarray) -> KramersPair:
    """Apply a 2x2 unitary to the pair basis: xi'_a = sum_b w[a,b] xi_b.

    On a stack of pairs (``states`` (..., dim, 2)) ``w`` is one 2x2
    matrix or a stack (..., 2, 2) over the same leading axes.
    """
    return dataclasses.replace(pair, states=pair.states @ w.swapaxes(-1, -2))
