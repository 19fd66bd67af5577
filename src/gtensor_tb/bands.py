"""Diagonalization and Kramers-pair selection."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .blas import eigh_window
from .errors import InputError, PairingAmbiguityError
from .hamiltonian import bloch_hamiltonian, glide_block
from .materials import PAIR_SPLIT_TOL, MaterialModel, band_pair_problem


@dataclasses.dataclass
class BlochSolution:
    """Eigensystem of H(k): ascending energies, eigenvectors as columns.

    ``energies`` holds bands ``first`` to ``first + len(energies) - 1``
    of the full spectrum, and the columns of ``states`` hold bands
    ``first_state`` onwards: every band of a full solution; the pair's
    two vectors and the energies of every band within ``reach`` Ha of
    the pair's energies of a pair solution.  A band that a solution
    with a finite reach does not hold lies beyond that reach.
    """

    k: np.ndarray
    energies: np.ndarray
    states: np.ndarray
    first: int = 0
    first_state: int = 0
    reach: float = math.inf


@dataclasses.dataclass
class KramersPair:
    """Two adjacent bands treated as a (pseudo-)Kramers doublet.

    ``states`` holds the two eigenvectors as columns (xi, xi_bar).
    """

    k: np.ndarray
    band_indices: tuple
    states: np.ndarray


class _BandPair(tuple):
    """Bands ``(i, i + 1)`` of plain ints, ``i >= 0``: a pair that
    :func:`resolve_band_indices` has checked, so that meeting it again
    it checks only that ``i + 1`` is a band of the model."""


def solve(model: MaterialModel, k, pair=None) -> BlochSolution:
    """Diagonalize the Bloch Hamiltonian at one k-point.

    By default every band is solved, by ``np.linalg.eigh``.  Given a
    ``pair`` (a configured label or an index pair), only what
    :func:`select_pair` reads is computed, by
    :func:`~gtensor_tb.blas.eigh_window`: the pair's two eigenvectors
    and the energies of the pair and of every band within its isolation
    reach, which is more than the isolation floor
    (:data:`~gtensor_tb.materials.PAIR_SPLIT_TOL`, or a T_d compound's
    own split).  With inversion (every point group but T_d) bands 2m
    and 2m + 1 are one Kramers doublet.  On k_z = 0 the solve of a
    doublet (i even) is of the diamond glide's +i block of H(k)
    (:func:`~gtensor_tb.hamiltonian.glide_block`), of order dim/2 and
    about 40% cheaper: its band m is doublet m of H(k), so each of its
    energies counts twice, and its band i // 2 vector y gives the pair
    [W y, (PT W) y*], W and PT W being the isometries onto the glide's
    +i and -i eigenspaces.  Off the plane, and for GaAs, the window
    forms the pair's two vectors.  The solution records the window's
    first band as ``first``, the pair's as ``first_state`` and the
    reach.
    """
    k = np.asarray(k, dtype=float)
    h = bloch_hamiltonian(model, k)
    if pair is None:
        energies, states = np.linalg.eigh(h)
        return BlochSolution(k, energies, states)
    i, _ = resolve_band_indices(model, pair)
    floor = None
    if model.point_group != "Td":
        floor = PAIR_SPLIT_TOL
        if i % 2 == 0 and k[2] == 0.0:
            block, w, pt_w = glide_block(model, h)
            energies, y, first, reach = eigh_window(block, i // 2, 1, floor)
            states = np.concatenate((w.dot(y), pt_w.dot(y.conj())), axis=1)
            return BlochSolution(k, energies.repeat(2), states, 2 * first, i,
                                 reach)
    energies, states, first, reach = eigh_window(h, i, 2, floor)
    return BlochSolution(k, energies, states, first, i, reach)


def resolve_band_indices(model: MaterialModel, band_id) -> tuple:
    """Map a configured label (or explicit index pair) to band indices.

    An unknown label, or an explicit pair that breaks the rule of a
    material file (:func:`~gtensor_tb.materials.band_pair_problem`),
    raises ``InputError``.  A second call hands the returned pair back
    unchecked for any model that has its two bands, so a caller can
    resolve a pair once and pass it on.
    """
    if band_id.__class__ is _BandPair and band_id[1] < model.dim:
        return band_id
    if isinstance(band_id, str):
        if band_id not in model.band_pairs:
            raise InputError(f"material {model.name!r} configures pairs "
                             f"{sorted(model.band_pairs)}, not {band_id!r}")
        return _BandPair(model.band_pairs[band_id])
    problem = band_pair_problem(band_id, model.dim)
    if problem:
        raise InputError(f"band pair {band_id!r} is not {problem}")
    return _BandPair(map(int, band_id))


def select_pair(model: MaterialModel, sol: BlochSolution, band_id) -> KramersPair:
    """Extract a Kramers pair from a solved k-point.

    ``sol`` may hold a window of the spectrum (see :func:`solve`) as
    long as it holds the pair's energies and two vectors, and the
    energies of every neighbour of the pair that exists, unless its
    finite reach covers the isolation floor: a neighbour it does not
    hold then lies beyond the floor.  ``ValueError`` is raised
    otherwise.

    Raises :class:`PairingAmbiguityError` when the two bands are not
    isolated from the rest of the spectrum: for inversion-symmetric
    materials the intra-pair split must stay below
    :data:`~gtensor_tb.materials.PAIR_SPLIT_TOL` and the gap to any other
    band above it; for T_d compounds the (physical) intra-pair split
    itself sets the isolation scale.  A gap to a band beyond the reach
    is reported as infinite.
    """
    i, j = resolve_band_indices(model, band_id)
    first, col = sol.first, i - sol.first_state
    e = sol.energies.tolist()
    # a is the pair's offset from sol.first; energies ascend, so the
    # split is >= 0 and the band nearest to the pair is a neighbour
    a = i - first
    held = 0 <= a < len(e) - 1 and 0 <= col < sol.states.shape[1] - 1
    if held:
        ea, eb = e[a], e[a + 1]
        split = eb - ea
        # the isolation scale: PAIR_SPLIT_TOL, or a T_d compound's own split
        floor = split if model.point_group == "Td" else PAIR_SPLIT_TOL
        # a neighbour the solution lacks lies beyond its reach, which
        # settles isolation only where the reach covers the floor
        held = floor <= sol.reach < math.inf or (
            (a > 0 or i == 0) and (a + 2 < len(e) or j == model.dim - 1))
    if not held:
        raise ValueError(
            f"solution holds the energies of bands {first}.."
            f"{first + len(e) - 1} (reach {sol.reach:.3e} Ha) and the "
            f"vectors of bands {sol.first_state}.."
            f"{sol.first_state + sol.states.shape[1] - 1}, pair {(i, j)} "
            f"needs energies {max(i - 1, 0)}..{min(j + 1, model.dim - 1)}, "
            f"or {i}..{j} and a reach of at least the isolation floor, and "
            f"vectors {i}, {j}")
    gap_to_rest = math.inf
    for m in (a - 1, a + 2):
        if 0 <= m < len(e):
            gap_to_rest = min(gap_to_rest, abs(e[m] - ea), abs(e[m] - eb))
    if split > floor or gap_to_rest <= floor:
        raise PairingAmbiguityError(sol.k, (i, j), split, gap_to_rest)
    states = sol.states[:, col:col + 2].copy(order="F")
    return KramersPair(sol.k, (i, j), states)


def remix_pair(pair: KramersPair, w: np.ndarray) -> KramersPair:
    """Apply a 2x2 unitary to the pair basis: xi'_a = sum_b w[a,b] xi_b.

    On a stack of pairs (``states`` (..., dim, 2)) ``w`` is one 2x2
    matrix or a stack (..., 2, 2) over the same leading axes.
    """
    return dataclasses.replace(pair, states=pair.states @ w.swapaxes(-1, -2))
