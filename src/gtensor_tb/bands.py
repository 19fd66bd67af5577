"""Diagonalization and Kramers-pair selection."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .blas import eigh_window
from .errors import InputError, PairingAmbiguityError
from .hamiltonian import bloch_hamiltonian, glide_block, kramers_doublet
from .materials import PAIR_SPLIT_TOL, MaterialModel, band_pair_problem


@dataclasses.dataclass
class BlochSolution:
    """Eigensystem of H(k): ascending energies, eigenvectors as columns.

    ``energies`` holds bands ``first`` to ``first + len(energies) - 1``
    of the full spectrum, and the columns of ``states`` hold bands
    ``first_state`` onwards: every band of a full solution, the window's
    energies and the pair's two vectors of a pair solution.
    """

    k: np.ndarray
    energies: np.ndarray
    states: np.ndarray
    first: int = 0
    first_state: int = 0


@dataclasses.dataclass
class KramersPair:
    """Two adjacent bands treated as a (pseudo-)Kramers doublet.

    ``states`` holds the two eigenvectors as columns (xi, xi_bar).
    """

    k: np.ndarray
    band_indices: tuple
    states: np.ndarray


def solve(model: MaterialModel, k, pair=None) -> BlochSolution:
    """Diagonalize the Bloch Hamiltonian at one k-point.

    By default every band is solved, by ``np.linalg.eigh``.  Given a
    ``pair`` (a configured label or an index pair), only what
    :func:`select_pair` reads is computed, by
    :func:`~gtensor_tb.blas.eigh_window`: the pair's two eigenvectors
    and the energies of the pair and its neighbours.  With inversion
    (every point group but T_d) bands 2m and 2m + 1 are one Kramers
    doublet, and the window takes whole doublets: DSTEBZ finds the ends
    of an index range by bisection on eigenvalue counts, and an end
    inside a degenerate doublet has no gap to stop at.  On k_z = 0 the
    solve of a doublet (i even) is of the diamond glide's +i block of
    H(k) (:func:`~gtensor_tb.hamiltonian.glide_block`), of order dim/2
    and about 40% cheaper: its band m is doublet m of H(k), so each of
    its energies counts twice, and it forms band i's vector xi alone,
    in the glide's +i eigenspace; xi_bar = PT xi, in the -i one
    (:func:`~gtensor_tb.hamiltonian.kramers_doublet`).  Off the plane,
    and for GaAs, the window forms the pair's two vectors.  The
    solution records the window's first band as ``first`` and the
    pair's as ``first_state``.
    """
    k = np.asarray(k, dtype=float)
    h = bloch_hamiltonian(model, k)
    if pair is None:
        energies, states = np.linalg.eigh(h)
        return BlochSolution(k, energies, states)
    i, _ = resolve_band_indices(model, pair)
    lo, hi = _neighbour_window(model.dim, i)
    if model.point_group != "Td":
        lo, hi = lo - lo % 2, hi | 1  # dim is even, so hi | 1 < dim
        if i % 2 == 0 and k[2] == 0.0:
            block, w = glide_block(model, h)
            energies, y = eigh_window(block, lo // 2, hi // 2, i // 2, 1)
            return BlochSolution(k, energies.repeat(2),
                                 kramers_doublet(model, w @ y), lo, i)
    energies, states = eigh_window(h, lo, hi, i)
    return BlochSolution(k, energies, states, lo, i)


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


def _neighbour_window(dim: int, i: int) -> tuple:
    """Bands ``i``, ``i + 1`` of ``0..dim - 1`` and every neighbour of them."""
    return max(i - 1, 0), min(i + 2, dim - 1)


def select_pair(model: MaterialModel, sol: BlochSolution, band_id) -> KramersPair:
    """Extract a Kramers pair from a solved k-point.

    ``sol`` may hold a window of the spectrum (see :func:`solve`) as
    long as it holds the energies of the pair and of every neighbour of
    it that exists, and the pair's two vectors; ``ValueError`` is raised
    otherwise.

    Raises :class:`PairingAmbiguityError` when the two bands are not
    isolated from the rest of the spectrum: for inversion-symmetric
    materials the intra-pair split must stay below
    :data:`~gtensor_tb.materials.PAIR_SPLIT_TOL` and the gap to any other
    band above it; for T_d compounds the (physical) intra-pair split
    itself sets the isolation scale.
    """
    i, j = resolve_band_indices(model, band_id)
    lo, hi = _neighbour_window(model.dim, i)
    first, col = sol.first, i - sol.first_state
    e = sol.energies.tolist()
    if not (first <= lo <= hi < first + len(e)
            and 0 <= col < sol.states.shape[1] - 1):
        raise ValueError(
            f"solution holds the energies of bands {first}.."
            f"{first + len(e) - 1} and the vectors of bands "
            f"{sol.first_state}..{sol.first_state + sol.states.shape[1] - 1}"
            f", pair {(i, j)} needs energies {lo}..{hi} and vectors {i}, {j}")
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
    states = sol.states[:, col:col + 2].copy(order="F")
    return KramersPair(sol.k, (i, j), states)


def remix_pair(pair: KramersPair, w: np.ndarray) -> KramersPair:
    """Apply a 2x2 unitary to the pair basis: xi'_a = sum_b w[a,b] xi_b.

    On a stack of pairs (``states`` (..., dim, 2)) ``w`` is one 2x2
    matrix or a stack (..., 2, 2) over the same leading axes.
    """
    return dataclasses.replace(pair, states=pair.states @ w.swapaxes(-1, -2))
