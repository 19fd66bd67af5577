"""Diagonalization and Kramers-pair selection."""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import PairingAmbiguityError
from .hamiltonian import bloch_hamiltonian
from .materials import MaterialModel


class UnknownBandLabelError(KeyError):
    """Requested band label is not configured for the material."""


@dataclasses.dataclass
class BlochSolution:
    """Eigensystem of H(k): ascending energies, eigenvectors as columns."""

    k: np.ndarray
    energies: np.ndarray
    states: np.ndarray


@dataclasses.dataclass
class KramersPair:
    """Two adjacent bands treated as a (pseudo-)Kramers doublet.

    ``states`` holds the two eigenvectors as columns (xi, xi_bar);
    ``pair_energy`` is their mean, the reference energy for the
    orbital-moment sum.
    """

    k: np.ndarray
    band_indices: tuple
    energies: np.ndarray
    states: np.ndarray
    pair_energy: float
    split: float
    gap_to_rest: float


def solve(model: MaterialModel, k) -> BlochSolution:
    """Diagonalize the Bloch Hamiltonian at one k-point."""
    k = np.asarray(k, dtype=float)
    energies, states = np.linalg.eigh(bloch_hamiltonian(model, k))
    return BlochSolution(k=k, energies=energies, states=states)


def resolve_band_indices(model: MaterialModel, band_id) -> tuple:
    """Map a configured label (or explicit index pair) to band indices."""
    if isinstance(band_id, str):
        try:
            return model.band_pairs[band_id]
        except KeyError:
            raise UnknownBandLabelError(
                f"material {model.name!r} configures pairs "
                f"{sorted(model.band_pairs)}, not {band_id!r}") from None
    i, j = band_id
    return (int(i), int(j))


def select_pair(model: MaterialModel, sol: BlochSolution, band_id) -> KramersPair:
    """Extract a Kramers pair from a solved k-point.

    Raises :class:`PairingAmbiguityError` when the two bands are not
    isolated from the rest of the spectrum: for inversion-symmetric
    materials the intra-pair split must stay below ``pair_split_tol``
    and the gap to any other band above it; for compound materials the
    (physical) intra-pair split itself sets the isolation scale.
    """
    i, j = resolve_band_indices(model, band_id)
    e = sol.energies.tolist()
    split = e[j] - e[i]
    # energies ascend, so the band nearest to either pair member is one
    # of their neighbours (a, b: the indices made non-negative)
    a, b = i % len(e), j % len(e)
    gap_to_rest = min(min(abs(e[m] - e[a]), abs(e[m] - e[b]))
                      for m in {a - 1, a + 1, b - 1, b + 1} - {a, b}
                      if 0 <= m < len(e))
    floor = split
    if model.pair_split_tol is not None:
        floor = max(floor, model.pair_split_tol)
        if split > model.pair_split_tol:
            raise PairingAmbiguityError(sol.k, (i, j), split, gap_to_rest)
    if gap_to_rest <= floor:
        raise PairingAmbiguityError(sol.k, (i, j), split, gap_to_rest)
    return KramersPair(
        k=sol.k,
        band_indices=(i, j),
        energies=sol.energies[[i, j]],
        states=sol.states[:, [i, j]],
        pair_energy=0.5 * (e[i] + e[j]),
        split=split,
        gap_to_rest=gap_to_rest,
    )


def remix_pair(pair: KramersPair, w: np.ndarray) -> KramersPair:
    """Apply a 2x2 unitary to the pair basis: xi'_a = sum_b w[a,b] xi_b."""
    return dataclasses.replace(pair, states=pair.states @ w.T)
