"""Spin-orbital entanglement of Kramers pairs.

A band eigenvector lives in (spin) x (atom, orbital) with spin as the
slow index, so the reduced spin density matrix is a contraction over
the orbital slots.  Entropies use log base 2: a maximally entangled
pair state has S = 1 exactly.

The time-reversal relation rho_bar_S = sigma_y rho_S^T sigma_y between
the pair partners holds on every direction for O_h, but only on the
<100> and <111> direction families for T_d; asking for it elsewhere is a
contract error, not a numerical failure.  That a pair lies on a
det(g_S)=0 surface is the caller's to check.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .bands import KramersPair
from .brillouin import named_direction, unit_direction, wedge_representative
from .errors import DirectionNotApplicableError, PhysicsError
from .materials import MaterialModel
from .su2 import PAULI


@dataclasses.dataclass
class SpinDensity:
    """Reduced spin density matrices of the two pair partners."""

    rho_s: np.ndarray
    rho_s_bar: np.ndarray


def reduce_spin(state: np.ndarray) -> np.ndarray:
    """Partial trace over the orbital slots of one normalized state.

    The spin index is the slow one: the first half of the state is spin
    up, the second spin down, as in the engine layout.  A stack of
    states (..., dim) gives a stack of densities (..., 2, 2), each bit
    for bit the density of that state alone.
    """
    psi = np.asarray(state)
    psi = psi.reshape(*psi.shape[:-1], 2, psi.shape[-1] // 2)
    rho = psi @ psi.conj().swapaxes(-1, -2)
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def pair_spin_densities(pair: KramersPair) -> SpinDensity:
    """Reduced spin density matrices of (xi, xi_bar).

    For a stack of pairs (``states`` (..., dim, 2)) both fields are
    stacks (..., 2, 2).
    """
    return SpinDensity(
        rho_s=reduce_spin(pair.states[..., 0]),
        rho_s_bar=reduce_spin(pair.states[..., 1]),
    )


def entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy, log base 2, of a density matrix.

    Eigenvalues in [-1e-12, 0) are clamped to zero; anything more
    negative indicates the input was not PSD and raises, whichever
    matrix of a stack it belongs to.  One matrix gives a ``float``; a
    stack (..., n, n) gives an array of shape (...), each entry bit for
    bit the entropy of that matrix alone.
    """
    w = np.linalg.eigvalsh(np.asarray(rho))
    lowest = w.min(initial=0.0)
    if lowest < -1e-12:
        raise PhysicsError(f"density matrix has eigenvalue {lowest:.3e} < 0")
    w = np.clip(w, 0.0, None)
    nz = w > 0.0
    log_w = np.log2(w, out=np.zeros_like(w), where=nz)
    s = -(w * log_w).sum(axis=-1, where=nz)
    return float(s) if s.ndim == 0 else s


def direction_applicable(model: MaterialModel, direction) -> bool:
    """Whether the spin-flip relation holds along ``direction``.

    For the inversion-symmetric group O_h every direction qualifies;
    for T_d only the Delta <100> and Lambda <111> families do, to 1e-9
    in each component of the unit vector.  Raises InputError for a
    direction that :func:`unit_direction` rejects.
    """
    rep = wedge_representative(unit_direction(direction))
    if model.point_group == "Oh":
        return True
    return any(np.allclose(rep, named_direction(family), rtol=0.0, atol=1e-9)
               for family in ("Delta", "Lambda"))


def require_applicable(model: MaterialModel, k) -> None:
    """Raise :class:`DirectionNotApplicableError` unless the direction of
    ``k`` is in a valid family; at Gamma the relation always applies."""
    k = np.asarray(k, dtype=float)
    if k.any() and not direction_applicable(model, k):
        raise DirectionNotApplicableError(model.point_group, unit_direction(k))


def _spin_flip_defect(dens: SpinDensity) -> np.ndarray:
    """rho_bar_S - sigma_y rho_S^T sigma_y of one pair or a stack.

    A stack (..., 2, 2) gives a stack, each matrix bit for bit the
    defect of that pair alone.
    """
    sy = PAULI[1]
    return dens.rho_s_bar - sy @ dens.rho_s.swapaxes(-1, -2) @ sy


def spin_flip_residual(model: MaterialModel, pair: KramersPair) -> float:
    """Frobenius residual of rho_bar_S = sigma_y rho_S^T sigma_y.

    The direction is taken from the pair's k-point.
    """
    require_applicable(model, pair.k)
    defect = _spin_flip_defect(pair_spin_densities(pair))
    return float(np.linalg.norm(defect, "fro"))


def entropies_at_crossing(model: MaterialModel, pair: KramersPair) -> tuple:
    """Entropies (S_xi, S_xi_bar) of a pair sitting on the MES.

    Direction applicability is enforced: the unit-entropy statement
    holds only where the spin-flip relation does.  That the pair lies
    on the det(g_S) = 0 surface is the caller's precondition.
    """
    require_applicable(model, pair.k)
    dens = pair_spin_densities(pair)
    return entropy(dens.rho_s), entropy(dens.rho_s_bar)


def cardinal_states(pair: KramersPair) -> dict:
    """Equator superpositions of the pair Bloch sphere.

    Keys '+', '-', '+i', '-i' map to (xi +- xi_bar)/sqrt(2) and
    (xi +- i xi_bar)/sqrt(2).  Their entropies are gauge dependent, so
    callers should align the pair to the spin frame first.
    """
    xi = pair.states[:, 0]
    xib = pair.states[:, 1]
    s = 1.0 / np.sqrt(2.0)
    return {
        "+": s * (xi + xib),
        "-": s * (xi - xib),
        "+i": s * (xi + 1j * xib),
        "-i": s * (xi - 1j * xib),
    }
