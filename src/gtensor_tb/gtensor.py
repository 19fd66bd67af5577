"""Spin and orbital g-tensors of a Kramers pair, and the Zeeman response.

All formulas are atomic-unit (hbar = m = e = 1, mu_B = 1/2) and refer to
a pair basis (xi, xi_bar); Pauli matrices with a tilde act on that
two-dimensional pair space.

    pi_j          = A^dag (dH/dk_j) A + i (E_n - E_m) (A^dag D_j A)
    (2S_i)[a,b]   = <a| sigma_i |b>                     (pair block)
    L_i[a,b]      = -(i/2) eps_{ijk} sum_{l not in pair}
                    pi_j[a,l] pi_k[l,b] / (E_pair - E_l)
    g_S[i,j]      = Re Tr(2S_i sigma~_j)
    g_L[i,j]      = Re Tr(L_i  sigma~_j)
    g_tot         = g_S + g_L,  G = g_tot g_tot^T
    Delta E       = mu_B sqrt(B.G B)

L_i is assembled in the ``mean-energy`` form above: a single energy
denominator at the pair mean, valid for split pairs too.  At an exactly
degenerate pair it equals the ``commutator`` form built from
d_k-derivative overlaps, sum_l pi_j[a,l] pi_k[l,b] (E_l - E_pair) /
((E_l - E_a)(E_l - E_b)); the test suite keeps that form as an oracle.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .bands import BlochSolution, KramersPair, remix_pair
from .errors import NearDegenerateIntermediateError, ZeroSplittingError
from .hamiltonian import dipole_matrix, hamiltonian_gradient
from .materials import MaterialModel
from .su2 import PAULI, su2_from_rotation
from .units import MU_B

# intermediate bands closer than this to the pair energy poison the
# second-order sum
ENERGY_FLOOR = 1e-5  # Hartree

# (j, k) of the eps_{ijk} cycles, in order of i
_CYCLE_J = [1, 2, 0]
_CYCLE_K = [2, 0, 1]


def momentum_table(model: MaterialModel, sol: BlochSolution) -> np.ndarray:
    """Velocity-operator matrix elements in the band basis, (3, dim, dim).

    The intra-atomic dipole corrects grad_k H for the position offsets
    the orbital basis cannot represent, entering as the Heisenberg
    velocity i[H, D] of the intra-cell position; it only moves
    off-diagonal elements (E_n - E_m weight), so band velocities are
    untouched.  It sums over every band, so ``sol`` must hold the full
    spectrum, not a window of it (``ValueError``).

    All three directions go through each matrix product as one stack.
    """
    if sol.first != 0 or sol.energies.size != model.dim:
        raise ValueError("momentum_table needs the full spectrum, got bands "
                         f"{sol.first}..{sol.first + sol.energies.size - 1} "
                         f"of {model.dim}")
    a = sol.states
    ah = a.conj().T
    grad = hamiltonian_gradient(model, sol.k)
    ediff = sol.energies[:, None] - sol.energies[None, :]
    return ah @ grad @ a + 1j * ediff * (ah @ dipole_matrix(model) @ a)


def spin_matrices(pair: KramersPair) -> np.ndarray:
    """Pair-space blocks of the spin operator, (2 S_i) as (3, 2, 2)."""
    x = pair.states.reshape(2, -1, 2)          # (spin, orbital*atom, pair)
    overlap = np.einsum('sra,trb->stab', x.conj(), x)
    return np.einsum('ist,stab->iab', PAULI, overlap)


def spin_g(pair: KramersPair) -> np.ndarray:
    """g_S: contraction of the pair spin blocks with the pair Paulis."""
    two_s = spin_matrices(pair)
    g = np.einsum('iab,jba->ij', two_s, PAULI)
    return np.ascontiguousarray(g.real)


def orbital_matrices(pair: KramersPair, sol: BlochSolution,
                     pi: np.ndarray,
                     energy_floor: float = ENERGY_FLOOR) -> np.ndarray:
    """Pair-space orbital-moment blocks L_i, shape (3, 2, 2).

    The mean-energy assembly of the module docstring, with the three
    eps_{ijk} cycles taken as two stacked products.  Intermediate bands
    within ``energy_floor`` of the pair energy raise
    :class:`NearDegenerateIntermediateError`.
    """
    ia, ib = pair.band_indices
    others = np.delete(np.arange(sol.energies.size), [ia, ib])
    e_rest = sol.energies[others]
    sep = np.abs(e_rest - pair.pair_energy)
    worst = int(np.argmin(sep))
    if sep[worst] <= energy_floor:
        raise NearDegenerateIntermediateError(
            sol.k, int(others[worst]), float(sep[worst]), energy_floor)

    p = pi[:, [[ia], [ib]], others]            # (3, 2, M)
    q = pi[:, others[:, None], [ia, ib]]       # (3, M, 2)
    # the pi table lives in the eigh gauge; re-express the pair rows and
    # columns in the pair's own (possibly remixed) basis so spin and
    # orbital blocks always share one gauge
    w2 = sol.states[:, [ia, ib]].conj().T @ pair.states
    pw = np.matmul(w2.conj().T, p) * (1.0 / (pair.pair_energy - e_rest))
    q = np.matmul(q, w2)
    return -0.5j * (pw[_CYCLE_J] @ q[_CYCLE_K] - pw[_CYCLE_K] @ q[_CYCLE_J])


def orbital_g(l_blocks: np.ndarray) -> np.ndarray:
    """g_L from the pair-space orbital-moment blocks."""
    g = np.einsum('iab,jba->ij', l_blocks, PAULI)
    return np.ascontiguousarray(g.real)


@dataclasses.dataclass
class GTensorSet:
    """All g-tensor data of one pair at one k-point."""

    k: np.ndarray
    band_indices: tuple
    g_s: np.ndarray
    g_l: np.ndarray
    g_tot: np.ndarray
    G: np.ndarray                       # g_tot g_tot^T
    svd_s: tuple                        # (u, sigma, vh) of g_s
    svd_tot: tuple
    det_g_s: float
    det_g_tot: float

    @property
    def sigma_s(self) -> np.ndarray:
        return self.svd_s[1]

    @property
    def sigma_tot(self) -> np.ndarray:
        return self.svd_tot[1]


def det_sign(g: np.ndarray) -> int:
    """Sign of det(g) from its cofactor expansion along the first row.

    Returns +1 or -1, never 0: an exact 0.0 counts as +1.  The rounding
    error is of order 1e-16 |g|^3, so the sign is exact unless the
    smallest singular value is below about 1e-15 |g| (an SVD cannot
    resolve the sign there either).
    """
    (a, b, c), (d, e, f), (p, q, r) = g.tolist()
    det = a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p)
    return 1 if det >= 0.0 else -1


def g_tensor_set(model: MaterialModel, sol: BlochSolution, pair: KramersPair,
                 pi: np.ndarray | None = None) -> GTensorSet:
    """Evaluate g_S, g_L, g_tot, G and their SVDs at one k-point."""
    if pi is None:
        pi = momentum_table(model, sol)
    g_s = spin_g(pair)
    g_l = orbital_g(orbital_matrices(pair, sol, pi))
    g_tot = g_s + g_l
    both = np.stack([g_s, g_tot])
    u, sigma, vh = np.linalg.svd(both)
    det_s, det_tot = np.linalg.det(both).tolist()
    return GTensorSet(
        k=pair.k,
        band_indices=pair.band_indices,
        g_s=g_s,
        g_l=g_l,
        g_tot=g_tot,
        G=g_tot @ g_tot.T,
        svd_s=(u[0], sigma[0], vh[0]),
        svd_tot=(u[1], sigma[1], vh[1]),
        det_g_s=det_s,
        det_g_tot=det_tot,
    )


@dataclasses.dataclass
class FieldResponse:
    """Zeeman response of one pair to a magnetic field B (atomic units)."""

    field: np.ndarray
    splitting: float                    # Hartree
    moment: np.ndarray                  # lab frame, ground state
    moment_principal: np.ndarray        # principal-axis frame of g_tot
    principal_axes: np.ndarray          # columns: lab directions of axes


def zeeman_response(gset: GTensorSet, field) -> FieldResponse:
    """Splitting and ground-state moment for a field in atomic units.

    Delta E = mu_B sqrt(B.G B); the ground-state magnetic moment in the
    principal frame is M_i = mu_B^2 Sigma_ii^2 B_i / (2 Delta E).
    """
    b = np.asarray(field, dtype=float)
    u, sigma, _ = gset.svd_tot
    splitting = MU_B * float(np.sqrt(b @ gset.G @ b))
    if splitting == 0.0:
        raise ZeroSplittingError(
            "Zeeman splitting vanishes; ground-state moment undefined")
    b_pa = u.T @ b
    m_pa = MU_B ** 2 * sigma ** 2 * b_pa / (2.0 * splitting)
    return FieldResponse(
        field=b,
        splitting=splitting,
        moment=u @ m_pa,
        moment_principal=m_pa,
        principal_axes=u,
    )


def pair_zeeman_hamiltonian(pair: KramersPair, sol: BlochSolution,
                            pi: np.ndarray, field) -> np.ndarray:
    """Direct 2x2 pair Hamiltonian mu_B sum_i B_i (2S_i + L_i).

    Oracle counterpart of :func:`zeeman_response`: its eigenvalue
    splitting must match mu_B sqrt(B.G B).
    """
    b = np.asarray(field, dtype=float)
    blocks = spin_matrices(pair) + orbital_matrices(pair, sol, pi)
    return MU_B * np.einsum('i,iab->ab', b, blocks)


def _make_proper(u, sigma, vh) -> tuple:
    """Move a reflection of ``vh`` into ``u``, leaving the inputs intact."""
    if np.linalg.det(vh) < 0:
        vh = vh.copy()
        vh[2, :] *= -1.0
        u = u.copy()
        u[:, 2] *= -1.0
    return u, sigma, vh


def proper_svd(g: np.ndarray) -> tuple:
    """SVD g = u diag(sigma) vh with det(vh) = +1.

    A sign flip is absorbed into u, so u may be improper; sigma stays
    descending and non-negative.
    """
    return _make_proper(*np.linalg.svd(g))


def align_pair_to_spin_frame(pair: KramersPair,
                             svd: tuple | None = None) -> tuple:
    """Re-mix the pair so its spin g-tensor becomes u diag(sigma).

    Returns (aligned_pair, u, sigma): the SU(2) re-mixing W whose
    adjoint rotation equals the proper right factor of g_S = u sigma vh
    is applied to (xi, xi_bar), after which the spin tensor's right
    frame is the identity.  The smallest-singular-value axis is then
    the third pair-Pauli direction, the configuration entanglement
    statements refer to.

    ``svd`` is ``np.linalg.svd`` of the pair's g_S when the caller has
    it already (``GTensorSet.svd_s``); otherwise g_S is formed and
    factored here.  Its arrays are not modified.
    """
    if svd is None:
        svd = np.linalg.svd(spin_g(pair))
    u, sigma, vh = _make_proper(*svd)
    w_adjoint = su2_from_rotation(vh)
    aligned = remix_pair(pair, w_adjoint.conj())
    return aligned, u, sigma
