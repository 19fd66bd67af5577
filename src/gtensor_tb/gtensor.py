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
import functools

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

    Gradient and dipole blocks go through one chain, A^dag [grad; D] A.
    """
    if sol.first != 0 or sol.energies.size != model.dim:
        raise ValueError("momentum_table needs the full spectrum, got bands "
                         f"{sol.first}..{sol.first + sol.energies.size - 1} "
                         f"of {model.dim}")
    a = sol.states
    t = a.conj().T @ np.concatenate(
        (hamiltonian_gradient(model, sol.k), dipole_matrix(model))) @ a
    ediff = sol.energies[:, None] - sol.energies[None, :]
    return t[:3] + 1j * ediff * t[3:]


def spin_matrices(pair: KramersPair) -> np.ndarray:
    """Pair-space blocks of the spin operator, (2 S_i) as (3, 2, 2).

    A stack of pairs (``states`` (..., dim, 2)) gives (..., 3, 2, 2),
    each row bit for bit the blocks of that pair alone.
    """
    states = pair.states
    # (..., spin, orbital*atom, pair)
    x = states.reshape(states.shape[:-2] + (2, states.shape[-2] // 2, 2))
    overlap = np.einsum('...sra,...trb->...stab', x.conj(), x)
    return np.einsum('ist,...stab->...iab', PAULI, overlap)


def spin_g(pair: KramersPair) -> np.ndarray:
    """g_S: contraction of the pair spin blocks with the pair Paulis.

    A stack of pairs (``states`` (..., dim, 2)) gives (..., 3, 3), each
    row bit for bit the g_S of that pair alone.
    """
    return orbital_g(spin_matrices(pair))


@dataclasses.dataclass
class PairMomenta:
    """The part of one k-point's momentum table the orbital sum reads.

    With M = dim - 2 other bands: the pair's rows ``pair_rest`` =
    pi[:, pair, others] (3, 2, M) and columns ``rest_pair`` =
    pi[:, others, pair] (3, M, 2), in the pair's own (possibly remixed)
    basis, and the other bands' energies ``rest_energies`` (M,).  A
    stack of k-points carries the same leading axes on every field.
    """

    pair_rest: np.ndarray
    rest_pair: np.ndarray
    rest_energies: np.ndarray


@functools.lru_cache(maxsize=None)
def _pair_and_rest(dim: int, ia: int, ib: int) -> tuple:
    """Index arrays of a pair's two bands and of the other dim - 2."""
    pair = np.array([ia, ib])
    return pair, np.delete(np.arange(dim), pair)


def pair_momenta(model: MaterialModel, sol: BlochSolution,
                 pair: KramersPair) -> PairMomenta:
    """Form the momentum table at one k-point and keep the pair's part.

    Intermediate bands within ``ENERGY_FLOOR`` of the pair energy raise
    :class:`NearDegenerateIntermediateError`.
    """
    pi = momentum_table(model, sol)
    ab, others = _pair_and_rest(sol.energies.size, *pair.band_indices)
    e_rest = sol.energies[others]
    sep = np.abs(e_rest - pair.pair_energy)
    worst = int(np.argmin(sep))
    if sep[worst] <= ENERGY_FLOOR:
        raise NearDegenerateIntermediateError(
            sol.k, int(others[worst]), float(sep[worst]), ENERGY_FLOOR)
    # the pi table lives in the eigh gauge; re-express the pair rows and
    # columns in the pair's own basis so spin and orbital blocks always
    # share one gauge
    w2 = sol.states.take(ab, axis=1).conj().T @ pair.states
    return PairMomenta(
        pair_rest=np.matmul(w2.conj().T,
                            pi.take(ab, axis=1).take(others, axis=2)),
        rest_pair=np.matmul(pi.take(others, axis=1).take(ab, axis=2), w2),
        rest_energies=e_rest,
    )


def orbital_matrices(pair: KramersPair, momenta: PairMomenta) -> np.ndarray:
    """Pair-space orbital-moment blocks L_i, shape (3, 2, 2).

    The mean-energy assembly of the module docstring: every
    pi_j pi_k / (E_pair - E_l) sum is formed, and the three eps_{ijk}
    cycles are read off them.  A stack of pairs with the stacked
    :class:`PairMomenta` of their k-points gives (..., 3, 2, 2), each
    row bit for bit the blocks of that pair alone.
    """
    denom = np.asarray(pair.pair_energy)[..., None] - momenta.rest_energies
    w = (1.0 / denom)[..., None, :]
    # mass[..., j, k, :, :] = sum_l pi_j[:, l] pi_k[l, :] / (E_pair - E_l),
    # one j at a time: on a 200-row stack this holds one weighted block
    # of pi_j rows, not all three
    mass = np.stack([(momenta.pair_rest[..., j, :, :] * w)[..., None, :, :]
                     @ momenta.rest_pair for j in range(3)], axis=-4)
    return -0.5j * (mass[..., _CYCLE_J, _CYCLE_K, :, :]
                    - mass[..., _CYCLE_K, _CYCLE_J, :, :])


def orbital_g(blocks: np.ndarray) -> np.ndarray:
    """g_L from pair-space orbital blocks L_i, or g_S from spin blocks 2S_i.

    Stacked blocks (..., 3, 2, 2) give (..., 3, 3), each row bit for bit
    the tensor of those blocks alone.
    """
    g = np.einsum('...iab,jba->...ij', blocks, PAULI)
    return np.ascontiguousarray(g.real)


@dataclasses.dataclass
class GTensorSet:
    """All g-tensor data of one pair at one k-point, or of a stack."""

    g_s: np.ndarray
    g_l: np.ndarray
    g_tot: np.ndarray
    G: np.ndarray                       # g_tot g_tot^T
    svd_s: tuple                        # (u, sigma, vh) of g_s
    svd_tot: tuple
    det_g_s: float | np.ndarray
    det_g_tot: float | np.ndarray

    @property
    def sigma_s(self) -> np.ndarray:
        return self.svd_s[1]

    @property
    def sigma_tot(self) -> np.ndarray:
        return self.svd_tot[1]


def det_sign(g: np.ndarray) -> int | np.ndarray:
    """Sign of det(g) from its cofactor expansion along the first row.

    Returns +1 or -1, never 0: an exact 0.0 counts as +1.  The rounding
    error is of order 1e-16 |g|^3, so the sign is exact unless the
    smallest singular value is below about 1e-15 |g| (an SVD cannot
    resolve the sign there either).

    A single g gives an int, a stack (..., 3, 3) an int array (...).
    Each g is expanded in Python floats from its nine entries, so a row
    of a stack is the sign of that g alone.  A scan takes far more
    one-row stacks (bisection) than long ones, and on one row this is a
    small fraction of the cost of numpy element-wise arrays.
    """
    signs = [1 if a * (e * r - f * q) - b * (d * r - f * p)
             + c * (d * q - e * p) >= 0.0 else -1
             for a, b, c, d, e, f, p, q, r in g.reshape(-1, 9).tolist()]
    if g.ndim == 2:
        return signs[0]
    return np.array(signs, dtype=int).reshape(g.shape[:-2])


def g_tensor_set(model: MaterialModel, sol: BlochSolution | PairMomenta,
                 pair: KramersPair) -> GTensorSet:
    """Evaluate g_S, g_L, g_tot, G and their SVDs at one k-point.

    ``sol`` is the pair's solved k-point, or the :class:`PairMomenta`
    already taken from it.  A stack of pairs (``states`` (..., dim, 2))
    with the stacked ``PairMomenta`` of their k-points gives every field
    the same leading axes: tensors (..., 3, 3), singular values (..., 3)
    and determinants (...) as arrays.  Each row is bit for bit the set
    of that pair alone, whose determinants are Python floats.
    """
    momenta = (sol if isinstance(sol, PairMomenta)
               else pair_momenta(model, sol, pair))
    g_s = spin_g(pair)
    g_l = orbital_g(orbital_matrices(pair, momenta))
    g_tot = g_s + g_l
    both = np.stack([g_s, g_tot])
    u, sigma, vh = np.linalg.svd(both)
    dets = np.linalg.det(both)
    det_s, det_tot = dets.tolist() if dets.ndim == 1 else dets
    return GTensorSet(
        g_s=g_s,
        g_l=g_l,
        g_tot=g_tot,
        G=g_tot @ g_tot.swapaxes(-1, -2),
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


def _make_proper(u, sigma, vh) -> tuple:
    """Move a reflection of ``vh`` into ``u``, leaving the inputs intact.

    Works on one SVD or on stacked factors (..., 3, 3), row by row.
    """
    sign = np.where(np.linalg.det(vh) < 0, -1.0, 1.0)[..., None]
    vh = vh.copy()
    vh[..., 2, :] *= sign
    u = u.copy()
    u[..., :, 2] *= sign
    return u, sigma, vh


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

    A stack of pairs is one ``KramersPair`` whose ``states`` are
    (..., dim, 2), with any ``svd`` factors stacked over the same
    leading axes (u and vh (..., 3, 3), sigma (..., 3)).  Each row of
    the result is bit for bit the result for that pair alone.
    """
    if svd is None:
        svd = np.linalg.svd(spin_g(pair))
    u, sigma, vh = _make_proper(*svd)
    w_adjoint = su2_from_rotation(vh)
    aligned = remix_pair(pair, w_adjoint.conj())
    return aligned, u, sigma
