"""Bloch Hamiltonian, its analytic k-gradient, and on-site operators.

Lattice
-------
Diamond/zincblende: FCC lattice with a two-atom basis at (0,0,0) and
(a/4)(1,1,1).  Nearest-neighbour vectors from sublattice A to B are the
four (a/4)(±1,±1,±1) with an even number of minus signs.

Conventions
-----------
* Basis state index = spin*(2*n_orb) + atom*n_orb + orbital (spin slowest).
* Bloch phases attach to absolute atomic positions, exp(i k.(R + tau_b
  - tau_a)), so grad_k H is the velocity operator up to the intra-atomic
  dipole correction.  Under k -> k+G the Hamiltonian is unitarily
  equivalent (identical spectrum), not elementwise equal.
* Spin-orbit coupling acts on the p shell only: H_SO = lambda_p L.S,
  i.e. elements (lambda_p/2) * (-i eps_{ajk}) * sigma_a between p_j and
  p_k.  d-shell SOC is zero.
"""
from __future__ import annotations

import threading
import weakref

import numpy as np

from .brillouin import NN_SIGNS
from .materials import MaterialModel
from .slater_koster import PARITY, SHELL, hop_block
from .su2 import PAULI

_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI_CIVITA[_i, _j, _k] = 1.0
    _LEVI_CIVITA[_i, _k, _j] = -1.0

# the orbitals that z -> -z maps to minus themselves
_Z_ODD = ("pz", "dyz", "dzx")


def nn_vectors(model: MaterialModel) -> np.ndarray:
    """The four A->B bond vectors in Bohr, shape (4, 3)."""
    return NN_SIGNS * (model.lattice_constant / 4.0)


class _Scratch(threading.local):
    """One thread's H(k) buffer: the k-independent part of H, and views
    of its A->B and B->A hopping blocks in both spin blocks at once.

    Only the hopping blocks are written, and every H(k) is a fresh sum
    taken from the buffer, so the rest of it keeps the k-independent
    part.  The buffer is per thread because it is written per call.
    """

    def __init__(self, base, n):
        self.h = base.copy()
        m = 2 * n
        # (spin, orbital, spin, orbital) -> the two spin-diagonal blocks
        spin_blocks = np.einsum('sisj->sij', self.h.reshape(2, m, 2, m))
        self.ab = spin_blocks[:, :n, n:]
        self.ba = spin_blocks[:, n:, :n]


class _Engine:
    """Precomputed k-independent pieces for one material.

    Holds no reference to the model, which keys the weak engine cache:
    a reference here would keep every loaded model and engine alive.
    """

    def __init__(self, model: MaterialModel):
        n = model.n_orb
        self.n = n
        self.dim = model.dim
        self.nn = nn_vectors(model)
        sp_a, sp_b = model.species
        v_ab = model.sk[(sp_a, sp_b)]
        v_ba = model.sk[(sp_b, sp_a)]
        unit = self.nn / np.linalg.norm(self.nn, axis=1)[:, None]
        # complex, so that no product casts it per call
        self.hop_flat = np.array(
            [hop_block(model.orbitals, u, v_ab, v_ba) for u in unit],
            dtype=complex).reshape(len(unit), n * n)
        # d/dk_j of the bond phase exponents, one contiguous row per j
        self.i_nn = np.ascontiguousarray(1j * self.nn.T)
        onsite = [model.onsite[sp][SHELL[o]]
                  for sp in model.species for o in model.orbitals]
        # k-independent part of H: on-site energies of both spins + SOC
        self.base = self._soc_matrix(model)
        self.base[np.arange(self.dim), np.arange(self.dim)] += onsite * 2
        self.dipole = self._dipole_matrix(model)
        self._scratch = _Scratch(self.base, n)
        if model.point_group == "Oh":
            self._diamond_symmetries(model)

    def _diamond_symmetries(self, model):
        """The k_z = 0 glide of the diamond structure and PT.

        Bloch phases on absolute positions make both k-independent.  The
        glide {z -> -z | (a/4)(1, 1, 1)} is i sigma_z (x) swap (x) R_z,
        with R_z = -1 on pz, dyz and dzx; on k_z = 0 it commutes with
        H(k), and it squares to -1.  The columns of the real isometry W
        (``glide_w``) span its +i eigenspace: (|s, A, o> + (+1, -1)[s]
        R_z(o) |s, B, o>) / sqrt 2 for each spin s and orbital o, in the
        order of the basis.  PT = U K, with U = i sigma_y (x) swap (x)
        (-1)^l, satisfies U H(k)* U^dag = H(k) exactly; it commutes with
        the glide, so ``glide_pt_w`` = PT W = U W, row r of which is
        (+1, -1)[s] (-1)^l row (1 - s, 1 - atom, o) of W, spans the -i
        eigenspace.
        """
        n, dim = self.n, self.dim
        state = np.arange(dim).reshape(2, 2, n)      # spin, atom, orbital
        spin_sign = np.array([[1.0], [-1.0]])
        parity = [PARITY[SHELL[o]] for o in model.orbitals]
        mirror = np.array([-1.0 if o in _Z_ODD else 1.0
                           for o in model.orbitals])
        self.glide_half_mirror = 0.5 * mirror
        cols = np.arange(dim // 2).reshape(2, n)
        w = np.zeros((dim, dim // 2), dtype=complex)
        w[state[:, 0], cols] = np.sqrt(0.5)
        w[state[:, 1], cols] = np.sqrt(0.5) * spin_sign * mirror
        self.glide_w = w
        sign = np.repeat(spin_sign * parity, 2, axis=0).ravel()
        self.glide_pt_w = sign[:, None] * w[state[::-1, ::-1].ravel()]
        self.glide_base = w.T @ self.base @ w

    def _soc_matrix(self, model):
        # lambda_p L.S = sum_a sigma_a (x) (lambda_p/2) L_a, with
        # (L_a)_jk = -i eps_ajk on each atom's p slots
        n = self.n
        half_l = np.zeros((3, 2 * n, 2 * n), dtype=complex)
        for atom, sp in enumerate(model.species):
            p = slice(atom * n + 1, atom * n + 4)
            half_l[:, p, p] = -0.5j * model.soc[sp] * _LEVI_CIVITA
        return sum(np.kron(PAULI[a], half_l[a]) for a in range(3))

    def _dipole_matrix(self, model):
        # intra-atomic <s|r_j|p_j> only; x -> px, y -> py, z -> pz
        n = self.n
        block = np.zeros((3, 2 * n, 2 * n))
        for atom, sp in enumerate(model.species):
            s, p = atom * n, np.arange(atom * n + 1, atom * n + 4)
            block[[0, 1, 2], s, p] = model.dipole[sp]
            block[[0, 1, 2], p, s] = model.dipole[sp]
        return np.array([np.kron(np.eye(2), b) for b in block])

    def h(self, k):
        n = self.n
        scratch = self._scratch
        hab = np.exp(1j * self.nn.dot(k)).dot(self.hop_flat).reshape(n, n)
        scratch.ab[...] = hab
        scratch.ba[...] = hab.conj().T
        # a fresh array; + 0.0 clears the sign of zeros, so H is bitwise
        # onsite + hop + SOC
        return scratch.h + 0.0

    def grad(self, k):
        """dH/dk_j for j = x, y, z, shape (3, dim, dim).

        Only the A-B hopping depends on k: one product forms the A->B
        derivative block of all three directions, and it and its adjoint
        go straight into both spin blocks of a zero array.
        """
        n = self.n
        phases = np.exp(1j * self.nn.dot(k))
        hab = np.dot(self.i_nn * phases, self.hop_flat).reshape(3, n, n)
        out = np.zeros((3, self.dim, self.dim), dtype=complex)
        out[:, :n, n:2 * n] = out[:, 2 * n:3 * n, 3 * n:] = hab
        out[:, n:2 * n, :n] = out[:, 3 * n:, 2 * n:3 * n] = \
            hab.conj().transpose(0, 2, 1)
        return out


_engines: "weakref.WeakKeyDictionary[MaterialModel, _Engine]" = \
    weakref.WeakKeyDictionary()


def _engine(model: MaterialModel) -> _Engine:
    eng = _engines.get(model)
    if eng is None:
        eng = _Engine(model)
        _engines[model] = eng
    return eng


def bloch_hamiltonian(model: MaterialModel, k) -> np.ndarray:
    """H(k), Hermitian, shape (dim, dim), Hartree; k in 1/Bohr."""
    return _engine(model).h(np.asarray(k, dtype=float))


def hamiltonian_gradient(model: MaterialModel, k) -> np.ndarray:
    """dH/dk_j, shape (3, dim, dim), Hartree*Bohr."""
    return _engine(model).grad(np.asarray(k, dtype=float))


def glide_block(model: MaterialModel, h: np.ndarray) -> tuple:
    """``(W^T H W, W, PT W)``: H(k) on the +i eigenspace of the k_z = 0
    glide, and the isometries onto the glide's +i and -i eigenspaces.

    O_h only, and only on k_z = 0, where the glide commutes with H(k):
    there each Kramers doublet of H(k) is one band of the order dim/2
    block, and a block eigenvector y gives the doublet's two states [W y,
    (PT W) y*] of H(k), in the +i and -i eigenspaces: PT is antiunitary,
    squares to -1 and commutes with H(k), so PT (W y) = (PT W) y* is
    orthogonal to W y and has its energy.  The block is a fresh
    C-ordered array.  Only the A->B block hab of H (and its adjoint)
    depends on k, and W^T . W takes it to +X in spin up and -X in spin
    down, X being the Hermitian part of hab R_z.
    """
    eng = _engine(model)
    n = eng.n
    x = h[:n, n:2 * n] * eng.glide_half_mirror
    x += x.conj().T
    block = eng.glide_base.copy()
    block[:n, :n] += x
    block[n:, n:] -= x
    return block, eng.glide_w, eng.glide_pt_w


def dipole_matrix(model: MaterialModel) -> np.ndarray:
    """Intra-atomic position operator blocks, shape (3, dim, dim), Bohr.

    Only <s|r|p> elements on each atom are non-zero; the excited s2
    orbital and the d shell carry no dipole.
    """
    return _engine(model).dipole

