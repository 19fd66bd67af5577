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

import weakref

import numpy as np

from .materials import MaterialModel
from .slater_koster import SHELL, hop_block
from .su2 import PAULI

# A -> B bond directions in units of a/4
NN_SIGNS = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
                    dtype=float)

_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI_CIVITA[_i, _j, _k] = 1.0
    _LEVI_CIVITA[_i, _k, _j] = -1.0


def nn_vectors(model: MaterialModel) -> np.ndarray:
    """The four A->B bond vectors in Bohr, shape (4, 3)."""
    return NN_SIGNS * (model.lattice_constant / 4.0)


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
        self.hop_flat = np.array(
            [hop_block(model.orbitals, u, v_ab, v_ba) for u in unit]
        ).reshape(len(unit), n * n)
        # d/dk_j of the bond phase exponents, one contiguous row per j
        self.i_nn = np.ascontiguousarray(1j * self.nn.T)
        onsite = [model.onsite[sp][SHELL[o]]
                  for sp in model.species for o in model.orbitals]
        self.soc = self._soc_matrix(model)
        # k-independent part of H: on-site energies of both spins + SOC
        self.base = np.zeros((self.dim, self.dim), dtype=complex)
        self.base[np.arange(self.dim), np.arange(self.dim)] = onsite * 2
        self.base += self.soc
        self.dipole = self._dipole_matrix(model)

    def _soc_matrix(self, model):
        n, dim = self.n, self.dim
        soc = np.zeros((dim, dim), dtype=complex)
        for atom, sp in enumerate(model.species):
            lam = model.soc[sp]
            if lam == 0.0:
                continue
            for a in range(3):
                for j in range(3):
                    for k in range(3):
                        eps = _LEVI_CIVITA[a, j, k]
                        if eps == 0.0:
                            continue
                        for s in range(2):
                            for t in range(2):
                                sig = PAULI[a, s, t]
                                if sig == 0:
                                    continue
                                row = s * 2 * n + atom * n + 1 + j
                                col = t * 2 * n + atom * n + 1 + k
                                soc[row, col] += 0.5 * lam * (-1j) * eps * sig
        return soc

    def _dipole_matrix(self, model):
        # intra-atomic <s|r_j|p_j> only; x -> px, y -> py, z -> pz
        n, dim = self.n, self.dim
        d = np.zeros((3, dim, dim))
        for atom, sp in enumerate(model.species):
            d0 = model.dipole[sp]
            for s in range(2):
                base = s * 2 * n + atom * n
                for j in range(3):
                    d[j, base, base + 1 + j] = d0
                    d[j, base + 1 + j, base] = d0
        return d

    def h(self, k):
        n = self.n
        phases = np.exp(1j * (self.nn @ k))
        hab = np.dot(phases[None], self.hop_flat).reshape(n, n)
        hba = hab.conj().T
        h = self.base.copy()
        for s in (0, 2 * n):              # the two spin blocks
            h[s:s + n, s + n:s + 2 * n] = hab
            h[s + n:s + 2 * n, s:s + n] = hba
        h += 0.0          # clears the sign of zeros: bitwise onsite + hop + SOC
        return h

    def grad(self, k):
        """dH/dk_j for j = x, y, z, shape (3, dim, dim).

        Only the A-B hopping depends on k: each direction's derivative
        block goes straight into both spin blocks of a zero array.
        """
        n = self.n
        phases = np.exp(1j * (self.nn @ k))
        out = np.zeros((3, self.dim, self.dim), dtype=complex)
        for j, weights in enumerate(self.i_nn * phases):
            dhab = np.dot(weights[None], self.hop_flat).reshape(n, n)
            dhba = dhab.conj().T
            for s in (0, 2 * n):          # the two spin blocks
                out[j, s:s + n, s + n:s + 2 * n] = dhab
                out[j, s + n:s + 2 * n, s:s + n] = dhba
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


def dipole_matrix(model: MaterialModel) -> np.ndarray:
    """Intra-atomic position operator blocks, shape (3, dim, dim), Bohr.

    Only <s|r|p> elements on each atom are non-zero; the excited s2
    orbital and the d shell carry no dipole.
    """
    return _engine(model).dipole


def soc_matrix(model: MaterialModel) -> np.ndarray:
    """The k-independent on-site spin-orbit term of H(k)."""
    return _engine(model).soc.copy()
