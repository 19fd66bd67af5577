import gc
import weakref

import numpy as np
import pytest

from gtensor_tb import (bloch_hamiltonian, builtin_material_path, cubic_group,
                        dipole_matrix, hamiltonian_gradient, load_material,
                        soc_matrix, tetrahedral_group)
from gtensor_tb.hamiltonian import nn_vectors
from gtensor_tb.slater_koster import SHELL, hop_block

from conftest import bitwise_k_points, random_k_points


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_hermiticity_everywhere(material, request):
    model = request.getfixturevalue(material)
    for k in random_k_points(3, 8, scale=0.4):
        h = bloch_hamiltonian(model, k)
        assert np.linalg.norm(h - h.conj().T, np.inf) < 1e-13
        for g in hamiltonian_gradient(model, k):
            assert np.linalg.norm(g - g.conj().T, np.inf) < 1e-13


def test_gradient_matches_finite_differences(si, gaas):
    # independent oracle: central differences of the Bloch matrix
    step = 1e-6
    for model in (si, gaas):
        for k in random_k_points(5, 3, scale=0.3):
            grad = hamiltonian_gradient(model, k)
            for j in range(3):
                dk = np.zeros(3)
                dk[j] = step
                fd = (bloch_hamiltonian(model, k + dk)
                      - bloch_hamiltonian(model, k - dk)) / (2 * step)
                assert np.abs(grad[j] - fd).max() < 1e-7


def test_kramers_degeneracy_with_inversion(si, ge):
    for model in (si, ge):
        for k in random_k_points(7, 5, scale=0.3):
            e = np.linalg.eigvalsh(bloch_hamiltonian(model, k))
            assert np.abs(e[0::2] - e[1::2]).max() < 1e-10


def test_gaas_pairs_split_at_generic_k(gaas):
    k = np.array([0.11, 0.07, 0.03])
    e = np.linalg.eigvalsh(bloch_hamiltonian(gaas, k))
    assert np.abs(e[0::2] - e[1::2]).max() > 1e-6


@pytest.mark.parametrize("material,group", [("si", cubic_group),
                                            ("gaas", tetrahedral_group)])
def test_point_group_spectra(material, group, request):
    model = request.getfixturevalue(material)
    k = np.array([0.13, 0.06, 0.02])
    e0 = np.linalg.eigvalsh(bloch_hamiltonian(model, k))
    for op in group()[::7]:
        e = np.linalg.eigvalsh(bloch_hamiltonian(model, op @ k))
        assert np.abs(e - e0).max() < 1e-10


def test_spectra_periodic_under_reciprocal_translation(si):
    g_vec = (2 * np.pi / si.lattice_constant) * np.array([1.0, 1.0, -1.0])
    k = np.array([0.07, -0.04, 0.02])
    e0 = np.linalg.eigvalsh(bloch_hamiltonian(si, k))
    e1 = np.linalg.eigvalsh(bloch_hamiltonian(si, k + g_vec))
    assert np.abs(e0 - e1).max() < 1e-10


def test_zero_soc_exact_spin_pairs(si_nosoc):
    k = np.array([0.09, 0.05, -0.14])
    h = bloch_hamiltonian(si_nosoc, k)
    dim = h.shape[0] // 2
    # spin blocks decouple and are identical
    assert np.abs(h[:dim, dim:]).max() == 0.0
    assert np.abs(h[:dim, :dim] - h[dim:, dim:]).max() == 0.0


def test_soc_matrix_spectrum(si):
    # p-shell L.S: eigenvalues lambda/2 (j=3/2, x4) and -lambda (j=1/2, x2)
    lam = si.soc["Si"]
    w = np.linalg.eigvalsh(soc_matrix(si))
    w = np.sort(w)
    nonzero = w[np.abs(w) > 1e-15]
    assert len(nonzero) == 12  # two atoms x six p states
    assert np.allclose(sorted(set(np.round(nonzero, 12))),
                       [-lam, lam / 2.0])


def test_dipole_matrix_is_hermitian_s_p_only(si):
    d = dipole_matrix(si)
    orb = len(si.orbitals)
    for j in range(3):
        assert np.linalg.norm(d[j] - d[j].conj().T, np.inf) == 0.0
        block = d[j][: 2 * orb, : 2 * orb]
        # only s <-> p_j entries populated on each atom
        nz = np.argwhere(np.abs(block) > 0)
        for a, b in nz:
            pair = {a % orb, b % orb}
            assert pair == {0, 1 + j}


def test_gamma_degeneracy_pattern(si):
    e = np.linalg.eigvalsh(bloch_hamiltonian(si, np.zeros(3)))
    split_off = e[2:4]
    fourfold = e[4:8]
    assert np.ptp(split_off) < 1e-10 and np.ptp(fourfold) < 1e-10
    # split-off gap is the spin-orbit splitting, ~44 meV for Si
    gap_ev = (fourfold[0] - split_off[0]) * 27.211386245988
    assert gap_ev == pytest.approx(0.0440, abs=0.002)


def _hop_blocks(model):
    """The four A->B hopping blocks, shape (4, n_orb, n_orb)."""
    sp_a, sp_b = model.species
    nn = nn_vectors(model)
    unit = nn / np.linalg.norm(nn, axis=1)[:, None]
    return np.array([hop_block(model.orbitals, u, model.sk[(sp_a, sp_b)],
                               model.sk[(sp_b, sp_a)]) for u in unit])


def _reference_hamiltonian(model, k):
    """Loop-built H(k): zeros + tensordot hopping + spin blocks + SOC."""
    n, dim = model.n_orb, model.dim
    sp_a, sp_b = model.species
    nn = nn_vectors(model)
    blocks = _hop_blocks(model)
    onsite = [model.onsite[sp][SHELL[o]]
              for sp in model.species for o in model.orbitals]
    hab = np.tensordot(np.exp(1j * (nn @ k)), blocks, axes=1)
    horb = np.zeros((2 * n, 2 * n), dtype=complex)
    horb[np.arange(2 * n), np.arange(2 * n)] = onsite
    horb[:n, n:] = hab
    horb[n:, :n] = hab.conj().T
    h = np.zeros((dim, dim), dtype=complex)
    h[:2 * n, :2 * n] = horb
    h[2 * n:, 2 * n:] = horb
    h += soc_matrix(model)
    return h


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_hamiltonian_bitwise_equals_reference_assembly(material, request):
    model = request.getfixturevalue(material)
    for k in bitwise_k_points(model, 83):
        h = bloch_hamiltonian(model, k)
        ref = _reference_hamiltonian(model, k)
        assert np.array_equal(h, ref), k
        # also the sign of every zero
        assert h.tobytes() == ref.tobytes(), k


def _reference_gradient(model, k):
    """Loop-built dH/dk_j: per-direction tensordot into a zero block."""
    n, dim = model.n_orb, model.dim
    nn = nn_vectors(model)
    blocks = _hop_blocks(model)
    phases = np.exp(1j * (nn @ k))
    out = np.zeros((3, dim, dim), dtype=complex)
    for j in range(3):
        dhab = np.tensordot(1j * nn[:, j] * phases, blocks, axes=1)
        block = np.zeros((2 * n, 2 * n), dtype=complex)
        block[:n, n:] = dhab
        block[n:, :n] = dhab.conj().T
        out[j, :2 * n, :2 * n] = block
        out[j, 2 * n:, 2 * n:] = block
    return out


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_gradient_bitwise_equals_reference_loop(material, request):
    model = request.getfixturevalue(material)
    for k in bitwise_k_points(model, 89):
        grad = hamiltonian_gradient(model, k)
        assert grad.tobytes() == _reference_gradient(model, k).tobytes(), k


def test_engine_cache_releases_unused_models():
    # every CLI call loads its own model; the per-model engine must go
    # with it, or a long-running process grows by one engine per call
    model = load_material(builtin_material_path("gaas"))
    bloch_hamiltonian(model, np.zeros(3))
    alive = weakref.ref(model)
    del model
    gc.collect()
    assert alive() is None
