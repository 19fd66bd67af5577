import numpy as np
import pytest

from gtensor_tb import (NearDegenerateIntermediateError, PairUndefinedError,
                        ZeroSplittingError, align_pair_to_spin_frame,
                        boundary_radius, cubic_group, det_sign, g_tensor_set,
                        momentum_table, orbital_g, orbital_matrices,
                        pair_zeeman_hamiltonian, proper_svd, remix_pair,
                        select_pair, solve, spin_g, spin_matrices,
                        wedge_directions, zeeman_response)
from gtensor_tb.hamiltonian import dipole_matrix, hamiltonian_gradient
from gtensor_tb.surface import N_COARSE
from gtensor_tb.su2 import random_su2, su2_from_rotation
from gtensor_tb.units import MU_B

from conftest import bitwise_k_points, random_k_points, random_unit_vectors
from oracles import EPS_CYCLES, orbital_matrices_commutator


def _pair_and_tensors(model, k, band_id="split-off"):
    sol = solve(model, np.asarray(k, dtype=float))
    pair = select_pair(model, sol, band_id)
    pi = momentum_table(model, sol)
    return sol, pair, pi, g_tensor_set(model, sol, pair, pi)


# --- momentum table -------------------------------------------------------

def test_momentum_table_is_hermitian(si, gaas):
    for model in (si, gaas):
        sol = solve(model, np.array([0.06, 0.03, -0.02]))
        pi = momentum_table(model, sol)
        for j in range(3):
            assert np.linalg.norm(pi[j] - pi[j].conj().T, np.inf) < 1e-12


def test_momentum_diagonal_is_band_velocity(si):
    # dipole term has an (E_n - E_m) weight, so diagonals must equal the
    # finite-difference slope of the band energies
    direction = np.array([1.0, 0.0, 0.0])
    k0, step = 0.08, 1e-5
    sol = solve(si, k0 * direction)
    pi = momentum_table(si, sol)
    e_plus = solve(si, (k0 + step) * direction).energies
    e_minus = solve(si, (k0 - step) * direction).energies
    fd = (e_plus - e_minus) / (2 * step)
    assert np.abs(np.diag(pi[0]).real - fd).max() < 1e-5


# --- spin tensor at high symmetry -----------------------------------------

@pytest.mark.parametrize("material", ["si", "ge"])
def test_split_off_spin_tensor_at_gamma(material, request):
    # j=1/2-like doublet: all three singular values 2/3, det = -8/27
    model = request.getfixturevalue(material)
    _, _, _, gset = _pair_and_tensors(model, np.zeros(3))
    assert gset.det_g_s == pytest.approx(-8.0 / 27.0, abs=1e-10)
    assert np.allclose(gset.sigma_s, 2.0 / 3.0, atol=1e-10)


def test_zero_soc_pair_is_free_spin(si_nosoc):
    # without SOC every doublet is a pure spin doublet: |g_S| = 2 per
    # axis and det = +8 in any gauge
    sol = solve(si_nosoc, np.array([0.07, 0.03, 0.01]))
    pair = select_pair(si_nosoc, sol, (0, 1))
    g = spin_g(pair)
    assert np.linalg.det(g) == pytest.approx(8.0, abs=1e-10)
    assert np.allclose(np.linalg.svd(g, compute_uv=False), 2.0, atol=1e-10)


def test_spin_matrices_are_hermitian_blocks(si):
    sol = solve(si, np.array([0.04, 0.01, 0.02]))
    pair = select_pair(si, sol, "split-off")
    two_s = spin_matrices(pair)
    for i in range(3):
        assert np.abs(two_s[i] - two_s[i].conj().T).max() < 1e-13
        # spin-1/2 bound: pair-projected |2S| <= 1
        assert np.abs(np.linalg.eigvalsh(two_s[i])).max() <= 1.0 + 1e-12


# --- orbital tensor routes -------------------------------------------------

def test_orbital_routes_agree_for_degenerate_pair(si, ge):
    for model in (si, ge):
        for k in random_k_points(23, 3, scale=0.08):
            sol = solve(model, k)
            pair = select_pair(model, sol, "split-off")
            pi = momentum_table(model, sol)
            la = orbital_matrices(pair, sol, pi)
            lb = orbital_matrices_commutator(pair, sol, pi)
            assert np.abs(la - lb).max() < 1e-10


def test_orbital_matrices_hermitian_blocks(si):
    sol = solve(si, np.array([0.05, 0.02, 0.01]))
    pair = select_pair(si, sol, "split-off")
    pi = momentum_table(si, sol)
    blocks = orbital_matrices(pair, sol, pi)
    for i in range(3):
        assert np.abs(blocks[i] - blocks[i].conj().T).max() < 1e-12


def test_near_degenerate_intermediate_guard(si):
    sol = solve(si, np.array([0.05, 0.02, 0.01]))
    pair = select_pair(si, sol, "split-off")
    pi = momentum_table(si, sol)
    with pytest.raises(NearDegenerateIntermediateError):
        orbital_matrices(pair, sol, pi, energy_floor=10.0)


def test_no_hopping_no_dipole_kills_orbital_moment(si):
    # hopping off and dipole zeroed: pi vanishes identically, so the
    # doublet keeps only its bare spin tensor
    from gtensor_tb import atomic_g
    gset = atomic_g(si, "Si", dipole=0.0)
    assert np.abs(gset.g_l).max() < 1e-13
    assert np.abs(gset.g_tot - gset.g_s).max() < 1e-13
    assert np.allclose(gset.sigma_s, 2.0 / 3.0, atol=1e-12)
    assert gset.det_g_s == pytest.approx(-8.0 / 27.0, abs=1e-12)


# --- invariances -----------------------------------------------------------

def test_su2_gauge_invariance_of_G_and_det(si):
    rng = np.random.default_rng(5)
    sol = solve(si, np.array([0.06, 0.03, 0.02]))
    pair = select_pair(si, sol, "split-off")
    pi = momentum_table(si, sol)
    ref = g_tensor_set(si, sol, pair, pi)
    for _ in range(4):
        mixed = remix_pair(pair, random_su2(rng))
        alt = g_tensor_set(si, sol, mixed, pi)
        # g transforms as g -> g R^T: G, dets, singular values invariant
        assert np.abs(alt.G - ref.G).max() < 1e-10
        assert alt.det_g_s == pytest.approx(ref.det_g_s, abs=1e-12)
        assert alt.det_g_tot == pytest.approx(ref.det_g_tot, abs=1e-10)
        assert np.abs(alt.sigma_tot - ref.sigma_tot).max() < 1e-10


def test_point_group_covariance_of_G(si):
    k = np.array([0.07, 0.04, 0.01])
    _, _, _, ref = _pair_and_tensors(si, k)
    for op in cubic_group()[::5]:
        _, _, _, rot = _pair_and_tensors(si, op @ k)
        assert np.abs(rot.G - op @ ref.G @ op.T).max() < 1e-8
        assert rot.det_g_tot == pytest.approx(ref.det_g_tot, abs=1e-9)


# --- Zeeman response --------------------------------------------------------

def test_pair_hamiltonian_splitting_matches_G_formula(si, gaas):
    for model, band in ((si, "split-off"), (gaas, "split-off")):
        sol, pair, pi, gset = _pair_and_tensors(
            model, np.array([0.05, 0.03, 0.02]), band)
        for b_hat in random_unit_vectors(31, 5):
            b = 1e-6 * b_hat     # linear-response scale, atomic units
            h2 = pair_zeeman_hamiltonian(pair, sol, pi, b)
            assert np.abs(h2 - h2.conj().T).max() < 1e-18
            w = np.linalg.eigvalsh(h2)
            resp = zeeman_response(gset, b)
            assert (w[1] - w[0]) == pytest.approx(resp.splitting,
                                                  rel=1e-9)


def test_zeeman_response_moment_geometry(si):
    _, _, _, gset = _pair_and_tensors(si, np.array([0.05, 0.03, 0.02]))
    b = 1e-6 * np.array([0.0, 0.0, 1.0])
    resp = zeeman_response(gset, b)
    u = resp.principal_axes
    assert np.abs(u.T @ u - np.eye(3)).max() < 1e-12
    assert np.abs(resp.moment - u @ resp.moment_principal).max() < 1e-18
    # moment along B recovers d(DeltaE)/dB / 2 = mu_B^2 B.G B / (2 DeltaE B)
    proj = float(resp.moment @ b) / np.linalg.norm(b)
    expected = MU_B ** 2 * float(b @ gset.G @ b) / (
        2.0 * resp.splitting * np.linalg.norm(b))
    assert proj == pytest.approx(expected, rel=1e-12)


def test_zero_field_raises(si):
    _, _, _, gset = _pair_and_tensors(si, np.array([0.05, 0.03, 0.02]))
    with pytest.raises(ZeroSplittingError):
        zeeman_response(gset, np.zeros(3))


# --- linear algebra helpers -------------------------------------------------

def test_det_sign_matches_determinant(si):
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = rng.normal(size=(3, 3))
        assert det_sign(g) == int(np.sign(np.linalg.det(g)))


def _svd_sign(g):
    """Sign of det(g) as det(U) det(V) of its SVD."""
    u, _, vh = np.linalg.svd(g)
    return int(round(np.linalg.det(u) * np.linalg.det(vh)))


@pytest.mark.parametrize("material, band",
                         [("si", "split-off"), ("ge", "second-conduction")])
def test_det_sign_matches_svd_sign_on_wedge_surface_samples(material, band,
                                                           request):
    model = request.getfixturevalue(material)
    compared = 0
    for d in wedge_directions(1):
        r_max = boundary_radius(model.lattice_constant, d)
        for r in np.linspace(0.0, r_max, N_COARSE):
            try:
                pair = select_pair(model, solve(model, r * d), band)
            except PairUndefinedError:
                continue
            g = spin_g(pair)
            assert det_sign(g) == _svd_sign(g), r * d
            compared += 1
    assert compared > N_COARSE


def test_det_sign_matches_svd_sign_near_singular():
    rng = np.random.default_rng(23)
    for smallest in np.logspace(-12, 0, 49):
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        g = u @ np.diag([2.0, 1.0 + rng.random(), smallest]) @ v.T
        expected = int(np.sign(np.linalg.det(u) * np.linalg.det(v)))
        assert det_sign(g) == _svd_sign(g) == expected, smallest


def test_det_sign_of_zero_row_is_plus_one():
    rng = np.random.default_rng(31)
    for row in range(3):
        for _ in range(5):
            g = rng.normal(size=(3, 3))
            g[row] = 0.0
            assert det_sign(g) == 1


def test_proper_svd_reconstructs_with_proper_right_factor(si):
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = rng.normal(size=(3, 3))
        u, sigma, vh = proper_svd(g)
        assert np.linalg.det(vh) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(u @ np.diag(sigma) @ vh - g).max() < 1e-12
        assert np.all(np.diff(sigma) <= 0) and sigma[-1] >= 0


def test_align_pair_to_spin_frame_identity_right_frame(si):
    sol = solve(si, np.array([0.06, 0.02, 0.01]))
    pair = select_pair(si, sol, "split-off")
    aligned, u, sigma = align_pair_to_spin_frame(pair)
    g_aligned = spin_g(aligned)
    assert np.abs(g_aligned - u @ np.diag(sigma)).max() < 1e-10
    # alignment is a pure gauge move: subspace unchanged
    p0 = pair.states @ pair.states.conj().T
    p1 = aligned.states @ aligned.states.conj().T
    assert np.abs(p0 - p1).max() < 1e-12


# --- stacked layers against their per-direction loops ----------------------
# Each reference repeats the arithmetic of the layer one direction, cycle
# or matrix at a time; the library must give the same bytes.

def _pair_points(model, seed):
    """(k, sol, pair) at Gamma, X, L and 50 seeded k where a pair exists.

    At X every Si/Ge band is fourfold, so no isolated pair exists there.
    """
    out = []
    for k in bitwise_k_points(model, seed, scale=0.3):
        sol = solve(model, k)
        try:
            out.append((k, sol, select_pair(model, sol, "split-off")))
        except PairUndefinedError:
            continue
    assert len(out) >= 52
    return out


def _reference_momentum_table(model, sol):
    a = sol.states
    grad = hamiltonian_gradient(model, sol.k)
    dip = dipole_matrix(model)
    ediff = sol.energies[:, None] - sol.energies[None, :]
    pi = np.empty_like(grad)
    for j in range(3):
        pi[j] = a.conj().T @ grad[j] @ a \
            + 1j * ediff * (a.conj().T @ dip[j] @ a)
    return pi


def _reference_orbital_matrices(pair, sol, pi):
    ia, ib = pair.band_indices
    others = np.delete(np.arange(sol.energies.size), [ia, ib])
    e_rest = sol.energies[others]
    w2 = sol.states[:, [ia, ib]].conj().T @ pair.states
    p = np.matmul(w2.conj().T, pi[:, [ia, ib], :][:, :, others])
    q = np.matmul(pi[:, others, :][:, :, [ia, ib]], w2)
    w = 1.0 / (pair.pair_energy - e_rest)
    out = np.zeros((3, 2, 2), dtype=complex)
    for i, j, k in EPS_CYCLES:
        out[i] = -0.5j * ((p[j] * w) @ q[k] - (p[k] * w) @ q[j])
    return out


def _bytes(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_momentum_table_bitwise_equals_reference_loop(material, request):
    model = request.getfixturevalue(material)
    for k in bitwise_k_points(model, 97):
        sol = solve(model, k)
        assert (momentum_table(model, sol).tobytes()
                == _reference_momentum_table(model, sol).tobytes()), k


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_orbital_matrices_bitwise_equal_cycle_loop(material, request):
    model = request.getfixturevalue(material)
    for k, sol, pair in _pair_points(model, 101):
        pi = momentum_table(model, sol)
        assert (orbital_matrices(pair, sol, pi).tobytes()
                == _reference_orbital_matrices(pair, sol, pi).tobytes()), k


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_g_tensor_set_bitwise_equals_separate_factorisations(material,
                                                             request):
    model = request.getfixturevalue(material)
    for k, sol, pair in _pair_points(model, 103):
        pi = momentum_table(model, sol)
        gset = g_tensor_set(model, sol, pair, pi)
        g_s = spin_g(pair)
        g_tot = g_s + orbital_g(_reference_orbital_matrices(pair, sol, pi))
        assert _bytes(gset.g_s, gset.g_tot, gset.G) == _bytes(
            g_s, g_tot, g_tot @ g_tot.T), k
        assert _bytes(*gset.svd_s) == _bytes(*np.linalg.svd(g_s)), k
        assert _bytes(*gset.svd_tot) == _bytes(*np.linalg.svd(g_tot)), k
        assert _bytes(gset.det_g_s, gset.det_g_tot) == _bytes(
            float(np.linalg.det(g_s)), float(np.linalg.det(g_tot))), k


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_align_with_given_svd_bitwise_equals_proper_svd_route(material,
                                                              request):
    model = request.getfixturevalue(material)
    for k, sol, pair in _pair_points(model, 107):
        g_s = spin_g(pair)
        u, sigma, vh = proper_svd(g_s)
        expected = _bytes(
            remix_pair(pair, su2_from_rotation(vh).conj()).states, u, sigma)
        svd = g_tensor_set(model, sol, pair).svd_s
        kept = _bytes(*svd)
        for given in (svd, None):
            aligned, u_out, sigma_out = align_pair_to_spin_frame(pair, given)
            assert _bytes(aligned.states, u_out, sigma_out) == expected, k
        assert _bytes(*svd) == kept         # the given SVD is not modified
