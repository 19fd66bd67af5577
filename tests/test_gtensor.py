import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtensor_tb import (NearDegenerateIntermediateError, PairUndefinedError,
                        ZeroSplittingError, align_pair_to_spin_frame,
                        boundary_radius, cubic_group, det_sign, g_tensor_set,
                        gtensor, momentum_table, orbital_g, orbital_matrices,
                        remix_pair, select_pair, solve, spin_g, spin_matrices,
                        wedge_directions, zeeman_response)
from gtensor_tb.gtensor import pair_momenta
from gtensor_tb.surface import N_COARSE
from gtensor_tb.su2 import su2_from_rotation
from gtensor_tb.units import MU_B

from conftest import bitwise_k_points, random_k_points, random_unit_vectors
from oracles import (EPS_CYCLES, momentum_table_four_products,
                     orbital_matrices_commutator, pair_zeeman_hamiltonian,
                     proper_svd, random_su2)


def _pair_and_tensors(model, k, band_id="split-off"):
    sol = solve(model, np.asarray(k, dtype=float))
    pair = select_pair(model, sol, band_id)
    pi = momentum_table(model, sol)
    return sol, pair, pi, g_tensor_set(model, sol, pair)


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
            la = orbital_matrices(pair, pair_momenta(model, sol, pair))
            lb = orbital_matrices_commutator(pair, sol, pi)
            assert np.abs(la - lb).max() < 1e-10


def test_orbital_matrices_hermitian_blocks(si):
    sol = solve(si, np.array([0.05, 0.02, 0.01]))
    pair = select_pair(si, sol, "split-off")
    blocks = orbital_matrices(pair, pair_momenta(si, sol, pair))
    for i in range(3):
        assert np.abs(blocks[i] - blocks[i].conj().T).max() < 1e-12


def test_near_degenerate_intermediate_guard(si, monkeypatch):
    sol = solve(si, np.array([0.05, 0.02, 0.01]))
    pair = select_pair(si, sol, "split-off")
    monkeypatch.setattr(gtensor, "ENERGY_FLOOR", 10.0)
    for reduce in (pair_momenta, g_tensor_set):
        with pytest.raises(NearDegenerateIntermediateError):
            reduce(si, sol, pair)


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
    ref = g_tensor_set(si, sol, pair)
    for _ in range(4):
        mixed = remix_pair(pair, random_su2(rng))
        alt = g_tensor_set(si, sol, mixed)
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


def test_td_determinants_have_full_cubic_symmetry(gaas):
    # T_d lacks inversion, but time reversal maps the pair at k onto the
    # pair at -k and g to diag(-1, 1, -1) g, so det g(-k) = det g(k) and
    # both determinants are invariant under all 48 operations of O_h
    ops = cubic_group()
    for band in gaas.band_pairs:
        for k in random_k_points(71, 8, scale=0.3):
            ref = _pair_and_tensors(gaas, k, band)[3]
            images = [_pair_and_tensors(gaas, op @ k, band)[3] for op in ops]
            for name in ("det_g_s", "det_g_tot"):
                assert np.allclose([getattr(g, name) for g in images],
                                   getattr(ref, name), rtol=1e-10, atol=0.0)


# --- Zeeman response --------------------------------------------------------

def test_pair_hamiltonian_splitting_matches_G_formula(si, gaas):
    for model, band in ((si, "split-off"), (gaas, "split-off")):
        sol, pair, pi, gset = _pair_and_tensors(
            model, np.array([0.05, 0.03, 0.02]), band)
        for b_hat in random_unit_vectors(31, 5):
            b = 1e-6 * b_hat     # linear-response scale, atomic units
            h2 = pair_zeeman_hamiltonian(
                pair, pair_momenta(model, sol, pair), b)
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


@st.composite
def _g_stacks(draw):
    """A stack of 3x3 matrices, some of whose determinants are exactly 0.0.

    A matrix with a zero row, or of small integers with two equal rows,
    is singular, and its cofactor sum is exactly zero (of either sign).
    """
    n = draw(st.integers(0, 12))
    entries = (st.floats(-1e3, 1e3) | st.integers(-3, 3).map(float)
               | st.sampled_from([0.0, -0.0]))
    g = np.array(draw(st.lists(entries, min_size=9 * n, max_size=9 * n)),
                 dtype=float).reshape(n, 3, 3)
    for row in g:
        kind = draw(st.sampled_from(["any", "zero row", "equal rows"]))
        i, j = draw(st.permutations(range(3)))[:2]
        if kind == "zero row":
            row[i] = 0.0
        elif kind == "equal rows":
            row[:] = np.round(row) % 4.0 - 2.0
            row[j] = row[i]
    return g


@settings(max_examples=200, deadline=None)
@given(_g_stacks())
def test_stacked_det_sign_equals_single_calls(g):
    single = [det_sign(row) for row in g]
    assert {type(sign) for sign in single} <= {int}
    stacked = det_sign(g)
    assert stacked.shape == (len(g),)
    assert np.issubdtype(stacked.dtype, np.integer)
    assert stacked.tolist() == single
    assert det_sign(g[None]).tolist() == [single]
    dets = [a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p)
            for (a, b, c), (d, e, f), (p, q, r) in g.tolist()]
    assert all(sign == 1 for sign, det in zip(single, dets) if det == 0.0)


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
                == momentum_table_four_products(model, sol).tobytes()), k


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_orbital_matrices_bitwise_equal_cycle_loop(material, request):
    model = request.getfixturevalue(material)
    for k, sol, pair in _pair_points(model, 101):
        pi = momentum_table(model, sol)
        blocks = orbital_matrices(pair, pair_momenta(model, sol, pair))
        assert (blocks.tobytes()
                == _reference_orbital_matrices(pair, sol, pi).tobytes()), k


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_g_tensor_set_bitwise_equals_separate_factorisations(material,
                                                             request):
    model = request.getfixturevalue(material)
    for k, sol, pair in _pair_points(model, 103):
        pi = momentum_table(model, sol)
        gset = g_tensor_set(model, sol, pair)
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


def _stacked(pairs):
    """The pairs as one KramersPair whose states carry a leading row axis."""
    return dataclasses.replace(pairs[0],
                               states=np.array([p.states for p in pairs]))


def test_proper_svd_of_a_stack_bitwise_equals_single_calls():
    # the library's stacked fix-up against the one-matrix reference
    g = np.random.default_rng(37).normal(size=(30, 3, 3))
    single = [proper_svd(m) for m in g]
    flips = [np.linalg.det(vh) < 0 for vh in np.linalg.svd(g)[2]]
    assert any(flips) and not all(flips)
    for n, factor in enumerate(gtensor._make_proper(*np.linalg.svd(g))):
        assert factor.tobytes() == np.array([s[n] for s in single]).tobytes()


@pytest.mark.parametrize("material", ["si", "gaas"])
def test_align_on_a_stack_bitwise_equals_single_calls(material, request):
    model = request.getfixturevalue(material)
    points = _pair_points(model, 109)
    pairs = [pair for _, _, pair in points]
    given = [g_tensor_set(model, sol, pair).svd_s for _, sol, pair in points]
    svd = [np.array([s[n] for s in given]) for n in range(3)]
    kept = _bytes(*svd)
    aligned, u, sigma = align_pair_to_spin_frame(_stacked(pairs), svd)
    assert _bytes(*svd) == kept         # the given SVD is not modified
    single = [align_pair_to_spin_frame(pair, s)
              for pair, s in zip(pairs, given)]
    assert _bytes(aligned.states, u, sigma) == _bytes(
        np.array([a.states for a, _, _ in single]),
        np.array([x for _, x, _ in single]),
        np.array([x for _, _, x in single]))
    # remix_pair with one matrix per row, and with one shared matrix
    w = np.array([random_su2(np.random.default_rng(n)) for n in range(2)])
    two = _stacked(pairs[:2])
    assert remix_pair(two, w).states.tobytes() == np.array(
        [remix_pair(p, m).states for p, m in zip(pairs[:2], w)]).tobytes()
    assert remix_pair(two, w[0]).states.tobytes() == np.array(
        [remix_pair(p, w[0]).states for p in pairs[:2]]).tobytes()


def _stack_like(template, records):
    """``template`` with every array or float field stacked over
    ``records`` on a new leading axis, of length 0 when there are none;
    tuple fields (band indices) are shared."""
    stacked = {}
    for field in dataclasses.fields(template):
        value = getattr(template, field.name)
        if not isinstance(value, tuple):
            stacked[field.name] = np.array(
                [getattr(r, field.name) for r in records],
                dtype=np.result_type(value)).reshape(-1, *np.shape(value))
    return dataclasses.replace(template, **stacked)


def _gset_fields(gset):
    return [gset.g_s, gset.g_l, gset.g_tot, gset.G, *gset.svd_s,
            *gset.svd_tot, gset.det_g_s, gset.det_g_tot]


@pytest.mark.parametrize("rows", [0, 1, 52])
@pytest.mark.parametrize("material", ["si", "gaas"])
def test_g_tensors_of_a_stack_bitwise_equal_single_calls(material, rows,
                                                         request):
    # every other pair is remixed, so its momenta change gauge too
    model = request.getfixturevalue(material)
    everything = _pair_points(model, 113)
    points = everything[:rows]
    rng = np.random.default_rng(5)
    pairs = [remix_pair(pair, random_su2(rng)) if n % 2 else pair
             for n, (_, _, pair) in enumerate(points)]
    momenta = [pair_momenta(model, sol, pair)
               for (_, sol, _), pair in zip(points, pairs)]
    _, sol0, pair0 = everything[0]
    pair_stack = _stack_like(pair0, pairs)
    momenta_stack = _stack_like(pair_momenta(model, sol0, pair0), momenta)
    single = [g_tensor_set(model, sol, pair)
              for (_, sol, _), pair in zip(points, pairs)]
    stacked = g_tensor_set(model, momenta_stack, pair_stack)
    assert all(type(g.det_g_s) is float and type(g.det_g_tot) is float
               for g in single)
    for n, field in enumerate(_gset_fields(stacked)):
        assert field.shape[0] == rows
        assert field.tobytes() == np.array(
            [_gset_fields(g)[n] for g in single],
            dtype=field.dtype).tobytes(), n
    assert spin_g(pair_stack).tobytes() == np.array(
        [spin_g(p) for p in pairs]).reshape(-1, 3, 3).tobytes()
    assert orbital_matrices(pair_stack, momenta_stack).tobytes() == np.array(
        [orbital_matrices(p, m) for p, m in zip(pairs, momenta)],
        dtype=complex).reshape(-1, 3, 2, 2).tobytes()


def test_align_on_an_empty_stack(si):
    pair = select_pair(si, solve(si, np.array([0.02, 0.0, 0.0])), "split-off")
    empty = dataclasses.replace(pair, states=np.zeros((0, si.dim, 2), complex))
    svd = (np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros((0, 3, 3)))
    aligned, u, sigma = align_pair_to_spin_frame(empty, svd)
    assert aligned.states.shape == (0, si.dim, 2)
    assert u.shape == (0, 3, 3) and sigma.shape == (0, 3)
    # without an SVD a stack factors its own g_S, row by row alike
    aligned, u, sigma = align_pair_to_spin_frame(_stacked([pair, pair]))
    single = align_pair_to_spin_frame(pair)
    assert _bytes(aligned.states, u, sigma) == _bytes(
        *[np.array([x, x]) for x in (single[0].states, *single[1:])])
