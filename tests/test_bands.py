import struct
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtensor_tb import (PairingAmbiguityError, PairUndefinedError, blas,
                        boundary_radius, select_pair, solve, surface,
                        wedge_directions)
from gtensor_tb import bands as band_module
from gtensor_tb.bands import BlochSolution, remix_pair, resolve_band_indices
from gtensor_tb.brillouin import high_symmetry_point, icosphere_directions
from gtensor_tb.errors import InputError
from gtensor_tb.gtensor import det_sign, momentum_table, pair_momenta, spin_g
from gtensor_tb.hamiltonian import bloch_hamiltonian
from gtensor_tb.materials import PAIR_SPLIT_TOL

from conftest import bitwise_k_points, random_k_points
from oracles import glide_unitary, pt_unitary


def test_solve_reproduces_eigensystem(si):
    k = np.array([0.05, 0.02, -0.01])
    sol = solve(si, k)
    assert np.all(np.diff(sol.energies) >= 0)
    h = bloch_hamiltonian(si, k)
    resid = h @ sol.states - sol.states * sol.energies
    assert np.abs(resid).max() < 1e-12


@pytest.mark.parametrize("material", ["si", "gaas"])
def test_full_solve_is_plain_eigh(request, material, monkeypatch):
    # the whole spectrum never asks for the window route and gives
    # eigh's bytes
    model = request.getfixturevalue(material)
    calls = []
    monkeypatch.setattr(blas, "_lapack", lambda: calls.append(1))
    for k in random_k_points(17, 5, scale=0.6):
        energies, states = np.linalg.eigh(bloch_hamiltonian(model, k))
        sol = solve(model, k)
        assert sol.first == sol.first_state == 0
        assert sol.energies.tobytes() == energies.tobytes()
        assert sol.states.tobytes() == states.tobytes()
    assert calls == []


def test_resolve_band_labels(si):
    assert resolve_band_indices(si, "split-off") == (2, 3)
    assert resolve_band_indices(si, "first-conduction") == (8, 9)
    assert resolve_band_indices(si, (4, 5)) == (4, 5)
    with pytest.raises(InputError, match="not 'no-such-band'"):
        resolve_band_indices(si, "no-such-band")


@pytest.mark.parametrize("pair", [(3, 3), (3, -13), (18, 19), (16, 17),
                                  (0, -17), (3, 2), (-2, -1), (1, 4)])
def test_explicit_pair_names_two_bands(gaas, pair):
    # GaAs has 16 bands: a pair is (i, i + 1) of 0..15, so an index
    # outside that range, a negative one, a pair that names one band
    # twice, a reversed pair or two bands apart is refused, not wrapped
    # or reordered into another pair
    message = r"not two adjacent bands \(i, i \+ 1\) of 0\.\.15"
    with pytest.raises(ValueError, match=message):
        resolve_band_indices(gaas, pair)
    with pytest.raises(ValueError, match=message):
        select_pair(gaas, solve(gaas, np.array([0.08, 0.05, 0.02])), pair)


def test_split_pair_near_another_band_is_ambiguous(gaas):
    # a T_d pair split by 5.7e-3 Ha with another band 3.7e-3 Ha away
    sol = solve(gaas, np.array([-0.4182, -0.0118, -0.5949]))
    with pytest.raises(PairingAmbiguityError) as info:
        select_pair(gaas, sol, (8, 9))
    assert info.value.split == pytest.approx(5.7e-3, abs=1e-4)
    assert info.value.gap_to_rest == pytest.approx(3.7e-3, abs=1e-4)


def _split_and_gap(sol, pair):
    """The pair's split and its gap to the neighbouring bands of ``sol``."""
    e = sol.energies
    i, j = (b - sol.first for b in pair.band_indices)
    split = e[j] - e[i]
    gap = min(e[j + 1] - e[j], e[i] - e[i - 1] if i > 0 else np.inf)
    return split, gap


def test_select_pair_reports_isolation(si):
    sol = solve(si, np.array([0.03, 0.01, 0.0]))
    pair = select_pair(si, sol, "split-off")
    assert pair.band_indices == (2, 3)
    split, gap = _split_and_gap(sol, pair)
    assert split < PAIR_SPLIT_TOL
    assert gap > split
    # columns orthonormal
    g = pair.states.conj().T @ pair.states
    assert np.abs(g - np.eye(2)).max() < 1e-12


def test_select_pair_rejects_fourfold_at_gamma(si):
    sol = solve(si, np.zeros(3))
    with pytest.raises(PairingAmbiguityError):
        select_pair(si, sol, (4, 5))  # inside the fourfold valence multiplet


def test_select_pair_gaas_physical_split(gaas):
    sol = solve(gaas, np.array([0.08, 0.05, 0.02]))
    pair = select_pair(gaas, sol, "split-off")
    split, gap = _split_and_gap(sol, pair)
    assert split > 0
    assert gap > split


def test_remix_is_unitary_change_of_basis(si):
    sol = solve(si, np.array([0.04, 0.02, 0.01]))
    pair = select_pair(si, sol, "split-off")
    rng = np.random.default_rng(11)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    w, _ = np.linalg.qr(z)
    mixed = remix_pair(pair, w)
    # still spans the same subspace
    p0 = pair.states @ pair.states.conj().T
    p1 = mixed.states @ mixed.states.conj().T
    assert np.abs(p0 - p1).max() < 1e-12
    g = mixed.states.conj().T @ mixed.states
    assert np.abs(g - np.eye(2)).max() < 1e-12


def test_pairing_error_carries_context(ge):
    sol = solve(ge, np.zeros(3))
    try:
        select_pair(ge, sol, (6, 7))  # fourfold at Gamma
    except PairingAmbiguityError as err:
        assert isinstance(err, PairUndefinedError)
        msg = str(err)
        assert "split" in msg and "gap" in msg
    else:
        pytest.fail("expected PairingAmbiguityError")


def test_random_points_pair_cleanly(si):
    for k in random_k_points(19, 6, scale=0.05):
        sol = solve(si, k)
        pair = select_pair(si, sol, "split-off")
        assert _split_and_gap(sol, pair)[0] < 1e-8


def _reference_isolation(e, i, j, tol):
    """(split, gap_to_rest, raises) from all other bands."""
    split = float(e[j] - e[i])
    others = np.delete(np.arange(e.size), [i, j])
    gap = float(np.minimum(np.abs(e[others] - e[i]),
                           np.abs(e[others] - e[j])).min())
    floor = split if tol is None else max(split, tol)
    raises = (tol is not None and split > tol) or gap <= floor
    return split, gap, raises


def _bits(x):
    return struct.pack("<d", x)


# sorted spectra; values drawn from a short list repeat, giving ties
_spectra = st.lists(
    st.one_of(st.sampled_from([-0.5, 0.0, 1e-9, 0.25, 0.2500001]),
              st.floats(-1.0, 1.0)),
    min_size=3, max_size=12).map(sorted)


@st.composite
def _spectrum_and_pair(draw):
    e = draw(_spectra)
    last = len(e) - 1
    # a pair is two adjacent bands; the edge pairs lack a neighbour
    i = draw(st.sampled_from([0, last - 1]) | st.integers(0, last - 1))
    # solved bands: any window that holds the pair and its neighbours,
    # the full spectrum included
    lo = draw(st.integers(0, max(i - 1, 0)))
    hi = draw(st.integers(min(i + 2, last), last))
    return np.array(e), (i, i + 1), (lo, hi)


@settings(max_examples=400, deadline=None)
@given(_spectrum_and_pair(),
       st.one_of(st.none(), st.sampled_from([1e-8, 1e-3, 0.1])))
def test_select_pair_isolation_matches_all_bands_formula(case, tol):
    e, (i, j), (lo, hi) = case
    # select_pair reads the spectrum size and point group from the
    # model; a T_d model (tol None) takes the pair's own split as its
    # isolation scale, any other PAIR_SPLIT_TOL
    model = types.SimpleNamespace(point_group="Td" if tol is None else "Oh",
                                  dim=e.size)
    sol = BlochSolution(k=np.zeros(3), energies=e[lo:hi + 1],
                        states=np.eye(e.size)[:, lo:hi + 1], first=lo,
                        first_state=lo)
    split, gap, raises = _reference_isolation(e, i, j, tol)
    with mock.patch.object(band_module, "PAIR_SPLIT_TOL", tol):
        if raises:
            with pytest.raises(PairingAmbiguityError) as info:
                select_pair(model, sol, (i, j))
            assert _bits(info.value.split) == _bits(split)
            assert _bits(info.value.gap_to_rest) == _bits(gap)
            return
        pair = select_pair(model, sol, (i, j))
    assert _bits(sol.energies[j - lo] - sol.energies[i - lo]) == _bits(split)
    assert np.array_equal(sol.energies[[i - lo, j - lo]], e[[i, j]])
    assert np.array_equal(pair.states, np.eye(e.size)[:, [i, j]])


# --- band windows: the g_S chain solves only the pair and its neighbours

def _full_chain_sign(model, band, k):
    """det(g_S) sign from the full-spectrum eigh, or the error type."""
    try:
        pair = select_pair(model, solve(model, k), band)
    except PairUndefinedError as err:
        return type(err).__name__
    return det_sign(spin_g(pair)[None])[0]


def _window_chain_sign(model, band, k):
    """det(g_S) sign from the scanner's windowed chain, or the error type:
    a one-row pass of its sign evaluator."""
    return surface._coarse_signs(model, band, "gs", [k])[0]


@pytest.mark.parametrize("material, band, directions", [
    ("si", "split-off", wedge_directions(2)),
    ("si", "first-conduction", wedge_directions(2)),
    ("ge", "second-conduction", wedge_directions(2)),
    ("gaas", "split-off", icosphere_directions(0)),
])
def test_window_sign_matches_full_eigh_on_coarse_samples(
        request, material, band, directions):
    model = request.getfixturevalue(material)
    seen = set()
    for d in directions:
        d = d / np.linalg.norm(d)
        r_max = boundary_radius(model.lattice_constant, d)
        for r in np.linspace(0.0, r_max, surface.N_COARSE):
            full = _full_chain_sign(model, band, r * d)
            assert _window_chain_sign(model, band, r * d) == full, (d, r)
            seen.add(full)
    assert {1, -1} <= seen


@st.composite
def _k_and_pair(draw):
    """A random k (Bohr^-1) and an adjacent pair (2p, 2p + 1)."""
    k = draw(st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3))
    material = draw(st.sampled_from(["si", "gaas"]))
    return np.array(k), material, draw(st.integers(0, 19))


@settings(max_examples=150, deadline=None)
@given(_k_and_pair())
def test_window_matches_full_spectrum_slice(si, gaas, case):
    k, material, p = case
    model = {"si": si, "gaas": gaas}[material]
    last = model.dim - 1
    # both edge windows, (0, 1) and (dim - 2, dim - 1), come first; the
    # last pair starts at an odd band, which for O_h straddles two
    # doublets and is solved for both of its vectors
    odd = (2 * p + 1) % (last - 1)
    for pair in ((0, 1), (last - 1, last), (2 * p % last, 2 * p % last + 1),
                 (odd, odd + 1)):
        # the pair and its neighbours, widened to whole Kramers
        # doublets (bands 2m, 2m + 1) for O_h
        i, j = pair
        lo, hi = max(i - 1, 0), min(i + 2, last)
        if model.point_group == "Oh":
            lo, hi = lo - lo % 2, hi | 1
        full = solve(model, k)
        win = solve(model, k, pair)
        assert (win.first, win.first_state) == (lo, i)
        assert win.states.shape == (model.dim, 2)
        assert np.abs(win.energies - full.energies[lo:hi + 1]).max() < 1e-12
        gram = win.states.conj().T @ win.states
        assert np.abs(gram - np.eye(2)).max() < 1e-12
        # each vector belongs to its own band's energy
        h = bloch_hamiltonian(model, k)
        e = full.energies
        assert np.abs(h @ win.states - win.states * e[[i, j]]).max() < 1e-10
        gap = min(abs(e[m] - e[n]) for n in (i, j)
                  for m in (i - 1, j + 1) if 0 <= m <= last)
        if gap > 1e-4:       # pair isolated: its projector is well defined
            v, w = full.states[:, [i, j]], win.states
            assert np.abs(v @ v.conj().T - w @ w.conj().T).max() < 1e-10


def test_window_crossings_equal_eigh_fallback(si, monkeypatch):
    d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    native = surface.scan_ray(si, "split-off", d, r_max=0.1)
    monkeypatch.setattr(blas, "_lapack", lambda: None)
    sliced = surface.scan_ray(si, "split-off", d, r_max=0.1)
    assert native.crossings
    assert native.crossings == sliced.crossings


def test_bad_window_raises_before_lapack(si, monkeypatch):
    calls = []
    monkeypatch.setattr(blas, "_lapack", lambda: calls.append(1))
    h = bloch_hamiltonian(si, np.array([0.02, 0.01, 0.0]))
    # the window must hold bands i and i + 1 of 0..39
    for lo, hi, i in ((-1, 2, 0), (3, 2, 2), (0, 40, 2), (39, 40, 39),
                      (1.0, 4, 2), (1, 4, 2.0), (2, 5, 1), (1, 4, 4),
                      (2, 2, 2)):
        with pytest.raises(ValueError, match="window"):
            blas.eigh_window(h.copy(), lo, hi, i)
    # one vector needs band i in the window; no other count is formed
    for lo, hi, i, vectors in ((0, 2, 3, 1), (3, 5, 2, 1), (0, 5, 2, 0),
                               (0, 5, 2, 3), (0, 5, 2, 2.0)):
        with pytest.raises(ValueError, match="window"):
            blas.eigh_window(h.copy(), lo, hi, i, vectors)
    for bad in (h.real.copy(), h.T, h[:, :39].copy(), h.astype(np.complex64)):
        with pytest.raises(ValueError, match="C-ordered"):
            blas.eigh_window(bad, 0, 5, 2)
    with pytest.raises(ValueError, match="adjacent bands"):
        solve(si, np.zeros(3), (39, 40))
    assert calls == []


def test_lapack_failure_raises_linalg_error(si, monkeypatch):
    # info != 0 from any of the four routines, or fewer eigenvalues than
    # the window from DSTEBZ, raises LinAlgError naming the routine
    real = blas._lapack()
    if real is None:
        pytest.skip("numpy's OpenBLAS does not export the window route")

    def fake(routine, info, found):
        def failing(*args):
            result = getattr(real, routine)(*args)
            if routine == "dstebz":
                args[10]._obj.value = found
            return info or result
        return real._replace(**{routine: failing})

    h = bloch_hamiltonian(si, np.array([0.02, 0.01, 0.0]))
    for routine, info, found in (("zhetrd", 1, 6), ("dstebz", 1, 6),
                                 ("dstebz", 0, 5), ("zstein", 1, 6),
                                 ("zunmtr", -13, 6)):
        lapack = fake(routine, info, found)
        monkeypatch.setattr(blas, "_lapack", lambda: lapack)
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"{routine} returned info {info}"):
            blas.eigh_window(h.copy(), 0, 5, 2)


@pytest.mark.parametrize("pair, bands", [
    ((2, 3), None), ((2, 3), (0, 5)), ((8, 9), None), ((8, 9), (6, 11)),
    ((38, 39), None), ((0, 1), (0, 3)), ((38, 39), (36, 39))])
def test_select_pair_arrays_equal_fancy_index(si, pair, bands):
    # the pair's states are the fancy index of the solution's, with the
    # same bytes and the same (column-major) layout, and own their
    # memory; a pair solution holds the energies of bands lo..hi
    sol = solve(si, np.array([0.31, 0.17, 0.05]), bands and pair)
    if bands:
        assert (sol.first, sol.first + sol.energies.size - 1) == bands
    a, b = (i - sol.first_state for i in pair)
    try:
        selected = select_pair(si, sol, pair)
    except PairingAmbiguityError:
        pytest.fail(f"pair {pair} is isolated at this k")
    got, want = selected.states, sol.states[:, [a, b]]
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides
    assert not np.shares_memory(got, sol.states)
    assert not np.shares_memory(got, sol.energies)


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_pair_momenta_gaps_are_mean_energy_denominators(material, request):
    # the orbital sum's denominators E_pair - E_l, with E_pair the mean of
    # the pair's two energies, bit for bit, for every configured pair
    model = request.getfixturevalue(material)
    checked = 0
    for band, (i, j) in model.band_pairs.items():
        for k in random_k_points(61, 8, scale=0.4):
            sol = solve(model, k)
            try:
                gaps = pair_momenta(model, sol, select_pair(model, sol,
                                                            band)).gaps
            except PairUndefinedError:
                continue
            e = sol.energies.tolist()
            rest = [x for n, x in enumerate(e) if n not in (i, j)]
            assert gaps.shape == (model.dim - 2,)
            assert [_bits(g) for g in gaps.tolist()] == [
                _bits(0.5 * (e[i] + e[j]) - x) for x in rest], (band, k)
            checked += 1
    assert checked >= 4 * len(model.band_pairs)


def _part(sol, lo, hi, first_state, count):
    """``sol`` cut to the energies of bands lo..hi and ``count`` vectors
    from band ``first_state`` on."""
    return BlochSolution(sol.k, sol.energies[lo:hi + 1],
                         sol.states[:, first_state:first_state + count],
                         lo, first_state)


def test_select_pair_needs_pair_and_neighbours(si):
    k = np.array([0.03, 0.01, 0.0])
    full_sol = solve(si, k)
    # split-off is (2, 3): it needs the energies of 1..4 and vectors 2, 3
    for lo, hi, first_state, count in ((2, 3, 2, 2), (1, 3, 0, 40),
                                       (2, 4, 0, 40), (0, 1, 0, 40),
                                       (0, 5, 3, 2), (0, 5, 1, 2),
                                       (0, 5, 2, 1), (0, 39, 0, 3)):
        part = _part(full_sol, lo, hi, first_state, count)
        with pytest.raises(ValueError, match="needs energies 1..4 and "
                                             "vectors 2, 3"):
            select_pair(si, part, "split-off")
    full = select_pair(si, full_sol, "split-off")
    for part in (_part(full_sol, 1, 4, 2, 2), _part(full_sol, 1, 4, 1, 3),
                 solve(si, k, "split-off")):
        pair = select_pair(si, part, "split-off")
        assert pair.band_indices == full.band_indices == (2, 3)
        assert _split_and_gap(part, pair)[1] == pytest.approx(
            _split_and_gap(full_sol, full)[1], abs=1e-12)
    # the bottom pair has no lower neighbour to ask for
    bottom_sol = _part(full_sol, 0, 2, 0, 2)
    bottom = select_pair(si, bottom_sol, (0, 1))
    assert _split_and_gap(bottom_sol, bottom)[0] < 1e-8


def test_momentum_table_rejects_window(si):
    k = np.array([0.03, 0.01, 0.0])
    # a window, and every energy with the pair's two vectors only
    for sol in (solve(si, k, "split-off"), _part(solve(si, k), 0, 39, 2, 2)):
        with pytest.raises(ValueError, match="full spectrum"):
            momentum_table(si, sol, range(si.dim))


# --- O_h pairs: the partner from PT, and the glide's +i block on k_z = 0

# ray 20 of wedge_directions(3), in the k_z = 0 plane; it ends on the
# X-W line, where det g_S is zero to rounding (ROADMAP item 20)
X_W_RAY = np.array([0.91504342, 0.40335535, 0.0])


def _plane_points(model):
    """Gamma, X, the zone-boundary end of ``X_W_RAY`` and 50 seeded
    k-points on k_z = 0."""
    a = model.lattice_constant
    ks = random_k_points(37, 50, scale=0.6)
    ks[:, 2] = 0.0
    ray = X_W_RAY / np.linalg.norm(X_W_RAY)
    return [np.zeros(3), high_symmetry_point("X", a),
            boundary_radius(a, ray) * ray, *ks]


def test_pt_and_glide_are_symmetries(si, ge, gaas):
    # PT = U K is a symmetry of H(k) at every k (0 measured: the Bloch
    # phases sit on absolute positions, so U does not depend on k), the
    # glide M one on k_z = 0 (at most 8e-17 measured), M^2 = -1 and PT
    # commutes with M, so it maps M's +i eigenspace onto the -i one;
    # T_d has no PT
    for model in (si, ge):
        u, m = pt_unitary(model), glide_unitary(model)
        for k in bitwise_k_points(model, 41):
            h = bloch_hamiltonian(model, k)
            assert np.abs(u @ h.conj() @ u.conj().T - h).max() <= 1e-15
        for k in _plane_points(model):
            h = bloch_hamiltonian(model, k)
            assert np.abs(m @ h @ m.conj().T - h).max() <= 1e-15
        assert np.array_equal(m @ m, -np.eye(model.dim))
        assert np.array_equal(u @ m.conj(), m @ u)
    h = bloch_hamiltonian(gaas, np.array([0.1, 0.2, 0.3]))
    u = pt_unitary(gaas)
    assert np.abs(u @ h.conj() @ u.conj().T - h).max() > 0.1


@pytest.mark.parametrize("material", ["si", "ge"])
def test_oh_plane_pair_is_xi_and_its_pt_partner(request, material):
    # every configured pair at 53 points on k_z = 0 (Gamma, X, an X-W
    # ray end and 50 seeded k), solved in the glide's +i block: the
    # energies within 1e-12 Ha of the two-vector window of H, xi an
    # eigenvector of its energy to 1e-12 Ha and in the glide's +i
    # eigenspace, the second column exactly PT xi and orthogonal to xi,
    # and the pair's projector within 1e-12 of the two-vector window's
    # where a gap of more than 1e-3 Ha isolates the pair; at 20 seeded
    # k off the plane the solve is the two-vector window of H, bit for
    # bit
    model = request.getfixturevalue(material)
    u, m = pt_unitary(model), glide_unitary(model)
    plane = _plane_points(model)
    off_plane = random_k_points(43, 20, scale=0.6)
    assert len(plane) == 53 and (off_plane[:, 2] != 0.0).all()
    for band, (i, _) in model.band_pairs.items():
        isolated = 0
        for k in plane:
            sol = solve(model, k, band)
            lo, hi = sol.first, sol.first + sol.energies.size - 1
            h = bloch_hamiltonian(model, k)
            energies, states = blas.eigh_window(h.copy(), lo, hi, i)
            assert np.abs(sol.energies - energies).max() <= 1e-12, (band, k)
            xi, xi_bar = sol.states.T
            assert np.abs(h @ xi - sol.energies[i - lo] * xi).max() <= 1e-12
            assert np.linalg.norm(m @ xi - 1j * xi) <= 1e-12
            assert np.array_equal(xi_bar, u @ xi.conj())
            assert abs(np.vdot(xi, xi_bar)) <= 1e-13
            gap = min(abs(energies[n] - energies[i - lo])
                      for n in (i - lo - 1, i - lo + 2)
                      if 0 <= n < energies.size)
            if gap > 1e-3:
                assert np.abs(sol.states @ sol.states.conj().T
                              - states @ states.conj().T).max() <= 1e-12
                isolated += 1
        assert isolated >= 50, band        # 51 to 52 measured
        for k in off_plane:
            sol = solve(model, k, band)
            lo, hi = sol.first, sol.first + sol.energies.size - 1
            energies, states = blas.eigh_window(bloch_hamiltonian(model, k),
                                                lo, hi, i)
            assert sol.energies.tobytes() == energies.tobytes()
            assert sol.states.tobytes() == states.tobytes()
