import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtensor_tb import (PairingAmbiguityError, PairUndefinedError,
                        UnknownBandLabelError, blas, bloch_hamiltonian,
                        boundary_radius, det_sign, icosphere_directions,
                        momentum_table, remix_pair, resolve_band_indices,
                        select_pair, solve, spin_g, surface, wedge_directions)
from gtensor_tb.bands import BlochSolution, pair_window

from conftest import random_k_points


def test_solve_reproduces_eigensystem(si):
    k = np.array([0.05, 0.02, -0.01])
    sol = solve(si, k)
    assert np.all(np.diff(sol.energies) >= 0)
    from gtensor_tb import bloch_hamiltonian
    h = bloch_hamiltonian(si, k)
    resid = h @ sol.states - sol.states * sol.energies
    assert np.abs(resid).max() < 1e-12


@pytest.mark.parametrize("material", ["si", "gaas"])
def test_full_solve_is_plain_eigh(request, material, monkeypatch):
    # the whole spectrum never asks for ZHEEVR and gives eigh's bytes
    model = request.getfixturevalue(material)
    calls = []
    monkeypatch.setattr(blas, "_lapacke_zheevr", lambda: calls.append(1))
    for k in random_k_points(17, 5, scale=0.6):
        energies, states = np.linalg.eigh(bloch_hamiltonian(model, k))
        for sol in (solve(model, k), solve(model, k, (0, model.dim - 1))):
            assert sol.first == 0
            assert sol.energies.tobytes() == energies.tobytes()
            assert sol.states.tobytes() == states.tobytes()
    assert calls == []


def test_resolve_band_labels(si):
    assert resolve_band_indices(si, "split-off") == (2, 3)
    assert resolve_band_indices(si, "first-conduction") == (8, 9)
    assert resolve_band_indices(si, (4, 5)) == (4, 5)
    with pytest.raises(UnknownBandLabelError):
        resolve_band_indices(si, "no-such-band")


@pytest.mark.parametrize("pair", [(3, 3), (3, -13), (18, 19), (16, 17),
                                  (0, -17)])
def test_explicit_pair_names_two_bands(gaas, pair):
    # GaAs has 16 bands: an index outside -16..15 or a pair that names
    # one band twice is refused, not wrapped into another pair
    with pytest.raises(ValueError, match="two different bands"):
        resolve_band_indices(gaas, pair)
    with pytest.raises(ValueError, match="two different bands"):
        select_pair(gaas, solve(gaas, np.array([0.08, 0.05, 0.02])), pair)


def test_reversed_pair_is_isolated_like_its_ascending_order(gaas):
    # a T_d pair split by 5.7e-3 Ha with another band 3.7e-3 Ha away is
    # ambiguous in either order: the reversed pair's split is negative,
    # and isolation reads its size
    sol = solve(gaas, np.array([-0.4182, -0.0118, -0.5949]))
    for pair in ((8, 9), (9, 8)):
        with pytest.raises(PairingAmbiguityError) as info:
            select_pair(gaas, sol, pair)
        assert abs(info.value.split) == pytest.approx(5.7e-3, abs=1e-4)
        assert info.value.gap_to_rest == pytest.approx(3.7e-3, abs=1e-4)


def test_select_pair_reports_isolation(si):
    sol = solve(si, np.array([0.03, 0.01, 0.0]))
    pair = select_pair(si, sol, "split-off")
    assert pair.band_indices == (2, 3)
    assert pair.split < si.pair_split_tol
    assert pair.gap_to_rest > pair.split
    assert pair.pair_energy == pytest.approx(pair.energies.mean())
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
    assert pair.split > 0
    assert pair.gap_to_rest > pair.split


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
        pair = select_pair(si, solve(si, k), "split-off")
        assert pair.split < 1e-8


def _reference_isolation(e, i, j, tol):
    """(split, gap_to_rest, pair_energy, raises) from all other bands."""
    split = float(e[j] - e[i])
    others = np.delete(np.arange(e.size), [i, j])
    gap = float(np.minimum(np.abs(e[others] - e[i]),
                           np.abs(e[others] - e[j])).min())
    # a reversed pair has a negative split; isolation reads its size
    floor = abs(split) if tol is None else max(abs(split), tol)
    raises = (tol is not None and abs(split) > tol) or gap <= floor
    return split, gap, float(0.5 * (e[i] + e[j])), raises


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
    i = draw(st.integers(0, last - 1))
    kind = draw(st.sampled_from(["adjacent", "any", "ends"]))
    if kind == "adjacent":
        pair = (i, i + 1)
    elif kind == "ends":
        pair = (0, last)
    else:
        pair = (i, draw(st.integers(0, last).filter(lambda j: j != i)))
    if draw(st.booleans()):
        pair = pair[::-1]
    if draw(st.booleans()):                 # negative, numpy-style indices
        pair = (pair[0] - len(e), pair[1])
    # solved bands: any window that holds the pair and its neighbours,
    # the full spectrum included
    a, b = sorted(m % len(e) for m in pair)
    lo = draw(st.integers(0, max(a - 1, 0)))
    hi = draw(st.integers(min(b + 1, last), last))
    return np.array(e), pair, (lo, hi)


@settings(max_examples=400, deadline=None)
@given(_spectrum_and_pair(),
       st.one_of(st.none(), st.sampled_from([1e-8, 1e-3, 0.1])))
def test_select_pair_isolation_matches_all_bands_formula(case, tol):
    e, (i, j), (lo, hi) = case
    # select_pair reads the spectrum size from the model
    model = types.SimpleNamespace(pair_split_tol=tol, dim=e.size)
    sol = BlochSolution(k=np.zeros(3), energies=e[lo:hi + 1],
                        states=np.eye(e.size)[:, lo:hi + 1], first=lo)
    split, gap, pair_energy, raises = _reference_isolation(e, i, j, tol)
    if raises:
        with pytest.raises(PairingAmbiguityError) as info:
            select_pair(model, sol, (i, j))
        assert _bits(info.value.split) == _bits(split)
        assert _bits(info.value.gap_to_rest) == _bits(gap)
        return
    pair = select_pair(model, sol, (i, j))
    assert _bits(pair.split) == _bits(split)
    assert _bits(pair.gap_to_rest) == _bits(gap)
    assert _bits(pair.pair_energy) == _bits(pair_energy)
    assert np.array_equal(pair.energies, e[[i, j]])
    assert np.array_equal(pair.states, np.eye(e.size)[:, [i, j]])


# --- band windows: the g_S chain solves only the pair and its neighbours

def _full_chain_sign(model, band, k):
    """det(g_S) sign from the full-spectrum eigh, or the error type."""
    try:
        pair = select_pair(model, solve(model, k), band)
    except PairUndefinedError as err:
        return type(err).__name__
    return det_sign(spin_g(pair))


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
    # both edge windows, (0, 1) and (dim - 2, dim - 1), come first
    for pair in ((0, 1), (last - 1, last), (2 * p % last, 2 * p % last + 1)):
        lo, hi = pair_window(model, pair)
        full = solve(model, k)
        win = solve(model, k, bands=(lo, hi))
        assert win.first == lo
        assert np.abs(win.energies - full.energies[lo:hi + 1]).max() < 1e-12
        gram = win.states.conj().T @ win.states
        assert np.abs(gram - np.eye(hi - lo + 1)).max() < 1e-12
        i, j = pair
        e = full.energies
        gap = min(abs(e[m] - e[n]) for n in (i, j)
                  for m in (i - 1, j + 1) if 0 <= m <= last)
        if gap > 1e-4:       # pair isolated: its projector is well defined
            v, w = full.states[:, [i, j]], win.states[:, [i - lo, j - lo]]
            assert np.abs(v @ v.conj().T - w @ w.conj().T).max() < 1e-10


def test_window_crossings_equal_eigh_fallback(si, monkeypatch):
    d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    native = surface.scan_ray(si, "split-off", d, r_max=0.1)
    monkeypatch.setattr(blas, "_lapacke_zheevr", lambda: None)
    sliced = surface.scan_ray(si, "split-off", d, r_max=0.1)
    assert native.crossings
    assert native.crossings == sliced.crossings


def test_bad_window_raises_before_lapack(si, monkeypatch):
    calls = []
    monkeypatch.setattr(blas, "_lapacke_zheevr", lambda: calls.append(1))
    h = bloch_hamiltonian(si, np.array([0.02, 0.01, 0.0]))
    for lo, hi in ((-1, 2), (3, 2), (0, 40), (39, 40), (1.0, 2)):
        with pytest.raises(ValueError, match="window"):
            blas.eigh_window(h.copy(), lo, hi)
    for bad in (h.real.copy(), h.T, h[:, :39].copy(), h.astype(np.complex64)):
        with pytest.raises(ValueError, match="C-ordered"):
            blas.eigh_window(bad, 0, 1)
    with pytest.raises(ValueError, match="window"):
        solve(si, np.zeros(3), bands=(38, 40))
    assert calls == []


def test_lapack_failure_raises_linalg_error(si, monkeypatch):
    def fake(info, found):
        def zheevr(*args):
            args[12]._obj.value = found
            return info
        return zheevr

    h = bloch_hamiltonian(si, np.array([0.02, 0.01, 0.0]))
    for info, found in ((1, 4), (0, 3)):
        monkeypatch.setattr(blas, "_lapacke_zheevr", lambda: fake(info, found))
        with pytest.raises(np.linalg.LinAlgError, match="zheevr"):
            blas.eigh_window(h.copy(), 1, 4)


@pytest.mark.parametrize("pair, bands", [
    ((2, 3), None), ((2, 3), (1, 4)), ((3, 2), None), ((3, 2), (1, 4)),
    ((-2, -1), None), ((0, 1), (0, 2))])
def test_select_pair_arrays_equal_fancy_index(si, pair, bands):
    # the pair's arrays are the fancy index of the solution's, with the
    # same bytes and the same (column-major) layout, and own their memory
    sol = solve(si, np.array([0.31, 0.17, 0.05]), bands=bands)
    a, b = (i % si.dim - sol.first for i in pair)
    try:
        selected = select_pair(si, sol, pair)
    except PairingAmbiguityError:
        pytest.fail(f"pair {pair} is isolated at this k")
    for got, want in ((selected.energies, sol.energies[[a, b]]),
                      (selected.states, sol.states[:, [a, b]])):
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides
        assert not np.shares_memory(got, sol.states)
        assert not np.shares_memory(got, sol.energies)


def test_select_pair_needs_pair_and_neighbours(si):
    k = np.array([0.03, 0.01, 0.0])
    for bands in ((2, 3), (1, 3), (2, 4), (0, 1)):
        with pytest.raises(ValueError, match="needs bands"):
            select_pair(si, solve(si, k, bands=bands), "split-off")
    pair = select_pair(si, solve(si, k, bands=(1, 4)), "split-off")
    full = select_pair(si, solve(si, k), "split-off")
    assert pair.band_indices == full.band_indices == (2, 3)
    assert pair.gap_to_rest == pytest.approx(full.gap_to_rest, abs=1e-12)
    # the bottom pair has no lower neighbour to ask for
    assert select_pair(si, solve(si, k, bands=(0, 2)), (0, 1)).split < 1e-8


def test_momentum_table_rejects_window(si):
    sol = solve(si, np.array([0.03, 0.01, 0.0]), bands=(1, 4))
    with pytest.raises(ValueError, match="full spectrum"):
        momentum_table(si, sol)
