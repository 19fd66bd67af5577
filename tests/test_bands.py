import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtensor_tb import (PairingAmbiguityError, PairUndefinedError,
                        UnknownBandLabelError, remix_pair,
                        resolve_band_indices, select_pair, solve)
from gtensor_tb.bands import BlochSolution

from conftest import random_k_points


def test_solve_reproduces_eigensystem(si):
    k = np.array([0.05, 0.02, -0.01])
    sol = solve(si, k)
    assert np.all(np.diff(sol.energies) >= 0)
    from gtensor_tb import bloch_hamiltonian
    h = bloch_hamiltonian(si, k)
    resid = h @ sol.states - sol.states * sol.energies
    assert np.abs(resid).max() < 1e-12


def test_resolve_band_labels(si):
    assert resolve_band_indices(si, "split-off") == (2, 3)
    assert resolve_band_indices(si, "first-conduction") == (8, 9)
    assert resolve_band_indices(si, (4, 5)) == (4, 5)
    with pytest.raises(UnknownBandLabelError):
        resolve_band_indices(si, "no-such-band")


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
    floor = split if tol is None else max(split, tol)
    raises = (tol is not None and split > tol) or gap <= floor
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
    return np.array(e), pair


@settings(max_examples=400, deadline=None)
@given(_spectrum_and_pair(),
       st.one_of(st.none(), st.sampled_from([1e-8, 1e-3, 0.1])))
def test_select_pair_isolation_matches_all_bands_formula(si, case, tol):
    e, (i, j) = case
    model = dataclasses.replace(si, pair_split_tol=tol)
    sol = BlochSolution(k=np.zeros(3), energies=e, states=np.eye(e.size))
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
