import dataclasses
import warnings

import numpy as np
import pytest

from gtensor_tb import (DirectionNotApplicableError, PhysicsError,
                        align_pair_to_spin_frame, cardinal_states,
                        entropies_at_crossing, entropy, pair_spin_densities,
                        reduce_spin, scan_ray, select_pair, solve,
                        spin_flip_residual, wedge_directions)
from gtensor_tb.entanglement import direction_applicable, require_applicable
from gtensor_tb.gtensor import spin_g, spin_matrices

from conftest import random_unit_vectors

# measured det(g_S) = 0 radius of the Si split-off pair on <100> (Bohr^-1)
SI_SPLIT_OFF_KC_100 = 0.021718802671136336


def _pair_at(model, k, band_id="split-off"):
    sol = solve(model, np.asarray(k, dtype=float))
    return select_pair(model, sol, band_id)


# --- reduced density and entropy primitives ---------------------------------

def test_product_state_reduces_to_pure_density():
    orb = np.zeros(5, dtype=complex)
    orb[2] = 1.0
    up = np.kron([1.0, 0.0], orb)       # spin slow, orbital fast
    rho = reduce_spin(up)
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-15
    assert entropy(rho) == 0.0


def test_spin_harmonic_reduces_to_one_third_two_thirds():
    # |1/2,+1/2> = (|z up> + |x dn> + i|y dn>)/sqrt(3) over slots (x,y,z)
    s3 = 1.0 / np.sqrt(3.0)
    state = np.zeros(6, dtype=complex)
    state[2] = s3            # up, z
    state[3 + 0] = s3        # dn, x
    state[3 + 1] = 1j * s3   # dn, y
    rho = reduce_spin(state)
    w = np.sort(np.linalg.eigvalsh(rho))
    assert np.abs(w - [1.0 / 3.0, 2.0 / 3.0]).max() < 1e-14


def test_entropy_reference_points():
    assert entropy(0.5 * np.eye(2)) == pytest.approx(1.0, abs=1e-14)
    assert entropy(np.diag([1.0, 0.0])) == 0.0
    p = 1.0 / 3.0
    expected = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    assert entropy(np.diag([p, 1 - p])) == pytest.approx(expected, abs=1e-14)


def test_entropy_clamps_roundoff_but_rejects_negative():
    assert entropy(np.diag([1.0, -1e-13])) == 0.0
    with pytest.raises(PhysicsError):
        entropy(np.diag([1.1, -0.1]))


def test_random_states_give_valid_densities():
    rng = np.random.default_rng(41)
    for _ in range(10):
        psi = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi /= np.linalg.norm(psi)
        rho = reduce_spin(psi)
        assert np.abs(np.trace(rho) - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-15
        assert np.linalg.eigvalsh(rho).min() > -1e-14
        assert 0.0 <= entropy(rho) <= 1.0 + 1e-12


def test_pair_densities_use_engine_layout(si):
    pair = _pair_at(si, [0.02, 0.0, 0.0])
    dens = pair_spin_densities(pair)
    for rho in (dens.rho_s, dens.rho_s_bar):
        assert rho.shape == (2, 2)
        assert np.abs(np.trace(rho) - 1.0) < 1e-12


# --- direction applicability -------------------------------------------------

def test_oh_applies_everywhere(si):
    for d in random_unit_vectors(7, 10):
        assert direction_applicable(si, d)


def _off_111(angle):
    """A direction ``angle`` radians off [111] (to first order), towards
    [1,-1,0]."""
    return (np.ones(3) / np.sqrt(3.0)
            + angle * np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0))


@pytest.mark.parametrize("direction,ok", [
    ([1, 0, 0], True), ([0, -1, 0], True), ([0, 0, 1], True),
    ([1, 1, 1], True), ([-1, 1, -1], True),
    ([1, 1, 0], False), ([1, 2, 3], False), ([0.6, 0.8, 0.0], False),
    # each unit-vector component is compared to 1e-9
    (_off_111(5e-10), True), (_off_111(1e-6), False),
])
def test_td_families(gaas, direction, ok):
    assert direction_applicable(gaas, direction) == ok
    if not ok:
        with pytest.raises(DirectionNotApplicableError):
            require_applicable(gaas, direction)


@pytest.mark.parametrize("direction", [
    [0.0, 0.0, 0.0], [1e300, 1e300, 0.0], [float("nan"), 1.0, 0.0],
])
def test_direction_applicable_rejects_bad_direction(si, gaas, direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (si, gaas):
            with pytest.raises(ValueError, match="direction"):
                direction_applicable(model, direction)


def test_gamma_always_applicable(si, gaas):
    for model in (si, gaas):
        assert require_applicable(model, np.zeros(3)) is None


def test_spin_flip_refused_off_family_for_td(gaas):
    pair = _pair_at(gaas, 0.05 * np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    with pytest.raises(DirectionNotApplicableError):
        spin_flip_residual(gaas, pair)


# --- the spin-flip relation ------------------------------------------------------

def test_spin_flip_on_random_directions_oh(si, ge):
    for model in (si, ge):
        for d in random_unit_vectors(13, 6):
            pair = _pair_at(model, 0.04 * d)
            assert spin_flip_residual(model, pair) < 1e-8


def test_spin_flip_on_td_families(gaas):
    for d in ([1.0, 0.0, 0.0], np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)):
        pair = _pair_at(gaas, 0.04 * np.asarray(d))
        assert spin_flip_residual(gaas, pair) < 1e-8


def test_spin_flip_survives_gauge_alignment(si):
    pair = _pair_at(si, [0.03, 0.02, 0.01])
    aligned, _, _ = align_pair_to_spin_frame(pair)
    assert spin_flip_residual(si, aligned) < 1e-8


# --- maximal-entanglement statement ------------------------------------------

def test_unit_entropies_at_measured_crossing(si):
    pair = _pair_at(si, [SI_SPLIT_OFF_KC_100, 0.0, 0.0])
    aligned, _, _ = align_pair_to_spin_frame(pair)
    assert abs(np.linalg.det(spin_g(pair))) < 1e-6  # on the surface
    s_xi, s_xib = entropies_at_crossing(si, aligned)
    assert s_xi == pytest.approx(1.0, abs=1e-4)
    assert s_xib == pytest.approx(1.0, abs=1e-4)


def test_crossing_entropies_reject_off_surface_points(si):
    pair = _pair_at(si, [SI_SPLIT_OFF_KC_100 / 2.0, 0.0, 0.0])
    assert abs(np.linalg.det(spin_g(pair))) >= 1e-6  # off the surface
    # off the surface the entropies are strictly below 1
    s_xi, s_xib = entropies_at_crossing(si, pair)
    assert s_xi < 0.99 and s_xib < 0.99


def test_cardinal_states_normalized_and_gauge_warned(si):
    pair = _pair_at(si, [SI_SPLIT_OFF_KC_100, 0.0, 0.0])
    aligned, _, _ = align_pair_to_spin_frame(pair)
    states = cardinal_states(aligned)
    assert sorted(states) == ["+", "+i", "-", "-i"]
    for psi in states.values():
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_cardinal_entropies_at_crossing_match_each_other(si):
    # the four equator entropies come in two Kramers-related equal
    # pairs; on the surface all four sit in a narrow band
    pair = _pair_at(si, [SI_SPLIT_OFF_KC_100, 0.0, 0.0])
    aligned, _, _ = align_pair_to_spin_frame(pair)
    vals = {key: entropy(reduce_spin(psi))
            for key, psi in cardinal_states(aligned).items()}
    assert vals["+"] == pytest.approx(vals["-"], abs=1e-9)
    assert vals["+i"] == pytest.approx(vals["-i"], abs=1e-9)
    assert min(vals.values()) > 0.75
    assert max(vals.values()) < 0.90


def _binary_entropy(p):
    """h2(p) in bits, for 0 < p < 1."""
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


@pytest.mark.parametrize("material, band", [
    ("si", "split-off"), ("si", "first-conduction"),
    ("ge", "second-conduction"), ("gaas", "split-off")])
def test_entanglement_at_every_wedge_crossing(request, material, band):
    # the paper's theorem at every crossing of the default level-3 wedge
    # scan, re-solved through the library chain.  In the spin frame
    # (g_S = u diag(sigma)) the partners have spin Bloch vectors
    # s0 +- (sigma_3 / 2) u_3 and entropies h2((1 + |b|) / 2).  O_h pairs
    # have s0 = 0, so 1 - S is at most the deficit of the residual
    # sigma_3 at the bisected crossing, plus 1e-12 bits of rounding; T_d
    # pairs match the closed form to 1e-12 bits, and their s0 vanishes
    # only on the <100> and <111> families.
    model = request.getfixturevalue(material)
    crossings = 0
    for direction in wedge_directions(3):
        scan = scan_ray(model, band, direction)
        for crossing in scan.crossings:
            k = crossing.radius * scan.direction
            pair = select_pair(model, solve(model, k), band)
            aligned, u, sigma = align_pair_to_spin_frame(pair)
            dens = pair_spin_densities(aligned)
            s = np.array([entropy(dens.rho_s), entropy(dens.rho_s_bar)])
            s0 = 0.5 * np.trace(spin_matrices(pair), axis1=-2,
                                axis2=-1).real
            if model.point_group == "Oh":
                bound = 1.0 - _binary_entropy((1.0 + sigma[2] / 2.0) / 2.0)
                assert (1.0 - s).max() <= bound + 1e-12, k
            else:
                half = 0.5 * sigma[2] * u[:, 2]
                closed = [_binary_entropy(
                    (1.0 + np.linalg.norm(s0 + sign * half)) / 2.0)
                    for sign in (1.0, -1.0)]
                assert np.abs(s - closed).max() <= 1e-12, k
            if direction_applicable(model, k):
                assert np.abs(s0).max() <= 1e-9, k
            crossings += 1
    assert crossings >= 30


# --- stacks of states and densities -----------------------------------------

def test_stacked_densities_bitwise_equal_single_calls(si):
    pairs = [_pair_at(si, k) for k in ([0.02, 0.0, 0.0], [0.01, 0.03, 0.0],
                                       [0.04, 0.01, 0.02])]
    stacked = dataclasses.replace(pairs[0],
                                  states=np.array([p.states for p in pairs]))
    dens = pair_spin_densities(stacked)
    for field in ("rho_s", "rho_s_bar"):
        assert getattr(dens, field).tobytes() == np.array(
            [getattr(pair_spin_densities(p), field) for p in pairs]).tobytes()
    states = stacked.states[..., 0].reshape(3, 1, si.dim)
    assert reduce_spin(states).shape == (3, 1, 2, 2)
    assert reduce_spin(states).tobytes() == dens.rho_s.tobytes()
    assert reduce_spin(np.zeros((0, si.dim), complex)).shape == (0, 2, 2)


def test_stacked_entropy_bitwise_equals_single_calls():
    rng = np.random.default_rng(43)
    psi = rng.normal(size=(6, 12)) + 1j * rng.normal(size=(6, 12))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    rhos = np.concatenate([
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),     # pure
         0.5 * np.eye(2),                               # maximally mixed
         np.diag([1.0, -1e-13]), np.diag([-1e-13, 1.0])],   # clamped
        reduce_spin(psi)])
    single = [entropy(rho) for rho in rhos]
    assert all(type(s) is float for s in single)
    # the spectrum's non-zero part, as one sum per matrix
    nonzero = [np.clip(np.linalg.eigvalsh(rho), 0.0, None) for rho in rhos]
    nonzero = [w[w > 0.0] for w in nonzero]
    assert np.array(single).tobytes() == np.array(
        [float(-(w * np.log2(w)).sum()) for w in nonzero]).tobytes()
    stacked = entropy(rhos)
    assert stacked.shape == (len(rhos),)
    assert stacked.tobytes() == np.array(single).tobytes()
    assert entropy(rhos.reshape(1, -1, 2, 2)).tobytes() == stacked.tobytes()
    assert entropy(np.zeros((0, 2, 2))).shape == (0,)


def test_stacked_entropy_rejects_any_negative_row():
    rhos = np.array([0.5 * np.eye(2), np.diag([1.0, -1e-13]),
                     np.diag([1.0 + 1e-11, -1e-11])])
    with pytest.raises(PhysicsError, match="-1.000e-11"):
        entropy(rhos)
