"""End-to-end acceptance gate.

One test per shipped claim; each registers a single PASS/FAIL line that
conftest prints as a scoreboard after the run.  Tolerances are part of
the claims and are not widened to make tests pass.
"""
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from gtensor_tb import (align_pair_to_spin_frame, boundary_radius,
                        build_surface, cardinal_states,
                        entropies_at_crossing, entropy, g_tensor_set,
                        reduce_spin, scan_ray, select_pair, solve,
                        spin_flip_residual, surface, wedge_directions)
from gtensor_tb.bands import remix_pair
from gtensor_tb.brillouin import cubic_group
from gtensor_tb.gtensor import (momentum_table, orbital_matrices,
                                pair_momenta, spin_g)
from gtensor_tb.hamiltonian import (bloch_hamiltonian, dipole_matrix,
                                    hamiltonian_gradient)
from gtensor_tb.lande import atomic_g, fit_dipole

from conftest import random_k_points, random_unit_vectors
from oracles import (dense_det, orbital_matrices_commutator,
                     pair_zeeman_hamiltonian, random_su2, zeeman_response)


SCOREBOARD = []


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        SCOREBOARD.append(f"criterion {num}: FAIL - {name}")
        raise
    SCOREBOARD.append(f"criterion {num}: PASS - {name}")


def _crossings_of(model, band_id, direction, r_frac=0.25, **kw):
    r_max = r_frac * boundary_radius(model.lattice_constant, direction)
    with mock.patch.object(surface, "BISECT_TOL", 1e-9):
        return scan_ray(model, band_id, direction, r_max=r_max, **kw)


def _pair_at(model, k, band_id):
    return select_pair(model, solve(model, np.asarray(k, float)), band_id)


def test_criterion_1_lande_fit(si, ge, gaas):
    published = {("si", "Si"): 2.788, ("ge", "Ge"): 2.535,
                 ("gaas", "Ga"): 2.891, ("gaas", "As"): 2.455}
    models = {"si": si, "ge": ge, "gaas": gaas}
    with criterion(1, "Lande dipole fit and atomic g triple"):
        for (mname, species), target in published.items():
            model = models[mname]
            d0 = fit_dipole(model, species)
            assert abs(d0 - target) < 0.01, (species, d0)
            gset = atomic_g(model, species, dipole=d0)
            assert abs(gset.g_s[2, 2] - (-2.0 / 3.0)) < 1e-6
            assert abs(gset.g_l[2, 2] - (+4.0 / 3.0)) < 1e-6
            assert abs(gset.g_tot[2, 2] - (+2.0 / 3.0)) < 1e-6


def test_criterion_2_gamma_anchor(si, ge):
    cases = [
        (si, "split-off", 0.02), (si, "first-conduction", 0.02),
        (ge, "split-off", 0.05), (ge, "second-conduction", 0.05),
    ]
    with criterion(2, "det(g_S) = -8/27 at Gamma for doublets split "
                      "from triplet multiplets"):
        for model, band, tol in cases:
            pair = _pair_at(model, np.zeros(3), band)
            g = spin_g(pair)
            assert abs(np.linalg.det(g) - (-8.0 / 27.0)) < tol, (
                model.name, band)
            sv = np.linalg.svd(g, compute_uv=False)
            assert np.abs(sv - 2.0 / 3.0).max() < tol, (model.name, band)


def test_criterion_3_conduction_det_profile(si):
    r_end = 0.35 * boundary_radius(si.lattice_constant, [1, 0, 0])
    with criterion(3, "Si first-conduction det profile on 10 seeded rays"):
        for v in random_unit_vectors(2026, 10):
            dets = []
            tot_exceeds_2 = False
            for r in np.linspace(1e-5, r_end, 400):
                sol = solve(si, r * v)
                pair = select_pair(si, sol, "first-conduction")
                gset = g_tensor_set(si, sol, pair)
                dets.append(gset.det_g_s)
                assert gset.sigma_s.max() <= 2.0 + 1e-9
                tot_exceeds_2 = tot_exceeds_2 or gset.sigma_tot.max() > 2.0
            dets = np.array(dets)
            assert np.all(np.isfinite(dets))
            assert np.abs(np.diff(dets)).max() < 0.5      # no jumps
            n_cross = int(np.sum(np.diff(np.sign(dets)) != 0))
            assert n_cross % 2 == 1, n_cross
            assert dets[-1] >= 7.6
            assert tot_exceeds_2


def test_criterion_4_maximal_entanglement_at_crossings(si, ge, gaas):
    sqrt3 = np.sqrt(3.0)
    sqrt2 = np.sqrt(2.0)
    rays = [
        (si, [1.0, 0.0, 0.0]), (si, [1.0 / sqrt2, 1.0 / sqrt2, 0.0]),
        (si, [1.0 / sqrt3] * 3), (si, random_unit_vectors(5, 1)[0]),
        (si, random_unit_vectors(6, 1)[0]),
        (ge, [1.0, 0.0, 0.0]), (ge, [1.0 / sqrt3] * 3),
        (ge, random_unit_vectors(7, 1)[0]),
        (gaas, [1.0, 0.0, 0.0]), (gaas, [1.0 / sqrt3] * 3),
    ]
    with criterion(4, "unit entropies and spin-flip relation at bisected "
                      "crossings; Si cardinal-state entropies"):
        n_checked = 0
        for model, d in rays:
            scan = _crossings_of(model, "split-off", d)
            assert scan.crossings, (model.name, d)
            for c in scan.crossings:
                pair = _pair_at(model, c.radius * np.asarray(d), "split-off")
                assert abs(np.linalg.det(spin_g(pair))) < 1e-6
                aligned, _, _ = align_pair_to_spin_frame(pair)
                s_xi, s_xib = entropies_at_crossing(model, aligned)
                assert s_xi >= 1.0 - 1e-3 and s_xib >= 1.0 - 1e-3
                assert spin_flip_residual(model, aligned) < 1e-8
                n_checked += 1
        assert n_checked >= 10

        # cardinal-state entropies at the Si split-off Delta crossing
        scan = _crossings_of(si, "split-off", [1.0, 0.0, 0.0])
        k_c = scan.crossings[0].radius
        pair = _pair_at(si, [k_c, 0.0, 0.0], "split-off")
        aligned, _, _ = align_pair_to_spin_frame(pair)
        vals = sorted(entropy(reduce_spin(psi))
                      for psi in cardinal_states(aligned).values())
        for target in (0.810, 0.824):
            assert min(abs(v - target) for v in vals) < 0.02, (target, vals)
        assert all(abs(v - 0.810) < 0.02 or abs(v - 0.824) < 0.02
                   for v in vals), vals


def test_criterion_5a_bisection_matches_dense_scan(si):
    with criterion("5a", "bisected k_c vs 2000-point dense scan on 20 rays"):
        for v in random_unit_vectors(97, 20):
            r_max = 0.1 * boundary_radius(si.lattice_constant, v)
            scan = scan_ray(si, "split-off", v, r_max=r_max)
            radii = np.linspace(1e-6, r_max, 2000)
            det = dense_det(si, "split-off", v, radii)
            roots = []
            for i in range(len(radii) - 1):
                a, b = det[i], det[i + 1]
                if np.isfinite(a) and np.isfinite(b) and np.sign(a) != np.sign(b):
                    roots.append(radii[i] - a * (radii[i + 1] - radii[i])
                                 / (b - a))
            assert len(scan.crossings) == len(roots) >= 1
            for c, r in zip(scan.crossings, roots):
                assert abs(c.radius - r) < 1e-5


def test_criterion_5b_zeeman_splitting_oracle(si):
    with criterion("5b", "mu_B sqrt(B.G B) vs 2x2 pair diagonalization, "
                         "100 fields"):
        sol = solve(si, np.array([0.05, 0.03, 0.02]))
        pair = select_pair(si, sol, "split-off")
        momenta = pair_momenta(si, sol, pair)
        gset = g_tensor_set(si, sol, pair)
        for b_hat in random_unit_vectors(313, 100):
            b = 1e-6 * b_hat
            w = np.linalg.eigvalsh(pair_zeeman_hamiltonian(pair, momenta, b))
            resp = zeeman_response(gset, b)
            assert abs((w[1] - w[0]) - resp.splitting) <= 1e-8 * resp.splitting


def test_criterion_5c_orbital_moment_assemblies_agree(si):
    eps_cycles = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    with criterion("5c", "antisymmetric-mass vs commutator orbital moment "
                         "at 50 random k"):
        dip = dipole_matrix(si)
        for k in random_k_points(211, 50, scale=0.08):
            # test-local assembly straight from the Hamiltonian pieces
            energies, states = np.linalg.eigh(bloch_hamiltonian(si, k))
            grad = hamiltonian_gradient(si, k)
            ediff = energies[:, None] - energies[None, :]
            pi = np.array([states.conj().T @ grad[j] @ states
                           + 1j * ediff * (states.conj().T @ dip[j] @ states)
                           for j in range(3)])
            ia, ib = 2, 3
            others = np.delete(np.arange(energies.size), [ia, ib])
            e_mean = 0.5 * (energies[ia] + energies[ib])
            w = 1.0 / (e_mean - energies[others])
            p = pi[:, [ia, ib], :][:, :, others]
            q = pi[:, others, :][:, :, [ia, ib]]
            mass = np.einsum('jal,l,klb->jkab', p, w, q)
            local = np.array([-0.5j * (mass[j, kk] - mass[kk, j])
                              for _, j, kk in eps_cycles])

            sol = solve(si, k)
            pair = select_pair(si, sol, "split-off")
            table = momentum_table(si, sol, range(si.dim))
            for route, blocks in (
                    ("mean-energy", orbital_matrices(
                        pair_momenta(si, sol, pair))),
                    ("commutator",
                     orbital_matrices_commutator(pair, sol, table))):
                assert np.abs(blocks - local).max() < 1e-10, route


def test_criterion_6_surface_topology(si, ge):
    gx = boundary_radius(si.lattice_constant, [1, 0, 0])
    with criterion(6, "crossing counts and surface extents (Si tori, "
                      "Si split-off spikes, Ge rods)"):
        # Si first-conduction: one crossing on generic rays, three on
        # Sigma (the ray pierces the torus wall twice near 0.175 Bohr^-1,
        # 0.286 GX)
        for v in random_unit_vectors(2027, 10):
            scan = scan_ray(si, "first-conduction", v,
                            r_max=0.35 * boundary_radius(
                                si.lattice_constant, v),
                            n_coarse=400)
            assert len(scan.crossings) == 1, v
        sigma = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        scan = scan_ray(si, "first-conduction", sigma, r_max=0.35 * gx,
                        n_coarse=14000)
        assert len(scan.crossings) == 3, [c.radius for c in scan.crossings]

        # Si split-off surface: compact, spiked along <100>
        cloud = build_surface(si, "split-off", wedge_directions(3),
                              n_coarse=200, workers=2)
        assert len(cloud.points)
        fracs = []
        for p in cloud.points:
            r = float(np.linalg.norm(p))
            fracs.append(r / boundary_radius(si.lattice_constant, p / r))
        fracs = np.array(fracs)
        assert fracs.max() <= 0.15
        spike = cloud.points[int(np.argmax(fracs))]
        spike = np.sort(np.abs(spike / np.linalg.norm(spike)))[::-1]
        assert np.abs(spike - [1.0, 0.0, 0.0]).max() < 1e-6

        # Ge second-conduction rods: the Lambda crossing (if any) sits
        # far beyond the Delta one; on the axis the determinant stays
        # negative out to the zone boundary
        d100 = np.array([1.0, 0.0, 0.0])
        r_delta = scan_ray(ge, "second-conduction", d100,
                           r_max=0.5 * boundary_radius(
                               ge.lattice_constant, d100),
                           n_coarse=500).crossings[0].radius
        lam = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        gl = boundary_radius(ge.lattice_constant, lam)
        on_axis = scan_ray(ge, "second-conduction", lam, r_max=0.999 * gl,
                           n_coarse=2000)
        crossings_on_axis = [c.radius for c in on_axis.crossings]
        assert all(r > r_delta for r in crossings_on_axis)
        dets = dense_det(ge, "second-conduction", lam,
                         np.linspace(1e-4, 0.999 * gl, 400))
        assert np.nanmax(dets) < 0.0
        # a slightly tilted ray leaves the rod wall well beyond r_delta
        x = np.array([1.0, 0.0, 0.0])
        perp = x - (x @ lam) * lam
        perp /= np.linalg.norm(perp)
        tilt = np.deg2rad(0.5)
        v = np.cos(tilt) * lam + np.sin(tilt) * perp
        tilted = scan_ray(ge, "second-conduction", v,
                          r_max=0.999 * boundary_radius(
                              ge.lattice_constant, v),
                          n_coarse=3000)
        assert tilted.crossings
        assert tilted.crossings[0].radius > 2.0 * r_delta


def test_criterion_7_invariances(si, si_nosoc):
    with criterion(7, "SU(2) gauge, point-group covariance, and "
                      "lambda_p = 0 limits"):
        rng = np.random.default_rng(431)
        for k in random_k_points(613, 50, scale=0.08):
            pair = _pair_at(si, k, "split-off")
            g = spin_g(pair)
            sv0 = np.linalg.svd(g, compute_uv=False)
            det0 = np.linalg.det(g)
            mixed = remix_pair(pair, random_su2(rng))
            gm = spin_g(mixed)
            assert np.abs(np.linalg.svd(gm, compute_uv=False) - sv0).max() < 1e-9
            assert abs(np.linalg.det(gm) - det0) < 1e-9

        ops = cubic_group()
        for k in random_k_points(617, 5, scale=0.08):
            sol = solve(si, k)
            pair = select_pair(si, sol, "split-off")
            g = g_tensor_set(si, sol, pair).g_tot
            ref = np.linalg.eigvalsh(g @ g.T)
            for op in ops:
                sol2 = solve(si, op @ k)
                pair2 = select_pair(si, sol2, "split-off")
                g = g_tensor_set(si, sol2, pair2).g_tot
                ev = np.linalg.eigvalsh(g @ g.T)
                assert np.abs(ev - ref).max() < 1e-8

        for k in random_k_points(619, 30, scale=0.08):
            pair = _pair_at(si_nosoc, k, (0, 1))
            assert abs(np.linalg.det(spin_g(pair)) - 8.0) < 1e-9
        for d in ([1.0, 0.0, 0.0], [1.0 / np.sqrt(3.0)] * 3,
                  random_unit_vectors(23, 1)[0]):
            scan = _crossings_of(si_nosoc, (0, 1), d, r_frac=0.5)
            assert scan.crossings == []
