"""Isolated-atom limit: the j=1/2 p-shell doublet and the dipole fit.

With all hopping switched off, each atom's p shell splits into j=3/2
and j=1/2 levels.  The j=1/2 doublet in the reference spin-harmonic
basis

    |1/2,+1/2> = (|z up> + |x dn> + i|y dn>)/sqrt(3)
    |1/2,-1/2> = (|z dn> - |x up> + i|y up>)/sqrt(3)

has g_S = -2/3 per axis; the intra-atomic dipole feeds the orbital
contribution g_L = +4/3 through virtual s states, so the total must
reproduce the Lande value g_j(l=1, s=1/2, j=1/2) = +2/3.  Fitting the
single free dipole to that anchor is how the <s|r|p> input of the
momentum tables is produced.

The fit is closed-form.  With hopping off, dH/dk vanishes, so the
momentum table is i (E_n - E_m) d0 <n|D|m>: g_L scales as d0**2 and
g_S does not depend on d0.  One evaluation at d0 = 1 gives both, and
d0 = sqrt((LANDE_TARGET - g_S) / g_L).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .bands import select_pair, solve
from .errors import BracketError
from .gtensor import g_tensor_set
from .materials import MaterialModel

LANDE_TARGET = 2.0 / 3.0
DIPOLE_BRACKET = (0.0, 10.0)  # Bohr, admissible range of fit_dipole


# spectator-sublattice rigid shift; with hopping off it cannot affect
# the atom under study, it only de-clutters the spectrum
_SPECTATOR_SHIFT = 10.0  # Hartree


def _single_species_model(model: MaterialModel, species: str,
                          dipole: float) -> MaterialModel:
    """Isolated-atom model: hopping off, sublattice A = ``species``,
    sublattice B pushed far away in energy."""
    other = species + "+shift"
    table = model.onsite[species]
    sk_zero = {key: 0.0 for key in model.sk[
        (model.species[0], model.species[1])]}
    return dataclasses.replace(
        model,
        species=(species, other),
        onsite={species: dict(table),
                other: {sh: v + _SPECTATOR_SHIFT for sh, v in table.items()}},
        soc={species: model.soc[species], other: model.soc[species]},
        dipole={species: dipole, other: dipole},
        sk={(species, other): dict(sk_zero), (other, species): dict(sk_zero)},
    )


def _atomic_pair(model: MaterialModel, species: str, dipole: float) -> tuple:
    """Solution and analytic j=1/2 reference pair of one isolated atom."""
    iso = _single_species_model(model, species, dipole)
    sol = solve(iso, np.zeros(3))
    e_half = iso.onsite[species]["p"] - iso.soc[species]
    idx = np.flatnonzero(np.abs(sol.energies - e_half) < 1e-12)
    if idx.size != 2:
        raise RuntimeError("j=1/2 level not isolated in the atomic limit")

    # replace the two degenerate eigh columns by the analytic doublet;
    # px, py, pz of atom 0 are orbitals 1-3 of each spin block
    up, dn = 0, 2 * iso.n_orb
    s3 = 1.0 / np.sqrt(3.0)
    states = sol.states.copy()
    states[:, idx] = 0.0
    states[[up + 3, dn + 1, dn + 2], idx[0]] = s3 * np.array([1, 1, 1j])
    states[[dn + 3, up + 1, up + 2], idx[1]] = s3 * np.array([1, -1, 1j])
    sol = dataclasses.replace(sol, states=states)
    return iso, sol, select_pair(iso, sol, tuple(idx))


def atomic_g(model: MaterialModel, species: str, dipole: float):
    """g-tensor set of the isolated-atom j=1/2 doublet.

    ``dipole`` replaces the material's <s|r|p> element (Bohr).
    """
    iso, sol, pair = _atomic_pair(model, species, dipole)
    return g_tensor_set(iso, sol, pair)


def fit_dipole(model: MaterialModel, species: str) -> float:
    """Intra-atomic dipole (Bohr) with g_tot,zz = LANDE_TARGET.

    For the species' isolated j=1/2 doublet g_tot,zz(d0) = g_S + d0**2
    g_L(1) exactly (see the module docstring), so the root is a square
    root, not a search.  Raises :class:`BracketError` when it lies
    outside ``DIPOLE_BRACKET`` or does not exist (g_L <= 0).
    """
    gset = atomic_g(model, species, dipole=1.0)
    g_s, g_l = gset.g_s[2, 2], gset.g_l[2, 2]
    lo, hi = DIPOLE_BRACKET
    if not (g_l > 0.0 and g_s + lo * lo * g_l <= LANDE_TARGET
            <= g_s + hi * hi * g_l):
        raise BracketError(
            f"dipole target {LANDE_TARGET} for {species} not reached on "
            f"{DIPOLE_BRACKET}: g_S = {g_s:.3e}, g_L/d0^2 = {g_l:.3e}")
    return float(np.sqrt((LANDE_TARGET - g_s) / g_l))


def fit_report(model: MaterialModel) -> dict:
    """Fit every species of a material; returns species -> result dict."""
    report = {}
    for species in sorted(set(model.species)):
        d0 = fit_dipole(model, species)
        gset = atomic_g(model, species, dipole=d0)
        report[species] = {
            "dipole_bohr": d0,
            "g_s_zz": float(gset.g_s[2, 2]),
            "g_l_zz": float(gset.g_l[2, 2]),
            "g_tot_zz": float(gset.g_tot[2, 2]),
        }
    return report
