import numpy as np
import pytest

from gtensor_tb import BracketError, fit_report, lande
from gtensor_tb.lande import atomic_g, fit_dipole

# published <s|r|p> fits for these parameter sets (Bohr)
EXPECTED_DIPOLES = {
    "Si": 2.78804,
    "Ge": 2.53597,
    "Ga": 2.89101,
    "As": 2.45499,
}


def test_atomic_doublet_pure_spin_values(si):
    gset = atomic_g(si, "Si", dipole=0.0)
    # bare j=1/2 doublet: |g_S| = 2/3 per axis, improper frame
    assert np.allclose(gset.sigma_s, 2.0 / 3.0, atol=1e-12)
    assert gset.det_g_s == pytest.approx(-8.0 / 27.0, abs=1e-12)


def test_lande_triple_at_fitted_dipole(si, ge):
    # shipped dipoles are rounded to 1e-3 Bohr, which feeds through to
    # the orbital part at about the same size
    for model, species in ((si, "Si"), (ge, "Ge")):
        gset = atomic_g(model, species, dipole=model.dipole[species])
        assert gset.g_s[2, 2] == pytest.approx(-2.0 / 3.0, abs=1e-10)
        assert gset.g_l[2, 2] == pytest.approx(+4.0 / 3.0, abs=2e-3)
        assert gset.g_tot[2, 2] == pytest.approx(+2.0 / 3.0, abs=2e-3)


def test_atomic_tensor_is_isotropic(si):
    # an isolated atom has no preferred axis: equal singular values,
    # diagonal in the reference gauge (signs are gauge, magnitudes not)
    gset = atomic_g(si, "Si", dipole=si.dipole["Si"])
    for g in (gset.g_s, gset.g_l, gset.g_tot):
        off = g - np.diag(np.diag(g))
        assert np.abs(off).max() < 1e-12
        assert np.ptp(np.abs(np.diag(g))) < 1e-10


@pytest.mark.parametrize("material,species", [("si", "Si"), ("ge", "Ge"),
                                              ("gaas", "Ga"), ("gaas", "As")])
def test_fitted_dipoles_match_published_values(material, species, request):
    model = request.getfixturevalue(material)
    d0 = fit_dipole(model, species)
    assert d0 == pytest.approx(EXPECTED_DIPOLES[species], abs=0.01)
    # and the fit actually lands on the Lande value
    gset = atomic_g(model, species, dipole=d0)
    assert gset.g_tot[2, 2] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_fit_monotone_in_dipole(si):
    # orbital moment grows with the dipole strength: g_tot is monotone
    # in d0, so the Lande target has at most one root in the bracket
    g_vals = [atomic_g(si, "Si", dipole=d).g_tot[2, 2]
              for d in (0.0, 1.0, 2.0, 3.0)]
    assert all(b > a for a, b in zip(g_vals, g_vals[1:]))


@pytest.mark.parametrize("material,species", [("si", "Si"), ("ge", "Ge"),
                                              ("gaas", "Ga"), ("gaas", "As")])
def test_orbital_part_scales_as_dipole_squared(material, species, request):
    # the premise of the closed-form fit: with hopping off, g_L is
    # quadratic in the dipole and g_S does not depend on it
    model = request.getfixturevalue(material)
    unit = atomic_g(model, species, dipole=1.0)
    for d in (0.5, 2.7, 9.0):
        gset = atomic_g(model, species, dipole=d)
        assert gset.g_l[2, 2] == pytest.approx(d * d * unit.g_l[2, 2],
                                               rel=1e-12)
        assert gset.g_s[2, 2] == pytest.approx(unit.g_s[2, 2], rel=1e-12)


def test_unbracketed_target_raises(si, monkeypatch):
    monkeypatch.setattr(lande, "DIPOLE_BRACKET", (0.0, 0.5))
    with pytest.raises(BracketError):
        fit_dipole(si, "Si")


def test_fit_report_covers_all_species(gaas):
    report = fit_report(gaas)
    assert sorted(report) == ["As", "Ga"]
    for species, row in report.items():
        assert row["dipole_bohr"] == pytest.approx(
            EXPECTED_DIPOLES[species], abs=0.01)
        assert row["g_tot_zz"] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert row["g_s_zz"] == pytest.approx(-2.0 / 3.0, abs=1e-6)
        assert row["g_l_zz"] == pytest.approx(4.0 / 3.0, abs=1e-5)
