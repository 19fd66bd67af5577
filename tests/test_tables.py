import numpy as np
import pytest

from gtensor_tb import (align_pair_to_spin_frame, boundary_radius, entropy,
                        g_tensor_set, pair_spin_densities, select_pair, solve)
from gtensor_tb import tables
from gtensor_tb.tables import (ENTROPY_COLUMNS, GLINE_COLUMNS, band_path_rows,
                               entropy_rows, gline_rows)


def test_band_path_geometry_and_ticks(si):
    header, rows, ticks = band_path_rows(si, ["L", "G", "X"],
                                         samples_per_segment=10)
    assert header[:4] == ("path_s", "kx", "ky", "kz")
    assert len(header) == 4 + 40
    assert len(rows) == 20          # last segment keeps its endpoint
    names = [name for _, name in ticks]
    assert names == ["L", "G", "X"]
    svals = [row[0] for row in rows]
    assert svals == sorted(svals)
    # ticks sit at cumulative segment lengths
    a = si.lattice_constant
    g = 2 * np.pi / a
    assert ticks[1][0] == pytest.approx(g * np.sqrt(3) / 2)
    assert ticks[2][0] == pytest.approx(g * np.sqrt(3) / 2 + g)


def test_band_path_energies_are_sorted_hartree(si):
    _, rows, _ = band_path_rows(si, ["G", "X"], samples_per_segment=5)
    gamma_row = rows[0]
    energies = np.array(gamma_row[4:])
    assert np.all(np.diff(energies) >= 0)
    # Hartree scale sanity: valence window within ~1 Ha of zero
    assert np.abs(energies).max() < 2.0


def test_band_path_needs_two_points(si):
    with pytest.raises(ValueError):
        band_path_rows(si, ["G"])


def test_gline_anchors_and_shape(si):
    header, rows = gline_rows(si, "split-off", [1, 0, 0], r_max=0.05,
                              samples=11)
    assert header == GLINE_COLUMNS
    assert len(rows) == 11
    first, last = rows[0], rows[-1]
    det_gs = header.index("det_gs")
    assert first[det_gs] == pytest.approx(-8.0 / 27.0, abs=1e-9)
    assert last[det_gs] > 0      # past the split-off crossing
    # entropies are defined and within [0, 1]
    for row in rows:
        assert 0.0 <= row[header.index("entropy_xi")] <= 1.0 + 1e-9


def test_gline_nan_rows_on_pairing_failure(si):
    # the (4,5) labels sit inside the fourfold multiplet at Gamma: the
    # r=0 row must be NaN, later rows valid
    header, rows = gline_rows(si, (4, 5), [1, 0, 0], r_max=0.05, samples=6)
    det_gs = header.index("det_gs")
    assert np.isnan(rows[0][det_gs])
    assert np.isfinite(rows[-1][det_gs])


def test_entropy_rows_residual_column_oh(si):
    header, rows, flip_ok = entropy_rows(si, "split-off", [1, 1, 0],
                                          r_max=0.04, samples=6)
    assert header == ENTROPY_COLUMNS
    assert flip_ok
    res = header.index("spin_flip_residual")
    finite = [row[res] for row in rows if np.isfinite(row[res])]
    assert finite and max(finite) < 1e-8


def test_entropy_rows_residual_refused_td(gaas):
    header, rows, flip_ok = entropy_rows(gaas, "split-off", [1, 1, 0],
                                          r_max=0.04, samples=6)
    assert not flip_ok
    res = header.index("spin_flip_residual")
    assert all(np.isnan(row[res]) for row in rows)
    # entropies themselves are still reported
    s_col = header.index("entropy_xi")
    assert all(np.isfinite(row[s_col]) for row in rows[1:])


def test_entropy_rows_residual_allowed_td_family(gaas):
    _, rows, flip_ok = entropy_rows(gaas, "split-off", [1, 1, 1],
                                     r_max=0.04, samples=6)
    assert flip_ok
    res = ENTROPY_COLUMNS.index("spin_flip_residual")
    finite = [row[res] for row in rows if np.isfinite(row[res])]
    assert finite and max(finite) < 1e-8


def test_gline_rows_bitwise_equal_public_chain(gaas):
    # the point chain written out with public calls; the alignment
    # factors g_S afresh instead of reusing the g-tensor set's SVD
    raw = np.random.default_rng(41).normal(size=3)
    direction = raw / np.linalg.norm(raw)
    r_max = boundary_radius(gaas.lattice_constant, direction)
    _, rows = gline_rows(gaas, "split-off", raw, r_max, samples=40)
    expected = []
    for r in np.linspace(0.0, r_max, 40):
        k = r * direction
        sol = solve(gaas, k)
        pair = select_pair(gaas, sol, "split-off")
        gset = g_tensor_set(gaas, sol, pair)
        dens = pair_spin_densities(align_pair_to_spin_frame(pair)[0])
        expected.append([r, *k, *gset.sigma_s, gset.det_g_s,
                         *gset.sigma_tot, gset.det_g_tot,
                         entropy(dens.rho_s), entropy(dens.rho_s_bar)])
    assert np.array(rows).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("direction", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                       [1e300, 1e300, 0.0]])
@pytest.mark.parametrize("build", [gline_rows, entropy_rows])
def test_bad_direction_rejected_before_any_solve(si, build, direction,
                                                 monkeypatch):
    solved = []
    monkeypatch.setattr(tables, "solve", lambda *args: solved.append(args))
    with pytest.raises(ValueError, match="direction"):
        build(si, "split-off", direction, 0.02, samples=3)
    assert not solved
