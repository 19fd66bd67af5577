import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtensor_tb import (NearDegenerateIntermediateError, PairUndefinedError,
                        align_pair_to_spin_frame, boundary_radius,
                        direction_applicable, entropy, g_tensor_set,
                        pair_spin_densities, select_pair, solve, spin_g,
                        spin_flip_residual)
from gtensor_tb import gtensor, scan_ray, tables
from gtensor_tb.bands import pair_window
from gtensor_tb.tables import (ENTROPY_COLUMNS, GLINE_COLUMNS, band_path_rows,
                               entropy_rows, gline_rows)

from conftest import random_unit_vectors


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


def test_band_path_cells_are_python_floats(si):
    # the band table is built with float() and .tolist(), so its cells
    # are plain Python floats rather than np.float64 scalars
    _, rows, _ = band_path_rows(si, ["L", "G", "X"], samples_per_segment=3)
    assert {type(cell) for row in rows for cell in row} == {float}


def test_band_path_needs_two_points(si):
    with pytest.raises(ValueError):
        band_path_rows(si, ["G"])


def test_band_path_needs_two_samples_per_segment(si):
    # one sample per segment would drop the end point of the path
    with pytest.raises(ValueError):
        band_path_rows(si, ["L", "G", "X"], samples_per_segment=1)


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
    # r=0 row must be NaN, later rows valid, in both ray tables; within
    # 1e-6 of Gamma every row is NaN and the stacked tail gets no row
    for build in (gline_rows, entropy_rows):
        rows = build(si, (4, 5), [1, 0, 0], r_max=0.05, samples=6)[1]
        assert np.isnan(rows[0][4:]).all()
        assert np.isfinite(rows[1:]).all()
        rows = build(si, (4, 5), [1, 0, 0], r_max=1e-6, samples=3)[1]
        assert np.array(rows).shape == (3, len(rows[0]))
        assert np.isfinite(np.array(rows)[:, :4]).all()
        assert np.isnan(np.array(rows)[:, 4:]).all()


@pytest.mark.parametrize("build, stacked", [
    (gline_rows, "g_tensor_set"), (entropy_rows, "spin_g")],
    ids=["gline_rows", "entropy_rows"])
def test_ray_tables_align_and_score_once(si, build, stacked, monkeypatch):
    # the per-row work stops at the pair (and, for g-lines, the momentum
    # table); the g-tensors, alignment, densities and entropies run once
    # over the stacked rows
    calls = []

    def counted(name, layer):
        def wrapper(*args):
            calls.append(name)
            return layer(*args)
        return wrapper

    for name in ("align_pair_to_spin_frame", "pair_spin_densities",
                 "entropy", "g_tensor_set", "spin_g"):
        monkeypatch.setattr(tables, name, counted(name, getattr(tables, name)))
    monkeypatch.setattr(gtensor, "momentum_table",
                        counted("momentum_table", gtensor.momentum_table))
    build(si, "split-off", [1, 2, 0], r_max=0.04, samples=7)
    per_row = ["momentum_table"] * 7 if build is gline_rows else []
    assert sorted(calls) == sorted(["align_pair_to_spin_frame", "entropy",
                                    "entropy", "pair_spin_densities",
                                    stacked, *per_row])


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


def _gline_point_chain(model, band, direction, radii) -> list:
    """The g-line rows written out with public calls, one row at a time;
    the alignment factors g_S afresh instead of reusing the g-tensor
    set's SVD."""
    expected = []
    for r in radii:
        k = r * direction
        try:
            sol = solve(model, k)
            pair = select_pair(model, sol, band)
            gset = g_tensor_set(model, sol, pair)
        except PairUndefinedError:
            expected.append([r, *k] + [np.nan] * (len(GLINE_COLUMNS) - 4))
            continue
        dens = pair_spin_densities(align_pair_to_spin_frame(pair)[0])
        expected.append([r, *k, *gset.sigma_s, gset.det_g_s,
                         *gset.sigma_tot, gset.det_g_tot,
                         entropy(dens.rho_s), entropy(dens.rho_s_bar)])
    return expected


@pytest.mark.parametrize("material, band", [
    ("gaas", "split-off"), ("si", "split-off"), ("si", (4, 5)),
    ("ge", "second-conduction")],
    ids=["gaas-split-off", "si-split-off", "si-4-5", "ge-second-conduction"])
def test_gline_rows_bitwise_equal_public_chain(material, band, request):
    # Si (4, 5) has a NaN row at Gamma, so its stack is partial
    model = request.getfixturevalue(material)
    raw = np.random.default_rng(41).normal(size=3)
    direction = raw / np.linalg.norm(raw)
    r_max = boundary_radius(model.lattice_constant, direction)
    _, rows = gline_rows(model, band, raw, r_max, samples=40)
    expected = _gline_point_chain(model, band, direction,
                                  np.linspace(0.0, r_max, 40))
    assert np.isnan(np.array(expected)[:, 4]).any() == (band == (4, 5))
    assert np.array(rows).tobytes() == np.array(expected).tobytes()


def test_gline_rows_nan_exactly_where_intermediates_are_near(gaas,
                                                             monkeypatch):
    # a floor between the smallest and largest pair-to-other-band gap of
    # the ray fails a known subset of its rows; only those turn NaN
    raw = np.random.default_rng(47).normal(size=3)
    direction = raw / np.linalg.norm(raw)
    radii = np.linspace(0.0, boundary_radius(gaas.lattice_constant,
                                             direction), 40)
    gaps = []
    for r in radii:
        sol = solve(gaas, r * direction)
        pair = select_pair(gaas, sol, "split-off")
        rest = np.delete(sol.energies, pair.band_indices)
        gaps.append(np.abs(rest - pair.pair_energy).min())
    floor = float(np.median(gaps))
    near = np.array(gaps) <= floor
    assert 0 < near.sum() < len(radii)
    monkeypatch.setattr(gtensor, "ENERGY_FLOOR", floor)
    _, rows = gline_rows(gaas, "split-off", raw, radii[-1], samples=40)
    rows = np.array(rows)
    assert (np.isnan(rows[:, 4:]).all(axis=1) == near).all()
    assert not np.isnan(rows[~near]).any()
    expected = _gline_point_chain(gaas, "split-off", direction, radii)
    assert rows[~near].tobytes() == np.array(expected)[~near].tobytes()
    for r in radii[near]:
        sol = solve(gaas, r * direction)
        pair = select_pair(gaas, sol, "split-off")
        with pytest.raises(NearDegenerateIntermediateError):
            g_tensor_set(gaas, sol, pair)


@pytest.mark.parametrize("material, band", [("si", "split-off"),
                                            ("si", (4, 5)),
                                            ("gaas", "split-off")])
def test_entropy_rows_bitwise_equal_public_chain(material, band, request):
    # the point chain written out with public calls, one row at a time,
    # solving the pair's window as the sampler does; the T_d ray is off
    # <100> and <111>, so its residual column is NaN
    model = request.getfixturevalue(material)
    window = pair_window(model, band)
    raw = np.random.default_rng(43).normal(size=3)
    direction = raw / np.linalg.norm(raw)
    r_max = boundary_radius(model.lattice_constant, direction)
    _, rows, flip_ok = entropy_rows(model, band, raw, r_max, samples=40)
    assert flip_ok == (model.point_group == "Oh")
    expected = []
    for r in np.linspace(0.0, r_max, 40):
        k = r * direction
        try:
            pair = select_pair(model, solve(model, k, window), band)
        except PairUndefinedError:
            expected.append([r, *k, np.nan, np.nan, np.nan])
            continue
        aligned = align_pair_to_spin_frame(pair)[0]
        dens = pair_spin_densities(aligned)
        expected.append([r, *k, entropy(dens.rho_s), entropy(dens.rho_s_bar),
                         spin_flip_residual(model, aligned)
                         if flip_ok else np.nan])
    assert np.isnan(np.array(expected)[:, 4]).any() == (band == (4, 5))
    assert np.array(rows).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("material, band, seed", [
    ("si", "split-off", 61), ("ge", "second-conduction", 62),
    ("gaas", "split-off", 63)])
def test_entropy_rows_match_full_spectrum_chain(material, band, seed,
                                                request):
    # the public chain solving every band, one row at a time: the
    # entropy table solves only the pair's window, which moves the
    # entropies by rounding and nothing else, so they agree within
    # 1e-12 bits, and the r/k columns and the NaN pattern are identical
    model = request.getfixturevalue(material)
    for raw in np.random.default_rng(seed).normal(size=(2, 3)):
        direction = raw / np.linalg.norm(raw)
        r_max = boundary_radius(model.lattice_constant, direction)
        radii = np.linspace(0.0, r_max, 100)
        _, rows, flip_ok = entropy_rows(model, band, raw, r_max, samples=100)
        rows = np.array(rows)
        expected = np.full((len(radii), 7), np.nan)
        for n, r in enumerate(radii):
            k = r * direction
            expected[n, :4] = r, *k
            try:
                pair = select_pair(model, solve(model, k), band)
            except PairUndefinedError:
                continue
            aligned = align_pair_to_spin_frame(pair)[0]
            dens = pair_spin_densities(aligned)
            expected[n, 4:] = (entropy(dens.rho_s), entropy(dens.rho_s_bar),
                               spin_flip_residual(model, aligned)
                               if flip_ok else np.nan)
        assert rows[:, :4].tobytes() == expected[:, :4].tobytes()
        assert (np.isnan(rows) == np.isnan(expected)).all()
        defined = ~np.isnan(expected[:, 4])
        assert defined.any()
        deviation = np.abs(rows[defined, 4:6] - expected[defined, 4:6])
        assert deviation.max() <= 1e-12


@pytest.mark.parametrize("material, band", [
    ("si", "split-off"), ("si", (4, 5)), ("gaas", "split-off")],
    ids=["si-split-off", "si-4-5", "gaas-split-off"])
def test_each_caller_solves_its_window(material, band, request, monkeypatch):
    # a pass that reduces the momentum table solves every band (bands
    # None); a g_S sign pass or an entropy table solves the pair's window
    model = request.getfixturevalue(material)
    direction = random_unit_vectors(71, 1)[0]
    r_max = boundary_radius(model.lattice_constant, direction)
    window = pair_window(model, band)
    seen = []

    def recorded(model, k, bands=None):
        seen.append(bands)
        return solve(model, k, bands)

    monkeypatch.setattr(tables, "solve", recorded)
    for run, expected in [
            (lambda: gline_rows(model, band, direction, r_max, samples=8),
             None),
            (lambda: scan_ray(model, band, direction, n_coarse=8,
                              which_det="gtot"), None),
            (lambda: entropy_rows(model, band, direction, r_max, samples=8),
             window),
            (lambda: scan_ray(model, band, direction, n_coarse=8), window)]:
        seen.clear()
        run()
        assert len(seen) >= 8 and set(seen) == {expected}


def _binary_entropy(p):
    """h2(p) in bits, with 0 log 0 = 0."""
    return -sum(q * np.log2(q, out=np.zeros_like(q), where=q > 0)
                for q in (p, 1.0 - p))


@pytest.mark.parametrize("material, band, seed", [
    ("si", "split-off", 51), ("si", "first-conduction", 52),
    ("ge", "second-conduction", 53), ("gaas", "split-off", 54)])
def test_gline_entropies_match_spin_frame_closed_form(material, band, seed,
                                                      request):
    # in the spin frame 2S_i = s0_i 1 + (1/2) sum_j g_S[i, j] sigma~_j with
    # g_S = u diag(sigma) and u the proper left factor, so xi and xi_bar
    # have spin Bloch vectors s0 +- (sigma_3 / 2) u_3 and entropies
    # h2((1 + |b|) / 2): for O_h pairs s0 = 0, so both are 1 exactly where
    # det g_S = 0.  The GaAs ray is off <100> and <111>, where s0 is not 0
    # and the sign of u_3 matters.  The two routes differ by rounding
    # only, so the tolerance is 1e-12 in bits of entropy.
    model = request.getfixturevalue(material)
    direction = random_unit_vectors(seed, 1)[0]
    assert direction_applicable(model, direction) == (material != "gaas")
    r_max = boundary_radius(model.lattice_constant, direction)
    header, rows = gline_rows(model, band, direction, r_max, samples=100)
    ks = np.linspace(0.0, r_max, 100)[:, None] * direction
    reasons, pairs, _ = tables.sample_pairs(model, band, ks)
    s0 = 0.5 * np.trace(gtensor.spin_matrices(pairs), axis1=-2,
                        axis2=-1).real
    u, sigma, vh = np.linalg.svd(spin_g(pairs))
    u3 = u[:, :, 2] * np.sign(np.linalg.det(vh))[:, None]
    half = 0.5 * sigma[:, 2, None] * u3
    closed = np.column_stack([
        _binary_entropy((1.0 + np.linalg.norm(s0 + sign * half, axis=-1)) / 2)
        for sign in (1.0, -1.0)])
    columns = [header.index("entropy_xi"), header.index("entropy_xi_bar")]
    table = np.array(rows)[[reason is None for reason in reasons]][:, columns]
    assert np.abs(table - closed).max() <= 1e-12
    if material == "gaas":
        assert np.abs(s0).max() > 1e-3
    else:
        assert np.abs(s0).max() < 1e-12


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


@pytest.mark.parametrize("r_max", [np.nan, np.inf, -0.02, 0.0])
@pytest.mark.parametrize("build", [gline_rows, entropy_rows])
def test_bad_r_max_rejected_before_any_solve(si, build, r_max, monkeypatch):
    # as scan_ray does: no LinAlgError, no RuntimeWarning and no rows at
    # negative radii
    solved = []
    monkeypatch.setattr(tables, "solve", lambda *args: solved.append(args))
    with pytest.raises(ValueError,
                       match="r_max must be a positive finite number"):
        build(si, "split-off", [1, 0, 0], r_max, samples=3)
    assert not solved


def _format_cell(value) -> str:
    """One CSV cell: 17 significant digits for a float, else str()."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(-10 ** 30, 10 ** 30),
    st.booleans(),
    st.text(alphabet="abc-_.e0123456789", max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 6), data=st.data())
def test_write_csv_bytes_equal_per_cell_join(tmp_path_factory, width, data):
    # every row, whatever its cell types and width, must read as the
    # per-cell formatting joined by commas
    header = tuple(f"c{i}" for i in range(width))
    float_rows = st.lists(st.floats(allow_nan=True, allow_infinity=True),
                          min_size=width, max_size=width)
    rows = data.draw(st.lists(st.one_of(
        float_rows, st.lists(_CELLS, min_size=width, max_size=width),
        st.lists(_CELLS, min_size=0, max_size=width + 2)), max_size=6))
    path = tmp_path_factory.getbasetemp() / "write_csv_property.csv"
    tables.write_csv(path, ["note"], header, rows)
    expected = "# note\n" + ",".join(header) + "\n" + "".join(
        ",".join(_format_cell(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()
