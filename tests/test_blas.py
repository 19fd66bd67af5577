import sys
import threading

import numpy as np
import pytest

from conftest import random_k_points
from gtensor_tb import (blas, boundary_radius, surface, tables,
                        wedge_directions)
from gtensor_tb.bands import resolve_band_indices
from gtensor_tb.blas import one_blas_thread
from gtensor_tb.hamiltonian import bloch_hamiltonian


def blas_threads():
    """Thread count of each loaded OpenBLAS, read by setting it back."""
    counts = []
    for set_threads in blas._openblas_setters():
        count = set_threads(1)
        set_threads(count)
        counts.append(count)
    return counts


@pytest.fixture
def two_threads():
    """Every OpenBLAS at two threads for the test, then as it was."""
    setters = blas._openblas_setters()
    if not setters:
        pytest.skip("no loaded OpenBLAS exports "
                    "openblas_set_num_threads_local")
    found = [set_threads(2) for set_threads in setters]
    yield [2] * len(setters)
    for set_threads, count in zip(setters, found):
        set_threads(count)


_K_LOOPS = {
    "scan_ray": (tables, lambda m: surface.scan_ray(
        m, "split-off", [1, 0, 0], r_max=0.05, n_coarse=20)),
    "band_path_rows": (tables, lambda m: tables.band_path_rows(
        m, ["L", "G"], samples_per_segment=3)),
    "gline_rows": (tables, lambda m: tables.gline_rows(
        m, "split-off", [1, 1, 1], 0.02, samples=3)),
    "entropy_rows": (tables, lambda m: tables.entropy_rows(
        m, "split-off", [1, 1, 0], 0.02, samples=3)),
}


@pytest.mark.parametrize("name", sorted(_K_LOOPS))
def test_k_loop_solves_on_one_thread(si, two_threads, monkeypatch, name):
    module, run = _K_LOOPS[name]
    seen = []

    def recording_solve(*args, **kwargs):
        seen.append(blas_threads())
        return solve(*args, **kwargs)

    solve = module.solve
    monkeypatch.setattr(module, "solve", recording_solve)
    run(si)
    assert seen and all(counts == [1] * len(two_threads) for counts in seen)
    assert blas_threads() == two_threads


def test_count_restored_after_exception(si, two_threads):
    with pytest.raises(ValueError, match="which_det"):
        surface.scan_ray(si, "split-off", [1, 0, 0], which_det="bogus")
    assert blas_threads() == two_threads


def test_nested_calls_restore_on_last_exit(two_threads):
    ones = [1] * len(two_threads)

    @one_blas_thread
    def inner():
        return blas_threads()

    @one_blas_thread
    def outer():
        return inner(), blas_threads()

    assert outer() == (ones, ones)
    assert blas_threads() == two_threads


def test_overlapping_threads_restore_on_last_exit(two_threads):
    # thread a enters, thread b enters, a leaves while b still runs:
    # b must stay at one thread, and b's exit restores the count a saved
    both_inside = threading.Barrier(2, timeout=30)
    a_left = threading.Event()
    seen_by_b = []

    @one_blas_thread
    def hold(first):
        both_inside.wait()
        if not first:
            assert a_left.wait(30)
            seen_by_b.append(blas_threads())

    def run_a():
        hold(True)
        a_left.set()

    threads = [threading.Thread(target=run_a),
               threading.Thread(target=hold, args=(False,))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert seen_by_b == [[1] * len(two_threads)]
    assert blas_threads() == two_threads


def test_workers_leave_parent_count_alone(si, two_threads):
    surface.build_surface(si, "split-off", wedge_directions(0), r_max=0.05,
                          n_coarse=60, workers=2)
    assert blas_threads() == two_threads


def test_without_openblas_same_crossings(si, monkeypatch):
    d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    pinned = surface.scan_ray(si, "split-off", d, r_max=0.1)
    monkeypatch.setattr(blas, "_openblas_setters", lambda: ())
    unpinned = surface.scan_ray(si, "split-off", d, r_max=0.1)
    assert pinned.crossings
    assert pinned.crossings == unpinned.crossings


# --- the per-thread workspaces of eigh_window

@pytest.fixture
def lapack():
    if blas._lapack() is None:
        pytest.skip("numpy's OpenBLAS does not export the LAPACKE_*_work "
                    "routines of the window route")


def _bytes(energies, states):
    return energies.tobytes(), states.tobytes()


def _window(model, band):
    """``(lo, hi, i)``: the window of ``band`` and its lower band.

    The window is the pair and its neighbours, widened to whole Kramers
    doublets (bands 2m, 2m + 1) for O_h.
    """
    i = resolve_band_indices(model, band)[0]
    lo, hi = max(i - 1, 0), min(i + 2, model.dim - 1)
    if model.point_group == "Oh":
        lo, hi = lo - lo % 2, hi | 1
    return lo, hi, i


def test_window_result_survives_later_solves(si, lapack):
    # a result must own its arrays: 100 later solves reuse the workspace
    # and must not reach an earlier result
    h = bloch_hamiltonian(si, np.array([0.02, 0.01, 0.0]))
    energies, states = blas.eigh_window(h, 0, 5, 2)
    saved = _bytes(energies, states)
    for k in random_k_points(5, 100, scale=0.5):
        blas.eigh_window(bloch_hamiltonian(si, k), 0, 5, 2)
    assert _bytes(energies, states) == saved


def test_alternating_windows_match_fresh_workspaces(si, gaas, lapack):
    # Si (n = 40) windows of whole Kramers pairs (four or six bands) and
    # GaAs (n = 16) windows of four bands, in turn, each bitwise equal to
    # a solve on a workspace of its own
    cases = []
    for k in random_k_points(7, 20, scale=0.5):
        for model, band in ((si, "split-off"), (gaas, "split-off"),
                            (si, (0, 1)), (si, (38, 39))):
            cases.append((bloch_hamiltonian(model, k), *_window(model, band)))
    assert {(h.shape[0], hi - lo + 1) for h, lo, hi, _ in cases} == {
        (40, 6), (16, 4), (40, 4)}
    alternating = [_bytes(*blas.eigh_window(h.copy(), lo, hi, i))
                   for h, lo, hi, i in cases]
    for (h, lo, hi, i), result in zip(cases, alternating):
        blas._workspaces.by_order.clear()
        assert _bytes(*blas.eigh_window(h.copy(), lo, hi, i)) == result


def test_threads_solve_like_serial(si, lapack):
    # two threads solve 200 different Si windows each at the same time;
    # ctypes releases the GIL around each LAPACK call, so a workspace or
    # H buffer shared between threads would mix their results
    ks = random_k_points(11, 400, scale=0.5)

    def solved(k):
        return _bytes(*blas.eigh_window(bloch_hamiltonian(si, k), 0, 5, 2))

    serial = [solved(k) for k in ks]
    start = threading.Barrier(2, timeout=30)
    results = {}

    def work(t):
        start.wait()
        results[t] = [solved(k) for k in ks[t::2]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == serial[0::2]
    assert results[1] == serial[1::2]


def _recording_lapack(monkeypatch, record):
    """Route eigh_window through wrappers of the four LAPACK bindings;
    each call appends ``record[name](args)`` to ``calls[name]`` after
    the routine returns, so outputs passed by reference are readable."""
    real = blas._lapack()
    calls = {name: [] for name in real._fields}

    def wrap(name, routine):
        def recorded(*args):
            info = routine(*args)
            calls[name].append(record[name](args))
            return info
        return recorded

    wrapped = real._make(wrap(name, routine)
                         for name, routine in zip(real._fields, real))
    monkeypatch.setattr(blas, "_lapack", lambda: wrapped)
    return calls


_AXES = ([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("material", ["si", "ge", "gaas"])
def test_window_route_matches_eigh(request, material, lapack, monkeypatch):
    # every configured pair at Gamma, at five points on each of the
    # [100], [110] and [111] axes out to the zone boundary and at 20
    # seeded k: the window's energies within 1e-12 Ha of eigh's, each
    # of the pair's vectors an eigenvector of its own energy to 1e-12 Ha,
    # and the pair's projector UU^dag within 1e-12 of eigh's where a gap of
    # more than 1e-3 Ha isolates the pair (eigh's own projector is then
    # fixed to about eps/gap); at Gamma the GaAs tridiagonal splits into
    # blocks, so the window's energies are sorted across blocks there
    model = request.getfixturevalue(material)
    calls = _recording_lapack(monkeypatch, {
        "zhetrd": len, "dstebz": lambda args: args[11]._obj.value,
        "zstein": len, "zunmtr": len})
    ks = [np.zeros(3), *random_k_points(31, 20, scale=0.6)]
    for axis in _AXES:
        d = np.array(axis) / np.linalg.norm(axis)
        r_max = boundary_radius(model.lattice_constant, d)
        ks += [t * r_max * d for t in (0.2, 0.4, 0.6, 0.8, 1.0)]
    isolated = 0
    for band in model.band_pairs:
        lo, hi, i = _window(model, band)
        for k in ks:
            h = bloch_hamiltonian(model, k)
            e, v = np.linalg.eigh(h)
            energies, states = blas.eigh_window(h.copy(), lo, hi, i)
            assert np.abs(energies - e[lo:hi + 1]).max() < 1e-12, (band, k)
            pair_energies = energies[i - lo:i - lo + 2]
            assert np.abs(h @ states - states * pair_energies).max() < 1e-12
            gap = min(abs(e[m] - e[n]) for n in (i, i + 1)
                      for m in (i - 1, i + 2) if 0 <= m < model.dim)
            if gap > 1e-3:
                u = v[:, i:i + 2]
                assert np.abs(states @ states.conj().T
                              - u @ u.conj().T).max() < 1e-12, (band, k)
                isolated += 1
    assert isolated >= 30 * len(model.band_pairs)
    assert len(calls["dstebz"]) == len(ks) * len(model.band_pairs)
    if material == "gaas":
        assert max(calls["dstebz"]) > 1


@pytest.mark.parametrize("material", ["si", "gaas"])
def test_one_vector_window_is_band_i(request, material, lapack):
    # vectors=1 runs ZHETRD and DSTEBZ as the two-vector call does, so
    # the energies are bit for bit the same, and forms band i's vector
    # alone: an eigenvector of its energy to 1e-12 Ha, and for GaAs,
    # whose bands are not degenerate, the two-vector call's first
    # column up to a phase; a window may then hold band i alone
    model = request.getfixturevalue(material)
    i = 2
    for k in random_k_points(47, 20, scale=0.6):
        h = bloch_hamiltonian(model, k)
        energies, states = blas.eigh_window(h.copy(), 0, 5, i)
        one_energies, xi = blas.eigh_window(h.copy(), 0, 5, i, 1)
        assert one_energies.tobytes() == energies.tobytes()
        assert xi.shape == (model.dim, 1)
        assert np.abs(h @ xi - energies[i] * xi).max() < 1e-12
        if model.point_group == "Td":
            assert abs(abs(np.vdot(states[:, 0], xi[:, 0])) - 1) < 1e-12
        alone, vector = blas.eigh_window(h.copy(), i, i, i, 1)
        assert alone.tolist() == pytest.approx([energies[i]], abs=1e-12)
        assert np.abs(h @ vector - alone[0] * vector).max() < 1e-12


def _surface_lapack_calls(model, band, directions, monkeypatch):
    """The k-points a surface solves and the arguments of its LAPACK
    calls: ZHETRD's order, DSTEBZ's ORDER and index range, ZSTEIN's
    vector count and ZUNMTR's (rows, columns); every solve is of the
    surface's band window."""
    calls = _recording_lapack(monkeypatch, {
        "zhetrd": lambda args: args[2].value,
        "dstebz": lambda args: (args[1].value, args[5], args[6]),
        "zstein": lambda args: args[4].value,
        "zunmtr": lambda args: (args[4].value, args[5].value)})
    ks, bands = [], set()

    def counted(model, k, *args):
        ks.append(k)
        bands.add(args)
        return solve(model, k, *args)

    solve = tables.solve
    monkeypatch.setattr(tables, "solve", counted)
    surface.build_surface(model, band, directions)
    assert bands == {(band,)}
    return ks, calls


def test_window_solves_form_the_pairs_two_vectors(si, lapack, monkeypatch):
    # off k_z = 0 each Si window solve forms the pair's two vectors; on
    # k_z = 0 it forms band 2's vector alone, in the glide block, and
    # takes band 3's from PT.  Work counts that do not depend on the
    # machine, on a Si split-off level-1 surface, whose three rays are
    # (0.81, 0.5, 0.31) and two on k_z = 0 (the level-0 surface's one
    # ray lies on k_z = 0): on k_z = 0 bands.solve solves the glide's
    # +i block, of order 20, for the energies of its bands 0..2 (the
    # doublets of H's bands 0..5), ZSTEIN one vector and ZUNMTR one
    # column; elsewhere H, of order 40, for the energies of bands 0..5,
    # ZSTEIN two vectors and ZUNMTR two columns
    ks, calls = _surface_lapack_calls(si, "split-off", wedge_directions(1),
                                      monkeypatch)
    on_plane = [k[2] == 0.0 for k in ks]
    assert len(ks) > 300 and 100 < on_plane.count(False) < on_plane.count(
        True)
    assert calls["zhetrd"] == [20 if p else 40 for p in on_plane]
    assert calls["dstebz"] == [(b"E", 1, 3) if p else (b"E", 1, 6)
                               for p in on_plane]
    assert calls["zstein"] == [1 if p else 2 for p in on_plane]
    assert calls["zunmtr"] == [(20, 1) if p else (40, 2) for p in on_plane]


def test_td_window_solves_form_both_vectors(gaas, lapack, monkeypatch):
    # GaAs (T_d) has no PT and no glide: every solve is of H, of order
    # 16, for the energies of the pair's window 1..4 and both vectors
    ks, calls = _surface_lapack_calls(gaas, "split-off", wedge_directions(1),
                                      monkeypatch)
    assert len(ks) > 300 and any(k[2] == 0.0 for k in ks)
    assert calls["zhetrd"] == [16] * len(ks)
    assert calls["dstebz"] == [(b"E", 2, 5)] * len(ks)
    assert calls["zstein"] == [2] * len(ks)
    assert calls["zunmtr"] == [(16, 2)] * len(ks)


def test_split_tridiagonal_pairs_vectors_with_energies(lapack, monkeypatch):
    # H = diag(A, B) reduces to a tridiagonal that splits into the two
    # blocks, A's energies (3, 4) in the first and B's (1, 2) in the
    # second: the pair (1, 2) is B's upper and A's lower band, so ZSTEIN
    # gets it in block order, 3 before 2, and the columns come back
    # swapped
    calls = _recording_lapack(monkeypatch, {
        "zhetrd": len, "dstebz": lambda args: args[11]._obj.value,
        "zstein": len, "zunmtr": len})
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    a = u @ np.diag([3.0, 4.0]) @ u.conj().T
    b = u.conj().T @ np.diag([1.0, 2.0]) @ u
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2], h[2:, 2:] = a, b
    energies, states = blas.eigh_window(h.copy(), 0, 3, 1)
    assert calls["dstebz"] == [2]
    assert blas._workspaces.by_order[4].pair_w.tolist() == pytest.approx(
        [3.0, 2.0], abs=1e-12)
    assert energies == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-12)
    assert np.abs(h @ states - states * [2.0, 3.0]).max() < 1e-12
    assert np.abs(states.conj().T @ states - np.eye(2)).max() < 1e-12
