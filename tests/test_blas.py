import sys
import threading

import numpy as np
import pytest

from conftest import random_k_points
from gtensor_tb import bloch_hamiltonian, blas, surface, tables, wedge_directions
from gtensor_tb.bands import pair_window
from gtensor_tb.blas import one_blas_thread


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


# --- the per-thread ZHEEVR workspace of eigh_window

@pytest.fixture
def zheevr():
    if blas._lapacke_zheevr() is None:
        pytest.skip("numpy's OpenBLAS does not export LAPACKE_zheevr_work")


def _bytes(energies, states):
    return energies.tobytes(), states.tobytes()


def test_window_result_survives_later_solves(si, zheevr):
    # a result must own its arrays: 100 later solves reuse the workspace
    # and must not reach an earlier result
    h = bloch_hamiltonian(si, np.array([0.02, 0.01, 0.0]))
    energies, states = blas.eigh_window(h, 1, 4)
    saved = _bytes(energies, states)
    for k in random_k_points(5, 100, scale=0.5):
        blas.eigh_window(bloch_hamiltonian(si, k), 1, 4)
    assert _bytes(energies, states) == saved


def test_alternating_windows_match_fresh_workspaces(si, gaas, zheevr):
    # Si (n = 40) windows of whole Kramers pairs (four or six bands) and
    # GaAs (n = 16) windows of four bands, in turn, each bitwise equal to
    # a solve on a workspace of its own
    cases = []
    for k in random_k_points(7, 20, scale=0.5):
        for model, band in ((si, "split-off"), (gaas, "split-off"),
                            (si, (0, 1))):
            lo, hi = pair_window(model, band)
            cases.append((bloch_hamiltonian(model, k), lo, hi))
    assert {(h.shape[0], hi - lo + 1) for h, lo, hi in cases} == {
        (40, 6), (16, 4), (40, 4)}
    alternating = [_bytes(*blas.eigh_window(h.copy(), lo, hi))
                   for h, lo, hi in cases]
    for (h, lo, hi), result in zip(cases, alternating):
        blas._workspaces.by_shape.clear()
        assert _bytes(*blas.eigh_window(h.copy(), lo, hi)) == result


def test_threads_solve_like_serial(si, zheevr):
    # two threads solve 200 different Si windows each at the same time;
    # ctypes releases the GIL around ZHEEVR, so a workspace or H buffer
    # shared between threads would mix their results
    ks = random_k_points(11, 400, scale=0.5)

    def solved(k):
        return _bytes(*blas.eigh_window(bloch_hamiltonian(si, k), 1, 4))

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
