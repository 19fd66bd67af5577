import collections
import contextlib
import json
import math
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtensor_tb import (MaterialValidationError, boundary_radius,
                        build_surface, builtin_material_path, cubic_group,
                        export_cloud, icosphere_directions, load_material,
                        scan_ray, select_pair, solve, spin_g, surface,
                        tables, wedge_directions)
from gtensor_tb.brillouin import wedge_representative

from conftest import random_unit_vectors
from oracles import dense_det, in_first_zone, point_signs, read_cloud_csv


def _dense_roots(model, band_id, direction, r_max, which_det, samples=2000):
    """Independent oracle: linear interpolation of a dense determinant
    trace on the full spectrum (no band window, no bisection)."""
    radii = np.linspace(1e-6, r_max, samples)
    det = dense_det(model, band_id, direction, radii, which_det=which_det)
    roots = []
    for i in range(len(radii) - 1):
        a, b = det[i], det[i + 1]
        if np.isnan(a) or np.isnan(b) or a == 0.0 or np.sign(a) == np.sign(b):
            continue
        roots.append(radii[i] - a * (radii[i + 1] - radii[i]) / (b - a))
    return roots


def test_single_crossing_on_delta_matches_dense_oracle(si):
    r_max = 0.2 * boundary_radius(si.lattice_constant, [1, 0, 0])
    scan = scan_ray(si, "split-off", [1, 0, 0], r_max=r_max)
    assert len(scan.crossings) == 1
    oracle = _dense_roots(si, "split-off", [1, 0, 0], r_max, "gs")
    assert len(oracle) == 1
    assert scan.crossings[0].radius == pytest.approx(oracle[0], abs=1e-5)
    assert scan.crossings[0].bracket_width <= 1e-6
    # det goes from negative (Gamma value -8/27) to positive
    assert scan.crossings[0].slope_sign == +1


def test_random_rays_match_dense_oracle(si):
    for d in random_unit_vectors(61, 4):
        r_max = 0.1 * boundary_radius(si.lattice_constant, d)
        scan = scan_ray(si, "split-off", d, r_max=r_max)
        oracle = _dense_roots(si, "split-off", d, r_max, "gs")
        assert len(scan.crossings) == len(oracle)
        for c, r in zip(scan.crossings, oracle):
            assert c.radius == pytest.approx(r, abs=1e-5)


def test_no_soc_no_surface(si_nosoc):
    # det(g_S) = +8 identically without SOC: nothing to find
    scan = scan_ray(si_nosoc, (0, 1), [1, 0, 0],
                    r_max=0.3 * boundary_radius(si_nosoc.lattice_constant,
                                                [1, 0, 0]))
    assert scan.crossings == []


@pytest.mark.parametrize("band", ["split-off", "first-conduction"])
def test_surface_survives_weak_soc(si, band):
    # the paper: det(g_S) = 0 surfaces exist however weak the spin-orbit
    # coupling; on [100] the crossing moves in as k_c ~ f^(1/2)
    scaled = []
    for f in (1.0, 0.1, 0.01, 0.003):
        model = si.with_soc_scaled(f)
        scan = scan_ray(model, band, [1, 0, 0], r_max=0.05, n_coarse=400)
        assert len(scan.crossings) == 1, (f, scan.crossings)
        scaled.append(scan.crossings[0].radius / math.sqrt(f))
        g = spin_g(select_pair(model, solve(model, np.zeros(3)), band))
        assert np.linalg.det(g) == pytest.approx(-8.0 / 27.0, abs=1e-9)
    assert max(scaled) / min(scaled) < 1.02, scaled


def test_sign_parity_between_consecutive_crossings(si):
    # between consecutive crossings the determinant keeps one sign, so
    # slope signs must alternate along any clean ray
    d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    r_max = 0.35 * boundary_radius(si.lattice_constant, d)
    scan = scan_ray(si, "first-conduction", d, r_max=r_max, n_coarse=14000)
    assert len(scan.crossings) >= 2
    slopes = [c.slope_sign for c in scan.crossings]
    for a, b in zip(slopes, slopes[1:]):
        assert a == -b


def test_doubling_ncoarse_never_loses_crossings(si):
    d = np.array([1.0, 0.0, 0.0])
    r_max = 0.2 * boundary_radius(si.lattice_constant, d)
    found = [len(scan_ray(si, "split-off", d, r_max=r_max,
                          n_coarse=n).crossings)
             for n in (50, 100, 200, 400)]
    assert all(b >= a for a, b in zip(found, found[1:]))


def test_rmax_clipping_flagged(si):
    r_zone = boundary_radius(si.lattice_constant, [1, 0, 0])
    scan = scan_ray(si, "split-off", [1, 0, 0], r_max=2.0 * r_zone)
    assert scan.clipped
    assert scan.r_max == pytest.approx(r_zone)


def test_failure_intervals_recorded_not_fatal(si, ge):
    # the Ge split-off pair collides with the heavy bands further out;
    # scans must record excluded intervals instead of dying
    d = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    r_max = boundary_radius(ge.lattice_constant, d)
    scan = scan_ray(ge, "split-off", d, r_max=r_max)
    assert isinstance(scan.failures, list)
    for lo, hi, reason in scan.failures:
        assert 0 <= lo < hi <= r_max
        assert isinstance(reason, str) and reason
    # the Si first-conduction pair meets the next band at X, so the last
    # coarse sample along [100] is undefined; the interval must match
    # the NaN pattern of the full-spectrum oracle on the same grid
    d = np.array([1.0, 0.0, 0.0])
    scan = scan_ray(si, "first-conduction", d, n_coarse=120)
    radii = np.linspace(0.0, scan.r_max, 120)
    det = dense_det(si, "first-conduction", d, radii)
    assert np.flatnonzero(np.isnan(det)).tolist() == [119]
    assert scan.failures == [(radii[118], radii[119], "PairingAmbiguityError")]
    assert scan.failures[0][:2] == pytest.approx((0.60707, 0.61221), abs=1e-5)
    assert len(scan.crossings) == 1


def _scan_with(monkeypatch, sign_at):
    """Make scan_ray take every sign, coarse or bisection, from
    ``sign_at(k)``: +1, -1 or the reason the pair is undefined at k."""
    monkeypatch.setattr(surface, "_coarse_signs",
                        lambda model, band_id, which_det, ks:
                        [sign_at(k) for k in ks])


def test_undefined_runs_split_the_ray(si, monkeypatch):
    # leading, middle and trailing undefined runs; the sign differs
    # across each run, and one real sign change at 0.65 r_max lies
    # between defined samples
    r_max = boundary_radius(si.lattice_constant, [1, 0, 0])

    def sign_at(k):
        f = k[0] / r_max
        if f < 0.15:
            return "PairingAmbiguityError"
        if 0.35 <= f < 0.45 or f >= 0.85:
            return "NearDegenerateIntermediateError"
        return -1 if 0.45 <= f < 0.65 else 1

    _scan_with(monkeypatch, sign_at)
    scan = scan_ray(si, "split-off", [1, 0, 0], n_coarse=11)
    radii = np.linspace(0.0, r_max, 11)
    assert scan.failures == [
        (radii[0], radii[2], "PairingAmbiguityError"),
        (radii[3], radii[5], "NearDegenerateIntermediateError"),
        (radii[8], r_max, "NearDegenerateIntermediateError"),
    ]
    assert len(scan.crossings) == 1
    assert scan.crossings[0].radius == pytest.approx(0.65 * r_max, abs=1e-6)
    assert scan.crossings[0].slope_sign == 1


def test_undefined_bisection_midpoint_is_a_failure_interval(si, monkeypatch):
    # every coarse sample is defined; the pair is undefined only strictly
    # inside the bracket [r_4, r_5], where the first midpoint falls, so
    # that bracket becomes a failure interval, not a crossing, and the
    # sign change at 0.75 r_max beyond it is still bisected
    r_max = boundary_radius(si.lattice_constant, [1, 0, 0])
    midpoints = []

    def sign_at(k):
        f = k[0] / r_max
        if 0.44 < f < 0.46:
            midpoints.append(f)
            return "NearDegenerateIntermediateError"
        return -1 if 0.45 <= f < 0.75 else 1

    _scan_with(monkeypatch, sign_at)
    scan = scan_ray(si, "split-off", [1, 0, 0], n_coarse=11)
    radii = np.linspace(0.0, r_max, 11)
    assert midpoints == [pytest.approx(0.45)]
    assert scan.failures == [
        (radii[4], radii[5], "NearDegenerateIntermediateError")]
    assert len(scan.crossings) == 1
    assert scan.crossings[0].radius == pytest.approx(0.75 * r_max, abs=1e-6)
    assert scan.crossings[0].slope_sign == 1


@contextlib.contextmanager
def _counted_solves(n_coarse):
    """Count the evaluations of scan_ray, coarse samples and bisection
    steps, which tables.sample_pairs solves; fail, rather than loop,
    past ``n_coarse`` coarse samples and 64 halvings per possible
    bracket."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        assert len(calls) <= n_coarse + 64 * (n_coarse - 1), "runaway scan"
        return solve(*args, **kwargs)

    tables.solve = counted
    try:
        yield calls
    finally:
        tables.solve = solve


def _si_with_lattice_constant(directory, a_ang):
    doc = json.loads(builtin_material_path("si").read_text())
    path = directory / f"si-{a_ang!r}.json"
    path.write_text(json.dumps({**doc, "lattice_constant_angstrom": a_ang}))
    return load_material(path)


def test_bisection_stops_at_float_resolution(tmp_path):
    # at 1e-153 Angstrom the zone radius is ~4e153 Bohr^-1 along this
    # ray, where one float spacing is ~1e137, far above BISECT_TOL: the
    # halving ends after about 52 steps instead of looping
    model = _si_with_lattice_constant(tmp_path, 1e-153)
    with _counted_solves(4) as calls:
        scan = scan_ray(model, "split-off", wedge_directions(0)[0], n_coarse=4)
    assert len(scan.crossings) == 1 and not scan.failures
    assert len(calls) <= 4 + 53
    assert scan.crossings[0].bracket_width > surface.BISECT_TOL


def test_bisection_next_to_gamma_is_bounded(si, monkeypatch):
    # a root at 1e-250 r_max sits in the bracket [0, r_1], where float
    # spacings shrink with the bracket: halving stops at 2**-52 of the
    # starting width, not after ~830 halvings down to the root
    r_max = boundary_radius(si.lattice_constant, [1, 0, 0])
    calls = []

    def sign_at(k):
        calls.append(k[0])
        return 1 if k[0] < 1e-250 * r_max else -1

    _scan_with(monkeypatch, sign_at)
    scan = scan_ray(si, "split-off", [1, 0, 0], n_coarse=4, bisect_tol=1e-300)
    assert len(scan.crossings) == 1
    assert len(calls) <= 4 + 53
    width = scan.crossings[0].bracket_width
    assert width <= (r_max / 3) * 2.0 ** -52


def test_bisection_tolerance_scales_with_the_zone(tmp_path):
    # at 1e13 Angstrom the whole ray is shorter than BISECT_TOL; the
    # tolerance is capped at 2**-18 of 2 pi / a, so the crossing is still
    # bisected instead of reported at the middle of a coarse interval
    model = _si_with_lattice_constant(tmp_path, 1e13)
    direction = wedge_directions(0)[0]
    scan = scan_ray(model, "split-off", direction, n_coarse=4)
    assert len(scan.crossings) == 1 and not scan.failures
    zone = 2.0 * math.pi / model.lattice_constant
    width = scan.crossings[0].bracket_width
    assert 0.0 < width <= 2.0 ** -18 * zone


@settings(max_examples=40, deadline=None)
@given(st.floats(-150.0, 150.0), st.sampled_from(range(42)))
def test_any_lattice_constant_scans_in_bounded_work(tmp_path_factory, log_a,
                                                    ray):
    # log-uniform lattice constants from 1e-150 to 1e150 Angstrom: the
    # file is rejected, or the zone radius is positive and finite and a
    # ray is scanned within n_coarse + 64 x (sign changes) evaluations
    try:
        model = _si_with_lattice_constant(tmp_path_factory.mktemp("a"),
                                          10.0 ** log_a)
    except MaterialValidationError:
        return
    direction = icosphere_directions(1)[ray]
    radius = boundary_radius(model.lattice_constant, direction)
    assert 0.0 < radius < math.inf
    with _counted_solves(4) as calls:
        scan = scan_ray(model, "split-off", direction, n_coarse=4)
    assert scan.r_max == radius
    assert len(calls) <= 4 + 64 * (len(scan.crossings) + len(scan.failures))


def test_evaluation_counts_are_exact(si, monkeypatch):
    # on a ray without failure intervals every solve is one of the
    # n_coarse samples of one sampler pass, or one halving of a bracket,
    # which starts at the coarse spacing, in a one-row pass of its own;
    # the ray tables solve each of their samples once
    direction = wedge_directions(1)[0]
    passes = []

    def recorded(model, band_id, ks, *args, **kwargs):
        passes.append(len(ks))
        return tables.sample_pairs(model, band_id, ks, *args, **kwargs)

    monkeypatch.setattr(surface, "sample_pairs", recorded)
    with _counted_solves(40) as calls:
        scan = scan_ray(si, "split-off", direction, n_coarse=40)
    assert scan.crossings and not scan.failures
    spacing = scan.r_max / 39
    halvings = [round(math.log2(spacing / crossing.bracket_width))
                for crossing in scan.crossings]
    assert passes == [40] + [1] * sum(halvings)
    assert len(calls) == 40 + sum(halvings)
    for build in (tables.gline_rows, tables.entropy_rows):
        with _counted_solves(40) as calls:
            build(si, "split-off", direction, scan.r_max, samples=40)
        assert len(calls) == 40


def _scans_both_ways(monkeypatch, model, band, directions, which_det):
    """scan_ray on every direction with the stacked sign passes, then
    with the per-point reference: (entries of every pass, coarse or
    bisection, and scans) of each."""
    both = []
    for coarse in (surface._coarse_signs, point_signs):
        entries = []

        def recorded(*args, coarse=coarse, entries=entries):
            entries.append(coarse(*args))
            return entries[-1]

        with monkeypatch.context() as patch:
            patch.setattr(surface, "_coarse_signs", recorded)
            scans = [scan_ray(model, band, d, which_det=which_det)
                     for d in directions]
        both.append((entries, scans))
    return both


@pytest.mark.parametrize("band, level, which_det", [
    ("split-off", 3, "gs"), ("first-conduction", 3, "gs"),
    ("split-off", 1, "gtot")])
def test_coarse_pass_matches_per_point_scan(si, monkeypatch, band, level,
                                            which_det):
    # the stacked g pass gives every coarse sample and every bisection
    # midpoint the sign (or failure) of the scalar chain, so crossings
    # and failure intervals agree too
    directions = wedge_directions(level)
    (stacked, stacked_scans), (points, point_scans) = _scans_both_ways(
        monkeypatch, si, band, directions, which_det)
    sizes = collections.Counter(len(entries) for entries in stacked)
    assert sizes[surface.N_COARSE] == len(directions)
    assert set(sizes) == {surface.N_COARSE, 1}  # a midpoint is one row
    assert stacked == points
    assert {1, -1} <= {e for entries in points for e in entries}
    for ray, (a, b) in enumerate(zip(stacked_scans, point_scans)):
        assert a.crossings == b.crossings, ray
        assert a.failures == b.failures, ray
    failed = {ray: scan.failures for ray, scan in enumerate(stacked_scans)
              if scan.failures}
    last = len(directions) - 1  # [100]: the pair meets another band at X
    assert list(failed) == [last]
    [(_, hi, reason)] = failed[last]
    assert reason == "PairingAmbiguityError"
    assert hi == stacked_scans[last].r_max


@pytest.mark.parametrize("which_det", ["gs", "gtot"])
def test_ray_without_a_defined_sample(si, which_det):
    # bands 1 and 4 belong to two different Kramers doublets, so the pair
    # is ambiguous at every sample and the stacked pass has no row
    scan = scan_ray(si, (1, 4), [1, 0, 0], n_coarse=20, which_det=which_det)
    assert scan.crossings == []
    assert scan.failures == [(0.0, scan.r_max, "PairingAmbiguityError")]


def test_gtot_dets_also_scanned(si):
    r_max = 0.2 * boundary_radius(si.lattice_constant, [1, 0, 0])
    scan = scan_ray(si, "split-off", [1, 0, 0], r_max=r_max, which_det="gtot")
    oracle = _dense_roots(si, "split-off", [1, 0, 0], r_max, "gtot")
    assert scan.which_det == "gtot"
    assert len(scan.crossings) == len(oracle)
    for c, r in zip(scan.crossings, oracle):
        assert c.radius == pytest.approx(r, abs=1e-5)


def test_unknown_which_det_is_rejected(si):
    with pytest.raises(ValueError, match="which_det"):
        scan_ray(si, "split-off", [1, 0, 0], which_det="bogus")


@pytest.mark.parametrize("kwargs, match", [
    ({"r_max": -1.0}, "r_max"),
    ({"r_max": 0.0}, "r_max"),
    ({"r_max": float("nan")}, "r_max"),
    ({"r_max": float("inf")}, "r_max"),
    ({"n_coarse": 1}, "n_coarse"),
    ({"n_coarse": 0}, "n_coarse"),
    ({"bisect_tol": 0.0}, "bisect_tol"),
    ({"bisect_tol": float("nan")}, "bisect_tol"),
])
def test_scan_ray_rejects_out_of_domain_numbers(si, kwargs, match):
    # the domains of the CLI's own checks (and a positive bisect_tol,
    # without which the bisection never ends)
    with pytest.raises(ValueError, match=match):
        scan_ray(si, "split-off", [1, 0, 0], **kwargs)


@pytest.mark.parametrize("direction", [
    [0.0, 0.0, 0.0], [float("nan"), 1.0, 0.0], [float("inf"), 0.0, 0.0],
    [1.0, 0.0],
])
def test_bad_direction_is_rejected(si, direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="direction"):
            scan_ray(si, "split-off", direction)


def test_build_surface_deterministic_across_workers(si):
    dirs = wedge_directions(0)
    kw = dict(which_det="gs", r_max=0.05, n_coarse=60)
    one = build_surface(si, "split-off", dirs, workers=1, **kw)
    two = build_surface(si, "split-off", dirs, workers=2, **kw)
    assert np.array_equal(one.points, two.points)
    assert np.array_equal(one.labels, two.labels)


class _InProcessPool:
    """Stands in for ``multiprocessing.Pool``: records its size, maps here."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return list(map(func, items))


@pytest.mark.parametrize("level, pool_sizes", [(0, []), (1, [3])])
def test_pool_is_no_larger_than_the_ray_count(si, monkeypatch, level,
                                              pool_sizes):
    # one ray starts no pool and three rays start three processes, not 64
    monkeypatch.setattr(multiprocessing, "Pool", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    dirs = wedge_directions(level)
    kw = dict(r_max=0.05, n_coarse=60)
    many = build_surface(si, "split-off", dirs, workers=64, **kw)
    assert _InProcessPool.sizes == pool_sizes
    one = build_surface(si, "split-off", dirs, workers=1, **kw)
    assert np.array_equal(many.points, one.points)
    assert np.array_equal(many.labels, one.labels)


def _stabiliser_order(direction) -> int:
    """Signed permutations fixing a wedge direction x >= y >= z >= 0.

    Zero components may be permuted among themselves and flipped; equal
    non-zero components may be permuted among themselves.
    """
    zeros = int(np.count_nonzero(direction == 0.0))
    equal = collections.Counter(direction[direction != 0.0].tolist())
    return (2 ** zeros * math.factorial(zeros)
            * math.prod(math.factorial(n) for n in equal.values()))


def test_replicated_cloud_is_the_sum_of_ray_orbits(si, monkeypatch):
    # every crossing on ray d has exactly 48 / |stabiliser(d)| images
    scans = []

    def recording_scan(*args, **kwargs):
        scans.append(scan_ray(*args, **kwargs))
        return scans[-1]

    monkeypatch.setattr(surface, "scan_ray", recording_scan)
    dirs = wedge_directions(3)
    cloud = build_surface(si, "split-off", dirs)
    expected = sum(len(scan.crossings) * 48 // _stabiliser_order(d)
                   for scan, d in zip(scans, dirs, strict=True))
    assert len(cloud.points) == expected == 1254


def test_replicated_cloud_is_symmetry_closed(si):
    dirs = wedge_directions(0)
    cloud = build_surface(si, "split-off", dirs, r_max=0.05, n_coarse=60)
    pts = cloud.points
    assert len(pts) > len(dirs)
    for op in cubic_group()[::7]:
        images = pts @ op.T
        for img in images[::5]:
            assert np.min(np.abs(pts - img).max(axis=1)) < 1e-5
    # all points inside the zone
    for p in pts[::10]:
        assert in_first_zone(si.lattice_constant, p, tol=1e-6)


def test_replication_preserves_radius(si):
    # every image lies at the radius its ray's scan found for its label
    dirs = wedge_directions(1)
    kw = dict(r_max=0.05, n_coarse=60)
    cloud = build_surface(si, "split-off", dirs, **kw)
    scans = [scan_ray(si, "split-off", d, **kw) for d in dirs]
    expected = [scans[index].crossings[ordinal].radius
                for index, ordinal, _ in cloud.labels]
    assert len(cloud.points) > len(dirs)
    assert np.allclose(np.linalg.norm(cloud.points, axis=1), expected,
                       rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("band", ["split-off", "second-conduction"])
def test_td_rays_scan_like_their_wedge_representatives(gaas, band):
    # det g of a T_d model has the full O_h symmetry (time reversal sends
    # det g(-k) to det g(k)), so scanning the wedge and replicating by
    # all 48 operations loses no crossing
    wedge = {}
    for d in icosphere_directions(1):
        rep = wedge_representative(d)
        key = tuple(np.round(rep, 9))  # as wedge_directions merges them
        if key not in wedge:
            wedge[key] = scan_ray(gaas, band, rep)
        full = scan_ray(gaas, band, d)
        expected = [c.radius for c in wedge[key].crossings]
        assert len(full.crossings) == len(expected)
        assert np.allclose([c.radius for c in full.crossings], expected,
                           rtol=0.0, atol=surface.BISECT_TOL)
    assert len(wedge) == len(wedge_directions(1))
    assert all(scan.crossings for scan in wedge.values())


def test_csv_round_trip_bit_exact(si, tmp_path):
    dirs = wedge_directions(0)
    cloud = build_surface(si, "split-off", dirs, r_max=0.05, n_coarse=60)
    path = tmp_path / "cloud.csv"
    export_cloud(cloud, path)
    back = read_cloud_csv(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.labels, cloud.labels)
    assert back.material == cloud.material
    assert back.band_id == cloud.band_id
    assert back.which_det == cloud.which_det
    assert "# symmetry_ops: 48\n" in path.read_text()
    assert b"\r" not in path.read_bytes()


def test_ply_export_counts_vertices(si, tmp_path):
    dirs = wedge_directions(0)
    cloud = build_surface(si, "split-off", dirs, r_max=0.05, n_coarse=60)
    path = tmp_path / "cloud.ply"
    export_cloud(cloud, path, fmt="ply")
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    n = next(int(line.split()[-1]) for line in text
             if line.startswith("element vertex"))
    assert n == len(cloud.points)
    body = text[text.index("end_header") + 1:]
    assert len([ln for ln in body if ln.strip()]) == n


def test_empty_cloud_round_trip(si_nosoc, tmp_path):
    cloud = build_surface(si_nosoc, (0, 1), wedge_directions(0),
                          r_max=0.05, n_coarse=40)
    assert cloud.points.shape == (0, 3)
    path = tmp_path / "empty.csv"
    export_cloud(cloud, path)
    back = read_cloud_csv(path)
    assert back.points.shape == (0, 3)
    assert back.which_det == "gs"
    assert back.band_id == "(0, 1)"


def test_wedge_scan_finds_same_radii_as_full_scan(si):
    # scanning wedge representatives and replicating must agree with
    # scanning the images directly
    d_full = np.array([0.0, 1.0, 0.0])
    rep = wedge_representative(d_full)
    r1 = scan_ray(si, "split-off", d_full, r_max=0.05).crossings[0].radius
    r2 = scan_ray(si, "split-off", rep, r_max=0.05).crossings[0].radius
    assert r1 == pytest.approx(r2, abs=1e-9)
