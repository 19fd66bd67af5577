"""Radial scanning for det(g)=0 surfaces: bracketing, bisection, export.

A ray from Gamma is sampled at ``n_coarse`` radii, and every sign change
is refined by bisection on the sign down to ``BISECT_TOL`` in radius,
capped at ``TOL_PER_ZONE`` of 2 pi / a so that the tolerance shrinks
with the zone, or to four float spacings where those are wider, in at
most about 52 halvings.  Every sign, coarse or bisection, comes from one
evaluator, ``_coarse_signs``: the ray sampler
:func:`gtensor_tb.tables.sample_pairs` solves the bands it picks at each
k-point and selects the pair, and g and the determinant signs of the
k-points where the pair is defined are then formed in one stacked pass
(a bisection midpoint is a one-row pass).  The sign is that of the 3x3
cofactor determinant, with an exact 0.0 counted as +1, so it is always
+-1; on the X-W lines of Si and Ge det is zero and the sign there is
rounding (ROADMAP item 20).  Rays are independent work items, so surface
assembly parallelizes over a worker pool with a deterministic merge by
direction index.

Every cubic model scans the wedge x >= y >= z >= 0 and closes the
crossings under the 48 operations of O_h.  For O_h models that is the
crystal group.  For T_d models the determinant still has the full O_h
symmetry: time reversal maps the pair at k onto the pair at -k and g to
diag(-1, 1, -1) g, so det g(-k) = det g(k), and T_d with inversion is
O_h.

Narrow features need commensurate coarse sampling: the Sigma-direction
torus walls of the Si first-conduction pair are ~3e-5 Bohr^-1 apart and
the Ge <111> rod walls sit ~3e-4 Bohr^-1 off the axis, so resolving
them takes coarse spacing below those scales.  The default n_coarse=200
also misses root pairs that fall between two samples: on
``wedge_directions(3)`` it hides pairs on 3 Si first-conduction rays and
4 Ge second-conduction rays (ROADMAP item 3).
"""
from __future__ import annotations

import dataclasses
import functools
import math
import os

import numpy as np

# nothing here calls solve, select_pair or g_tensor_set: they stay
# imported because the benchmark's tracer wraps them by these names and
# fails without them
from .bands import select_pair, solve
from .blas import one_blas_thread
from .brillouin import (boundary_radius, cubic_group, positive_finite,
                        replicate_points, unit_direction)
from .errors import InputError
from .gtensor import (det_sign, g_tensor_set, orbital_g, orbital_matrices,
                      spin_g)
from .materials import MaterialModel
from .tables import sample_pairs, write_csv

BISECT_TOL = 1e-6  # Bohr^-1
# bisection always reaches this fraction of 2 pi / a, the reciprocal
# lattice scale: 2.2-2.3e-6 Bohr^-1 for Si, Ge and GaAs, above
# BISECT_TOL, so it binds only at lattice constants far from atomic scale
TOL_PER_ZONE = 2.0 ** -18
N_COARSE = 200


@dataclasses.dataclass
class Crossing:
    """One refined det(g)=0 radius on a ray."""

    radius: float
    bracket_width: float
    slope_sign: int


@dataclasses.dataclass
class RayScan:
    """Scan result of a single ray from Gamma."""

    direction: np.ndarray
    crossings: list[Crossing]
    failures: list


@dataclasses.dataclass
class SurfaceCloud:
    """Point cloud of det(g)=0 crossings from a set of rays."""

    material: str
    band_id: str
    which_det: str
    points: np.ndarray
    labels: np.ndarray  # (N, 3) int: dir_index, crossing_ordinal, slope_sign
    failures: list


def _coarse_signs(model: MaterialModel, band_id, which_det: str, ks) -> list:
    """The determinant sign at each k-point of ``ks``, in one stacked pass.

    :func:`~gtensor_tb.tables.sample_pairs` solves and selects the pair
    (and, for g_tot, forms the pair's momentum rows) at each k-point;
    g_S, plus g_L for g_tot, and the list of signs are then formed once
    over the stacked rows where the pair is defined.  An entry is +1 or -1,
    or the class name of the :class:`~gtensor_tb.errors.PairUndefinedError`
    that k-point raised.
    """
    reasons, pairs, momenta = sample_pairs(model, band_id, ks,
                                           momenta=which_det == "gtot")
    g = spin_g(pairs)
    if momenta is not None:
        g = g + orbital_g(orbital_matrices(momenta))
    signs = iter(det_sign(g))
    return [next(signs) if reason is None else reason for reason in reasons]


def _bisect(sign_at, lo, hi, sign_lo, tol):
    """Shrink a sign-change bracket below tol; returns (mid, width).

    ``sign_at(r)`` is the determinant sign at radius r, or the reason
    the pair is undefined there; a reason ends the bisection and is
    returned instead.  Halving stops early once the bracket is within
    four float spacings of ``hi``, where a midpoint could equal an end
    and the bracket would stop shrinking, or at 2**-52 of its starting
    width (a root next to r = 0 has float spacings far finer than its
    bracket), so a bracket takes at most about 52 halvings.  ``width``
    is the final width.
    """
    floor = max(tol, (hi - lo) * 2.0 ** -52)
    while hi - lo > max(floor, 4.0 * math.ulp(hi)):
        mid = 0.5 * (lo + hi)
        sign = sign_at(mid)
        if isinstance(sign, str):
            return sign
        if sign == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


def _check_settings(r_max, n_coarse, which_det):
    """Raise ``InputError`` for a scan setting outside its domain."""
    if r_max is not None:
        positive_finite("r_max", r_max)
    if n_coarse < 2:
        raise InputError(f"n_coarse must be >= 2, got {n_coarse}")
    if which_det not in ("gs", "gtot"):
        raise InputError(f"which_det must be 'gs' or 'gtot', not {which_det!r}")


@one_blas_thread
def scan_ray(model: MaterialModel, band_id, direction,
             r_max: float | None = None,
             n_coarse: int = N_COARSE,
             which_det: str = "gs") -> RayScan:
    """Locate all determinant sign changes along k = r * direction.

    ``r_max`` defaults to the Brillouin-zone boundary; larger requests
    are clipped to it.  Pairing failures are recorded as excluded radius
    intervals and the scan continues beyond them; an empty crossing list
    is a valid result.  Bisection stops at ``BISECT_TOL`` or
    ``TOL_PER_ZONE * 2 pi / a``, whichever is smaller.  Raises
    ``InputError`` for a zero or non-finite direction, an ``r_max`` that
    is not positive and finite, ``n_coarse < 2`` or a ``which_det``
    other than "gs" and "gtot".
    """
    direction = unit_direction(direction)
    _check_settings(r_max, n_coarse, which_det)
    r_boundary = boundary_radius(model.lattice_constant, direction)
    r_max = r_boundary if r_max is None else min(r_max, r_boundary)

    def sign_at(r):
        return _coarse_signs(model, band_id, which_det, [r * direction])[0]

    tol = min(BISECT_TOL,
              TOL_PER_ZONE * 2.0 * math.pi / model.lattice_constant)
    radii = np.linspace(0.0, r_max, n_coarse)
    signs = _coarse_signs(model, band_id, which_det,
                          radii[:, None] * direction)
    crossings = []
    failures = []
    prev = None     # (r, sign) of the last sample where the pair is defined
    gap = None      # (start, reason) of the excluded interval being passed
    for r, sign in zip(radii.tolist(), signs):
        if isinstance(sign, str):   # the pair is undefined at r
            if gap is None:
                gap = (r if prev is None else prev[0], sign)
            continue
        if gap is not None:
            failures.append((gap[0], r, gap[1]))
            gap = None
            # no bracketing across an excluded interval: its sign is unknown
        elif prev is not None and sign != prev[1]:
            found = _bisect(sign_at, prev[0], r, prev[1], tol)
            if isinstance(found, str):
                failures.append((prev[0], r, found))
            else:
                mid, width = found
                crossings.append(Crossing(radius=mid, bracket_width=width,
                                          slope_sign=sign))
        prev = (r, sign)
    if gap is not None:
        failures.append((gap[0], r_max, gap[1]))
    return RayScan(direction=direction, crossings=crossings,
                   failures=failures)


def build_surface(model: MaterialModel, band_id, directions,
                  which_det: str = "gs",
                  r_max: float | None = None,
                  n_coarse: int = N_COARSE,
                  workers: int = 1) -> SurfaceCloud:
    """Assemble a det(g)=0 point cloud from rays along ``directions``.

    The crossing set is closed under the 48 operations of O_h, for T_d
    models too (see the module docstring), so ``wedge_directions``
    cover the sphere at ~1/48 the ray count.  Results are merged by
    direction index, so the cloud is independent of worker scheduling;
    at most ``os.cpu_count()`` processes run.  Settings that
    :func:`scan_ray` rejects, and ``workers < 1``, raise ``InputError``
    before any pool starts.
    """
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    _check_settings(r_max, n_coarse, which_det)
    directions = np.asarray(directions, dtype=float)
    scan = functools.partial(scan_ray, model, band_id, r_max=r_max,
                             n_coarse=n_coarse, which_det=which_det)
    workers = min(workers, len(directions), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing  # not loaded on the serial path
        with multiprocessing.Pool(processes=workers) as pool:
            results = pool.map(scan, directions)
    else:
        results = map(scan, directions)

    points, labels, failures = [], [], []
    for index, ray in enumerate(results):  # map preserves direction order
        for ordinal, crossing in enumerate(ray.crossings):
            points.append(crossing.radius * ray.direction)
            labels.append((index, ordinal, crossing.slope_sign))
        for (lo, hi, reason) in ray.failures:
            failures.append((index, lo, hi, reason))
    points = np.array(points).reshape(-1, 3)
    points, source = replicate_points(points)

    return SurfaceCloud(
        material=model.name,
        band_id=str(band_id),
        which_det=which_det,
        points=points,
        labels=np.array(labels, dtype=int).reshape(-1, 3)[source],
        failures=failures,
    )


CSV_COLUMNS = ("kx", "ky", "kz", "dir_index", "crossing_ordinal",
               "which_det", "det_slope_sign")


def export_cloud(cloud: SurfaceCloud, path, fmt: str = "csv",
                 provenance: list | None = None) -> None:
    """Write a cloud as CSV (full metadata) or ASCII PLY (coordinates).

    Floats are printed with 17 significant digits so a CSV round-trip
    reproduces coordinates bit-exactly.  ``provenance`` lines go into
    leading '#' comments (CSV) or 'comment' lines (PLY).
    """
    provenance = provenance or []
    meta = [f"material: {cloud.material}",
            f"band: {cloud.band_id}",
            f"det: {cloud.which_det}",
            f"symmetry_ops: {len(cubic_group())}"]
    if fmt == "csv":
        rows = [[*point, index, ordinal, cloud.which_det, slope]
                for point, (index, ordinal, slope) in zip(cloud.points,
                                                          cloud.labels)]
        write_csv(path, provenance + meta, CSV_COLUMNS, rows)
    elif fmt == "ply":
        with open(path, "w", newline="") as fh:
            fh.write("ply\nformat ascii 1.0\n")
            for line in provenance + meta:
                fh.write(f"comment {line}\n")
            fh.write(f"element vertex {len(cloud.points)}\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            fh.write("end_header\n")
            for x, y, z in cloud.points:
                fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
    else:
        raise InputError(f"format must be 'csv' or 'ply', not {fmt!r}")
