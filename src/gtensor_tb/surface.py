"""Radial scanning for det(g)=0 surfaces: bracketing, bisection, export.

A ray from Gamma is sampled at ``n_coarse`` radii; every sign change of
the chosen determinant is refined by bisection on the sign down to
``bisect_tol`` in radius.  The sign is that of the 3x3 cofactor
determinant, with an exact 0.0 counted as +1, so it is always +-1.
Rays are independent work items, so surface assembly
parallelizes over a worker pool with a deterministic merge by direction
index.

Narrow features need commensurate coarse sampling: the Sigma-direction
torus walls of the Si first-conduction pair are ~3e-5 Bohr^-1 apart and
the Ge <111> rod walls sit ~3e-4 Bohr^-1 off the axis, so resolving
them takes coarse spacing below those scales (the default n_coarse=200
resolves everything else).
"""
from __future__ import annotations

import dataclasses
import functools
import math
import multiprocessing

import numpy as np

from .bands import pair_window, select_pair, solve
from .blas import one_blas_thread
from .brillouin import (boundary_radius, point_group_ops, replicate_points,
                        unit_direction)
from .errors import PairUndefinedError
from .gtensor import det_sign, g_tensor_set, spin_g
from .materials import MaterialModel
from .tables import write_csv

BISECT_TOL = 1e-6  # Bohr^-1
N_COARSE = 200


@dataclasses.dataclass
class Crossing:
    """One refined det(g)=0 radius on a ray."""

    radius: float
    which_det: str
    bracket_width: float
    slope_sign: int


@dataclasses.dataclass
class RayScan:
    """Scan result of a single ray from Gamma."""

    direction: np.ndarray
    r_max: float
    which_det: str
    crossings: list
    failures: list
    clipped: bool


@dataclasses.dataclass
class SurfaceCloud:
    """Point cloud of det(g)=0 crossings from a set of rays."""

    material: str
    band_id: str
    which_det: str
    points: np.ndarray
    dir_index: np.ndarray
    crossing_ordinal: np.ndarray
    slope_sign: np.ndarray
    symmetry_ops_applied: int     # 0 = raw rays, else point-group order
    failures: list


def _g_at(model: MaterialModel, band_id, k, which_det: str) -> np.ndarray:
    """The chosen 3x3 g-tensor (g_S or g_tot) at one k-point.

    g_S reads only the pair and its neighbours, so only that window of
    bands is solved; g_tot sums over all bands and solves them all.
    """
    if which_det == "gs":
        sol = solve(model, k, bands=pair_window(model, band_id))
        return spin_g(select_pair(model, sol, band_id))
    if which_det == "gtot":
        sol = solve(model, k)
        return g_tensor_set(model, sol, select_pair(model, sol, band_id)).g_tot
    raise ValueError(f"which_det must be 'gs' or 'gtot', not {which_det!r}")


@one_blas_thread
def det_along_ray(model: MaterialModel, band_id, direction, radii,
                  which_det: str = "gs") -> np.ndarray:
    """Determinant values on a radius grid (NaN where pairing fails).

    The dense-scan companion of :func:`scan_ray`, used as an
    independent root oracle and for det-along-a-ray tables.
    """
    direction = unit_direction(direction)
    out = np.empty(len(radii))
    for i, r in enumerate(radii):
        try:
            out[i] = np.linalg.det(_g_at(model, band_id, r * direction,
                                         which_det))
        except PairUndefinedError:
            out[i] = np.nan
    return out


def _bisect(model, band_id, direction, lo, hi, sign_lo, which_det, tol):
    """Shrink a sign-change bracket below tol; returns (mid, width)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g = _g_at(model, band_id, mid * direction, which_det)
        if det_sign(g) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


@one_blas_thread
def scan_ray(model: MaterialModel, band_id, direction,
             r_max: float | None = None,
             n_coarse: int = N_COARSE,
             bisect_tol: float = BISECT_TOL,
             which_det: str = "gs") -> RayScan:
    """Locate all determinant sign changes along k = r * direction.

    ``r_max`` defaults to the Brillouin-zone boundary; larger requests
    are clipped to it (and flagged in ``clipped``).  Pairing failures
    are recorded as excluded radius intervals and the scan continues
    beyond them; an empty crossing list is a valid result.  Raises
    ``ValueError`` for a zero or non-finite direction, an ``r_max`` or
    ``bisect_tol`` that is not positive and finite, or ``n_coarse < 2``.
    """
    direction = unit_direction(direction)
    for name, value in (("r_max", r_max), ("bisect_tol", bisect_tol)):
        if value is not None and not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be a positive finite number, "
                             f"got {value}")
    if n_coarse < 2:
        raise ValueError(f"n_coarse must be >= 2, got {n_coarse}")
    r_boundary = boundary_radius(model.lattice_constant, direction)
    clipped = r_max is not None and r_max > r_boundary
    if r_max is None or clipped:
        r_max = r_boundary

    radii = np.linspace(0.0, r_max, n_coarse)
    crossings = []
    failures = []
    prev_r = None
    prev_sign = None
    fail_start = None
    fail_reason = None
    for r in radii:
        try:
            sign = det_sign(_g_at(model, band_id, r * direction, which_det))
        except PairUndefinedError as err:
            if fail_start is None:
                fail_start = prev_r if prev_r is not None else r
                fail_reason = type(err).__name__
            continue
        if fail_start is not None:
            failures.append((fail_start, r, fail_reason))
            fail_start = None
            # no bracketing across an excluded interval: the sign there
            # is unknowable, so restart the parity bookkeeping
            prev_sign = None
        if prev_sign is not None and sign != prev_sign:
            try:
                mid, width = _bisect(model, band_id, direction, prev_r, r,
                                     prev_sign, which_det, bisect_tol)
            except PairUndefinedError as err:
                failures.append((prev_r, r, type(err).__name__))
            else:
                crossings.append(Crossing(radius=mid, which_det=which_det,
                                          bracket_width=width, slope_sign=sign))
        prev_r, prev_sign = r, sign
    if fail_start is not None:
        failures.append((fail_start, r_max, fail_reason))
    return RayScan(direction=direction, r_max=r_max, which_det=which_det,
                   crossings=crossings, failures=failures, clipped=clipped)


def build_surface(model: MaterialModel, band_id, directions,
                  which_det: str = "gs",
                  r_max: float | None = None,
                  n_coarse: int = N_COARSE,
                  workers: int = 1,
                  replicate: bool = False) -> SurfaceCloud:
    """Assemble a det(g)=0 point cloud from rays along ``directions``.

    With ``replicate`` the crossing set is closed under the O_h point
    group, so wedge directions cover the sphere at ~1/48 the ray count;
    T_d models scan ``icosphere_directions`` unreplicated instead.
    Results are merged by direction index, so the cloud is independent
    of worker scheduling.
    """
    if replicate and model.point_group != "Oh":
        # the O_h wedge replicated by a smaller group leaves octants empty
        raise ValueError(
            f"replicate=True needs an O_h model, {model.name} is "
            f"{model.point_group}; scan icosphere_directions(level) "
            "unreplicated instead")
    directions = np.asarray(directions, dtype=float)
    scan = functools.partial(scan_ray, model, band_id, r_max=r_max,
                             n_coarse=n_coarse, which_det=which_det)
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            results = pool.map(scan, directions)
    else:
        results = map(scan, directions)

    points, dir_index, ordinals, slopes, failures = [], [], [], [], []
    for index, ray in enumerate(results):  # map preserves direction order
        for ordinal, crossing in enumerate(ray.crossings):
            points.append(crossing.radius * ray.direction)
            dir_index.append(index)
            ordinals.append(ordinal)
            slopes.append(crossing.slope_sign)
        for (lo, hi, reason) in ray.failures:
            failures.append((index, lo, hi, reason))
    points = np.array(points).reshape(-1, 3)
    dir_index = np.array(dir_index, dtype=int)
    ordinals = np.array(ordinals, dtype=int)
    slopes = np.array(slopes, dtype=int)

    n_ops = 0
    if replicate:
        ops = point_group_ops(model.point_group)
        n_ops = len(ops)
        points, source = replicate_points(points, ops)
        dir_index, ordinals, slopes = (dir_index[source], ordinals[source],
                                       slopes[source])

    return SurfaceCloud(
        material=model.name,
        band_id=str(band_id),
        which_det=which_det,
        points=points,
        dir_index=dir_index,
        crossing_ordinal=ordinals,
        slope_sign=slopes,
        symmetry_ops_applied=n_ops,
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
            f"symmetry_ops: {cloud.symmetry_ops_applied}"]
    if fmt == "csv":
        rows = [[*point, index, ordinal, cloud.which_det, slope]
                for point, index, ordinal, slope in zip(
                    cloud.points, cloud.dir_index, cloud.crossing_ordinal,
                    cloud.slope_sign)]
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
        raise ValueError(f"format must be 'csv' or 'ply', not {fmt!r}")
