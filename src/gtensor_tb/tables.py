"""Row assembly for the plot-ready CSV outputs, and their one writer.

Each builder returns (header, rows) with plain Python floats; callers
pass them with their provenance comments to :func:`write_csv`.
Pair-state entropies are only defined once the pair gauge is fixed, so
every row aligns the pair to its spin frame first (the frame in which
g_S has identity right factor); rows where pair selection fails carry
NaNs instead of aborting the table.
"""
from __future__ import annotations

import numpy as np

from .bands import select_pair, solve
from .blas import one_blas_thread
from .brillouin import high_symmetry_point, unit_direction
from .entanglement import (direction_applicable, entropy,
                           pair_spin_densities, spin_flip_residual)
from .errors import PairUndefinedError
from .gtensor import align_pair_to_spin_frame, g_tensor_set
from .materials import MaterialModel

BANDS_FIXED_COLUMNS = ("path_s", "kx", "ky", "kz")
GLINE_COLUMNS = ("r", "kx", "ky", "kz",
                 "sigma1_gs", "sigma2_gs", "sigma3_gs", "det_gs",
                 "sigma1_gtot", "sigma2_gtot", "sigma3_gtot", "det_gtot",
                 "entropy_xi", "entropy_xi_bar")
ENTROPY_COLUMNS = ("r", "kx", "ky", "kz",
                   "entropy_xi", "entropy_xi_bar", "spin_flip_residual")


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, comments, header, rows) -> None:
    """Write '#' comment lines, a header and rows, with LF line endings.

    Floats get 17 significant digits, so reading a file back
    reproduces every value bit-exactly.
    """
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


@one_blas_thread
def band_path_rows(model: MaterialModel, path_names,
                   samples_per_segment: int = 60) -> tuple:
    """Energies along a polyline of named high-symmetry points.

    Returns (header, rows, ticks); ticks are (path_s, name) anchors of
    the segment endpoints for axis labeling.
    """
    if len(path_names) < 2:
        raise ValueError("a band path needs at least two points")
    if samples_per_segment < 2:
        raise ValueError("a band path needs at least two samples per segment")
    a = model.lattice_constant
    anchors = [high_symmetry_point(name, a) for name in path_names]
    header = BANDS_FIXED_COLUMNS + tuple(f"e_{n}" for n in range(model.dim))
    rows = []
    ticks = [(0.0, path_names[0])]
    s = 0.0
    for seg, (start, stop) in enumerate(zip(anchors[:-1], anchors[1:])):
        ts = np.linspace(0.0, 1.0, samples_per_segment,
                         endpoint=seg == len(anchors) - 2)
        seg_len = float(np.linalg.norm(stop - start))
        for t in ts:
            k = start + t * (stop - start)
            sol = solve(model, k)
            rows.append([s + t * seg_len, *k, *sol.energies])
        s += seg_len
        ticks.append((s, path_names[seg + 1]))
    return header, rows, ticks


def _aligned_pair_entropies(pair, svd=None):
    aligned, _, _ = align_pair_to_spin_frame(pair, svd)
    dens = pair_spin_densities(aligned)
    return entropy(dens.rho_s), entropy(dens.rho_s_bar), aligned


@one_blas_thread
def gline_rows(model: MaterialModel, band_id, direction,
               r_max: float, samples: int = 200) -> tuple:
    """Singular values, determinants, and entropies along a ray.

    Raises ``ValueError`` for a direction without a finite, non-zero norm.
    """
    direction = unit_direction(direction)
    rows = []
    for r in np.linspace(0.0, r_max, samples):
        k = r * direction
        base = [r, *k]
        try:
            sol = solve(model, k)
            pair = select_pair(model, sol, band_id)
            gset = g_tensor_set(model, sol, pair)
            s_xi, s_xib, _ = _aligned_pair_entropies(pair, gset.svd_s)
        except PairUndefinedError:
            rows.append(base + [np.nan] * (len(GLINE_COLUMNS) - 4))
            continue
        rows.append(base
                    + list(gset.svd_s[1]) + [gset.det_g_s]
                    + list(gset.svd_tot[1]) + [gset.det_g_tot]
                    + [s_xi, s_xib])
    return GLINE_COLUMNS, rows


@one_blas_thread
def entropy_rows(model: MaterialModel, band_id, direction,
                 r_max: float, samples: int = 200) -> tuple:
    """Pair entropies and (where applicable) the spin-flip residual.

    Off the valid direction families of the material's point group the
    residual column is NaN: the relation is not defined there, which is
    a contract fact, not a numerical failure.  Raises ``ValueError`` for
    a direction without a finite, non-zero norm.
    """
    direction = unit_direction(direction)
    flip_ok = direction_applicable(model, direction)
    rows = []
    for r in np.linspace(0.0, r_max, samples):
        k = r * direction
        try:
            sol = solve(model, k)
            pair = select_pair(model, sol, band_id)
            s_xi, s_xib, aligned = _aligned_pair_entropies(pair)
        except PairUndefinedError:
            rows.append([r, *k] + [np.nan] * 3)
            continue
        residual = spin_flip_residual(model, aligned) if flip_ok else np.nan
        rows.append([r, *k, s_xi, s_xib, residual])
    return ENTROPY_COLUMNS, rows, flip_ok
