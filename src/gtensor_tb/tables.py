"""Row assembly for the plot-ready CSV outputs, and their one writer.

Each builder returns (header, rows) with plain Python floats; callers
pass them with their provenance comments to :func:`write_csv`.
Pair-state entropies are only defined once the pair gauge is fixed, so
the pairs of a ray are aligned to their spin frames first (the frame in
which g_S has identity right factor), all rows in one stacked pass;
rows where pair selection fails carry NaNs instead of aborting the
table.
"""
from __future__ import annotations

import numpy as np

from .bands import KramersPair, resolve_band_indices, select_pair, solve
from .blas import one_blas_thread
from .brillouin import high_symmetry_point, unit_direction
from .entanglement import (_spin_flip_defect, direction_applicable, entropy,
                           pair_spin_densities)
from .errors import PairUndefinedError
from .gtensor import align_pair_to_spin_frame, g_tensor_set, spin_g
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


def _spin_frame_entropies(model: MaterialModel, band_id, pairs,
                          svd) -> tuple:
    """S(xi) and S(xi_bar) of the pairs of a ray, in one stacked pass.

    ``pairs`` are the rows where the pair is defined (possibly none) and
    ``svd`` stacks the SVD factors of their g_S.  The pairs become one
    ``KramersPair`` with a leading row axis, which is aligned to its
    spin frames, reduced and scored at once.  Returns the two entropy
    lists and the stacked ``SpinDensity``.
    """
    stacked = KramersPair(
        k=np.reshape([p.k for p in pairs], (-1, 3)),
        band_indices=resolve_band_indices(model, band_id),
        energies=np.reshape([p.energies for p in pairs], (-1, 2)),
        states=np.reshape(np.array([p.states for p in pairs], dtype=complex),
                          (-1, model.dim, 2)),
        pair_energy=np.array([p.pair_energy for p in pairs]),
        split=np.array([p.split for p in pairs]),
        gap_to_rest=np.array([p.gap_to_rest for p in pairs]),
    )
    aligned, _, _ = align_pair_to_spin_frame(stacked, svd)
    dens = pair_spin_densities(aligned)
    return (entropy(dens.rho_s).tolist(), entropy(dens.rho_s_bar).tolist(),
            dens)


@one_blas_thread
def gline_rows(model: MaterialModel, band_id, direction,
               r_max: float, samples: int = 200) -> tuple:
    """Singular values, determinants, and entropies along a ray.

    Each row solves, selects the pair and forms its g-tensor set; the
    spin-frame alignment and entropies then run once over the rows
    where the pair is defined.  Raises ``ValueError`` for a direction
    without a finite, non-zero norm.
    """
    direction = unit_direction(direction)
    rows, defined, pairs, svd_s = [], [], [], []
    for r in np.linspace(0.0, r_max, samples):
        k = r * direction
        rows.append([r, *k])
        try:
            sol = solve(model, k)
            pair = select_pair(model, sol, band_id)
            gset = g_tensor_set(model, sol, pair)
        except PairUndefinedError:
            rows[-1] += [np.nan] * (len(GLINE_COLUMNS) - 4)
            continue
        rows[-1] += [*gset.svd_s[1], gset.det_g_s,
                     *gset.svd_tot[1], gset.det_g_tot]
        defined.append(rows[-1])
        pairs.append(pair)
        svd_s.append(gset.svd_s)
    svd = [np.reshape([factors[n] for factors in svd_s], (-1, *shape))
           for n, shape in enumerate(((3, 3), (3,), (3, 3)))]
    s_xi, s_xib, _ = _spin_frame_entropies(model, band_id, pairs, svd)
    for row, a, b in zip(defined, s_xi, s_xib):
        row += [a, b]
    return GLINE_COLUMNS, rows


@one_blas_thread
def entropy_rows(model: MaterialModel, band_id, direction,
                 r_max: float, samples: int = 200) -> tuple:
    """Pair entropies and (where applicable) the spin-flip residual.

    Off the valid direction families of the material's point group the
    residual column is NaN: the relation is not defined there, which is
    a contract fact, not a numerical failure.  g_S is formed row by
    row and factored, aligned, scored and spin-flipped once over the
    rows where the pair is defined.  Raises ``ValueError`` for a
    direction without a finite, non-zero norm.
    """
    direction = unit_direction(direction)
    flip_ok = direction_applicable(model, direction)
    rows, defined, pairs, g_s = [], [], [], []
    for r in np.linspace(0.0, r_max, samples):
        k = r * direction
        rows.append([r, *k])
        try:
            sol = solve(model, k)
            pair = select_pair(model, sol, band_id)
        except PairUndefinedError:
            rows[-1] += [np.nan] * 3
            continue
        defined.append(rows[-1])
        pairs.append(pair)
        g_s.append(spin_g(pair))
    svd = np.linalg.svd(np.reshape(g_s, (-1, 3, 3)))
    s_xi, s_xib, dens = _spin_frame_entropies(model, band_id, pairs, svd)
    residuals = ([float(np.linalg.norm(defect, "fro"))
                  for defect in _spin_flip_defect(dens)]
                 if flip_ok else [np.nan] * len(defined))
    for row, a, b, residual in zip(defined, s_xi, s_xib, residuals):
        row += [a, b, residual]
    return ENTROPY_COLUMNS, rows, flip_ok
