"""Row assembly for the plot-ready CSV outputs, and their one writer.

Each builder returns (header, rows) with plain Python floats; callers
pass them with their provenance comments to :func:`write_csv`.
Pair-state entropies are only defined once the pair gauge is fixed, so
the pairs of a ray are aligned to their spin frames first (the frame in
which g_S has identity right factor).  The ray tables solve and select
the pair (and form the momentum table) one k-point at a time; the
g-tensors, alignment and entropies then run once over the stacked rows.
Rows where pair selection fails carry NaNs instead of aborting the
table.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .bands import KramersPair, resolve_band_indices, select_pair, solve
from .blas import one_blas_thread
from .brillouin import high_symmetry_point, unit_direction
from .entanglement import (_spin_flip_defect, direction_applicable, entropy,
                           pair_spin_densities)
from .errors import PairUndefinedError
from .gtensor import (PairMomenta, align_pair_to_spin_frame, g_tensor_set,
                      pair_momenta, spin_g)
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


def _pair_stack(model: MaterialModel, band_id, rows: int) -> KramersPair:
    """Room for ``rows`` pairs: one ``KramersPair`` with a leading row axis."""
    return KramersPair(
        k=np.empty((rows, 3)),
        band_indices=resolve_band_indices(model, band_id),
        energies=np.empty((rows, 2)),
        states=np.empty((rows, model.dim, 2), complex),
        pair_energy=np.empty(rows),
        split=np.empty(rows),
        gap_to_rest=np.empty(rows),
    )


def _momenta_stack(model: MaterialModel, rows: int) -> PairMomenta:
    """Room for the ``PairMomenta`` of ``rows`` k-points."""
    rest = model.dim - 2
    return PairMomenta(
        pair_rest=np.empty((rows, 3, 2, rest), complex),
        rest_pair=np.empty((rows, 3, rest, 2), complex),
        rest_energies=np.empty((rows, rest)),
    )


def _ray_rows(model: MaterialModel, band_id, direction, r_max: float,
              samples: int, stacks, keep) -> tuple:
    """Solve and select the pair at each sample of a ray.

    ``stacks`` are records with a leading row axis and room for every
    sample (see :func:`_pair_stack`).  Where the pair is defined,
    ``keep(sol, pair)`` returns the matching per-row records, whose
    array fields are copied into the next row of each stack, so neither
    a solution nor a per-row array outlives its row.  A row where
    selection or ``keep`` raises :class:`PairUndefinedError` is
    undefined.  Returns (rows, defined, stacks): [r, kx, ky, kz] of
    every sample, the defined ones among them, and the stacks cut to
    the defined rows.  Raises ``ValueError`` for a direction without a
    finite, non-zero norm.
    """
    direction = unit_direction(direction)
    fields = [[name for name, value in vars(stack).items()
               if isinstance(value, np.ndarray)] for stack in stacks]
    rows, defined = [], []
    for r in np.linspace(0.0, r_max, samples):
        k = r * direction
        rows.append([r, *k])
        try:
            sol = solve(model, k)
            records = keep(sol, select_pair(model, sol, band_id))
        except PairUndefinedError:
            continue
        for stack, names, record in zip(stacks, fields, records):
            for name in names:
                getattr(stack, name)[len(defined)] = getattr(record, name)
        defined.append(rows[-1])
    cut = [dataclasses.replace(
        stack, **{name: getattr(stack, name)[:len(defined)] for name in names})
        for stack, names in zip(stacks, fields)]
    return rows, defined, cut


def _finish_rows(rows, defined, columns, values) -> list:
    """Append ``values`` to the defined rows and NaNs to the others."""
    for row, tail in zip(defined, values):
        row += tail
    for row in rows:
        row += [np.nan] * (len(columns) - len(row))
    return rows


def _spin_frame_entropies(pairs: KramersPair, svd) -> tuple:
    """S(xi) and S(xi_bar) of the stacked pairs of a ray, in one pass.

    ``svd`` stacks the SVD factors of the pairs' g_S.  The pairs are
    aligned to their spin frames, reduced and scored at once.  Returns
    the two entropy arrays and the stacked ``SpinDensity``.
    """
    aligned, _, _ = align_pair_to_spin_frame(pairs, svd)
    dens = pair_spin_densities(aligned)
    return entropy(dens.rho_s), entropy(dens.rho_s_bar), dens


@one_blas_thread
def gline_rows(model: MaterialModel, band_id, direction,
               r_max: float, samples: int = 200) -> tuple:
    """Singular values, determinants, and entropies along a ray.

    Each row solves, selects the pair and keeps the pair's part of the
    momentum table; the g-tensor sets, spin-frame alignment and
    entropies then run once over the rows where the pair is defined.
    Raises ``ValueError`` for a direction without a finite, non-zero
    norm.
    """
    rows, defined, (pairs, momenta) = _ray_rows(
        model, band_id, direction, r_max, samples,
        [_pair_stack(model, band_id, samples), _momenta_stack(model, samples)],
        lambda sol, pair: (pair, pair_momenta(model, sol, pair)))
    gset = g_tensor_set(model, momenta, pairs)
    s_xi, s_xib, _ = _spin_frame_entropies(pairs, gset.svd_s)
    values = np.column_stack([gset.sigma_s, gset.det_g_s, gset.sigma_tot,
                              gset.det_g_tot, s_xi, s_xib]).tolist()
    return GLINE_COLUMNS, _finish_rows(rows, defined, GLINE_COLUMNS, values)


@one_blas_thread
def entropy_rows(model: MaterialModel, band_id, direction,
                 r_max: float, samples: int = 200) -> tuple:
    """Pair entropies and (where applicable) the spin-flip residual.

    Off the valid direction families of the material's point group the
    residual column is NaN: the relation is not defined there, which is
    a contract fact, not a numerical failure.  Each row solves and
    selects the pair; g_S is formed, factored, aligned, scored and
    spin-flipped once over the rows where the pair is defined.  Raises
    ``ValueError`` for a direction without a finite, non-zero norm.
    """
    flip_ok = direction_applicable(model, direction)
    rows, defined, (pairs,) = _ray_rows(
        model, band_id, direction, r_max, samples,
        [_pair_stack(model, band_id, samples)], lambda sol, pair: (pair,))
    s_xi, s_xib, dens = _spin_frame_entropies(
        pairs, np.linalg.svd(spin_g(pairs)))
    residuals = ([np.linalg.norm(defect, "fro")
                  for defect in _spin_flip_defect(dens)]
                 if flip_ok else [np.nan] * len(defined))
    values = np.column_stack([s_xi, s_xib, residuals]).tolist()
    return (ENTROPY_COLUMNS, _finish_rows(rows, defined, ENTROPY_COLUMNS,
                                          values), flip_ok)
