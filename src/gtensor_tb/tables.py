"""Row assembly for the plot-ready CSV outputs, and their one writer.

Each builder returns (header, rows) with plain Python floats; callers
pass them with their provenance comments to :func:`write_csv`, which
formats every row, whatever its cell types, with one ``%`` template.
Pair-state entropies are only defined once the pair gauge is fixed, so
the pairs of a ray are aligned to their spin frames first (the frame in
which g_S has identity right factor).

:func:`sample_pairs` is the one ray sampler: it picks the bands each
k-point solves, solves and selects the pair (and, on request, reduces
the momentum table) one k-point at a time, stacks the rows where the
pair is defined and records why the others are not.  The g-line and
entropy tables here and every sign pass of ``surface.scan_ray`` run on
it; the g-tensors, alignment and entropies then run once over the
stacked rows.  Rows where pair selection fails carry NaNs instead of
aborting the table.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .bands import (KramersPair, pair_window, resolve_band_indices,
                    select_pair, solve)
from .blas import one_blas_thread
from .brillouin import high_symmetry_point, positive_finite, unit_direction
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


def write_csv(path, comments, header, rows) -> None:
    """Write '#' comment lines, a header and rows, with LF line endings.

    Each row is one ``%`` operation on the template of its cell types,
    built once per layout: floats (``float`` or ``np.floating``) get 17
    significant digits, so reading a file back reproduces every value
    bit-exactly, and every other cell gets ``str()``.
    """
    templates = {}
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            layout = tuple(map(type, row))
            template = templates.get(layout)
            if template is None:
                template = templates[layout] = ",".join(
                    "%.17g" if issubclass(t, (float, np.floating)) else "%s"
                    for t in layout) + "\n"
            fh.write(template % tuple(row))


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
            rows.append([float(s + t * seg_len), *k.tolist(),
                         *sol.energies.tolist()])
        s += seg_len
        ticks.append((s, path_names[seg + 1]))
    return header, rows, ticks


def _pair_stack(model: MaterialModel, indices, rows: int) -> KramersPair:
    """Room for ``rows`` pairs: one ``KramersPair`` with a leading row axis."""
    return KramersPair(
        k=np.empty((rows, 3)),
        band_indices=indices,
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


def sample_pairs(model: MaterialModel, band_id, ks,
                 momenta: bool = False) -> tuple:
    """Solve and select the pair at each k-point of ``ks``.

    With ``momenta`` each k-point solves every band and keeps the pair's
    part of its momentum table, whose orbital sum runs over all bands;
    otherwise it solves only :func:`pair_window`, the bands
    :func:`select_pair` reads.  Returns (reasons, pairs, momenta):
    ``reasons`` has one entry per k-point, None where the pair is
    defined, else the class name of the :class:`PairUndefinedError`
    raised there; ``pairs`` and ``momenta`` (None unless asked for)
    stack the defined rows along a leading axis.  Rows are copied into
    stacks with room for every k-point, so no solution outlives its row.
    """
    indices = resolve_band_indices(model, band_id)
    bands = None if momenta else pair_window(model, indices)
    stacks = [_pair_stack(model, indices, len(ks))]
    if momenta:
        stacks.append(_momenta_stack(model, len(ks)))
    fields = [[(name, value) for name, value in vars(stack).items()
               if isinstance(value, np.ndarray)] for stack in stacks]
    reasons, defined = [], 0
    for k in ks:
        try:
            sol = solve(model, k, bands)
            pair = select_pair(model, sol, band_id)
            records = ((pair, pair_momenta(model, sol, pair)) if momenta
                       else (pair,))
        except PairUndefinedError as err:
            reasons.append(type(err).__name__)
            continue
        for record, arrays in zip(records, fields):
            for name, rows in arrays:
                rows[defined] = getattr(record, name)
        reasons.append(None)
        defined += 1
    cut = [dataclasses.replace(
        stack, **{name: rows[:defined] for name, rows in arrays})
        for stack, arrays in zip(stacks, fields)]
    return reasons, cut[0], cut[1] if momenta else None


def _ray_table(radii, ks, reasons, values) -> list:
    """Rows [r, kx, ky, kz, *values] of a sampled ray.

    ``values`` are columns over the rows where the pair is defined
    (``reasons`` entry None); the other rows get NaNs.
    """
    values = np.column_stack(values)
    table = np.full((len(radii), 4 + values.shape[1]), np.nan)
    table[:, 0], table[:, 1:4] = radii, ks
    table[[reason is None for reason in reasons], 4:] = values
    return table.tolist()


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

    Each row solves every band, selects the pair and keeps the pair's
    part of the momentum table; the g-tensor sets, spin-frame alignment
    and entropies then run once over the rows where the pair is defined.
    Raises ``ValueError`` for a direction without a finite, non-zero
    norm or an ``r_max`` that is not positive and finite.
    """
    radii = np.linspace(0.0, positive_finite("r_max", r_max), samples)
    ks = radii[:, None] * unit_direction(direction)
    reasons, pairs, momenta = sample_pairs(model, band_id, ks, momenta=True)
    gset = g_tensor_set(model, momenta, pairs)
    s_xi, s_xib, _ = _spin_frame_entropies(pairs, gset.svd_s)
    return GLINE_COLUMNS, _ray_table(radii, ks, reasons, [
        gset.sigma_s, gset.det_g_s, gset.sigma_tot, gset.det_g_tot, s_xi,
        s_xib])


@one_blas_thread
def entropy_rows(model: MaterialModel, band_id, direction,
                 r_max: float, samples: int = 200) -> tuple:
    """Pair entropies and (where applicable) the spin-flip residual.

    Off the valid direction families of the material's point group the
    residual column is NaN: the relation is not defined there, which is
    a contract fact, not a numerical failure.  Each row solves the
    pair's window and selects the pair; g_S is formed, factored,
    aligned, scored and spin-flipped once over the rows where the pair
    is defined.  Raises ``ValueError`` as :func:`gline_rows` does.
    """
    flip_ok = direction_applicable(model, direction)
    radii = np.linspace(0.0, positive_finite("r_max", r_max), samples)
    ks = radii[:, None] * unit_direction(direction)
    reasons, pairs, _ = sample_pairs(model, band_id, ks)
    s_xi, s_xib, dens = _spin_frame_entropies(
        pairs, np.linalg.svd(spin_g(pairs)))
    residuals = ([np.linalg.norm(defect, "fro")
                  for defect in _spin_flip_defect(dens)]
                 if flip_ok else np.full_like(s_xi, np.nan))
    return (ENTROPY_COLUMNS,
            _ray_table(radii, ks, reasons, [s_xi, s_xib, residuals]), flip_ok)
