"""Test-only helpers that check the library from outside it.

Code here exists only to verify ``gtensor_tb``; the package itself
does not need it.
"""
import csv

import numpy as np

from gtensor_tb.surface import CSV_COLUMNS, SurfaceCloud

EPS_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def orbital_matrices_commutator(pair, sol, pi) -> np.ndarray:
    """Pair-space L_i, shape (3, 2, 2), from the commutator assembly.

    Built from d_k-derivative overlaps, sum_l pi_j[a,l] pi_k[l,b]
    (E_l - E_pair) / ((E_l - E_a)(E_l - E_b)), in the pair's own gauge.
    At an exactly degenerate pair it equals the mean-energy assembly of
    ``gtensor_tb.gtensor.orbital_matrices``.
    """
    ia, ib = pair.band_indices
    others = np.delete(np.arange(sol.energies.size), [ia, ib])
    e_rest = sol.energies[others]
    w2 = sol.states[:, [ia, ib]].conj().T @ pair.states
    p = np.matmul(w2.conj().T, pi[:, [ia, ib], :][:, :, others])
    q = np.matmul(pi[:, others, :][:, :, [ia, ib]], w2)
    e_ab = pair.energies
    out = np.zeros((3, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            w = (e_rest - pair.pair_energy) / (
                (e_rest - e_ab[a]) * (e_rest - e_ab[b]))
            for i, j, k in EPS_CYCLES:
                out[i, a, b] += 0.5j * (
                    (p[j, a] * w) @ q[k, :, b] - (p[k, a] * w) @ q[j, :, b])
    return out


def read_cloud_csv(path) -> SurfaceCloud:
    """Re-import an exported CSV cloud (inverse of ``gtensor_tb.surface.export_cloud``).

    Cloud metadata (material, band, symmetry-op count) is recovered
    from the structured header comments export_cloud writes.
    """
    points, dir_index, ordinals, slopes = [], [], [], []
    meta = {"material": "", "band": "", "det": "", "symmetry_ops": "0"}
    with open(path, newline="") as fh:
        raw = list(csv.reader(fh))
    rows = []
    for row in raw:
        if not row:
            continue
        if row[0].lstrip().startswith("#"):
            text = ",".join(row).lstrip("# ")
            key, sep, value = text.partition(": ")
            if sep and key in meta:
                meta[key] = value
            continue
        rows.append(row)
    if rows and tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {rows[0]!r}")
    which = meta["det"]
    for row in rows[1:]:
        points.append([float(row[0]), float(row[1]), float(row[2])])
        dir_index.append(int(row[3]))
        ordinals.append(int(row[4]))
        which = row[5]
        slopes.append(int(row[6]))
    return SurfaceCloud(
        material=meta["material"], band_id=meta["band"], which_det=which,
        points=np.array(points).reshape(-1, 3),
        dir_index=np.array(dir_index, dtype=int),
        crossing_ordinal=np.array(ordinals, dtype=int),
        slope_sign=np.array(slopes, dtype=int),
        symmetry_ops_applied=int(meta["symmetry_ops"]),
        failures=[],
    )
