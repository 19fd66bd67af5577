"""Test-only helpers that check the library from outside it.

Code here exists only to verify ``gtensor_tb``; the package itself
does not need it.
"""
import csv

import numpy as np

from gtensor_tb.bands import pair_window, select_pair, solve
from gtensor_tb.blas import one_blas_thread
from gtensor_tb.brillouin import (NN_SIGNS, cubic_group, unit_direction,
                                  zone_faces)
from gtensor_tb.errors import PairUndefinedError
from gtensor_tb.gtensor import (det_sign, g_tensor_set, orbital_matrices,
                                spin_g, spin_matrices)
from gtensor_tb.hamiltonian import dipole_matrix, nn_vectors
from gtensor_tb.slater_koster import hop_block
from gtensor_tb.su2 import PAULI, SIGMA_X, SIGMA_Y, SIGMA_Z
from gtensor_tb.surface import CSV_COLUMNS, SurfaceCloud
from gtensor_tb.units import MU_B

EPS_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@one_blas_thread
def dense_det(model, band_id, direction, radii, which_det="gs") -> np.ndarray:
    """det(g_S) or det(g_tot) on a radius grid (NaN where pairing fails).

    Every point solves the full spectrum with ``np.linalg.eigh``, so
    this root oracle shares no band-window code with
    ``gtensor_tb.surface.scan_ray``.
    """
    if which_det not in ("gs", "gtot"):
        raise ValueError(f"which_det must be 'gs' or 'gtot', not {which_det!r}")
    direction = unit_direction(direction)
    out = np.empty(len(radii))
    for i, r in enumerate(radii):
        try:
            sol = solve(model, r * direction)
            pair = select_pair(model, sol, band_id)
            g = spin_g(pair) if which_det == "gs" else g_tensor_set(
                model, sol, pair).g_tot
        except PairUndefinedError:
            out[i] = np.nan
            continue
        out[i] = np.linalg.det(g)
    return out


def hop_blocks(model) -> np.ndarray:
    """The four A->B hopping blocks, shape (4, n_orb, n_orb)."""
    sp_a, sp_b = model.species
    nn = nn_vectors(model)
    unit = nn / np.linalg.norm(nn, axis=1)[:, None]
    return np.array([hop_block(model.orbitals, u, model.sk[(sp_a, sp_b)],
                               model.sk[(sp_b, sp_a)]) for u in unit])


def gradient_per_direction(model, k) -> np.ndarray:
    """Loop-built dH/dk_j: per-direction tensordot into a zero block.

    Oracle of ``gtensor_tb.hamiltonian_gradient``, which forms all three
    directions in one product; both must agree bit for bit.
    """
    n, dim = model.n_orb, model.dim
    nn = nn_vectors(model)
    blocks = hop_blocks(model)
    phases = np.exp(1j * (nn @ np.asarray(k, dtype=float)))
    out = np.zeros((3, dim, dim), dtype=complex)
    for j in range(3):
        dhab = np.tensordot(1j * nn[:, j] * phases, blocks, axes=1)
        block = np.zeros((2 * n, 2 * n), dtype=complex)
        block[:n, n:] = dhab
        block[n:, :n] = dhab.conj().T
        out[j, :2 * n, :2 * n] = block
        out[j, 2 * n:, 2 * n:] = block
    return out


def momentum_table_four_products(model, sol) -> np.ndarray:
    """Velocity matrix elements one direction at a time, four products each.

    pi_j = A^dag grad_j A + i (E_n - E_m) A^dag D_j A, with the
    loop-built gradient.  Oracle of ``gtensor_tb.momentum_table``, which
    runs one stacked chain A^dag [grad; D] A; both must agree bit for bit.
    """
    a = sol.states
    grad = gradient_per_direction(model, sol.k)
    dip = dipole_matrix(model)
    ediff = sol.energies[:, None] - sol.energies[None, :]
    pi = np.empty_like(grad)
    for j in range(3):
        pi[j] = a.conj().T @ grad[j] @ a \
            + 1j * ediff * (a.conj().T @ dip[j] @ a)
    return pi


def point_signs(model, band_id, which_det, ks) -> list:
    """Per-point counterpart of ``gtensor_tb.surface._coarse_signs``.

    At each k-point the scalar chain: ``solve`` of the pair's window
    (g_S) or of every band (g_tot), ``select_pair``, g_S or g_tot of
    that one pair, and ``det_sign`` of one 3x3 tensor.  An entry is +1
    or -1, or the class name of the ``PairUndefinedError`` raised there.
    """
    bands = pair_window(model, band_id) if which_det == "gs" else None
    entries = []
    for k in ks:
        try:
            sol = solve(model, k, bands)
            selected = select_pair(model, sol, band_id)
            g = (spin_g(selected) if which_det == "gs"
                 else g_tensor_set(model, sol, selected).g_tot)
        except PairUndefinedError as err:
            entries.append(type(err).__name__)
        else:
            entries.append(det_sign(g))
    return entries


def proper_svd(g) -> tuple:
    """SVD of one 3x3 g = u diag(sigma) vh with det(vh) = +1.

    Reference of the fix-up ``gtensor_tb.align_pair_to_spin_frame``
    makes: where det(vh) < 0, the third row of vh and the third column
    of u change sign, so u may be improper; sigma stays descending and
    non-negative.
    """
    u, sigma, vh = np.linalg.svd(g)
    if np.linalg.det(vh) < 0:
        u[:, 2] = -u[:, 2]
        vh[2] = -vh[2]
    return u, sigma, vh


def pair_zeeman_hamiltonian(pair, momenta, field) -> np.ndarray:
    """Direct 2x2 pair Hamiltonian mu_B sum_i B_i (2S_i + L_i).

    Oracle counterpart of ``gtensor_tb.gtensor.zeeman_response``: its
    eigenvalue splitting must match mu_B sqrt(B.G B).  ``momenta`` is
    the pair's ``gtensor_tb.gtensor.PairMomenta``.
    """
    b = np.asarray(field, dtype=float)
    blocks = spin_matrices(pair) + orbital_matrices(pair, momenta)
    return MU_B * np.einsum('i,iab->ab', b, blocks)


def rotation_from_su2(w: np.ndarray) -> np.ndarray:
    """Adjoint SO(3) rotation of an SU(2) (or U(2)) matrix.

    A global phase of w drops out, so any unitary 2x2 input is accepted;
    the result is always a proper rotation.
    """
    r = np.empty((3, 3))
    wd = w.conj().T
    for b in range(3):
        m = w @ PAULI[b] @ wd
        for a in range(3):
            r[a, b] = 0.5 * np.trace(PAULI[a] @ m).real
    return r


def shepperd_su2(r: np.ndarray) -> np.ndarray:
    """SU(2) preimage of one proper rotation, one Shepperd branch at a time.

    The scalar loop-free form that ``gtensor_tb.su2.su2_from_rotation``
    vectorises over stacks; both must agree bit for bit.
    """
    t = np.trace(r)
    if t > max(r[0, 0], r[1, 1], r[2, 2]):
        s = 2.0 * np.sqrt(1.0 + t)
        q = np.array([s / 4.0,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax([r[0, 0], r[1, 1], r[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = 2.0 * np.sqrt(1.0 + r[i, i] - r[j, j] - r[k, k])
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = s / 4.0
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    q /= np.linalg.norm(q)
    return q[0] * np.eye(2, dtype=complex) - 1j * (
        q[1] * SIGMA_X + q[2] * SIGMA_Y + q[3] * SIGMA_Z)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SU(2) element from a random unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return q[0] * np.eye(2, dtype=complex) - 1j * (
        q[1] * SIGMA_X + q[2] * SIGMA_Y + q[3] * SIGMA_Z)


def tetrahedral_group() -> np.ndarray:
    """The 24 operations of T_d: cubic operations fixing the bond set."""
    bond_set = {tuple(b) for b in NN_SIGNS}
    keep = []
    for op in cubic_group():
        image = {tuple(np.rint(op @ b)) for b in NN_SIGNS}
        if image == bond_set:
            keep.append(op)
    return np.array(keep)


def in_first_zone(a: float, k, tol: float = 1e-9) -> bool:
    """Whether k lies inside (or on) the first-zone polyhedron."""
    k = np.asarray(k, dtype=float)
    faces = zone_faces(a)
    return bool(np.all(faces @ k <= 0.5 * (faces ** 2).sum(axis=1) + tol))


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

    Cloud metadata (material, band, det) is recovered from the
    structured header comments export_cloud writes.
    """
    points, labels = [], []
    meta = {"material": "", "band": "", "det": ""}
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
        labels.append([int(row[3]), int(row[4]), int(row[6])])
        which = row[5]
    return SurfaceCloud(
        material=meta["material"], band_id=meta["band"], which_det=which,
        points=np.array(points).reshape(-1, 3),
        labels=np.array(labels, dtype=int).reshape(-1, 3),
        failures=[],
    )
