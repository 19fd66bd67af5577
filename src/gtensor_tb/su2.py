"""Pauli algebra and the SU(2) <-> SO(3) correspondence.

Convention: for W in SU(2), the adjoint rotation R(W) is defined by
W sigma_b W^dag = sum_a R[a, b] sigma_a, i.e. R[a, b] = Tr(sigma_a W sigma_b W^dag)/2.
With W = cos(t/2) I - i sin(t/2) n.sigma this is the active rotation by
angle t about the unit axis n.
"""
from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
_EYE2 = np.eye(2, dtype=complex)


def su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """One of the two SU(2) preimages of a proper rotation.

    Standard branch-stable quaternion extraction (Shepperd's method):
    with q = (cos(t/2), sin(t/2) n), the symmetric matrix K = 4 q q^T
    is linear in ``r``, and each rotation is read off the row of K whose
    diagonal entry (the pivot, 1 + trace or 1 + r_ii - r_jj - r_kk) is
    largest, so only that non-negative pivot is square-rooted.

    ``r`` is one 3x3 rotation, giving a 2x2 matrix, or a stack of shape
    (..., 3, 3), giving (..., 2, 2).  Each matrix of a stack is bit for
    bit the result for that rotation alone.  Raises ``ValueError``
    unless every det(r) is within 1e-8 of +1.
    """
    r = np.asarray(r, dtype=float)
    if (np.abs(np.linalg.det(r) - 1.0) > 1e-8).any():
        raise ValueError("rotation must be proper (det = +1)")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    t = np.trace(r, axis1=-2, axis2=-1)
    x = r - r.swapaxes(-1, -2)
    p = r + r.swapaxes(-1, -2)
    d0, d1, d2 = diag[..., 0], diag[..., 1], diag[..., 2]
    k = np.stack([1.0 + t, x[..., 2, 1], x[..., 0, 2], x[..., 1, 0],
                  x[..., 2, 1], 1.0 + d0 - d1 - d2, p[..., 0, 1], p[..., 0, 2],
                  x[..., 0, 2], p[..., 0, 1], 1.0 + d1 - d2 - d0, p[..., 1, 2],
                  x[..., 1, 0], p[..., 0, 2], p[..., 1, 2], 1.0 + d2 - d0 - d1],
                 axis=-1).reshape(*r.shape[:-2], 4, 4)
    pivot = np.where(t > diag.max(axis=-1), 0, 1 + diag.argmax(axis=-1))
    row = np.take_along_axis(k, pivot[..., None, None], axis=-2)[..., 0, :]
    s = 2.0 * np.sqrt(np.take_along_axis(row, pivot[..., None], axis=-1))
    q = row / s
    np.put_along_axis(q, pivot[..., None], s / 4.0, axis=-1)
    # |q| through matmul, whose 1x4 @ 4x1 product is the dot np.linalg.norm takes
    q = q / np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]
    q0, q1, q2, q3 = np.moveaxis(q, -1, 0)[..., None, None]
    return q0 * _EYE2 - 1j * (q1 * SIGMA_X + q2 * SIGMA_Y + q3 * SIGMA_Z)
