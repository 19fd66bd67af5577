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


def su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """One of the two SU(2) preimages of a proper rotation.

    Standard branch-stable quaternion extraction (Shepperd's method).
    """
    if abs(np.linalg.det(r) - 1.0) > 1e-8:
        raise ValueError("rotation must be proper (det = +1)")
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
