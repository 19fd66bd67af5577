import numpy as np
import pytest

from gtensor_tb.su2 import PAULI, su2_from_rotation

from oracles import random_su2, rotation_from_su2, shepperd_su2


def test_pauli_algebra():
    for i in range(3):
        assert np.abs(PAULI[i] - PAULI[i].conj().T).max() == 0.0
        assert np.abs(PAULI[i] @ PAULI[i] - np.eye(2)).max() == 0.0
    # commutators [s_i, s_j] = 2i eps_ijk s_k
    comm = PAULI[0] @ PAULI[1] - PAULI[1] @ PAULI[0]
    assert np.abs(comm - 2j * PAULI[2]).max() == 0.0


def test_adjoint_map_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(25):
        w = random_su2(rng)
        r = rotation_from_su2(w)
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) > 0
        w2 = su2_from_rotation(r)
        # preimage is defined up to +-1
        assert min(np.abs(w2 - w).max(), np.abs(w2 + w).max()) < 1e-10


def test_adjoint_is_homomorphism():
    rng = np.random.default_rng(8)
    for _ in range(10):
        w1, w2 = random_su2(rng), random_su2(rng)
        lhs = rotation_from_su2(w1 @ w2)
        rhs = rotation_from_su2(w1) @ rotation_from_su2(w2)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_known_rotation_about_z():
    t = 0.7
    w = np.cos(t / 2) * np.eye(2) - 1j * np.sin(t / 2) * PAULI[2]
    r = rotation_from_su2(w)
    c, s = np.cos(t), np.sin(t)
    expected = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(r - expected).max() < 1e-12


def test_improper_matrix_rejected():
    flip = np.diag([1.0, 1.0, -1.0])
    try:
        su2_from_rotation(flip)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for improper input")


def test_global_phase_drops_out():
    rng = np.random.default_rng(13)
    w = random_su2(rng)
    phased = np.exp(1j * 0.3) * w
    assert np.abs(rotation_from_su2(phased) - rotation_from_su2(w)).max() < 1e-12


# --- stacks of rotations ----------------------------------------------------

def _axis_angle(axis, angle):
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]],
                      [-n[1], n[0], 0.0]])
    return (np.cos(angle) * np.eye(3) + np.sin(angle) * cross
            + (1.0 - np.cos(angle)) * np.outer(n, n))


def _rotations_on_every_pivot(seed):
    """Random rotations, 180-degree turns and near-turns about each axis."""
    rng = np.random.default_rng(seed)
    rots = [np.eye(3)]
    rots += [rotation_from_su2(random_su2(rng)) for _ in range(40)]
    rots += [_axis_angle(rng.normal(size=3), rng.uniform(0.0, 1.5))
             for _ in range(10)]
    for axis in np.eye(3):
        rots.append(2.0 * np.outer(axis, axis) - np.eye(3))     # exact turn
        for _ in range(5):
            tilted = axis + 0.2 * rng.normal(size=3)
            rots.append(_axis_angle(tilted, np.pi - rng.uniform(0.0, 0.3)))
            rots.append(2.0 * np.outer(tilted, tilted)
                        / (tilted @ tilted) - np.eye(3))
    return np.array(rots)


def test_stacked_rotations_bitwise_equal_single_calls_and_branches():
    rots = _rotations_on_every_pivot(17)
    # the Shepperd pivot: the trace, or the largest diagonal entry
    diag = np.diagonal(rots, axis1=1, axis2=2)
    pivot = np.where(np.trace(rots, axis1=1, axis2=2) > diag.max(axis=1),
                     0, 1 + diag.argmax(axis=1))
    assert set(pivot.tolist()) == {0, 1, 2, 3}
    single = np.array([su2_from_rotation(r) for r in rots])
    assert single.shape == (len(rots), 2, 2)
    assert single.tobytes() == np.array(
        [shepperd_su2(r) for r in rots]).tobytes()
    assert su2_from_rotation(rots).tobytes() == single.tobytes()
    two_axes = su2_from_rotation(rots.reshape(2, -1, 3, 3))
    assert two_axes.tobytes() == single.tobytes()
    for r, w in zip(rots, single):
        assert np.abs(rotation_from_su2(w) - r).max() < 1e-12


def test_empty_rotation_stack():
    assert su2_from_rotation(np.zeros((0, 3, 3))).shape == (0, 2, 2)


def test_improper_row_rejects_the_stack():
    rots = _rotations_on_every_pivot(19)[:5].copy()
    rots[3] = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="proper"):
        su2_from_rotation(rots)
