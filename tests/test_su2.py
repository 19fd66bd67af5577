import numpy as np

from gtensor_tb.su2 import PAULI, su2_from_rotation

from oracles import random_su2, rotation_from_su2


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
