"""Unit constants.

All internal quantities are atomic Hartree units (hbar = m_e = e = 1,
energies in Hartree, lengths in Bohr, k-vectors in 1/Bohr).  Material
files carry eV and Angstrom and are converted once at load time.
"""

HARTREE_EV = 27.211386245988   # 1 Hartree in eV (CODATA 2018)
BOHR_ANGSTROM = 0.529177210903  # 1 Bohr in Angstrom (CODATA 2018)


def ev_to_hartree(e_ev: float) -> float:
    return e_ev / HARTREE_EV


def angstrom_to_bohr(x_angstrom: float) -> float:
    return x_angstrom / BOHR_ANGSTROM
