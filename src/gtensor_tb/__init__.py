"""Tight-binding g-tensors of Kramers pairs in cubic semiconductors.

The package evaluates spin (g_S) and orbital (g_L) g-tensors of
band doublets from Slater-Koster models with on-site spin-orbit
coupling, verifies the entanglement statements tied to det(g_S) = 0,
and maps those zero surfaces in the Brillouin zone by parallel radial
bisection.
"""
from .bands import (BlochSolution, KramersPair, UnknownBandLabelError,
                    remix_pair, resolve_band_indices, select_pair, solve)
from .brillouin import (boundary_radius, cubic_group, high_symmetry_point,
                        icosphere_directions, named_direction,
                        wedge_directions)
from .entanglement import (DET_TOL, SpinDensity, cardinal_states,
                           direction_applicable, entropies_at_crossing,
                           entropy, pair_spin_densities, reduce_spin,
                           spin_flip_residual)
from .errors import (BracketError, DirectionNotApplicableError, GTensorError,
                     MaterialParseError, MaterialValidationError,
                     NearDegenerateIntermediateError, PairingAmbiguityError,
                     PairUndefinedError, PhysicsError, ZeroSplittingError)
from .gtensor import (FieldResponse, GTensorSet, PairMomenta,
                      align_pair_to_spin_frame, det_sign, g_tensor_set,
                      momentum_table, orbital_g, orbital_matrices,
                      pair_momenta, spin_g, spin_matrices, zeeman_response)
from .hamiltonian import (bloch_hamiltonian, dipole_matrix,
                          hamiltonian_gradient, soc_matrix)
from .lande import atomic_g, fit_dipole, fit_report
from .materials import (MaterialModel, builtin_material_path, load_material,
                        resolve_material_path)
from .surface import (Crossing, RayScan, SurfaceCloud, build_surface,
                      export_cloud, scan_ray)
from .units import BOHR_ANGSTROM, HARTREE_EV, MU_B

__version__ = "0.1.0"

__all__ = [
    "BOHR_ANGSTROM", "BlochSolution", "BracketError", "Crossing", "DET_TOL",
    "DirectionNotApplicableError", "FieldResponse", "GTensorError",
    "GTensorSet", "HARTREE_EV", "KramersPair", "MU_B", "MaterialModel",
    "MaterialParseError", "MaterialValidationError",
    "NearDegenerateIntermediateError", "PairUndefinedError",
    "PairMomenta", "PairingAmbiguityError", "PhysicsError",
    "RayScan", "SpinDensity", "SurfaceCloud", "UnknownBandLabelError",
    "ZeroSplittingError", "align_pair_to_spin_frame", "atomic_g",
    "bloch_hamiltonian", "boundary_radius", "build_surface",
    "builtin_material_path", "cardinal_states", "cubic_group",
    "det_sign", "dipole_matrix", "direction_applicable",
    "entropies_at_crossing", "entropy", "export_cloud", "fit_dipole",
    "fit_report",
    "g_tensor_set", "hamiltonian_gradient", "high_symmetry_point",
    "icosphere_directions", "load_material", "momentum_table",
    "named_direction", "orbital_g", "orbital_matrices",
    "pair_momenta", "pair_spin_densities",
    "reduce_spin", "remix_pair",
    "resolve_band_indices", "resolve_material_path", "scan_ray",
    "select_pair", "soc_matrix", "solve", "spin_flip_residual", "spin_g",
    "spin_matrices", "wedge_directions",
    "zeeman_response",
]
