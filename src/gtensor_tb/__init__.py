"""Tight-binding g-tensors of Kramers pairs in cubic semiconductors.

The package evaluates spin (g_S) and orbital (g_L) g-tensors of
band doublets from Slater-Koster models with on-site spin-orbit
coupling, verifies the entanglement statements tied to det(g_S) = 0,
and maps those zero surfaces in the Brillouin zone by parallel radial
bisection.

The package namespace holds only what the command line, the demos,
the README quick start and the benchmark harness use, and the types
and exceptions of what those calls return or raise; everything else is
imported from its submodule.
"""
from .bands import BlochSolution, KramersPair, select_pair, solve
from .brillouin import boundary_radius, named_direction, wedge_directions
from .entanglement import (SpinDensity, cardinal_states, entropies_at_crossing,
                           entropy, pair_spin_densities, reduce_spin,
                           spin_flip_residual)
from .errors import (BracketError, DirectionNotApplicableError, GTensorError,
                     MaterialParseError, MaterialValidationError,
                     NearDegenerateIntermediateError, PairingAmbiguityError,
                     PairUndefinedError, PhysicsError)
from .gtensor import GTensorSet, align_pair_to_spin_frame, g_tensor_set
from .lande import fit_report
from .materials import (MaterialModel, builtin_material_path, load_material,
                        resolve_material_path)
from .surface import (Crossing, RayScan, SurfaceCloud, build_surface,
                      export_cloud, scan_ray)
from .units import HARTREE_EV

__version__ = "0.1.0"

__all__ = [
    "BlochSolution", "BracketError", "Crossing",
    "DirectionNotApplicableError", "GTensorError", "GTensorSet",
    "HARTREE_EV", "KramersPair", "MaterialModel", "MaterialParseError",
    "MaterialValidationError", "NearDegenerateIntermediateError",
    "PairUndefinedError", "PairingAmbiguityError", "PhysicsError",
    "RayScan", "SpinDensity", "SurfaceCloud",
    "align_pair_to_spin_frame", "boundary_radius", "build_surface",
    "builtin_material_path", "cardinal_states", "entropies_at_crossing",
    "entropy", "export_cloud", "fit_report", "g_tensor_set",
    "load_material", "named_direction", "pair_spin_densities",
    "reduce_spin", "resolve_material_path", "scan_ray", "select_pair",
    "solve", "spin_flip_residual", "wedge_directions",
]
