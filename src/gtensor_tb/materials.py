"""Material parameter files: schema, loading, validation.

A material file is JSON carrying eV/Angstrom quantities (see
docs/formats.md for the full schema).  ``load_material`` converts
everything to Hartree atomic units and returns an immutable
:class:`MaterialModel`.  The configured band-pair labels are verified
against the actual degeneracy pattern at the zone center before the
model is handed out.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
from pathlib import Path

from .errors import InputError, MaterialParseError, MaterialValidationError
from .slater_koster import BASES, SHELL
from .units import angstrom_to_bohr, ev_to_hartree

# hashlib loads OpenSSL's _hashlib (about 3.5 MB of RSS) for one small
# digest, so the builtin module comes first, as in CPython's random
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# Kramers pairs must be isolated by more than this for inversion-symmetric
# crystals; for compound (Td) materials the intra-pair split is physical,
# and bands.select_pair takes that split as the isolation scale instead.
PAIR_SPLIT_TOL = 1e-6  # Hartree

# zone-center degeneracy detection threshold used by the load-time check
_GAMMA_DEGENERACY_TOL = 1e-8  # Hartree

BUILTIN_MATERIALS = ("si", "ge", "gaas")


def _is_index(value) -> bool:
    """An integer, not a bool; a plain ``int`` skips the slow ABC check."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def band_pair_problem(pair, dim: int) -> str | None:
    """What keeps ``pair`` from naming a (pseudo-)Kramers pair, or None:
    a pair is two integers, not bools, naming adjacent bands
    ``(i, i + 1)`` of ``0..dim - 1``, energies ascending."""
    if not (len(pair) == 2 and _is_index(pair[0]) and _is_index(pair[1])):
        return "a pair of band indices"
    if 0 <= pair[0] and pair[1] == pair[0] + 1 < dim:
        return None
    return f"two adjacent bands (i, i + 1) of 0..{dim - 1}"


@dataclasses.dataclass(frozen=True, eq=False)
class MaterialModel:
    """Immutable tight-binding parameter set in atomic units."""

    name: str
    lattice_constant: float          # Bohr
    species: tuple
    orbitals: tuple
    onsite: dict                     # species -> shell -> Hartree
    sk: dict                         # (from, to) -> integral key -> Hartree
    soc: dict                        # species -> lambda_p, Hartree
    dipole: dict                     # species -> <s|r|p> element, Bohr
    band_pairs: dict                 # label -> (i, i+1), 0-based
    point_group: str                 # "Oh" or "Td"
    file_sha256: str                 # of the bytes the model was parsed from

    @property
    def n_orb(self) -> int:
        return len(self.orbitals)

    @property
    def dim(self) -> int:
        return 4 * self.n_orb


def _object(value, path):
    if not isinstance(value, dict):
        raise MaterialValidationError(path, "must be an object")
    return value


def _require(mapping, key, path):
    """``mapping[key]``; ``path`` names ``mapping`` ("" at the top level)."""
    if key not in _object(mapping, path):
        raise MaterialValidationError(f"{path}.{key}" if path else key,
                                      "missing required key")
    return mapping[key]


def _number(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value):
        raise MaterialValidationError(path, "must be a finite number")
    return float(value)


def _single_line(value, path):
    """A string that stays on its one line when written to an output file."""
    if not isinstance(value, str) or "\n" in value or "\r" in value:
        raise MaterialValidationError(path, "must be a single-line string")
    return value


def _numbers(doc, section, entry, keys) -> dict:
    """Finite floats ``doc[section][entry][key]``; errors name that path."""
    table = _require(_require(doc, section, ""), entry, section)
    return {key: _number(_require(table, key, f"{section}.{entry}"),
                         f"{section}.{entry}.{key}")
            for key in keys}


def builtin_material_path(name: str) -> Path:
    """Path of the packaged file 'si', 'ge' or 'gaas'; else InputError."""
    if name not in BUILTIN_MATERIALS:
        raise InputError(f"unknown built-in material {name!r}; choose from "
                         f"{BUILTIN_MATERIALS} or pass a file path")
    return Path(__file__).with_name("data") / f"{name}.json"


def resolve_material_path(spec: str) -> Path:
    """The file a --material value names; InputError if it names none."""
    if spec.lower() in BUILTIN_MATERIALS:
        return builtin_material_path(spec.lower())
    if not Path(spec).exists():
        raise InputError(f"unknown material {spec!r}: not a built-in name "
                         "and no such parameter file")
    return Path(spec)


def load_material(path) -> MaterialModel:
    """Load and validate a material file.

    Raises
    ------
    MaterialParseError
        File unreadable or not valid JSON.
    MaterialValidationError
        Schema violation, or a band-pair label that does not match the
        zone-center spectrum; the message names the offending key.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
        doc = json.loads(raw)
    except OSError as exc:
        raise MaterialParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MaterialParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MaterialParseError(f"{path}: top level must be an object")

    name = _single_line(_require(doc, "name", ""), "name")
    a_ang = _number(_require(doc, "lattice_constant_angstrom", ""),
                    "lattice_constant_angstrom")
    if a_ang <= 0:
        raise MaterialValidationError("lattice_constant_angstrom",
                                      "must be positive")
    # the hopping direction cosines divide by the length of the A->B
    # bonds (a/4)(+-1,+-1,+-1); k-space scans square the zone faces,
    # the longest of which is (2 pi/a)(2,0,0)
    bond = angstrom_to_bohr(a_ang) / 4.0
    face = math.pi / bond
    if not all(0.0 < x < math.inf for x in (bond * bond * 3.0, face * face)):
        raise MaterialValidationError(
            "lattice_constant_angstrom", "bond vectors and zone faces must "
            "have a finite, non-zero length in atomic units")
    basis = _require(doc, "basis", "")
    if not (isinstance(basis, str) and basis in BASES):
        raise MaterialValidationError(
            "basis", "must be " + " or ".join(map(repr, BASES)))
    orbitals, sk_keys = BASES[basis]
    species_raw = _require(doc, "species", "")
    if (not isinstance(species_raw, list) or len(species_raw) != 2
            or not all(isinstance(s, str) for s in species_raw)):
        raise MaterialValidationError("species",
                                      "must be a list of two species names")
    species = tuple(_single_line(sp, "species") for sp in species_raw)
    unique_species = sorted(set(species))

    shells = dict.fromkeys(SHELL[o] for o in orbitals)
    onsite = {sp: {shell: ev_to_hartree(val) for shell, val in
                   _numbers(doc, "onsite", sp, shells).items()}
              for sp in unique_species}

    sk = {}
    for a, b in dict.fromkeys((species, species[::-1])):
        key = f"{a}-{b}"
        table = _object(_require(_require(doc, "sk", ""), key, "sk"),
                        f"sk.{key}")
        unknown = sorted(set(table) - set(sk_keys))
        if unknown:
            raise MaterialValidationError(
                f"sk.{key}.{unknown[0]}",
                f"not a {basis} Slater-Koster integral; "
                f"valid keys: {sorted(sk_keys)}")
        sk[(a, b)] = {ik: ev_to_hartree(val) for ik, val in
                      _numbers(doc, "sk", key, sk_keys).items()}

    soc = {}
    for sp in unique_species:
        lam = _numbers(doc, "soc", sp, ["lambda_p_ev"])["lambda_p_ev"]
        if lam < 0:
            raise MaterialValidationError(f"soc.{sp}.lambda_p_ev",
                                          "must be non-negative")
        soc[sp] = ev_to_hartree(lam)

    dipole = {sp: _numbers(doc, "dipole", sp, ["s_p_bohr"])["s_p_bohr"]
              for sp in unique_species}

    dim = 4 * len(orbitals)
    bp_raw = _require(doc, "band_pairs", "")
    if not isinstance(bp_raw, dict) or not bp_raw:
        raise MaterialValidationError("band_pairs",
                                      "must be a non-empty object")
    band_pairs = {}
    for label, idx in bp_raw.items():
        # the repr keeps a label's line break out of the error message
        _single_line(label, f"band_pairs.{label!r}")
        path_key = f"band_pairs.{label}"
        problem = band_pair_problem(idx if isinstance(idx, list) else [], dim)
        if problem:
            raise MaterialValidationError(path_key, f"must be {problem}")
        band_pairs[label] = tuple(idx)

    model = MaterialModel(
        name=name,
        lattice_constant=angstrom_to_bohr(a_ang),
        species=species,
        orbitals=orbitals,
        onsite=onsite,
        sk=sk,
        soc=soc,
        dipole=dipole,
        band_pairs=band_pairs,
        point_group="Oh" if species[0] == species[1] else "Td",
        file_sha256=sha256(raw).hexdigest(),
    )
    _verify_band_pairs_at_gamma(model)
    return model


def _verify_band_pairs_at_gamma(model: MaterialModel) -> None:
    """Check each configured pair label against the zone-center spectrum.

    Every labelled pair must be a two-fold level isolated from its
    neighbours; a 'split-off' label must additionally sit directly below
    a four-fold multiplet (the j=3/2 valence top).
    """
    from .hamiltonian import bloch_hamiltonian
    import numpy as np

    energies = np.linalg.eigvalsh(bloch_hamiltonian(model, np.zeros(3)))
    tol = _GAMMA_DEGENERACY_TOL
    for label, (i, j) in model.band_pairs.items():
        key = f"band_pairs.{label}"
        if energies[j] - energies[i] > tol:
            raise MaterialValidationError(
                key, f"bands {i},{j} are split by "
                f"{energies[j] - energies[i]:.2e} Ha at the zone center")
        if i > 0 and energies[i] - energies[i - 1] <= tol:
            raise MaterialValidationError(
                key, f"band {i - 1} is degenerate with the pair "
                "at the zone center")
        if j + 1 < model.dim and energies[j + 1] - energies[j] <= tol:
            raise MaterialValidationError(
                key, f"band {j + 1} is degenerate with the pair "
                "at the zone center")
        if label == "split-off":
            if j + 4 >= model.dim:
                raise MaterialValidationError(key, "no room for a j=3/2 "
                                              "multiplet above the pair")
            quad = energies[j + 1:j + 5]
            if quad[-1] - quad[0] > tol:
                raise MaterialValidationError(
                    key, "the four bands above the pair are not degenerate "
                    "at the zone center (expected the j=3/2 valence top)")
