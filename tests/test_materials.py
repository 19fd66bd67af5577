import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtensor_tb
from gtensor_tb import (MaterialParseError, MaterialValidationError,
                        builtin_material_path, load_material,
                        resolve_material_path, select_pair, solve, tables)
from gtensor_tb.bands import resolve_band_indices
from gtensor_tb.cli import main
from gtensor_tb.errors import InputError
from gtensor_tb.materials import band_pair_problem
from gtensor_tb.slater_koster import BASES
from gtensor_tb.units import angstrom_to_bohr, ev_to_hartree

from oracles import with_soc_scaled


def test_builtin_materials_load(si, ge, gaas):
    assert si.name == "Si" and ge.name == "Ge" and gaas.name == "GaAs"
    # the orbitals carry the basis
    assert si.orbitals == BASES["sp3d5s*"][0]
    assert gaas.orbitals == BASES["sp3"][0]
    assert len(si.orbitals) == 10 and len(gaas.orbitals) == 4


def test_point_group_and_split_tol(si, gaas):
    assert si.point_group == "Oh"
    assert gaas.point_group == "Td"


def test_units_converted(si):
    raw = json.loads(builtin_material_path("si").read_text())
    assert si.lattice_constant == pytest.approx(
        angstrom_to_bohr(raw["lattice_constant_angstrom"]))
    assert si.onsite["Si"]["s"] == pytest.approx(
        ev_to_hartree(raw["onsite"]["Si"]["s"]))


def test_resolve_material_path(tmp_path):
    assert resolve_material_path("si") == builtin_material_path("si")
    custom = tmp_path / "custom.json"
    custom.write_text("{}")
    assert resolve_material_path(str(custom)) == custom
    missing = str(tmp_path / "missing.json")
    with pytest.raises(InputError, match=re.escape(
            f"unknown material {missing!r}: not a built-in name and no "
            "such parameter file")):
        resolve_material_path(missing)
    with pytest.raises(InputError, match="unknown built-in material"):
        builtin_material_path("diamond")


def _si_dict():
    return json.loads(builtin_material_path("si").read_text())


def _dump(tmp_path, data):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    return path


def test_parse_error_on_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MaterialParseError):
        load_material(path)


def test_validation_missing_key(tmp_path):
    data = _si_dict()
    del data["lattice_constant_angstrom"]
    with pytest.raises(MaterialValidationError) as err:
        load_material(_dump(tmp_path, data))
    assert "lattice_constant" in str(err.value)


def test_validation_negative_lattice_constant(tmp_path):
    # positive constants whose bonds or zone faces overflow or underflow
    # in atomic units are rejected as well
    data = _si_dict()
    for a_ang in (-1.0, 1e308, 1e-320, 1e-200, 1e155, 1e-160):
        data["lattice_constant_angstrom"] = a_ang
        with pytest.raises(MaterialValidationError) as err:
            load_material(_dump(tmp_path, data))
        assert err.value.key == "lattice_constant_angstrom"


@pytest.mark.parametrize("key, value", [
    ("name", "Si\n1,2,3"), ("name", "Si\r"), ("name", {"x": 1}),
    ("name", 14), ("name", None), ("species", ["Si", "Si\n1,2"]),
], ids=["name-lf", "name-cr", "name-object", "name-number", "name-null",
        "species-lf"])
def test_written_strings_must_be_one_line(tmp_path, key, value):
    # the name goes into the '# material:' comment of a surface file and
    # each species starts a line of the atomfit report
    data = _si_dict()
    data[key] = value
    with pytest.raises(MaterialValidationError) as err:
        load_material(_dump(tmp_path, data))
    assert err.value.key == key


@pytest.mark.parametrize("label", ["split\noff", "split-off\r"],
                         ids=["lf", "cr"])
def test_band_pair_label_must_be_one_line(tmp_path, label):
    # labels are written into the '# band:' comment of a surface file
    data = _si_dict()
    data["band_pairs"][label] = data["band_pairs"].pop("split-off")
    with pytest.raises(MaterialValidationError) as err:
        load_material(_dump(tmp_path, data))
    assert err.value.key == f"band_pairs.{label!r}"
    assert "\n" not in str(err.value) and "\r" not in str(err.value)


def test_validation_unknown_sk_key(tmp_path):
    data = _si_dict()
    data["sk"]["Si-Si"]["bogus_integral"] = 0.1
    with pytest.raises(MaterialValidationError) as err:
        load_material(_dump(tmp_path, data))
    assert "bogus" in str(err.value)


def test_missing_sk_tables_reported_in_species_order(tmp_path):
    # the first missing table is named the same under every hash seed
    data = json.loads(builtin_material_path("gaas").read_text())
    data["sk"] = {}
    path = _dump(tmp_path, data)
    script = ("import sys\n"
              "from gtensor_tb import MaterialValidationError, load_material\n"
              "try:\n"
              "    load_material(sys.argv[1])\n"
              "except MaterialValidationError as err:\n"
              "    print(err.key)\n")
    src = str(Path(gtensor_tb.__file__).parents[1])
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script, str(path)],
                             env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout == "sk.Ga-As\n", seed


@pytest.mark.parametrize("section,value,key", [
    ("sk", 5, "sk"),
    ("dipole", 3, "dipole"),
    ("onsite", None, "onsite"),
    ("soc", "Si Si", "soc"),
    ("onsite", {"Si": [1, 2]}, "onsite.Si"),
    ("sk", {"Si-Si": [1]}, "sk.Si-Si"),
], ids=["sk-number", "dipole-number", "onsite-null", "soc-string",
        "onsite-entry-list", "sk-entry-list"])
def test_non_object_section_or_entry_is_named(tmp_path, section, value, key):
    data = _si_dict()
    data[section] = value
    with pytest.raises(MaterialValidationError) as err:
        load_material(_dump(tmp_path, data))
    assert (err.value.key, str(err.value)) == (key, f"{key}: must be an object")


@pytest.mark.parametrize("basis", [["sp3"], {"sp3": 1}, 3, "sp3d5s"],
                         ids=["list", "object", "number", "unknown-name"])
def test_malformed_basis_is_named(tmp_path, basis):
    # a list or object basis is not hashable: still a validation error
    data = _si_dict()
    data["basis"] = basis
    with pytest.raises(MaterialValidationError) as err:
        load_material(_dump(tmp_path, data))
    assert str(err.value) == "basis: must be 'sp3' or 'sp3d5s*'"


def test_band_pair_checked_against_gamma_pattern(tmp_path):
    # bands 10-13 form a four-fold level at Gamma; calling two of them
    # a Kramers pair must be rejected at load time
    data = _si_dict()
    data["band_pairs"]["second-conduction"] = [10, 11]
    with pytest.raises(MaterialValidationError) as err:
        load_material(_dump(tmp_path, data))
    assert "second-conduction" in str(err.value)


@pytest.mark.parametrize("pair", [[False, True], [True, 2], [2.9, 3.7]],
                         ids=["false-true", "true-2", "float"])
def test_band_pair_booleans_rejected(tmp_path, si, monkeypatch, pair):
    # JSON true/false and non-integers are not band indices, although
    # Python's bool is an int; a caller's explicit pair is refused as
    # well, before any solve, not truncated to (1, 2) or (2, 3)
    data = _si_dict()
    data["band_pairs"]["bogus"] = pair
    with pytest.raises(MaterialValidationError) as err:
        load_material(_dump(tmp_path, data))
    assert str(err.value) == "band_pairs.bogus: must be a pair of band indices"
    sol = solve(si, np.zeros(3))
    solved = []
    monkeypatch.setattr(tables, "solve", lambda *args: solved.append(args))
    pair = tuple(pair)
    for call in (lambda: resolve_band_indices(si, pair),
                 lambda: select_pair(si, sol, pair),
                 lambda: tables.sample_pairs(si, pair, [np.zeros(3)])):
        with pytest.raises(InputError, match=r"is not a pair of band indices"):
            call()
    assert not solved
    # numpy integers, as np.flatnonzero returns them, are band indices
    indices = tuple(np.flatnonzero([0, 0, 1, 1]))
    assert resolve_band_indices(si, indices) == (2, 3)


@pytest.mark.parametrize("pair", [(3, 2), (-2, -1), (1, 4), (3, 3),
                                  (39, 40)])
def test_one_rule_for_band_pairs(tmp_path, si, monkeypatch, pair):
    # a band pair is two adjacent bands (i, i + 1) of 0..dim - 1, whether
    # a material file configures it or a caller names it by its indices
    data = _si_dict()
    data["band_pairs"]["bogus"] = list(pair)
    path = _dump(tmp_path, data)
    with pytest.raises(MaterialValidationError) as err:
        load_material(path)
    assert str(err.value) == ("band_pairs.bogus: must be two adjacent "
                              "bands (i, i + 1) of 0..39")
    assert main(["bands", "--material", str(path), "--samples", "2",
                 "--out", str(tmp_path / "bands.csv")]) == 3
    sol = solve(si, np.zeros(3))
    solved = []
    monkeypatch.setattr(tables, "solve", lambda *args: solved.append(args))
    message = (r"band pair .* is not two adjacent bands "
               r"\(i, i \+ 1\) of 0\.\.39")
    for call in (lambda: resolve_band_indices(si, pair),
                 lambda: select_pair(si, sol, pair),
                 lambda: tables.sample_pairs(si, pair, [np.zeros(3)])):
        with pytest.raises(InputError, match=message):
            call()
    assert not solved
    assert not (tmp_path / "bands.csv").exists()


def test_configured_labels_are_band_pairs(si, ge, gaas):
    for model in (si, ge, gaas):
        for label, pair in model.band_pairs.items():
            assert not band_pair_problem(pair, model.dim), (model.name, label)
            assert resolve_band_indices(model, label) == pair
            assert resolve_band_indices(model, pair) == pair


def test_soc_scaling_helper(si):
    scaled = with_soc_scaled(si, 0.5)
    for sp in si.soc:
        assert scaled.soc[sp] == pytest.approx(0.5 * si.soc[sp])


def test_split_off_pair_is_below_fourfold(si):
    lo, hi = si.band_pairs["split-off"]
    assert (lo, hi) == (2, 3)
    assert si.band_pairs["first-conduction"] == (8, 9)


def test_gaas_band_pairs(gaas):
    assert set(gaas.band_pairs) == {"split-off", "first-conduction",
                                    "second-conduction"}


def test_arrays_match_species_layout(si, gaas):
    assert si.species == ("Si", "Si")
    assert gaas.species == ("Ga", "As")
    assert np.isfinite(list(si.soc.values())).all()
