import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtensor_tb
from gtensor_tb import (build_surface, builtin_material_path, cli, tables,
                        wedge_directions)
from gtensor_tb.brillouin import unit_direction
from gtensor_tb.cli import main
from gtensor_tb.errors import InputError
from gtensor_tb.tables import band_path_rows, entropy_rows, gline_rows
from gtensor_tb.units import HARTREE_EV


def _read_data(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


# --- exit codes --------------------------------------------------------------

def test_bands_success(tmp_path):
    out = tmp_path / "bands.csv"
    rc = main(["bands", "--material", "si", "--path", "L,G,X",
               "--samples", "8", "--out", str(out)])
    assert rc == 0
    comments, header, rows = _read_data(out)
    assert header[:4] == ["path_s", "kx", "ky", "kz"]
    assert len(header) == 44
    assert any("energies in Hartree" in c for c in comments)
    assert any("path ticks:" in c for c in comments)
    # Gamma row: fourfold valence degeneracy, ~44 meV above split-off
    gamma = min(rows, key=lambda r: float(r[1]) ** 2 + float(r[2]) ** 2
                + float(r[3]) ** 2)
    e = np.array([float(x) for x in gamma[4:]])
    gap_mev = (e[4] - e[2]) * HARTREE_EV * 1000
    assert abs(gap_mev - 44.0) < 2.0
    assert abs(e[4] - e[7]) < 1e-9


def test_bands_path_names_may_carry_spaces(tmp_path):
    rows = {}
    for spec in ("L,G,X", "L, G , X"):
        out = tmp_path / "bands.csv"
        rc = main(["bands", "--material", "si", "--path", spec,
                   "--samples", "4", "--out", str(out)])
        assert rc == 0
        rows[spec] = [line for line in out.read_text().splitlines()
                      if not line.startswith("# config")]
    assert rows["L,G,X"] == rows["L, G , X"]


def test_unknown_material_is_usage_error(tmp_path, capsys):
    rc = main(["bands", "--material", "unobtainium",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "usage error: unknown material 'unobtainium': not a built-in name "
        "and no such parameter file\n")
    assert not (tmp_path / "x.csv").exists()


def test_unknown_band_label_is_usage_error(tmp_path, capsys):
    rc = main(["gline", "--material", "si", "--band", "nope",
               "--direction", "Delta", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    # the InputError message itself, after the usage-error prefix
    assert capsys.readouterr().err == (
        "usage error: material 'Si' configures pairs "
        "['first-conduction', 'split-off'], not 'nope'\n")


def test_unknown_path_point_is_usage_error(tmp_path, capsys):
    rc = main(["bands", "--material", "si", "--path", "L,Q",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "usage error: unknown symmetry point 'Q'; "
        "known: ['G', 'K', 'L', 'U', 'W', 'X']\n")


def test_bad_direction_is_usage_error(tmp_path, capsys):
    rc = main(["gline", "--material", "si", "--band", "split-off",
               "--direction", "1,2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["gline", "--material", "si", "--band", "split-off",
               "--direction", "0,0,0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()
    # no library function takes the text of --direction: the command
    # line checks that its components are numbers
    for spec in ("1,x,0", "Deltoid", "1_0,0,0", "0x1,0,0"):
        rc = main(["gline", "--material", "si", "--band", "split-off",
                   "--direction", spec, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "usage error: --direction wants 'x,y,z', 'random' or a family "
            f"name, got {spec!r}\n")
    assert not (tmp_path / "x.csv").exists()


def test_direction_components_as_float_reads_them(tmp_path):
    rows = []
    for spec in ("Sigma", "+1., 1E0 ,0", "2,2,0e5"):
        out = tmp_path / "x.csv"
        assert main(["gline", "--material", "si", "--band", "split-off",
                     "--direction", spec, "--rmax", "0.03", "--samples", "3",
                     "--out", str(out)]) == 0
        rows.append(_read_data(out)[1:])
    assert rows[0] == rows[1] == rows[2]


_SURFACE = ["surface", "--material", "si", "--band", "split-off"]
_RAY = ["--material", "si", "--band", "split-off", "--direction", "Delta"]
_GLINE = ["gline", "--material", "si", "--band", "split-off", "--direction"]
_ENTROPY = ["entropy", "--material", "si", "--band", "split-off",
            "--direction"]
_RMAX = "r_max must be a positive finite number, got "
_FINITE = "direction must be three finite numbers with a finite, non-zero norm"
_PHASES = "r_max = 1e+308 overflows the bond phases k.d"

# (argv, the rule in the option's words, the message of the library
# function that takes the value); the rule names the case
_DOMAIN_CASES = [
    (_SURFACE + ["--ncoarse", "1"], "--ncoarse must be >= 2, got 1",
     "n_coarse must be >= 2, got 1"),
    (_SURFACE + ["--rmax", "-0.1"], "--rmax must be a positive finite number",
     _RMAX + "-0.1"),
    (_SURFACE + ["--rmax", "0"], "--rmax must be a positive finite number",
     _RMAX + "0.0"),
    (_SURFACE + ["--rmax", "nan"], "--rmax must be a positive finite number",
     _RMAX + "nan"),
    (_SURFACE + ["--level", "-1"], "--level must be >= 0, got -1",
     "level must be >= 0, got -1"),
    (_SURFACE + ["--workers", "0"], "--workers must be >= 1, got 0",
     "workers must be >= 1, got 0"),
    (["gline"] + _RAY + ["--rmax", "0"],
     "--rmax must be a positive finite number", _RMAX + "0.0"),
    (["gline"] + _RAY + ["--samples", "0"], "--samples must be >= 1, got 0",
     "samples must be >= 1, got 0"),
    (["entropy"] + _RAY + ["--rmax", "inf"],
     "--rmax must be a positive finite number", _RMAX + "inf"),
    (["entropy"] + _RAY + ["--samples", "-3"],
     "--samples must be >= 1, got -3", "samples must be >= 1, got -3"),
    (["bands", "--material", "si", "--samples", "0"],
     "--samples must be >= 2 on a band path, got 0",
     "a band path needs >= 2 samples per segment, got 0"),
    (_GLINE + ["nan,0,0"], "non-finite direction component in 'nan,0,0'",
     _FINITE + ", got [nan, 0.0, 0.0]"),
    (_ENTROPY + ["inf,1,0"], "non-finite direction component in 'inf,1,0'",
     _FINITE + ", got [inf, 1.0, 0.0]"),
    (_GLINE + ["random", "--seed", "-1"], "--seed must be >= 0, got -1",
     "--seed must be >= 0, got -1"),
    (["bands", "--material", "si", "--path", "L"],
     "--path must name at least two",
     "a band path needs >= 2 points, got ['L']"),
    (_GLINE + ["1e300,1e300,0"], "--direction must have a finite, non-zero "
     "length, got '1e300,1e300,0'", _FINITE + ", got [1e+300, 1e+300, 0.0]"),
    (_ENTROPY + ["0,0,0"], "--direction must have a finite, non-zero length",
     _FINITE + ", got [0.0, 0.0, 0.0]"),
    # one sample per segment would drop the end point of the path
    (["bands", "--material", "si", "--samples", "1"],
     "--samples must be >= 2 on a band path, got 1",
     "a band path needs >= 2 samples per segment, got 1"),
    # finite, but the bond phases k.d overflow and H(k) would be NaN
    (["gline"] + _RAY + ["--rmax", "1e308"], "--rmax too large", _PHASES),
    (["entropy"] + _RAY + ["--rmax", "1e308"], "--rmax too large", _PHASES),
]


@pytest.mark.parametrize(
    "argv, message", [(argv, message) for argv, _, message in _DOMAIN_CASES],
    ids=[f"argv{i}-{rule}" for i, (_, rule, _) in enumerate(_DOMAIN_CASES)])
def test_out_of_domain_number_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _forbidden(*args, **kwargs):
    raise AssertionError("work started before the domain check")


# each row of the domain table in docs/formats.md but --seed, as the
# library function that takes the value checks it
_DOMAIN_CALLS = {
    "bands-samples": lambda m: band_path_rows(m, ["L", "G", "X"], 1),
    "bands-path": lambda m: band_path_rows(m, ["L"]),
    "gline-samples": lambda m: gline_rows(m, "split-off", [1, 0, 0], 0.05, 0),
    "entropy-samples": lambda m: entropy_rows(m, "split-off", [1, 0, 0],
                                              0.05, -3),
    "gline-rmax": lambda m: gline_rows(m, "split-off", [1, 0, 0], np.nan),
    "entropy-rmax": lambda m: entropy_rows(m, "split-off", [1, 0, 0], -0.1),
    "gline-rmax-phases": lambda m: gline_rows(m, "split-off", [1, 0, 0],
                                              1e308),
    "entropy-rmax-phases": lambda m: entropy_rows(m, "split-off", [1, 0, 0],
                                                  1e308),
    "gline-direction": lambda m: gline_rows(m, "split-off", [0, 0, 0], 0.05),
    "direction-length": lambda m: unit_direction([1.0, 2.0]),
    "surface-level": lambda m: wedge_directions(-1),
    "surface-rmax": lambda m: build_surface(m, "split-off",
                                            wedge_directions(1), r_max=0.0,
                                            workers=2),
    "surface-ncoarse": lambda m: build_surface(m, "split-off",
                                               wedge_directions(1),
                                               n_coarse=1, workers=2),
    "surface-det": lambda m: build_surface(m, "split-off",
                                           wedge_directions(1),
                                           which_det="g", workers=2),
    "surface-workers": lambda m: build_surface(m, "split-off",
                                               wedge_directions(1),
                                               workers=0),
}


@pytest.mark.parametrize("call", _DOMAIN_CALLS.values(), ids=_DOMAIN_CALLS)
def test_library_checks_each_domain_before_any_work(si, monkeypatch, call):
    # no solve and no pool: the surface calls ask for two workers on
    # three rays and may use four cores, so only their own check keeps
    # them from a pool
    monkeypatch.setattr(tables, "solve", _forbidden)
    monkeypatch.setattr(multiprocessing, "Pool", _forbidden)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with pytest.raises(InputError):
        call(si)


def test_lapack_fault_is_not_a_usage_error(tmp_path, monkeypatch):
    # a LinAlgError is a ValueError, but no argument caused it: it is a
    # fault (exit 1 with a traceback), not "--rmax too large"
    def fail(*args):
        raise np.linalg.LinAlgError("zheevr returned info 3")

    monkeypatch.setattr(tables, "solve", fail)
    out = tmp_path / "x.csv"
    with pytest.raises(np.linalg.LinAlgError, match="info 3"):
        main(["gline"] + _RAY + ["--out", str(out)])
    assert not out.exists()


def test_key_error_is_a_fault_not_a_usage_error(tmp_path, monkeypatch):
    # unknown names raise InputError; a KeyError from inside a command
    # is a bug, so it propagates (exit 1 with a traceback)
    def fail(*args):
        raise KeyError("lookup inside the library")

    monkeypatch.setattr(cli, "gline_rows", fail)
    out = tmp_path / "x.csv"
    with pytest.raises(KeyError, match="lookup inside the library"):
        main(["gline"] + _RAY + ["--out", str(out)])
    assert not out.exists()


def test_unwritable_out_is_io_error(tmp_path):
    rc = main(["bands", "--material", "si",
               "--out", str(tmp_path / "no" / "such" / "dir.csv")])
    assert rc == 4


def test_invalid_material_file_is_physics_error(tmp_path, capsys):
    # a section or entry that is not a JSON object, a basis that is not a
    # string, a lattice constant whose bonds overflow in Bohr, or a name
    # that would break its comment line is a validation error naming its
    # path (exit 3), not a TypeError or LinAlgError
    doc = json.loads(builtin_material_path("si").read_text())
    documents = {"bad": {"name": "Bad", "lattice_constant_angstrom": -1.0}}
    for name, section, value in (
            ("sk-number", "sk", 5),
            ("onsite-list", "onsite", {"Si": [1, 2]}),
            ("basis-list", "basis", ["sp3"]),
            ("lattice-huge", "lattice_constant_angstrom", 1e308),
            ("name-newline", "name", "Si\n1,2,3")):
        documents[name] = {**doc, section: value}
    for name, document in documents.items():
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(document))
        out = tmp_path / f"{name}.csv"
        rc = main(["bands", "--material", str(bad), "--out", str(out)])
        assert rc == 3, name
        assert "Traceback" not in capsys.readouterr().err, name
        assert not out.exists(), name


# --- gline -------------------------------------------------------------------

def test_gline_delta_anchors(tmp_path):
    out = tmp_path / "gline.csv"
    rc = main(["gline", "--material", "si", "--band", "split-off",
               "--direction", "Delta", "--rmax", "0.05", "--samples", "21",
               "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_data(out)
    det = header.index("det_gs")
    first, last = rows[0], rows[-1]
    assert abs(float(first[det]) - (-8.0 / 27.0)) < 1e-9
    assert float(last[det]) > 0
    assert float(first[header.index("r")]) == 0.0
    assert abs(float(last[header.index("r")]) - 0.05) < 1e-12


def test_gline_random_direction_seeded(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc = main(["gline", "--material", "si", "--band", "split-off",
                   "--direction", "random", "--seed", "7",
                   "--rmax", "0.04", "--samples", "5", "--out", str(out)])
        assert rc == 0
    # identical seeds give identical rays; only the --out echo differs
    d1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    d2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert d1 == d2


def test_identical_config_byte_identical(tmp_path):
    out = tmp_path / "run.csv"
    args = ["gline", "--material", "si", "--band", "split-off",
            "--direction", "Delta", "--rmax", "0.03", "--samples", "4",
            "--out", str(out)]
    assert main(args) == 0
    blob1 = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == blob1


# --- entropy -----------------------------------------------------------------

def test_entropy_oh_has_residuals(tmp_path):
    out = tmp_path / "ent.csv"
    rc = main(["entropy", "--material", "si", "--band", "split-off",
               "--direction", "1,1,0", "--rmax", "0.04", "--samples", "6",
               "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_data(out)
    res = header.index("spin_flip_residual")
    vals = [float(r[res]) for r in rows if r[res] != "nan"]
    assert vals and max(vals) < 1e-8


def test_entropy_td_off_family_notes_and_nan(tmp_path, capsys):
    out = tmp_path / "ent.csv"
    rc = main(["entropy", "--material", "gaas", "--band", "split-off",
               "--direction", "1,1,0", "--rmax", "0.04", "--samples", "6",
               "--out", str(out)])
    assert rc == 0
    assert "not applicable" in capsys.readouterr().err
    comments, header, rows = _read_data(out)
    assert any("spin-flip check refused" in c for c in comments)
    res = header.index("spin_flip_residual")
    assert all(r[res] == "nan" for r in rows)


# --- surface -----------------------------------------------------------------

@pytest.mark.parametrize("case", [
    # the g_S scans solve the pair and the bands within its isolation
    # reach: Si split-off (bands 2, 3), Si first conduction (8, 9), Ge
    # second conduction (10, 11); GaAs split-off is a T_d, non-degenerate
    # pair scanned on the O_h wedge; g_tot solves every band
    "si split-off", "si first-conduction", "ge second-conduction",
    "gaas split-off", "si split-off --det gtot"])
def test_surface_csv_and_workers_agree(tmp_path, monkeypatch, case):
    # level 1 has three wedge rays, so two workers are two forked pool
    # processes, whatever the core count of the machine
    material, band, *det = case.split()
    real_pool, sizes = multiprocessing.Pool, []

    def pool(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"cloud{workers}.csv"
        rc = main(["surface", "--material", material, "--band", band, *det,
                   "--level", "1", "--workers", workers, "--out", str(out)])
        assert rc == 0
        outs.append([l for l in out.read_text().splitlines()
                     if not l.startswith("#")])
    assert sizes == [2]
    assert outs[0] == outs[1]
    assert len(outs[0]) > 1


def test_surface_ply_output(tmp_path):
    out = tmp_path / "cloud.ply"
    rc = main(["surface", "--material", "si", "--band", "split-off",
               "--level", "0", "--rmax", "0.05", "--ncoarse", "60",
               "--format", "ply", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ply"
    n = next(int(l.split()[-1]) for l in lines
             if l.startswith("element vertex"))
    body = lines[lines.index("end_header") + 1:]
    assert len([l for l in body if l.strip()]) == n


def test_surface_has_no_wedge_option(tmp_path):
    # every material scans its O_h wedge, so there is nothing to choose
    out = tmp_path / "cloud.csv"
    with pytest.raises(SystemExit) as exc:
        main(["surface", "--material", "gaas", "--band", "split-off",
              "--level", "0", "--wedge", "on", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bands", "--material", "si"], _SURFACE + ["--level", "0"],
    ["atomfit", "--material", "si"]])
def test_seed_only_where_a_direction_is_drawn(tmp_path, argv):
    # --seed draws a random --direction, which only gline and entropy take
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("material, ops, wedge", [
    ("si", 48, "on"), ("gaas", 48, "on")])
def test_surface_sampling_follows_point_group(tmp_path, material, ops, wedge):
    out = tmp_path / "cloud.csv"
    rc = main(["surface", "--material", material, "--band", "split-off",
               "--level", "0", "--rmax", "0.05", "--ncoarse", "20",
               "--out", str(out)])
    assert rc == 0
    comments, _, _ = _read_data(out)
    assert f"# symmetry_ops: {ops}" in comments
    assert any(c.startswith("# rays ") and c.endswith(f" wedge {wedge}")
               for c in comments)


# --- atomfit -----------------------------------------------------------------

def test_atomfit_stdout(capsys):
    rc = main(["atomfit", "--material", "gaas"])
    assert rc == 0
    text = capsys.readouterr().out
    fits = {}
    for line in text.splitlines():
        if line.startswith("#") or ":" not in line:
            continue
        species = line.split(":")[0]
        fits[species] = float(line.split("=")[1].split("Bohr")[0])
    assert abs(fits["Ga"] - 2.89101) < 0.01
    assert abs(fits["As"] - 2.45499) < 0.01
    assert "+0.666666" in text          # the fitted total hits 2/3


def test_atomfit_to_file(tmp_path, capsys):
    # the file holds the stdout report, byte for byte with LF line
    # endings on every platform, apart from the config echo and its hash,
    # which name --out
    out = tmp_path / "fit.txt"
    rc = main(["atomfit", "--material", "si", "--out", str(out)])
    assert rc == 0
    assert "2.788" in out.read_text()
    assert main(["atomfit", "--material", "si"]) == 0
    report = capsys.readouterr().out.encode()
    data = out.read_bytes()
    assert b"\r" not in data

    def without_config(text):
        return [line for line in text.split(b"\n")
                if not line.startswith(b"# config")]
    assert without_config(data) == without_config(report)


# --- provenance --------------------------------------------------------------

def test_provenance_block_present_and_seedful(tmp_path):
    out = tmp_path / "gline.csv"
    main(["gline", "--material", "si", "--band", "split-off", "--direction",
          "random", "--seed", "5", "--samples", "3", "--out", str(out)])
    comments, _, _ = _read_data(out)
    assert comments[0].startswith("# gtensor-tb ")
    assert comments[1].startswith("# config {")
    assert comments[2].startswith("# config-hash ")
    # the config echo records the seed that drew the direction
    assert json.loads(comments[1][len("# config "):])["seed"] == 5
    assert "time" not in "\n".join(comments).lower()


def _material_digest(material, out):
    """The ``material-sha256`` provenance line of a short g-line run."""
    assert main(["gline", "--material", str(material), "--band", "split-off",
                 "--direction", "1,0,0", "--samples", "3",
                 "--out", str(out)]) == 0
    comments, _, _ = _read_data(out)
    assert comments[3].startswith("# material-sha256 ")
    return comments[3]


def test_provenance_names_the_material_file_contents(tmp_path):
    # the config echo holds the --material path only; a file changed in
    # place must still change the header
    doc = json.loads(builtin_material_path("gaas").read_text())
    material = tmp_path / "mat.json"
    lines = []
    for scale in (1.0, 1.01):
        doc["sk"]["Ga-As"]["pp_pi"] *= scale
        material.write_text(json.dumps(doc))
        lines.append(_material_digest(material, tmp_path / "gline.csv"))
    assert lines[0] != lines[1]


@pytest.mark.parametrize("name", ["si", "ge", "gaas"])
def test_builtin_material_digest_is_the_file_sha256(name, tmp_path):
    data = builtin_material_path(name).read_bytes()
    assert _material_digest(name, tmp_path / "gline.csv") == (
        "# material-sha256 " + hashlib.sha256(data).hexdigest())


# the GaAs surface scans the O_h wedge and replicates it like Si, and the
# g-line, entropy and surface runs cover every caller of the one ray
# sampler
_GAAS_RUNS = """
from gtensor_tb.cli import main
ray = ["--material", "gaas", "--band", "split-off", "--direction",
       "random", "--seed", "3"]
for argv in (["gline", *ray, "--out", "gline.csv"],
             ["surface", "--material", "gaas", "--band", "split-off",
              "--level", "1", "--out", "surface.csv"],
             ["entropy", *ray, "--out", "entropy.csv"]):
    assert main(argv) == 0, argv
"""


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # dict and set order must never reach a data file: the same
    # configurations, written by two interpreters with different
    # PYTHONHASHSEED values to the same --out names, match byte for byte
    src = str(Path(gtensor_tb.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    written = []
    for seed in ("0", "1"):
        where = tmp_path / f"hash{seed}"
        where.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        subprocess.run([sys.executable, "-c", _GAAS_RUNS], cwd=where,
                       env=env, check=True)
        written.append({name: (where / name).read_bytes()
                        for name in ("gline.csv", "surface.csv",
                                     "entropy.csv")})
    assert written[0] == written[1]


@pytest.mark.parametrize("a_ang", [1e-153, 1e13])
def test_extreme_lattice_constants_finish(tmp_path, capsys, a_ang):
    # a Si file that loads: at 1e-153 one float spacing of the zone
    # radius exceeds the bisection tolerance, at 1e13 every zone face
    # is shorter than 1e-12 Bohr^-1
    doc = json.loads(builtin_material_path("si").read_text())
    material = tmp_path / "si.json"
    material.write_text(json.dumps({**doc, "lattice_constant_angstrom": a_ang}))
    for argv in (["surface", "--band", "split-off", "--level", "0",
                  "--ncoarse", "4"],
                 ["gline", "--band", "split-off", "--direction", "1,0,0",
                  "--samples", "20"]):
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--material", str(material),
                            "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert len(_read_data(out)[2]) > 0
