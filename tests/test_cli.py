import numpy as np
import pytest

from gtensor_tb.cli import main
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


def test_unknown_material_is_usage_error(tmp_path, capsys):
    rc = main(["bands", "--material", "unobtainium",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_unknown_band_label_is_usage_error(tmp_path):
    rc = main(["gline", "--material", "si", "--band", "nope",
               "--direction", "Delta", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_bad_direction_is_usage_error(tmp_path):
    rc = main(["gline", "--material", "si", "--band", "split-off",
               "--direction", "1,2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["gline", "--material", "si", "--band", "split-off",
               "--direction", "0,0,0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


_SURFACE = ["surface", "--material", "si", "--band", "split-off"]
_RAY = ["--material", "si", "--band", "split-off", "--direction", "Delta"]
_RMAX = "--rmax must be a positive finite number"


@pytest.mark.parametrize("argv, message", [
    (_SURFACE + ["--ncoarse", "1"], "--ncoarse must be >= 2, got 1"),
    (_SURFACE + ["--rmax", "-0.1"], _RMAX),
    (_SURFACE + ["--rmax", "0"], _RMAX),
    (_SURFACE + ["--rmax", "nan"], _RMAX),
    (_SURFACE + ["--level", "-1"], "--level must be >= 0, got -1"),
    (_SURFACE + ["--workers", "0"], "--workers must be >= 1, got 0"),
    (["gline"] + _RAY + ["--rmax", "0"], _RMAX),
    (["gline"] + _RAY + ["--samples", "0"], "--samples must be >= 1, got 0"),
    (["entropy"] + _RAY + ["--rmax", "inf"], _RMAX),
    (["entropy"] + _RAY + ["--samples", "-3"], "--samples must be >= 1, got -3"),
    (["bands", "--material", "si", "--samples", "0"], "--samples must be >= 1, got 0"),
    (["gline", "--material", "si", "--band", "split-off", "--direction",
      "nan,0,0"], "non-finite direction component in 'nan,0,0'"),
    (["entropy", "--material", "si", "--band", "split-off", "--direction",
      "inf,1,0"], "non-finite direction component in 'inf,1,0'"),
    (["gline", "--material", "si", "--band", "split-off", "--direction",
      "random", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["bands", "--material", "si", "--path", "L"],
     "--path must name at least two"),
    (["gline", "--material", "si", "--band", "split-off", "--direction",
      "1e300,1e300,0"], "--direction must have a finite, non-zero length, "
                        "got '1e300,1e300,0'"),
    (["entropy", "--material", "si", "--band", "split-off", "--direction",
      "0,0,0"], "--direction must have a finite, non-zero length"),
])
def test_out_of_domain_number_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_is_io_error(tmp_path):
    rc = main(["bands", "--material", "si",
               "--out", str(tmp_path / "no" / "such" / "dir.csv")])
    assert rc == 4


def test_invalid_material_file_is_physics_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "Bad", "lattice_constant_angstrom": -1.0}')
    rc = main(["bands", "--material", str(bad),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3


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

def test_surface_csv_and_workers_agree(tmp_path):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"cloud{workers}.csv"
        rc = main(["surface", "--material", "si", "--band", "split-off",
                   "--det", "gs", "--level", "0", "--rmax", "0.05",
                   "--ncoarse", "60", "--workers", workers,
                   "--out", str(out)])
        assert rc == 0
        outs.append([l for l in out.read_text().splitlines()
                     if not l.startswith("#")])
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
    # the wedge follows from the point group; T_d has no 48-fold wedge
    out = tmp_path / "cloud.csv"
    with pytest.raises(SystemExit) as exc:
        main(["surface", "--material", "gaas", "--band", "split-off",
              "--level", "0", "--wedge", "on", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("material, ops, wedge", [
    ("si", 48, "on"), ("gaas", 0, "off")])
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


def test_atomfit_to_file(tmp_path):
    out = tmp_path / "fit.txt"
    rc = main(["atomfit", "--material", "si", "--out", str(out)])
    assert rc == 0
    assert "2.788" in out.read_text()


# --- provenance --------------------------------------------------------------

def test_provenance_block_present_and_seedful(tmp_path):
    out = tmp_path / "bands.csv"
    main(["bands", "--material", "si", "--samples", "4", "--out", str(out)])
    comments, _, _ = _read_data(out)
    text = "\n".join(comments)
    assert "gtensor-tb " in text
    assert "config {" in text
    assert "config-hash " in text
    assert "seed 0" in text
    assert "time" not in text.lower()
