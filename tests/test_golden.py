"""Byte contract of the CLI: surface data rows and atomfit report lines.

Each surface entry runs ``gtensor-tb surface ... --level 1`` and hashes the
lines that do not start with '#' (the CSV header and the points); the
comment block holds the configuration echo, which names the output
path, so it is left out.  The si-so-surface benchmark's own job, at
``--level 3``, is pinned the same way.  Radii are bisection midpoints, exact sums of
powers of two times the coarse radii, so the hashes change only when a
determinant sign does, not with LAPACK rounding.  A change to the
numerics that moves any of them must say so and record the new values.

The atomfit lines are pinned as text: dipoles print at 6 decimals and
g-factors at 9, far coarser than the rounding of the closed-form fit,
so they do not depend on the host.
"""
import hashlib

import pytest

from gtensor_tb import cli

GOLDEN = {
    # arguments after `surface`: (data rows incl. header, sha256)
    "--material si --band split-off": (
        79, "2d5fba2fe8c95af8058e8cfbadef225398db92e23ac6e8f624b0136bc9b121ad"),
    "--material si --band first-conduction": (
        79, "5d637e569981711e707c5d7dee8aa1358d62cf677b5a4f656b0d4100735c9fe2"),
    "--material gaas --band split-off": (
        79, "fd382fa02b871e5d9c065cafe7f0a9f0d3b7ed4e8e696df93cbf7ddacb8a02c5"),
    "--material si --band split-off --det gtot": (
        157, "3b637df1f50e169329ee1795acde0e0fff813fdaec3804cb0439a431a2f6af68"),
}


# the si-so-surface benchmark job, at its own level
BENCHMARK_SURFACE = (
    "--material si --band split-off --det gs --level 3",
    (1255, "2cda480e71f2cb32337cbdb1779d9b4127c300e940d50c7228b842c2a70f71d9"))


def _data_rows(out_dir, args):
    """(line count, sha256) of the non-comment lines of a surface CSV."""
    out = out_dir / "surface.csv"
    assert cli.main(["surface", *args.split(), "--out", str(out)]) == 0
    with open(out, "rb") as fh:
        rows = [line for line in fh if not line.startswith(b"#")]
    return len(rows), hashlib.sha256(b"".join(rows)).hexdigest()


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_surface_level_1_data_rows(tmp_path, args):
    assert _data_rows(tmp_path, args + " --level 1") == GOLDEN[args]


def test_benchmark_surface_data_rows(tmp_path):
    args, expected = BENCHMARK_SURFACE
    assert _data_rows(tmp_path, args) == expected


ATOMFIT = {
    "si": ["Si: <s|d|p> = 2.788037 Bohr, g_S = -0.666666667, "
           "g_L = +1.333333333, g_tot = +0.666666667"],
    "ge": ["Ge: <s|d|p> = 2.535968 Bohr, g_S = -0.666666667, "
           "g_L = +1.333333333, g_tot = +0.666666667"],
    "gaas": ["As: <s|d|p> = 2.454985 Bohr, g_S = -0.666666667, "
             "g_L = +1.333333333, g_tot = +0.666666667",
             "Ga: <s|d|p> = 2.891011 Bohr, g_S = -0.666666667, "
             "g_L = +1.333333333, g_tot = +0.666666667"],
}


@pytest.mark.parametrize("material", sorted(ATOMFIT))
def test_atomfit_report_lines(tmp_path, material):
    out = tmp_path / "atomfit.txt"
    assert cli.main(["atomfit", "--material", material, "--out", str(out)]) == 0
    body = [line for line in out.read_text().splitlines()
            if not line.startswith("#")]
    assert body == ATOMFIT[material]
