"""Command-line front end emitting plot-ready CSV/PLY data files.

Every output file starts with a provenance comment block (artifact
version, echo of the resolved configuration and its sha256, and the
sha256 of the material file; the echo holds the ``--seed`` of ``gline``
and ``entropy``), and contains no timestamps, so identical
configurations produce byte-identical files.

Exit codes: 0 success; 2 usage error (a bad flag, or an ``InputError``
from the library function that takes the value, an unknown material,
band, point or direction name among them); 3
physics-contract violation (pairing ambiguity, invalid material data,
inapplicable direction, fit bracket failure); 4 I/O failure.  Any other
exception is a fault: exit 1 with a traceback.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from .brillouin import (DIRECTION_FAMILIES, boundary_radius, named_direction,
                        unit_direction, wedge_directions)
from .errors import GTensorError, InputError
from .lande import fit_report
from .materials import load_material, resolve_material_path, sha256
from .surface import N_COARSE, build_surface, export_cloud
from .tables import band_path_rows, entropy_rows, gline_rows, write_csv

USAGE_EXIT = 2
PHYSICS_EXIT = 3
IO_EXIT = 4


# a number as float() reads it, digit underscores left out
_NUMBER = re.compile(r"\s*[+-]?((\d+\.?\d*|\.\d+)(e[+-]?\d+)?"
                     r"|inf(inity)?|nan)\s*", re.IGNORECASE)


def _parse_direction(spec: str, seed: int) -> np.ndarray:
    """Resolve --direction: 'x,y,z', 'random', or a family name."""
    if seed < 0:
        raise InputError(f"--seed must be >= 0, got {seed}")
    if spec == "random":
        return unit_direction(np.random.default_rng(seed).normal(size=3))
    if spec.lower() in map(str.lower, DIRECTION_FAMILIES):
        return named_direction(spec)
    parts = spec.split(",")
    if not all(map(_NUMBER.fullmatch, parts)):
        raise InputError("--direction wants 'x,y,z', 'random' or a family "
                         f"name, got {spec!r}")
    return unit_direction([float(p) for p in parts])


def _provenance(args: argparse.Namespace, model) -> list:
    """Provenance lines: version, config echo and hash, material digest."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    blob = json.dumps(config, sort_keys=True, default=str)
    digest = sha256(blob.encode()).hexdigest()
    return [
        f"gtensor-tb {__version__}",
        f"config {blob}",
        f"config-hash {digest}",
        f"material-sha256 {model.file_sha256}",
    ]


def cmd_bands(args, model) -> int:
    names = [p.strip() for p in args.path.split(",") if p.strip()]
    header, rows, ticks = band_path_rows(model, names, args.samples)
    ticking = ["path ticks: " + "  ".join(f"{name}@{s:.17g}" for s, name in ticks),
               "energies in Hartree"]
    write_csv(args.out, _provenance(args, model) + ticking, header, rows)
    return 0


def cmd_ray(args, model) -> int:
    """gline or entropy rows along one ray, by default to the zone boundary."""
    direction = _parse_direction(args.direction, args.seed)
    r_max = (boundary_radius(model.lattice_constant, direction)
             if args.rmax is None else args.rmax)
    notes = ["direction %s" % np.array2string(direction, precision=8)]
    if args.command == "gline":
        header, rows = gline_rows(model, args.band, direction, r_max,
                                  args.samples)
    else:
        header, rows, flip_ok = entropy_rows(model, args.band, direction,
                                             r_max, args.samples)
    if args.command == "entropy" and not flip_ok:
        notes.append("spin-flip check refused: direction outside the "
                     f"valid families of point group {model.point_group}; "
                     "residual column is NaN")
        print("note: spin-flip relation not applicable on this "
              "direction; emitting entropies only", file=sys.stderr)
    write_csv(args.out, _provenance(args, model) + notes, header, rows)
    return 0


def cmd_surface(args, model) -> int:
    directions = wedge_directions(args.level)
    cloud = build_surface(
        model, args.band, directions,
        which_det=args.det,
        r_max=args.rmax,
        n_coarse=args.ncoarse,
        workers=args.workers,
    )
    notes = _provenance(args, model) + [
        f"rays {len(directions)} wedge on",
        f"crossings {len(cloud.points)} failures {len(cloud.failures)}",
    ]
    export_cloud(cloud, args.out, fmt=args.format, provenance=notes)
    return 0


def cmd_atomfit(args, model) -> int:
    report = fit_report(model)
    lines = _provenance(args, model)
    body = []
    for species, result in report.items():
        body.append(f"{species}: <s|d|p> = {result['dipole_bohr']:.6f} Bohr, "
                    f"g_S = {result['g_s_zz']:+.9f}, "
                    f"g_L = {result['g_l_zz']:+.9f}, "
                    f"g_tot = {result['g_tot_zz']:+.9f}")
    text = "".join(f"# {line}\n" for line in lines) + "\n".join(body) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtensor-tb",
        description="Tight-binding g-tensors, entanglement checks, and "
                    "det(g)=0 surface extraction for cubic semiconductors.")
    parser.add_argument("--version", action="version",
                        version=f"gtensor-tb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, band=True):
        p.add_argument("--material", required=True,
                       help="built-in name (si, ge, gaas) or parameter file path")
        if band:
            p.add_argument("--band", required=True,
                           help="configured pair label, e.g. split-off")
        p.add_argument("--out", required=True, help="output file path")

    p = sub.add_parser("bands", help="energies along a high-symmetry path")
    common(p, band=False)
    p.add_argument("--path", default="L,G,X",
                   help="comma-separated point names (G X L K W U)")
    p.add_argument("--samples", type=int, default=60,
                   help="k-points per path segment")
    p.set_defaults(func=cmd_bands)

    for name, text in (
            ("gline", "singular values / determinants along a ray"),
            ("entropy", "pair entropies and spin-flip residual")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--direction", required=True,
                       help="'x,y,z', 'random', or Delta/Sigma/Lambda")
        p.add_argument("--rmax", type=float, default=None,
                       help="ray length in Bohr^-1 (default: zone boundary)")
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0,
                       help="seed for --direction random")
        p.set_defaults(func=cmd_ray)

    p = sub.add_parser("surface", help="det(g)=0 point cloud over the zone")
    common(p)
    p.add_argument("--det", choices=("gs", "gtot"), default="gs")
    p.add_argument("--level", type=int, default=4,
                   help="icosphere subdivision level; only its O_h wedge "
                        "is scanned, for every material")
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--ncoarse", type=int, default=N_COARSE,
                   help="coarse samples per ray before bisection")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "ply"), default="csv")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("atomfit", help="fit intra-atomic dipoles to the Lande value")
    p.add_argument("--material", required=True,
                   help="built-in name (si, ge, gaas) or parameter file path")
    p.add_argument("--out", default=None,
                   help="report file path (default: stdout)")
    p.set_defaults(func=cmd_atomfit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model = load_material(resolve_material_path(args.material))
        return args.func(args, model)
    except InputError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except GTensorError as err:
        print(f"physics-contract error: {err}", file=sys.stderr)
        return PHYSICS_EXIT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
