"""Command-line front end emitting plot-ready CSV/PLY data files.

Every output file starts with a provenance comment block (artifact
version, echo of the resolved configuration, its sha256, and the seed),
and contains no timestamps, so identical configurations produce
byte-identical files.

Exit codes: 0 success; 2 usage error; 3 physics-contract violation
(pairing ambiguity, invalid material data, inapplicable direction,
fit bracket failure); 4 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .brillouin import (boundary_radius, named_direction, positive_finite,
                        unit_direction, wedge_directions)
from .errors import GTensorError
from .lande import fit_report
from .materials import load_material, resolve_material_path, sha256
from .surface import N_COARSE, build_surface, export_cloud
from .tables import band_path_rows, entropy_rows, gline_rows, write_csv

USAGE_EXIT = 2
PHYSICS_EXIT = 3
IO_EXIT = 4


class UsageError(ValueError):
    """Bad command-line input that argparse cannot catch itself."""


def _parse_direction(spec: str, seed: int) -> np.ndarray:
    """Resolve --direction: 'x,y,z', 'random', or a family name."""
    if spec == "random":
        return unit_direction(np.random.default_rng(seed).normal(size=3))
    try:
        return named_direction(spec)
    except KeyError:
        pass
    parts = spec.split(",")
    if len(parts) != 3:
        raise UsageError(
            f"--direction wants 'x,y,z', 'random', or a family name, got {spec!r}")
    try:
        v = np.array([float(p) for p in parts])
    except ValueError:
        raise UsageError(f"non-numeric direction component in {spec!r}") from None
    if not np.all(np.isfinite(v)):
        raise UsageError(f"non-finite direction component in {spec!r}")
    try:
        return unit_direction(v)
    except ValueError:
        raise UsageError("--direction must have a finite, non-zero length, "
                         f"got {spec!r}") from None


# smallest accepted value of each integer option, where a subcommand has it
_INT_MINIMUM = {"samples": 1, "ncoarse": 2, "level": 0, "workers": 1,
                "seed": 0}


def _check_numbers(args: argparse.Namespace) -> None:
    """Reject numeric options outside their domain before any work."""
    for option, minimum in _INT_MINIMUM.items():
        value = getattr(args, option, None)
        if value is not None and value < minimum:
            raise UsageError(f"--{option} must be >= {minimum}, got {value}")
    r_max = getattr(args, "rmax", None)
    if r_max is not None:
        try:
            positive_finite("--rmax", r_max)
        except ValueError as err:
            raise UsageError(*err.args) from None


def _provenance(args: argparse.Namespace) -> list:
    """Provenance lines: version, config echo, config hash, seed."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    blob = json.dumps(config, sort_keys=True, default=str)
    digest = sha256(blob.encode()).hexdigest()
    return [
        f"gtensor-tb {__version__}",
        f"config {blob}",
        f"config-hash {digest}",
        f"seed {getattr(args, 'seed', None)}",
    ]


def _load(args):
    path = resolve_material_path(args.material)
    if not path.exists():
        raise UsageError(
            f"unknown material {args.material!r}: not a built-in name "
            "and no such parameter file")
    return load_material(path)


def cmd_bands(args, model) -> int:
    names = [p.strip() for p in args.path.split(",") if p.strip()]
    if len(names) < 2:
        raise UsageError("--path must name at least two comma-separated "
                         "high-symmetry points, e.g. 'L,G,X'")
    if args.samples < 2:
        raise UsageError("--samples must be >= 2 on a band path, "
                         f"got {args.samples}")
    header, rows, ticks = band_path_rows(model, names, args.samples)
    ticking = ["path ticks: " + "  ".join(f"{name}@{s:.17g}" for s, name in ticks),
               "energies in Hartree"]
    write_csv(args.out, _provenance(args) + ticking, header, rows)
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
        if not flip_ok:
            notes.append("spin-flip check refused: direction outside the "
                         f"valid families of point group {model.point_group}; "
                         "residual column is NaN")
            print("note: spin-flip relation not applicable on this "
                  "direction; emitting entropies only", file=sys.stderr)
    write_csv(args.out, _provenance(args) + notes, header, rows)
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
    notes = _provenance(args) + [
        f"rays {len(directions)} wedge on",
        f"crossings {len(cloud.points)} failures {len(cloud.failures)}",
    ]
    export_cloud(cloud, args.out, fmt=args.format, provenance=notes)
    return 0


def cmd_atomfit(args, model) -> int:
    report = fit_report(model)
    lines = _provenance(args)
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
        p.add_argument("--seed", type=int, default=0,
                       help="seed for --direction random")

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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_atomfit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args, _load(args))
    except (UsageError, KeyError) as err:
        # args, not str(): str() of a KeyError is the repr of its message
        print("usage error:", *err.args, file=sys.stderr)
        return USAGE_EXIT
    except GTensorError as err:
        print(f"physics-contract error: {err}", file=sys.stderr)
        return PHYSICS_EXIT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
