"""Benchmark workloads: what one job runs, and how its output is checked.

Each workload is a class with

* ``setup()``: load the material and prepare the job (this is what
  ``setup_s`` times in a fresh process);
* ``warmup()``: a small untimed run of the same code path; returns a
  list of problems, empty when its output is correct or unchecked;
* ``job(i)``: run job ``i`` through the public API or in-process
  ``gtensor_tb.cli.main``; returns the job's output;
* ``check(i, output)``: a list of problems, empty when the output is
  correct;
* ``counters(output)``: per-job counts that do not come from spans;
* ``layers``: the span names a traced job must record at least once.

The checks are independent of the code under test where that is cheap:
the surface and Sigma-ray outputs are compared with a reference
committed in ``reference.json``, the surface's orbits are rebuilt from
the 48 signed permutations, and g-line rows are recomputed with the
public point chain and, for one fixed direction, with reference rows.
"""
from __future__ import annotations

import csv
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np

import gtensor_tb
import gtensor_tb.cli
from gtensor_tb import (NearDegenerateIntermediateError, PairingAmbiguityError,
                        align_pair_to_spin_frame, boundary_radius,
                        builtin_material_path, entropy, g_tensor_set,
                        load_material, pair_spin_densities, select_pair, solve)

REFERENCE_PATH = Path(__file__).with_name("reference.json")
RADIUS_TOL = 1e-5   # Bohr^-1, the criterion-5a bisection tolerance
ROW_TOL = 1e-8
ORBIT_TOL = 1e-9  # distinct images of a unit vector under O_h

SURFACE_COLUMNS = ["kx", "ky", "kz", "dir_index", "crossing_ordinal",
                   "which_det", "det_slope_sign"]
GLINE_COLUMNS = ["r", "kx", "ky", "kz",
                 "sigma1_gs", "sigma2_gs", "sigma3_gs", "det_gs",
                 "sigma1_gtot", "sigma2_gtot", "sigma3_gtot", "det_gtot",
                 "entropy_xi", "entropy_xi_bar"]


def load_reference(name: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[name]


def signed_permutations() -> np.ndarray:
    """The 48 operations of O_h as signed permutation matrices."""
    ops = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            op = np.zeros((3, 3))
            op[range(3), perm] = signs
            ops.append(op)
    return np.array(ops)


def read_csv(path) -> tuple:
    """(comment lines, header, data rows) of a CLI CSV output."""
    comments, rows = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row and row[0].startswith("#"):
                comments.append(",".join(row)[1:].strip())
            elif row:
                rows.append(row)
    if not rows:
        return comments, [], []
    return comments, rows[0], rows[1:]


# layers of one determinant evaluation on a surface ray
SCAN_LAYERS = ("surface.scan_ray", "bands.solve", "hamiltonian.h",
               "bands.select_pair", "gtensor.spin_g", "gtensor.det_sign")


class _Workload:
    name = ""
    material = ""
    coarse_per_ray = 0
    layers: tuple = ()

    def __init__(self, seed: int, work_dir: Path | None):
        self.seed = seed
        self.work_dir = work_dir
        self.model = None
        self.load_s = float("nan")

    def _load(self):
        t0 = time.perf_counter()
        self.model = load_material(builtin_material_path(self.material))
        self.load_s = time.perf_counter() - t0

    def _out(self, tag) -> str:
        return f"{self.name}-{tag}.csv"

    def _run_cli(self, argv) -> Path:
        """Run the CLI in the work directory; returns the --out path.

        A relative --out keeps the provenance echo, hence the output
        bytes, the same in every checkout.
        """
        cwd = os.getcwd()
        os.chdir(self.work_dir)
        try:
            # resolved at call time so that a traced run sees the wrapped main
            code = gtensor_tb.cli.main(argv)
        finally:
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"gtensor-tb {argv[0]} exited with {code}")
        return self.work_dir / argv[-1]

    def counters(self, output) -> dict:
        return {}


class SurfaceWorkload(_Workload):
    """``gtensor-tb surface --material si --band split-off --det gs
    --level 3``: 30 wedge rays, replicated by the 48 O_h operations."""

    name = "si-so-surface"
    material = "si"
    layers = SCAN_LAYERS + ("cli.main", "materials.load_material",
                            "brillouin.wedge_directions",
                            "surface.build_surface", "surface.export_cloud")

    def __init__(self, seed, work_dir, level=3, n_coarse=200, reference=None):
        super().__init__(seed, work_dir)
        self.level = level
        self.coarse_per_ray = n_coarse
        self.reference = reference

    def _argv(self, level, out):
        return ["surface", "--material", "si", "--band", "split-off",
                "--det", "gs", "--level", str(level),
                "--ncoarse", str(self.coarse_per_ray), "--workers", "1",
                "--out", out]

    def setup(self):
        self._load()
        if self.reference is None:
            self.reference = load_reference(self.name)
        self.argv = self._argv(self.level, self._out("job"))

    def warmup(self):
        self._run_cli(self._argv(0, self._out("warmup")))
        return []

    def job(self, i):
        return self._run_cli(self.argv)

    def counters(self, output):
        return {"surface.export_bytes": Path(output).stat().st_size}

    def check(self, i, output):
        return check_cloud(output, self.reference)

    def make_reference(self) -> dict:
        """Reference data from a trusted run's CSV."""
        _, _, rows = read_csv(self.job(0))
        directions = gtensor_tb.wedge_directions(self.level)
        radii = [dict() for _ in directions]
        for row in rows:
            point = np.array([float(v) for v in row[:3]])
            radii[int(row[3])][int(row[4])] = float(np.linalg.norm(point))
        return {"points": len(rows),
                "rays": [{"direction": d.tolist(),
                          "radii": [r[o] for o in sorted(r)]}
                         for d, r in zip(directions, radii)]}


def check_cloud(path, reference) -> list:
    """Compare a replicated surface CSV with the reference rays.

    Every wedge ray must have exactly its reference crossings, each at
    the reference radius (within RADIUS_TOL), and each crossing must
    appear once per image of its orbit under O_h, i.e.
    48/|stabiliser of the ray| times, at those images.
    """
    comments, header, rows = read_csv(path)
    if header != SURFACE_COLUMNS:
        return [f"unexpected header {header!r}"]
    if "symmetry_ops: 48" not in comments:
        return ["cloud was not replicated by 48 operations"]
    problems = []
    if len(rows) != reference["points"]:
        problems.append(f"{len(rows)} points, reference {reference['points']}")
    points = np.array([[float(v) for v in row[:3]] for row in rows])
    keys = np.array([[int(row[3]), int(row[4])] for row in rows]).reshape(-1, 2)
    ops = signed_permutations()
    for d_index, ray in enumerate(reference["rays"]):
        on_ray = keys[:, 0] == d_index
        ordinals = set(keys[on_ray, 1].tolist())
        if ordinals != set(range(len(ray["radii"]))):
            problems.append(f"ray {d_index}: crossing ordinals {sorted(ordinals)}"
                            f", reference has {len(ray['radii'])} crossings")
            continue
        direction = np.array(ray["direction"])
        stabiliser = int(np.sum(np.linalg.norm(ops @ direction - direction,
                                               axis=1) < ORBIT_TOL))
        orbit = _distinct(ops @ direction)
        if len(orbit) * stabiliser != len(ops):
            problems.append(f"ray {d_index}: orbit size {len(orbit)} does not "
                            f"divide the group with stabiliser {stabiliser}")
            continue
        for ordinal, radius in enumerate(ray["radii"]):
            got = points[on_ray & (keys[:, 1] == ordinal)]
            where = f"ray {d_index} crossing {ordinal}"
            if len(got) != len(orbit):
                problems.append(f"{where}: {len(got)} images, "
                                f"orbit has {len(orbit)}")
                continue
            dist = np.linalg.norm(got[:, None, :] - radius * orbit[None],
                                  axis=2)
            if np.abs(np.linalg.norm(got, axis=1) - radius).max() > RADIUS_TOL:
                problems.append(f"{where}: radius off the reference "
                                f"{radius:.9f} by more than {RADIUS_TOL}")
            elif (dist.min(axis=0) > RADIUS_TOL).any():
                problems.append(f"{where}: an orbit image is missing")
    return problems


def _distinct(vectors) -> np.ndarray:
    kept = []
    for v in vectors:
        if all(np.linalg.norm(v - w) > ORBIT_TOL for w in kept):
            kept.append(v)
    return np.array(kept)


class SigmaRayWorkload(_Workload):
    """One Si first-conduction ray along Sigma, dense enough (n_coarse
    14000) to resolve the torus walls 2.7e-5 Bohr^-1 apart."""

    name = "si-fc-sigma-ray"
    material = "si"
    layers = SCAN_LAYERS
    direction = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)

    def __init__(self, seed, work_dir, n_coarse=14000, reference=None):
        super().__init__(seed, work_dir)
        self.coarse_per_ray = n_coarse
        self.reference = reference

    def setup(self):
        self._load()
        if self.reference is None:
            self.reference = load_reference(self.name)
        self.r_max = 0.35 * boundary_radius(self.model.lattice_constant,
                                            [1.0, 0.0, 0.0])

    def _scan(self, n_coarse):
        return gtensor_tb.surface.scan_ray(
            self.model, "first-conduction", self.direction,
            r_max=self.r_max, n_coarse=n_coarse)

    def warmup(self):
        self._scan(200)
        return []

    def job(self, i):
        return [c.radius for c in self._scan(self.coarse_per_ray).crossings]

    def check(self, i, output):
        expected = self.reference["radii"]
        if len(output) != len(expected):
            return [f"{len(output)} crossings, reference {len(expected)}"]
        return [f"crossing {n} at {got:.9f}, reference {want:.9f}"
                for n, (got, want) in enumerate(zip(output, expected))
                if abs(got - want) > RADIUS_TOL]

    def make_reference(self) -> dict:
        return {"radii": [float(r) for r in self.job(0)]}


class GlineWorkload(_Workload):
    """``gtensor-tb gline --material gaas --band split-off --direction
    random --seed <s>``; job seeds derive from the workload seed.

    The warm-up runs the fixed direction seed ``REFERENCE_SEED`` and is
    compared with rows committed in ``reference.json``, so the g-line
    path has one check that does not use the code under test.
    """

    name = "gaas-gline"
    material = "gaas"
    band = "split-off"
    n_check_rows = 9
    REFERENCE_SEED = 1
    layers = ("cli.main", "materials.load_material", "tables.gline_rows",
              "bands.solve", "hamiltonian.h", "hamiltonian.grad",
              "bands.select_pair", "gtensor.spin_g", "gtensor.momentum_table",
              "gtensor.g_tensor_set", "gtensor.align",
              "entanglement.pair_spin_densities", "entanglement.entropy")

    def __init__(self, seed, work_dir, samples=200, reference=None):
        super().__init__(seed, work_dir)
        self.samples = samples
        self.reference = reference
        self.rows_checked = np.unique(
            np.linspace(0, samples - 1, self.n_check_rows).round().astype(int))

    def job_seed(self, i) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def _argv(self, seed, out):
        return ["gline", "--material", "gaas", "--band", self.band,
                "--direction", "random", "--seed", str(seed),
                "--samples", str(self.samples), "--out", out]

    def setup(self):
        self._load()
        if self.reference is None:
            self.reference = load_reference(self.name)
        self.out = self._out("job")

    def _reference_rows(self, seed) -> tuple:
        output = self._run_cli(self._argv(seed, self._out("warmup")))
        return self._read_rows(seed, output)

    def warmup(self):
        seed = self.reference["direction_seed"]
        problems, got = self._reference_rows(seed)
        if problems:
            return problems
        want = {n: np.array(row, dtype=float)
                for n, row in self.reference["rows"]}
        if sorted(want) != self.rows_checked.tolist():
            return ["reference rows are not the sampled rows"]
        return [f"row {n} of direction seed {seed} differs from the reference"
                for n in self.rows_checked if not _same(got[n], want[n])]

    def job(self, i):
        return self._run_cli(self._argv(self.job_seed(i), self.out))

    def check(self, i, output):
        """Recompute a fixed sample of rows with the public point chain."""
        problems, got = self._read_rows(self.job_seed(i), output)
        if problems:
            return problems
        # at the row's own k: where the singular values of g_S are
        # nearly degenerate, the spin frame (hence which entropy is
        # xi's) changes with the last bit of k
        return [f"row {n} differs from the point chain"
                for n in self.rows_checked
                if not _same(got[n, 4:], self._row(got[n, 1:4]))]

    def _read_rows(self, seed, output) -> tuple:
        """(problems, rows as floats) of a g-line CSV for direction ``seed``."""
        _, header, rows = read_csv(output)
        if header != GLINE_COLUMNS:
            return [f"unexpected header {header!r}"], None
        if len(rows) != self.samples:
            return [f"{len(rows)} rows, expected {self.samples}"], None
        # --direction random: a normalized standard-normal draw
        v = np.random.default_rng(seed).normal(size=3)
        direction = v / np.linalg.norm(v)
        radii = np.linspace(0.0, boundary_radius(self.model.lattice_constant,
                                                 direction), self.samples)
        grid = np.column_stack([radii, radii[:, None] * direction])
        got = np.array([[float(x) for x in row] for row in rows])
        if not np.allclose(got[:, :4], grid, rtol=0.0, atol=1e-12):
            return ["r/k columns are not the seeded ray's grid"], got
        return [], got

    def _row(self, k) -> np.ndarray:
        try:
            sol = solve(self.model, k)
            pair = select_pair(self.model, sol, self.band)
            gset = g_tensor_set(self.model, sol, pair)
            aligned, _, _ = align_pair_to_spin_frame(pair)
        except (PairingAmbiguityError, NearDegenerateIntermediateError):
            return np.full(len(GLINE_COLUMNS) - 4, np.nan)
        dens = pair_spin_densities(aligned)
        return np.array([*gset.sigma_s, gset.det_g_s,
                         *gset.sigma_tot, gset.det_g_tot,
                         entropy(dens.rho_s), entropy(dens.rho_s_bar)])

    def make_reference(self) -> dict:
        """Sampled rows of the reference direction from a trusted run."""
        _, got = self._reference_rows(self.REFERENCE_SEED)
        return {"direction_seed": self.REFERENCE_SEED,
                "rows": [[int(n), [None if np.isnan(x) else float(x)
                                   for x in got[n]]]
                         for n in self.rows_checked]}


def _same(have, want) -> bool:
    """Equal within ROW_TOL, with the same NaN pattern."""
    return bool(np.array_equal(np.isnan(have), np.isnan(want))
                and np.allclose(have, want, rtol=0.0, atol=ROW_TOL,
                                equal_nan=True))


WORKLOADS = {w.name: w for w in (SurfaceWorkload, SigmaRayWorkload,
                                 GlineWorkload)}
