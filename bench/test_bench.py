"""Tests of the benchmark itself: tiny workloads, output checks, tracing.

    python3 -m pytest bench -q
"""
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAKE_PROBES = [{"setup_s": 1.0, "import_s": 0.8, "load_s": 0.01}]
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name, work):
    """A workload at a tiny size, with a reference made from its own run."""
    if name == "gaas-gline":
        wl = workloads.GlineWorkload(3, work, samples=12, reference={})
    elif name == "si-so-surface":
        wl = workloads.SurfaceWorkload(0, work, level=1, n_coarse=40,
                                       reference={})
    else:
        wl = workloads.SigmaRayWorkload(0, work, n_coarse=300, reference={})
    wl.setup()
    wl.reference = wl.make_reference()
    return wl


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_runs_traced_and_checks(name, tmp_path):
    wl = tiny(name, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        warmup_ok, records = run.run_jobs(wl, 0.0, run.HostSpeed(), tracer)
    run.check_layers(wl, records, tracer)
    assert warmup_ok
    assert len(records) == 2 and all(r["ok"] for r in records)
    assert [r["traced"] for r in records] == [True, False]
    layer_metrics = run.per_layer(wl, records, FAKE_PROBES, tracer)
    assert ({(m["name"], m["unit"]) for m in DECLARED["per_layer"]}
            == {(name, unit) for name, (_, unit) in layer_metrics.items()})
    e2e = run.end_to_end(records, FAKE_PROBES, 100.0, 1.0)
    assert ({(m["name"], m["unit"]) for m in DECLARED["end_to_end"]}
            == {(name, unit) for name, (_, unit) in e2e.items()})
    metrics = {k: v for k, (v, _) in layer_metrics.items()}
    assert metrics["bands.solve.calls"] == metrics["hamiltonian.h.calls"] > 0
    if name == "gaas-gline":
        assert metrics["bands.solve.calls"] == wl.samples
        assert metrics["gtensor.momentum_table.calls"] == wl.samples
    else:
        assert metrics["hamiltonian.grad.calls"] == 0
        assert metrics["gtensor.momentum_table.calls"] == 0
        assert metrics["surface.evals_per_ray"] >= wl.coarse_per_ray
    assert 0.0 <= metrics["trace.unattributed_frac"] < 0.05


def test_end_to_end_times_are_rescaled_by_host_speed():
    records = [{"wall": w, "cpu": 2 * w, "ok": True} for w in (2.0, 4.0, 3.0)]
    probes = [{"setup_s": s} for s in (0.8, 1.2, 1.0)]
    e2e = run.end_to_end(records, probes, 100.0, 0.5)
    assert e2e["job_s"] == (1.5, "s")
    assert e2e["cpu_s"] == (3.0, "s")
    assert e2e["setup_s"] == (0.5, "s")
    assert e2e["peak_rss_mb"] == (100.0, "MB")


def test_host_speed_scale_is_reference_over_median_probe_time():
    host = run.HostSpeed()
    host.times = [run.SPEED_REF_S * f for f in (3.0, 2.0, 0.5)]
    assert host.scale() == pytest.approx(0.5)
    host.sample()
    assert len(host.times) == 4 and host.times[-1] > 0.0


@pytest.fixture(scope="module")
def surface_csv(tmp_path_factory):
    """One full-size si-so-surface job (a few seconds)."""
    wl = workloads.SurfaceWorkload(0, tmp_path_factory.mktemp("surface"))
    wl.setup()
    return wl, Path(wl.job(0))


def test_surface_check_accepts_this_commit(surface_csv):
    wl, path = surface_csv
    assert wl.check(0, path) == []


def test_surface_check_rejects_shifted_radius(surface_csv):
    wl, path = surface_csv
    reference = json.loads(json.dumps(wl.reference))
    reference["rays"][7]["radii"][0] += 3 * workloads.RADIUS_TOL
    problems = workloads.check_cloud(path, reference)
    assert problems and "ray 7" in problems[0]


def test_surface_check_rejects_extra_crossing(surface_csv):
    wl, path = surface_csv
    reference = json.loads(json.dumps(wl.reference))
    reference["rays"][3]["radii"].append(0.05)
    assert workloads.check_cloud(path, reference)


def test_surface_check_rejects_dropped_orbit_image(surface_csv, tmp_path):
    wl, path = surface_csv
    lines = path.read_text().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.endswith(",29,0,gs,1\n"))
    dropped = tmp_path / "dropped.csv"
    dropped.write_text("".join(lines[:last] + lines[last + 1:]))
    problems = wl.check(0, dropped)
    assert any("ray 29 crossing 0" in p for p in problems)


def test_surface_check_rejects_moved_orbit_image(surface_csv, tmp_path):
    wl, path = surface_csv
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if ",12,0,gs," in line)
    x, y, z, rest = lines[i].split(",", 3)
    lines[i] = ",".join([y, x, z, rest]) if x != y else ",".join([z, y, x, rest])
    moved = tmp_path / "moved.csv"
    moved.write_text("".join(lines))
    assert wl.check(0, moved)


def test_sigma_check_rejects_perturbed_crossings():
    wl = workloads.SigmaRayWorkload(0, None)
    wl.reference = workloads.load_reference(wl.name)
    radii = list(wl.reference["radii"])
    assert len(radii) == 3
    assert wl.check(0, radii) == []
    assert wl.check(0, radii[:2])
    shifted = radii[:2] + [radii[2] + 3 * workloads.RADIUS_TOL]
    assert wl.check(0, shifted)


def test_check_layers_fails_a_job_that_misses_a_layer(tmp_path):
    wl = tiny("si-fc-sigma-ray", tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, records = run.run_jobs(wl, 0.0, run.HostSpeed(), tracer)
    wl.layers += ("tables.gline_rows",)
    run.check_layers(wl, records, tracer)
    assert [r["ok"] for r in records] == [False, True]


def test_tracer_raises_on_a_missing_target(monkeypatch):
    solve = workloads.gtensor_tb.surface.solve
    monkeypatch.setattr(tracing, "TARGETS", (
        ("gtensor_tb.surface", "solve", "bands.solve"),
        ("gtensor_tb.surface", "no_such_function", "surface.gone")))
    with pytest.raises(AttributeError):
        with tracing.Tracer().installed():
            pass
    assert workloads.gtensor_tb.surface.solve is solve


def test_gline_warmup_matches_committed_rows(tmp_path):
    wl = workloads.GlineWorkload(1, tmp_path)
    wl.setup()
    assert wl.warmup() == []
    seed = wl.reference["direction_seed"]
    wl.reference["rows"][3][1][7] += 1e-6
    assert wl.warmup() == [f"row 75 of direction seed {seed} differs from "
                           "the reference"]


def test_gline_check_rejects_perturbed_row(tmp_path):
    wl = tiny("gaas-gline", tmp_path)
    path = Path(wl.job(0))
    assert wl.check(0, path) == []
    lines = path.read_text().splitlines(keepends=True)
    first_row = next(i for i, line in enumerate(lines)
                     if line[0].isdigit())
    cells = lines[first_row].rstrip("\n").split(",")
    for value in (float(cells[7]) + 1e-6, float("nan")):
        bad = list(cells)
        bad[7] = repr(value)
        lines_bad = list(lines)
        lines_bad[first_row] = ",".join(bad) + "\n"
        path.write_text("".join(lines_bad))
        assert wl.check(0, path) == ["row 0 differs from the point chain"]


def test_tracer_restores_every_wrapped_attribute():
    originals = {}
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        originals[(module_name, attr)] = getattr(module, attr)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for (module_name, attr), fn in originals.items():
                wrapped = getattr(importlib.import_module(module_name), attr)
                assert wrapped is not fn and wrapped.__wrapped__ is fn
            raise RuntimeError("job failed")
    for (module_name, attr), fn in originals.items():
        assert getattr(importlib.import_module(module_name), attr) is fn


def test_self_time_subtracts_child_spans(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: clock[0])
    tracer = tracing.Tracer()

    def inner():
        clock[0] += 2.0

    def outer():
        clock[0] += 1.0
        traced_inner()
        clock[0] += 0.5

    traced_inner = tracer._wrap(inner, "inner")
    traced_outer = tracer._wrap(outer, "outer")
    tracer.job, tracer.recording = 0, True
    traced_outer()
    job = tracer.per_job()[0]
    assert job["layers"]["outer"]["self_s"] == 1.5
    assert job["layers"]["inner"]["self_s"] == 2.0
    assert job["root_s"] == 3.5


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "gaas-gline", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_signed_permutations_form_oh():
    ops = workloads.signed_permutations()
    assert len(ops) == 48
    assert len({op.tobytes() for op in ops}) == 48
    assert np.allclose(np.einsum("nij,nkj->nik", ops, ops), np.eye(3))
