"""gtensor-tb benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload si-so-surface --seed 1 --seconds 45 --trace 0

The load is a closed loop with one client: this process runs one job at
a time (``workers=1``) until ``--seconds`` have passed, checking every
job's output.  BLAS thread variables are recorded, never set.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace
1`` every other job is traced and the result holds the per-layer
metrics.  End-to-end times are rescaled to a reference host speed,
measured by a fixed loop timed between jobs (``HostSpeed``).  See
README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
N_PROBES = 7
# HostSpeed: loop iterations and the spacing of samples
SPEED_LOOP = 300_000
SPEED_EVERY_S = 1.0
# the loop's time on a quiet 2-vCPU Xeon (KVM) host, the speed that the
# end-to-end times are rescaled to
SPEED_REF_S = 0.026
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("si-so-surface", "si-fc-sigma-ray", "gaas-gline")

# per-layer metrics: span counts of the first traced job ...
COUNTED = ("hamiltonian.h", "hamiltonian.grad", "bands.solve",
           "bands.select_pair", "gtensor.spin_g", "gtensor.det_sign",
           "gtensor.momentum_table", "gtensor.g_tensor_set", "gtensor.align",
           "entanglement.entropy", "surface.scan_ray")
# ... and median self seconds per traced job
TIMED = ("hamiltonian.h", "hamiltonian.grad", "bands.solve",
         "bands.select_pair", "gtensor.spin_g", "gtensor.det_sign",
         "gtensor.momentum_table", "gtensor.g_tensor_set", "gtensor.align",
         "entanglement.pair_spin_densities", "entanglement.entropy",
         "surface.scan_ray", "surface.build_surface", "surface.export_cloud",
         "brillouin.wedge_directions", "tables.gline_rows", "cli.main")


def cpu_seconds() -> float:
    """CPU core-seconds of this process (all threads) and reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class HostSpeed:
    """The host's speed, from a fixed pure-Python loop timed between jobs.

    The shared host this benchmark is written for changes speed by up
    to 2x for minutes at a time, from other tenants' load, and the loop
    slows down with it.  The loop calls neither the package nor BLAS, so
    a change to the package does not change the loop's work.
    """

    def __init__(self):
        self.times = []
        self.last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(SPEED_LOOP):
            total += i * i % 7
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def between_jobs(self) -> None:
        """One sample per SPEED_EVERY_S that passed since the last one."""
        for _ in range(int((time.perf_counter() - self.last) / SPEED_EVERY_S)):
            self.sample()

    def median(self) -> float:
        return statistics.median(self.times)

    def scale(self) -> float:
        """Reference over median loop time: < 1 on a slow host."""
        return SPEED_REF_S / self.median()


def report(workload, what, problems) -> bool:
    """Print a job's problems on stderr; true when there are none."""
    for problem in problems:
        print(f"{workload.name} {what}: {problem}", file=sys.stderr)
    return not problems


def run_jobs(workload, seconds: float, host: HostSpeed,
             tracer=None) -> tuple:
    """Closed loop: run jobs one at a time until ``seconds`` have passed.

    With a tracer, even-numbered jobs are traced and odd ones are not,
    so the run also measures the tracing overhead; it then runs at
    least two jobs.  The host's speed is sampled before the first job
    and between jobs, outside the timed jobs.  Returns whether the
    untimed warm-up passed its check, and one record per timed job.
    """
    workload.setup()
    warmup_ok = report(workload, "warm-up", workload.warmup())
    host.sample()
    records = []
    min_jobs = 2 if tracer else 1
    t_stop = time.perf_counter() + seconds
    while len(records) < min_jobs or time.perf_counter() < t_stop:
        i = len(records)
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.job, tracer.recording = i, True
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            output = workload.job(i)
            problems = []
        except Exception as err:  # a failed job is counted, not fatal
            output, problems = None, [f"raised {type(err).__name__}: {err}"]
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if tracer is not None:
            tracer.recording = False
        if not problems:
            problems = workload.check(i, output)
        print(f"{workload.name} job {i}: {wall:.3f} s wall, {cpu:.3f} s cpu"
              f"{' traced' if traced else ''}", file=sys.stderr)
        records.append({"wall": wall, "cpu": cpu, "traced": traced,
                        "ok": report(workload, f"job {i}", problems),
                        "counters": ({} if output is None
                                     else workload.counters(output))})
        host.between_jobs()
    return warmup_ok, records


def check_layers(workload, records, tracer) -> None:
    """Fail each traced job that misses a layer the workload must run.

    A layer that is no longer where the tracer looks would otherwise
    read as 0 calls and 0 s, which looks like a gain.
    """
    jobs = tracer.per_job()
    for i, record in enumerate(records):
        if not record["traced"]:
            continue
        layers = jobs.get(i, {}).get("layers", {})
        calls = {name: layers.get(name, {}).get("calls", 0)
                 for name in workload.layers}
        problems = [f"traced no {name} call" for name, n in calls.items()
                    if n == 0]
        if calls["bands.solve"] != calls["hamiltonian.h"]:
            problems.append(f"{calls['bands.solve']} bands.solve calls but "
                            f"{calls['hamiltonian.h']} hamiltonian.h calls")
        record["ok"] = report(workload, f"job {i}", problems) and record["ok"]


def probe_setup(name: str) -> list:
    """Time fresh interpreters from spawn to the first job being ready."""
    probes = []
    for _ in range(N_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, str(BENCH / "probe.py"), name],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t0
        probes.append(result)
    return probes


def raw_times(records, probes) -> dict:
    """Median set-up, job wall and job CPU seconds as measured."""
    ok = [r for r in records if r["ok"]] or records
    return {"setup_s": statistics.median(p["setup_s"] for p in probes),
            "job_s": statistics.median(r["wall"] for r in ok),
            "cpu_s": statistics.median(r["cpu"] for r in ok)}


def end_to_end(records, probes, rss_mb, scale: float) -> dict:
    """Times rescaled to the reference host speed (``HostSpeed.scale``)."""
    raw = raw_times(records, probes)
    return {
        "setup_s": (raw["setup_s"] * scale, "s"),
        "job_s": (raw["job_s"] * scale, "s"),
        "cpu_s": (raw["cpu_s"] * scale, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(workload, records, probes, tracer) -> dict:
    import numpy as np
    empty = {"layers": {}, "root_s": 0.0, "scan_rays": []}
    jobs = tracer.per_job()
    traced = [i for i, r in enumerate(records) if r["traced"]]
    first = jobs.get(traced[0], empty)
    layers = first["layers"]
    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = (layers.get(name, {}).get("calls", 0), "count")
    metrics["bands.select_pair.failures"] = (
        layers.get("bands.select_pair", {}).get("failures", 0), "count")
    for name in TIMED:
        metrics[f"{name}.self_s"] = (statistics.median(
            jobs.get(i, empty)["layers"].get(name, {}).get("self_s", 0.0)
            for i in traced), "s")

    rays = first["scan_rays"]
    evals = sum(n for _, n in rays)
    coarse = len(rays) * workload.coarse_per_ray
    metrics["surface.evals_per_ray"] = (evals / len(rays) if rays else 0.0,
                                        "count")
    metrics["surface.refine_share"] = (
        (evals - coarse) / evals if evals else 0.0, "ratio")
    ray_s = [s for i in traced for s, _ in jobs.get(i, empty)["scan_rays"]]
    for q in (50, 90):
        metrics[f"surface.ray_s.p{q}"] = (
            float(np.percentile(ray_s, q)) if ray_s else 0.0, "s")
    metrics["surface.export_bytes"] = (
        records[traced[0]]["counters"].get("surface.export_bytes", 0), "bytes")

    metrics["setup.import_s"] = (
        statistics.median(p["import_s"] for p in probes), "s")
    metrics["materials.load_material.self_s"] = (
        statistics.median(p["load_s"] for p in probes), "s")

    traced_wall = statistics.median(records[i]["wall"] for i in traced)
    plain_wall = statistics.median(r["wall"] for r in records
                                   if not r["traced"])
    metrics["trace.unattributed_frac"] = (statistics.median(
        1.0 - jobs.get(i, empty)["root_s"] / records[i]["wall"]
        for i in traced), "ratio")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    metrics["trace.job_s"] = (traced_wall, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gtensor_tb" / "__init__.py").is_file():
        print(f"benchmark: no gtensor_tb package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    WORK.mkdir(exist_ok=True)
    host = HostSpeed()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, WORK)
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                warmup_ok, records = run_jobs(workload, args.seconds, host,
                                              tracer)
            check_layers(workload, records, tracer)
        else:
            tracer = None
            warmup_ok, records = run_jobs(workload, args.seconds, host)
        rss_mb = peak_rss_mb()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    probes = probe_setup(args.workload)

    if tracer is not None:
        metrics = per_layer(workload, records, probes, tracer)
    else:
        metrics = end_to_end(records, probes, rss_mb, host.scale())
    # the warm-up is an attempted job too: it is checked, not timed
    failed = sum(not r["ok"] for r in records) + (not warmup_ok)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "jobs": len(records),
                      "host_loop_s": host.median(),
                      "measured": raw_times(records, probes)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records) + 1,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
