"""In-memory layer spans, recorded by wrapping gtensor_tb functions.

The package's modules import each other's functions by name (``from
.bands import solve``), so a caller looks a function up in its *own*
module namespace at call time.  Each entry of :data:`TARGETS` names such
an attribute, e.g. ``gtensor_tb.surface.solve``, together with the layer
span it records.  :meth:`Tracer.installed` swaps a recording wrapper in
for every target and puts the original objects back on exit, even when
the body raises.  Nothing under ``src/`` is modified.

A span is (job, name, start, end, parent, failed).  Spans are kept in
memory while the run lasts and aggregated per job when it ends; a
layer's self time is its span duration minus the time covered by its
children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute the caller resolves, span name); the span name is
# "<package module>.<function>"
TARGETS = (
    ("gtensor_tb.cli", "main", "cli.main"),
    ("gtensor_tb.cli", "load_material", "materials.load_material"),
    ("gtensor_tb.cli", "wedge_directions", "brillouin.wedge_directions"),
    ("gtensor_tb.cli", "build_surface", "surface.build_surface"),
    ("gtensor_tb.cli", "export_cloud", "surface.export_cloud"),
    ("gtensor_tb.cli", "gline_rows", "tables.gline_rows"),
    ("gtensor_tb.surface", "scan_ray", "surface.scan_ray"),
    ("gtensor_tb.surface", "solve", "bands.solve"),
    ("gtensor_tb.tables", "solve", "bands.solve"),
    ("gtensor_tb.bands", "bloch_hamiltonian", "hamiltonian.h"),
    ("gtensor_tb.gtensor", "hamiltonian_gradient", "hamiltonian.grad"),
    ("gtensor_tb.surface", "select_pair", "bands.select_pair"),
    ("gtensor_tb.tables", "select_pair", "bands.select_pair"),
    ("gtensor_tb.surface", "spin_g", "gtensor.spin_g"),
    ("gtensor_tb.gtensor", "spin_g", "gtensor.spin_g"),
    ("gtensor_tb.surface", "det_sign", "gtensor.det_sign"),
    ("gtensor_tb.gtensor", "momentum_table", "gtensor.momentum_table"),
    ("gtensor_tb.surface", "g_tensor_set", "gtensor.g_tensor_set"),
    ("gtensor_tb.tables", "g_tensor_set", "gtensor.g_tensor_set"),
    ("gtensor_tb.tables", "align_pair_to_spin_frame", "gtensor.align"),
    ("gtensor_tb.tables", "pair_spin_densities",
     "entanglement.pair_spin_densities"),
    ("gtensor_tb.tables", "entropy", "entanglement.entropy"),
)


class Tracer:
    """Span recorder; records only while ``recording`` is true."""

    def __init__(self):
        self.recording = False
        self.job = -1
        self.names: list[str] = []
        self.jobs: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target; restore all of them on exit.

        A missing target raises AttributeError: a layer that is no longer
        where the tracer looks must fail the run, not read as 0 calls.
        """
        saved = []
        try:
            for module_name, attr, span in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.names)
            self.names.append(span)
            self.jobs.append(self.job)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.failed.append(False)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[index] = True
                raise
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def per_job(self):
        """Aggregate spans by job.

        Returns ``{job: {"layers": {name: {"calls", "self_s",
        "failures"}}, "root_s": float, "scan_rays": [(seconds,
        solves)]}}``.  ``root_s`` is the time covered by top-level spans;
        ``scan_rays`` has one entry per ``surface.scan_ray`` span with
        its duration and the ``bands.solve`` spans beneath it.
        """
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_s = dur - child

        # solves under each scan_ray: walk each solve span up its parents
        solves_under = defaultdict(int)
        for i, name in enumerate(self.names):
            if name != "bands.solve":
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != "surface.scan_ray":
                p = self.parents[p]
            if p >= 0:
                solves_under[p] += 1

        out = {}
        for i, name in enumerate(self.names):
            job = out.setdefault(self.jobs[i], {
                "layers": defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                               "failures": 0}),
                "root_s": 0.0, "scan_rays": []})
            layer = job["layers"][name]
            layer["calls"] += 1
            layer["self_s"] += float(self_s[i])
            layer["failures"] += int(self.failed[i])
            if self.parents[i] < 0:
                job["root_s"] += float(dur[i])
            if name == "surface.scan_ray":
                job["scan_rays"].append((float(dur[i]), solves_under[i]))
        return out
