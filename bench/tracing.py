"""Spans around the package's public functions, recorded from outside the package.

`Tracer.install` prepares a wrapper for each traced function in every
``sagnac_parity`` module namespace that holds it, so calls are seen where
callers look the name up (``cli`` calls ``scan`` and ``fit_fringe`` through
its own imported names, ``metrics`` calls ``parity_expectation`` through its
own); `Tracer.enable` swaps the wrappers in and out between jobs.  Nothing
in the package changes on disk.

A span is (name, start, end, parent span, job id, raised).  Spans live in
flat arrays while the run lasts and are written once, at the end.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import update_wrapper
from time import perf_counter

import numpy as np

# span name -> (module, attribute); the layer is the part before the first dot
TRACED = {
    "detector.simulate": ("sagnac_parity.detector", "simulate"),
    "detector.scan": ("sagnac_parity.detector", "scan"),
    "fit.fit_fringe": ("sagnac_parity.fit", "fit_fringe"),
    "fit.min_sensitivity_from_fit": ("sagnac_parity.fit", "min_sensitivity_from_fit"),
    "fit.sensitivity_from_fit": ("sagnac_parity.fit", "sensitivity_from_fit"),
    "fit.error_bars": ("sagnac_parity.fit", "error_bars"),
    "fit.load_fringe_data": ("sagnac_parity.fit", "load_fringe_data"),
    "metrics.min_sensitivity": ("sagnac_parity.metrics", "min_sensitivity"),
    "metrics.sensitivity": ("sagnac_parity.metrics", "sensitivity"),
    "metrics.parity_curve": ("sagnac_parity.metrics", "parity_curve"),
    "metrics.fwhm": ("sagnac_parity.metrics", "fwhm"),
    "metrics.visibility": ("sagnac_parity.metrics", "visibility"),
    "model.parity_expectation": ("sagnac_parity.model", "parity_expectation"),
    "model.parity_expectation_ideal": ("sagnac_parity.model", "parity_expectation_ideal"),
    "model.parity_expectation_prep": ("sagnac_parity.model", "parity_expectation_prep"),
    "model.parity_expectation_loss": ("sagnac_parity.model", "parity_expectation_loss"),
    "model.parity_expectation_efficiency": ("sagnac_parity.model", "parity_expectation_efficiency"),
    "model.parity_expectation_dark": ("sagnac_parity.model", "parity_expectation_dark"),
    "fock.joint_distribution": ("sagnac_parity.fock", "joint_distribution"),
    "fock.attenuated_joint_distribution": ("sagnac_parity.fock", "attenuated_joint_distribution"),
    "fock.parity_sum": ("sagnac_parity.fock", "parity_sum"),
    "fock.FockTruncation.for_mean_photons": ("sagnac_parity.fock", "FockTruncation.for_mean_photons"),
    "qfi.qfi_si": ("sagnac_parity.qfi", "qfi_si"),
    "qfi.qfi_mzi": ("sagnac_parity.qfi", "qfi_mzi"),
    "qfi.qfi_mzi_phase_averaged": ("sagnac_parity.qfi", "qfi_mzi_phase_averaged"),
    "qfi.crb_sensitivity": ("sagnac_parity.qfi", "crb_sensitivity"),
    "qfi.qfi_report": ("sagnac_parity.qfi", "qfi_report"),
    "cli.main": ("sagnac_parity.cli", "main"),
    "cli.run_experiment": ("sagnac_parity.cli", "run_experiment"),
}

# the worker's own code around each job; its self time is benchmark overhead
JOB_SPAN = "bench.job"

LAYERS = ("detector", "fit", "metrics", "model", "fock", "qfi", "cli")


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.names = [JOB_SPAN]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.raised = array("b")
        self.counters = Counter()
        self.job_id = -1
        self._stack = []
        self._swaps = []  # (namespace, name, original, wrapper)

    def open(self, name_id):
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i, raised=False):
        self.end[i] = perf_counter()
        self._stack.pop()
        if raised:
            self.raised[i] = 1

    def wrap(self, name, fn, after=None):
        """Wrapper of `fn` recording one span per call; `after(tracer, result)` adds counts."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            i = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(i, raised=True)
                raise
            self.close(i)
            if after is not None:
                after(self, result)
            return result

        return update_wrapper(traced, fn)

    def install(self):
        """Wrap every TRACED function in each namespace that holds it; start disabled."""
        modules = [m for n, m in list(sys.modules.items()) if n == "sagnac_parity" or n.startswith("sagnac_parity.")]
        for name, (module, attr) in TRACED.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self.wrap(name, original.__func__))
                self._swaps.append((cls, meth, original, wrapped))
                continue
            original = getattr(owner, attr)
            self._hold(modules, original, self.wrap(name, original, _AFTER.get(name)))
        # the solver is not a layer of its own: count its evaluations only
        solver = sys.modules["sagnac_parity.fit"].least_squares

        def counted(*args, **kwargs):
            result = solver(*args, **kwargs)
            self.counters["fit.least_squares.calls"] += 1
            self.counters["fit.nfev"] += int(result.nfev)
            return result

        self._hold(modules, solver, update_wrapper(counted, solver))

    def _hold(self, modules, original, wrapped):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._swaps.append((module, key, original, wrapped))

    def enable(self, on):
        """Put the wrappers in place (on) or the original functions back (off)."""
        for owner, key, original, wrapped in self._swaps:
            setattr(owner, key, wrapped if on else original)

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _count_trials(tracer, run):
    tracer.counters["detector.trials"] += int(run.trials)


def _count_cells(tracer, dist):
    tracer.counters["fock.lattice_cells"] += int(dist.probs.size)


_AFTER = {
    "detector.simulate": _count_trials,
    "fock.joint_distribution": _count_cells,
    "fock.attenuated_joint_distribution": _count_cells,
}


def summarize(names, spans, counters):
    """Per-job calls and busy time of each function, per-layer self time and shares.

    ``busy_s`` of a function or layer sums the spans not nested directly in
    a span of the same function or layer; no traced function recurses, so
    that is every outermost one.  Self time is a span's duration minus its
    children's.  Calls, times and counts are per traced job;
    ``<layer>.share`` is layer self time over job time, and ``fit.failed``
    is the number of fits that raised.
    """
    name_id = spans["name_id"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    parent_name = np.where(has_parent, name_id[np.where(has_parent, parent, 0)], -1)
    layer_of = np.array([nm.split(".")[0] for nm in names])
    span_layer = layer_of[name_id]
    parent_layer = np.where(has_parent, layer_of[np.maximum(parent_name, 0)], "")

    jobs = int((name_id == 0).sum())
    job_time = float(dur[name_id == 0].sum())
    per_job = 1.0 / jobs if jobs else 0.0
    busy = {nm: float(dur[(name_id == k) & (parent_name != k)].sum()) for k, nm in enumerate(names)}
    out = {}
    for k, nm in enumerate(names[1:], start=1):
        out[f"{nm}.calls"] = int((name_id == k).sum()) * per_job
        out[f"{nm}.busy_s"] = busy[nm] * per_job
    for layer in LAYERS + ("bench",):
        mine = span_layer == layer
        self_s = float(self_time[mine].sum())
        out[f"{layer}.busy_s"] = float(dur[mine & (parent_layer != layer)].sum()) * per_job
        out[f"{layer}.self_s"] = self_s * per_job
        out[f"{layer}.share"] = self_s / job_time if job_time > 0 else 0.0

    fits = counters.get("fit.least_squares.calls", 0)
    out["fit.nfev"] = counters.get("fit.nfev", 0) / fits if fits else 0.0
    out["fit.failed"] = int(spans["raised"][name_id == names.index("fit.fit_fringe")].sum())
    sim = busy["detector.simulate"]
    out["detector.readouts_per_s"] = counters.get("detector.trials", 0) / sim if sim > 0 else 0.0
    out["detector.scan.job_frac"] = busy["detector.scan"] / job_time if job_time > 0 else 0.0
    out["fock.lattice_cells"] = counters.get("fock.lattice_cells", 0) * per_job
    out["trace.spans"] = dur.size * per_job
    out["trace.jobs"] = jobs
    return out
