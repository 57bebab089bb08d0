"""Benchmark worker: runs jobs against the package, one at a time.

Started by ``run.py`` with ``PYTHONPATH`` naming the checkout's ``src`` and
BLAS pinned to one thread.  It reads one JSON request per line on stdin and
answers one JSON line per request on its original stdout; anything the
package prints goes to a per-job buffer (CLI calls) or to stderr.

Requests:
  {"op": "job", "id": i, "traced": bool, "steps": [...]}   run the steps, answer their outputs
  {"op": "finish", "spans": path|null}    write spans and answer their summary, exit
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

import sagnac_parity
from sagnac_parity import cli, detector, fit, fock
from sagnac_parity.model import InterferometerSpec

from tracing import JOB_SPAN, Tracer, summarize


def step_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = out.getvalue()
    return {"exit": int(code), "stdout": text, "stdout_bytes": len(text.encode()), "stderr": err.getvalue()}


def step_simulate(ell, n, phi, units, kappa, dark_rate, seed, trials):
    spec = InterferometerSpec(ell=ell, mean_photons=n)
    model = detector.DetectorModel(units=units, kappa=kappa, dark_rate=dark_rate, seed=seed)
    run = detector.simulate(spec, phi, model, trials)
    return {
        "trials": run.trials,
        "parity_mean": run.parity_mean,
        "parity_stderr": run.parity_stderr,
        "empirical_dist": run.empirical_dist.tolist(),
    }


def step_fit(path, ell, dense_points):
    data = fit.load_fringe_data(path)
    result = fit.fit_fringe(data, ell, fit_floor=True)
    _, best = fit.min_sensitivity_from_fit(result)
    model = result.model
    dense = model.offset + np.linspace(0.0, model.period, dense_points, endpoint=False)
    sens = fit.sensitivity_from_fit(result, dense)
    finite = sens[np.isfinite(sens)]
    return {
        "decay": model.decay,
        "decay_stderr": result.param_stderr["decay"],
        "min_sensitivity": best,
        "dense_min": float(finite.min()) if finite.size else None,
    }


def step_fock(ell, n, eta, t_a, t_b, kappa, phis, tail_bound):
    """Parity sums on the Fock lattice for the light each curve variant sees."""
    spec = InterferometerSpec(ell=ell, mean_photons=n)
    trunc = fock.FockTruncation.for_mean_photons(n, tail_bound=tail_bound)
    out = {"ideal": [], "loss": [], "efficiency": [], "composed": []}
    for phi in phis:
        out["ideal"].append(fock.parity_sum(fock.joint_distribution(spec, phi, trunc)))
        for key, (ta, tb) in (
            ("loss", (t_a, t_b)),
            ("efficiency", (kappa, kappa)),
            ("composed", (kappa * t_a, kappa * t_b)),
        ):
            out[key].append(fock.parity_sum(fock.attenuated_joint_distribution(spec, phi, ta, tb, trunc)))
    return out


STEPS = {"cli": step_cli, "simulate": step_simulate, "fit": step_fit, "fock": step_fock}


def run_job(steps):
    return [STEPS[s["kind"]](**s["args"]) for s in steps]


def main():
    # answers go to the original stdout only; stray prints land on stderr
    answers = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    src = Path(sagnac_parity.__file__).resolve().parents[1]
    ready = {
        "ready": True,
        "package": str(src),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    answers.write(json.dumps(ready) + "\n")
    answers.flush()

    tracer = Tracer()
    tracer.install()
    job_span = tracer.wrap(JOB_SPAN, run_job)
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "job":
            t0, c0 = perf_counter(), process_time()
            try:
                if req["traced"]:
                    tracer.job_id = req["id"]
                    tracer.enable(True)
                    try:
                        outputs = job_span(req["steps"])
                    finally:
                        tracer.enable(False)
                else:
                    outputs = run_job(req["steps"])
                reply = {"id": req["id"], "ok": True, "outputs": outputs}
            except Exception:
                # a job that raises is a failed job, not a failed run
                reply = {"id": req["id"], "ok": False, "error": traceback.format_exc()}
            reply["worker_s"] = perf_counter() - t0
            reply["cpu_s"] = process_time() - c0
        elif op == "finish":
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if req["spans"]:
                tracer.write(req["spans"])
                reply["layers"] = summarize(tracer.names, tracer.arrays(), tracer.counters)
        else:
            raise ValueError(f"unknown request {op!r}")
        answers.write(json.dumps(reply) + "\n")
        answers.flush()
        if op == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
