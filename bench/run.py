"""Closed-loop benchmark of the sagnac-parity toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client (this process) sends one job at
a time to one worker process (``worker.py``) with BLAS pinned to one thread,
checks every job's output, and prints a report followed, as the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs every job twice, untraced and then traced with spans
around every public function of the package, and reports the per-layer
metrics; the median ratio of each pair's times is the tracing overhead.
Workloads, their checks and why each was chosen are in ``workloads.py``;
metric definitions are in README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import LAYERS, TRACED
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COLD_STARTS = 5  # measured, after one warm-up
JOB_TIMEOUT_S = 120.0
P90_MIN_JOBS = 100  # so that at least ten samples lie beyond the 90th percentile

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "job_p10_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed and recorded, but not in the final JSON line.  This host's CPU
# alternates between a fast and a slow state for tens of seconds at a time,
# so a run's median and mean job time depend on the share of the run spent
# in each; the 10th percentile tracks the fast state and is the steady one.
# job_p90_s exists only with P90_MIN_JOBS jobs; failed_frac is 0 when all is well.
REPORT_ONLY = {
    "job_p50_s": ("s", "lower"),
    "job_p90_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "failed_frac": ("-", "lower"),
}

IMPORTED = (
    "sagnac_parity",
    "sagnac_parity.model",
    "sagnac_parity.detector",
    "sagnac_parity.metrics",
    "sagnac_parity.fit",
    "sagnac_parity.fock",
    "sagnac_parity.qfi",
    "sagnac_parity.cli",
    "scipy.stats",
    "scipy.optimize",
)


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit and direction."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.busy_s"] = ("s", "lower")
    for layer in LAYERS + ("bench",):
        units[f"{layer}.self_s"] = ("s", "lower")
        units[f"{layer}.share"] = ("fraction", "lower")
    units["qfi.busy_s"] = ("s", "lower")
    units["detector.readouts_per_s"] = ("1/s", "higher")
    units["detector.scan.job_frac"] = ("fraction", "lower")
    units["fit.nfev"] = ("count", "lower")
    units["fit.failed"] = ("count", "lower")
    units["fock.lattice_cells"] = ("count", "lower")
    units["cli.bytes_out"] = ("B", "lower")
    for module in IMPORTED:
        units[f"setup.import.{module}_s"] = ("s", "lower")
    units["trace.overhead_frac"] = ("fraction", "lower")
    units["trace.spans"] = ("count", "lower")
    units["trace.jobs"] = ("count", "higher")
    return units


def worker_env():
    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = str(SRC)
    # cold starts read the bytecode cache, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cold_start(env):
    """Seconds from launching a fresh interpreter until sagnac_parity.cli is imported."""
    code = "import sagnac_parity.cli, sys; sys.stdout.write('1'); sys.stdout.flush()"
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.read(1)
        elapsed = perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if ready != b"1" or proc.returncode != 0:
        raise RuntimeError("cold start did not import sagnac_parity.cli")
    return elapsed


def import_times(env):
    """Cumulative `-X importtime` seconds of each IMPORTED module, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sagnac_parity.cli"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return parse_importtime(proc.stderr)


def parse_importtime(text):
    """Map each IMPORTED module to its cumulative import seconds.

    The log lists modules children first, indented by depth.  A package whose
    own line is missing (scipy loads ``scipy.stats`` lazily, and then only its
    submodules are logged) counts as the sum of its outermost submodules.
    """
    nodes = []  # (depth, name, cumulative_us, parent)
    pending = []  # indices of lines still waiting for their parent
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        try:
            cum_us = int(cum)
        except ValueError:
            continue  # header line
        depth = len(name) - len(name.lstrip())
        i = len(nodes)
        nodes.append([depth, name.strip(), cum_us, -1])
        while pending and nodes[pending[-1]][0] > depth:
            nodes[pending.pop()][3] = i
        pending.append(i)

    def matches(name, target):
        return name == target or name.startswith(target + ".")

    out = {}
    for target in IMPORTED:
        total = 0
        for depth, name, cum_us, parent in nodes:
            if not matches(name, target):
                continue
            # skip if an ancestor also matches: its cumulative time holds this one
            p, inside = parent, False
            while p >= 0:
                if matches(nodes[p][1], target):
                    inside = True
                    break
                p = nodes[p][3]
            if not inside:
                total += cum_us
        out[f"setup.import.{target}_s"] = total / 1e6
    return out


class Worker:
    """The worker process and its line protocol."""

    def __init__(self, env, log_path):
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            env=env,
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        self.ready = self.request(None, timeout=60)

    def request(self, msg, timeout=JOB_TIMEOUT_S):
        if msg is not None:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        if not self.sel.select(timeout):
            raise TimeoutError(f"worker gave no answer within {timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait(timeout=10)}")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass
        self.sel.close()
        self.log.close()


class Run:
    """Closed loop over one workload: make a job, send it, time it, check it."""

    def __init__(self, name, seed, worker):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.worker = worker
        self.jobs = 0
        self.records = []  # one per job run: index, wall_s, traced, failures, hashes, bytes_out

    def job_dir(self, index):
        return OUT / "jobs" / f"{self.name}-{index}"

    def execute(self, index, traced, fresh=True):
        """Run job `index` once and check it; `fresh=False` reuses its directory."""
        job_dir = self.job_dir(index)
        if fresh:
            shutil.rmtree(job_dir, ignore_errors=True)
            job_dir.mkdir(parents=True)
        job = self.workload.make_job(self.seed, index, job_dir)
        msg = {"op": "job", "id": index, "traced": traced, "steps": job.steps}
        t0 = perf_counter()
        reply = self.worker.request(msg)
        wall = perf_counter() - t0
        if reply["ok"]:
            failures, hashes = self.workload.check(job, reply["outputs"], job_dir)
            written = sum(o.get("stdout_bytes", 0) for o in reply["outputs"])
            written += sum((job_dir / k).stat().st_size for k in hashes if (job_dir / k).is_file())
        else:
            failures, hashes, written = [f"job raised: {reply['error'].strip().splitlines()[-1]}"], {}, 0
        record = {"index": index, "wall_s": wall, "cpu_s": reply["cpu_s"], "traced": traced,
                  "failures": failures, "hashes": hashes, "bytes_out": written}
        self.records.append(record)
        return record

    def loop(self, seconds, traced):
        """Run jobs until `seconds` have passed.

        Job 0 runs twice, and with `traced` every job runs again traced.  A
        rerun uses the same directory and must write the same bytes.
        """
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            index = self.jobs
            self.jobs += 1
            first = self.execute(index, traced=False)
            if traced or index == 0:
                again = self.execute(index, traced=traced, fresh=False)
                again["rerun_matches"] = again["hashes"] == first["hashes"]
                if not again["rerun_matches"]:
                    again["failures"].append("rerun wrote different bytes than the first run")
            shutil.rmtree(self.job_dir(index), ignore_errors=True)


def tally(records):
    """(attempted, failed): a job fails when it raised, a CLI call exited non-zero or a check rejected it."""
    return len(records), sum(1 for r in records if r["failures"])


def summary(walls):
    out = {
        "jobs": len(walls),
        "job_p10_s": float(np.percentile(walls, 10)),
        "job_p50_s": statistics.median(walls),
        "jobs_per_s": len(walls) / math.fsum(walls),
    }
    if len(walls) >= P90_MIN_JOBS:
        out["job_p90_s"] = float(np.percentile(walls, 90))
    return out


def environment(ready, seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": ready["python"],
        "numpy": ready["numpy"],
        "scipy": ready["scipy"],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_pin": PIN,
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "sagnac_parity" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'sagnac_parity'}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    env = worker_env()
    cold_start(env)  # warm-up: the first start reads from a cold file cache
    setup = [cold_start(env) for _ in range(COLD_STARTS)]
    imports = import_times(env) if args.trace else {}

    worker = Worker(env, OUT / f"{tag}.worker.log")
    try:
        if Path(worker.ready["package"]) != SRC.resolve():
            raise RuntimeError(f"worker imported the package from {worker.ready['package']}, not {SRC}")
        run = Run(args.workload, args.seed, worker)
        run.loop(args.seconds, traced=bool(args.trace))
        spans = str(OUT / f"{tag}.spans.npz") if args.trace else None
        done = worker.request({"op": "finish", "spans": spans})
        worker.proc.wait(timeout=30)
    finally:
        worker.close()

    records = run.records
    attempted, failed = tally(records)
    correct = failed == 0
    reruns = [{"index": r["index"], "match": r["rerun_matches"]} for r in records if "rerun_matches" in r]
    untraced = summary([r["wall_s"] for r in records if not r["traced"]])
    report = {
        "setup_s": statistics.median(setup),
        "job_p10_s": untraced["job_p10_s"],
        "job_p50_s": untraced["job_p50_s"],
        "jobs_per_s": untraced["jobs_per_s"],
        "peak_rss_mb": done["maxrss_kb"] / 1024.0,
        "failed_frac": failed / attempted,
    }
    if "job_p90_s" in untraced:
        report["job_p90_s"] = untraced["job_p90_s"]

    if args.trace:
        layers = dict(done["layers"], **imports)
        walls = {(r["index"], r["traced"]): r["wall_s"] for r in records}
        ratios = [walls[i, True] / walls[i, False] for i, traced in walls if traced]
        layers["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        layers["cli.bytes_out"] = statistics.fmean(r["bytes_out"] for r in records if r["traced"])
        units = per_layer_units()
        metrics = {k: {"value": layers[k], "unit": units[k][0]} for k in units}
    else:
        layers = {}
        metrics = {k: {"value": report[k], "unit": END_TO_END[k][0]} for k in END_TO_END}

    result = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(worker.ready, args.seed),
        "samples": {
            "setup_cold_starts": len(setup),
            "jobs_untraced": untraced["jobs"],
            "jobs_traced": sum(1 for r in records if r["traced"]),
        },
        "setup_samples_s": setup,
        "end_to_end": report,
        "per_layer": layers,
        "reruns": reruns,
        "failures": [{"index": r["index"], "failures": r["failures"]} for r in records if r["failures"]],
        "jobs": [{k: r[k] for k in ("index", "traced", "wall_s", "cpu_s")} for r in records],
        "hashes": [{"index": r["index"], **r["hashes"]} for r in records],
    }
    (OUT / f"{tag}-seed{args.seed}.json").write_text(json.dumps(result, indent=1) + "\n")

    env_line = result["environment"]
    print(f"workload {args.workload} seed {args.seed}: {env_line['cpu']}, nproc {env_line['nproc']}, "
          f"python {env_line['python']}, numpy {env_line['numpy']}, scipy {env_line['scipy']}")
    print(f"setup_s is the median of {len(setup)} cold starts; job metrics from {untraced['jobs']} untraced jobs")
    for name, value in report.items():
        unit = {**END_TO_END, **REPORT_ONLY}[name][0]
        print(f"  {name:<14} {value:.6g} {unit}")
    if "job_p90_s" not in report:
        print(f"  job_p90_s      not reported: {untraced['jobs']} jobs < {P90_MIN_JOBS}")
    print(f"  {len(reruns)} reruns in the first run's directory; "
          f"{sum(not r['match'] for r in reruns)} wrote different bytes (sha256 of every table and artifact)")
    if args.trace:
        print(f"  per-layer metrics from {layers['trace.jobs']} traced reruns of the untraced jobs; "
              f"tracing overhead {layers['trace.overhead_frac']:+.3f}")
    for rec in result["failures"][:10]:
        print(f"  job {rec['index']} failed: {'; '.join(rec['failures'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
