"""Tests of the benchmark's own checks: each must reject a deliberately wrong output.

    python3 -m pytest -q bench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent


def _record(failures):
    return {"failures": failures}


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """A real experiment at the default configuration, run once and shared."""
    job_dir = tmp_path_factory.mktemp("experiment")
    job = workloads.make_experiment(7, 0, job_dir)
    return job, worker.run_job(job.steps), job_dir


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    job_dir = tmp_path_factory.mktemp("analysis")
    job = workloads.make_analysis(7, 0, job_dir)
    return job, worker.run_job(job.steps), job_dir


@pytest.fixture(scope="module")
def bright():
    job = workloads.make_bright(7, 0, None)
    return job, worker.run_job(job.steps)


def test_histogram_check_accepts_the_simulator_at_every_angle(bright):
    job, outputs = bright
    fails, hashes = workloads.check_bright(job, outputs, None)
    assert fails == []
    assert list(hashes) == ["empirical_dist"]


def test_histogram_check_rejects_a_histogram_drawn_at_the_wrong_p(bright):
    job, _ = bright
    args = job.steps[2]["args"]
    p = workloads.click_probability(args["ell"], args["n"], args["phi"], args["units"], args["kappa"], args["dark_rate"])
    rng = np.random.default_rng(3)
    for wrong_p, should_pass in ((p, True), (p * 1.03, False), (p * 0.97, False)):
        counts = rng.binomial(args["units"], wrong_p, size=args["trials"])
        dist = np.bincount(counts) / args["trials"]
        parity = float(np.mean(1.0 - 2.0 * (counts & 1)))
        fails = workloads.check_histogram(dist, parity, args)
        assert (fails == []) == should_pass, (wrong_p, fails)


def test_histogram_check_rejects_the_simulator_at_another_angle(bright):
    # in bright light the parity is ~0 at every angle, so compare dim ones
    job, outputs = bright
    fails = workloads.check_histogram(outputs[0]["empirical_dist"], outputs[0]["parity_mean"], job.steps[1]["args"])
    assert any("credibility" in f for f in fails)
    assert any("parity mean" in f for f in fails)


def test_analysis_check_accepts_the_program_output(analysis):
    job, outputs, job_dir = analysis
    fails, hashes = workloads.check_analysis(job, outputs, job_dir)
    assert fails == []
    assert sorted(hashes) == ["curve.csv", "qfi.json", "sensitivity.csv", "summary.csv"]


def test_analysis_check_rejects_a_perturbed_curve_column(analysis, tmp_path):
    job, outputs, job_dir = analysis
    for path in job_dir.iterdir():
        shutil.copy(path, tmp_path / path.name)
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    row = job.context["rows"][3] + 1  # +1 for the header
    cells = lines[row].split(",")
    cells[5] = repr(float(cells[5]) + 1e-9)  # the `dark` column
    lines[row] = ",".join(cells)
    (tmp_path / "curve.csv").write_text("\n".join(lines) + "\n")
    fails, _ = workloads.check_analysis(job, outputs, tmp_path)
    assert len(fails) == 1 and "curve dark" in fails[0]


def test_analysis_check_rejects_a_wrong_fit_and_qfi(analysis, tmp_path):
    job, outputs, job_dir = analysis
    for path in job_dir.iterdir():
        shutil.copy(path, tmp_path / path.name)
    doc = json.loads((tmp_path / "qfi.json").read_text())
    doc["rows"][0][doc["columns"].index("f_si")] *= 1.0 + 1e-15
    (tmp_path / "qfi.json").write_text(json.dumps(doc))
    wrong = [dict(o) for o in outputs]
    wrong[4]["decay"] = job.context["decay"] + 6.0 * wrong[4]["decay_stderr"]
    fails, _ = workloads.check_analysis(job, wrong, tmp_path)
    assert any(f.startswith("f_si") for f in fails)
    assert any(f.startswith("fit 0: decay") for f in fails)


def test_analysis_check_counts_a_failed_cli_call(analysis):
    job, outputs, job_dir = analysis
    wrong = [dict(o) for o in outputs]
    wrong[1].update(exit=2, stderr='{"error": "boom"}')
    fails, _ = workloads.check_analysis(job, wrong, job_dir)
    assert fails == ['cli metrics exited 2: {"error": "boom"}']


def test_failed_frac_counts_every_rejection(experiment, analysis, bright):
    exp_job, exp_out, exp_dir = experiment
    ana_job, ana_out, ana_dir = analysis
    bright_job, bright_out = bright
    records = [
        _record(workloads.check_experiment(exp_job, exp_out, exp_dir)[0]),
        _record(workloads.check_analysis(ana_job, ana_out, ana_dir)[0]),
        _record(workloads.check_bright(bright_job, bright_out[1:] + bright_out[:1], None)[0]),
        _record(["job raised: ValueError"]),
    ]
    assert run.tally(records) == (4, 2)


def test_summarize_splits_self_time_by_layer():
    names = [tracing.JOB_SPAN, "cli.main", "detector.scan", "detector.simulate"]
    spans = {
        "name_id": np.array([0, 1, 2, 3, 3]),
        "start": np.array([0.0, 0.5, 1.0, 1.0, 2.0]),
        "end": np.array([10.0, 9.5, 9.0, 2.0, 3.0]),
        "parent": np.array([-1, 0, 1, 2, 2]),
        "raised": np.zeros(5, dtype=np.int8),
    }
    names += [n for n in tracing.TRACED if n not in names]
    out = tracing.summarize(names, spans, {"detector.trials": 400})
    assert out["detector.simulate.calls"] == 2
    assert out["detector.simulate.busy_s"] == 2.0
    assert out["detector.busy_s"] == 8.0
    assert out["detector.self_s"] == 8.0
    assert out["cli.self_s"] == 1.0
    assert out["bench.self_s"] == 1.0
    assert out["detector.share"] == 0.8
    assert out["detector.readouts_per_s"] == 200.0
    assert out["fit.fit_fringe.calls"] == 0


def test_parse_importtime_sums_a_package_whose_own_line_is_missing():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       10 |         10 |       scipy.stats._a",
            "import time:        5 |          5 |         scipy.stats._c",
            "import time:       20 |         30 |       scipy.stats._b",
            "import time:      100 |        145 |     sagnac_parity.fock",
            "import time:        1 |        146 |   sagnac_parity",
        ]
    )
    out = run.parse_importtime(log)
    assert out["setup.import.sagnac_parity.fock_s"] == 145e-6
    assert out["setup.import.sagnac_parity_s"] == 146e-6
    assert out["setup.import.scipy.stats_s"] == pytest.approx(40e-6)
    assert out["setup.import.scipy.optimize_s"] == 0.0


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (k, u, b) for k, (u, b) in run.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (k, u, b) for k, (u, b) in run.per_layer_units().items()
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {k: w.why for k, w in workloads.WORKLOADS.items()}


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analysis", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "bench" / "out").exists()


def test_job_inputs_depend_only_on_seed_and_index(tmp_path):
    dirs = [tmp_path / name for name in "abc"]
    for d in dirs:
        d.mkdir()
    a = workloads.make_analysis(5, 3, dirs[0])
    b = workloads.make_analysis(5, 3, dirs[1])
    c = workloads.make_analysis(6, 3, dirs[2])
    assert a.context == b.context != c.context
    assert (dirs[0] / "fringe_0.csv").read_bytes() == (dirs[1] / "fringe_0.csv").read_bytes()
