import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sagnac_parity
from sagnac_parity import (
    FringeModel,
    ImperfectionProfile,
    InterferometerSpec,
    fringe_figures,
    load_fringe_data,
    min_sensitivity,
    parity_expectation,
    parity_expectation_dark,
    parity_expectation_efficiency,
    parity_expectation_ideal,
    parity_expectation_loss,
    parity_expectation_prep,
)
from sagnac_parity.cli import main
from sagnac_parity.experiment import _write_csv


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _table(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


_EVERY_FLAG = ["--eta", "0.9", "--t-a", "0.9", "--t-b", "0.6", "--kappa", "0.8", "--dark-rate", "0.05",
               "--jitter-factor", "1.5"]
# the single-family function each curve variant's column must equal bit for bit
_SINGLE_FAMILY = {
    "ideal": parity_expectation_ideal,
    "prep": lambda spec, grid: parity_expectation_prep(spec, grid, 0.9),
    "loss": lambda spec, grid: parity_expectation_loss(spec, grid, 0.9, 0.6),
    "efficiency": lambda spec, grid: parity_expectation_efficiency(spec, grid, 0.8),
    "dark": lambda spec, grid: parity_expectation_dark(spec, grid, 0.05, 1.5),
    "composed": lambda spec, grid: parity_expectation(
        spec, grid, ImperfectionProfile(eta=0.9, t_a=0.9, t_b=0.6, kappa=0.8, dark_rate=0.05, jitter_factor=1.5)
    ),
}


@pytest.mark.parametrize("variant", list(_SINGLE_FAMILY))
def test_curve_tabulates_each_variant(capsys, variant):
    rc, out, err = _run(
        ["curve", "--ell", "2", "--n", "3", *_EVERY_FLAG, "--variants", variant, "--points", "9"], capsys
    )
    assert rc == 0 and err == ""
    header, rows = _table(out)
    assert header == ["phi_rad", variant]
    spec = InterferometerSpec(ell=2, mean_photons=3.0)
    grid = np.linspace(0.0, spec.fringe_period, 9)
    got_phi = np.array([float(r[0]) for r in rows])
    got_val = np.array([float(r[1]) for r in rows])
    np.testing.assert_array_equal(got_phi, grid)
    np.testing.assert_array_equal(got_val, _SINGLE_FAMILY[variant](spec, grid))


def test_balanced_loss_and_efficiency_flags_emit_identical_tables(capsys):
    common = ["curve", "--ell", "1", "--n", "5", "--variants", "composed", "--points", "33"]
    rc1, out1, _ = _run(common + ["--t-a", "0.7", "--t-b", "0.7"], capsys)
    rc2, out2, _ = _run(common + ["--kappa", "0.7"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_unknown_variant_fails_with_json_diagnostic(capsys):
    rc, out, err = _run(["curve", "--ell", "1", "--n", "2", "--variants", "bogus"], capsys)
    assert rc == 2
    assert "bogus" in json.loads(err)["error"]


def test_metrics_summary_row(capsys):
    rc, out, err = _run(["metrics", "--ell", "3", "--n", "10"], capsys)
    assert rc == 0
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    assert int(row["ell"]) == 3
    assert float(row["n"]) == 10.0
    assert float(row["fwhm_rad"]) == pytest.approx(0.06241913599901954, abs=1e-6)
    assert float(row["visibility"]) == pytest.approx(1.0, abs=1e-8)
    assert float(row["super_resolution_factor"]) == pytest.approx(
        math.pi / float(row["fwhm_rad"]), rel=1e-12
    )
    assert float(row["min_sensitivity_rad"]) == pytest.approx(0.026352313834736494, rel=1e-9)


def test_metrics_sweep_rows_sharpen_with_photon_number(capsys):
    rc, out, err = _run(["metrics", "--ell", "1", "--n-sweep", "1", "5", "5"], capsys)
    assert rc == 0
    header, rows = _table(out)
    ns = [float(dict(zip(header, r))["n"]) for r in rows]
    widths = [float(dict(zip(header, r))["fwhm_rad"]) for r in rows]
    assert ns == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_sensitivity_table_marks_stationary_points(capsys):
    # nine points over [0, 2 period] put every even row on an extremum,
    # k * period/2, including phi = period and phi = 2 period
    args = [
        "metrics", "--table", "sensitivity", "--ell", "1", "--n", "2",
        "--points", "9", "--phi-max", repr(math.pi),
    ]
    all_families = [
        "--eta", "0.8", "--t-a", "0.9", "--t-b", "0.6", "--kappa", "0.7",
        "--dark-rate", "0.05", "--jitter-factor", "2",
    ]
    for profile in ([], all_families):
        rc, out, err = _run(args + profile, capsys)
        assert rc == 0
        header, rows = _table(out)
        assert header == ["phi_rad", "sensitivity_rad"]
        assert float(rows[4][0]) == math.pi / 2 and float(rows[8][0]) == math.pi
        assert [r[1] for r in rows[::2]] == ["inf"] * 5
        assert all(float(r[1]) > 0.0 for r in rows[1::2])

        rc, out, err = _run(args + profile + ["--format", "json"], capsys)
        doc = json.loads(out)
        assert [r[1] for r in doc["rows"][::2]] == [None] * 5
        assert all(r[1] is not None for r in doc["rows"][1::2])


def test_shallow_fringe_summary_reports_nan_width(capsys):
    # decay 2N = 0.4 < ln 2: the fringe never falls to its half level
    rc, out, err = _run(["metrics", "--ell", "1", "--n", "0.2"], capsys)
    assert rc == 0 and err == ""
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    assert row["fwhm_rad"] == "nan"
    assert row["super_resolution_factor"] == "nan"
    assert 0.0 < float(row["visibility"]) < 1.0
    assert math.isfinite(float(row["min_sensitivity_rad"]))

    rc, out, err = _run(["metrics", "--ell", "1", "--n", "0.2", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["fwhm_rad"] is None and row["super_resolution_factor"] is None


@pytest.mark.filterwarnings("error")
def test_fringe_that_underflows_at_its_trough_has_a_summary(capsys):
    rc, out, err = _run(["metrics", "--ell", "1", "--n", "400"], capsys)
    assert rc == 0 and err == ""
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    assert float(row["visibility"]) == 1.0
    assert math.isfinite(float(row["fwhm_rad"]))
    # 50-digit mpmath asin(sqrt(ln 2 / 800))
    assert float(row["fwhm_rad"]) == pytest.approx(0.029439502837899407, rel=1e-15)


def test_metrics_summary_reads_the_closed_forms(capsys):
    # zero headroom: the infimum 1/(4 ell sqrt(N)) sits at the peak itself
    rc, out, err = _run(["metrics", "--ell", "1", "--n", "9"], capsys)
    assert rc == 0 and err == ""
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    assert row["min_sensitivity_phi_rad"] == "0.0"
    assert float(row["min_sensitivity_rad"]) == 1.0 / 12.0
    # a subnormal amplitude e^-740 times exp(-4 sin^2 2phi): visibility tanh 2
    rc, out, err = _run(["metrics", "--ell", "1", "--n", "2", "--dark-rate", "370"], capsys)
    assert rc == 0 and err == ""
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    assert float(row["visibility"]) == pytest.approx(0.96402758007581688, rel=1e-15)


@pytest.mark.parametrize("n", ["1", "0.2"])
def test_metrics_summary_of_a_subnormal_floor_product(capsys, n):
    # eta = 5e-324 leaves no headroom, and a b / 2 underflows: the floor at
    # the peak is still the finite 1/(4 ell sqrt(a b / 2)), about 1e161
    rc, out, err = _run(["metrics", "--ell", "1", "--n", n, "--eta", "5e-324"], capsys)
    assert rc == 0 and err == ""
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    model = ImperfectionProfile(eta=5e-324).fringe(InterferometerSpec(ell=1, mean_photons=float(n)))
    assert (float(row["min_sensitivity_phi_rad"]), float(row["min_sensitivity_rad"])) == min_sensitivity(model)
    assert 1e160 < float(row["min_sensitivity_rad"]) < 1e162


def test_fringe_that_is_zero_everywhere_is_a_json_error(capsys):
    rc, out, err = _run(["metrics", "--ell", "1", "--n", "2", "--dark-rate", "400"], capsys)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "amplitude and floor are zero everywhere; there is no fringe"


def test_qfi_row(capsys):
    rc, out, err = _run(["qfi", "--ell", "1", "--n", "1"], capsys)
    assert rc == 0
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    assert float(row["f_si"]) == 16.0
    assert float(row["f_mzi"]) == 8.0
    assert float(row["f_phase_avg"]) == pytest.approx(4.0, abs=1e-9)
    assert float(row["bound_si"]) == 0.25
    assert float(row["bound_mzi"]) == pytest.approx(0.35355339059327373, rel=1e-15)
    assert float(row["bound_phase_avg"]) == pytest.approx(0.5, abs=1e-9)
    assert int(row["trials"]) == 1


def test_qfi_row_past_the_fock_lattice(capsys):
    # every column is a closed form, so no photon-number cutoff limits N
    rc, out, err = _run(["qfi", "--ell", "1", "--n", "300"], capsys)
    assert rc == 0 and err == ""
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    assert float(row["f_phase_avg"]) == 1200.0
    assert float(row["bound_phase_avg"]) == 1.0 / math.sqrt(1200.0)
    rc, out, err = _run(["qfi", "--ell", "1", "--n", "1e307"], capsys)
    assert rc == 0 and all(math.isfinite(float(v)) for v in _table(out)[1][0])
    rc, out, err = _run(["qfi", "--ell", "1", "--n", "1e308"], capsys)
    assert rc == 2 and out == ""
    assert err.splitlines() == ['{"error": "Fisher information must be finite, got inf"}']


def test_qfi_row_where_ell_squared_overflows(capsys):
    # 16 ell^2 N read inf at ell = 2^600, and the bound refused it; ell N ell is 2^1200 1e-300
    rc, out, err = _run(["qfi", "--ell", str(2**600), "--n", "1e-300"], capsys)
    assert rc == 0 and err == ""
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    assert float(row["f_si"]) == math.ldexp(1e-300, 1204) == pytest.approx(2.755e62, rel=1e-3)
    assert float(row["bound_si"]) == 1.0 / math.sqrt(float(row["f_si"]))


def test_qfi_bound_scales_with_repetitions(capsys):
    rc, out, err = _run(["qfi", "--ell", "1", "--n", "1", "--trials", "4"], capsys)
    header, rows = _table(out)
    row = dict(zip(header, rows[0]))
    assert float(row["bound_si"]) == 0.125


def test_degrees_flag_converts_input_and_output(capsys):
    args = [
        "curve", "--ell", "1", "--n", "2", "--variants", "ideal",
        "--degrees", "--phi-min", "0", "--phi-max", "45", "--points", "4",
    ]
    rc, out, err = _run(args, capsys)
    assert rc == 0
    header, rows = _table(out)
    assert header[0] == "phi_deg"
    assert float(rows[-1][0]) == pytest.approx(45.0, rel=1e-12)
    assert float(rows[-1][1]) == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"ell": 1, "n": 4.0, "points": 5, "variants": "ideal"}), encoding="utf-8"
    )
    rc, out, err = _run(["curve", "--config", str(cfg)], capsys)
    assert rc == 0
    header, rows = _table(out)
    assert len(rows) == 5
    phi = math.pi / 8  # second point of the default [0, period] grid
    assert float(rows[1][1]) == pytest.approx(math.exp(-2 * 4.0 * math.sin(2 * phi) ** 2))

    rc, out, err = _run(["curve", "--config", str(cfg), "--n", "9"], capsys)
    header, rows = _table(out)
    assert float(rows[1][1]) == pytest.approx(math.exp(-2 * 9.0 * math.sin(2 * phi) ** 2))


def test_missing_required_option_is_a_json_error(capsys):
    rc, out, err = _run(["curve", "--n", "2"], capsys)
    assert rc == 2
    assert "--ell" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curve", "--ell", "1", "--n", "2", "--points", "1"], "points must be an integer >= 2, got 1"),
        (["curve", "--ell", "1", "--n", "2", "--variants", ""], "no variants requested"),
        (["metrics", "--n", "2"], "--ell is required"),
        (["metrics", "--ell", "1", "--n-sweep", "1", "2", "0"], "sweep points must be an integer >= 1, got 0"),
        (["metrics", "--ell", "1", "--n", "1e308"], "decay must be finite, got inf"),
        # decay 1e308 is finite, but 2 ell decay in the fringe's slope is not
        (["metrics", "--table", "sensitivity", "--ell", "1", "--n", "5e307", "--dark-rate", "0.01", "--points", "3"],
         "decay must be >= 0"),
        # a charge past 2**1022, where 4 ell is no float, is refused by name
        (["curve", "--ell", str(10**400), "--n", "2"], f"ell must be below 2**1022, got {10**400}"),
        (["qfi", "--ell", str(10**400), "--n", "2"], f"ell must be below 2**1022, got {10**400}"),
    ],
    ids=["one-point", "no-variants", "metrics-without-ell", "empty-sweep", "decay-overflow", "slope-overflow",
         "curve-ell-huge", "qfi-ell-huge"],
)
def test_bad_table_inputs_are_json_errors(capsys, argv, message):
    rc, out, err = _run(argv, capsys)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert message in json.loads(err)["error"]


def test_missing_config_file_is_a_json_error(tmp_path, capsys):
    rc, out, err = _run(
        ["curve", "--ell", "1", "--n", "2", "--config", str(tmp_path / "absent.json")], capsys
    )
    assert rc == 2
    assert "error" in json.loads(err)

    # config values of the wrong JSON type, values the flag would reject, and
    # keys that are not options of the subcommand are input errors too
    cases = (
        ("curve", {"ell": [1], "n": 2}),
        ("metrics", {"ell": 1, "n_sweep": 5}),
        ("metrics", {"ell": 1, "n_sweep": [1, 2]}),
        ("metrics", {"ell": 1, "n_sweep": [1, 2, float("inf")]}),
        ("curve", {"ell": 1, "n": 2, "dark-rate": 0.5}),
        ("curve", {"ell": 1, "n": 2, "units": 64}),
        ("qfi", {"ell": 1, "n": 2, "eta": 0.5}),
        ("experiment", {"format": "json"}),
        ("curve", {"ell": 1, "n": 2, "format": "xml"}),
        ("curve", {"ell": 1, "n": 2, "degrees": "no"}),
        ("curve", {"ell": 1, "n": 2, "output": 5}),
        ("qfi", {"ell": 1, "n": 2, "trials": 2.5}),
        ("curve", {"ell": 1, "n": 2, "variants": ["ideal", 3]}),
    )
    for i, (command, doc) in enumerate(cases):
        cfg = tmp_path / f"{command}{i}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = _run([command, "--config", str(cfg)], capsys)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "error" in json.loads(err)

    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    rc, out, err = _run(["curve", "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "config file must contain a JSON object"

    # an integer literal past the float range is no number of the flag's kind
    cfg.write_text('{"ell": 1, "n": 1' + "0" * 400 + "}", encoding="utf-8")
    rc, out, err = _run(["curve", "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == f"config n must be a number, got {10**400}"


def test_output_flag_writes_the_table_to_a_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    rc, out, err = _run(
        ["curve", "--ell", "1", "--n", "2", "--points", "4", "--output", str(path)], capsys
    )
    assert rc == 0 and out == ""
    header, rows = _table(path.read_text(encoding="utf-8"))
    assert header == ["phi_rad", "composed"]
    assert len(rows) == 4

    # output in a config file is an option default like any other
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": str(tmp_path / "from_config.csv")}), encoding="utf-8")
    rc, out, err = _run(["curve", "--ell", "1", "--n", "2", "--points", "4", "--config", str(cfg)], capsys)
    assert rc == 0 and out == ""
    assert (tmp_path / "from_config.csv").read_text(encoding="utf-8") == path.read_text(encoding="utf-8")


def test_csv_writer_matches_the_csv_module():
    # one write per table, byte for byte what csv.writer writes for these cells
    values = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-07, 1e16, 5e-324, 0.1, 1.0 / 3.0, -2.5e-310,
              1.7976931348623157e308]
    rows = [(k, v, -k, 2**70) for k, v in enumerate(values)]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["ell", "phi_rad", "n", "trials"])
    writer.writerows(rows)
    got = io.StringIO()
    _write_csv(got, ["ell", "phi_rad", "n", "trials"], iter(rows))
    assert got.getvalue() == expected.getvalue()
    empty = io.StringIO()
    _write_csv(empty, ["phi_rad", "composed"], [])
    assert empty.getvalue() == "phi_rad,composed\n"


# each size past its cap, with the input the message names; 10**12 points
# would be terabytes, so the refusal must come before any array is built
@pytest.mark.parametrize(
    "argv, message",
    [
        (["curve", "--ell", "1", "--n", "2", "--points", "1000000000000"], "points must be at most 1000000"),
        (["curve", "--ell", "1", "--n", "2", "--points", "1000001"], "points must be at most 1000000"),
        (["metrics", "--table", "sensitivity", "--ell", "1", "--n", "2", "--points", "1000000000000"],
         "points must be at most 1000000"),
        (["metrics", "--ell", "1", "--n-sweep", "1", "2", "1e12"], "sweep points must be at most 1000000"),
        (["experiment", "--trials", "1000000000000"], "trials must be at most 10000000"),
        (["experiment", "--points", "1000000", "--trials", "10000001"], "trials must be at most 10000000"),
        (["experiment", "--points", "1000001"], "points must be at most 1000000"),
    ],
    ids=["curve", "curve-past-cap", "sensitivity-table", "sweep", "experiment-trials", "experiment-trials-past-cap",
         "experiment-points"],
)
def test_sizes_past_their_cap_are_json_errors(tmp_path, capsys, argv, message):
    if argv[0] == "experiment":
        argv = argv + ["--output-dir", str(tmp_path / "run")]
    rc, out, err = _run(argv, capsys)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert message in json.loads(err)["error"]
    assert not (tmp_path / "run").exists()


def test_size_caps_are_stated_in_help_and_spare_the_qfi_trials(capsys):
    for command, caps in (("curve", ["1000000"]), ("metrics", ["1000000"]), ("experiment", ["1000000", "10000000"])):
        rc, out, _ = _run([command, "--help"], capsys)
        assert rc == 0
        assert all(f"at most {cap}" in out for cap in caps), command
    # qfi's trials is the nu of a bound and allocates nothing, so it has no cap
    rc, out, err = _run(["qfi", "--ell", "1", "--n", "2", "--trials", "1000000000000"], capsys)
    assert rc == 0 and err == ""
    assert out.splitlines()[1].startswith("1,2.0,1000000000000,")


def test_json_table_schema(capsys):
    args = [
        "curve", "--ell", "1", "--n", "2", "--points", "6",
        "--variants", "ideal,composed", "--format", "json",
    ]
    rc, out, err = _run(args, capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["table"] == "curve"
    assert doc["columns"] == ["phi_rad", "ideal", "composed"]
    assert len(doc["rows"]) == 6
    for row in doc["rows"]:
        assert row[1] == row[2]  # an ideal profile composes to the ideal fringe


def test_experiment_pipeline_writes_reproducible_artifacts(tmp_path, capsys):
    argv = [
        "experiment", "--points", "12", "--trials", "500", "--units", "64",
        "--seed", "5", "--prefix", "run", "--output-dir", str(tmp_path),
    ]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["seed"] == 5
    assert doc["ratio_to_snl"] > 1.0

    paths = [tmp_path / f"run_{kind}" for kind in ("scan.csv", "sensitivity.csv", "fit.json")]
    for p in paths:
        assert p.exists()
    first = {p.name: p.read_bytes() for p in paths}

    rc = main(argv)
    capsys.readouterr()
    assert rc == 0
    for p in paths:
        assert p.read_bytes() == first[p.name]

    data = load_fringe_data(tmp_path / "run_scan.csv")
    assert data.shape == (12, 3)
    saved = json.loads((tmp_path / "run_fit.json").read_text(encoding="utf-8"))
    assert saved["parameters"]["decay"] == doc["parameters"]["decay"]
    # the document's figures are its own fringe's, to the last bit
    params = saved["parameters"]
    fringe = FringeModel(amplitude=params["amplitude"], decay=params["decay"], offset=params["offset_rad"],
                         ell=saved["config"]["ell"], floor=params["floor"])
    visibility, fwhm, factor = fringe_figures(fringe)
    assert saved["derived"] == {
        "n_bar": params["decay"] / 2.0,
        "r": abs(math.log(params["amplitude"])) / 2.0,
        "visibility": visibility,
        "fwhm_rad": fwhm,
        "super_resolution_factor": factor,
    }


@pytest.mark.parametrize("field, value, echoed", [("mean_photons", np.float32(2.297), float(np.float32(2.297))),
                                                  ("units", np.int64(64), 64), ("seed", np.uint64(3), 3),
                                                  ("offset", np.int64(0), 0)])
def test_experiment_echoes_a_numpy_input_as_the_python_number_it_checked(tmp_path, field, value, echoed):
    # the document and its artifacts are those of the Python number the input rules accepted; a
    # Python int for a real field is echoed as the int it is
    config = {"points": 8, "trials_per_point": 100, "units": 64, field: value}
    doc = sagnac_parity.run_experiment(sagnac_parity.ExperimentConfig(output_dir=str(tmp_path / "numpy"), **config))
    config[field] = echoed
    sagnac_parity.run_experiment(sagnac_parity.ExperimentConfig(output_dir=str(tmp_path / "python"), **config))
    assert type(doc["config"][field]) is type(echoed) and doc["config"][field] == echoed
    for name in ("experiment_scan.csv", "experiment_sensitivity.csv", "experiment_fit.json"):
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "python" / name).read_bytes().replace(
            b"/python/", b"/numpy/"), name


def test_points_with_one_parity_do_not_pin_the_fit(tmp_path, capsys):
    # without dark counts, few trials leave points near the peak all even;
    # their sample stderr is 0 and must not become an overwhelming weight
    rc = main(["experiment", "--dark-rate", "0", "--trials", "200", "--output-dir", str(tmp_path)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    scan = load_fringe_data(tmp_path / "experiment_scan.csv")
    assert np.any(scan[:, 2] == 0.0)
    n_bar_stderr = doc["param_stderr"]["decay"] / 2.0
    assert abs(doc["derived"]["n_bar"] - 2.297) <= 5.0 * n_bar_stderr


# the input each rejected flag's message names
_REJECTED = {"--n": "mean_photons", "--offset": "offset", "--points": "points"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--n", "0"], ["--offset", "inf"], ["--points", "3"], ["--points", "1"]])
def test_experiment_rejects_bad_inputs_before_it_scans(tmp_path, capsys, flags):
    rc, out, err = _run(["experiment", "--output-dir", str(tmp_path / "run"), *flags], capsys)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert _REJECTED[flags[0]] in json.loads(err)["error"]
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("error")
def test_infinite_angle_range_is_a_json_error(capsys):
    rc, out, err = _run(["curve", "--ell", "1", "--n", "2", "--points", "3", "--phi-max", "inf"], capsys)
    assert rc == 2 and out == ""
    assert "must be finite" in json.loads(err)["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["curve", "--phi-min", "1e17", "--phi-max", "1.00000001e17"],  # the sine is rounding noise
    ["metrics", "--table", "sensitivity", "--phi-min", "1e16", "--phi-max", "2e16"],  # every slope is cut to 0
    ["curve", "--phi-min", "1e308", "--phi-max", "1.7e308"],  # 2 ell phi overflows
])
def test_angles_the_floats_cannot_resolve_are_a_json_error(capsys, argv):
    rc, out, err = _run([*argv, "--ell", "1", "--n", "2", "--points", "3"], capsys)
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    assert "phi of order" in json.loads(err)["error"]
    assert "rad is too large to resolve the fringe period 1.5708 rad" in json.loads(err)["error"]


@pytest.mark.filterwarnings("error")
def test_an_offset_the_floats_cannot_resolve_is_a_json_error(tmp_path, capsys):
    # the detector's click law would see sin(inf) = nan
    rc, out, err = _run(["experiment", "--offset", "1e308", "--output-dir", str(tmp_path / "run")], capsys)
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    assert "phi of order 1e+308 rad is too large" in json.loads(err)["error"]
    assert not (tmp_path / "run").exists()


def test_environment_variable_sets_the_default_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SAGNAC_PARITY_SEED", "11")
    base = ["experiment", "--points", "12", "--trials", "400", "--units", "64",
            "--output-dir", str(tmp_path)]
    rc = main(base + ["--prefix", "env"])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads((tmp_path / "env_fit.json").read_text(encoding="utf-8"))
    assert doc["config"]["seed"] == 11

    rc = main(base + ["--prefix", "flag", "--seed", "4"])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads((tmp_path / "flag_fit.json").read_text(encoding="utf-8"))
    assert doc["config"]["seed"] == 4

    monkeypatch.setenv("SAGNAC_PARITY_SEED", "1.5")
    rc, out, err = _run(base + ["--prefix", "bad"], capsys)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "SAGNAC_PARITY_SEED must be an integer, got '1.5'"


def test_help_exits_cleanly(capsys):
    rc, out, err = _run(["--help"], capsys)
    assert rc == 0
    assert "curve" in out and "experiment" in out


def test_calls_in_one_process_do_not_affect_each_other(capsys):
    # main() reuses one parser per process, so no call may leave state for
    # the next: each answer is the same in either order
    calls = [
        ["curve", "--ell", "1", "--n", "2", "--points", "5", "--format", "json", "--degrees"],
        ["curve", "--ell", "1", "--n", "2", "--points", "5"],
        ["metrics", "--ell", "2", "--n", "3", "--kappa", "0.8"],
        ["metrics", "--ell", "2"],
        ["qfi", "--ell", "1", "--n", "2", "--trials", "4"],
        ["qfi", "--ell", "0", "--n", "2"],
        ["curve", "--bogus"],
        ["qfi", "--help"],
        ["qfi", "--ell", "1", "--n", "2"],
    ]
    first = [_run(argv, capsys) for argv in calls]
    again = [_run(argv, capsys) for argv in reversed(calls)][::-1]
    assert first == again
    assert [rc for rc, _, _ in first] == [0, 0, 0, 2, 0, 2, 2, 0, 0]
    assert first[1][1].startswith("phi_rad,composed\n")
    assert first[8][1].startswith("ell,n,trials,") and ",1," in first[8][1]


def _run_python(args):
    src = str(Path(sagnac_parity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_runs_the_cli():
    # runpy warns on stderr if `-m sagnac_parity.cli` finds cli already
    # imported by the package, so the package must not import it itself
    for module in ("sagnac_parity", "sagnac_parity.cli"):
        proc = _run_python(["-m", module, "qfi", "--ell", "1", "--n", "2"])
        assert proc.returncode == 0, module
        assert proc.stderr == "", module
        assert proc.stdout.startswith("ell,n,trials,f_si"), module


def _modules_after(code):
    """Names in sys.modules after running `code` in a fresh interpreter."""
    proc = _run_python(["-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))"])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _loads(modules, package):
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only.  bench/tracing.py wraps the functions of
    # the package modules it finds in sys.modules once bench/worker.py has
    # imported cli, detector, fit and fock, so cli itself must keep importing
    # metrics and qfi.  The scan's thread pool is loaded when a scan runs, not
    # at import
    loaded = _modules_after("import sagnac_parity.cli")
    assert not _loads(loaded, "scipy")
    assert not _loads(loaded, "concurrent.futures")
    for name in ("model", "detector", "metrics", "fock", "qfi", "cli"):
        assert f"sagnac_parity.{name}" in loaded, name


def test_package_import_loads_the_experiment_but_not_the_cli():
    # the library holds the whole pipeline; the command line, and argparse with
    # it, load only on request, so `-m sagnac_parity.cli` finds cli unloaded
    loaded = _modules_after("import sagnac_parity")
    assert "sagnac_parity.experiment" in loaded
    assert "sagnac_parity.cli" not in loaded
    assert "argparse" not in loaded
    from sagnac_parity import cli, experiment
    assert sagnac_parity.run_experiment is experiment.run_experiment is cli.run_experiment
    assert sagnac_parity.ExperimentConfig is experiment.ExperimentConfig is cli.ExperimentConfig


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--ell", "1", "--n", "2", "--points", "5"],
        ["metrics", "--ell", "1", "--n", "2.297"],
        ["metrics", "--ell", "1", "--n", "2.297", "--dark-rate", "0.0253"],
        ["qfi", "--ell", "1", "--n", "2"],
        ["experiment", "--points", "8", "--trials", "100", "--units", "64"],
    ],
    ids=["curve", "metrics", "metrics-off-peak", "qfi", "experiment"],
)
def test_subcommands_load_only_the_scipy_they_run(argv, tmp_path):
    # no subcommand loads scipy: an off-peak minimum is a scalar bisection,
    # qfi's three columns are closed forms, and the fit is the package's own
    # least squares.  Each call runs in tmp_path, where experiment writes its files
    loaded = _modules_after(f"import os\nos.chdir({str(tmp_path)!r})\nfrom sagnac_parity.cli import main\nmain({argv!r})")
    assert not _loads(loaded, "scipy")


_VARIANT_NAMES = ["ideal", "prep", "loss", "efficiency", "dark", "composed"]
# values the flag would accept; each generated config may then get one bad value
_CONFIG_VALUES = {
    "ell": st.integers(1, 4),
    "n": st.floats(0.05, 30),
    "eta": st.floats(0.05, 1),
    "t_a": st.floats(0.05, 1),
    "t_b": st.floats(0.05, 1),
    "kappa": st.floats(0.05, 1),
    "dark_rate": st.floats(0, 2),
    "jitter_factor": st.floats(1, 3),
    "phi_min": st.floats(-1, 0),
    "phi_max": st.floats(0.1, 2),
    "points": st.integers(2, 300),
    "degrees": st.booleans(),
    "variants": st.one_of(
        st.lists(st.sampled_from(_VARIANT_NAMES), min_size=1, max_size=3).map(",".join),
        st.lists(st.sampled_from(_VARIANT_NAMES), min_size=1, max_size=3),
    ),
    "table": st.sampled_from(["summary", "sensitivity"]),
    "n_sweep": st.tuples(st.floats(0.05, 20), st.floats(0.05, 20), st.integers(1, 8)).map(list),
    "trials": st.integers(1, 200),
    "units": st.integers(1, 64),
    "offset": st.floats(-2, 2),
    "seed": st.integers(0, 2**64 - 1),
    "prefix": st.just("fuzz"),
    "output_dir": st.just("out"),
    "format": st.sampled_from(["csv", "json"]),
    "output": st.just("table.txt"),
}
_SIZES = ("points", "trials", "units", "n_sweep")
_FRINGE_KEYS = ("eta", "t_a", "t_b", "kappa", "dark_rate", "jitter_factor", "phi_min", "phi_max", "points", "degrees")
# per subcommand: keys every generated config has, and keys it may have
_CONFIG_KEYS = {
    "curve": (("ell", "n"), _FRINGE_KEYS + ("variants", "format", "output")),
    "metrics": (("ell", "n"), _FRINGE_KEYS + ("table", "n_sweep", "format", "output")),
    "qfi": (("ell", "n"), ("trials", "format", "output")),
    # the experiment's own defaults are a full-size run, so its sizes are always set
    "experiment": (
        ("points", "trials", "units", "output_dir"),
        ("ell", "n", "dark_rate", "jitter_factor", "kappa", "offset", "seed", "prefix"),
    ),
}


def _bad_value(key):
    junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=4))
    numbers = [-1, 0, 2.5, math.inf, -math.inf, math.nan] + ([] if key in _SIZES else [1e300, 400])
    return st.one_of(junk, st.sampled_from(numbers))


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_files_fail_only_the_documented_way(data, tmp_path, capsys, monkeypatch):
    # a run exits 0 with nothing on stderr, or 2 with one line of JSON
    monkeypatch.chdir(tmp_path)
    command = data.draw(st.sampled_from(sorted(_CONFIG_KEYS)))
    required, optional = _CONFIG_KEYS[command]
    doc = data.draw(
        st.fixed_dictionaries(
            {key: _CONFIG_VALUES[key] for key in required},
            optional={key: _CONFIG_VALUES[key] for key in optional},
        )
    )
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(doc)))
        doc[key] = data.draw(_bad_value(key))
    if data.draw(st.sampled_from(range(8))) == 7:
        foreign = sorted(set(_CONFIG_VALUES) - set(required + optional)) + ["dark-rate", "config"]
        doc[data.draw(st.sampled_from(foreign))] = 1
    Path("fuzz.json").write_text(json.dumps(doc), encoding="utf-8")

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print on stderr
        rc, out, err = _run([command, "--config", "fuzz.json"], capsys)
    if rc == 0:
        assert err == ""
    else:
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and "error" in json.loads(err)
