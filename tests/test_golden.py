"""tools/golden.py, the golden diff of CLI calls between two source trees."""
import importlib.util
import json
from pathlib import Path

import pytest

import sagnac_parity

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

# a table, an off-peak minimum, a refusal, a size cap, an experiment's artifacts and a demo
SUBSET = ("curve-all-l1-json", "metrics-dark", "error-curve-points-1", "cap-sweep", "experiment-small",
          "demo-fisher_bounds")


def test_the_working_tree_against_itself_has_no_differences(tmp_path):
    calls = [call for call in golden.CALLS if call["id"] in SUBSET]
    assert len(calls) == len(SUBSET)
    src = Path(sagnac_parity.__file__).resolve().parents[1]
    first = golden.run_tree(src, calls, tmp_path / "first")
    again = golden.run_tree(src, calls, tmp_path / "again")
    assert golden.differences(first, again) == []
    assert [first[name]["exit"] for name in SUBSET] == [0, 0, 2, 2, 0, 0]
    assert "sweep points must be at most" in json.loads(first["cap-sweep"]["stderr"])["error"]
    assert set(first["experiment-small"]["files"]) == {"small_scan.csv", "small_sensitivity.csv", "small_fit.json"}
    assert first["demo-fisher_bounds"]["stdout"] and not first["demo-fisher_bounds"]["stderr"]

    # a moved cell is named by its column or key, and only an allow naming it forgives it
    header, row = first["metrics-dark"]["stdout"].splitlines()
    cells = row.split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-9)
    again["metrics-dark"]["stdout"] = f"{header}\n{','.join(cells)}\n"
    doc = json.loads(again["experiment-small"]["files"]["small_fit.json"])
    doc["ratio_to_snl"] *= 1.0 + 2e-16
    again["experiment-small"]["files"]["small_fit.json"] = json.dumps(doc, indent=2).encode() + b"\n"
    again["error-curve-points-1"]["exit"] = 1
    diffs = golden.differences(first, again)
    assert [d[:3] for d in diffs] == [
        ("error-curve-points-1", "exit", None),
        ("experiment-small", "small_fit.json", "ratio_to_snl"),
        ("metrics-dark", "stdout", "min_sensitivity_phi_rad"),
    ]
    assert diffs[2][3].startswith("max abs 1e-09")
    allow = ["metrics-*:min_sensitivity_*", "experiment-*:ratio_to_snl", "error-*"]
    assert all(golden.allowed(d, allow) for d in diffs)
    assert not any(golden.allowed(d, ["metrics-dark:stderr", "curve-*", "experiment-small:small_scan.csv"])
                   for d in diffs)


def test_a_relative_bound_forgives_only_numbers_that_moved_within_it():
    def result(exit_code, x, y, note):
        doc = json.dumps({"x": x, "note": note}).encode()
        return {"job": {"exit": exit_code, "stdout": f"y\n{y!r}\n", "stderr": "", "files": {"fit.json": doc}}}

    y = 0.7022
    diffs = golden.differences(result(0, 0.3, y, "a"), result(1, 0.3 * (1 + 1e-9), y * (1 + 2e-16), "b"))
    assert [d[:3] for d in diffs] == [("job", "exit", None), ("job", "fit.json", "note"),
                                      ("job", "fit.json", "x"), ("job", "stdout", "y")]
    moved_exit, moved_note, moved_x, moved_y = diffs
    assert 1e-16 < moved_y[4] <= 2.3e-16 and 0.9e-9 < moved_x[4] < 1.1e-9
    assert moved_exit[4] is None and moved_note[4] is None
    assert golden.allowed(moved_y, ["job:*~1e-12"])
    assert not golden.allowed(moved_x, ["job:*~1e-12"]) and golden.allowed(moved_x, ["job:x~1e-8"])
    assert not any(golden.allowed(d, ["job~1e300", "job:*~1e300", "job:exit~1e300"]) for d in (moved_exit, moved_note))
    assert golden.allowed(moved_exit, ["job:exit"]) and golden.allowed(moved_note, ["job"])


def test_a_relative_bound_that_is_not_a_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        golden.main(["--parent", "HEAD", "--allow", "experiment-*:*~tiny"])
    assert exc.value.code == 2
    assert "the REL of 'experiment-*:*~tiny' is not a number" in capsys.readouterr().err
