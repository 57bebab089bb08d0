"""Golden diff: run a fixed list of CLI calls under two source trees and compare.

    python tools/golden.py --parent REV [--allow CALL[:FIELD][~REL] ...]

Run from anywhere inside the repository.  The parent tree is ``git archive
REV`` unpacked into a temporary directory; the change is the working tree
that holds this script, uncommitted edits included.  Each call runs as
``python -m sagnac_parity ...`` with ``PYTHONPATH`` at the tree's ``src``,
in a fresh directory of its own, and every output path is relative to it.

Compared per call: the exit code, stdout, stderr, and the bytes of every
file the call wrote.  The tree's and the call directory's paths are
replaced by ``<tree>`` and ``<cwd>`` first, so a traceback compares too.
A CSV or JSON output that differs is broken down by column or key, with
the largest relative change of its numbers, so a difference prints as

    DIFF     metrics-dark  stdout  min_sensitivity_rad  max abs 5.6e-17, max rel 2.6e-16

``--allow CALL[:FIELD]`` forgives the differences of the calls whose id
matches the glob CALL; with FIELD, only those in a column, key (dotted,
e.g. ``min_sensitivity.value_rad``), file name or one of ``exit``,
``stdout`` and ``stderr`` matching the glob FIELD.  A trailing ``~REL``,
e.g. ``'experiment-*:*~1e-12'``, forgives only a column or key of numbers
whose largest relative change is at most REL; an exit code, a text or an
output that does not parse alike is never within it.  Deliberate
differences are named per change on the command line, never in this file.

Exit status: 0 when every difference is allowed, 1 when one is not, 2 on a
usage error or when ``git archive REV`` fails.
"""
from __future__ import annotations

import argparse
import csv
import fnmatch
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_EVERY_FLAG = ["--eta", "0.9", "--t-a", "0.9", "--t-b", "0.6", "--kappa", "0.8", "--dark-rate", "0.05",
               "--jitter-factor", "1.5"]
_VARIANTS = ["ideal", "prep", "loss", "efficiency", "dark", "composed"]
_SMALL_RUN = ["--points", "12", "--trials", "400", "--units", "64"]


def _call(call_id, *argv, env=None, files=None):
    # one CLI call: its id, its argv, extra environment, files placed in its directory first
    return {"id": call_id, "argv": [str(a) for a in argv], "env": env or {}, "files": files or {}}


def _tables_calls():
    calls = []
    for ell in (1, 3):
        for fmt in ("csv", "json"):
            calls.append(_call(f"curve-all-l{ell}-{fmt}", "curve", "--ell", ell, "--n", "2.297", *_EVERY_FLAG,
                               "--variants", ",".join(_VARIANTS), "--points", "65", "--format", fmt))
    calls += [_call(f"curve-{v}", "curve", "--ell", "2", "--n", "3", *_EVERY_FLAG, "--variants", v, "--points", "33")
              for v in _VARIANTS]
    calls += [
        _call("curve-default", "curve", "--ell", "1", "--n", "2"),
        _call("curve-readme", "curve", "--ell", "1", "--n", "2", "--points", "5", "--kappa", "0.7",
              "--variants", "ideal,composed"),
        _call("curve-degrees", "curve", "--ell", "1", "--n", "2", "--points", "9", "--degrees", "--phi-min", "-10",
              "--phi-max", "30"),
        _call("curve-degrees-json", "curve", "--ell", "2", "--n", "5", "--points", "7", "--degrees", "--format",
              "json"),
        _call("curve-range", "curve", "--ell", "4", "--n", "40", "--points", "101", "--phi-min", "-0.1",
              "--phi-max", "0.1"),
        _call("curve-flat", "curve", "--ell", "1", "--n", "2", "--dark-rate", "400", "--points", "5"),
        _call("curve-output", "curve", "--ell", "1", "--n", "2", "--points", "4", "--output", "table.csv"),
        _call("curve-config", "curve", "--config", "cfg.json", "--points", "6",
              files={"cfg.json": json.dumps({"ell": 2, "n": 3.5, "eta": 0.8, "variants": ["ideal", "prep"]})}),
        _call("curve-config-output", "curve", "--config", "cfg.json",
              files={"cfg.json": json.dumps({"ell": 1, "n": 2, "points": 4, "output": "from_config.csv"})}),
        _call("metrics-readme", "metrics", "--ell", "3", "--n", "10"),
        _call("metrics-dark", "metrics", "--ell", "1", "--n", "2.297", "--dark-rate", "0.0253"),
        _call("metrics-json", "metrics", "--ell", "2", "--n", "3", *_EVERY_FLAG, "--format", "json"),
        _call("metrics-kappa", "metrics", "--ell", "2", "--n", "3", "--kappa", "0.8"),
        _call("metrics-shallow", "metrics", "--ell", "1", "--n", "0.2"),
        _call("metrics-faint", "metrics", "--ell", "1", "--n", "2", "--dark-rate", "20"),
        _call("metrics-near-peak", "metrics", "--ell", "2", "--n", "10000", "--dark-rate", "0.0001"),
        _call("metrics-subnormal-floor", "metrics", "--ell", "1", "--n", "1", "--eta", "5e-324"),
        _call("metrics-sweep-ideal", "metrics", "--ell", "1", "--n-sweep", "0.5", "20", "8"),
        _call("metrics-sweep-json", "metrics", "--ell", "3", *_EVERY_FLAG, "--n-sweep", "1", "30", "5",
              "--format", "json"),
        _call("sensitivity-ideal", "metrics", "--table", "sensitivity", "--ell", "1", "--n", "2", "--points", "17"),
        _call("sensitivity-json", "metrics", "--table", "sensitivity", "--ell", "2", "--n", "3", *_EVERY_FLAG,
              "--points", "9", "--format", "json"),
        _call("sensitivity-degrees", "metrics", "--table", "sensitivity", "--ell", "1", "--n", "2", "--points", "9",
              "--degrees"),
        _call("qfi-l1", "qfi", "--ell", "1", "--n", "2"),
        _call("qfi-readme", "qfi", "--ell", "3", "--n", "10"),
        _call("qfi-trials", "qfi", "--ell", "2", "--n", "5", "--trials", "1000"),
        _call("qfi-json", "qfi", "--ell", "4", "--n", "30", "--format", "json"),
        _call("qfi-huge-trials", "qfi", "--ell", "1", "--n", "2", "--trials", "1000000000000"),
    ]
    for ell in (1, 2, 3, 4):
        calls.append(_call(f"metrics-all-l{ell}", "metrics", "--ell", ell, "--n", "2.297", *_EVERY_FLAG))
        calls.append(_call(f"metrics-sweep-l{ell}", "metrics", "--ell", ell, *_EVERY_FLAG, "--n-sweep", "1", "20",
                           "8"))
        calls.append(_call(f"sensitivity-all-l{ell}", "metrics", "--table", "sensitivity", "--ell", ell, "--n",
                           "2.297", *_EVERY_FLAG, "--points", "33"))
    return calls


def _help_calls():
    calls = [_call("help", "--help"), _call("no-command")]
    return calls + [_call(f"help-{c}", c, "--help") for c in ("curve", "metrics", "qfi", "experiment")]


def _error_calls():
    fringe = ["--ell", "1", "--n", "2"]
    cases = {
        "curve-no-ell": ["curve", "--n", "2"],
        "curve-no-n": ["curve", "--ell", "1"],
        "curve-ell-0": ["curve", "--ell", "0", "--n", "2"],
        "curve-ell-float": ["curve", "--ell", "1.5", "--n", "2"],
        "curve-n-negative": ["curve", "--ell", "1", "--n", "-1"],
        "curve-points-1": ["curve", *fringe, "--points", "1"],
        "curve-no-variants": ["curve", *fringe, "--variants", ""],
        "curve-bogus-variant": ["curve", *fringe, "--variants", "bogus"],
        "curve-bogus-flag": ["curve", "--bogus"],
        "curve-eta-0": ["curve", *fringe, "--eta", "0"],
        "curve-eta-big": ["curve", *fringe, "--eta", "1.5"],
        "curve-t-a-0": ["curve", *fringe, "--t-a", "0"],
        "curve-kappa-2": ["curve", *fringe, "--kappa", "2"],
        "curve-dark-negative": ["curve", *fringe, "--dark-rate", "-1"],
        "curve-jitter-small": ["curve", *fringe, "--jitter-factor", "0.5"],
        "curve-phi-max-inf": ["curve", *fringe, "--points", "3", "--phi-max", "inf"],
        "curve-empty-range": ["curve", *fringe, "--phi-min", "1", "--phi-max", "0"],
        "curve-format-xml": ["curve", *fringe, "--format", "xml"],
        "curve-missing-config": ["curve", *fringe, "--config", "absent.json"],
        "curve-output-dir-missing": ["curve", *fringe, "--output", "absent/table.csv"],
        "metrics-no-ell": ["metrics", "--n", "2"],
        "metrics-no-n": ["metrics", "--ell", "1"],
        "metrics-flat": ["metrics", "--ell", "1", "--n", "1", "--dark-rate", "400"],
        "metrics-decay-overflow": ["metrics", "--ell", "1", "--n", "1e308"],
        "metrics-slope-overflow": ["metrics", "--table", "sensitivity", "--ell", "1", "--n", "5e307", "--dark-rate",
                                   "0.01", "--points", "3"],
        "metrics-sweep-0": ["metrics", "--ell", "1", "--n-sweep", "1", "2", "0"],
        "metrics-sweep-float": ["metrics", "--ell", "1", "--n-sweep", "1", "2", "2.5"],
        "metrics-bad-table": ["metrics", *fringe, "--table", "bogus"],
        "qfi-no-n": ["qfi", "--ell", "1"],
        "qfi-trials-0": ["qfi", *fringe, "--trials", "0"],
        "experiment-points-0": ["experiment", "--points", "0"],
        "experiment-points-1": ["experiment", "--points", "1"],
        "experiment-points-3": ["experiment", "--points", "3"],
        "experiment-n-0": ["experiment", "--n", "0"],
        "experiment-offset-inf": ["experiment", "--offset", "inf"],
        "experiment-units-0": ["experiment", *_SMALL_RUN[:4], "--units", "0"],
        "experiment-trials-0": ["experiment", "--points", "12", "--trials", "0", "--units", "64"],
        "experiment-seed-negative": ["experiment", *_SMALL_RUN, "--seed", "-1"],
    }
    calls = [_call(f"error-{name}", *argv) for name, argv in cases.items()]
    configs = {
        "list": "[1, 2]",
        "foreign-key": json.dumps({"ell": 1, "n": 2, "dark-rate": 0.5}),
        "wrong-type": json.dumps({"ell": [1], "n": 2}),
        "sweep-short": json.dumps({"ell": 1, "n_sweep": [1, 2]}),
        "not-json": "{",
    }
    calls += [_call(f"error-config-{name}", "curve", "--config", "cfg.json", files={"cfg.json": text})
              for name, text in configs.items()]
    calls.append(_call("error-seed-env", "experiment", *_SMALL_RUN, env={"SAGNAC_PARITY_SEED": "1.5"}))
    # angles from 2^48/ell rad on, where the floats cannot resolve the fringe period
    angles = {
        "curve-noise": ["curve", *fringe, "--phi-min", "1e17", "--phi-max", "1.00000001e17", "--points", "3"],
        "sensitivity-inf": ["metrics", "--table", "sensitivity", *fringe, "--phi-min", "1e16", "--phi-max", "2e16",
                            "--points", "3"],
        "curve-nan": ["curve", *fringe, "--phi-min", "1e308", "--phi-max", "1.7e308", "--points", "3"],
        "experiment-offset": ["experiment", "--offset", "1e308"],
    }
    return calls + [_call(f"angle-{name}", *argv) for name, argv in angles.items()]


def _cap_calls():
    # sizes far past any cap: without one they end in numpy's allocator.  Then
    # qfi at the Fock truncation's cap of 400 photons: mean 250 still certifies
    # its tail (at 369 photons), mean 300 is refused with the tail the cap reached
    fringe = ["--ell", "1", "--n", "2"]
    return [
        _call("cap-curve-points", "curve", *fringe, "--points", "1000000000000"),
        _call("cap-sensitivity-points", "metrics", "--table", "sensitivity", *fringe, "--points", "1000000000000"),
        _call("cap-sweep", "metrics", "--ell", "1", "--n-sweep", "1", "2", "1e12"),
        _call("cap-experiment-trials", "experiment", "--points", "12", "--trials", "1000000000000"),
        _call("cap-experiment-points", "experiment", "--points", "1000000000000"),
        _call("cap-qfi-n-250", "qfi", "--ell", "1", "--n", "250"),
        _call("cap-qfi-n-300", "qfi", "--ell", "1", "--n", "300"),
    ]


def _experiment_calls():
    calls = [
        _call("experiment-default", "experiment", "--output-dir", "out"),
        _call("experiment-4-points", "experiment", "--points", "4", "--trials", "1000", "--units", "64"),
        _call("experiment-small", "experiment", *_SMALL_RUN, "--prefix", "small"),
        _call("experiment-ell-1e6", "experiment", "--ell", "1000000", "--points", "24", "--trials", "20000",
              "--offset", "0"),
        _call("experiment-seed-env", "experiment", *_SMALL_RUN, env={"SAGNAC_PARITY_SEED": "11"}),
        _call("experiment-config", "experiment", "--config", "cfg.json",
              files={"cfg.json": json.dumps({"points": 16, "trials": 2000, "units": 256, "dark_rate": 0.1,
                                             "kappa": 0.9, "seed": 7, "output_dir": "run"})}),
    ]
    rng = random.Random(401)
    calls += [_call(f"experiment-seed-{k}", "experiment", "--seed", rng.randrange(2**32), "--output-dir", f"job{k}")
              for k in range(9)]
    return calls


def _apparatus_calls():
    # the four CLI tables of an analysis session, on seeded apparatus with
    # every imperfection active, ell cycling 1..4 and N over [1, 50]
    calls = []
    for seed in (401, 405, 410):
        rng = random.Random(seed)
        for index in range(4):
            ell, n = 1 + index % 4, repr(rng.uniform(1.0, 50.0))
            profile = []
            for flag, low, high in (("eta", 0.85, 0.99), ("t-a", 0.8, 0.99), ("t-b", 0.8, 0.99),
                                    ("kappa", 0.6, 0.95), ("dark-rate", 0.01, 0.1), ("jitter-factor", 1.0, 1.5)):
                profile += ["--" + flag, repr(rng.uniform(low, high))]
            job = f"apparatus-{seed}-{index}"
            calls += [
                _call(f"{job}-curve", "curve", "--ell", ell, "--n", n, *profile, "--variants", ",".join(_VARIANTS),
                      "--points", "1024", "--output", "curve.csv"),
                _call(f"{job}-summary", "metrics", "--ell", ell, *profile, "--n-sweep", "1.0", n, "8",
                      "--output", "summary.csv"),
                _call(f"{job}-sensitivity", "metrics", "--table", "sensitivity", "--ell", ell, "--n", n, *profile,
                      "--output", "sensitivity.csv"),
                _call(f"{job}-qfi", "qfi", "--ell", ell, "--n", n, "--trials", "1000", "--format", "json",
                      "--output", "qfi.json"),
            ]
    return calls


CALLS = _tables_calls() + _help_calls() + _error_calls() + _cap_calls() + _experiment_calls() + _apparatus_calls()


def run_call(src, call, workdir):
    """Run one call under the package at `src` in the fresh directory `workdir`.

    Returns {"exit", "stdout", "stderr", "files": {relative path: bytes}},
    with the tree's and workdir's paths in stdout and stderr replaced.
    """
    workdir.mkdir(parents=True)
    for name, text in call["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SAGNAC_PARITY_SEED")}
    env.update(call["env"], PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "sagnac_parity", *call["argv"]], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=900)

    def scrub(text):
        return text.replace(str(workdir), "<cwd>").replace(str(Path(src).parent), "<tree>")

    files = {str(p.relative_to(workdir)): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}
    return {"exit": proc.returncode, "stdout": scrub(proc.stdout), "stderr": scrub(proc.stderr), "files": files}


def run_tree(src, calls, workdir):
    """Results of `calls` under the package at `src`, keyed by call id."""
    return {call["id"]: run_call(src, call, Path(workdir) / call["id"]) for call in calls}


def _numbers_differ(a, b):
    # ("max abs A, max rel R", R) over the differing numeric cells, or ("", None) if a cell is not a number
    worst_abs = worst_rel = 0.0
    for x, y in zip(a, b):
        try:
            x, y = float(x), float(y)
        except (TypeError, ValueError):
            return "", None
        if not (x == y or (math.isnan(x) and math.isnan(y))):
            gap = abs(x - y) if math.isfinite(x - y) else math.inf
            worst_abs, worst_rel = max(worst_abs, gap), max(worst_rel, gap / abs(x) if x else math.inf)
    return f"max abs {worst_abs:.2g}, max rel {worst_rel:.2g}", worst_rel


def _leaves(doc, path=""):
    # dotted key paths of a JSON document's scalars; a table's rows become its columns
    if isinstance(doc, dict) and isinstance(doc.get("columns"), list) and isinstance(doc.get("rows"), list):
        rest = {k: v for k, v in doc.items() if k != "rows"}
        for j, name in enumerate(doc["columns"]):
            yield name, [row[j] if isinstance(row, list) and j < len(row) else None for row in doc["rows"]]
        yield from _leaves(rest, path)
    elif isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, f"{path}.{i}" if path else str(i))
    else:
        yield path, [doc]


def _columns(text):
    # {field: values} of a CSV table or a JSON document, or None if it is neither
    try:
        return dict(_leaves(json.loads(text)))
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 1 or len(set(rows[0])) != len(rows[0]) or any(len(r) != len(rows[0]) for r in rows):
        return None
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


def _field_differences(parent, change):
    # [(field, detail, max rel)] of two differing texts, by column or key where both parse alike
    a, b = _columns(parent), _columns(change)
    if a is None or b is None or a.keys() != b.keys() or any(len(a[k]) != len(b[k]) for k in a):
        digests = [hashlib.sha256(t.encode("utf-8", "surrogateescape")).hexdigest()[:12] for t in (parent, change)]
        return [(None, f"sha256 {digests[0]} -> {digests[1]}", None)]
    return [(field, *_numbers_differ(a[field], b[field])) for field in a if a[field] != b[field]]


def differences(parent, change):
    """[(call id, where, field, detail, max rel)] for every way `change` differs from `parent`.

    `where` is exit, stdout, stderr or a file name; `field` is a column or
    dotted JSON key of a CSV or JSON output, or None for the whole output;
    `max rel` is the largest relative change of a field of numbers, else None.
    """
    out = []
    for call_id in parent.keys() | change.keys():
        p, c = parent.get(call_id), change.get(call_id)
        if p is None or c is None:
            out.append((call_id, "call", None, "run on one side only", None))
            continue
        if p["exit"] != c["exit"]:
            out.append((call_id, "exit", None, f"{p['exit']} -> {c['exit']}", None))
        texts = {"stdout": (p["stdout"], c["stdout"]), "stderr": (p["stderr"], c["stderr"])}
        for name in p["files"].keys() | c["files"].keys():
            if name not in p["files"] or name not in c["files"]:
                out.append((call_id, name, None, "written on one side only", None))
            else:
                texts[name] = tuple(side["files"][name].decode("utf-8", "surrogateescape") for side in (p, c))
        for where, (a, b) in texts.items():
            if a != b:
                out += [(call_id, where, *diff) for diff in _field_differences(a, b)]
    return sorted(out, key=lambda d: (d[0], d[1], d[2] or ""))


def _split_bound(pattern):
    # "CALL[:FIELD]~REL" -> ("CALL[:FIELD]", REL), "CALL[:FIELD]" -> (itself, None); ValueError on a bad REL
    head, tilde, rel = pattern.rpartition("~")
    return (head, float(rel)) if tilde else (pattern, None)


def _allow_pattern(text):
    try:
        _split_bound(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"the REL of {text!r} is not a number") from None
    return text


def allowed(difference, patterns):
    """Whether a difference matches one of the CALL[:FIELD][~REL] glob patterns."""
    call_id, where, field, _, rel = difference
    for pattern in patterns:
        pattern, bound = _split_bound(pattern)
        call_glob, _, field_glob = pattern.partition(":")
        if bound is not None and not (rel is not None and rel <= bound):
            continue
        if fnmatch.fnmatchcase(call_id, call_glob) and (
            not field_glob or any(fnmatch.fnmatchcase(x, field_glob) for x in (where, field) if x is not None)
        ):
            return True
    return False


def _export(rev, dest):
    # the tree of `rev`, from git archive: no worktree is registered, so an
    # interrupted run leaves nothing behind in the repository
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True)
    if proc.returncode != 0:
        raise ValueError(f"git archive {rev} failed: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--allow", action="append", default=[], metavar="CALL[:FIELD][~REL]",
                        type=_allow_pattern,
                        help="forgive differences of calls matching the glob CALL, in FIELD only when given, "
                             "and with ~REL only numbers whose largest relative change is at most REL")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        tmp = Path(tmp)
        try:
            _export(args.parent, tmp / "parent")
        except ValueError as exc:
            parser.error(str(exc))
        parent = run_tree(tmp / "parent" / "src", CALLS, tmp / "runs-parent")
        change = run_tree(ROOT / "src", CALLS, tmp / "runs-change")
    diffs = differences(parent, change)
    refused = 0
    for diff in diffs:
        ok = allowed(diff, args.allow)
        refused += not ok
        call_id, where, field, detail, _ = diff
        print(f"{'allowed' if ok else 'DIFF':8} {call_id}  {where}  {field or '-'}  {detail}".rstrip())
    files = sum(len(r["files"]) for r in change.values())
    print(f"{len(CALLS)} calls, {files} files: {len(diffs)} differences, {len(diffs) - refused} allowed, "
          f"{refused} not allowed")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
