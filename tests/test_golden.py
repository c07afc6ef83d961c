"""Replay of frozen CLI output.

Each case runs one command in-process and compares what it prints (and,
for norm-scan, the CSV it writes) with the file frozen in tests/golden/.
The comparison is byte for byte, except for `coef` without --oracle:
there the method line, which names the evaluation branch, must match
exactly, re, im and abs must agree to 1e-12 relative to |value| plus the
two err budgets, and the err line, an error budget rather than a value,
is free.

Regenerate the frozen files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

where the names (e.g. integral-principal) limit it to those cases; the
loosely compared coef files record the values they were frozen with, so
regenerate them only by name.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from repnorm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SCAN_REPS = {"principal": "principal:0:-0.5+1i",
             "complementary": "complementary:-0.25",
             "discrete": "discrete:2"}
INTEGRAL_NS = {"principal": ["0", "4", "16"],
               "complementary": ["0", "4", "16"],
               "discrete": ["1", "5", "17"]}
COEF_ARGS = {"principal": ["--rep", "principal:0:-0.5+1i", "--m", "0",
                           "--n", "7"],
             "complementary": ["--rep", "complementary:-0.25", "--m", "0",
                               "--n", "-5"],
             "discrete": ["--rep", "discrete:2", "--m", "1", "--n", "6"]}
# oracle columns off the cases above: the circle's Moebius factor (m != 0)
# and a disc column off its reference column (q = m - ell/2 = 2)
ORACLE_ARGS = {"principal-m2": ["--rep", "principal:0.5:-0.5+0.7i", "--m",
                                "2", "--n", "5", "--x", "0.5"],
               "discrete-q2": ["--rep", "discrete:2", "--m", "3", "--n", "6",
                               "--x", "0.9"]}


def _cases():
    """(name, argv, scan config or None, values compared loosely)."""
    out = []
    for fam, rep in SCAN_REPS.items():
        cfg = {"rep": rep, "n_values": [16, 32, 64],
               "scan": {"c_grid": 0.25}, "output_path": "out.csv"}
        out.append((f"norm-scan-{fam}", ["norm-scan", "cfg.json"], cfg,
                    False))
    for fam, rep in SCAN_REPS.items():
        out.append((f"integral-{fam}",
                    ["integral", "--rep", rep, "--eps", "0.25", "--n",
                     *INTEGRAL_NS[fam]], None, False))
    out.append(("fit", ["fit", str(GOLDEN / "fit_input.csv"),
                        "--column", "pmin"], None, False))
    out.append(("constants", ["constants", "so(1,3)", "su(1,2)", "sl(4)",
                              "f4m20", "--c", "1/2", "--R", "3"], None, False))
    for fam, args in COEF_ARGS.items():
        out.append((f"coef-oracle-{fam}",
                    ["coef", *args, "--x", "0.5", "--oracle"], None, False))
        for x in ("0.5", "0.9", "0.99"):
            out.append((f"coef-{fam}-x{x}", ["coef", *args, "--x", x], None,
                        True))
    for name, args in ORACLE_ARGS.items():
        out.append((f"coef-oracle-{name}", ["coef", *args, "--oracle"], None,
                    False))
    return out


CASES = _cases()


def run_case(argv, cfg, workdir):
    """Run one command in workdir; returns (exit code, stdout, CSV text)."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if cfg is not None:
            Path("cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        csv = (Path(cfg["output_path"]).read_text(encoding="utf-8")
               if cfg is not None else None)
    finally:
        os.chdir(cwd)
    return rc, buf.getvalue(), csv


def _coef_fields(text):
    return dict(line.split(None, 1) for line in text.splitlines())


@pytest.mark.parametrize("name,argv,cfg,loose", CASES,
                         ids=[c[0] for c in CASES])
def test_replay(name, argv, cfg, loose, tmp_path):
    rc, out, csv = run_case(argv, cfg, tmp_path)
    assert rc == 0
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if cfg is not None:
        assert csv == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    if not loose:
        assert out == want
        return
    got, ref = _coef_fields(out), _coef_fields(want)
    assert set(got) == set(ref)
    assert got["method"] == ref["method"]
    budget = 1e-12 * float(ref["abs"]) + float(ref["err"]) + float(got["err"])
    for key in ("re", "im", "abs"):
        assert abs(float(got[key]) - float(ref[key])) <= budget


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    names = sys.argv[1:]
    unknown = set(names) - {case[0] for case in CASES}
    if unknown:
        sys.exit(f"no such cases: {sorted(unknown)}")
    for name, argv, cfg, _ in CASES:
        if names and name not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            rc, out, csv = run_case(argv, cfg, tmp)
        if rc != 0:
            sys.exit(f"{name}: exit code {rc}")
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        if csv is not None:
            (GOLDEN / f"{name}.csv").write_text(csv, encoding="utf-8")
        print(f"froze {name}")
