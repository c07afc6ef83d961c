"""End-to-end command checks: parsing, exit codes, file formats and
determinism of the CSV output."""

import cmath
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repnorm
from repnorm import cli
from repnorm.cli import CSV_HEADER, MAX_LADDER, ExperimentConfig, main
from repnorm.errors import PreconditionError, ScanError
from repnorm.norms import NormSample, ScanConfig
from repnorm.reps import Complementary, Discrete, Principal, parse_rep

SCAN_CONFIG = {
    "rep": "discrete:2",
    "n_values": [16, 32, 48, 64],
    "scan": {"c_grid": 0.25, "refine_iters": 32, "t_max_pad": 5.0},
}


def load_scan_config(path):
    return ExperimentConfig.load(path, ExperimentConfig.NORM_SCAN_KEYS)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = dict(SCAN_CONFIG)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _mpmath_coef(rep, n, m, t):
    """coef(n, m) of a family descriptor at a_t, at 60 digits: the circle
    closed form pref x^(|n-m|/2) (1-x)^(-lam) 2F1(a, b; |n-m|+1; x) (n >= m)
    times the complementary normalizer, or the disc's terminating sum, with
    x = tanh(t)^2 and 1-x = sech(t)^2."""
    import mpmath

    with mpmath.workdps(60):
        tm = mpmath.mpf(t)
        x, omx = mpmath.tanh(tm) ** 2, mpmath.sech(tm) ** 2
        kind, *params = rep.split(":")
        if kind == "discrete":
            ell = int(params[0])
            p, q = n - ell // 2, m - ell // 2
            j = mpmath.sqrt(mpmath.gamma(p + ell) * mpmath.gamma(q + ell)
                            / (mpmath.gamma(p + 1) * mpmath.gamma(q + 1))) \
                / mpmath.gamma(ell)
            total, g = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(min(p, q) + 1):
                total += g * x ** (mpmath.mpf(p + q - 2 * k) / 2) \
                    * omx ** (mpmath.mpf(ell) / 2 + k)
                g *= -mpmath.mpf((p - k) * (q - k)) / ((ell + k) * (k + 1))
            return complex((-1) ** p * j * total)
        if kind == "principal":
            s = mpmath.mpf(params[0])
            lam = mpmath.mpmathify(complex(params[1].replace("i", "j")))
            scale = 1
        else:
            s, lam = 0, mpmath.mpf(params[0])

            def h(k):
                return mpmath.gamma(abs(k) + 1 + lam) / mpmath.gamma(
                    abs(k) - lam)

            scale = mpmath.sqrt(h(n) / h(m))
        a, b = -lam - m - s, -lam + n + s
        pref = mpmath.gammaprod([lam - m - s + 1],
                                [n - m + 1, lam - n - s + 1])
        return complex(scale * pref * x ** (mpmath.mpf(n - m) / 2)
                       * omx ** (-lam) * mpmath.hyp2f1(a, b, n - m + 1, x))


class TestExperimentConfig:
    def test_unknown_field_rejected(self, tmp_path):
        from repnorm.errors import PreconditionError
        path = write_config(tmp_path, typo_field=1)
        with pytest.raises(PreconditionError):
            load_scan_config(path)

    def test_unknown_scan_field_rejected(self, tmp_path):
        from repnorm.errors import PreconditionError
        path = write_config(tmp_path, scan={"step": 0.1})
        with pytest.raises(PreconditionError):
            load_scan_config(path)

    def test_geometric_range(self, tmp_path):
        path = write_config(
            tmp_path,
            n_values={"geometric": {"start": 16, "stop": 128, "factor": 2}})
        cfg = load_scan_config(path)
        assert cfg.resolved_n_values() == [16.0, 32.0, 64.0, 128.0]

    def test_bad_geometric_range(self, tmp_path):
        from repnorm.errors import PreconditionError
        path = write_config(
            tmp_path, n_values={"geometric": {"start": 16, "stop": 8}})
        with pytest.raises(PreconditionError):
            load_scan_config(path).resolved_n_values()


# an infinite or NaN imaginary part passes the strip test -1 < Re lam < 0
NON_FINITE_LAMS = ["principal:0:-0.5+1e999i", "principal:0.5:-0.5+nani",
                   "principal:0:-0.5+nani"]


class TestCoefCommand:
    def test_prints_value_and_method(self, capsys):
        rc = main(["coef", "--rep", "principal:0:-0.5+1i",
                   "--m", "0", "--n", "4", "--x", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "method series" in out
        assert any(line.startswith("abs") for line in out.splitlines())

    def test_requires_exactly_one_coordinate(self, capsys):
        assert main(["coef", "--rep", "discrete:2", "--m", "1", "--n",
                     "2"]) == 2
        assert main(["coef", "--rep", "discrete:2", "--m", "1", "--n", "2",
                     "--x", "0.5", "--t", "1.0"]) == 2

    @pytest.mark.parametrize("coordinate", [
        ["--x", "nan"], ["--x", "1.0"], ["--t", "-0.1"], ["--t", "nan"],
        ["--t", "inf"], ["--t", "40"],
    ])
    def test_coordinate_off_the_flow_exits_2(self, coordinate, capsys):
        # x in [0, 1), t >= 0; tanh(40)^2 rounds to 1
        assert main(["coef", "--rep", "principal:0:-0.5+1i", "--m", "0",
                     "--n", "4", *coordinate]) == 2

    @pytest.mark.parametrize("t", [0.0])
    def test_t_gives_the_coordinate_tanh_t_squared(self, t, capsys):
        args = ["coef", "--rep", "principal:0:-0.5+1i", "--m", "0", "--n", "4"]
        assert main(args + ["--t", repr(t)]) == 0
        by_t = capsys.readouterr().out
        assert main(args + ["--x", repr(math.tanh(t) ** 2)]) == 0
        assert capsys.readouterr().out == by_t

    # --t takes 1-x as sech(t)^2: from 1 - tanh(t)^2, which keeps only the
    # ulps of x, the value was off by 3e-7 to 2.1 relative at t >= 12
    @pytest.mark.parametrize("rep, n, m", [
        ("principal:0:-0.5+1i", 3, 0), ("complementary:-0.25", 4, 0),
        ("discrete:2", 3, 1)])
    @pytest.mark.parametrize("t", [0.4, 2.7, 12.0, 16.0, 18.0])
    def test_t_is_within_its_err_of_mpmath(self, rep, n, m, t, capsys):
        assert main(["coef", "--rep", rep, "--n", str(n), "--m", str(m),
                     "--t", repr(t)]) == 0
        out = dict(line.split(None, 1)
                   for line in capsys.readouterr().out.splitlines())
        value = complex(float(out["re"]), float(out["im"]))
        assert abs(value - _mpmath_coef(rep, n, m, t)) <= float(out["err"])

    def test_integer_index_enforced_off_discrete(self, capsys):
        assert main(["coef", "--rep", "principal:0:-0.5+1i",
                     "--m", "0", "--n", "2.5", "--x", "0.5"]) == 2

    # the disc took an index within 1e-9 of ell/2 + N0 as that point and
    # printed its value, while --oracle failed on a bare KeyError
    @pytest.mark.parametrize("rep, n, family", [
        ("discrete:2", "1.0000000001", "Discrete(ell=2)"),
        ("complementary:-0.25", "2.5", "Complementary(lam=-0.25)")])
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]],
                             ids=["closed", "oracle"])
    def test_off_spectrum_index_exits_2_by_name(self, rep, n, family, oracle,
                                                capsys):
        m = "1" if rep.startswith("discrete") else "0"
        assert main(["coef", "--rep", rep, "--n", n, "--m", m, "--x", "0.5",
                     *oracle]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert n in captured.err and family in captured.err

    def test_discrete_lowest_vector_closed_form(self, capsys):
        assert main(["coef", "--rep", "discrete:2", "--m", "1", "--n", "1",
                     "--x", "0.3"]) == 0
        out = dict(line.split(None, 1)
                   for line in capsys.readouterr().out.splitlines())
        assert float(out["re"]) == pytest.approx(0.7, rel=1e-12)
        assert float(out["im"]) == pytest.approx(0.0, abs=1e-14)

    def test_identity_and_off_diagonal_at_origin(self, capsys):
        assert main(["coef", "--rep", "principal:0:-0.5+1i", "--m", "0",
                     "--n", "0", "--x", "0"]) == 0
        out = dict(line.split(None, 1)
                   for line in capsys.readouterr().out.splitlines())
        assert float(out["re"]) == pytest.approx(1.0, rel=1e-14)
        assert main(["coef", "--rep", "principal:0.5:-0.5", "--m", "0",
                     "--n", "2", "--x", "0"]) == 0
        out = dict(line.split(None, 1)
                   for line in capsys.readouterr().out.splitlines())
        assert float(out["abs"]) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_value_exits_3(self, capsys):
        # the Gauss series of the diagonal (700, 700) overflows at x = 0.9
        assert main(["coef", "--rep", "principal:0:-0.5+1i", "--n", "700",
                     "--m", "700", "--x", "0.9"]) == 3
        assert capsys.readouterr().out == ""

    def test_circle_oracle_exits_3_at_its_last_doubling(self, capsys):
        # N starts at 2048, the power of two at or above 8(n_max+|m|)+64 =
        # 1088, and doubles three times at most; a column of 257 entries
        # at x = 0.999 needs more
        assert main(["coef", "--rep", "principal:0:-0.5+1i", "--n", "128",
                     "--m", "0", "--x", "0.999", "--oracle"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "circle oracle not settled at N=16384" in captured.err

    def test_both_indices_large_at_the_boundary_exit_0(self, capsys):
        # the Euler integrand overflowed here, and this call exited 3
        assert main(["coef", "--rep", "principal:0:-0.5+1i", "--n", "128",
                     "--m", "-128", "--x", "0.9999"]) == 0
        assert "method ode" in capsys.readouterr().out

    @pytest.mark.parametrize("rep,n,m", [
        ("discrete:2", "1e400", "1"), ("principal:0:-0.5", "inf", "0"),
        ("complementary:-0.25", "nan", "0"), ("discrete:2", "2", "1e999"),
    ])
    def test_non_finite_index_exits_2(self, rep, n, m, capsys):
        assert main(["coef", "--rep", rep, "--n", n, "--m", m,
                     "--x", "0.5"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_bad_rep_descriptor(self, capsys):
        assert main(["coef", "--rep", "spherical:1", "--m", "0",
                     "--n", "1", "--x", "0.5"]) == 2

    @pytest.mark.parametrize("rep", NON_FINITE_LAMS)
    def test_non_finite_lam_exits_2(self, rep, capsys):
        assert main(["coef", "--rep", rep, "--m", "0", "--n", "4",
                     "--x", "0.5"]) == 2
        captured = capsys.readouterr()
        assert "lam must be finite" in captured.err
        assert captured.out == ""


class TestNormScanCommand:
    def test_csv_contract(self, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, output_path=str(out_csv))
        assert main(["norm-scan", str(cfg)]) == 0
        text = out_csv.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == CSV_HEADER
        ns = [float(row.split(",")[0]) for row in lines[2:]]
        assert ns == sorted(ns) and len(ns) == 4
        for row in lines[2:]:
            assert len(row.split(",")) == 6
        assert "\r" not in text

    def test_deterministic_across_runs_and_threads(self, tmp_path, capsys):
        # two runs of one config give the same bytes (the name predates
        # the removal of the scan threads)
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg_a = write_config(tmp_path, "a.json", output_path=str(a_csv))
        cfg_b = write_config(tmp_path, "b.json", output_path=str(b_csv))
        assert main(["norm-scan", str(cfg_a)]) == 0
        assert main(["norm-scan", str(cfg_b)]) == 0
        assert a_csv.read_bytes() == b_csv.read_bytes()

    def test_empty_ladder_gives_header_only(self, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, output_path=str(out_csv), n_values=[])
        assert main(["norm-scan", str(cfg)]) == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[1] == CSV_HEADER and len(lines) == 2

    def test_partial_failure_writes_error_trailer(self, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, output_path=str(out_csv),
                           n_values=[16, 0.25, 32])
        assert main(["norm-scan", str(cfg)]) == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert sum(1 for l in lines if not l.startswith("#")) == 3
        assert lines[-1].startswith("# ERROR 0.25 ")

    @pytest.mark.parametrize("rep,ladder,row", [
        ("discrete:2", [16.5, 32], "32"),
        ("principal:0:-0.5+1i", [16.7, 16.0], "16")])
    def test_non_integral_character_writes_an_error_trailer(
            self, rep, ladder, row, tmp_path, capsys):
        # the character was cut to an integer and scanned under its label
        out_csv = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, output_path=str(out_csv), rep=rep,
                           n_values=ladder)
        assert main(["norm-scan", str(cfg)]) == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert [l.split(",")[0] for l in lines[2:-1]] == [row]
        assert lines[-1].startswith(
            f"# ERROR {ladder[0]:.17g} PreconditionError: ")

    def test_negative_character_writes_a_row(self, tmp_path, capsys):
        # -16 is in the spectrum of every circle family; on sigma = 0 its
        # peak is that of 16 (the window was sized from log1p(-16), which
        # raised "math domain error" and exited 2)
        out_csv = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, output_path=str(out_csv),
                           rep="principal:0:-0.5+1i", n_values=[-16, 16])
        assert main(["norm-scan", str(cfg)]) == 0
        rows = [l.split(",") for l in
                out_csv.read_text(encoding="utf-8").splitlines()[2:]]
        assert [r[0] for r in rows] == ["-16", "16"]
        assert rows[0][1:] == rows[1][1:]

    def test_default_ladder_scan_error_writes_trailers(self, tmp_path,
                                                       capsys):
        # a negative pad puts the lowest peak past the window end: that
        # character fails on its own and the run still succeeds
        out_csv = tmp_path / "scan.csv"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "rep": "discrete:2", "scan": {"t_max_pad": -1.5},
            "output_path": str(out_csv)}), encoding="utf-8")
        assert main(["norm-scan", str(path)]) == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[1] == CSV_HEADER
        assert len(lines) == 2 + 8           # one line per ladder character
        assert lines[-1].startswith("# ERROR 16 ScanError: ")

    def test_empty_window_writes_trailers(self, tmp_path, capsys):
        # a window that holds no grid point raised IndexError, printed a
        # traceback and exited 1; each character gets its trailer instead
        out_csv = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, output_path=str(out_csv),
                           n_values=[16, 32], scan={"t_max_pad": -10})
        assert main(["norm-scan", str(cfg)]) == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [CSV_HEADER] + [
            f"# ERROR {k} ScanError: scan window of character {k} holds no"
            f" grid point (T={-10.0 + math.log1p(k):.3f}); enlarge t_pad"
            for k in (16, 32)]

    def test_unread_fields_rejected(self, tmp_path, capsys):
        for field in ("m", "epsilon"):
            cfg = write_config(tmp_path, output_path=str(tmp_path / "s.csv"),
                               **{field: 7})
            assert main(["norm-scan", str(cfg)]) == 2

    # a zero step divided by zero, a negative one scanned the seeds alone
    @pytest.mark.parametrize("c_grid", [0, -0.1, "NaN"])
    def test_grid_it_cannot_scan_exits_2(self, c_grid, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, output_path=str(out_csv),
                           scan={"c_grid": c_grid})
        assert main(["norm-scan", str(cfg)]) == 2
        assert "grid_c must be finite and > 0" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_missing_config_file(self, capsys):
        assert main(["norm-scan", "/no/such/config.json"]) == 2

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, typo_field=1)
        assert main(["norm-scan", str(cfg)]) == 2

    # json reads Infinity and NaN; an infinite stop would never end the range
    @pytest.mark.parametrize("n_values", [
        "[16, Infinity]", "[16, NaN]",
        '{"geometric": {"start": 16, "stop": Infinity}}',
        '{"geometric": {"start": NaN, "stop": 64}}',
        '{"geometric": {"start": 16, "stop": NaN}}',
        '{"geometric": {"start": 16, "stop": 64, "factor": Infinity}}',
        '{"geometric": {"start": 16, "stop": 64, "factor": NaN}}',
    ])
    def test_non_finite_n_values_exit_2(self, n_values, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"rep": "discrete:2", "output_path": %s, "n_values": %s}'
            % (json.dumps(str(out_csv)), n_values), encoding="utf-8")
        assert main(["norm-scan", str(cfg)]) == 2
        assert "is not a finite number" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_refine_iters_exits_2(self, value, tmp_path, capsys):
        out_csv = tmp_path / "o.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"rep": "discrete:2", "n_values": [16], "output_path": %s,'
            ' "scan": {"refine_iters": %s}}'
            % (json.dumps(str(out_csv)), value), encoding="utf-8")
        assert main(["norm-scan", str(cfg)]) == 2
        assert "scan.refine_iters is not a finite number" in \
            capsys.readouterr().err
        assert not out_csv.exists()

    # 0 and -3 printed the unrefined grid peak with its refined err_est,
    # and int() truncated 2.5 to 2 steps
    @pytest.mark.parametrize("value,message", [
        ("0", "refine_iters must be >= 1"),
        ("-3", "refine_iters must be >= 1"),
        ("2.5", "scan.refine_iters is not a whole number")])
    def test_refine_iters_not_whole_and_positive_exits_2(
            self, value, message, tmp_path, capsys):
        out_csv = tmp_path / "o.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"rep": "discrete:2", "n_values": [16], "output_path": %s,'
            ' "scan": {"refine_iters": %s}}'
            % (json.dumps(str(out_csv)), value), encoding="utf-8")
        assert main(["norm-scan", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not out_csv.exists()

    def test_readme_config_example_loads(self, tmp_path):
        # every json block of the README is a norm-scan config that loads
        # and builds its scan
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```json\n(.*?)```",
                            readme.read_text(encoding="utf-8"), re.S)
        assert blocks
        for block in blocks:
            path = tmp_path / "readme.json"
            path.write_text(block, encoding="utf-8")
            cfg = load_scan_config(path)
            assert isinstance(cfg.scan_config(), ScanConfig)
            assert parse_rep(cfg.rep) and cfg.resolved_n_values()


class TestFitCommand:
    @pytest.fixture()
    def scan_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, output_path=str(out_csv))
        assert main(["norm-scan", str(cfg)]) == 0
        capsys.readouterr()
        return out_csv

    def test_json_contract(self, scan_csv, capsys):
        assert main(["fit", str(scan_csv), "--column", "pmin"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"alpha", "beta", "amplitude", "residual_rms",
                            "n_min", "n_max"}
        assert doc["n_min"] == 16.0 and doc["n_max"] == 64.0
        assert doc["alpha"] < 0.0

    def test_no_log_flag(self, scan_csv, capsys):
        assert main(["fit", str(scan_csv), "--column", "pmin",
                     "--no-log"]) == 0
        assert json.loads(capsys.readouterr().out)["beta"] == 0.0

    def test_unknown_column(self, scan_csv, capsys):
        assert main(["fit", str(scan_csv), "--column", "nope"]) == 2

    def test_too_few_rows_is_fit_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text(CSV_HEADER + "\n16,1,0.5,1,1,0\n32,0.5,0.5,2,1,0\n",
                        encoding="utf-8")
        assert main(["fit", str(path), "--column", "pmin"]) == 4

    @pytest.mark.parametrize("row", ["32", "32,0.07,9"],
                             ids=["short", "long"])
    def test_ragged_row_exits_2(self, row, tmp_path, capsys):
        # a row with fewer fields than the header used to end in an
        # IndexError, and one with more was read as if it fit
        path = tmp_path / "ragged.csv"
        path.write_text(f"n,pmin\n16,0.1\n{row}\n64,0.05\n128,0.03\n",
                        encoding="utf-8")
        assert main(["fit", str(path), "--column", "pmin"]) == 2
        err = capsys.readouterr().err
        assert repr(row) in err and "2 fields" in err


class TestIntegralCommand:
    def test_dual_route_rows(self, capsys):
        rc = main(["integral", "--rep", "principal:0:-0.5", "--eps", "0.25",
                   "--n", "1", "4"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].startswith("n,quadrature_re")
        for row in out[1:]:
            assert float(row.split(",")[-1]) < 1e-6

    def test_half_integer_rejected_for_principal(self, capsys):
        assert main(["integral", "--rep", "principal:0:-0.5",
                     "--eps", "0.25", "--n", "1.5"]) == 2

    def test_collapsed_value_in_both_columns(self, capsys):
        # sigma=1/2, lam=-1/2, eps=1/2, n=0: the integral is exactly 1/2
        assert main(["integral", "--rep", "principal:0.5:-0.5",
                     "--eps", "0.5", "--n", "0"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.5, abs=1e-10)
        assert float(row[3]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("rep", NON_FINITE_LAMS)
    def test_non_finite_lam_exits_2(self, rep, capsys):
        assert main(["integral", "--rep", rep, "--eps", "0.25",
                     "--n", "4"]) == 2
        assert "lam must be finite" in capsys.readouterr().err

    def test_empty_index_list_prints_header_only(self, capsys):
        assert main(["integral", "--rep", "principal:0:-0.5",
                     "--eps", "0.25"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


class TestConstantsCommand:
    def test_table_contents(self, capsys):
        rc = main(["constants", "so(1,3)", "su(1,2)", "f4m20", "slnR:4",
                   "--c", "1/2", "--R", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "so(1,3)" in out and "f4(-20)" in out
        assert "9/2" in out            # 2*1 + 1 + 3/2
        assert "55/2" in out           # 22 + 4 + 3/2
        assert "threshold_principal" in out

    def test_gap_bound_needs_c(self, capsys):
        rc = main(["constants", "so(1,3)"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mps_bound" not in out

    def test_unparseable_family(self, capsys):
        assert main(["constants", "g2"]) == 2

    @pytest.mark.parametrize("text, label", [
        ("so(1,3)", "so(1,3)"), ("su(1,2)", "su(1,2)"), ("sl(4)", "sl(4,R)"),
        ("f4m20", "f4(-20)"), ("f4(-20)", "f4(-20)"), ("slnR:4", "sl(4,R)"),
        ("slnr:4", "sl(4,R)"), ("SO (1, 3)", "so(1,3)"),
        ("Sp(1,2)", "sp(1,2)"), ("SL(4,r)", "sl(4,R)"), ("su1n:2", "su(1,2)"),
        ("F4M20", "f4(-20)")])
    def test_every_label_form_parses(self, text, label, capsys):
        assert main(["constants", text]) == 0
        assert capsys.readouterr().out.split("\n")[0].split() == [
            "type", label]

    # each of the first three printed so(1,3), sl(4,R) and so(1,10)
    @pytest.mark.parametrize("text", [
        "so(1,3,5)", "sl(4,x)", "so(1,1_0)", "so(1,3)x", "su(1,)", "so1n:",
        "sl(4,R", "f4m20:x", "so(1,-3)"])
    def test_other_text_exits_2(self, text, capsys):
        assert main(["constants", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot parse Lie type" in captured.err


class TestAcceptanceCommand:
    def test_config_validation_path(self, tmp_path, capsys):
        path = tmp_path / "acc.json"
        path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["acceptance", str(path)]) == 2

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_seed_exits_2(self, value, tmp_path, capsys,
                                     monkeypatch):
        from repnorm import acceptance

        def refuse(**kwargs):
            raise AssertionError("the battery ran")

        monkeypatch.setattr(acceptance, "run_all", refuse)
        path = tmp_path / "acc.json"
        path.write_text('{"seed": %s}' % value, encoding="utf-8")
        assert main(["acceptance", str(path),
                     "--output", str(tmp_path / "r.json")]) == 2
        assert "seed is not a finite number" in capsys.readouterr().err

    def test_fractional_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        from repnorm import acceptance

        def refuse(**kwargs):
            raise AssertionError("the battery ran")

        monkeypatch.setattr(acceptance, "run_all", refuse)
        path = tmp_path / "acc.json"
        path.write_text('{"seed": 2.5}', encoding="utf-8")
        assert main(["acceptance", str(path),
                     "--output", str(tmp_path / "r.json")]) == 2
        assert "seed is not a whole number" in capsys.readouterr().err

    def test_unknown_tolerance_key(self, tmp_path, capsys):
        path = tmp_path / "acc.json"
        path.write_text(json.dumps({"tolerances": {"99": 0.5}}),
                        encoding="utf-8")
        assert main(["acceptance", str(path)]) == 2

    def test_failing_criterion_exits_1(self, tmp_path, capsys, monkeypatch):
        # the full battery runs in its own test module; here only the
        # aggregation and exit-code logic is on trial
        from repnorm import acceptance

        fake = [
            acceptance.ReportRecord(
                criterion_id="1-hypergeometric-identities", expected="x",
                observed="y", tolerance="0", passed=False, runtime_ms=1),
            acceptance.ReportRecord(
                criterion_id="9-structural-constants", expected="x",
                observed="x", tolerance="exact", passed=True, runtime_ms=0),
        ]
        monkeypatch.setattr(acceptance, "run_all",
                            lambda seed, tolerances: fake)
        report = tmp_path / "report.json"
        assert main(["acceptance", "--output", str(report)]) == 1
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert [rec["pass"] for rec in doc] == [False, True]
        out = capsys.readouterr().out
        assert "1/2 criteria passed" in out

    def test_scan_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # criterion 7 re-raises a scan that cannot certify its peak
        from repnorm import acceptance
        from repnorm.errors import ScanError

        def run_all(seed, tolerances):
            raise ScanError("argmax on the grid boundary")
        monkeypatch.setattr(acceptance, "run_all", run_all)
        assert main(["acceptance", "--output",
                     str(tmp_path / "report.json")]) == 3
        assert "argmax on the grid boundary" in capsys.readouterr().err

    def test_zero_tolerance_forces_failure(self):
        from repnorm import acceptance
        rec = acceptance.criterion_1(acceptance.DEFAULT_SEED, tol=0.0)
        assert rec.passed is False


# a valid value of every config field, and the least config each command
# runs with (an empty ladder for norm-scan); no command reads threads
FIELD_VALUES = {"rep": "discrete:2", "n_values": [], "scan": {"c_grid": 0.5},
                "tolerances": {}, "output_path": "out.txt", "threads": 1,
                "seed": 7}
COMMAND_BASE = {"norm-scan": {"rep": "discrete:2", "n_values": [],
                              "output_path": "out.csv"},
                "acceptance": {}}
COMMAND_KEYS = {"norm-scan": ExperimentConfig.NORM_SCAN_KEYS,
                "acceptance": ExperimentConfig.ACCEPTANCE_KEYS}


@pytest.mark.parametrize("command,field", [
    (command, field) for command in COMMAND_BASE for field in FIELD_VALUES])
def test_config_fields_per_command(command, field, tmp_path, capsys,
                                   monkeypatch):
    """A command accepts the fields it reads and exits 2 on any other."""
    from repnorm import acceptance
    monkeypatch.setattr(acceptance, "run_all", lambda **kw: [])
    monkeypatch.chdir(tmp_path)
    cfg = dict(COMMAND_BASE[command], **{field: FIELD_VALUES[field]})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    want = 0 if field in COMMAND_KEYS[command] else 2
    assert main([command, "cfg.json"]) == want


# JSON values of the wrong type for a config number or path: float() and
# int() raised TypeError on them, which printed a traceback and exited 1,
# and open() took an integer output_path for a file descriptor
@pytest.mark.parametrize("command,config", [
    ("norm-scan", {"scan": {"c_grid": None}}),
    ("norm-scan", {"scan": {"c_grid": [0.5]}}),
    ("norm-scan", {"scan": {"t_max_pad": None}}),
    ("norm-scan", {"scan": {"t_max_pad": True}}),
    ("norm-scan", {"scan": {"refine_iters": None}}),
    ("norm-scan", {"scan": {"refine_iters": [32]}}),
    ("norm-scan", {"output_path": 7}),
    ("norm-scan", {"output_path": ["out.csv"]}),
    ("acceptance", {"seed": None}),
    ("acceptance", {"seed": [1]}),
    ("acceptance", {"tolerances": {"1": None}}),
    ("acceptance", {"tolerances": {"2": [1e-8]}}),
    ("acceptance", {"output_path": 7}),
])
def test_config_values_of_the_wrong_type_exit_2(command, config, tmp_path,
                                                capsys, monkeypatch):
    from repnorm import acceptance
    monkeypatch.setattr(acceptance, "run_all", lambda **kw: [])
    monkeypatch.chdir(tmp_path)
    cfg = dict(COMMAND_BASE[command], **config)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main([command, "cfg.json"]) == 2
    assert "invalid request" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# ---------------------------------------------------------------------------
# Properties of the two parsers of user input


NUMBER_TEXT = st.one_of(
    st.sampled_from(["0", "0.5", "-0.5", "-0.25", "2", "nan", "1e999"]),
    st.floats().map(repr), st.integers(-10**6, 10**6).map(str),
    st.text(max_size=8))
# "+nan" and "+1e999" give a non-finite imaginary part; "+inf" does not
# parse, since every i becomes j
IMAG_TEXT = st.one_of(st.sampled_from(["+nan", "+1e999", "-1e999", "+1"]),
                      st.floats().map("{:+}".format), NUMBER_TEXT)
REP_TEXT = st.one_of(
    st.text(),
    st.builds("principal:{}:{}{}i".format,
              st.one_of(st.sampled_from(["0", "0.5"]), NUMBER_TEXT),
              st.one_of(st.floats(-1.0, 0.0).map(repr), NUMBER_TEXT),
              IMAG_TEXT),
    st.builds("principal:{}:{}".format, NUMBER_TEXT, NUMBER_TEXT),
    st.builds("complementary:{}".format, NUMBER_TEXT),
    st.builds("discrete:{}".format, NUMBER_TEXT))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(REP_TEXT)
def test_parse_rep_gives_a_valid_family_or_precondition_error(text):
    try:
        r = parse_rep(text)
    except PreconditionError:
        return
    if isinstance(r, Principal):
        assert r.sigma in (0.0, 0.5)
        assert cmath.isfinite(r.lam) and -1.0 < r.lam.real < 0.0
    elif isinstance(r, Complementary):
        assert math.isfinite(r.lam) and -0.5 < r.lam < 0.0
    else:
        assert isinstance(r, Discrete) and r.ell >= 2


JSON_NUMBER = st.one_of(st.integers(), st.floats())
N_VALUES = st.one_of(
    JSON_NUMBER,
    st.lists(JSON_NUMBER, max_size=8),
    st.fixed_dictionaries({}, optional={
        "start": JSON_NUMBER, "stop": JSON_NUMBER, "factor": JSON_NUMBER,
    }).map(lambda g: {"geometric": g}))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(N_VALUES)
def test_n_values_are_finite_and_bounded_or_precondition_error(spec):
    try:
        out = ExperimentConfig(n_values=spec).resolved_n_values()
    except PreconditionError:
        return
    assert all(math.isfinite(v) for v in out)
    if isinstance(spec, list):
        assert len(out) == len(spec)
    else:
        assert 1 <= len(out) <= MAX_LADDER


def _seeded_outcomes(seed):
    """A pmin_scan that returns, per character in ascending order, a
    NormSample of seeded values across the double range or, one time in
    three, a ScanError."""
    def pmin_scan(r, kappas, config=None):
        rng = np.random.default_rng(seed)
        out = []
        for kappa in sorted(kappas):
            if rng.random() < 1.0 / 3.0:
                out.append(ScanError(f"no peak for {kappa!r}"))
            else:
                out.append(NormSample(kappa, *(
                    float(rng.uniform(-1.0, 1.0)
                          * 10.0 ** int(rng.integers(-300, 300)))
                    for _ in range(5))))
        return out
    return pmin_scan


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 10 ** 6),
                          st.floats(1e-3, 1e6)), max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_norm_scan_csv_contract_on_any_ladder(ladder, seed):
    """The exact header, rows sorted by n, every field the .17g form that
    reads back to its value, and one # ERROR trailer per failed character,
    in ladder order."""
    # the command reads every ladder entry as a float
    ladder = [float(v) for v in ladder]
    want = _seeded_outcomes(seed)(None, ladder)
    saved = cli.pmin_scan
    cli.pmin_scan = _seeded_outcomes(seed)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            out_csv = Path(tmp) / "scan.csv"
            path.write_text(json.dumps({
                "rep": "discrete:2", "n_values": ladder,
                "output_path": str(out_csv)}), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["norm-scan", str(path)]) == 0
            lines = out_csv.read_text(encoding="utf-8").splitlines()
    finally:
        cli.pmin_scan = saved
    assert lines[:2] == ["# repnorm norm-scan rep=discrete:2", CSV_HEADER]
    rows = [line for line in lines[2:] if not line.startswith("#")]
    samples = sorted((s for s in want if isinstance(s, NormSample)),
                     key=lambda s: s.n)
    assert len(rows) == len(samples)
    for row, s in zip(rows, samples):
        fields = row.split(",")
        values = [s.n, s.pmin, s.x_argmax, s.pmax_proxy, s.q_s_half,
                  s.err_est]
        assert fields == [f"{v:.17g}" for v in values]
        assert [float(f) for f in fields] == values
    assert [float(f) for f in (row.split(",")[0] for row in rows)] == \
        sorted(s.n for s in samples)
    failed = [k for k, o in zip(sorted(ladder), want)
              if isinstance(o, ScanError)]
    trailers = [line for line in lines if line.startswith("# ERROR ")]
    assert trailers == [f"# ERROR {k:.17g} ScanError: no peak for {k!r}"
                        for k in failed]
    assert lines[2 + len(rows):] == trailers


def test_import_leaves_out_the_libraries_of_single_criteria():
    # every CLI call pays the import of repnorm.cli; no module imports any
    # part of scipy or mpmath (test_no_module_imports_scipy)
    src = str(Path(repnorm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, repnorm.cli; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.optimize', 'mpmath', "
            "'scipy.special', 'scipy') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "[]"


def test_every_module_and_criterion_1_run_without_scipy():
    # None in sys.modules makes every import of scipy or mpmath raise
    # ImportError, as on an installation of numpy alone; criterion 1 runs
    # the Euler-integral oracle, whose quadrature is repnorm's own Kronrod
    # driver, criterion 10 the zeta of specfun, and the four commands must
    # print what they print here
    src = str(Path(repnorm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    names = sorted(p.stem for p in Path(repnorm.__file__).parent.glob("*.py")
                   if p.stem != "__init__")
    commands = [
        ["constants", "so(1,3)", "su(1,2)", "sl(4)", "f4m20", "--c", "1/2",
         "--R", "3"],
        ["coef", "--rep", "principal:0:-0.5+1i", "--m", "0", "--n", "16",
         "--x", "0.5"],
        ["integral", "--rep", "principal:0:-0.5+1i", "--eps", "0.25", "--n",
         "0", "4", "16"],
        ["fit", str(Path(__file__).parent / "golden" / "fit_input.csv"),
         "--column", "pmin"],
    ]

    def stdout(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        return out.getvalue()

    code = ("import contextlib, importlib, io, json, sys\n"
            "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('repnorm.' + name)\n"
            "from repnorm.acceptance import criterion_1, criterion_10\n"
            "from repnorm.cli import main\n"
            "outs = []\n"
            f"for argv in {commands!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        outs.append([main(argv), out.getvalue()])\n"
            "print(json.dumps([criterion_1().passed, criterion_10().passed,"
            " outs]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        True, True, [[0, stdout(argv)] for argv in commands]]
