"""End-to-end command checks: parsing, exit codes, file formats and
determinism of the CSV output."""

import json

import pytest

from repnorm.cli import CSV_HEADER, ExperimentConfig, main

SCAN_CONFIG = {
    "rep": "discrete:2",
    "n_values": [16, 32, 48, 64],
    "scan": {"c_grid": 0.25, "refine_iters": 32, "t_max_pad": 5.0},
    "threads": 2,
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = dict(SCAN_CONFIG)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestExperimentConfig:
    def test_unknown_field_rejected(self, tmp_path):
        from repnorm.errors import PreconditionError
        path = write_config(tmp_path, typo_field=1)
        with pytest.raises(PreconditionError):
            ExperimentConfig.load(path)

    def test_unknown_scan_field_rejected(self, tmp_path):
        from repnorm.errors import PreconditionError
        path = write_config(tmp_path, scan={"step": 0.1})
        with pytest.raises(PreconditionError):
            ExperimentConfig.load(path)

    def test_geometric_range(self, tmp_path):
        path = write_config(
            tmp_path,
            n_values={"geometric": {"start": 16, "stop": 128, "factor": 2}})
        cfg = ExperimentConfig.load(path)
        assert cfg.resolved_n_values() == [16.0, 32.0, 64.0, 128.0]

    def test_bad_geometric_range(self, tmp_path):
        from repnorm.errors import PreconditionError
        path = write_config(
            tmp_path, n_values={"geometric": {"start": 16, "stop": 8}})
        with pytest.raises(PreconditionError):
            ExperimentConfig.load(path).resolved_n_values()


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

    def test_integer_index_enforced_off_discrete(self, capsys):
        assert main(["coef", "--rep", "principal:0:-0.5+1i",
                     "--m", "0", "--n", "2.5", "--x", "0.5"]) == 2

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
        assert main(["coef", "--rep", "principal:0:-0.5+1i", "--n", "128",
                     "--m", "-128", "--x", "0.9999"]) == 3
        assert capsys.readouterr().out == ""

    def test_bad_rep_descriptor(self, capsys):
        assert main(["coef", "--rep", "spherical:1", "--m", "0",
                     "--n", "1", "--x", "0.5"]) == 2


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
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg_a = write_config(tmp_path, "a.json", output_path=str(a_csv),
                             threads=1)
        cfg_b = write_config(tmp_path, "b.json", output_path=str(b_csv),
                             threads=3)
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

    def test_unread_fields_rejected(self, tmp_path, capsys):
        for field in ("m", "epsilon"):
            cfg = write_config(tmp_path, output_path=str(tmp_path / "s.csv"),
                               **{field: 7})
            assert main(["norm-scan", str(cfg)]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["norm-scan", "/no/such/config.json"]) == 2

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, typo_field=1)
        assert main(["norm-scan", str(cfg)]) == 2

    def test_threads_env_override(self, tmp_path, capsys, monkeypatch):
        from repnorm.cli import _threads_from
        monkeypatch.setenv("REPNORM_THREADS", "5")
        assert _threads_from(1) == 5
        monkeypatch.delenv("REPNORM_THREADS")
        assert _threads_from(2) == 2


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

    def test_empty_index_list_prints_header_only(self, capsys):
        assert main(["integral", "--rep", "principal:0:-0.5",
                     "--eps", "0.25"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


class TestConstantsCommand:
    def test_table_contents(self, capsys):
        rc = main(["constants", "so(1,3)", "su(1,2)", "f4m20",
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


class TestAcceptanceCommand:
    def test_config_validation_path(self, tmp_path, capsys):
        path = tmp_path / "acc.json"
        path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["acceptance", str(path)]) == 2

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
                            lambda threads, seed, tolerances: fake)
        report = tmp_path / "report.json"
        assert main(["acceptance", "--output", str(report)]) == 1
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert [rec["pass"] for rec in doc] == [False, True]
        out = capsys.readouterr().out
        assert "1/2 criteria passed" in out

    def test_zero_tolerance_forces_failure(self):
        from repnorm import acceptance
        rec = acceptance.criterion_1(acceptance.DEFAULT_SEED, tol=0.0)
        assert rec.passed is False
