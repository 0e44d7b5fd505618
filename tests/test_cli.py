import csv
import json

import pytest

from aelab.cli import main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
    with open(path) as fh:
        comments = [line[2:].strip() for line in fh if line.startswith("#")]
    return comments, rows


class TestBreakeven:
    def test_value(self, capsys):
        assert run_cli("breakeven", "0.01") == 0
        out = capsys.readouterr().out
        assert 68.0 <= float(out.strip()) <= 70.0

    def test_half(self, capsys):
        assert run_cli("breakeven", "0.5") == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, rel=1e-12)

    def test_zero_is_usage_error(self):
        assert run_cli("breakeven", "0") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("breakeven", "--bogus") == 1


class TestFisherCurves:
    def test_single_qubit_series_coincide(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert (
            run_cli(
                "fisher-curves",
                "--n-qubits",
                "1",
                "--nq-max",
                "50",
                "--nq-points",
                "50",
                "--out",
                str(out),
            )
            == 0
        )
        _, rows = read_csv(out)
        series = {}
        for row in rows:
            series.setdefault(row["series_label"], []).append(float(row["value"]))
        g_env = series["envelope[g]@n=1"]
        q_env = series["envelope[q]@n=1"]
        qfi = series["quantum@n=1"]
        for a, b, c in zip(g_env, q_env, qfi):
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(c, rel=1e-12)

    def test_infinite_size_envelope_equals_quantum(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run_cli("fisher-curves", "--n-qubits", "inf", "--nq-max", "300",
                       "--nq-points", "300", "--out", str(out)) == 0
        _, rows = read_csv(out)
        series = {}
        for row in rows:
            series.setdefault(row["series_label"], []).append(float(row["value"]))
        for a, b in zip(series["envelope[q]@n=inf"], series["quantum@n=inf"]):
            assert a == pytest.approx(b, rel=1e-12)

    def test_default_envelope_peak_in_data(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run_cli("fisher-curves", "--n-qubits", "inf", "--methods", "g",
                       "--out", str(out)) == 0
        _, rows = read_csv(out)
        env = [
            (float(r["n_q"]), float(r["value"]))
            for r in rows
            if r["series_label"] == "envelope[g]@n=inf"
        ]
        n_star, peak = max(env, key=lambda t: t[1])
        assert peak == pytest.approx(5359.2, rel=1e-3)
        assert abs(n_star - 99.5) < 1.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "curves.json"
        assert run_cli("fisher-curves", "--n-qubits", "1", "--nq-max", "5",
                       "--nq-points", "5", "--format", "json", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"metadata", "rows"}
        assert payload["metadata"]["command"] == "fisher-curves"
        assert payload["rows"][0].keys() == {"n_q", "value", "series_label"}

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert run_cli("fisher-curves", "--nq-points", "0",
                       "--out", str(tmp_path / "x.csv")) == 1

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fisher-curves", "--n-qubits", "1,100,inf", "--nq-max", "400", "--nq-points", "200"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_small_run_and_filter(self, tmp_path):
        out = tmp_path / "rmse.csv"
        code = run_cli(
            "simulate", "--targets", "1/3", "--rounds", "5", "--reps", "3",
            "--methods", "g", "--seed", "9", "--out", str(out),
        )
        assert code == 0
        comments, rows = read_csv(out)
        assert any(c.startswith("seed=9") for c in comments)
        assert {r["method"] for r in rows} == {"g"}
        assert len(rows) == 5
        assert [int(r["prefix"]) for r in rows] == [1, 2, 3, 4, 5]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--targets", "1/6", "--rounds", "6", "--reps", "4", "--seed", "33"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"targets": "1/3", "rounds": 4, "reps": 2, "methods": "g"}))
        out = tmp_path / "out.csv"
        # CLI flag overrides the file value; file overrides the default
        assert run_cli("simulate", "--config", str(cfg), "--rounds", "3",
                       "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert {r["method"] for r in rows} == {"g"}

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 1

    def test_json_format(self, tmp_path):
        out = tmp_path / "rmse.json"
        assert run_cli("simulate", "--targets", "1/3", "--rounds", "4", "--reps", "2",
                       "--methods", "q", "--format", "json", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["command"] == "simulate"
        assert all(row["method"] == "q" for row in payload["rows"])


    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rmse.csv"
        assert run_cli("simulate", "--seed", "-1", "--out", str(out)) == 1
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_unresolvable_schedule_is_refused(self, tmp_path, capsys):
        out = tmp_path / "rmse.csv"
        assert run_cli("simulate", "--r", "1", "--n-qubits", "inf", "--rounds", "72",
                       "--reps", "1", "--targets", "1/3", "--methods", "g",
                       "--out", str(out)) == 1
        assert "largest supported query count" in capsys.readouterr().err
        assert not out.exists()


class TestOracleVerify:
    ARGS = ("oracle-verify", "--n-qubits", "1,2", "--m-values", "0,1,2",
            "--r-values", "1,0.9", "--seeds", "2")

    def test_reduced_grid_passes(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert run_cli(*self.ARGS, "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 3 * 2 * 2 * 2
        assert all(r["status"] == "pass" for r in rows)

    def test_fault_injection_fails(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run_cli(*self.ARGS, "--selftest-perturb-r", "1e-3", "--out", str(out))
        assert code == 2
        _, rows = read_csv(out)
        assert any(r["status"].startswith("FAIL") for r in rows)

    def test_oversized_register_is_usage_error(self, tmp_path):
        assert run_cli("oracle-verify", "--n-qubits", "9",
                       "--out", str(tmp_path / "v.csv")) == 1

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*self.ARGS, "--out", str(a)) == 0
        assert run_cli(*self.ARGS, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--m-values", ""), ("--seeds", "0"), ("--n-qubits", "")])
    def test_empty_grid_is_usage_error(self, tmp_path, capsys, flag, value):
        # zero cases verify nothing, so they must not read as a pass
        out = tmp_path / "v.csv"
        assert run_cli("oracle-verify", flag, value, "--out", str(out)) == 1
        assert "grid is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert run_cli("oracle-verify", "--m-values", "-1", "--out", str(out)) == 1
        assert "got -1" in capsys.readouterr().err
        assert not out.exists()
