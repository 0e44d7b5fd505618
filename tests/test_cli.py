import csv
import inspect
import json

import pytest

import aelab.cli
from aelab.cli import main
from aelab.estimator import ExperimentConfig
from aelab.refsim import run_equivalence_suite


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

    def test_overflowing_break_even_is_usage_error(self, capsys):
        assert run_cli("breakeven", "1e-320") == 1
        assert "beyond the largest float" in capsys.readouterr().err

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

    @pytest.mark.parametrize("grid", [("--nq-max", "0.5"), ("--nq-max", "1", "--nq-points", "2")],
                             ids=["decreasing", "repeated-point"])
    def test_non_increasing_grid_is_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        assert run_cli("fisher-curves", *grid, "--out", str(out)) == 1
        assert "strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_no_amplification_reference(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run_cli("fisher-curves", "--n-qubits", "inf", "--nq-max", "100", "--nq-points", "3",
                       "--out", str(out)) == 0
        _, rows = read_csv(out)
        values = [float(r["value"]) for r in rows if r["series_label"] == "no-amplification@n=inf"]
        assert values == pytest.approx([4 * 0.99**2] * 3)

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
        assert "master_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [("--rounds", "5000"), ("--base", "1e300", "--rounds", "4"), ("--rounds", "3893")],
        ids=["rounds-past-float", "base-past-float", "rounds-past-int64"],
    )
    def test_overflowing_schedule_is_usage_error(self, tmp_path, capsys, flags):
        # refused with the config, before any cell runs, not as a traceback from the schedule builder
        out = tmp_path / "rmse.csv"
        assert run_cli("simulate", *flags, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
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

    def test_fault_injection_pins_status_and_fail_lines(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = run_cli("oracle-verify", "--n-qubits", "1", "--m-values", "0,1", "--r-values", "1,0.5", "--seeds", "1",
                       "--selftest-perturb-r", "0.01", "--out", str(out))
        assert code == 2
        _, rows = read_csv(out)
        assert [r["status"] for r in rows] == [
            "FAIL: probability dev 2.599e-03; qfi rel dev 1.497e-02; cfi rel dev 2.707e-02",
            "pass",
            "FAIL: probability dev 1.300e-03; qfi rel dev 1.662e-02; cfi rel dev 2.131e-02",
            "pass",
            "FAIL: probability dev 1.481e-02; qfi rel dev 4.433e-02; cfi rel dev 9.282e-01",
            "FAIL: probability dev 4.038e-04; qfi rel dev 2.975e-02; cfi rel dev 3.850e-02",
            "FAIL: probability dev 1.852e-03; qfi rel dev 5.540e-02; cfi rel dev 5.939e-02",
            "FAIL: probability dev 1.009e-04; qfi rel dev 3.557e-02; cfi rel dev 3.915e-02",
        ]
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("FAIL")] == [
            "FAIL method=g n=1 m=0 r=1.0: probability dev 2.599e-03; qfi rel dev 1.497e-02; cfi rel dev 2.707e-02",
            "FAIL method=g n=1 m=0 r=0.5: probability dev 1.300e-03; qfi rel dev 1.662e-02; cfi rel dev 2.131e-02",
            "FAIL method=g n=1 m=1 r=1.0: probability dev 1.481e-02; qfi rel dev 4.433e-02; cfi rel dev 9.282e-01",
            "FAIL method=q n=1 m=1 r=1.0: probability dev 4.038e-04; qfi rel dev 2.975e-02; cfi rel dev 3.850e-02",
            "FAIL method=g n=1 m=1 r=0.5: probability dev 1.852e-03; qfi rel dev 5.540e-02; cfi rel dev 5.939e-02",
            "FAIL method=q n=1 m=1 r=0.5: probability dev 1.009e-04; qfi rel dev 3.557e-02; cfi rel dev 3.915e-02",
        ]

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


@pytest.mark.parametrize(
    "argv, config, needle",
    [
        pytest.param(["simulate", "--targets", "1/0"], None, "zero denominator", id="targets-1/0"),
        pytest.param(["fisher-curves", "--thetas", "1/0"], None, "zero denominator", id="thetas-1/0"),
        pytest.param(["oracle-verify", "--r-values", "1,1/0"], None, "zero denominator", id="r-values-1/0"),
        pytest.param(["simulate", "--base", "inf"], None, "schedule base", id="base-inf"),
        pytest.param(["simulate", "--base", "nan"], None, "schedule base", id="base-nan"),
        pytest.param(["fisher-curves", "--nq-max", "inf"], None, "must be finite", id="nq-max-inf"),
        pytest.param(["fisher-curves", "--nq-max", "nan"], None, "must be finite", id="nq-max-nan"),
        # finite, but the noiseless series 4*n_q**2 overflows
        pytest.param(["fisher-curves", "--nq-max", "1e300", "--nq-points", "3", "--n-qubits", "1"], None,
                     "must be finite", id="nq-max-overflow"),
        # an empty list flag is refused by name, not read as zero rows or a bad value
        pytest.param(["fisher-curves", "--n-qubits", ","], None, "at least one register size", id="n-qubits-empty"),
        pytest.param(["simulate", "--targets", ","], None, "at least one target is required", id="targets-empty"),
        pytest.param(["simulate", "--methods", "x"], None, "methods must be one of g, q, both", id="methods-x"),
        pytest.param(["simulate"], "5", "JSON object", id="config-number"),
        pytest.param(["oracle-verify"], "[1, 2]", "JSON object", id="config-array"),
    ],
)
def test_malformed_input_is_one_line_usage_error(tmp_path, capsys, argv, config, needle):
    out = tmp_path / "out.csv"
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and needle in err[0]
    assert not out.exists()


class TestConfigFile:
    # (command, config file, command-line flags, the same run given only as flags)
    PRECEDENCE = [
        pytest.param("fisher-curves", {"n_qubits": "1,inf", "nq_points": 40}, ["--nq-points", "30", "--nq-max", "60"],
                     ["--n-qubits", "1,inf", "--nq-points", "30", "--nq-max", "60"], id="fisher-curves"),
        pytest.param("simulate", {"targets": "1/3", "rounds": 6, "reps": 2}, ["--rounds", "4"],
                     ["--targets", "1/3", "--reps", "2", "--rounds", "4"], id="simulate"),
        pytest.param("oracle-verify", {"n_qubits": "1,2", "m_values": "0,1", "seeds": 3}, ["--seeds", "1"],
                     ["--n-qubits", "1,2", "--m-values", "0,1", "--seeds", "1"], id="oracle-verify"),
        # a string value is parsed as the flag's own text would be
        pytest.param("simulate", {"rounds": "4"}, ["--targets", "1/3", "--reps", "2"],
                     ["--targets", "1/3", "--reps", "2", "--rounds", "4"], id="string-value"),
        # and a number as its text: an int for a float flag, a number for a text flag
        pytest.param("fisher-curves", {"nq_max": 50, "n_qubits": 1}, ["--nq-points", "20"],
                     ["--nq-max", "50", "--n-qubits", "1", "--nq-points", "20"], id="number-value"),
    ]

    # values no flag text stands for, or that the flag's type or choices refuse
    BAD_VALUES = [
        pytest.param("simulate", {"rounds": None}, id="rounds-null"),
        pytest.param("simulate", {"rounds": [3]}, id="rounds-list"),
        pytest.param("oracle-verify", {"seeds": True}, id="seeds-true"),
        pytest.param("fisher-curves", {"nq_points": 5.7}, id="nq-points-float"),
        pytest.param("fisher-curves", {"format": "xml"}, id="format-xml"),
        pytest.param("fisher-curves", {"out": None}, id="out-null"),
    ]

    # every key each command accepts, with values that keep the run small
    ALL_KEYS = {
        "fisher-curves": {"r": 0.9, "n_qubits": "1", "thetas": "0.1", "methods": "g", "nq_max": 5.0,
                          "nq_points": 5, "format": "json"},
        "simulate": {"r": 0.9, "n_qubits": "10", "targets": "1/3", "base": 1.5, "rounds": 3, "shots": 10,
                     "reps": 1, "seed": 1, "methods": "q", "format": "json"},
        "oracle-verify": {"n_qubits": "1", "m_values": "0", "r_values": "1", "seeds": 1, "seed": 1,
                          "selftest_perturb_r": 0.0, "format": "json"},
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, config, flags, expected", PRECEDENCE)
    def test_command_line_over_file_over_default(self, tmp_path, command, config, flags, expected, fmt):
        cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.out", tmp_path / "b.out"
        cfg.write_text(json.dumps(config))
        assert run_cli(command, "--config", str(cfg), *flags, "--format", fmt, "--out", str(a)) == 0
        assert run_cli(command, *expected, "--format", fmt, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command, config", BAD_VALUES)
    def test_bad_value_is_one_line_usage_error(self, tmp_path, monkeypatch, capsys, command, config):
        # the default output path is relative, so any file written lands here
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_cli(command, "--config", "cfg.json") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", sorted(ALL_KEYS))
    def test_every_flag_is_a_key(self, tmp_path, command):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(json.dumps({**self.ALL_KEYS[command], "out": str(out)}))
        assert run_cli(command, "--config", str(cfg)) == 0
        assert json.loads(out.read_text())["rows"]

    # (command, a small run that sets flags away from their defaults, its exit status)
    RERUNS = [
        pytest.param("fisher-curves", ["--r", "0.95", "--n-qubits", "1,inf", "--thetas", "0.1,1/7", "--nq-max", "20",
                                       "--nq-points", "7"], 0, id="fisher-curves"),
        pytest.param("simulate", ["--r", "0.97", "--n-qubits", "inf", "--targets", "1/3,1/12", "--base", "1.5",
                                  "--rounds", "4", "--shots", "20", "--reps", "2", "--seed", "5"], 0, id="simulate"),
        # a perturbed simulator fails verification, and its file must say so to rerun it
        pytest.param("oracle-verify", ["--n-qubits", "1", "--m-values", "0,1", "--r-values", "1,0.9", "--seeds", "1",
                                       "--selftest-perturb-r", "0.01"], 2, id="oracle-verify"),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, flags, status", RERUNS)
    def test_metadata_is_a_config_that_reruns(self, tmp_path, command, flags, status, fmt):
        cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.out", tmp_path / "b.out"
        assert run_cli(command, *flags, "--format", fmt, "--out", str(a)) == status
        if fmt == "json":
            meta = json.loads(a.read_text())["metadata"]
        else:
            meta = dict(c.partition("=")[::2] for c in read_csv(a)[0])
        assert meta.pop("tool").startswith("aelab ") and meta.pop("command") == command
        cfg.write_text(json.dumps(meta))
        assert run_cli(command, "--config", str(cfg), "--format", fmt, "--out", str(b)) == status
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("key", ["config", "command", "func", "parser", "help", "n-qubits"])
    def test_non_flag_key_is_refused(self, tmp_path, capsys, key):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({key: "x"}))
        assert run_cli("fisher-curves", "--config", str(cfg), "--out", str(out)) == 1
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not out.exists()


class _Called(Exception):
    pass


class TestLibraryDefaults:
    """The literal text defaults of the flags parse to the library's own defaults."""

    def test_bare_simulate_runs_the_reference_config(self, monkeypatch):
        seen = []

        def fake(config):
            seen.append(config)
            raise _Called

        monkeypatch.setattr(aelab.cli, "run_experiment", fake)
        with pytest.raises(_Called):
            run_cli("simulate")
        assert seen == [ExperimentConfig()]

    def test_bare_oracle_verify_runs_the_default_suite(self, monkeypatch):
        seen = []

        def fake(**kwargs):
            seen.append(kwargs)
            raise _Called

        monkeypatch.setattr(aelab.cli, "run_equivalence_suite", fake)
        with pytest.raises(_Called):
            run_cli("oracle-verify")
        defaults = {k: p.default for k, p in inspect.signature(run_equivalence_suite).parameters.items()}
        assert seen == [defaults]
