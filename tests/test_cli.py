"""Command line interface: formats, exit codes, config precedence."""

import csv
import json

import pytest

from pointerlab.cli import main

REPORT_KEYS = {
    "scenario",
    "config",
    "readouts",
    "predictions",
    "defects",
    "checks",
    "readability",
    "schmidt",
    "purity",
    "pass",
    "notes",
    "runtime_seconds",
}


def _read_kv_csv(path):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["key", "value"]
    return dict(rows[1:])


def _read_table_csv(path):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestList:
    def test_lists_every_scenario(self, capsys):
        assert main(["scenario", "list"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert len(lines) == 7
        names = {line.split()[0] for line in lines}
        assert "weak-noselect" in names
        assert "epr" in names


class TestRun:
    def test_json_report_file(self, tmp_path, capsys):
        out = tmp_path / "epr.json"
        assert main(["scenario", "run", "epr", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "pass" in captured.out
        report = json.loads(out.read_text())
        assert set(report) == REPORT_KEYS
        assert report["pass"] is True
        assert report["scenario"] == "epr"

    def test_csv_report_round_trips_floats(self, tmp_path):
        out = tmp_path / "report.csv"
        assert (
            main(["scenario", "run", "weak-noselect", "--format", "csv", "--out", str(out)])
            == 0
        )
        flat = _read_kv_csv(out)
        assert flat["pass"] == "true"
        # 17 significant digits reproduce the double exactly
        assert abs(float(flat["readouts.mean_a"]) - 0.1) < 1e-8
        assert flat["config.grid_profile"] == "fine"

    def test_failing_check_exits_two(self, tmp_path, capsys):
        # coarse grid readout misses the 1e-8 gate at this coupling
        code = main(
            [
                "scenario",
                "run",
                "weak-noselect",
                "--profile",
                "coarse",
                "--thetaI",
                "0",
                "--gA",
                "0.3",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "FAIL" in err
        assert "readout_matches_average" in err

    def test_unknown_scenario_exits_one(self, capsys):
        assert main(["scenario", "run", "weak-unselect"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_flag_value_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "run", "epr", "--gA", "strong"])
        assert excinfo.value.code == 1

    def test_nonfinite_flag_value_exits_one(self, capsys):
        assert main(["scenario", "run", "weak-noselect", "--gA", "nan"]) == 1
        err = capsys.readouterr().err
        assert "coupling strength must be finite, got nan" in err
        assert "converge" not in err

    def test_nonfinite_angle_named(self, capsys):
        assert main(["scenario", "run", "weak-noselect", "--thetaI", "nan"]) == 1
        err = capsys.readouterr().err
        assert "theta_i: Bloch angle must be finite, got nan" in err
        assert "norm" not in err

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("gA = 0.3  # file value loses to the flag\nsigma = 1.0\n")
        out = tmp_path / "r.json"
        code = main(
            [
                "scenario",
                "run",
                "weak-noselect",
                "--config",
                str(cfg),
                "--gA",
                "0.2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["g_a"] == 0.2

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("coupling = 0.3\n")
        assert main(["scenario", "run", "weak-noselect", "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err


class TestSweep:
    def test_log_sweep_defect_grows_with_coupling(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "weak-postselect",
                "--param",
                "gA",
                "--start",
                "1e-3",
                "--stop",
                "1e-1",
                "--steps",
                "5",
                "--log",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = _read_table_csv(out)
        assert len(rows) == 5
        values = [float(row["gA"]) for row in rows]
        assert values[0] == pytest.approx(1e-3)
        assert values[-1] == pytest.approx(1e-1)
        ratios = [values[i + 1] / values[i] for i in range(4)]
        assert ratios == pytest.approx([ratios[0]] * 4, rel=1e-9)
        # the first-order readout formula degrades quadratically with gA
        defects = [float(row["defects.normalized_mean_a"]) for row in rows]
        assert defects == sorted(defects)
        assert defects[-1] > 100 * defects[0]

    def test_failing_steps_recorded_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "weak-noselect",
                "--param",
                "x0A",
                "--start",
                "0",
                "--stop",
                "1.5",
                "--steps",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "steps failed" in capsys.readouterr().err
        rows = _read_table_csv(out)
        assert len(rows) == 4
        errored = [row for row in rows if row["error"]]
        # packets centered too close to the box edge are refused up front
        assert len(errored) == 2
        assert all("out-of-box mass" in row["error"] for row in errored)

    def test_non_numeric_param_rejected(self, capsys):
        code = main(
            [
                "sweep",
                "weak-noselect",
                "--param",
                "profile",
                "--start",
                "0",
                "--stop",
                "1",
                "--steps",
                "2",
            ]
        )
        assert code == 1
        assert "cannot sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "start, stop, jobs, message",
        [
            ("nan", "0.2", "1", "--start must be finite, got nan"),
            ("0.1", "inf", "1", "--stop must be finite, got inf"),
            ("0.1", "0.2", "0", "--jobs must be at least 1, got 0"),
            ("0.1", "0.2", "-3", "--jobs must be at least 1, got -3"),
        ],
    )
    def test_bad_sweep_flags_exit_one(self, start, stop, jobs, message, capsys):
        argv = ["sweep", "weak-noselect", "--param", "gA", "--steps", "2"]
        argv += ["--start", start, "--stop", stop, "--jobs", jobs]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = [
            "sweep",
            "weak-noselect",
            "--param",
            "gA",
            "--start",
            "0.1",
            "--stop",
            "0.3",
            "--steps",
            "3",
        ]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--jobs", "3", "--out", str(parallel)]) == 0
        strip = lambda rows: [
            {k: v for k, v in row.items() if k != "runtime_seconds"} for row in rows
        ]
        assert strip(_read_table_csv(serial)) == strip(_read_table_csv(parallel))
