"""Command line interface: formats, exit codes, config precedence."""

import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pointerlab
from pointerlab import cli
from pointerlab.cli import main
from pointerlab.pointer import momentum_operator
from pointerlab.scenarios import SCENARIOS, get_scenario

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
        assert "pass" in captured.err
        report = json.loads(out.read_text())
        assert set(report) == REPORT_KEYS
        assert report["pass"] is True
        assert report["scenario"] == "epr"

    def test_stdout_json_report_parses(self, capsys):
        assert main(["scenario", "run", "epr"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert set(report) == REPORT_KEYS
        assert "scenario epr: pass" in captured.err

    def test_stdout_csv_report_has_only_rows(self, capsys):
        assert main(["scenario", "run", "weak-noselect", "--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["key", "value"]
        assert {len(row) for row in rows} == {2}
        assert {key.split(".")[0] for key, _ in rows[1:]} <= REPORT_KEYS
        assert dict(rows[1:])["pass"] == "true"

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
        assert flat["config.grid_points"] == "256"

    def test_failing_check_exits_two(self, tmp_path, capsys):
        # coarse grid readout misses the 1e-8 gate at this coupling
        code = main(
            [
                "scenario",
                "run",
                "weak-noselect",
                "--gridN",
                "16",
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

    @pytest.mark.parametrize(
        "flags, shift",
        [(["--gA", "1e200"], "-1e+200"), (["--gA", "1e308", "--t", "2"], "-inf")],
        ids=["huge", "overflow"],
    )
    def test_leakage_message_stays_one_short_line(self, flags, shift, capsys):
        assert main(["scenario", "run", "weak-noselect", *flags]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert f"pointer 'A': accumulated shift {shift} would put" in err

    @pytest.mark.parametrize("name", ["simultaneous", "weak-orders"])
    def test_containment_message_names_its_box(self, name, capsys):
        """Two-pointer scenarios also build packets on the 16-long analysis grid,
        so a packet the requested 32-long box would hold is refused there, and
        the message says which box that was."""
        argv = ["scenario", "run", name, "--gridN", "256", "--gridL", "32", "--sigma", "1.5"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert "sigma=1.5 is within 6.0 standard deviations" in err
        assert "its box, length 16.0 on 16 points" in err

    def test_leakage_message_stays_short_in_sweep_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "weak-noselect", "--param", "gA", "--start", "1e199"]
        assert main(argv + ["--stop", "1e200", "--steps", "2", "--out", str(out)]) == 2
        rows = _read_table_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row["error"].startswith("pointer 'A': accumulated shift -1e+")
            assert len(row["error"]) < 200

    def test_nonfinite_angle_named(self, capsys):
        assert main(["scenario", "run", "weak-noselect", "--thetaI", "nan"]) == 1
        err = capsys.readouterr().err
        assert "theta_i: Bloch angle must be finite, got nan" in err
        assert "norm" not in err

    def test_packet_underflowing_to_zero_refused(self, capsys):
        """sigma 1e-3 on the 16-point analysis grid, spacing 1, with x0 = 0.3
        between sites: every sample underflows to zero, and the packet is
        refused before it is normalized, with no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scenario", "run", "simultaneous", "--sigma", "1e-3"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert (
            "pointer 'A': packet with sigma=0.001 at x0=0.3 underflows to zero "
            "on 16 points over length 16.0"
        ) in err
        assert "norm" not in err

    @pytest.mark.parametrize("length", ["20000", "1e200"])
    def test_sequential_with_nothing_to_condition_on_refused(self, length, capsys):
        """sigma 1 on a 256-point grid so long that the sampled packets hold no
        probability above x0_b (from 20000), and the engine's none either (at
        1e200): the conditioned readout would divide by zero, so the
        configuration is refused, with no RuntimeWarning; the defaults run."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scenario", "run", "sequential", "--gridL", length]) == 1
            err = capsys.readouterr().err
            assert main(["scenario", "run", "sequential"]) == 0
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert (
            f"sequential: nothing to condition on: at sigma 1.0 the 256-point grid "
            f"of length {float(length)!r} holds no probability above x0_b = 0.0"
        ) in err

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

    @pytest.mark.parametrize(
        "key, value, why",
        [
            ("gridN", "1e3", "invalid literal for int() with base 10: '1e3'"),
            ("gA", "abc", "could not convert string to float: 'abc'"),
            ("gA", "nan", "g_a: coupling strength must be finite, got nan"),
            ("sigma", "inf", "sigma: pointer spread must be finite, got inf"),
        ],
    )
    def test_config_value_error_names_its_place(self, tmp_path, capsys, key, value, why):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# a value the key cannot take\n{key} = {value}\n")
        assert main(["scenario", "run", "weak-noselect", "--config", str(cfg)]) == 1
        assert f"pointerlab: error: {cfg}:2: {key}: {why}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("seed", "1"), ("profile", "coarse")])
    def test_removed_knobs_exit_one(self, key, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "run", "weak-noselect", f"--{key}", value])
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["scenario", "run", "weak-noselect", "--config", str(cfg)]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err


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

    def test_stdout_table_has_rows_of_equal_width(self, capsys):
        argv = ["sweep", "weak-noselect", "--param", "gA", "--steps", "3"]
        assert main(argv + ["--start", "0.1", "--stop", "0.3"]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(captured.out.splitlines()))
        assert len(rows) == 4
        assert len({len(row) for row in rows}) == 1
        assert [row[rows[0].index("pass")] for row in rows[1:]] == ["true"] * 3
        assert "3 steps, all checks passed" in captured.err

    def test_non_numeric_param_rejected(self, capsys):
        code = main(
            [
                "sweep",
                "weak-noselect",
                "--param",
                "gridN",
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
        "start, stop, steps, message",
        [
            ("nan", "0.2", "2", "--start must be finite, got nan"),
            ("0.1", "inf", "2", "--stop must be finite, got inf"),
            ("-0.1", "-0.1", "2", "geometric spacing needs positive endpoints"),
            ("-0.1", "-0.1", "1", "geometric spacing needs positive endpoints"),
        ],
    )
    def test_bad_sweep_flags_exit_one(self, start, stop, steps, message, capsys):
        argv = ["sweep", "weak-noselect", "--param", "gA", "--steps", steps, "--log"]
        argv += ["--start", start, "--stop", stop]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_jobs_flag_removed(self, capsys):
        argv = ["sweep", "weak-noselect", "--param", "gA", "--start", "0.1", "--stop", "0.3"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--steps", "2", "--jobs", "2"])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_single_step_sweep(self, capsys):
        argv = ["sweep", "weak-noselect", "--param", "gA", "--start", "0.1", "--stop", "0.3"]
        assert main(argv + ["--steps", "1"]) == 0
        assert "1 steps, all checks passed" in capsys.readouterr().err

    def test_dense_oracle_takes_the_momentum_norm_once(self, monkeypatch, capsys):
        """||pi||_2 comes from the grid's cached wavenumbers: no 1-norm, no eigensolve of pi."""
        momentum_operator.cache_clear()
        one_norms, eigensolves = [], []
        norm = np.linalg.norm

        def spied_norm(x, ord=None, *args, **kwargs):
            if ord == 1:
                one_norms.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spied_norm)
        for name in ("eigh", "eigvalsh"):

            def spied(a, *args, _original=getattr(np.linalg, name), **kwargs):
                eigensolves.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spied)
        argv = ["sweep", "weak-postselect", "--param", "gA", "--start", "1e-3"]
        assert main(argv + ["--stop", "5e-2", "--steps", "8", "--log"]) == 0
        assert "8 steps, all checks passed" in capsys.readouterr().err
        assert one_norms == []
        assert eigensolves, "the spy saw no eigensolve at all"
        assert (256, 256) not in eigensolves


def _masked(stream: str) -> str:
    """Output with its wall times removed: JSON and CSV fields, and verdict seconds."""
    text = stream.strip()
    if text.startswith("{"):
        report = json.loads(text)
        report.pop("runtime_seconds")
        return json.dumps(report, sort_keys=True)
    if text.startswith("step,"):
        rows = list(csv.DictReader(text.splitlines()))
        return json.dumps([{k: v for k, v in r.items() if k != "runtime_seconds"} for r in rows])
    return re.sub(r"\d+\.\d+s\)", "s)", text)


class TestParserReuse:
    """One parser serves every call in a process; no call sees another's flags."""

    CALLS = (
        ["sweep", "weak-noselect", "--gA", "0.05", "--param", "t", "--start", "0.5"]
        + ["--stop", "1", "--steps", "2"],
        ["scenario", "run", "weak-noselect", "--gA"],
        ["scenario", "run", "weak-noselect"],
    )

    @staticmethod
    def _call(argv, capsys):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, _masked(out.out), _masked(out.err)

    def test_calls_in_sequence_match_calls_alone(self, capsys):
        alone = []
        for argv in self.CALLS:
            cli._build_parser.cache_clear()
            alone.append(self._call(argv, capsys))
        cli._build_parser.cache_clear()
        together = [self._call(argv, capsys) for argv in self.CALLS]
        assert cli._build_parser.cache_info().misses == 1
        assert together == alone
        assert [code for code, _, _ in together] == [0, 1, 0]
        assert "expected one argument" in together[1][2]
        config = json.loads(together[2][1])["config"]
        assert config["g_a"] == get_scenario("weak-noselect").defaults.g_a != 0.05
        assert config["t"] == get_scenario("weak-noselect").defaults.t


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports pointerlab from this checkout."""
    src = str(Path(pointerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_module_entry_point_lists_scenarios():
    proc = _run_python("-m", "pointerlab", "scenario", "list")
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == list(SCENARIOS)


LADDER_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "separability_ladder.py"


class TestSeparabilityLadderScript:
    def test_three_rungs_commuting_control_stays_separable(self):
        proc = _run_python(str(LADDER_SCRIPT), "--rungs", "3")
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.splitlines()
        assert header.split() == ["impulse", "noncommuting", "ppt", "min", "commuting"]
        assert len(rows) == 3
        assert [row.split()[-1] for row in rows] == ["separable"] * 3

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--strongest", "nan"], "finite"),
            (["--strongest", "inf"], "finite"),
            (["--strongest", "2.5"], "box edge"),
            (["--strongest", "-2.5"], "box edge"),
            (["--rungs", "0"], "at least 1"),
            (["--rungs", "-2"], "at least 1"),
        ],
    )
    def test_refuses_bad_ladders_where_they_enter(self, capsys, argv, reason):
        spec = importlib.util.spec_from_file_location("separability_ladder", LADDER_SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and reason in err
