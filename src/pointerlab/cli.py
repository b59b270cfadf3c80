"""Command-line front end.

Three commands:

* ``pointerlab scenario list`` prints the scenario names and what each one
  demonstrates;
* ``pointerlab scenario run NAME`` runs one scenario, writes the full
  report as JSON (or flat CSV) and prints a one-line verdict to stderr;
* ``pointerlab sweep NAME --param gA --start ... --stop ... --steps N``
  reruns a scenario along one numeric axis and writes a CSV table, one row
  per step, continuing past failing steps.

Exit codes: 0 when every check passed, 1 for configuration or usage
errors, 2 when a scenario ran but some check (or sweep step) failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from functools import cache
from pathlib import Path
from typing import Any, Sequence

from .scenarios import SCENARIOS, ScenarioConfig, get_scenario, run_scenario

# CLI flag name -> (ScenarioConfig field, parser), from each field's metadata
_FLAG_FIELDS: dict[str, tuple[str, Any]] = {
    f.metadata["flag"]: (f.name, type(f.default)) for f in fields(ScenarioConfig)
}
_SWEEPABLE = {name for name, (_, parser) in _FLAG_FIELDS.items() if parser is float}


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with code 1 instead of 2."""

    def error(self, message: str):
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use; each parse makes a fresh namespace."""
    parser = _Parser(prog="pointerlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser("scenario", help="list or run measurement scenarios")
    scen_sub = scenario.add_subparsers(dest="action", required=True)
    scen_sub.add_parser("list", help="print available scenarios")

    run = scen_sub.add_parser("run", help="run one scenario")
    _add_config_flags(run)
    run.add_argument("--out", type=Path, help="write the report to this file")
    run.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )

    sweep = sub.add_parser("sweep", help="rerun a scenario along one parameter")
    _add_config_flags(sweep)
    sweep.add_argument("--param", required=True, help="flag name to sweep, e.g. gA")
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument(
        "--log", action="store_true", help="space the steps geometrically"
    )
    sweep.add_argument("--out", type=Path, help="write the CSV table to this file")
    return parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", help="scenario name, see 'scenario list'")
    parser.add_argument(
        "--config", type=Path, help="key=value file applied before the flags"
    )
    for flag, (_, kind) in _FLAG_FIELDS.items():
        parser.add_argument(f"--{flag}", type=kind, default=None)


def _config_from_file(path: Path) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FLAG_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        field, kind = _FLAG_FIELDS[key]
        try:
            values[field] = kind(value)
            ScenarioConfig(**{field: values[field]})
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = get_scenario(args.name).defaults
    if args.config is not None:
        cfg = replace(cfg, **_config_from_file(args.config))
    overrides = {}
    for flag, (field, _) in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    return replace(cfg, **overrides) if overrides else cfg


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def _flatten(prefix: str, value: Any, into: dict[str, str]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, into)
    else:
        into[prefix] = _fmt(value)


def _write_report(report_dict: dict, out: Path | None, fmt: str) -> None:
    if fmt == "json":
        with _output(out) as handle:
            handle.write(json.dumps(report_dict, indent=2) + "\n")
        return
    flat: dict[str, str] = {}
    _flatten("", report_dict, flat)
    _write_csv(["key", "value"], list(flat.items()), out)


def _output(out: Path | None):
    """A text handle on the file ``out``, or on stdout when no file is given."""
    return nullcontext(sys.stdout) if out is None else out.open("w", newline="")


def _write_csv(header: list[str], rows: list, out: Path | None) -> None:
    with _output(out) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_list() -> int:
    width = max(len(name) for name in SCENARIOS)
    for name, scenario in SCENARIOS.items():
        print(f"{name:<{width}}  {scenario.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    report = run_scenario(args.name, cfg)
    _write_report(report.to_dict(), args.out, args.format)
    failed = [name for name, ok in report.checks.items() if not ok]
    if failed:
        print(
            f"scenario {args.name}: FAIL ({', '.join(failed)}) "
            f"in {report.runtime_seconds:.2f}s",
            file=sys.stderr,
        )
        return 2
    print(
        f"scenario {args.name}: pass ({len(report.checks)} checks, "
        f"{report.runtime_seconds:.2f}s)",
        file=sys.stderr,
    )
    return 0


def _sweep_values(args: argparse.Namespace) -> list[float]:
    for flag in ("start", "stop"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ValueError(f"--{flag} must be finite, got {value!r}")
    if args.steps < 1:
        raise ValueError("sweep needs at least one step")
    if args.log and (args.start <= 0 or args.stop <= 0):
        raise ValueError("geometric spacing needs positive endpoints")
    if args.steps == 1:
        return [args.start]
    if args.log:
        ratio = (args.stop / args.start) ** (1.0 / (args.steps - 1))
        return [args.start * ratio**i for i in range(args.steps)]
    step = (args.stop - args.start) / (args.steps - 1)
    return [args.start + step * i for i in range(args.steps)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in _SWEEPABLE:
        raise ValueError(
            f"cannot sweep {args.param!r}; numeric flags are "
            f"{', '.join(sorted(_SWEEPABLE))}"
        )
    base = _resolve_config(args)
    field = _FLAG_FIELDS[args.param][0]
    values = _sweep_values(args)

    def run_step(step: int, value: float) -> dict[str, str]:
        row: dict[str, str] = {"step": str(step), args.param: _fmt(value)}
        try:
            report = run_scenario(args.name, replace(base, **{field: value}))
        except Exception as exc:  # a failing step is recorded, not fatal
            row["error"] = str(exc)
            row["pass"] = "false"
            return row
        payload = report.to_dict()
        del payload["config"]
        _flatten("", payload, row)
        row["error"] = ""
        return row

    rows = [run_step(i, v) for i, v in enumerate(values)]
    columns = list(dict.fromkeys(key for row in rows for key in row))
    _write_csv(columns, [[row.get(col, "") for col in columns] for row in rows], args.out)

    bad = [row for row in rows if row.get("pass") != "true" or row.get("error")]
    if bad:
        print(f"sweep {args.name}: {len(bad)}/{len(rows)} steps failed", file=sys.stderr)
        return 2
    print(f"sweep {args.name}: {len(rows)} steps, all checks passed", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scenario":
            if args.action == "list":
                return _cmd_list()
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, KeyError, OSError) as exc:
        print(f"pointerlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
