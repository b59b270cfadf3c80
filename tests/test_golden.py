"""The seven default reports against a frozen golden copy.

``tests/golden/default_reports.json`` holds every scenario's default report
as JSON, with ``runtime_seconds`` removed, written at one BLAS thread.
Key order, strings, booleans and integers must match exactly. Floats, and
any number inside a string such as a note, must match to GOLDEN_TOL
absolute: reports at one and two BLAS threads differ by about 2e-14, and a
note that prints a roundoff-level error to four digits moves in its third.

The file was written with numpy 2.4.6 on OpenBLAS 0.3.31
(scipy-openblas64, DYNAMIC_ARCH, Haswell kernels) at one BLAS thread, one
report at a time as each change moved it. The command below prints every
report as the code now stands:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -c 'import json; from pointerlab import SCENARIOS, run_scenario; reports = {n: run_scenario(n).to_dict() for n in SCENARIOS}; [r.pop("runtime_seconds") for r in reports.values()]; print(json.dumps(reports, indent=2))'

Redirecting all of it into the file rewrites the reports no change meant
to move at roundoff, within GOLDEN_TOL, about 75 lines with the versions
above. So a change meant to move one report is edited in by hand: copy
only that report's moved values from the command's output, and list them
in ``CHANGES.md``.
"""

import json
import re
from pathlib import Path

import pytest

GOLDEN = json.loads((Path(__file__).parent / "golden" / "default_reports.json").read_text())
GOLDEN_TOL = 1e-12
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _differences(path: str, got, want) -> list[str]:
    """Every place where ``got`` departs from ``want``, as readable lines."""
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} {got!r} vs {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} vs {list(want)}"]
        return [d for k in want for d in _differences(f"{path}.{k}", got[k], want[k])]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} vs {len(want)}"]
        pairs = enumerate(zip(got, want))
        return [d for i, (g, w) in pairs for d in _differences(f"{path}[{i}]", g, w)]
    if isinstance(want, float):
        return [] if abs(got - want) <= GOLDEN_TOL else [f"{path}: {got!r} vs {want!r}"]
    if isinstance(want, str):
        got_numbers, want_numbers = NUMBER.findall(got), NUMBER.findall(want)
        same_text = NUMBER.split(got) == NUMBER.split(want)
        close = len(got_numbers) == len(want_numbers) and all(
            abs(float(g) - float(w)) <= GOLDEN_TOL
            for g, w in zip(got_numbers, want_numbers)
        )
        return [] if same_text and close else [f"{path}: {got!r} vs {want!r}"]
    return [] if got == want else [f"{path}: {got!r} vs {want!r}"]


def test_golden_covers_every_scenario(default_reports):
    assert list(GOLDEN) == list(default_reports)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_default_report_matches_golden(name, default_reports):
    report = json.loads(json.dumps(default_reports[name].to_dict()))
    report.pop("runtime_seconds")
    assert _differences(name, report, GOLDEN[name]) == []


def test_comparison_catches_departures():
    want = {"a": 1.0, "b": "error 6.503e-16", "c": [True, 2]}
    close = {"a": 1.0 + 1e-13, "b": "error 6.51e-16", "c": [True, 2]}
    assert _differences("r", close, want) == []
    assert _differences("r", {**want, "a": 1.0 + 1e-11}, want)
    assert _differences("r", {**want, "b": "error 7.0e-12"}, want)
    assert _differences("r", {**want, "b": "fault 6.503e-16"}, want)
    assert _differences("r", {**want, "c": [True, 2.0]}, want)
    assert _differences("r", {**want, "c": [1, 2]}, want)
    assert _differences("r", {"b": "error 6.503e-16", "a": 1.0, "c": [True, 2]}, want)
