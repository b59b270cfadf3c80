import numpy as np
import pytest

from pointerlab.scenarios import SCENARIOS, run_scenario
from pointerlab.tensors import DensityMatrix

# Verdict lines collected by the acceptance gate, replayed after the run so
# they survive output capture in any invocation.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def default_reports():
    """Every scenario run once at its default configuration."""
    return {name: run_scenario(name) for name in SCENARIOS}


@pytest.fixture
def matrix_reads(monkeypatch):
    """Dimensions of every density matrix whose ``.matrix`` is read, in order."""
    formed: list[int] = []
    matrix = DensityMatrix.__dict__["matrix"]

    def spied(rho):
        formed.append(rho.dims.total)
        return matrix.__get__(rho, DensityMatrix)

    monkeypatch.setattr(DensityMatrix, "matrix", property(spied))
    return formed


@pytest.fixture
def eigensolve_shapes(monkeypatch):
    """Shapes of the arrays passed to np.linalg.eigh and eigvalsh, in call order."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return shapes


@pytest.fixture
def acceptance_verdict():
    def emit(number: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE C{number} {'PASS' if ok else 'FAIL'} - {name}"
        if detail:
            line = f"{line} [{detail}]"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, f"C{number} {name}: {detail}"

    return emit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES, key=lambda s: int(s.split()[1][1:])):
            terminalreporter.write_line(line)
