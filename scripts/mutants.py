#!/usr/bin/env python3
"""Run the tier-1 tests against each mutant of a committed catalogue, and report the survivors.

A mutant replaces one exact text of one source file. Each runs in a fresh
copy of what the tests read (``src``, ``tests``, ``scripts``, ``bench``
and ``pyproject.toml``) with ``PYTHONDONTWRITEBYTECODE=1``: two mutants of
one constant can leave files of one size written within one second, and a
kept ``.pyc`` would then run the earlier mutant's code. The tests run with ``-x``, so a killed mutant
is named with its first failing test.

    python scripts/mutants.py

Prints one line per mutant and exits 1 if any survives, or if a mutant's
text no longer occurs exactly once in its file. Not part of tier-1: each
mutant runs the suite up to its first failure, up to half a minute.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str


CATALOGUE = (
    Mutant(
        "src/pointerlab/engine.py",
        "moved = _translated_spectra(state.pointers[p], kicks[p])",
        "moved = _translated_spectra(state.pointers[p], -kicks[p])",
        "row kicks reversed in sign: each kick row is its packet translated the wrong way",
    ),
    Mutant(
        "src/pointerlab/engine.py",
        "kicks[p] = np.array(list(slots))",
        "kicks[p] = np.array(list(slots))[::-1]",
        "merged kicks reordered: the rows no longer match their summed cores",
    ),
    Mutant(
        "src/pointerlab/separability.py",
        "weights = w * _squared_norms(rows[p])[:, None] * _squared_norms(vectors)",
        "weights = w * _squared_norms(rows[p])[:, None]",
        "sequential weights without the norms of each group's combined rows",
    ),
    Mutant(
        "src/pointerlab/separability.py",
        "BRANCH_TOL = 1e-12",
        "BRANCH_TOL = 1e-3",
        "BRANCH_TOL at 1e-3: Gram entries far above roundoff count as zero",
    ),
    Mutant(
        "src/pointerlab/separability.py",
        "signs = np.repeat((1.0, -1.0), (columns.shape[1], target.shape[1]))",
        "signs = np.repeat((1.0, 1.0), (columns.shape[1], target.shape[1]))",
        "_record_distance adds the state to the mixture instead of subtracting it",
    ),
    Mutant(
        "src/pointerlab/separability.py",
        "columns = columns.T * np.sqrt(route.weights)",
        "columns = columns.T * route.weights",
        "_record_distance weighs each term's column by its weight, not its square root",
    ),
    Mutant(
        "src/pointerlab/engine.py",
        "core = _branch_sum(form.core, [r.T for _, r in qrs])",
        "core = _branch_sum(form.core, [r for _, r in qrs])",
        "tucker contracts the branch core with R_p instead of its transpose",
    ),
    Mutant(
        "src/pointerlab/engine.py",
        "qrs = _qr_each([rows.T for rows in form.factors])",
        "qrs = _qr_each([rows.T[::-1] for rows in form.factors])",
        "tucker takes its bases from the rows mirrored on the grid",
    ),
    Mutant(
        "src/pointerlab/separability.py",
        "    if dl * dr < full:\n        low = min(low, 0.0)\n",
        "",
        "the witness reads a record smaller than the grids without the zeros it leaves out",
    ),
    Mutant(
        "src/pointerlab/separability.py",
        "bound += (2.0 + tail) * tail",
        "bound += 0.0",
        "the witness leaves a window form's tail out of its Weyl bound",
    ),
)

# the first failing (or erroring) test of the short summary that -rfE prints
SUMMARY = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def first_failure(mutant: Mutant) -> str | None:
    """The first test that fails on ``mutant``, in a fresh copy of the tree, or None."""
    source = (ROOT / mutant.file).read_text()
    if source.count(mutant.old) != 1:
        sys.exit(f"{mutant.file}: {mutant.old!r} does not occur exactly once")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests", "scripts", "bench"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        (copy / mutant.file).write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
        run = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    found = SUMMARY.search(run.stdout)
    if run.returncode != 1 or found is None:
        sys.exit(f"pytest exited {run.returncode} on {mutant.why!r}:\n{run.stdout[-2000:]}")
    return found.group(1)


def main() -> int:
    survivors = []
    for mutant in CATALOGUE:
        failure = first_failure(mutant)
        if failure is None:
            survivors.append(mutant)
            print(f"SURVIVED  {mutant.why}", flush=True)
        else:
            print(f"killed    {mutant.why}\n          by {failure}", flush=True)
    print(f"{len(CATALOGUE) - len(survivors)}/{len(CATALOGUE)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
