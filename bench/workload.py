"""One workload process: set up, warm up, then time a closed loop of operations.

run.py starts this file in a fresh interpreter with BLAS pinned to one
thread through the process's own environment. One caller runs one
operation at a time; each operation's outputs are checked against
bench/oracles.py before it counts. The process prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

import oracles

OUT_DIR = Path(__file__).resolve().parent / "out"


def serialize(report) -> str:
    """What `scenario run` writes: the report as JSON."""
    return json.dumps(report.to_dict(), indent=2)


def _close(actual: float, expected: float, tol: float) -> bool:
    # NaN-safe: a NaN readout fails.
    return abs(actual - expected) <= tol


class ScenarioSuite:
    """All seven scenarios at their defaults, in an order drawn from the seed."""

    results_per_op = 7

    def __init__(self, rng: random.Random, workdir: Path) -> None:
        from pointerlab import DEFAULTS, run_scenario

        self.rng = rng
        self.defaults = DEFAULTS
        self.run_scenario = run_scenario
        self.names = sorted(DEFAULTS)

    def draw(self) -> list[str]:
        order = list(self.names)
        self.rng.shuffle(order)
        return order

    def run(self, order):
        return [serialize(self.run_scenario(name, self.defaults[name])) for name in order]

    def check(self, order, outputs) -> list[str]:
        problems = []
        for name, text in zip(order, outputs):
            report = json.loads(text)
            cfg = self.defaults[name]
            if report.get("pass") is not True or report.get("error"):
                problems.append(f"{name}: report did not pass")
            if name == "weak-noselect":
                expected = oracles.noselect_mean(
                    cfg.x0_a, cfg.g_a * cfg.t, oracles.bloch(cfg.theta_i, cfg.phi_i)
                )
                if not _close(report["readouts"]["mean_a"], expected, 1e-8):
                    problems.append(f"{name}: mean differs from x0 + g t <sigma_z>")
            elif name == "weak-postselect":
                initial = oracles.bloch(cfg.theta_i, cfg.phi_i)
                final = oracles.bloch(cfg.theta_f, cfg.phi_f)
                impulse = cfg.g_a * cfg.t
                read = report["readouts"]
                defects = [
                    abs(read["normalized_mean_a_half_impulse"]
                        - oracles.postselect_mean(cfg.x0_a, impulse / 2, initial, final)),
                    abs(read["normalized_mean_a"]
                        - oracles.postselect_mean(cfg.x0_a, impulse, initial, final)),
                ]
                if not oracles.shrinks_quadratically([impulse / 2, impulse], defects):
                    problems.append(f"{name}: defect against g t Re(A_w) not quadratic")
            elif name == "epr":
                expected = [
                    p for p in oracles.epr_populations(oracles.pair(cfg.theta_i, cfg.phi_i))
                    if p >= 1e-14
                ]
                weights = sorted(report["readability"].get("weights", []))
                if len(weights) != len(expected) or not all(
                    _close(w, p, 1e-10) for w, p in zip(weights, expected)
                ):
                    problems.append(f"{name}: certificate weights differ from populations")
        return problems


class ReadoutSweep:
    """`pointerlab sweep` of both weak readouts along one gA ladder."""

    results_per_op = 16
    start, stop, steps = 1e-3, 5e-2, 8

    def __init__(self, rng: random.Random, workdir: Path) -> None:
        from pointerlab import cli

        self.rng = rng
        self.main = cli.main
        self.workdir = workdir
        ratio = (self.stop / self.start) ** (1 / (self.steps - 1))
        self.ladder = [self.start * ratio**i for i in range(self.steps)]

    def draw(self) -> tuple[float, float, float, float]:
        while True:
            angles = (
                self.rng.uniform(0.1, math.pi - 0.1),
                self.rng.uniform(0.0, 2 * math.pi),
                self.rng.uniform(0.1, math.pi - 0.1),
                self.rng.uniform(0.0, 2 * math.pi),
            )
            initial, final = oracles.bloch(*angles[:2]), oracles.bloch(*angles[2:])
            if abs(final.conj() @ initial) ** 2 >= 0.1:
                return angles

    def run(self, angles):
        theta_i, phi_i, theta_f, phi_f = (repr(a) for a in angles)
        codes = []
        for name in ("weak-postselect", "weak-noselect"):
            argv = [
                "sweep", name, "--param", "gA", "--log",
                "--start", repr(self.start), "--stop", repr(self.stop),
                "--steps", str(self.steps),
                "--thetaI", theta_i, "--phiI", phi_i,
                "--thetaF", theta_f, "--phiF", phi_f,
                "--t", "1.0", "--x0A", "0.0", "--sigma", "1.0",
                "--out", str(self.workdir / f"{name}.csv"),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(self.main(argv))
        return codes

    def check(self, angles, codes) -> list[str]:
        initial, final = oracles.bloch(*angles[:2]), oracles.bloch(*angles[2:])
        problems = []
        for name, code in zip(("weak-postselect", "weak-noselect"), codes):
            with (self.workdir / f"{name}.csv").open(newline="") as handle:
                rows = list(csv.DictReader(handle))
            if code != 0 or len(rows) != self.steps:
                problems.append(f"{name}: exit code {code}, {len(rows)} rows")
                continue
            impulses = [float(row["gA"]) for row in rows]
            if any(row["pass"] != "true" or row["error"] for row in rows):
                problems.append(f"{name}: a sweep row did not pass")
            if not all(_close(g, want, 1e-12 * want) for g, want in zip(impulses, self.ladder)):
                problems.append(f"{name}: gA column is not the requested ladder")
            if name == "weak-noselect":
                for g, row in zip(impulses, rows):
                    expected = oracles.noselect_mean(0.0, g, initial)
                    if not _close(float(row["readouts.mean_a"]), expected, 1e-8):
                        problems.append(f"{name}: gA={g:.3e} mean differs from g <sigma_z>")
            else:
                defects = [
                    abs(float(row["readouts.normalized_mean_a"])
                        - oracles.postselect_mean(0.0, g, initial, final))
                    for g, row in zip(impulses, rows)
                ]
                if not oracles.shrinks_quadratically(impulses, defects):
                    problems.append(f"{name}: defect against g Re(A_w) not quadratic")
        return problems


class RecordLadder:
    """Three two-dial readability verdicts at one rung of an impulse ladder."""

    results_per_op = 3
    rungs = 12
    weakest, strongest = 1e-3, 1.5

    def __init__(self, rng: random.Random, workdir: Path) -> None:
        import pointerlab as pl

        self.rng = rng
        self.pl = pl
        ratio = (self.strongest / self.weakest) ** (1 / (self.rungs - 1))
        self.ladder = [self.weakest * ratio**i for i in range(self.rungs)]
        self.order: list[float] = []
        grid = pl.PointerGrid(points=16, length=16.0)
        self.specs = [pl.PointerSpec("A", grid), pl.PointerSpec("B", grid)]

    def draw(self) -> tuple[float, float, float]:
        if not self.order:
            self.order = list(self.ladder)
            self.rng.shuffle(self.order)
        theta = self.rng.uniform(0.1, math.pi - 0.1)
        phi = self.rng.uniform(0.0, 2 * math.pi)
        return theta, phi, self.order.pop()

    def run(self, inputs):
        pl = self.pl
        theta, phi, g = inputs
        x, z = pl.pauli(pl.SIGMA_X), pl.pauli(pl.SIGMA_Z)
        cut = (("A",), ("B",))
        initial = pl.build_initial(pl.bloch_state(theta, phi), self.specs)
        commuting = pl.evolve(initial, [pl.Coupling(z, "A", g), pl.Coupling(z, "B", g)])
        sequential = pl.evolve_sequential(initial, pl.Coupling(z, "A", g), pl.Coupling(x, "B", g))
        noncommuting = pl.evolve(initial, [pl.Coupling(x, "A", g), pl.Coupling(z, "B", g)])
        return [
            (state.state.amplitudes, pl.readability_check(state, cut))
            for state in (commuting, sequential, noncommuting)
        ]

    def check(self, inputs, outputs) -> list[str]:
        problems = []
        for kind, (amps, verdict) in zip(("commuting", "sequential"), outputs):
            cert = verdict.certificate
            if verdict.status != "separable" or cert is None:
                problems.append(f"{kind}: verdict {verdict.status}, expected separable")
                continue
            mixture = oracles.product_mixture(
                cert.weights,
                [t.factors["A"].amplitudes for t in cert.terms],
                [t.factors["B"].amplitudes for t in cert.terms],
            )
            if not oracles.trace_distance(mixture, oracles.reduced_apparatus(amps, 2)) <= 1e-8:
                problems.append(f"{kind}: certificate does not reconstruct M^T M*")
        amps, verdict = outputs[2]
        ppt = oracles.ppt_min(amps, 2, 16, 16)
        if verdict.ppt_min is None or not _close(verdict.ppt_min, ppt, 1e-10):
            problems.append(f"noncommuting: ppt_min {verdict.ppt_min} vs {ppt}")
        # Within the comparison tolerance of the threshold either status holds.
        allowed = {"entangled" if ppt < -1e-6 else "inconclusive"}
        if abs(ppt + 1e-6) <= 1e-10:
            allowed = {"entangled", "inconclusive"}
        if verdict.status not in allowed:
            problems.append(f"noncommuting: status {verdict.status} at ppt_min {ppt:.3e}")
        return problems


def _attempt(workload, inputs) -> tuple[float, list[str]]:
    """Run one operation; return the time spent in pointerlab and its failed checks."""
    t0 = time.perf_counter()
    try:
        outputs = workload.run(inputs)
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - t0, [f"raised {exc!r}"]
    took = time.perf_counter() - t0
    try:
        return took, workload.check(inputs, outputs)
    except (KeyError, ValueError, TypeError) as exc:
        return took, [f"output unreadable: {exc!r}"]


WORKLOADS = {
    "scenario-suite": ScenarioSuite,
    "readout-sweep": ReadoutSweep,
    "record-ladder": RecordLadder,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder, {(sys.modules[__name__], "serialize"): "cli.serialize"})

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        rng = random.Random(f"{args.workload}:{args.seed}:{args.part}")
        workload = WORKLOADS[args.workload](rng, Path(tmp))
        _, warm_problems = _attempt(workload, workload.draw())
        if recorder is not None:
            recorder.reset()
        setup_s = time.monotonic() - args.spawned_at

        op_times, failures, results = [], [], 0
        start = time.monotonic()
        while True:
            took, problems = _attempt(workload, workload.draw())
            op_times.append(took)
            if problems:
                failures.append(problems)
            else:
                results += workload.results_per_op
            # Closed loop: stop when one more operation would most likely end
            # more than half an operation past the budget.
            if time.monotonic() - start + took / 2 >= args.seconds:
                break

    print(json.dumps({
        "setup_s": setup_s,
        "op_times": op_times,
        "results": results,
        "failures": failures,
        "warm_problems": warm_problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": recorder.snapshot() if recorder is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
