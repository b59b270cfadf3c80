"""Benchmark for pointerlab: three workloads, end-to-end or per-layer figures.

    python3 bench/run.py --workload record-ladder --seed 1 --seconds 20 --trace 0

Runs from the repository root. Each run starts SETUP_ROUNDS fresh workload
processes one after another (bench/workload.py), each with OpenBLAS, OpenMP
and MKL pinned to one thread in its own environment, and splits the timed
budget between them. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("scenario-suite", "readout-sweep", "record-ladder")
# Fresh processes per run; set-up is measured in each and reported as the median.
SETUP_ROUNDS = 2
# A run must end within 180 s; each process gets its share of what is left.
RUN_DEADLINE_S = 170.0
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child(args: argparse.Namespace, part: int, seconds: float, timeout: float) -> dict:
    src = str(ROOT / "src")
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
        "--seconds", repr(seconds), "--trace", str(args.trace),
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        argv + ["--spawned-at", repr(spawned)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pointerlab" / "__init__.py").is_file():
        print(f"bench: no pointerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    parts = []
    try:
        for part in range(SETUP_ROUNDS):
            left = RUN_DEADLINE_S - (time.monotonic() - began)
            timeout = left / (SETUP_ROUNDS - part)
            parts.append(_child(args, part, args.seconds / SETUP_ROUNDS, timeout))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 3

    op_times = [t for p in parts for t in p["op_times"]]
    failures = [f for p in parts for f in p["failures"]]
    for problems in failures[:5]:
        print(f"bench: failed operation: {'; '.join(problems)}", file=sys.stderr)
    warm_problems = [w for p in parts for w in p["warm_problems"]]
    for problem in warm_problems:
        print(f"bench: warm-up operation: {problem}", file=sys.stderr)

    if args.trace:
        metrics = spans.layer_metrics([p["spans"] for p in parts], len(op_times))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in parts), "unit": "s"},
            "op_s.p50": {"value": statistics.median(op_times), "unit": "s"},
            "results_per_s": {
                "value": sum(p["results"] for p in parts) / sum(op_times), "unit": "1/s"
            },
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in parts), "unit": "MB"},
        }
    result = {
        "correct": not failures and not warm_problems,
        "attempted": len(op_times),
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    raw = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"args": vars(args), "parts": parts, "result": result}) + "\n")
    print(
        f"bench: {args.workload} seed {args.seed}: {len(op_times)} operations, "
        f"op_s.p50 {statistics.median(op_times):.4f} s, raw output in {raw.relative_to(ROOT)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
