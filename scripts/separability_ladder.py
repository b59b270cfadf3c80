#!/usr/bin/env python3
"""Where does a two-dial record stop being readable dial-by-dial?

Couples sigma_x and sigma_z to separate pointers at a ladder of strengths
and reports the partial-transpose witness of the reduced apparatus state,
next to a commuting control (sigma_z on both) that stays separable with a
constructive certificate at every rung.

A rung count below 1, a non-finite strongest impulse, or one that kicks a
packet out of the box is refused with a one-line error and exit code 1.
"""

import argparse
import math
import sys

from pointerlab.engine import Coupling, build_initial, evolve
from pointerlab.pointer import CONTAINMENT_SIGMAS, PointerGrid, PointerSpec, near_edge
from pointerlab.scenarios import SIGMA_X, SIGMA_Z, bloch_state, pauli
from pointerlab.separability import readability_check

GRID = PointerGrid(points=16, length=16.0)
SPECS = (PointerSpec("A", GRID), PointerSpec("B", GRID))


def rung(impulse: float, commuting: bool):
    system = bloch_state(math.pi / 3, 0.0)
    first = SIGMA_Z if commuting else SIGMA_X
    couplings = [
        Coupling(pauli(first), "A", impulse, 1.0),
        Coupling(pauli(SIGMA_Z), "B", impulse, 1.0),
    ]
    state = evolve(build_initial(system, SPECS), couplings)
    return readability_check(state, (("A",), ("B",)))


def problem(rungs: int, strongest: float) -> str | None:
    """Why the ladder cannot run, or None.

    Every observable has eigenvalues +-1, so the strongest rung kicks each
    packet by +-strongest; the ladder runs when those packets stay inside
    the box.
    """
    if rungs < 1:
        return f"--rungs must be at least 1, got {rungs}"
    if not math.isfinite(strongest):
        return f"--strongest must be finite, got {strongest!r}"
    for spec in SPECS:
        if any(near_edge(spec.x0 + kick, spec.sigma, GRID) for kick in (strongest, -strongest)):
            return (
                f"--strongest {strongest!r} kicks pointer {spec.label!r} to within "
                f"{CONTAINMENT_SIGMAS} spreads of the box edge"
            )
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rungs", type=int, default=7)
    parser.add_argument("--strongest", type=float, default=1.0)
    args = parser.parse_args(argv)
    refused = problem(args.rungs, args.strongest)
    if refused is not None:
        print(f"separability_ladder: error: {refused}", file=sys.stderr)
        return 1

    print(f"{'impulse':>10}  {'noncommuting':>14}  {'ppt min':>12}  {'commuting':>10}")
    for i in range(args.rungs):
        impulse = args.strongest * 10.0 ** -(args.rungs - 1 - i)
        hard = rung(impulse, commuting=False)
        easy = rung(impulse, commuting=True)
        print(
            f"{impulse:10.1e}  {hard.status:>14}  {hard.ppt_min:12.3e}  {easy.status:>10}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
