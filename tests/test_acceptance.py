"""Acceptance gate: one criterion per test, one printed verdict line each.

Every test drives the public API the way a user would and checks a stated
tolerance. Verdict lines are replayed in a terminal summary section after
the run, so they show up even when output capture is on.
"""

import dataclasses
import math
import time

import numpy as np

from pointerlab import engine
from pointerlab.engine import (
    Coupling,
    build_initial,
    evolve,
    evolve_sequential,
    partial_sums,
    pointer_cross_mean,
    pointer_mean,
    postselect,
)
from pointerlab.pointer import PointerGrid, PointerSpec
from pointerlab.scenarios import (
    DEFAULTS,
    SIGMA_X,
    SIGMA_Z,
    bloch_state,
    pauli,
    run_scenario,
)
from pointerlab.separability import readability_check
from pointerlab.tensors import schmidt

from helpers import apparatus_density

FINE = PointerGrid(points=256, length=16.0)
COARSE = PointerGrid(points=16, length=16.0)

TAN_PI_8 = math.tan(math.pi / 8)


def _single_readout(theta: float, impulse: float):
    system = bloch_state(theta, 0.0)
    state = build_initial(system, [PointerSpec("A", FINE)])
    started = time.perf_counter()
    evolved = evolve(state, [Coupling(pauli(SIGMA_Z), "A", impulse, 1.0)])
    mean = pointer_mean(evolved, "A")
    return mean, time.perf_counter() - started


def _noncommuting_pair(impulse: float, grid: PointerGrid, theta: float = 0.0):
    system = bloch_state(theta, 0.0)
    specs = [PointerSpec("A", grid), PointerSpec("B", grid)]
    couplings = [
        Coupling(pauli(SIGMA_X), "A", impulse, 1.0),
        Coupling(pauli(SIGMA_Z), "B", impulse, 1.0),
    ]
    return build_initial(system, specs), couplings


def test_c01_pointer_shift_formula(acceptance_verdict):
    worst = 0.0
    slowest = 0.0
    for theta in (0.0, math.pi / 3, math.pi / 2):
        for impulse in (0.05, 0.2, 0.5):
            mean, elapsed = _single_readout(theta, impulse)
            worst = max(worst, abs(mean - impulse * math.cos(theta)))
            slowest = max(slowest, elapsed)
    ok = worst <= 1e-8 and slowest < 1.0
    acceptance_verdict(
        1,
        "unconditioned readout equals impulse times the average",
        ok,
        f"worst defect {worst:.3e}, slowest point {slowest:.3f}s",
    )


def test_c02_weak_value_readout(acceptance_verdict):
    initial = bloch_state(math.pi / 2, 0.0)
    final = bloch_state(math.pi / 4, 0.0)
    errors = {}
    slowest = 0.0
    for impulse, gate in ((0.01, 1e-2), (0.001, 1e-4)):
        state = build_initial(initial, [PointerSpec("A", FINE)])
        started = time.perf_counter()
        evolved = evolve(state, [Coupling(pauli(SIGMA_Z), "A", impulse, 1.0)])
        selected = postselect(evolved, final)
        normalized_mean = pointer_mean(selected, "A") / selected.norm**2
        slowest = max(slowest, time.perf_counter() - started)
        readout = normalized_mean / impulse
        errors[impulse] = abs(readout - TAN_PI_8) / TAN_PI_8
    ok = errors[0.01] <= 1e-2 and errors[0.001] <= 1e-4 and slowest < 1.0
    acceptance_verdict(
        2,
        "post-selected readout converges to the weak value",
        ok,
        f"rel err {errors[0.01]:.3e} at 0.01, {errors[0.001]:.3e} at 0.001",
    )


def test_c03_weak_coupling_still_entangles(acceptance_verdict):
    state = build_initial(bloch_state(math.pi / 2, 0.0), [PointerSpec("A", FINE)])
    evolved = evolve(state, [Coupling(pauli(SIGMA_Z), "A", 0.01, 1.0)])
    coefficients, rank = schmidt(evolved.state, (("system",), ("A",)))
    ok = rank == 2 and coefficients[1] > 1e-9
    acceptance_verdict(
        3,
        "even a weak record has two branches",
        ok,
        f"rank {rank}, second coefficient {coefficients[1]:.3e}",
    )


def test_c04_cross_moment_factorizes_at_first_order(acceptance_verdict):
    state, couplings = _noncommuting_pair(0.05, FINE)
    cross = pointer_cross_mean(evolve(state, couplings), "A", "B")
    state_half, couplings_half = _noncommuting_pair(0.025, FINE)
    cross_half = pointer_cross_mean(evolve(state_half, couplings_half), "A", "B")
    halving_ok = abs(cross_half) <= max(abs(cross) / 8.0, 1e-12)

    system = bloch_state(0.0, 0.0)
    specs = [PointerSpec("A", FINE), PointerSpec("B", FINE)]
    same = build_initial(system, specs)
    same_couplings = [
        Coupling(pauli(SIGMA_Z), "A", 0.2, 1.0),
        Coupling(pauli(SIGMA_Z), "B", 0.2, 1.0),
    ]
    cross_same = pointer_cross_mean(evolve(same, same_couplings), "A", "B")

    ok = abs(cross) <= 1e-6 and halving_ok and abs(cross_same - 0.04) <= 1e-8
    acceptance_verdict(
        4,
        "joint moment reduces to the product form at first order",
        ok,
        f"anticommuting {cross:.3e}, halved {cross_half:.3e}, "
        f"commuting {cross_same:.10f}",
    )


def test_c05_record_separability_ladder(acceptance_verdict):
    started = time.perf_counter()
    strong, strong_couplings = _noncommuting_pair(1.0, COARSE)
    strong_verdict = readability_check(evolve(strong, strong_couplings))
    strong_elapsed = time.perf_counter() - started
    strong_ok = (
        strong_verdict.status == "entangled"
        and strong_verdict.ppt_min < -1e-4
        and strong_elapsed < 60.0
    )

    system = bloch_state(math.pi / 3, 0.0)
    specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
    commuting = build_initial(system, specs)
    commuting_couplings = [
        Coupling(pauli(SIGMA_Z), "A", 1.0, 1.0),
        Coupling(pauli(SIGMA_Z), "B", 1.0, 1.0),
    ]
    commuting_verdict = readability_check(evolve(commuting, commuting_couplings))
    commuting_ok = (
        commuting_verdict.status == "separable"
        and commuting_verdict.certificate_error is not None
        and commuting_verdict.certificate_error <= 1e-8
    )

    weak, weak_couplings = _noncommuting_pair(1e-3, COARSE)
    weak_verdict = readability_check(evolve(weak, weak_couplings))
    weak_ok = (
        weak_verdict.status == "inconclusive"
        and weak_verdict.ppt_min is not None
        and abs(weak_verdict.ppt_min) < 1e-8
    )

    ok = strong_ok and commuting_ok and weak_ok
    acceptance_verdict(
        5,
        "record separability tracks commutativity and strength",
        ok,
        f"strong ppt {strong_verdict.ppt_min:.3e} in {strong_elapsed:.1f}s, "
        f"commuting cert {commuting_verdict.certificate_error:.3e}, "
        f"weak ppt {weak_verdict.ppt_min:.3e}",
    )


def test_c06_purity_follows_branch_overlap(acceptance_verdict):
    worst_formula = 0.0
    worst_sampled = 0.0
    for impulse in (0.25, 0.5, 1.0):
        cfg = dataclasses.replace(DEFAULTS["eigenstate"], g_a=impulse)
        report = run_scenario("eigenstate", cfg)
        expected = 0.5 * (1.0 + math.exp(-(impulse**2)))
        worst_formula = max(worst_formula, abs(report.purity - expected))
        worst_sampled = max(
            worst_sampled,
            abs(report.purity - report.predictions["purity_sampled_overlap"]),
        )
    ok = worst_formula <= 1e-6 and worst_sampled <= 1e-6
    acceptance_verdict(
        6,
        "system purity equals the closed-form branch overlap",
        ok,
        f"formula defect {worst_formula:.3e}, sampled-overlap defect {worst_sampled:.3e}",
    )


def test_c07_anticorrelated_pair_record(acceptance_verdict):
    cfg = dataclasses.replace(DEFAULTS["epr"], x0_a=0.3, x0_b=-0.2)
    report = run_scenario("epr", cfg)
    correlation_ok = abs(report.readouts["correlation"] - (-1.0)) <= 1e-12
    means_ok = (
        abs(report.readouts["mean_a"] - 0.3) <= 1e-9
        and abs(report.readouts["mean_b"] - (-0.2)) <= 1e-9
    )
    weights = sorted(report.readability.get("weights", []))
    weights_ok = (
        report.readability["status"] == "separable"
        and len(weights) == 4
        and max(abs(w - 0.25) for w in weights) <= 1e-10
    )
    ok = correlation_ok and means_ok and weights_ok
    acceptance_verdict(
        7,
        "anticorrelated pair leaves a separable flat-weight record",
        ok,
        f"correlation {report.readouts['correlation']:.15f}, "
        f"weights {[round(w, 12) for w in weights]}",
    )


def test_c08_sequential_couplings(acceptance_verdict):
    # zero-average second stage: the conditional dial stays exactly put
    state = build_initial(
        bloch_state(0.0, 0.0), [PointerSpec("B", FINE), PointerSpec("A", FINE)]
    )
    first = Coupling(pauli(SIGMA_Z), "B", 0.5, 1.0)
    second = Coupling(pauli(SIGMA_X), "A", 0.5, 1.0)
    both = evolve_sequential(state, first, second)
    stay_defect = abs(pointer_mean(both, "A") - 0.0)

    # commuting stages: no damping, the shift formula holds at time 2t
    tilted = build_initial(
        bloch_state(math.pi / 3, 0.0), [PointerSpec("B", FINE), PointerSpec("A", FINE)]
    )
    fx = Coupling(pauli(SIGMA_X), "B", 0.5, 1.0)
    sx = Coupling(pauli(SIGMA_X), "A", 0.5, 1.0)
    commuting = evolve_sequential(tilted, fx, sx)
    shift_defect = abs(pointer_mean(commuting, "A") - 0.5 * math.sin(math.pi / 3))

    # the branch decomposition reproduces the reduced record exactly
    system = bloch_state(math.pi / 3, 0.0)
    specs = [PointerSpec("B", COARSE), PointerSpec("A", COARSE)]
    seq_state = evolve_sequential(
        build_initial(system, specs),
        Coupling(pauli(SIGMA_Z), "B", 0.5, 1.0),
        Coupling(pauli(SIGMA_X), "A", 0.5, 1.0),
    )
    decomposition = readability_check(seq_state).certificate
    cert_defect = decomposition.validate(apparatus_density(seq_state))

    # a probe commuting with both stages reads the initial expectation
    proj_plus = pauli(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    staged = evolve(
        build_initial(
            bloch_state(math.pi / 3, 0.0),
            [PointerSpec("B", FINE), PointerSpec("A", FINE)],
        ),
        [fx],
    )
    info = engine.system_expectation(evolve(staged, [sx]), proj_plus)
    info_defect = abs(info - 0.5 * (1.0 + math.sin(math.pi / 3)))

    ok = (
        stay_defect <= 1e-8
        and shift_defect <= 1e-8
        and cert_defect <= 1e-8
        and info_defect <= 1e-10
    )
    acceptance_verdict(
        8,
        "sequential stages keep exact books",
        ok,
        f"stay {stay_defect:.3e}, shift {shift_defect:.3e}, "
        f"certificate {cert_defect:.3e}, info {info_defect:.3e}",
    )


def test_c09_independent_integrators_agree(default_reports, acceptance_verdict):
    worst_name = ""
    worst = 0.0
    norms_ok = True
    for name, report in default_reports.items():
        defect = report.defects["evolution_paths"]
        if defect > worst:
            worst_name, worst = name, defect
        norms_ok = norms_ok and report.checks["norm_preserved"]
    ok = worst <= 1e-8 and norms_ok
    acceptance_verdict(
        9,
        "shift and dense-exponential integrators agree everywhere",
        ok,
        f"worst path defect {worst:.3e} ({worst_name}), norms preserved {norms_ok}",
    )


def test_c10_truncation_error_orders(acceptance_verdict):
    def defect(impulse: float, order: int) -> float:
        state, couplings = _noncommuting_pair(impulse, COARSE, theta=math.pi / 3)
        exact = evolve(state, couplings)
        terms = partial_sums(state, couplings, order)
        truncated = sum(terms, state.state.amplitudes)
        return float(np.linalg.norm(exact.state.amplitudes - truncated))

    ratios = {}
    ok = True
    for impulse in (1e-1, 1e-2, 1e-3):
        r1 = defect(impulse, 1) / defect(impulse / 2, 1)
        r2 = defect(impulse, 2) / defect(impulse / 2, 2)
        ratios[impulse] = (r1, r2)
        ok = ok and 3.5 <= r1 <= 4.5 and 7.0 <= r2 <= 9.0
    acceptance_verdict(
        10,
        "truncation defects scale with the stated orders",
        ok,
        ", ".join(
            f"u={u:g}: {r1:.3f}/{r2:.3f}" for u, (r1, r2) in ratios.items()
        ),
    )
