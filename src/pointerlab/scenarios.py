"""Canned measurement experiments with closed-form predictions.

Each scenario is a ``Scenario`` record in ``SCENARIOS``: a description,
default knobs, the system it prepares, its coupling phases at any impulse
scale, and a ``measure`` step holding only its own readouts, independent
predictions (closed-form shifts, weak values, overlap-damped means,
truncation-order scalings, separability verdicts) and checks.

``run_scenario`` is the one runner. It evolves each distinct state once:
the readout state on the configured grid and, for two pointers, the same
phases on a small analysis grid, where ``readability_check`` runs. The dense
integrator reruns each phase of one of them for the ``evolution_paths``
defect: of the readout state where it can afford to and there is no analysis
state, else of the analysis state. The runner then adds the shared checks,
times the run and assembles the ScenarioReport, whose ``pass`` is the
conjunction of its checks.

Qubit states are parametrized on the Bloch sphere, cos(theta/2)|up> +
exp(i phi) sin(theta/2)|down>; the correlated-pair scenario reuses (theta_i,
phi_i) inside the anticorrelated two-qubit subspace, so its default is the
singlet.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable

import numpy as np

from . import engine, separability
from .engine import Coupling, UnifiedState
from .pointer import PointerGrid, PointerSpec
from .separability import SeparabilityVerdict, readability_check
from .tensors import (
    DimensionSpec,
    NORM_TOL,
    Operator,
    StateVector,
    expectation,
    schmidt,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

ANALYSIS_GRID = PointerGrid(points=16, length=16.0)
POINTER_CUT = (("A",), ("B",))

READOUT_TOL = 1e-8
EIGEN_READOUT_TOL = 1e-9
PATHS_TOL = 1e-8
PURITY_TOL = 1e-6
# Two-point scaling checks demand at least this reduction per halving,
# unless the defect is already at the roundoff floor.
QUADRATIC_RATIO = 3.5
CUBIC_RATIO = 7.5
SCALING_FLOOR = 1e-12
# epr: largest gap between a certificate weight and its joint eigenvector
# population. A choice, equal to WEIGHT_SUM_TOL: both are the same branch
# populations taken two ways, which agree to roundoff near 1e-16.
EPR_WEIGHT_TOL = 1e-10
# epr: largest |<zz> + 1| and Var(zz) of a sharp anticorrelation. A choice:
# on the anticorrelated subspace both are roundoff of a four-amplitude sum.
SHARP_CORRELATION_TOL = 1e-12


def _setting(default: float, flag: str, role: str) -> Any:
    """A ScenarioConfig field, with its CLI flag and what it is for its error message."""
    return field(default=default, metadata={"flag": flag, "role": role})


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs shared by every scenario; unused ones are simply ignored.

    ``g_a``/``g_b`` are coupling strengths, ``t`` the shared interaction
    time. Angles are Bloch coordinates of the initial and post-selection
    states. ``grid_points`` and ``grid_length`` give the readout grid. Each
    field's metadata holds its CLI flag and its role; a non-finite value is
    refused at construction, with the field's name and role.
    """

    g_a: float = _setting(0.2, "gA", "coupling strength")
    g_b: float = _setting(0.0, "gB", "coupling strength")
    t: float = _setting(1.0, "t", "coupling duration")
    theta_i: float = _setting(math.pi / 3, "thetaI", "Bloch angle")
    phi_i: float = _setting(0.0, "phiI", "Bloch angle")
    theta_f: float = _setting(math.pi / 4, "thetaF", "Bloch angle")
    phi_f: float = _setting(0.0, "phiF", "Bloch angle")
    x0_a: float = _setting(0.0, "x0A", "pointer offset")
    x0_b: float = _setting(0.0, "x0B", "pointer offset")
    sigma: float = _setting(1.0, "sigma", "pointer spread")
    grid_points: int = _setting(256, "gridN", "grid size")
    grid_length: float = _setting(16.0, "gridL", "grid length")

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                role = f.metadata["role"]
                raise ValueError(f"{f.name}: {role} must be finite, got {value!r}")

    def readout_grid(self) -> PointerGrid:
        return PointerGrid(points=self.grid_points, length=self.grid_length)


@dataclass
class ScenarioReport:
    scenario: str
    config: ScenarioConfig
    readouts: dict[str, float]
    predictions: dict[str, float]
    defects: dict[str, float]
    checks: dict[str, bool]
    readability: dict[str, object]
    schmidt: dict[str, object]
    purity: float | None
    notes: list[str]
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": asdict(self.config),
            "readouts": dict(self.readouts),
            "predictions": dict(self.predictions),
            "defects": dict(self.defects),
            "checks": dict(self.checks),
            "readability": self.readability,
            "schmidt": self.schmidt,
            "purity": self.purity,
            "pass": self.passed,
            "notes": list(self.notes),
            "runtime_seconds": self.runtime_seconds,
        }


def bloch_state(theta: float, phi: float, label: str = "system") -> StateVector:
    amps = [math.cos(theta / 2), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)]
    return StateVector(DimensionSpec.of((label, 2)), np.array(amps, dtype=complex))


def pauli(matrix: np.ndarray, label: str = "system") -> Operator:
    return Operator(DimensionSpec.of((label, 2)), matrix)


PAULI_X, PAULI_Z = pauli(SIGMA_X), pauli(SIGMA_Z)
PAIR_DIMS = DimensionSpec.of(("s1", 2), ("s2", 2))
# sigma_x on the pair's first qubit and sigma_z on its second, identity elsewhere.
PAIR_X = Operator(PAIR_DIMS, np.kron(SIGMA_X, np.eye(2)))
PAIR_Z = Operator(PAIR_DIMS, np.kron(np.eye(2), SIGMA_Z))
Phases = list[list[Coupling]]


@dataclass(frozen=True)
class Run:
    """What the runner hands to a scenario's ``measure`` step.

    ``state`` is the readout-grid state after every phase, and
    ``at_scale(s)`` the same with all strengths times s; ``system`` and
    ``couplings`` (every phase's, in order) are read from ``state``.
    ``purity`` and ``expected_rank`` are the reported state's.
    """

    cfg: ScenarioConfig
    state: UnifiedState
    at_scale: Callable[[float], UnifiedState]
    verdict: SeparabilityVerdict | None
    purity: float
    expected_rank: int | None

    @property
    def system(self) -> StateVector:
        return self.state.initial_system

    @property
    def couplings(self) -> tuple[Coupling, ...]:
        return tuple(c for phase in self.state.history for c in phase)


@dataclass(frozen=True)
class Measured:
    """A ``measure`` step's share of the report; the runner adds the rest."""

    readouts: dict[str, float]
    predictions: dict[str, float]
    defects: dict[str, float]
    checks: dict[str, bool]
    notes: list[str]


@dataclass(frozen=True)
class Scenario:
    """One experiment as data.

    ``phases(cfg, scale)`` gives the coupling phases with all strengths times
    ``scale``; phases run in turn, the couplings within one at once.
    """

    description: str
    defaults: ScenarioConfig
    phases: Callable[[ScenarioConfig, float], Phases]
    measure: Callable[[Run], Measured]
    system: Callable[[float, float], StateVector] = bloch_state


def _sampled_overlap(spec: PointerSpec, d1: float, d2: float) -> float:
    """Overlap of two displaced packets, each sampled directly on the grid.

    Avoids the engine's Fourier translation: the independent route for overlaps.
    """
    x = spec.grid.positions()

    def packet(center: float) -> np.ndarray:
        amp = np.exp(-((x - center) ** 2) / (4.0 * spec.sigma**2))
        return amp / np.linalg.norm(amp)

    return float(packet(spec.x0 + d1) @ packet(spec.x0 + d2))


def _evolve(
    system: StateVector, specs: list[PointerSpec], phases: Phases, oracle: bool = False
) -> tuple[UnifiedState, float]:
    """The state after every phase, and its worst gap to the dense integrator.

    With ``oracle`` the dense integrator reruns each phase from the same input.
    """
    state = engine.build_initial(system, specs)
    worst = 0.0
    for phase in phases:
        dense = engine.evolve(state, phase, "expm") if oracle else None
        state = engine.evolve(state, phase, "shift")
        if dense is not None:
            gap = np.abs(state.state.amplitudes - dense.state.amplitudes).max()
            worst = max(worst, float(gap))
    return state, worst


def _scaling_check(defect: float, defect_half: float, ratio: float) -> bool:
    """Defect must drop by ``ratio`` per coupling halving, or sit at the floor."""
    return defect_half <= max(defect / ratio, SCALING_FLOOR)


def _verdict_dict(verdict: SeparabilityVerdict) -> dict[str, object]:
    out: dict[str, object] = {
        "status": verdict.status,
        "method": verdict.method,
        "cut": [list(verdict.cut[0]), list(verdict.cut[1])],
        "notes": list(verdict.notes),
    }
    if verdict.ppt_min is not None:
        out["ppt_min"] = float(verdict.ppt_min)
    if verdict.certificate is not None:
        out["certificate_error"] = float(verdict.certificate_error or 0.0)
        out["certificate_kind"] = verdict.certificate.kind
        out["weights"] = [float(w) for w in verdict.certificate.weights]
    return out


def _schmidt_dict(state: UnifiedState) -> dict[str, object]:
    pointer_labels = tuple(s.label for s in state.pointers)
    coeffs, rank = schmidt(state.state, (state.system.labels, pointer_labels))
    return {
        "cut": [list(state.system.labels), list(pointer_labels)],
        "rank": int(rank),
        "coefficients": [float(c) for c in coeffs[: max(rank, 2)]],
    }


def _expected_branch_rank(system: StateVector, coupling: Coupling) -> int | None:
    """Predicted Schmidt rank for one coupling, or None when too marginal.

    Branches with population below 1e-12 stay invisible; an impulse below
    1e-8 cannot split the pointer beyond the rank tolerance.
    """
    if abs(coupling.impulse) < 1e-8:
        return None
    branches = coupling.observable.spectrum[1].conj().T @ system.amplitudes
    populated = int(np.count_nonzero(np.abs(branches) ** 2 > 1e-12))
    return populated if populated >= 1 else None


def _phase(*observables: Operator) -> Callable[[ScenarioConfig, float], Phases]:
    """One phase coupling the observables to pointers A, B, ... at once."""
    return lambda cfg, scale: [
        [
            Coupling(op, label, g * scale, cfg.t)
            for op, label, g in zip(observables, "AB", (cfg.g_a, cfg.g_b))
        ]
    ]


def _weak_noselect(run: Run) -> Measured:
    """Unselected readout: the pointer mean moves by impulse times <A>."""
    (coupling,) = run.couplings
    mean_a = engine.pointer_mean(run.state, "A")
    exp_a = expectation(coupling.observable, run.system).real
    predicted = run.cfg.x0_a + coupling.impulse * exp_a
    defect = abs(mean_a - predicted)
    marginal = run.expected_rank is None
    return Measured(
        readouts={"mean_a": mean_a},
        predictions={"mean_a": predicted},
        defects={"mean_a": defect},
        checks={"readout_matches_average": defect <= READOUT_TOL},
        notes=["coupling too marginal to pin the Schmidt rank"] if marginal else [],
    )


def _weak_postselect(run: Run) -> Measured:
    """Post-selected readout: the pointer mean reads Re of the weak value.

    The weak-value formulas hold to first order in the impulse, so each
    defect is checked for (at least) quadratic decay under halving rather
    than against an absolute tolerance.
    """
    final = bloch_state(run.cfg.theta_f, run.cfg.phi_f)

    def readout(state: UnifiedState) -> tuple[dict[str, float], dict[str, float]]:
        """Post-selected readouts of ``state`` and their first-order predictions."""
        ((coupling,),) = state.history
        selected = engine.postselect(state, final)
        wv = engine.weak_value(coupling.observable, run.system, final)
        overlap_sq = abs(wv.overlap) ** 2
        shifted = run.cfg.x0_a + coupling.impulse * wv.value.real
        simulated = {
            "probability": selected.probability,
            "unnormalized_mean_a": selected.unnormalized_mean["A"],
            "normalized_mean_a": selected.normalized_mean["A"],
        }
        predicted = {
            "probability": overlap_sq,
            "unnormalized_mean_a": overlap_sq * shifted,
            "normalized_mean_a": shifted,
            "weak_value_re": wv.value.real,
            "weak_value_im": wv.value.imag,
        }
        return simulated, predicted

    simulated, predicted = readout(run.state)
    half, predicted_half = readout(run.at_scale(0.5))
    defects = {k: abs(simulated[k] - predicted[k]) for k in simulated}
    defects.update({f"{k}_half_impulse": abs(half[k] - predicted_half[k]) for k in half})
    return Measured(
        readouts={**simulated, **{f"{k}_half_impulse": v for k, v in half.items()}},
        predictions=predicted,
        defects=defects,
        checks={
            f"{k}_first_order_scaling": _scaling_check(
                defects[k], defects[f"{k}_half_impulse"], QUADRATIC_RATIO
            )
            for k in simulated
        },
        notes=[
            "defects compare against first-order weak-value formulas",
            "both readout conventions reported: raw and probability-normalized",
        ],
    )


def _simultaneous(run: Run) -> Measured:
    """Two pointers coupled at once to observables that do not commute.

    Single-pointer means still follow the shift formula up to a quantified
    backaction allowance; the joint moment follows its first-order form with
    a defect that must vanish faster than quadratically; and the apparatus
    record is checked for (non)separability on the analysis grid.
    """
    cfg, system, state = run.cfg, run.system, run.state
    coupling_a, coupling_b = run.couplings
    a, b = coupling_a.observable, coupling_b.observable
    mean_a = engine.pointer_mean(state, "A")
    mean_b = engine.pointer_mean(state, "B")
    cross = engine.pointer_cross_mean(state, "A", "B")
    exp_a = expectation(a, system).real
    exp_b = expectation(b, system).real
    anti = Operator(a.dims, a.matrix @ b.matrix + b.matrix @ a.matrix)
    exp_anti = expectation(anti, system).real

    def predicted_cross(coupling_a: Coupling, coupling_b: Coupling) -> float:
        ia, ib = coupling_a.impulse, coupling_b.impulse
        return (
            cfg.x0_a * cfg.x0_b + ia * cfg.x0_b * exp_a + ib * cfg.x0_a * exp_b
            + 0.5 * ia * ib * exp_anti
        )

    ia, ib = coupling_a.impulse, coupling_b.impulse
    pred_a = cfg.x0_a + ia * exp_a
    pred_b = cfg.x0_b + ib * exp_b
    pred_cross = predicted_cross(*run.couplings)

    # Simultaneous noncommuting couplings disturb each other's readout at
    # second order in the other impulse; the shift formula is held to that
    # quantified allowance instead of being asserted blindly.
    eig_a, eig_b = a.spectrum[0], b.spectrum[0]
    spread_a, spread_b = float(np.ptp(eig_a)), float(np.ptp(eig_b))
    norm_a, norm_b = float(np.abs(eig_a).max()), float(np.abs(eig_b).max())
    allow_a = max(READOUT_TOL, abs(ia) * norm_a * (ib * spread_b) ** 2 / (8 * cfg.sigma**2))
    allow_b = max(READOUT_TOL, abs(ib) * norm_b * (ia * spread_a) ** 2 / (8 * cfg.sigma**2))

    half = run.at_scale(0.5)
    cross_half = engine.pointer_cross_mean(half, "A", "B")
    defects = {
        "mean_a": abs(mean_a - pred_a),
        "mean_b": abs(mean_b - pred_b),
        "cross_moment": abs(cross - pred_cross),
        "cross_moment_half_impulse": abs(cross_half - predicted_cross(*half.history[0])),
    }
    # The factorization check needs a predicted gap to look for.
    gap_active = abs(pred_cross - pred_a * pred_b) > 2e-6
    nonfactor = not gap_active or abs(cross - mean_a * mean_b) > 1e-6
    notes = [f"backaction allowances: mean_a {allow_a:.3e}, mean_b {allow_b:.3e}"]
    if not gap_active:
        notes.insert(0, "joint moment predicted to factorize here; gap check idle")
    return Measured(
        readouts={"mean_a": mean_a, "mean_b": mean_b, "cross_moment": cross},
        predictions={
            "mean_a": pred_a,
            "mean_b": pred_b,
            "cross_moment": pred_cross,
            "anticommutator_average": exp_anti,
        },
        defects=defects,
        checks={
            "mean_a_within_allowance": defects["mean_a"] <= allow_a,
            "mean_b_within_allowance": defects["mean_b"] <= allow_b,
            "cross_moment_beyond_first_order": _scaling_check(
                defects["cross_moment"], defects["cross_moment_half_impulse"], CUBIC_RATIO
            ),
            "joint_moment_nonfactorizing": nonfactor,
            "record_not_separable": run.verdict.status != "separable",
        },
        notes=notes,
    )


def _truncation_defects(run: Run) -> list[list[float]]:
    """Norms of the order-1 and order-2 truncation gaps, at full and half impulse.

    One series pass serves both impulse scales: at scale s the order-m term
    is s^m T_m, an exact rescaling at s = 1/2. The half-scale state is
    evolved before the product state is formed, and both are dropped once
    the gaps exist: the series' two terms then join only the readout state
    and the two gaps, and none of them outlives the call.
    """
    pointers = run.state.pointers
    half = run.at_scale(0.5).state.amplitudes
    psi = engine.build_initial(run.system, pointers).state.amplitudes
    gaps = [run.state.state.amplitudes - psi, half - psi]
    del half, psi
    terms = engine.partial_sums(
        engine.build_initial(run.system, pointers), run.state.history[0], 2
    )
    defects = []
    for m, term in enumerate(terms, 1):
        gaps[0] -= term
        term *= 0.5**m
        gaps[1] -= term
        defects.append([float(np.linalg.norm(gap)) for gap in gaps])
    return defects


def _weak_orders(run: Run) -> Measured:
    """Order-by-order control of the weak expansion.

    Truncation defects must scale with the right power of the coupling,
    the first-order reduced state must admit a product certificate with a
    roundoff-level defect, and the partial transpose must interpolate from
    a clean entanglement witness at strong coupling to zero in the weak
    limit.
    """
    system = run.system
    specs = [replace(spec, grid=ANALYSIS_GRID) for spec in run.state.pointers]
    (d1, d1_half), (d2, d2_half) = _truncation_defects(run)
    # Ratio 0 stands for "both defects at the roundoff floor".
    ratio1 = d1 / d1_half if d1_half > SCALING_FLOOR else 0.0
    ratio2 = d2 / d2_half if d2_half > SCALING_FLOOR else 0.0
    floor1 = d1 <= SCALING_FLOOR and d1_half <= SCALING_FLOOR
    floor2 = d2 <= SCALING_FLOOR and d2_half <= SCALING_FLOOR
    certificate, cert_defect = separability.first_order_product_certificate(
        system, specs, *run.couplings
    )

    def ppt_at(impulse: float) -> float:
        couplings = [replace(c, strength=impulse, duration=1.0) for c in run.couplings]
        state = engine.evolve(engine.build_initial(system, specs), couplings)
        return separability.ppt_min_eigenvalue(engine.apparatus_density(state), POINTER_CUT)

    ppt_strong = ppt_at(1.0)
    ppt_weak = ppt_at(1e-3)
    return Measured(
        readouts={
            "truncation_defect_order1": d1,
            "truncation_defect_order2": d2,
            "defect_ratio_order1": ratio1,
            "defect_ratio_order2": ratio2,
            "ppt_min_strong_coupling": ppt_strong,
            "ppt_min_weak_coupling": ppt_weak,
        },
        predictions={"defect_ratio_order1": 4.0, "defect_ratio_order2": 8.0},
        defects={"first_order_certificate": cert_defect},
        checks={
            "order1_defect_scales_quadratically": floor1 or 3.5 <= ratio1 <= 4.5,
            "order2_defect_scales_cubically": floor2 or 7.0 <= ratio2 <= 9.0,
            "first_order_record_is_product": cert_defect <= separability.CERTIFICATE_TOL,
            "exact_record_not_separable": run.verdict.status != "separable",
            "strong_coupling_entangled": ppt_strong < separability.ENTANGLEMENT_THRESHOLD,
            "weak_limit_ppt_vanishes": abs(ppt_weak) < 1e-8,
        },
        notes=[
            f"certificate kind: {certificate.kind}",
            "reference probes at impulse 1.0 and 1e-3 regardless of configured g",
        ],
    )


def _eigenstate(run: Run) -> Measured:
    """Coupling an observable to a state with no mean shift.

    The default initial state is an equal mixture of the two coupled
    eigenvalues, so the pointer mean stays exactly put while the system
    purity dips by the branch-overlap factor.
    """
    (coupling,) = run.couplings
    impulse, purity = coupling.impulse, run.purity
    mean_a = engine.pointer_mean(run.state, "A")
    pred_a = run.cfg.x0_a + impulse * expectation(coupling.observable, run.system).real

    eigvals, eigvecs = coupling.observable.spectrum
    p0, p1 = (float(w) for w in np.abs(eigvecs.conj().T @ run.system.amplitudes) ** 2)
    split = impulse * float(eigvals[1] - eigvals[0])
    # The branch overlap from its continuum closed form and from sampled packets.
    overlap_formula = math.exp(-(split**2) / (8.0 * run.cfg.sigma**2))
    low, high = (impulse * float(e) for e in eigvals)
    overlap_sampled = _sampled_overlap(run.state.pointer_spec("A"), low, high)
    predictions = {
        "mean_a": pred_a,
        "purity_formula": p0**2 + p1**2 + 2 * p0 * p1 * overlap_formula**2,
        "purity_sampled_overlap": p0**2 + p1**2 + 2 * p0 * p1 * overlap_sampled**2,
    }
    defects = {
        "mean_a": abs(mean_a - pred_a),
        "purity_formula": abs(purity - predictions["purity_formula"]),
        "purity_sampled_overlap": abs(purity - predictions["purity_sampled_overlap"]),
    }
    return Measured(
        readouts={"mean_a": mean_a, "purity": purity},
        predictions=predictions,
        defects=defects,
        checks={
            "readout_stays_put": defects["mean_a"] <= EIGEN_READOUT_TOL,
            "purity_matches_formula": defects["purity_formula"] <= PURITY_TOL,
            "purity_matches_sampled_overlap": (
                defects["purity_sampled_overlap"] <= PURITY_TOL
            ),
            "schmidt_rank_as_expected": False,  # set by the runner; listed for its place
        },
        notes=["purity compared against both the closed form and a sampled overlap"],
    )


def _pair_state(theta: float, phi: float) -> StateVector:
    """c1 |up,down> + c2 |down,up> with (c1, c2) taken from the Bloch angles."""
    amps = np.zeros(4, dtype=complex)
    amps[1:3] = bloch_state(theta, phi).amplitudes
    return StateVector(PAIR_DIMS, amps)


def _epr(run: Run) -> Measured:
    """Anticorrelated pair read out by one local pointer per side.

    The correlation observable is sharp (its variance vanishes on the whole
    anticorrelated subspace), both local readouts follow the shift formula,
    and the joint record of the two local couplings stays separable, with
    certificate weights equal to the joint eigenvector populations.
    """
    cfg, system, verdict = run.cfg, run.system, run.verdict
    coupling_a, coupling_b = run.couplings
    correlation = Operator(PAIR_DIMS, np.kron(SIGMA_Z, SIGMA_Z))
    squared = Operator(PAIR_DIMS, correlation.matrix @ correlation.matrix)
    corr = expectation(correlation, system).real
    corr_var = expectation(squared, system).real - corr**2

    mean_a = engine.pointer_mean(run.state, "A")
    mean_b = engine.pointer_mean(run.state, "B")
    pred_a = cfg.x0_a + coupling_a.impulse * expectation(coupling_a.observable, system).real
    pred_b = cfg.x0_b + coupling_b.impulse * expectation(coupling_b.observable, system).real

    # Independent weight prediction: populations of the product eigenvectors
    # of the two local observables.
    va, vb = PAULI_X.spectrum[1], PAULI_Z.spectrum[1]
    populations = (
        float(abs(np.kron(va[:, i], vb[:, j]).conj() @ system.amplitudes) ** 2)
        for i in range(2)
        for j in range(2)
    )
    predicted_weights = sorted(w for w in populations if w >= separability.WEIGHT_PRUNE)
    certificate = verdict.certificate
    cert_weights = sorted(certificate.weights) if certificate is not None else []
    weights_match = len(cert_weights) == len(predicted_weights) and all(
        abs(x - y) <= EPR_WEIGHT_TOL for x, y in zip(cert_weights, predicted_weights)
    )

    defects = {
        "mean_a": abs(mean_a - pred_a),
        "mean_b": abs(mean_b - pred_b),
        "correlation": abs(corr + 1.0),
        "correlation_variance": abs(corr_var),
    }
    return Measured(
        readouts={"mean_a": mean_a, "mean_b": mean_b, "correlation": corr},
        predictions={"mean_a": pred_a, "mean_b": pred_b, "correlation": -1.0},
        defects=defects,
        checks={
            "anticorrelation_sharp": defects["correlation"] <= SHARP_CORRELATION_TOL
            and defects["correlation_variance"] <= SHARP_CORRELATION_TOL,
            "mean_a_matches": defects["mean_a"] <= EIGEN_READOUT_TOL,
            "mean_b_matches": defects["mean_b"] <= EIGEN_READOUT_TOL,
            "record_separable": verdict.status == "separable"
            and (verdict.certificate_error or 1.0) <= separability.CERTIFICATE_TOL,
            "weights_match_populations": weights_match,
        },
        notes=["theta_i, phi_i parametrize the anticorrelated subspace"],
    )


def _sequential(run: Run) -> Measured:
    """Two couplings applied back to back instead of simultaneously.

    The first pointer's record dephases the system in the first observable's
    eigenbasis, so the second readout follows an overlap-damped version of
    the shift formula; conditioning on the first record drags the second
    one when the observables do not commute; and the joint record admits an
    exact branch decomposition at any coupling strength.
    """
    cfg, system, state, verdict = run.cfg, run.system, run.state, run.verdict
    first, second = run.couplings
    first_obs, second_obs = first.observable, second.observable
    spec_a, spec_b = state.pointers
    mean_a = engine.pointer_mean(state, "A")
    mean_b = engine.pointer_mean(state, "B")
    pred_b = cfg.x0_b + first.impulse * expectation(first_obs, system).real
    pred_a_undamped = cfg.x0_a + second.impulse * expectation(second_obs, system).real

    # Overlap-damped prediction: coherences of the second observable in the
    # first observable's eigenbasis survive only up to the overlap of the
    # correspondingly displaced first-pointer packets. The overlaps come
    # from directly sampled packets, independent of the Fourier engine.
    wb, vb = first_obs.spectrum
    amps_b = vb.conj().T @ system.amplitudes
    a_in_b = vb.conj().T @ second_obs.matrix @ vb
    damped_sum = 0.0
    for i in range(len(wb)):
        for j in range(len(wb)):
            overlap = _sampled_overlap(
                spec_b, first.impulse * float(wb[i]), first.impulse * float(wb[j])
            )
            coherence = np.conj(amps_b[i]) * amps_b[j] * a_in_b[i, j]
            damped_sum += float(coherence.real) * overlap
    pred_a_damped = cfg.x0_a + second.impulse * damped_sum
    predicted_gap = abs(pred_a_damped - pred_a_undamped)
    allow_a = READOUT_TOL + (0.0 if predicted_gap <= READOUT_TOL else 1.2 * predicted_gap)

    # Conditioning on the first pointer landing above its starting center.
    weights = np.abs(state.tensor()[:, :, spec_b.grid.positions() > cfg.x0_b]) ** 2
    cond_prob = float(weights.sum())
    cond_mean_a = float((weights.sum(axis=(0, 2)) @ spec_a.grid.positions()) / cond_prob)
    deviation = abs(cond_mean_a - mean_a)
    conditioning_active = (
        not engine.commutes(first_obs, second_obs)
        and float(np.sort(np.abs(amps_b) ** 2)[-2]) >= 0.05
        and abs(expectation(second_obs, system).real * second.impulse) >= 0.01
    )
    notes = ["first coupling acts on pointer B, second on pointer A"]
    if not conditioning_active:
        notes.insert(0, "conditioned-readout check idle: no disturbance expected here")

    # Information left in the system right after the first coupling, read
    # through observables that do and do not commute with it.
    after_first = engine.evolve(engine.build_initial(system, [spec_b]), [first])
    proj_up = Operator(system.dims, np.diag([1, 0]))
    proj_plus = Operator(system.dims, np.full((2, 2), 0.5))
    info_commuting = engine.system_expectation(after_first, proj_up)
    info_before = expectation(proj_up, system).real

    defects = {
        "mean_a_damped": abs(mean_a - pred_a_damped),
        "mean_a_first_order": abs(mean_a - pred_a_undamped),
        "mean_b": abs(mean_b - pred_b),
        "conditioned_deviation": deviation,
        "info_commuting": abs(info_commuting - info_before),
    }
    return Measured(
        readouts={
            "mean_a": mean_a,
            "mean_b": mean_b,
            "conditioned_mean_a": cond_mean_a,
            "conditioned_probability": cond_prob,
            "info_commuting_readout": info_commuting,
            "info_noncommuting_readout": engine.system_expectation(after_first, proj_plus),
        },
        predictions={
            "mean_a_damped": pred_a_damped,
            "mean_a_first_order": pred_a_undamped,
            "mean_b": pred_b,
            "info_commuting_readout": info_before,
            "info_noncommuting_before": expectation(proj_plus, system).real,
        },
        defects=defects,
        checks={
            "mean_b_matches": defects["mean_b"] <= READOUT_TOL,
            "mean_a_matches_damped_form": defects["mean_a_damped"] <= READOUT_TOL,
            "first_order_form_within_dephasing": defects["mean_a_first_order"] <= allow_a,
            "conditioned_readout_shifts": not conditioning_active or deviation > 1e-3,
            "initial_info_preserved": defects["info_commuting"] <= 1e-10,
            "record_separable": verdict.status == "separable"
            and (verdict.certificate_error or 1.0) <= separability.CERTIFICATE_TOL,
        },
        notes=notes,
    )


SCENARIOS: dict[str, Scenario] = {
    "weak-noselect": Scenario(
        description="unselected pointer mean tracks the observable average",
        defaults=ScenarioConfig(g_a=0.2),
        phases=_phase(PAULI_Z),
        measure=_weak_noselect,
    ),
    "weak-postselect": Scenario(
        description="post-selected pointer mean reads the weak value's real part",
        defaults=ScenarioConfig(g_a=0.01, theta_i=math.pi / 2, theta_f=math.pi / 4),
        phases=_phase(PAULI_Z),
        measure=_weak_postselect,
    ),
    "simultaneous": Scenario(
        description="two pointers at once: joint moments and record separability",
        defaults=ScenarioConfig(g_a=0.05, g_b=0.05, x0_a=0.3, x0_b=-0.2),
        phases=_phase(PAULI_X, PAULI_Z),
        measure=_simultaneous,
    ),
    "weak-orders": Scenario(
        description="truncation-order scalings and the first-order product record",
        defaults=ScenarioConfig(g_a=0.05, g_b=0.05),
        phases=_phase(PAULI_X, PAULI_Z),
        measure=_weak_orders,
    ),
    "eigenstate": Scenario(
        description="equal-branch coupling: readout stays put while purity dips",
        defaults=ScenarioConfig(g_a=0.5, theta_i=0.0),
        phases=_phase(PAULI_X),
        measure=_eigenstate,
    ),
    "epr": Scenario(
        description="anticorrelated pair leaves a separable two-dial record",
        defaults=ScenarioConfig(g_a=0.5, g_b=0.5, theta_i=math.pi / 2, phi_i=math.pi),
        phases=_phase(PAIR_X, PAIR_Z),
        measure=_epr,
        system=_pair_state,
    ),
    "sequential": Scenario(
        description="back-to-back couplings: damped readout, conditioning, branch record",
        defaults=ScenarioConfig(g_a=0.5, g_b=0.5),
        phases=lambda cfg, scale: [
            [Coupling(PAULI_Z, "B", cfg.g_b * scale, cfg.t)],
            [Coupling(PAULI_X, "A", cfg.g_a * scale, cfg.t)],
        ],
        measure=_sequential,
    ),
}

DEFAULTS: dict[str, ScenarioConfig] = {name: s.defaults for name, s in SCENARIOS.items()}


class UnknownScenarioError(KeyError):
    """A name missing from SCENARIOS; prints its message without KeyError's quotes."""

    def __str__(self) -> str:
        return str(self.args[0])


def get_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        )
    return SCENARIOS[name]


def run_scenario(name: str, cfg: ScenarioConfig | None = None) -> ScenarioReport:
    """Run one scenario, at its defaults unless ``cfg`` is given."""
    scenario = get_scenario(name)
    cfg = cfg if cfg is not None else scenario.defaults
    start = time.perf_counter()
    grid = cfg.readout_grid()
    system = scenario.system(cfg.theta_i, cfg.phi_i)
    phases = scenario.phases(cfg, 1.0)
    couplings = tuple(c for phase in phases for c in phase)
    x0 = {"A": cfg.x0_a, "B": cfg.x0_b}
    labels = sorted({c.pointer for c in couplings})
    specs = [PointerSpec(lab, grid, x0[lab], cfg.sigma) for lab in labels]
    analysis_specs = [replace(spec, grid=ANALYSIS_GRID) for spec in specs]

    # The dense integrator checks the readout state itself where it can.
    dense_dim = system.dims.total * math.prod(spec.grid.points for spec in specs)
    if len(specs) == 1 and dense_dim <= engine.DENSE_LIMIT:
        state, paths = _evolve(system, specs, phases, oracle=True)
        analysis = None
    else:
        state, _ = _evolve(system, specs, phases)
        analysis, paths = _evolve(system, analysis_specs, phases, oracle=True)
    verdict = readability_check(analysis, POINTER_CUT) if len(specs) == 2 else None
    rho = engine.system_density(state).matrix
    purity = float(np.trace(rho @ rho).real)
    schmidt_dict = _schmidt_dict(state)
    shared_checks = {
        "evolution_paths_agree": paths <= PATHS_TOL,
        "norm_preserved": abs(state.state.norm - 1.0) <= NORM_TOL,
    }
    expected_rank = None
    if len(couplings) == 1:
        expected_rank = _expected_branch_rank(system, couplings[0])
        shared_checks["schmidt_rank_as_expected"] = (
            expected_rank is None or schmidt_dict["rank"] == expected_rank
        )

    def at_scale(scale: float) -> UnifiedState:
        return _evolve(system, specs, scenario.phases(cfg, scale))[0]

    measured = scenario.measure(Run(cfg, state, at_scale, verdict, purity, expected_rank))
    return ScenarioReport(
        scenario=name,
        config=cfg,
        readouts=measured.readouts,
        predictions=measured.predictions,
        defects={**measured.defects, "evolution_paths": paths},
        checks={**measured.checks, **shared_checks},
        readability=_verdict_dict(verdict) if verdict is not None else {},
        schmidt=schmidt_dict,
        purity=purity,
        notes=measured.notes,
        runtime_seconds=time.perf_counter() - start,
    )
