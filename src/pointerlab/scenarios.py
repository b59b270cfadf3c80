"""Canned measurement experiments with closed-form predictions.

Each scenario prepares a concrete system and pointer configuration, runs
the exact evolution, and compares every readout against an independent
prediction: closed-form shift formulas, weak values, overlap-damped means,
truncation-order scalings or separability verdicts. The result is a
ScenarioReport whose ``checks`` map names each comparison to a boolean;
``pass`` is their conjunction.

Conventions shared by all scenarios:

* qubit states are parametrized on the Bloch sphere,
  cos(theta/2)|up> + exp(i phi) sin(theta/2)|down>;
* the correlated-pair scenario reuses (theta_i, phi_i) as coordinates
  inside the anticorrelated two-qubit subspace, so its default is the
  singlet;
* readouts run on the configured grid profile, while separability
  analysis and dense cross-validation run on a fixed small analysis grid,
  where the dense integrator is affordable.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import engine, separability
from .engine import Coupling, UnifiedState
from .pointer import PointerGrid, PointerSpec
from .separability import SeparabilityVerdict, readability_check
from .tensors import DimensionSpec, Operator, StateVector, embed, expectation, schmidt

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

FINE_GRID = PointerGrid(points=256, length=16.0)
COARSE_GRID = PointerGrid(points=16, length=16.0)
ANALYSIS_GRID = COARSE_GRID

READOUT_TOL = 1e-8
EIGEN_READOUT_TOL = 1e-9
PATHS_TOL = 1e-8
NORM_TOL = 1e-10
PURITY_TOL = 1e-6
CERT_TOL = 1e-8
# Two-point scaling checks demand at least this reduction per halving,
# unless the defect is already at the roundoff floor.
QUADRATIC_RATIO = 3.5
CUBIC_RATIO = 7.5
SCALING_FLOOR = 1e-12


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs shared by every scenario; unused ones are simply ignored.

    ``g_a``/``g_b`` are coupling strengths, ``t`` the shared interaction
    time. Angles are Bloch coordinates of the initial and post-selection
    states. ``grid_profile`` picks the readout grid; ``grid_points`` and
    ``grid_length`` override it explicitly.
    """

    g_a: float = 0.2
    g_b: float = 0.0
    t: float = 1.0
    theta_i: float = math.pi / 3
    phi_i: float = 0.0
    theta_f: float = math.pi / 4
    phi_f: float = 0.0
    x0_a: float = 0.0
    x0_b: float = 0.0
    sigma: float = 1.0
    grid_profile: str = "fine"
    grid_points: int | None = None
    grid_length: float | None = None
    seed: int = 0

    def readout_grid(self) -> PointerGrid:
        base = {"fine": FINE_GRID, "coarse": COARSE_GRID}.get(self.grid_profile)
        if base is None:
            raise ValueError(f"unknown grid profile {self.grid_profile!r}")
        points = self.grid_points if self.grid_points is not None else base.points
        length = self.grid_length if self.grid_length is not None else base.length
        return PointerGrid(points=points, length=length)


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
    return Operator(DimensionSpec.of((label, 2)), matrix, hermitian=True)


def _spec(label: str, grid: PointerGrid, x0: float, sigma: float) -> PointerSpec:
    return PointerSpec(label=label, grid=grid, x0=x0, sigma=sigma)


def _purity(state: UnifiedState) -> float:
    rho = engine.system_density(state).matrix
    return float(np.trace(rho @ rho).real)


def _gauss_overlap(shift: float, sigma: float) -> float:
    """Continuum overlap of two Gaussians displaced by ``shift``."""
    return math.exp(-(shift**2) / (8.0 * sigma**2))


def _sampled_overlap(spec: PointerSpec, d1: float, d2: float) -> float:
    """Overlap of two displaced packets, each sampled directly on the grid.

    Deliberately avoids the Fourier translation used by the engine; this is
    the independent route for overlap-based predictions.
    """
    x = spec.grid.positions()

    def packet(center: float) -> np.ndarray:
        amp = np.exp(-((x - center) ** 2) / (4.0 * spec.sigma**2))
        return amp / np.linalg.norm(amp)

    return float(packet(spec.x0 + d1) @ packet(spec.x0 + d2))


def _paths_defect(
    system: StateVector, specs: list[PointerSpec], phases: list[list[Coupling]]
) -> float:
    """Worst disagreement between the two integrators across all phases."""
    state = engine.build_initial(system, specs)
    worst = 0.0
    for phase in phases:
        worst = max(worst, engine.cross_validate(state, phase))
        state = engine.evolve(state, phase, "shift")
    return worst


def _analysis_specs(cfg: ScenarioConfig, labels_x0: list[tuple[str, float]]) -> list[PointerSpec]:
    return [_spec(lab, ANALYSIS_GRID, x0, cfg.sigma) for lab, x0 in labels_x0]


def _dense_feasible(system: StateVector, specs: list[PointerSpec]) -> bool:
    total = system.dims.total
    for spec in specs:
        total *= spec.grid.points
    return total <= engine.DENSE_LIMIT


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


def _expected_branch_rank(weights: np.ndarray, impulse: float) -> int | None:
    """Predicted Schmidt rank for one coupling, or None when too marginal.

    Branches with population below 1e-12 stay invisible; an impulse below
    1e-8 cannot split the pointer beyond the rank tolerance.
    """
    if abs(impulse) < 1e-8:
        return None
    populated = int(np.count_nonzero(weights > 1e-12))
    return populated if populated >= 1 else None


# --------------------------------------------------------------------------
# weak-noselect


def scenario_weak_noselect(cfg: ScenarioConfig | None = None) -> ScenarioReport:
    """Unselected readout: the pointer mean moves by impulse times <A>."""
    cfg = cfg or DEFAULTS["weak-noselect"]
    start = time.perf_counter()
    system = bloch_state(cfg.theta_i, cfg.phi_i)
    observable = pauli(SIGMA_Z)
    spec = _spec("A", cfg.readout_grid(), cfg.x0_a, cfg.sigma)
    coupling = Coupling(observable, "A", cfg.g_a, cfg.t)

    state = engine.evolve(engine.build_initial(system, [spec]), [coupling])
    mean_a = engine.pointer_mean(state, "A")
    exp_a = expectation(observable, system).real
    predicted = cfg.x0_a + coupling.impulse * exp_a

    branch_weights = np.abs(np.linalg.eigh(SIGMA_Z)[1].conj().T @ system.amplitudes) ** 2
    expected_rank = _expected_branch_rank(branch_weights, coupling.impulse)
    sdict = _schmidt_dict(state)

    paths_specs = [spec] if _dense_feasible(system, [spec]) else _analysis_specs(
        cfg, [("A", cfg.x0_a)]
    )
    paths = _paths_defect(system, paths_specs, [[coupling]])

    readouts = {"mean_a": mean_a}
    predictions = {"mean_a": predicted}
    defects = {"mean_a": abs(mean_a - predicted), "evolution_paths": paths}
    checks = {
        "readout_matches_average": defects["mean_a"] <= READOUT_TOL,
        "evolution_paths_agree": paths <= PATHS_TOL,
        "norm_preserved": abs(state.state.norm - 1.0) <= NORM_TOL,
        "schmidt_rank_as_expected": (
            True if expected_rank is None else sdict["rank"] == expected_rank
        ),
    }
    notes = []
    if expected_rank is None:
        notes.append("coupling too marginal to pin the Schmidt rank")
    return ScenarioReport(
        scenario="weak-noselect",
        config=cfg,
        readouts=readouts,
        predictions=predictions,
        defects=defects,
        checks=checks,
        readability={},
        schmidt=sdict,
        purity=_purity(state),
        notes=notes,
        runtime_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# weak-postselect


def _postselect_once(
    cfg: ScenarioConfig, impulse_scale: float
) -> tuple[dict[str, float], dict[str, float]]:
    """Run the post-selected readout; return simulated and predicted values."""
    system = bloch_state(cfg.theta_i, cfg.phi_i)
    final = bloch_state(cfg.theta_f, cfg.phi_f)
    observable = pauli(SIGMA_Z)
    spec = _spec("A", cfg.readout_grid(), cfg.x0_a, cfg.sigma)
    coupling = Coupling(observable, "A", cfg.g_a * impulse_scale, cfg.t)

    state = engine.evolve(engine.build_initial(system, [spec]), [coupling])
    result = engine.postselect(state, final)
    wv = engine.weak_value(observable, system, final)

    overlap_sq = abs(wv.overlap) ** 2
    shifted = cfg.x0_a + coupling.impulse * wv.value.real
    simulated = {
        "probability": result.probability,
        "unnormalized_mean_a": result.report.postselection.unnormalized_mean["A"],
        "normalized_mean_a": result.report.postselection.normalized_mean["A"],
        "norm": state.state.norm,
    }
    predicted = {
        "probability": overlap_sq,
        "unnormalized_mean_a": overlap_sq * shifted,
        "normalized_mean_a": shifted,
        "weak_value_re": wv.value.real,
        "weak_value_im": wv.value.imag,
    }
    return simulated, predicted


def scenario_weak_postselect(cfg: ScenarioConfig | None = None) -> ScenarioReport:
    """Post-selected readout: the pointer mean reads Re of the weak value.

    The weak-value formulas hold to first order in the impulse, so each
    defect is checked for (at least) quadratic decay under halving rather
    than against an absolute tolerance.
    """
    cfg = cfg or DEFAULTS["weak-postselect"]
    start = time.perf_counter()
    simulated, predicted = _postselect_once(cfg, 1.0)
    simulated_half, predicted_half = _postselect_once(cfg, 0.5)

    keys = ("probability", "unnormalized_mean_a", "normalized_mean_a")
    defects = {k: abs(simulated[k] - predicted[k]) for k in keys}
    defects_half = {k: abs(simulated_half[k] - predicted_half[k]) for k in keys}

    system = bloch_state(cfg.theta_i, cfg.phi_i)
    observable = pauli(SIGMA_Z)
    spec = _spec("A", cfg.readout_grid(), cfg.x0_a, cfg.sigma)
    coupling = Coupling(observable, "A", cfg.g_a, cfg.t)
    pre_state = engine.evolve(engine.build_initial(system, [spec]), [coupling])
    sdict = _schmidt_dict(pre_state)
    branch_weights = np.abs(np.linalg.eigh(SIGMA_Z)[1].conj().T @ system.amplitudes) ** 2
    expected_rank = _expected_branch_rank(branch_weights, coupling.impulse)

    paths_specs = [spec] if _dense_feasible(system, [spec]) else _analysis_specs(
        cfg, [("A", cfg.x0_a)]
    )
    paths = _paths_defect(system, paths_specs, [[coupling]])

    checks = {
        f"{k}_first_order_scaling": _scaling_check(
            defects[k], defects_half[k], QUADRATIC_RATIO
        )
        for k in keys
    }
    checks.update(
        {
            "evolution_paths_agree": paths <= PATHS_TOL,
            "norm_preserved": abs(simulated["norm"] - 1.0) <= NORM_TOL,
            "schmidt_rank_as_expected": (
                True if expected_rank is None else sdict["rank"] == expected_rank
            ),
        }
    )
    readouts = {k: simulated[k] for k in keys}
    readouts.update({f"{k}_half_impulse": simulated_half[k] for k in keys})
    defects_all = dict(defects)
    defects_all.update({f"{k}_half_impulse": defects_half[k] for k in keys})
    defects_all["evolution_paths"] = paths
    return ScenarioReport(
        scenario="weak-postselect",
        config=cfg,
        readouts=readouts,
        predictions=predicted,
        defects=defects_all,
        checks=checks,
        readability={},
        schmidt=sdict,
        purity=_purity(pre_state),
        notes=[
            "defects compare against first-order weak-value formulas",
            "both readout conventions reported: raw and probability-normalized",
        ],
        runtime_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# simultaneous


def _simultaneous_cross_defect(
    cfg: ScenarioConfig, scale: float, grid: PointerGrid
) -> float:
    system = bloch_state(cfg.theta_i, cfg.phi_i)
    a, b = pauli(SIGMA_X), pauli(SIGMA_Z)
    specs = [
        _spec("A", grid, cfg.x0_a, cfg.sigma),
        _spec("B", grid, cfg.x0_b, cfg.sigma),
    ]
    couplings = [
        Coupling(a, "A", cfg.g_a * scale, cfg.t),
        Coupling(b, "B", cfg.g_b * scale, cfg.t),
    ]
    state = engine.evolve(engine.build_initial(system, specs), couplings)
    cross = engine.pointer_cross_mean(state, "A", "B")
    ia, ib = couplings[0].impulse, couplings[1].impulse
    exp_a = expectation(a, system).real
    exp_b = expectation(b, system).real
    anti = Operator(a.dims, a.matrix @ b.matrix + b.matrix @ a.matrix, hermitian=True)
    predicted = (
        cfg.x0_a * cfg.x0_b
        + ia * cfg.x0_b * exp_a
        + ib * cfg.x0_a * exp_b
        + 0.5 * ia * ib * expectation(anti, system).real
    )
    return abs(cross - predicted)


def scenario_simultaneous(cfg: ScenarioConfig | None = None) -> ScenarioReport:
    """Two pointers coupled at once to observables that do not commute.

    Single-pointer means still follow the shift formula up to a quantified
    backaction allowance; the joint moment follows its first-order form with
    a defect that must vanish faster than quadratically; and the apparatus
    record is checked for (non)separability on the analysis grid.
    """
    cfg = cfg or DEFAULTS["simultaneous"]
    start = time.perf_counter()
    system = bloch_state(cfg.theta_i, cfg.phi_i)
    a, b = pauli(SIGMA_X), pauli(SIGMA_Z)
    grid = cfg.readout_grid()
    specs = [
        _spec("A", grid, cfg.x0_a, cfg.sigma),
        _spec("B", grid, cfg.x0_b, cfg.sigma),
    ]
    coupling_a = Coupling(a, "A", cfg.g_a, cfg.t)
    coupling_b = Coupling(b, "B", cfg.g_b, cfg.t)
    state = engine.evolve(engine.build_initial(system, specs), [coupling_a, coupling_b])

    mean_a = engine.pointer_mean(state, "A")
    mean_b = engine.pointer_mean(state, "B")
    cross = engine.pointer_cross_mean(state, "A", "B")
    exp_a = expectation(a, system).real
    exp_b = expectation(b, system).real
    anti = Operator(a.dims, a.matrix @ b.matrix + b.matrix @ a.matrix, hermitian=True)
    exp_anti = expectation(anti, system).real
    ia, ib = coupling_a.impulse, coupling_b.impulse

    pred_a = cfg.x0_a + ia * exp_a
    pred_b = cfg.x0_b + ib * exp_b
    pred_cross = (
        cfg.x0_a * cfg.x0_b + ia * cfg.x0_b * exp_a + ib * cfg.x0_a * exp_b
        + 0.5 * ia * ib * exp_anti
    )

    # Simultaneous noncommuting couplings disturb each other's readout at
    # second order in the other impulse; the shift formula is held to that
    # quantified allowance instead of being asserted blindly.
    spread_a = float(np.ptp(np.linalg.eigvalsh(a.matrix)))
    spread_b = float(np.ptp(np.linalg.eigvalsh(b.matrix)))
    norm_a = float(np.abs(np.linalg.eigvalsh(a.matrix)).max())
    norm_b = float(np.abs(np.linalg.eigvalsh(b.matrix)).max())
    allow_a = max(READOUT_TOL, abs(ia) * norm_a * (ib * spread_b) ** 2 / (8 * cfg.sigma**2))
    allow_b = max(READOUT_TOL, abs(ib) * norm_b * (ia * spread_a) ** 2 / (8 * cfg.sigma**2))

    cross_defect = abs(cross - pred_cross)
    cross_defect_half = _simultaneous_cross_defect(cfg, 0.5, grid)

    gap_pred = abs(pred_cross - pred_a * pred_b)
    gap_sim = abs(cross - mean_a * mean_b)
    notes = []
    if gap_pred > 2e-6:
        nonfactor = gap_sim > 1e-6
    else:
        nonfactor = True
        notes.append("joint moment predicted to factorize here; gap check idle")

    analysis_specs = _analysis_specs(cfg, [("A", cfg.x0_a), ("B", cfg.x0_b)])
    analysis_state = engine.evolve(
        engine.build_initial(system, analysis_specs), [coupling_a, coupling_b]
    )
    verdict = readability_check(analysis_state, (("A",), ("B",)))
    paths = _paths_defect(system, analysis_specs, [[coupling_a, coupling_b]])

    readouts = {"mean_a": mean_a, "mean_b": mean_b, "cross_moment": cross}
    predictions = {
        "mean_a": pred_a,
        "mean_b": pred_b,
        "cross_moment": pred_cross,
        "anticommutator_average": exp_anti,
    }
    defects = {
        "mean_a": abs(mean_a - pred_a),
        "mean_b": abs(mean_b - pred_b),
        "cross_moment": cross_defect,
        "cross_moment_half_impulse": cross_defect_half,
        "evolution_paths": paths,
    }
    checks = {
        "mean_a_within_allowance": defects["mean_a"] <= allow_a,
        "mean_b_within_allowance": defects["mean_b"] <= allow_b,
        "cross_moment_beyond_first_order": _scaling_check(
            cross_defect, cross_defect_half, CUBIC_RATIO
        ),
        "joint_moment_nonfactorizing": nonfactor,
        "record_not_separable": verdict.status != "separable",
        "evolution_paths_agree": paths <= PATHS_TOL,
        "norm_preserved": abs(state.state.norm - 1.0) <= NORM_TOL,
    }
    notes.append(f"backaction allowances: mean_a {allow_a:.3e}, mean_b {allow_b:.3e}")
    return ScenarioReport(
        scenario="simultaneous",
        config=cfg,
        readouts=readouts,
        predictions=predictions,
        defects=defects,
        checks=checks,
        readability=_verdict_dict(verdict),
        schmidt=_schmidt_dict(state),
        purity=_purity(state),
        notes=notes,
        runtime_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# weak-orders


def _truncation_defect(cfg: ScenarioConfig, scale: float, order: int) -> float:
    """Norm of the gap between the exact state and the truncated series."""
    system = bloch_state(cfg.theta_i, cfg.phi_i)
    grid = cfg.readout_grid()
    specs = [
        _spec("A", grid, cfg.x0_a, cfg.sigma),
        _spec("B", grid, cfg.x0_b, cfg.sigma),
    ]
    couplings = [
        Coupling(pauli(SIGMA_X), "A", cfg.g_a * scale, cfg.t),
        Coupling(pauli(SIGMA_Z), "B", cfg.g_b * scale, cfg.t),
    ]
    initial = engine.build_initial(system, specs)
    exact = engine.evolve(initial, couplings)
    truncated = engine.expand_perturbative(initial, couplings, order)
    return float(
        np.linalg.norm(exact.state.amplitudes - truncated.state.amplitudes)
    )


def scenario_weak_orders(cfg: ScenarioConfig | None = None) -> ScenarioReport:
    """Order-by-order control of the weak expansion.

    Truncation defects must scale with the right power of the coupling,
    the first-order reduced state must admit a product certificate with a
    roundoff-level defect, and the partial transpose must interpolate from
    a clean entanglement witness at strong coupling to zero in the weak
    limit.
    """
    cfg = cfg or DEFAULTS["weak-orders"]
    start = time.perf_counter()
    system = bloch_state(cfg.theta_i, cfg.phi_i)

    d1 = _truncation_defect(cfg, 1.0, 1)
    d1_half = _truncation_defect(cfg, 0.5, 1)
    d2 = _truncation_defect(cfg, 1.0, 2)
    d2_half = _truncation_defect(cfg, 0.5, 2)
    # Ratio 0 stands for "both defects at the roundoff floor".
    ratio1 = d1 / d1_half if d1_half > SCALING_FLOOR else 0.0
    ratio2 = d2 / d2_half if d2_half > SCALING_FLOOR else 0.0
    floor1 = d1 <= SCALING_FLOOR and d1_half <= SCALING_FLOOR
    floor2 = d2 <= SCALING_FLOOR and d2_half <= SCALING_FLOOR

    analysis_specs = _analysis_specs(cfg, [("A", cfg.x0_a), ("B", cfg.x0_b)])
    coupling_a = Coupling(pauli(SIGMA_X), "A", cfg.g_a, cfg.t)
    coupling_b = Coupling(pauli(SIGMA_Z), "B", cfg.g_b, cfg.t)
    certificate, cert_defect = separability.first_order_product_certificate(
        system, analysis_specs, coupling_a, coupling_b
    )

    exact_state = engine.evolve(
        engine.build_initial(system, analysis_specs), [coupling_a, coupling_b]
    )
    verdict = readability_check(exact_state, (("A",), ("B",)))

    def ppt_at(impulse: float) -> float:
        couplings = [
            Coupling(pauli(SIGMA_X), "A", impulse, 1.0),
            Coupling(pauli(SIGMA_Z), "B", impulse, 1.0),
        ]
        state = engine.evolve(engine.build_initial(system, analysis_specs), couplings)
        return separability.ppt_min_eigenvalue(
            engine.apparatus_density(state), (("A",), ("B",))
        )

    ppt_strong = ppt_at(1.0)
    ppt_weak = ppt_at(1e-3)
    paths = _paths_defect(system, analysis_specs, [[coupling_a, coupling_b]])

    readouts = {
        "truncation_defect_order1": d1,
        "truncation_defect_order2": d2,
        "defect_ratio_order1": ratio1,
        "defect_ratio_order2": ratio2,
        "ppt_min_strong_coupling": ppt_strong,
        "ppt_min_weak_coupling": ppt_weak,
    }
    predictions = {"defect_ratio_order1": 4.0, "defect_ratio_order2": 8.0}
    defects = {
        "first_order_certificate": cert_defect,
        "evolution_paths": paths,
    }
    checks = {
        "order1_defect_scales_quadratically": floor1 or 3.5 <= ratio1 <= 4.5,
        "order2_defect_scales_cubically": floor2 or 7.0 <= ratio2 <= 9.0,
        "first_order_record_is_product": cert_defect <= CERT_TOL,
        "exact_record_not_separable": verdict.status != "separable",
        "strong_coupling_entangled": ppt_strong < separability.ENTANGLEMENT_THRESHOLD,
        "weak_limit_ppt_vanishes": abs(ppt_weak) < 1e-8,
        "evolution_paths_agree": paths <= PATHS_TOL,
        "norm_preserved": abs(exact_state.state.norm - 1.0) <= NORM_TOL,
    }
    return ScenarioReport(
        scenario="weak-orders",
        config=cfg,
        readouts=readouts,
        predictions=predictions,
        defects=defects,
        checks=checks,
        readability=_verdict_dict(verdict),
        schmidt=_schmidt_dict(exact_state),
        purity=_purity(exact_state),
        notes=[
            f"certificate kind: {certificate.kind}",
            "reference probes at impulse 1.0 and 1e-3 regardless of configured g",
        ],
        runtime_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# eigenstate


def scenario_eigenstate(cfg: ScenarioConfig | None = None) -> ScenarioReport:
    """Coupling an observable to a state with no mean shift.

    The default initial state is an equal mixture of the two coupled
    eigenvalues, so the pointer mean stays exactly put while the system
    purity dips by the branch-overlap factor.
    """
    cfg = cfg or DEFAULTS["eigenstate"]
    start = time.perf_counter()
    system = bloch_state(cfg.theta_i, cfg.phi_i)
    observable = pauli(SIGMA_X)
    spec = _spec("A", cfg.readout_grid(), cfg.x0_a, cfg.sigma)
    coupling = Coupling(observable, "A", cfg.g_a, cfg.t)
    state = engine.evolve(engine.build_initial(system, [spec]), [coupling])

    mean_a = engine.pointer_mean(state, "A")
    exp_a = expectation(observable, system).real
    pred_a = cfg.x0_a + coupling.impulse * exp_a

    eigvals, eigvecs = np.linalg.eigh(observable.matrix)
    weights = np.abs(eigvecs.conj().T @ system.amplitudes) ** 2
    split = coupling.impulse * float(eigvals[1] - eigvals[0])
    overlap_formula = _gauss_overlap(split, cfg.sigma)
    overlap_sampled = _sampled_overlap(
        spec, coupling.impulse * float(eigvals[0]), coupling.impulse * float(eigvals[1])
    )

    def purity_from(overlap: float) -> float:
        p0, p1 = float(weights[0]), float(weights[1])
        return p0**2 + p1**2 + 2 * p0 * p1 * overlap**2

    purity = _purity(state)
    sdict = _schmidt_dict(state)
    expected_rank = _expected_branch_rank(weights, coupling.impulse)
    paths_specs = [spec] if _dense_feasible(system, [spec]) else _analysis_specs(
        cfg, [("A", cfg.x0_a)]
    )
    paths = _paths_defect(system, paths_specs, [[coupling]])

    readouts = {"mean_a": mean_a, "purity": purity}
    predictions = {
        "mean_a": pred_a,
        "purity_formula": purity_from(overlap_formula),
        "purity_sampled_overlap": purity_from(overlap_sampled),
    }
    defects = {
        "mean_a": abs(mean_a - pred_a),
        "purity_formula": abs(purity - predictions["purity_formula"]),
        "purity_sampled_overlap": abs(purity - predictions["purity_sampled_overlap"]),
        "evolution_paths": paths,
    }
    checks = {
        "readout_stays_put": defects["mean_a"] <= EIGEN_READOUT_TOL,
        "purity_matches_formula": defects["purity_formula"] <= PURITY_TOL,
        "purity_matches_sampled_overlap": defects["purity_sampled_overlap"] <= PURITY_TOL,
        "schmidt_rank_as_expected": (
            True if expected_rank is None else sdict["rank"] == expected_rank
        ),
        "evolution_paths_agree": paths <= PATHS_TOL,
        "norm_preserved": abs(state.state.norm - 1.0) <= NORM_TOL,
    }
    return ScenarioReport(
        scenario="eigenstate",
        config=cfg,
        readouts=readouts,
        predictions=predictions,
        defects=defects,
        checks=checks,
        readability={},
        schmidt=sdict,
        purity=purity,
        notes=["purity compared against both the closed form and a sampled overlap"],
        runtime_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# epr


def _pair_state(cfg: ScenarioConfig) -> StateVector:
    """c1 |up,down> + c2 |down,up> with (c1, c2) taken from the Bloch angles."""
    dims = DimensionSpec.of(("s1", 2), ("s2", 2))
    c1 = math.cos(cfg.theta_i / 2)
    c2 = complex(math.cos(cfg.phi_i), math.sin(cfg.phi_i)) * math.sin(cfg.theta_i / 2)
    amps = np.zeros(4, dtype=complex)
    amps[1] = c1
    amps[2] = c2
    return StateVector(dims, amps)


def scenario_epr(cfg: ScenarioConfig | None = None) -> ScenarioReport:
    """Anticorrelated pair read out by one local pointer per side.

    The correlation observable is sharp (its variance vanishes on the whole
    anticorrelated subspace), both local readouts follow the shift formula,
    and the joint record of the two local couplings stays separable, with
    certificate weights equal to the joint eigenvector populations.
    """
    cfg = cfg or DEFAULTS["epr"]
    start = time.perf_counter()
    system = _pair_state(cfg)
    qdims = system.dims
    a = _embed_qubit(SIGMA_X, qdims, "s1")
    b = _embed_qubit(SIGMA_Z, qdims, "s2")
    correlation = Operator(qdims, np.kron(SIGMA_Z, SIGMA_Z), hermitian=True)

    corr = expectation(correlation, system).real
    corr_var = (
        expectation(
            Operator(qdims, correlation.matrix @ correlation.matrix, hermitian=True),
            system,
        ).real
        - corr**2
    )

    grid = cfg.readout_grid()
    specs = [
        _spec("A", grid, cfg.x0_a, cfg.sigma),
        _spec("B", grid, cfg.x0_b, cfg.sigma),
    ]
    coupling_a = Coupling(a, "A", cfg.g_a, cfg.t)
    coupling_b = Coupling(b, "B", cfg.g_b, cfg.t)
    state = engine.evolve(engine.build_initial(system, specs), [coupling_a, coupling_b])

    mean_a = engine.pointer_mean(state, "A")
    mean_b = engine.pointer_mean(state, "B")
    pred_a = cfg.x0_a + coupling_a.impulse * expectation(a, system).real
    pred_b = cfg.x0_b + coupling_b.impulse * expectation(b, system).real

    analysis_specs = _analysis_specs(cfg, [("A", cfg.x0_a), ("B", cfg.x0_b)])
    analysis_state = engine.evolve(
        engine.build_initial(system, analysis_specs), [coupling_a, coupling_b]
    )
    verdict = readability_check(analysis_state, (("A",), ("B",)))

    # Independent weight prediction: populations of the product eigenvectors
    # of the two local observables.
    wa, va = np.linalg.eigh(SIGMA_X)
    wb, vb = np.linalg.eigh(SIGMA_Z)
    predicted_weights = []
    for i in range(2):
        for j in range(2):
            vec = np.kron(va[:, i], vb[:, j])
            predicted_weights.append(float(abs(vec.conj() @ system.amplitudes) ** 2))
    predicted_weights = sorted(
        w for w in predicted_weights if w >= separability.WEIGHT_PRUNE
    )
    cert_weights = (
        sorted(verdict.certificate.weights) if verdict.certificate is not None else []
    )
    weights_match = len(cert_weights) == len(predicted_weights) and all(
        abs(x - y) <= 1e-10 for x, y in zip(cert_weights, predicted_weights)
    )

    paths = _paths_defect(system, analysis_specs, [[coupling_a, coupling_b]])

    readouts = {"mean_a": mean_a, "mean_b": mean_b, "correlation": corr}
    predictions = {"mean_a": pred_a, "mean_b": pred_b, "correlation": -1.0}
    defects = {
        "mean_a": abs(mean_a - pred_a),
        "mean_b": abs(mean_b - pred_b),
        "correlation": abs(corr + 1.0),
        "correlation_variance": abs(corr_var),
        "evolution_paths": paths,
    }
    checks = {
        "anticorrelation_sharp": defects["correlation"] <= 1e-12
        and defects["correlation_variance"] <= 1e-12,
        "mean_a_matches": defects["mean_a"] <= EIGEN_READOUT_TOL,
        "mean_b_matches": defects["mean_b"] <= EIGEN_READOUT_TOL,
        "record_separable": verdict.status == "separable"
        and (verdict.certificate_error or 1.0) <= CERT_TOL,
        "weights_match_populations": weights_match,
        "evolution_paths_agree": paths <= PATHS_TOL,
        "norm_preserved": abs(state.state.norm - 1.0) <= NORM_TOL,
    }
    return ScenarioReport(
        scenario="epr",
        config=cfg,
        readouts=readouts,
        predictions=predictions,
        defects=defects,
        checks=checks,
        readability=_verdict_dict(verdict),
        schmidt=_schmidt_dict(state),
        purity=_purity(state),
        notes=["theta_i, phi_i parametrize the anticorrelated subspace"],
        runtime_seconds=time.perf_counter() - start,
    )


def _embed_qubit(matrix: np.ndarray, dims: DimensionSpec, label: str) -> Operator:
    """Single-qubit operator extended by identity to the full pair space."""
    local = Operator(dims.subset([label]), matrix, hermitian=True)
    return embed(local, dims)


# --------------------------------------------------------------------------
# sequential


def scenario_sequential(cfg: ScenarioConfig | None = None) -> ScenarioReport:
    """Two couplings applied back to back instead of simultaneously.

    The first pointer's record dephases the system in the first observable's
    eigenbasis, so the second readout follows an overlap-damped version of
    the shift formula; conditioning on the first record drags the second
    one when the observables do not commute; and the joint record admits an
    exact branch decomposition at any coupling strength.
    """
    cfg = cfg or DEFAULTS["sequential"]
    start = time.perf_counter()
    system = bloch_state(cfg.theta_i, cfg.phi_i)
    first_obs = pauli(SIGMA_Z)
    second_obs = pauli(SIGMA_X)
    grid = cfg.readout_grid()
    specs = [
        _spec("A", grid, cfg.x0_a, cfg.sigma),
        _spec("B", grid, cfg.x0_b, cfg.sigma),
    ]
    first = Coupling(first_obs, "B", cfg.g_b, cfg.t)
    second = Coupling(second_obs, "A", cfg.g_a, cfg.t)
    state = engine.evolve_sequential(engine.build_initial(system, specs), first, second)

    mean_a = engine.pointer_mean(state, "A")
    mean_b = engine.pointer_mean(state, "B")
    pred_b = cfg.x0_b + first.impulse * expectation(first_obs, system).real
    pred_a_undamped = cfg.x0_a + second.impulse * expectation(second_obs, system).real

    # Overlap-damped prediction: coherences of the second observable in the
    # first observable's eigenbasis survive only up to the overlap of the
    # correspondingly displaced first-pointer packets. The overlaps come
    # from directly sampled packets, independent of the Fourier engine.
    wb, vb = np.linalg.eigh(first_obs.matrix)
    amps_b = vb.conj().T @ system.amplitudes
    a_in_b = vb.conj().T @ second_obs.matrix @ vb
    spec_b = specs[1]
    damped_sum = 0.0
    for i in range(len(wb)):
        for j in range(len(wb)):
            overlap = _sampled_overlap(
                spec_b, first.impulse * float(wb[i]), first.impulse * float(wb[j])
            )
            damped_sum += float(
                (np.conj(amps_b[i]) * amps_b[j] * a_in_b[i, j]).real
            ) * overlap
    pred_a_damped = cfg.x0_a + second.impulse * damped_sum

    defect_a_damped = abs(mean_a - pred_a_damped)
    defect_a_undamped = abs(mean_a - pred_a_undamped)
    predicted_gap = abs(pred_a_damped - pred_a_undamped)
    if predicted_gap <= READOUT_TOL:
        first_order_consistent = defect_a_undamped <= READOUT_TOL
    else:
        first_order_consistent = defect_a_undamped <= 1.2 * predicted_gap + READOUT_TOL

    # Conditioning on the first pointer landing above its starting center.
    tensor = state.tensor()
    xb = spec_b.grid.positions()
    mask = xb > cfg.x0_b
    weights = np.abs(tensor) ** 2
    cond_prob = float(weights[:, :, mask].sum())
    xa = specs[0].grid.positions()
    cond_mean_a = float(
        (weights[:, :, mask].sum(axis=(0, 2)) @ xa) / cond_prob
    )
    deviation = abs(cond_mean_a - mean_a)
    branch_weights = np.abs(amps_b) ** 2
    conditioning_active = (
        not engine.commutes(first_obs, second_obs)
        and float(np.sort(branch_weights)[-2]) >= 0.05
        and abs(expectation(second_obs, system).real * second.impulse) >= 0.01
    )
    notes = []
    if conditioning_active:
        conditioned_shifts = deviation > 1e-3
    else:
        conditioned_shifts = True
        notes.append("conditioned-readout check idle: no disturbance expected here")

    # Information left in the system right after the first coupling, read
    # through observables that do and do not commute with it.
    fresh = engine.build_initial(system, [specs[1]])
    proj_up = Operator(system.dims, np.array([[1, 0], [0, 0]], dtype=complex), hermitian=True)
    info_commuting = engine.initial_info_expectation(fresh, [first], proj_up)
    info_before = expectation(proj_up, system).real
    plus_x = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    proj_plus = Operator(system.dims, plus_x, hermitian=True)
    info_noncommuting = engine.initial_info_expectation(fresh, [first], proj_plus)
    info_noncommuting_before = expectation(proj_plus, system).real

    analysis_specs = _analysis_specs(cfg, [("A", cfg.x0_a), ("B", cfg.x0_b)])
    analysis_state = engine.evolve_sequential(
        engine.build_initial(system, analysis_specs), first, second
    )
    verdict = readability_check(analysis_state, (("A",), ("B",)))
    paths = _paths_defect(system, analysis_specs, [[first], [second]])

    readouts = {
        "mean_a": mean_a,
        "mean_b": mean_b,
        "conditioned_mean_a": cond_mean_a,
        "conditioned_probability": cond_prob,
        "info_commuting_readout": info_commuting,
        "info_noncommuting_readout": info_noncommuting,
    }
    predictions = {
        "mean_a_damped": pred_a_damped,
        "mean_a_first_order": pred_a_undamped,
        "mean_b": pred_b,
        "info_commuting_readout": info_before,
        "info_noncommuting_before": info_noncommuting_before,
    }
    defects = {
        "mean_a_damped": defect_a_damped,
        "mean_a_first_order": defect_a_undamped,
        "mean_b": abs(mean_b - pred_b),
        "conditioned_deviation": deviation,
        "info_commuting": abs(info_commuting - info_before),
        "evolution_paths": paths,
    }
    checks = {
        "mean_b_matches": defects["mean_b"] <= READOUT_TOL,
        "mean_a_matches_damped_form": defect_a_damped <= READOUT_TOL,
        "first_order_form_within_dephasing": first_order_consistent,
        "conditioned_readout_shifts": conditioned_shifts,
        "initial_info_preserved": defects["info_commuting"] <= 1e-10,
        "record_separable": verdict.status == "separable"
        and (verdict.certificate_error or 1.0) <= CERT_TOL,
        "evolution_paths_agree": paths <= PATHS_TOL,
        "norm_preserved": abs(state.state.norm - 1.0) <= NORM_TOL,
    }
    return ScenarioReport(
        scenario="sequential",
        config=cfg,
        readouts=readouts,
        predictions=predictions,
        defects=defects,
        checks=checks,
        readability=_verdict_dict(verdict),
        schmidt=_schmidt_dict(state),
        purity=_purity(state),
        notes=notes
        + ["first coupling acts on pointer B, second on pointer A"],
        runtime_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# registry

ScenarioFn = Callable[[ScenarioConfig | None], ScenarioReport]

SCENARIOS: dict[str, ScenarioFn] = {
    "weak-noselect": scenario_weak_noselect,
    "weak-postselect": scenario_weak_postselect,
    "simultaneous": scenario_simultaneous,
    "weak-orders": scenario_weak_orders,
    "eigenstate": scenario_eigenstate,
    "epr": scenario_epr,
    "sequential": scenario_sequential,
}

DEFAULTS: dict[str, ScenarioConfig] = {
    "weak-noselect": ScenarioConfig(g_a=0.2),
    "weak-postselect": ScenarioConfig(
        g_a=0.01, theta_i=math.pi / 2, theta_f=math.pi / 4
    ),
    "simultaneous": ScenarioConfig(g_a=0.05, g_b=0.05, x0_a=0.3, x0_b=-0.2),
    "weak-orders": ScenarioConfig(g_a=0.05, g_b=0.05),
    "eigenstate": ScenarioConfig(g_a=0.5, theta_i=0.0),
    "epr": ScenarioConfig(g_a=0.5, g_b=0.5, theta_i=math.pi / 2, phi_i=math.pi),
    "sequential": ScenarioConfig(g_a=0.5, g_b=0.5),
}

DESCRIPTIONS: dict[str, str] = {
    "weak-noselect": "unselected pointer mean tracks the observable average",
    "weak-postselect": "post-selected pointer mean reads the weak value's real part",
    "simultaneous": "two pointers at once: joint moments and record separability",
    "weak-orders": "truncation-order scalings and the first-order product record",
    "eigenstate": "equal-branch coupling: readout stays put while purity dips",
    "epr": "anticorrelated pair leaves a separable two-dial record",
    "sequential": "back-to-back couplings: damped readout, conditioning, branch record",
}


def run_scenario(name: str, cfg: ScenarioConfig | None = None) -> ScenarioReport:
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {', '.join(sorted(SCENARIOS))}"
        )
    return SCENARIOS[name](cfg if cfg is not None else DEFAULTS[name])
