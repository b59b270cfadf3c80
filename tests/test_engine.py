"""Evolution engine: readout formulas, integrator agreement, guard rails."""

import math

import numpy as np
import pytest

from pointerlab import engine as engine_module
from pointerlab.engine import (
    Coupling,
    OrthogonalPostselection,
    apparatus_density,
    build_initial,
    commutes,
    cross_validate,
    evolve,
    evolve_sequential,
    expand_perturbative,
    initial_info_expectation,
    pointer_cross_mean,
    pointer_mean,
    postselect,
    system_density,
    weak_value,
)
from pointerlab.pointer import LeakageError, PointerGrid, PointerSpec
from pointerlab.scenarios import SIGMA_X, SIGMA_Z, bloch_state, pauli
from pointerlab.tensors import partial_trace, pure_density

FINE = PointerGrid(points=256, length=16.0)
COARSE = PointerGrid(points=16, length=16.0)

TAN_PI_8 = 0.41421356237309503


def _single(theta=math.pi / 3, g=0.2, grid=FINE, observable=None, x0=0.0):
    system = bloch_state(theta, 0.0)
    spec = PointerSpec("A", grid, x0=x0, sigma=1.0)
    coupling = Coupling(observable or pauli(SIGMA_Z), "A", g, 1.0)
    return build_initial(system, [spec]), coupling


class TestBuildInitial:
    def test_layout_and_bounds(self):
        system = bloch_state(math.pi / 3, 0.0)
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(system, specs)
        assert state.state.dims.labels == ("system", "A", "B")
        assert abs(state.state.norm - 1.0) < 1e-12
        assert state.shift_bounds == {"A": (0.0, 0.0), "B": (0.0, 0.0)}
        assert state.provenance == "exact"
        assert state.history == ()

    def test_needs_a_pointer(self):
        with pytest.raises(ValueError, match="pointer"):
            build_initial(bloch_state(0.0, 0.0), [])


class TestEvolve:
    def test_mean_shift_frozen(self):
        # <sigma_z> at theta = pi/3 is 1/2, so impulse 0.2 moves the mean to 0.1
        state, coupling = _single()
        evolved = evolve(state, [coupling])
        assert abs(pointer_mean(evolved, "A") - 0.1) < 1e-8

    def test_history_records_phases(self):
        state, coupling = _single()
        evolved = evolve(state, [coupling])
        assert len(evolved.history) == 1
        assert evolved.history[0][0].impulse == pytest.approx(0.2)
        twice = evolve_sequential(state, coupling, coupling)
        assert len(twice.history) == 2

    def test_integrators_agree_single_pointer(self):
        state, coupling = _single()
        assert cross_validate(state, [coupling]) < 1e-8

    def test_integrators_agree_noncommuting_pair(self):
        system = bloch_state(math.pi / 3, 0.0)
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(system, specs)
        couplings = [
            Coupling(pauli(SIGMA_X), "A", 0.3, 1.0),
            Coupling(pauli(SIGMA_Z), "B", 0.3, 1.0),
        ]
        assert cross_validate(state, couplings) < 1e-8

    def test_commuting_pair_cross_moment_frozen(self):
        # identical couplings to |up>: both pointers shift by 0.2, so the
        # joint moment is exactly 0.04
        system = bloch_state(0.0, 0.0)
        specs = [PointerSpec("A", FINE), PointerSpec("B", FINE)]
        state = build_initial(system, specs)
        couplings = [
            Coupling(pauli(SIGMA_Z), "A", 0.2, 1.0),
            Coupling(pauli(SIGMA_Z), "B", 0.2, 1.0),
        ]
        evolved = evolve(state, couplings)
        assert abs(pointer_cross_mean(evolved, "A", "B") - 0.04) < 1e-8

    def test_norm_preserved(self):
        state, coupling = _single(g=0.7)
        evolved = evolve(state, [coupling])
        assert abs(evolved.state.norm - 1.0) < 1e-10

    def test_durations_must_match(self):
        system = bloch_state(0.0, 0.0)
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(system, specs)
        couplings = [
            Coupling(pauli(SIGMA_Z), "A", 0.1, 1.0),
            Coupling(pauli(SIGMA_Z), "B", 0.1, 2.0),
        ]
        with pytest.raises(ValueError, match="duration"):
            evolve(state, couplings)

    def test_containment_guard_trips(self):
        state, coupling = _single(g=3.0)
        with pytest.raises(LeakageError, match="edge"):
            evolve(state, [coupling])

    def test_accumulated_shifts_guard(self):
        # each phase is fine on its own; together they reach too far
        state, coupling = _single(theta=0.0, g=1.2)
        once = evolve(state, [coupling])
        with pytest.raises(LeakageError, match="accumulated"):
            evolve(once, [coupling])

    def test_dense_path_refuses_large_spaces(self):
        system = bloch_state(0.0, 0.0)
        specs = [PointerSpec("A", FINE), PointerSpec("B", FINE)]
        state = build_initial(system, specs)
        couplings = [Coupling(pauli(SIGMA_Z), "A", 0.1, 1.0)]
        with pytest.raises(ValueError, match="dense"):
            evolve(state, couplings, "expm")

    @pytest.mark.parametrize("g", [1e-3, 5e-2])
    def test_integrators_agree_across_the_sweep_ladder(self, g):
        state, coupling = _single(g=g)
        assert cross_validate(state, [coupling]) <= 1e-12

    def test_dense_path_runs_no_large_eigensolve(self, monkeypatch):
        shapes = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        state, coupling = _single()
        evolve(state, [coupling], "expm")
        assert shapes
        assert max(shape[-1] for shape in shapes) <= state.system.total

    def test_unknown_method_rejected(self):
        state, coupling = _single()
        with pytest.raises(ValueError, match="method"):
            evolve(state, [coupling], "magic")

    def test_norm_guard_catches_nan(self, monkeypatch):
        # a NaN norm must fail the guard, not slip past a '>' comparison
        state, coupling = _single()
        monkeypatch.setattr(
            engine_module, "_evolve_commuting", lambda tensor, *_: tensor * math.nan
        )
        with pytest.raises(ValueError, match="preserve the norm"):
            evolve(state, [coupling])


class TestCouplingValidation:
    @pytest.mark.parametrize("strength", [math.nan, math.inf])
    def test_rejects_nonfinite_strength(self, strength):
        with pytest.raises(ValueError, match="strength must be finite"):
            Coupling(pauli(SIGMA_Z), "A", strength, 1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_rejects_bad_duration(self, duration):
        with pytest.raises(ValueError, match="duration must be finite and nonnegative"):
            Coupling(pauli(SIGMA_Z), "A", 0.2, duration)


class TestCommutes:
    def test_paulis(self):
        assert commutes(pauli(SIGMA_Z), pauli(SIGMA_Z))
        assert not commutes(pauli(SIGMA_X), pauli(SIGMA_Z))


class TestPerturbative:
    def test_flags_and_norm(self):
        state, coupling = _single()
        truncated = expand_perturbative(state, [coupling], 1)
        assert truncated.provenance == "first_order"
        assert not truncated.state.normalized
        # the truncated series overshoots the unit sphere at second order
        assert truncated.state.norm > 1.0

    def test_second_order_label(self):
        state, coupling = _single()
        assert expand_perturbative(state, [coupling], 2).provenance == "second_order"

    def test_rejects_other_orders(self):
        state, coupling = _single()
        with pytest.raises(ValueError, match="order"):
            expand_perturbative(state, [coupling], 3)

    def test_truncated_states_cannot_evolve_further(self):
        state, coupling = _single()
        truncated = expand_perturbative(state, [coupling], 1)
        with pytest.raises(ValueError, match="exact"):
            evolve(truncated, [coupling])

    def test_truncated_states_cannot_be_postselected(self):
        state, coupling = _single()
        truncated = expand_perturbative(state, [coupling], 1)
        with pytest.raises(ValueError, match="exact"):
            postselect(truncated, bloch_state(math.pi / 4, 0.0))

    def test_truncation_error_scales_with_order(self):
        state, coupling_full = _single(g=0.1)
        state_half, coupling_half = _single(g=0.05)

        def defect(st, c, order):
            exact = evolve(st, [c])
            trunc = expand_perturbative(st, [c], order)
            return float(np.linalg.norm(exact.state.amplitudes - trunc.state.amplitudes))

        r1 = defect(state, coupling_full, 1) / defect(state_half, coupling_half, 1)
        r2 = defect(state, coupling_full, 2) / defect(state_half, coupling_half, 2)
        assert 3.5 <= r1 <= 4.5
        assert 7.0 <= r2 <= 9.0


class TestDensities:
    def test_apparatus_density_matches_partial_trace(self):
        # independent route: outer product of the full state, then trace
        system = bloch_state(math.pi / 3, 0.0)
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(system, specs)
        couplings = [
            Coupling(pauli(SIGMA_X), "A", 0.4, 1.0),
            Coupling(pauli(SIGMA_Z), "B", 0.4, 1.0),
        ]
        evolved = evolve(state, couplings)
        direct = apparatus_density(evolved)
        via_trace = partial_trace(pure_density(evolved.state), keep=["A", "B"])
        assert np.abs(direct.matrix - via_trace.matrix).max() < 1e-12

    def test_system_density_traces_to_one(self):
        state, coupling = _single()
        evolved = evolve(state, [coupling])
        rho = system_density(evolved)
        assert abs(rho.trace - 1.0) < 1e-12

    def test_densities_keep_their_factors(self):
        state, coupling = _single(grid=COARSE)
        evolved = evolve(state, [coupling])
        m = evolved.matrix()
        np.testing.assert_array_equal(apparatus_density(evolved).factors, m.T)
        np.testing.assert_array_equal(system_density(evolved).factors, m)
        selected = postselect(evolved, bloch_state(math.pi / 4, 0.0)).apparatus
        assert selected.factors.shape == (COARSE.points, 1)
        v = bloch_state(math.pi / 4, 0.0).amplitudes.conj() @ m
        np.testing.assert_allclose(selected.matrix, np.outer(v, v.conj()), atol=1e-16)

    def test_cross_moment_needs_two_pointers(self):
        state, coupling = _single()
        evolved = evolve(state, [coupling])
        with pytest.raises(ValueError, match="distinct"):
            pointer_cross_mean(evolved, "A", "A")


class TestWeakValue:
    def test_real_part_frozen(self):
        initial = bloch_state(math.pi / 2, 0.0)
        final = bloch_state(math.pi / 4, 0.0)
        wv = weak_value(pauli(SIGMA_Z), initial, final)
        assert abs(wv.value.real - TAN_PI_8) < 1e-12
        assert abs(wv.value.imag) < 1e-12

    def test_complex_value_frozen(self):
        initial = bloch_state(math.pi / 2, math.pi / 2)  # (|up> + i|down>)/sqrt(2)
        final = bloch_state(math.pi / 2, 0.0)  # (|up> + |down>)/sqrt(2)
        wv = weak_value(pauli(SIGMA_Z), initial, final)
        assert abs(wv.value - (-1j)) < 1e-12

    def test_orthogonal_pair_rejected(self):
        initial = bloch_state(0.0, 0.0)
        final = bloch_state(math.pi, 0.0)
        with pytest.raises(OrthogonalPostselection):
            weak_value(pauli(SIGMA_Z), initial, final)


class TestPostselect:
    def test_projective_case_frozen(self):
        # selecting the coupled eigenstate reads its eigenvalue exactly:
        # probability cos^2(pi/6) = 3/4, conditional mean x0 + impulse
        state, coupling = _single(theta=math.pi / 3, g=0.1)
        evolved = evolve(state, [coupling])
        result = postselect(evolved, bloch_state(0.0, 0.0))
        assert abs(result.probability - 0.75) < 1e-10
        stats = result.report.postselection
        assert abs(stats.normalized_mean["A"] - 0.1) < 1e-10
        assert abs(stats.unnormalized_mean["A"] - 0.075) < 1e-10

    def test_probability_matches_overlap_formula(self):
        # closed form: (1 + sin(pi/4) exp(-(gt)^2 / 2 sigma^2)) / 2
        state, coupling = _single(theta=math.pi / 2, g=0.01)
        evolved = evolve(state, [coupling])
        result = postselect(evolved, bloch_state(math.pi / 4, 0.0))
        damping = math.exp(-(0.01**2) / 2.0)
        expected = 0.5 * (1.0 + math.sin(math.pi / 4) * damping)
        assert abs(result.probability - expected) < 1e-12
        assert abs(result.probability - 0.85353571) < 1e-8

    def test_apparatus_trace_equals_probability(self):
        state, coupling = _single(theta=math.pi / 2, g=0.01)
        evolved = evolve(state, [coupling])
        result = postselect(evolved, bloch_state(math.pi / 4, 0.0))
        assert abs(result.apparatus.trace - result.probability) < 1e-12

    def test_zero_probability_rejected(self):
        state, coupling = _single(theta=math.pi / 2, g=0.0)
        evolved = evolve(state, [coupling])
        with pytest.raises(OrthogonalPostselection, match="probability"):
            postselect(evolved, bloch_state(math.pi / 2, math.pi))


class TestInitialInfo:
    def test_commuting_observable_sees_no_change(self):
        state, coupling = _single(theta=math.pi / 3, g=0.5)
        proj_up = pauli(np.array([[1, 0], [0, 0]], dtype=complex))
        value = initial_info_expectation(state, [coupling], proj_up)
        assert abs(value - math.cos(math.pi / 6) ** 2) < 1e-12

    def test_noncommuting_observable_is_dephased(self):
        state, coupling = _single(theta=math.pi / 3, g=0.5)
        proj_plus = pauli(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        value = initial_info_expectation(state, [coupling], proj_plus)
        initial = 0.5 * (1.0 + math.sin(math.pi / 3))
        assert abs(value - initial) > 1e-3
