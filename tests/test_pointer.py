"""Pointer grid, Gaussian preparation, momentum and translation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import pointer
from pointerlab.pointer import (
    LeakageError,
    PointerGrid,
    PointerSpec,
    gaussian_leakage,
    gaussian_state,
    momentum_operator,
    state_moments,
    translate,
)
from pointerlab.tensors import hermiticity_defect

from helpers import spectral_momentum, unitary_from_generator

FINE = PointerGrid(points=256, length=16.0)


class TestGrid:
    def test_positions_frozen(self):
        grid = PointerGrid(points=8, length=4.0)
        np.testing.assert_allclose(
            grid.positions(), [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5], atol=1e-15
        )

    def test_wavenumbers_frozen(self):
        grid = PointerGrid(points=8, length=4.0)
        base = 2 * np.pi / 4.0
        np.testing.assert_allclose(
            grid.wavenumbers(), base * np.array([0, 1, 2, 3, -4, -3, -2, -1]), atol=1e-12
        )

    @pytest.mark.parametrize(
        "grid",
        [PointerGrid(8, 4.0), PointerGrid(16, 16.0, center=0.75), FINE],
        ids=["8", "16-offcenter", "256"],
    )
    def test_arrays_computed_once_read_only(self, grid):
        x, k = grid.positions(), grid.wavenumbers()
        assert not x.flags.writeable and not k.flags.writeable
        np.testing.assert_array_equal(
            x, grid.center - grid.length / 2 + grid.spacing * np.arange(grid.points)
        )
        np.testing.assert_array_equal(
            k, 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
        )
        # an equal grid shares the arrays
        twin = PointerGrid(grid.points, grid.length, grid.center)
        assert twin.positions() is x and twin.wavenumbers() is k

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            PointerGrid(points=12)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="power of two"):
            PointerGrid(points=4)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="length"):
            PointerGrid(length=0.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_rejects_nonfinite_length(self, length):
        with pytest.raises(ValueError, match="length must be finite"):
            PointerGrid(length=length)

    def test_rejects_nonfinite_center(self):
        with pytest.raises(ValueError, match="center must be finite"):
            PointerGrid(center=math.nan)


class TestSpecValidation:
    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_nonfinite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            PointerSpec("A", FINE, sigma=sigma)

    @pytest.mark.parametrize("x0", [math.nan, -math.inf])
    def test_rejects_nonfinite_x0(self, x0):
        with pytest.raises(ValueError, match="x0 must be finite"):
            PointerSpec("A", FINE, x0=x0)


class TestGaussianPreparation:
    def test_moments_match_continuum(self):
        spec = PointerSpec("A", FINE, x0=0.5, sigma=1.0)
        state = gaussian_state(spec)
        assert abs(state.norm - 1.0) < 1e-12
        mean, std = state_moments(state, FINE)
        assert abs(mean - 0.5) < 1e-9
        assert abs(std**2 - 1.0) < 1e-6

    def test_momentum_variance_matches_continuum(self):
        # <pi^2> of a Gaussian with position spread sigma is 1/(4 sigma^2)
        spec = PointerSpec("A", FINE, x0=0.0, sigma=1.0)
        v = gaussian_state(spec).amplitudes
        pi = momentum_operator(FINE, "A").matrix
        var = float((v.conj() @ (pi @ (pi @ v))).real)
        assert abs(var - 0.25) < 1e-6

    def test_leakage_scale(self):
        centered = PointerSpec("A", FINE, x0=0.0, sigma=1.0)
        assert gaussian_leakage(centered) < 1e-14
        near = PointerSpec("A", FINE, x0=0.25, sigma=1.0)
        assert gaussian_leakage(near) < 1e-12
        gaussian_state(near)

    def test_offcenter_packet_rejected(self):
        # at x0 = 1 the out-of-box tails already exceed the budget
        spec = PointerSpec("A", FINE, x0=1.0, sigma=1.0)
        assert gaussian_leakage(spec) > 1e-12
        with pytest.raises(LeakageError, match="out-of-box"):
            gaussian_state(spec)

    def test_nan_leakage_rejected(self, monkeypatch):
        monkeypatch.setattr(pointer, "gaussian_leakage", lambda spec: math.nan)
        with pytest.raises(LeakageError, match="out-of-box mass nan"):
            gaussian_state(PointerSpec("A", FINE))

    def test_spec_containment_guard(self):
        with pytest.raises(ValueError, match="standard deviations"):
            PointerSpec("A", FINE, x0=3.0, sigma=1.0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            PointerSpec("A", FINE, sigma=0.0)


class TestOperators:
    def test_momentum_is_hermitian(self):
        assert hermiticity_defect(momentum_operator(FINE, "A").matrix) == 0.0

    def test_momentum_is_shared_read_only(self):
        op = momentum_operator(FINE, "A")
        assert momentum_operator(FINE, "A") is op
        assert not op.matrix.flags.writeable
        assert momentum_operator(FINE, "B").dims.labels == ("B",)

    @pytest.mark.parametrize("points", [8, 16, 64, 256])
    @pytest.mark.parametrize("length", [8.0, 30.0])
    def test_momentum_spectral_norm_is_largest_wavenumber(self, points, length):
        # the dense integrator bounds ||pi||_2 by max|k| and never eigensolves pi
        grid = PointerGrid(points=points, length=length)
        largest = np.abs(grid.wavenumbers()).max()
        norm = np.linalg.norm(momentum_operator(grid, "A").matrix, 2)
        assert norm == pytest.approx(largest, rel=1e-12, abs=0.0)

    def test_momentum_squares_to_spectral_values(self):
        # acting on a plane wave returns its wavenumber, at every grid
        # wavenumber, the Nyquist one included
        grid = PointerGrid(points=16, length=8.0)
        k = grid.wavenumbers()
        waves = np.exp(1j * np.multiply.outer(grid.positions(), k)) / 4.0
        out = momentum_operator(grid, "A").matrix @ waves
        np.testing.assert_allclose(out, waves * k, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("points", [8, 16, 64, 256])
    @pytest.mark.parametrize("length", [8.0, 30.0])
    def test_closed_form_matches_spectral_oracle(self, points, length):
        grid = PointerGrid(points=points, length=length)
        closed = momentum_operator(grid, "A").matrix
        spectral = spectral_momentum(grid, "A").matrix
        largest = np.abs(grid.wavenumbers()).max()
        assert np.abs(closed - spectral).max() <= 1e-12 * largest

    @pytest.mark.parametrize("points", [8, 16, 64, 256])
    def test_differentiation_matrix_is_exactly_antisymmetric(self, points):
        grid = PointerGrid(points=points, length=30.0)
        d = pointer.differentiation_matrix(grid)
        assert d.dtype == np.float64 and d.shape == (points, points)
        assert np.all(d + d.T == 0.0)
        assert pointer.differentiation_matrix(grid) is d
        assert not d.flags.writeable
        # the real, antisymmetric part of the momentum, with no Nyquist term
        np.testing.assert_array_equal(momentum_operator(grid, "A").matrix.imag, -d)


class TestTranslate:
    def test_mean_shifts_by_exactly_a(self):
        spec = PointerSpec("A", FINE, x0=0.0, sigma=1.0)
        state = gaussian_state(spec)
        shifted = translate(state, 0.7, FINE)
        mean, _ = state_moments(shifted, FINE)
        assert abs(mean - 0.7) < 1e-9
        assert abs(shifted.norm - 1.0) < 1e-12

    def test_roundtrip_is_identity(self):
        spec = PointerSpec("A", FINE, x0=0.0, sigma=1.0)
        state = gaussian_state(spec)
        back = translate(translate(state, 1.3, FINE), -1.3, FINE)
        assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-12

    def test_agrees_with_generator_route(self):
        # independent construction: exp(-i a pi) through the dense momentum
        spec = PointerSpec("A", FINE, x0=0.0, sigma=1.0)
        state = gaussian_state(spec)
        a = 0.9
        via_phase = translate(state, a, FINE).amplitudes
        u = unitary_from_generator(momentum_operator(FINE, "A"), a)
        via_generator = u @ state.amplitudes
        assert np.abs(via_phase - via_generator).max() < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
    def test_translations_compose_additively(self, a, b):
        spec = PointerSpec("A", FINE, x0=0.0, sigma=1.0)
        state = gaussian_state(spec)
        two_steps = translate(translate(state, a, FINE), b, FINE)
        one_step = translate(state, a + b, FINE)
        assert np.abs(two_steps.amplitudes - one_step.amplitudes).max() < 1e-12

    def test_refuses_shift_toward_the_edge(self):
        spec = PointerSpec("A", FINE, x0=0.0, sigma=1.0)
        state = gaussian_state(spec)
        with pytest.raises(LeakageError, match="edge"):
            translate(state, 2.5, FINE)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_refuses_nonfinite_shift(self, shift):
        state = gaussian_state(PointerSpec("A", FINE))
        with pytest.raises(LeakageError, match=f"translation by {shift} .* edge"):
            translate(state, shift, FINE)
