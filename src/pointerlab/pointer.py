"""One-dimensional pointer degrees of freedom on a periodic grid.

A pointer is a wavepacket whose position gets nudged by the measurement
interaction. The grid is periodic, so momentum is diagonal in the discrete
Fourier basis and rigid translations are exact phase multiplications there.
The price of periodicity is wraparound: every packet must stay comfortably
inside the box, and the guards here refuse configurations that would let
probability leak around the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensors import DimensionSpec, Operator, StateVector, hermiticity_defect

# A packet is "contained" when this many standard deviations on either side
# of its center fit inside the box.
CONTAINMENT_SIGMAS = 6.0
# Continuum probability mass outside the box above which preparation fails.
LEAKAGE_TOL = 1e-12
MOMENTUM_HERMITICITY_TOL = 1e-10


class LeakageError(ValueError):
    """A wavepacket would put non-negligible weight outside the periodic box."""


@dataclass(frozen=True)
class PointerGrid:
    """Uniform periodic grid of ``points`` sites spanning ``length``."""

    points: int = 256
    length: float = 16.0
    center: float = 0.0

    def __post_init__(self) -> None:
        n = self.points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid points must be a power of two >= 8, got {n}")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError(f"grid length must be finite and positive, got {self.length!r}")
        if not math.isfinite(self.center):
            raise ValueError(f"grid center must be finite, got {self.center!r}")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    def positions(self) -> np.ndarray:
        return self.center - self.length / 2 + self.spacing * np.arange(self.points)

    def wavenumbers(self) -> np.ndarray:
        """Discrete momenta, in FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)


@dataclass(frozen=True)
class PointerSpec:
    """Label, grid and Gaussian preparation of one pointer."""

    label: str
    grid: PointerGrid = PointerGrid()
    x0: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")
        if not math.isfinite(self.x0):
            raise ValueError(f"pointer {self.label!r}: x0 must be finite, got {self.x0!r}")
        margin = self.grid.length / 2 - abs(self.x0 - self.grid.center)
        if margin < CONTAINMENT_SIGMAS * self.sigma:
            raise ValueError(
                f"pointer {self.label!r}: packet at x0={self.x0} with "
                f"sigma={self.sigma} is within {CONTAINMENT_SIGMAS} standard "
                f"deviations of the box edge"
            )

    def dims(self) -> DimensionSpec:
        return DimensionSpec.of((self.label, self.grid.points))


def gaussian_leakage(spec: PointerSpec) -> float:
    """Continuum probability mass of the prepared packet outside the box.

    The position density of the packet is Gaussian with standard deviation
    ``sigma``, so the out-of-box mass is a pair of erfc tails.
    """
    half = spec.grid.length / 2
    d_left = half + (spec.x0 - spec.grid.center)
    d_right = half - (spec.x0 - spec.grid.center)
    scale = spec.sigma * math.sqrt(2.0)
    return 0.5 * math.erfc(d_left / scale) + 0.5 * math.erfc(d_right / scale)


def gaussian_state(spec: PointerSpec) -> StateVector:
    """Normalized Gaussian wavepacket sampled on the pointer grid.

    Raises LeakageError when the continuum tails outside the box exceed
    LEAKAGE_TOL; at that point the periodic image overlap would contaminate
    readout means at a level this package refuses to average over.
    """
    leak = gaussian_leakage(spec)
    if leak > LEAKAGE_TOL:
        raise LeakageError(
            f"pointer {spec.label!r}: out-of-box mass {leak:.3e} exceeds "
            f"{LEAKAGE_TOL:.0e}"
        )
    x = spec.grid.positions()
    amp = np.exp(-((x - spec.x0) ** 2) / (4.0 * spec.sigma**2))
    amp = amp / np.linalg.norm(amp)
    return StateVector(spec.dims(), amp)


def position_operator(grid: PointerGrid, label: str) -> Operator:
    dims = DimensionSpec.of((label, grid.points))
    return Operator(dims, np.diag(grid.positions().astype(complex)), hermitian=True)


@lru_cache(maxsize=8)
def momentum_operator(grid: PointerGrid, label: str) -> Operator:
    """Momentum as a dense matrix, built spectrally: F† diag(k) F.

    The raw product picks up roundoff asymmetry of order N*eps*k_max, so the
    result is symmetrized; the discarded asymmetry is checked against
    MOMENTUM_HERMITICITY_TOL. Results are cached per (grid, label): the
    Operator is frozen and its matrix read-only, so callers can share it.
    """
    n = grid.points
    f = np.fft.fft(np.eye(n), axis=0) / math.sqrt(n)
    raw = f.conj().T @ (grid.wavenumbers()[:, None] * f)
    defect = hermiticity_defect(raw)
    if not defect <= MOMENTUM_HERMITICITY_TOL:
        raise ValueError(f"spectral momentum asymmetry {defect:.3e}")
    dims = DimensionSpec.of((label, n))
    return Operator(dims, (raw + raw.conj().T) / 2.0, hermitian=True)


def state_moments(state: StateVector, grid: PointerGrid) -> tuple[float, float]:
    """Mean and standard deviation of the position density of a 1-factor state."""
    p = np.abs(state.amplitudes) ** 2
    p = p / p.sum()
    x = grid.positions()
    mean = float(p @ x)
    var = float(p @ (x - mean) ** 2)
    return mean, math.sqrt(max(var, 0.0))


def translate(state: StateVector, a: float, grid: PointerGrid) -> StateVector:
    """Rigid shift of a single-pointer state by ``a``, exact in Fourier space.

    Containment is judged from the measured mean and spread of the state:
    after the shift, CONTAINMENT_SIGMAS standard deviations on both sides
    must stay inside the box.
    """
    if state.dims.total != grid.points or len(state.dims.factors) != 1:
        raise ValueError("translate expects a single-factor state on this grid")
    mean, std = state_moments(state, grid)
    half = grid.length / 2
    reach = abs(mean + a - grid.center) + CONTAINMENT_SIGMAS * std
    if reach > half:
        raise LeakageError(
            f"translation by {a} would move the packet to within "
            f"{CONTAINMENT_SIGMAS} spreads of the box edge"
        )
    shifted = _translate_raw(state.amplitudes, a, grid)
    return StateVector(state.dims, shifted, normalized=state.normalized)


def _translate_raw(amplitudes: np.ndarray, a: float, grid: PointerGrid) -> np.ndarray:
    phase = np.exp(-1j * grid.wavenumbers() * a)
    return np.fft.ifft(phase * np.fft.fft(amplitudes))
