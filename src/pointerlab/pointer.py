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
from numpy.lib.stride_tricks import sliding_window_view

from .tensors import DimensionSpec, Operator, StateVector, antisymmetry_defect

# A packet is "contained" when this many standard deviations on either side
# of its center fit inside the box.
CONTAINMENT_SIGMAS = 6.0
# Continuum probability mass outside the box above which preparation fails.
LEAKAGE_TOL = 1e-12


class LeakageError(ValueError):
    """A wavepacket would put non-negligible weight outside the periodic box."""


@dataclass(frozen=True)
class PointerGrid:
    """Uniform periodic grid of ``points`` sites spanning ``length``, centered on 0."""

    points: int = 256
    length: float = 16.0

    def __post_init__(self) -> None:
        n = self.points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid points must be a power of two >= 8, got {n}")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError(f"grid length must be finite and positive, got {self.length!r}")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    def positions(self) -> np.ndarray:
        """Site coordinates, read-only; computed once per grid."""
        return _positions(self)

    def wavenumbers(self) -> np.ndarray:
        """Discrete momenta, in FFT ordering, read-only; computed once per grid."""
        return _wavenumbers(self)


@lru_cache(maxsize=16)
def _positions(grid: PointerGrid) -> np.ndarray:
    x = -grid.length / 2 + grid.spacing * np.arange(grid.points)
    x.setflags(write=False)
    return x


@lru_cache(maxsize=16)
def _wavenumbers(grid: PointerGrid) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    k.setflags(write=False)
    return k


def near_edge(center: float, spread: float, grid: PointerGrid) -> bool:
    """Whether CONTAINMENT_SIGMAS spreads around ``center`` leave the box; True on NaN."""
    reach = abs(center) + CONTAINMENT_SIGMAS * spread
    return not reach <= grid.length / 2


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
        if near_edge(self.x0, self.sigma, self.grid):
            raise LeakageError(
                f"pointer {self.label!r}: packet at x0={self.x0} with "
                f"sigma={self.sigma} is within {CONTAINMENT_SIGMAS} standard "
                f"deviations of the edge of its box, length {self.grid.length} "
                f"on {self.grid.points} points"
            )

    def dims(self) -> DimensionSpec:
        return DimensionSpec.of((self.label, self.grid.points))


def gaussian_leakage(spec: PointerSpec) -> float:
    """Continuum probability mass of the prepared packet outside the box.

    The position density of the packet is Gaussian with standard deviation
    ``sigma``, so the out-of-box mass is a pair of erfc tails.
    """
    half = spec.grid.length / 2
    d_left = half + spec.x0
    d_right = half - spec.x0
    scale = spec.sigma * math.sqrt(2.0)
    return 0.5 * math.erfc(d_left / scale) + 0.5 * math.erfc(d_right / scale)


def gaussian_state(spec: PointerSpec) -> StateVector:
    """Normalized Gaussian wavepacket sampled on the pointer grid.

    Raises LeakageError when the continuum tails outside the box exceed
    LEAKAGE_TOL; at that point the periodic image overlap would contaminate
    readout means at a level this package refuses to average over. Raises
    ValueError when the samples underflow to zero, as a spread far below
    the grid spacing does when x0 falls between sites: there is no packet
    left to normalize.
    """
    leak = gaussian_leakage(spec)
    if not leak <= LEAKAGE_TOL:
        raise LeakageError(
            f"pointer {spec.label!r}: out-of-box mass {leak:.3e} exceeds "
            f"{LEAKAGE_TOL:.0e}"
        )
    x = spec.grid.positions()
    # a square that overflows to inf gives exp(-inf) = 0, the sample's value
    with np.errstate(over="ignore"):
        amp = np.exp(-((x - spec.x0) ** 2) / (4.0 * spec.sigma**2))
    norm = np.linalg.norm(amp)
    if not norm > 0:
        raise ValueError(
            f"pointer {spec.label!r}: packet with sigma={spec.sigma} at x0={spec.x0} "
            f"underflows to zero on {spec.grid.points} points over length "
            f"{spec.grid.length}"
        )
    amp = amp / norm
    return StateVector(spec.dims(), amp)


@lru_cache(maxsize=8)
def differentiation_matrix(grid: PointerGrid) -> np.ndarray:
    """The grid's Fourier differentiation matrix D, real and read-only; built once per grid.

    D[m, n] = (pi/L) (-1)^(m-n) cot(pi (m-n) / N) off the diagonal and 0 on
    it (Trefethen, Spectral Methods in MATLAB, ch. 3): d/dx on every grid
    mode but the Nyquist one, which it annihilates. An entry depends on
    (m - n) mod N alone, so D is the Toeplitz matrix of one length-N
    generator c[d], copied out of a sliding window over it with no index
    arrays. Only half of c is computed and the rest is its negative mirror,
    so c is exactly odd and D + D.T is exactly 0, which is checked here.
    """
    n = grid.points
    d = np.arange(1, n // 2)
    half = (np.pi / grid.length) * (-1.0) ** d / np.tan(np.pi * d / n)
    c = np.concatenate(([0.0], half, [0.0], -half[::-1]))
    # D[m, n] = toeplitz[m - n + N - 1]
    toeplitz = np.concatenate((c[1:], c))
    out = sliding_window_view(toeplitz[::-1], n)[::-1].copy()
    defect = antisymmetry_defect(out)
    if defect != 0.0:
        raise ValueError(f"differentiation matrix antisymmetry defect {defect:.3e}")
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def momentum_operator(grid: PointerGrid, label: str) -> Operator:
    """Momentum as a dense matrix, in closed form: pi = -i D + (k_N / N) s s^T.

    D is the grid's ``differentiation_matrix``, k_N the Nyquist wavenumber
    ``grid.wavenumbers()[N // 2]`` and s_n = (-1)^n its mode, so pi takes
    every grid plane wave to its wavenumber times itself, as F-dagger
    diag(k) F does, and ||pi||_2 is the largest |k|. No FFT runs. The real
    part is symmetric and the imaginary part antisymmetric, both exactly, so
    the matrix is exactly Hermitian. Results are cached per (grid, label):
    the Operator is frozen and its matrix read-only, so callers can share it.
    """
    n = grid.points
    s = (-1.0) ** np.arange(n)
    m = np.empty((n, n), dtype=complex)
    np.multiply.outer(s, grid.wavenumbers()[n // 2] / n * s, out=m.real)
    np.negative(differentiation_matrix(grid), out=m.imag)
    return Operator(DimensionSpec.of((label, n)), m)
