"""Oracles the tests check the package against, kept apart from the code they check."""

import math
from typing import Sequence

import numpy as np

from pointerlab.engine import Coupling, UnifiedState, evolve
from pointerlab.pointer import PointerGrid
from pointerlab.tensors import (
    HERMITIAN_DERIVED_TOL,
    DensityMatrix,
    DimensionSpec,
    Operator,
    StateVector,
    hermiticity_defect,
    max_abs,
)


def spectral_momentum(grid: PointerGrid, label: str) -> Operator:
    """Momentum as a dense matrix, built spectrally: F-dagger diag(k) F.

    The oracle for the closed form ``pointer.momentum_operator`` builds. The
    raw product picks up roundoff asymmetry of order N*eps*k_max, so the
    result is symmetrized; the discarded asymmetry is checked against
    HERMITIAN_DERIVED_TOL.
    """
    n = grid.points
    f = np.fft.fft(np.eye(n), axis=0) / math.sqrt(n)
    raw = f.conj().T @ (grid.wavenumbers()[:, None] * f)
    defect = hermiticity_defect(raw)
    if not defect <= HERMITIAN_DERIVED_TOL:
        raise ValueError(f"spectral momentum asymmetry {defect:.3e}")
    dims = DimensionSpec.of((label, n))
    return Operator(dims, (raw + raw.conj().T) / 2.0)


def unitary_from_generator(op: Operator, scale: float) -> np.ndarray:
    """exp(-i * scale * H) through a fresh spectral decomposition of H.

    The spectral oracle for the Taylor action: it eigensolves the matrix
    itself rather than reading the Operator's cached spectrum.
    """
    w, v = np.linalg.eigh(op.matrix)
    u = (v * np.exp(-1j * scale * w)) @ v.conj().T
    defect = max_abs(u @ u.conj().T - np.eye(u.shape[0]))
    if not defect <= HERMITIAN_DERIVED_TOL * u.shape[0]:
        raise ValueError(f"generated matrix is not unitary, defect {defect:.3e}")
    return u


def cross_validate(state: UnifiedState, couplings: Sequence[Coupling]) -> float:
    """Largest amplitude difference between the shift and dense integrators."""
    via_shift = evolve(state, couplings, "shift")
    via_dense = evolve(state, couplings, "expm")
    return float(np.abs(via_shift.state.amplitudes - via_dense.state.amplitudes).max())


def pure_density(state: StateVector) -> DensityMatrix:
    """|psi><psi| supplied whole, so it takes the dense checks and dense routes."""
    v = state.amplitudes
    return DensityMatrix(state.dims, np.outer(v, v.conj()), normalized=state.normalized)
