"""Oracles the tests check the package against, kept apart from the code they check."""

from typing import Sequence

import numpy as np

from pointerlab.engine import Coupling, UnifiedState, evolve
from pointerlab.tensors import (
    HERMITIAN_DERIVED_TOL,
    DensityMatrix,
    Operator,
    StateVector,
    max_abs,
)


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
