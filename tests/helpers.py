"""Oracles the tests check the package against, kept apart from the code they check."""

import math
from functools import reduce
from typing import Sequence

import numpy as np

from pointerlab.engine import Coupling, UnifiedState, evolve
from pointerlab.pointer import PointerGrid
from pointerlab.separability import SeparableDecomposition
from pointerlab.tensors import (
    HERMITIAN_DERIVED_TOL,
    Cut,
    DimensionSpec,
    Operator,
    StateVector,
    _check_floor,
    _check_hermitian,
    _check_trace,
    cut_sides,
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


def whole_density(matrix: np.ndarray, normalized: bool = True) -> np.ndarray:
    """A density matrix supplied whole, as a read-only array, checked whole.

    The package keeps every density matrix as its columns U and checks U;
    the oracles below work on the N x N matrix and check that instead: its
    Hermiticity, its trace (unit unless ``normalized=False``) and the floor
    of its full spectrum.
    """
    m = np.array(matrix, dtype=complex)
    _check_hermitian(m)
    tr = m.trace()
    _check_trace(tr, normalized)
    _check_floor(m, tr)
    m.setflags(write=False)
    return m


def pure_density(state: StateVector) -> np.ndarray:
    """|psi><psi| as a whole matrix."""
    v = state.amplitudes
    return whole_density(np.outer(v, v.conj()), normalized=state.normalized)


def partial_trace(
    rho: np.ndarray, dims: DimensionSpec, keep: Sequence[str], normalized: bool = True
) -> np.ndarray:
    """Trace the whole matrix ``rho`` on ``dims`` over every factor not named in ``keep``.

    The kept factors stay in ``dims`` order.
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one factor")
    sub = dims.subset(keep)
    n = len(dims.sizes)
    keep_axes = [dims.axis(lab) for lab in sub.labels]
    # einsum with repeated indices on the traced factors
    row = list(range(n))
    col = [i + n if i in keep_axes else i for i in range(n)]
    out = keep_axes + [i + n for i in keep_axes]
    reduced = np.einsum(rho.reshape(dims.sizes + dims.sizes), row + col, out)
    return whole_density(reduced.reshape(sub.total, sub.total), normalized)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two whole matrices, from its full spectrum."""
    if a.shape != b.shape:
        raise ValueError(f"trace distance needs matching shapes, got {a.shape} and {b.shape}")
    diff = a - b
    return float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum() / 2.0)


def reconstruct(
    decomposition: SeparableDecomposition, dims: DimensionSpec, normalized: bool = True
) -> np.ndarray:
    """The whole matrix a decomposition claims: its weighted product states, summed.

    Each term's product is a kron chain of its factors in ``dims`` order.
    """
    total = np.zeros((dims.total, dims.total), dtype=complex)
    for term in decomposition.terms:
        amp = reduce(np.kron, [term.factors[label].amplitudes for label in dims.labels])
        total += term.weight * np.outer(amp, amp.conj())
    return whole_density(total, normalized)


def dense_ppt_min(rho: np.ndarray, dims: DimensionSpec, cut: Cut) -> float:
    """Smallest eigenvalue of the whole matrix after transposing the cut's second side."""
    left, right = cut_sides(dims, cut)
    order = [dims.axis(lab) for lab in left + right]
    dl = math.prod(dims.dim(lab) for lab in left)
    dr = math.prod(dims.dim(lab) for lab in right)
    n = len(dims.sizes)
    t = np.transpose(rho.reshape(dims.sizes + dims.sizes), order + [n + i for i in order])
    m = t.reshape(dl, dr, dl, dr).transpose(0, 3, 2, 1).reshape(dl * dr, dl * dr)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())


def commuting_family(rng: np.random.Generator, d: int, count: int) -> list[Operator]:
    """``count`` commuting observables on C^d, with eigenvalues in {-1, 0, 1}.

    All are diagonal in one random basis, so their spectra are mostly
    degenerate, and each one's own ``eigh`` may pick any basis inside its
    repeated eigenspaces, not the shared one.
    """
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    dims = DimensionSpec.of(("system", d))
    return [
        Operator(dims, (q * rng.choice([-1.0, 0.0, 1.0], size=d)) @ q.conj().T)
        for _ in range(count)
    ]


def branch_kicks(kicks: np.ndarray, couplings: Sequence[Coupling], label: str) -> np.ndarray:
    """The distinct kicks of pointer ``label``'s branch rows after ``couplings``, sorted.

    ``kicks`` are the rows' kicks before; each coupling on the pointer adds
    its impulse times each distinct eigenvalue of its observable to every
    one, in turn, and kicks equal as floats are one row.
    """
    for c in couplings:
        if c.pointer == label:
            kicks = np.add.outer(kicks, c.impulse * c.observable.eigenspaces[0]).reshape(-1)
    return np.unique(kicks)
