"""Coupled evolution of a quantum system and its pointer apparatus.

The interaction Hamiltonian is a sum of terms g * A * pi, one per coupling:
a system observable A multiplied by the momentum pi of one pointer. Two
independent integrators are provided and kept deliberately separate so they
can cross-check each other:

* ``shift``: works in the pointer momentum representation. When all coupled
  observables commute it reduces to exact per-eigenvalue translations; when
  they do not, the generator is block-diagonal over the momentum grid and
  each small system block is exponentiated exactly.
* ``expm``: builds the dense generator on the full product space, one
  ``np.kron`` per coupling, and applies exp(-i t H) to the state by a scaled
  Taylor series (``tensors.generator_action``) made of matrix-vector
  products: no eigensolve, no FFT on the state, no N x N unitary. A series
  step that does not converge within a fixed number of terms, as on NaN,
  raises. Memory-bound, so it refuses spaces beyond a few thousand
  dimensions, but it shares no code path with ``shift``; only the momentum
  matrix is built with the FFT library.

Truncated (perturbative) evolution is available separately for order-by-
order comparisons; the resulting states are flagged and unnormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Literal, Sequence

import numpy as np

from .pointer import CONTAINMENT_SIGMAS, LeakageError, PointerSpec, gaussian_state
from .pointer import momentum_operator
from .tensors import (
    DensityMatrix,
    DimensionSpec,
    HERMITIAN_INPUT_TOL,
    NORM_TOL,
    Operator,
    StateVector,
    generator_action,
    hermiticity_defect,
    kron_states,
    max_abs,
)

COMMUTATOR_TOL = 1e-10
# Largest product-space dimension the dense exponential path will accept.
DENSE_LIMIT = 4096
ORTHOGONAL_OVERLAP_TOL = 1e-12
MIN_POSTSELECT_PROBABILITY = 1e-14

Provenance = Literal["exact", "first_order", "second_order"]
EvolutionMethod = Literal["auto", "shift", "expm"]


class OrthogonalPostselection(ValueError):
    """Post-selection onto a state with no overlap left to condition on."""


@dataclass(frozen=True)
class Coupling:
    """One interaction term: ``strength`` * observable * pointer momentum."""

    observable: Operator
    pointer: str
    strength: float
    duration: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.strength):
            raise ValueError(f"coupling strength must be finite, got {self.strength!r}")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(
                f"coupling duration must be finite and nonnegative, got {self.duration!r}"
            )
        defect = hermiticity_defect(self.observable.matrix)
        if not defect <= HERMITIAN_INPUT_TOL:
            raise ValueError(f"coupling observable has Hermiticity defect {defect:.3e}")

    @property
    def impulse(self) -> float:
        """Integrated strength g*t, the size of the pointer kick."""
        return self.strength * self.duration


@dataclass(frozen=True)
class WeakValue:
    value: complex
    overlap: complex


@dataclass(frozen=True)
class PostselectionStats:
    probability: float
    unnormalized_mean: dict[str, float]
    normalized_mean: dict[str, float]


@dataclass(frozen=True)
class ReadoutReport:
    pointer_means: dict[str, float]
    postselection: PostselectionStats | None = None


@dataclass(frozen=True)
class PostselectionResult:
    probability: float
    apparatus: DensityMatrix
    report: ReadoutReport


@dataclass
class UnifiedState:
    """System plus pointers, with enough context to audit where it came from.

    ``history`` records the coupling phases applied so far (outermost tuple:
    one entry per evolution call). ``shift_bounds`` tracks the accumulated
    interval of possible pointer displacements per label, used to refuse
    evolutions that could wrap the periodic box. ``initial_system`` is the
    pre-interaction system state; separability certificates rebuild reduced
    states from it on independent grids.
    """

    state: StateVector
    system: DimensionSpec
    pointers: tuple[PointerSpec, ...]
    provenance: Provenance = "exact"
    history: tuple[tuple[Coupling, ...], ...] = ()
    initial_system: StateVector | None = None
    shift_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)

    def pointer_spec(self, label: str) -> PointerSpec:
        for spec in self.pointers:
            if spec.label == label:
                return spec
        raise KeyError(f"no pointer labeled {label!r}")

    def pointer_dims(self) -> DimensionSpec:
        return self.state.dims.subset([s.label for s in self.pointers])

    def tensor(self) -> np.ndarray:
        """Amplitudes as (system, pointer_1, ..., pointer_k)."""
        shape = (self.system.total,) + tuple(s.grid.points for s in self.pointers)
        return self.state.amplitudes.reshape(shape)

    def matrix(self) -> np.ndarray:
        """Amplitudes as (system, all pointers flattened)."""
        return self.state.amplitudes.reshape(self.system.total, -1)


def build_initial(system: StateVector, pointers: Sequence[PointerSpec]) -> UnifiedState:
    """Product of a system state and freshly prepared Gaussian pointers."""
    specs = tuple(pointers)
    if not specs:
        raise ValueError("at least one pointer is required")
    full = system
    for spec in specs:
        full = kron_states(full, gaussian_state(spec))
    return UnifiedState(
        state=full,
        system=system.dims,
        pointers=specs,
        initial_system=system,
        shift_bounds={spec.label: (0.0, 0.0) for spec in specs},
    )


def _validate_couplings(
    state: UnifiedState, couplings: Sequence[Coupling]
) -> tuple[tuple[Coupling, ...], float]:
    cs = tuple(couplings)
    if not cs:
        raise ValueError("need at least one coupling")
    t = cs[0].duration
    for c in cs:
        if c.duration != t:
            raise ValueError("couplings evolved together must share one duration")
        if c.observable.matrix.shape != (state.system.total, state.system.total):
            raise ValueError(
                f"observable dimension {c.observable.matrix.shape[0]} does not "
                f"match system dimension {state.system.total}"
            )
        state.pointer_spec(c.pointer)
    return cs, t


def _updated_bounds(
    state: UnifiedState, couplings: Sequence[Coupling]
) -> dict[str, tuple[float, float]]:
    """Accumulate worst-case pointer displacements and enforce containment.

    Exact for commuting couplings, where the motion really is a mixture of
    rigid shifts by impulse * eigenvalue; a conservative guard otherwise.
    """
    bounds = dict(state.shift_bounds)
    for c in couplings:
        eigs = np.linalg.eigvalsh((c.observable.matrix + c.observable.matrix.conj().T) / 2)
        kicks = c.impulse * eigs
        lo, hi = bounds[c.pointer]
        bounds[c.pointer] = (lo + float(kicks.min()), hi + float(kicks.max()))
    for label, (lo, hi) in bounds.items():
        spec = state.pointer_spec(label)
        half = spec.grid.length / 2
        for bound in (lo, hi):
            reach = abs(spec.x0 + bound - spec.grid.center) + CONTAINMENT_SIGMAS * spec.sigma
            if reach > half:
                raise LeakageError(
                    f"pointer {label!r}: accumulated shift {bound:+.3f} would put "
                    f"the packet within {CONTAINMENT_SIGMAS} spreads of the box edge"
                )
    return bounds


def _pointer_axis(state: UnifiedState, label: str) -> int:
    for i, spec in enumerate(state.pointers):
        if spec.label == label:
            return 1 + i
    raise KeyError(label)


def commutes(a: Operator, b: Operator) -> bool:
    """Whether two operators commute, entrywise to within COMMUTATOR_TOL."""
    return max_abs(a.matrix @ b.matrix - b.matrix @ a.matrix) <= COMMUTATOR_TOL


def _couplings_commute(couplings: Sequence[Coupling]) -> bool:
    return all(
        commutes(a.observable, b.observable)
        for i, a in enumerate(couplings)
        for b in couplings[i + 1 :]
    )


def _evolve_commuting(
    tensor: np.ndarray, state: UnifiedState, couplings: Sequence[Coupling]
) -> np.ndarray:
    """Per-eigenvalue Fourier translations, one commuting coupling at a time."""
    for c in couplings:
        axis = _pointer_axis(state, c.pointer)
        k = state.pointer_spec(c.pointer).grid.wavenumbers()
        w, v = np.linalg.eigh(c.observable.matrix)
        tensor = np.tensordot(v.conj().T, tensor, axes=([1], [0]))
        ft = np.fft.fft(tensor, axis=axis)
        phase = np.exp(-1j * c.impulse * np.multiply.outer(w, k))
        shape = [1] * tensor.ndim
        shape[0], shape[axis] = phase.shape
        ft *= phase.reshape(shape)
        tensor = np.tensordot(v, np.fft.ifft(ft, axis=axis), axes=([1], [0]))
    return tensor


def _evolve_blocks(
    tensor: np.ndarray, state: UnifiedState, couplings: Sequence[Coupling], t: float
) -> np.ndarray:
    """Exact exponential of the full generator, block by momentum block.

    In the pointer momentum representation the generator is diagonal over
    the momentum grid, leaving one small Hermitian system block per grid
    point; those are exponentiated by batched eigendecomposition.
    """
    paxes = tuple(range(1, tensor.ndim))
    ft = np.fft.fftn(tensor, axes=paxes)
    grid_shape = tensor.shape[1:]
    s = tensor.shape[0]
    h = np.zeros(grid_shape + (s, s), dtype=complex)
    for c in couplings:
        axis = _pointer_axis(state, c.pointer) - 1
        k = state.pointer_spec(c.pointer).grid.wavenumbers()
        shape = [1] * len(grid_shape)
        shape[axis] = k.size
        h = h + c.strength * k.reshape(shape)[..., None, None] * c.observable.matrix
    w, v = np.linalg.eigh(h)
    vec = np.moveaxis(ft, 0, -1)[..., None]
    vec = np.swapaxes(v.conj(), -1, -2) @ vec
    vec = np.exp(-1j * t * w)[..., None] * vec
    vec = (v @ vec)[..., 0]
    return np.fft.ifftn(np.moveaxis(vec, -1, 0), axes=paxes)


def _dense_generator(state: UnifiedState, couplings: Sequence[Coupling]) -> Operator:
    mats = []
    for c in couplings:
        factors = [c.observable.matrix]
        for spec in state.pointers:
            if spec.label == c.pointer:
                factors.append(momentum_operator(spec.grid, spec.label).matrix)
            else:
                factors.append(np.eye(spec.grid.points))
        mats.append(c.strength * reduce(np.kron, factors))
    total = reduce(np.add, mats)
    return Operator(state.state.dims, (total + total.conj().T) / 2, hermitian=True)


def _evolve_dense(
    state: UnifiedState, couplings: Sequence[Coupling], t: float
) -> np.ndarray:
    dim = state.state.dims.total
    if dim > DENSE_LIMIT:
        raise ValueError(
            f"dense exponential refuses dimension {dim} > {DENSE_LIMIT}; "
            f"use the shift method or a coarser grid"
        )
    generator = _dense_generator(state, couplings)
    return generator_action(generator, t, state.state.amplitudes)


def evolve(
    state: UnifiedState,
    couplings: Sequence[Coupling],
    method: EvolutionMethod = "auto",
) -> UnifiedState:
    """Apply one interaction phase exp(-i t sum_j g_j A_j pi_j).

    All couplings in the phase act simultaneously and must share a duration.
    Containment and norm preservation are enforced; the returned state
    records the phase in its history.
    """
    if state.provenance != "exact":
        raise ValueError("only exact states can be evolved further")
    cs, t = _validate_couplings(state, couplings)
    bounds = _updated_bounds(state, cs)
    if method == "expm":
        amps = _evolve_dense(state, cs, t)
    elif method in ("auto", "shift"):
        tensor = state.tensor()
        if _couplings_commute(cs):
            tensor = _evolve_commuting(tensor, state, cs)
        else:
            tensor = _evolve_blocks(tensor, state, cs, t)
        amps = tensor.reshape(-1)
    else:
        raise ValueError(f"unknown evolution method {method!r}")
    norm = float(np.linalg.norm(amps))
    if not abs(norm - state.state.norm) <= NORM_TOL:
        raise ValueError(f"evolution failed to preserve the norm: {norm!r}")
    return replace(
        state,
        state=StateVector(state.state.dims, amps, normalized=state.state.normalized),
        history=state.history + (cs,),
        shift_bounds=bounds,
    )


def evolve_sequential(
    state: UnifiedState,
    first: Sequence[Coupling] | Coupling,
    second: Sequence[Coupling] | Coupling,
    method: EvolutionMethod = "auto",
) -> UnifiedState:
    """Two interaction phases back to back, recorded as separate history entries."""
    first_cs = (first,) if isinstance(first, Coupling) else tuple(first)
    second_cs = (second,) if isinstance(second, Coupling) else tuple(second)
    return evolve(evolve(state, first_cs, method), second_cs, method)


def expand_perturbative(
    state: UnifiedState, couplings: Sequence[Coupling], order: int
) -> UnifiedState:
    """Truncated Dyson series sum_{m<=order} (-i t H)^m / m! applied to the state.

    The result is intentionally unnormalized and flagged by provenance;
    downstream separability analysis refuses it, and readout moments on it
    are raw quadratic forms.
    """
    if order not in (1, 2):
        raise ValueError(f"perturbative order must be 1 or 2, got {order}")
    if state.provenance != "exact":
        raise ValueError("perturbative expansion starts from an exact state")
    cs, t = _validate_couplings(state, couplings)

    def apply_h(tensor: np.ndarray) -> np.ndarray:
        out = np.zeros_like(tensor)
        for c in cs:
            axis = _pointer_axis(state, c.pointer)
            k = state.pointer_spec(c.pointer).grid.wavenumbers()
            shape = [1] * tensor.ndim
            shape[axis] = k.size
            ft = np.fft.fft(tensor, axis=axis) * (c.strength * k.reshape(shape))
            kicked = np.fft.ifft(ft, axis=axis)
            out += np.tensordot(c.observable.matrix, kicked, axes=([1], [0]))
        return out

    term = state.tensor()
    total = term.copy()
    for m in range(1, order + 1):
        term = (-1j * t / m) * apply_h(term)
        total += term
    provenance: Provenance = "first_order" if order == 1 else "second_order"
    return replace(
        state,
        state=StateVector(state.state.dims, total.reshape(-1), normalized=False),
        provenance=provenance,
        history=state.history + (cs,),
    )


def apparatus_density(state: UnifiedState) -> DensityMatrix:
    """Reduced density matrix of all pointers, system traced out."""
    return DensityMatrix.from_factors(
        state.pointer_dims(), state.matrix().T, normalized=state.provenance == "exact"
    )


def system_density(state: UnifiedState) -> DensityMatrix:
    return DensityMatrix.from_factors(
        state.system, state.matrix(), normalized=state.provenance == "exact"
    )


def _position_weights(state: UnifiedState, label: str) -> tuple[np.ndarray, np.ndarray]:
    tensor = state.tensor()
    axis = _pointer_axis(state, label)
    other = tuple(i for i in range(tensor.ndim) if i != axis)
    weights = np.abs(tensor) ** 2
    return weights.sum(axis=other), state.pointer_spec(label).grid.positions()


def pointer_mean(state: UnifiedState, label: str) -> float:
    """Raw first position moment <psi| x |psi> of one pointer.

    Equal to the mean position for normalized states; on truncated states
    the quadratic form is returned as is, which is what order-by-order
    comparisons need.
    """
    weights, x = _position_weights(state, label)
    return float(weights @ x)


def pointer_cross_mean(state: UnifiedState, label_a: str, label_b: str) -> float:
    """Raw correlator <psi| x_a x_b |psi> of two distinct pointers."""
    if label_a == label_b:
        raise ValueError("cross moment needs two distinct pointers")
    tensor = state.tensor()
    ax_a = _pointer_axis(state, label_a)
    ax_b = _pointer_axis(state, label_b)
    weights = np.abs(tensor) ** 2
    other = tuple(i for i in range(tensor.ndim) if i not in (ax_a, ax_b))
    w2 = weights.sum(axis=other)
    if ax_a > ax_b:
        w2 = w2.T
    xa = state.pointer_spec(label_a).grid.positions()
    xb = state.pointer_spec(label_b).grid.positions()
    return float(xa @ w2 @ xb)


def weak_value(observable: Operator, initial: StateVector, final: StateVector) -> WeakValue:
    """<F|A|I> / <F|I>, the complex number a weak pointer readout reports."""
    if initial.dims != final.dims:
        raise ValueError("initial and final states live on different spaces")
    overlap = complex(final.amplitudes.conj() @ initial.amplitudes)
    if abs(overlap) <= ORTHOGONAL_OVERLAP_TOL:
        raise OrthogonalPostselection(
            f"post-selection overlap {abs(overlap):.3e} is numerically zero"
        )
    numerator = complex(final.amplitudes.conj() @ (observable.matrix @ initial.amplitudes))
    return WeakValue(value=numerator / overlap, overlap=overlap)


def postselect(state: UnifiedState, final: StateVector) -> PostselectionResult:
    """Condition the apparatus on finding the system in ``final``.

    Returns the selection probability, the unnormalized conditional
    apparatus matrix (trace equal to the probability) and a report carrying
    both readout conventions: raw unnormalized moments and moments divided
    by the probability.
    """
    if final.dims != state.system:
        raise ValueError("post-selection state must live on the system factors")
    if state.provenance != "exact":
        raise ValueError("post-selection expects an exact evolved state")
    m = state.matrix()
    v = final.amplitudes.conj() @ m
    probability = float(np.vdot(v, v).real)
    if probability < MIN_POSTSELECT_PROBABILITY:
        raise OrthogonalPostselection(
            f"post-selection probability {probability:.3e} is numerically zero"
        )
    pdims = state.pointer_dims()
    if pdims.total > DENSE_LIMIT:
        raise ValueError(
            f"conditional apparatus matrix of dimension {pdims.total} is too "
            f"large; post-select on a coarser grid"
        )
    apparatus = DensityMatrix.from_factors(pdims, v[:, None], normalized=False)
    shape = tuple(s.grid.points for s in state.pointers)
    weights = (np.abs(v) ** 2).reshape(shape)
    unnorm: dict[str, float] = {}
    for i, spec in enumerate(state.pointers):
        other = tuple(j for j in range(len(shape)) if j != i)
        w = weights.sum(axis=other) if other else weights
        unnorm[spec.label] = float(w @ spec.grid.positions())
    normalized = {lab: val / probability for lab, val in unnorm.items()}
    stats = PostselectionStats(
        probability=probability, unnormalized_mean=unnorm, normalized_mean=normalized
    )
    return PostselectionResult(
        probability=probability,
        apparatus=apparatus,
        report=ReadoutReport(pointer_means=normalized, postselection=stats),
    )


def initial_info_expectation(
    state: UnifiedState, couplings: Sequence[Coupling], observable: Operator
) -> float:
    """System expectation of ``observable`` after evolving under ``couplings``.

    When the observable commutes with every coupled observable this equals
    its pre-interaction expectation: the interaction then only dephases
    within eigenspaces the observable cannot resolve.
    """
    defect = hermiticity_defect(observable.matrix)
    if not defect <= HERMITIAN_INPUT_TOL:
        raise ValueError(f"observable has Hermiticity defect {defect:.3e}")
    evolved = evolve(state, couplings)
    rho = system_density(evolved).matrix
    value = complex(np.trace(observable.matrix @ rho))
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation came out complex: {value!r}")
    return float(value.real)


def cross_validate(state: UnifiedState, couplings: Sequence[Coupling]) -> float:
    """Largest amplitude difference between the two independent integrators."""
    via_shift = evolve(state, couplings, "shift")
    via_dense = evolve(state, couplings, "expm")
    return float(
        np.abs(via_shift.state.amplitudes - via_dense.state.amplitudes).max()
    )
