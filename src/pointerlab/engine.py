"""Coupled evolution of a quantum system and its pointer apparatus.

The interaction Hamiltonian is a sum of terms g * A * pi, one per coupling:
a system observable A multiplied by the momentum pi of one pointer. Two
independent integrators are provided and kept deliberately separate so they
can cross-check each other:

* ``shift``: works in the pointer momentum representation. When all
  coupled observables commute and the state has no history, each coupling
  is split over its observable's eigenvectors into rank-1 projectors, each
  times a rigid translation of its pointer, and the result is written once
  as a sum over branches: a system vector times one 1-D factor per
  pointer, a batched inverse FFT of the packet's cached spectrum times its
  phase (``_branch_sum``). A later phase, or one whose pointer would have
  more branches than grid points, applies every coupling's exact
  per-eigenvalue translation between one forward and one inverse
  transform. When the observables do not commute, the generator is
  block-diagonal over the momentum grid and each small system block is
  exponentiated exactly: a qubit block by the closed-form SU(2)
  exponential, assembled in real arithmetic in place, a larger one by
  batched ``eigh``. A state with no history is the product
  ``build_initial`` made, so its spectrum is the system amplitudes times
  each packet's cached 1-D FFT, and no forward transform runs over the
  whole tensor.
* ``expm``: applies the generator to the state one factor at a time, each
  A on the system factors and the dense momentum matrix pi on the pointer
  factor its label names, and exp(-i t H) by a scaled Taylor series
  (``tensors.generator_action``) made of those products: no eigensolve, no
  FFT on the state, no product-space matrix. Operator matrices are stored
  exactly Hermitian, so H is too and nothing is checked or symmetrized. The
  series is scaled by sum_j |g_j| ||A_j||_2 ||pi_j||_2, which bounds
  ||H||_2 and equals it for one coupling: ||A||_2 is the largest
  |eigenvalue| of the observable's cached spectrum and ||pi||_2 the largest
  |k| of the grid's cached wavenumbers, so no eigensolve of pi runs. The
  products and the series run in buffers owned by one evolution, so no
  term allocates. A series step that does not converge within a fixed
  number of terms, as on NaN, raises. It refuses spaces beyond DENSE_LIMIT
  dimensions, and it shares no code path with ``shift``; only the momentum
  matrix is built with the FFT library.

DENSE_LIMIT bounds only ``expm``. Nothing here, post-selection and ``expm``
included, forms an N x N matrix; everything works from the amplitudes.

For order-by-order comparisons ``partial_sums`` returns the terms of the
truncated series themselves, not a state: the order-n truncation is the
state plus the first n terms, and one pass serves every impulse scale. The
series expands only the product state ``build_initial`` made, and refuses
a state with history. Each term is one ``_branch_sum`` over kick patterns
of the observables applied to the system vector times the packets kicked
by their momentum, so no FFT runs over the state.

Product states come from cached factors and are formed only when read:
``build_initial`` keeps the system state and each pointer's packet from a
per-``PointerSpec`` cache, which also holds its 1-D spectrum, measured
moments and momentum kicks. ``UnifiedState.state`` forms their product
with ``tensors.kron_states`` on first read and keeps it; the shift
integrator and the series read the factors instead, and ``evolve`` takes
the product's norm and layout from them, so a readout-grid array is
written only where a result needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Literal, Sequence

import numpy as np

from .pointer import CONTAINMENT_SIGMAS, LeakageError, PointerSpec, gaussian_state
from .pointer import momentum_operator, near_edge, state_moments
from .tensors import (
    DensityMatrix,
    DimensionSpec,
    NORM_TOL,
    Operator,
    StateVector,
    generator_action,
    kron_states,
    max_abs,
    product_dims,
)

COMMUTATOR_TOL = 1e-10
# Largest imaginary part a system expectation may carry before it is refused.
EXPECTATION_IMAG_TOL = 1e-10
# Largest product-space dimension the dense integrator will accept. It forms
# no product-space matrix, but each product costs the dimension times a
# pointer grid, and the step count grows with the grid's largest momentum.
DENSE_LIMIT = 4096
ORTHOGONAL_OVERLAP_TOL = 1e-12
MIN_POSTSELECT_PROBABILITY = 1e-14

EvolutionMethod = Literal["shift", "expm"]


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

    @property
    def impulse(self) -> float:
        """Integrated strength g*t, the size of the pointer kick."""
        return self.strength * self.duration


@dataclass(frozen=True)
class WeakValue:
    value: complex
    overlap: complex


@dataclass(frozen=True)
class Postselection:
    """The apparatus conditioned on a system outcome, and its two readouts.

    ``apparatus`` is unnormalized, with trace ``probability``. Per pointer,
    ``unnormalized_mean`` is the raw first moment and ``normalized_mean``
    that moment divided by the probability.
    """

    probability: float
    apparatus: DensityMatrix
    unnormalized_mean: dict[str, float]
    normalized_mean: dict[str, float]


@dataclass
class UnifiedState:
    """System plus pointers, with enough context to audit where it came from.

    ``history`` records the coupling phases applied so far (outermost tuple:
    one entry per evolution call). ``shift_bounds`` tracks the accumulated
    interval of possible pointer displacements per label, used to refuse
    evolutions that could wrap the periodic box. ``initial_system`` is the
    pre-interaction system state, whose dims are ``system``; separability
    certificates rebuild reduced states from it on independent grids.

    ``state`` holds the amplitudes. Before any phase the state is the
    product of ``initial_system`` and the pointers' cached packets, formed
    by ``kron_states`` on first read and kept; the shift integrator and the
    perturbative series start from those factors and never read it.
    ``_evolved`` is the state an evolution left, None for the product.
    """

    pointers: tuple[PointerSpec, ...]
    initial_system: StateVector
    history: tuple[tuple[Coupling, ...], ...] = ()
    shift_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    _evolved: StateVector | None = field(default=None, repr=False)

    @property
    def system(self) -> DimensionSpec:
        return self.initial_system.dims

    @cached_property
    def state(self) -> StateVector:
        """The amplitudes as a state; the product is formed here, on first read."""
        if self._evolved is not None:
            return self._evolved
        return kron_states(*self._factors())

    def _factors(self) -> tuple[StateVector, ...]:
        """The state as tensor factors: itself once evolved, else the system and its packets."""
        if self._evolved is not None:
            return (self._evolved,)
        return (self.initial_system, *map(_packet, self.pointers))

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
    """Product of a system state and the pointers' Gaussian packets, cached per spec.

    No amplitudes are formed here: ``state`` forms the product on first read.
    """
    specs = tuple(pointers)
    if not specs:
        raise ValueError("at least one pointer is required")
    for spec in specs:
        _packet(spec)  # a packet that leaks out of its box is refused here
    return UnifiedState(
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
        kicks = c.impulse * c.observable.spectrum[0]
        lo, hi = bounds[c.pointer]
        bounds[c.pointer] = (lo + float(kicks.min()), hi + float(kicks.max()))
    for label, (lo, hi) in bounds.items():
        spec = state.pointer_spec(label)
        for bound in (lo, hi):
            if near_edge(spec.x0 + bound, spec.sigma, spec.grid):
                raise LeakageError(
                    f"pointer {label!r}: accumulated shift {bound:+.6g} would put "
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


@lru_cache(maxsize=16)
def _packet(spec: PointerSpec) -> StateVector:
    """The Gaussian packet ``build_initial`` prepares for ``spec``, read-only."""
    return gaussian_state(spec)


@lru_cache(maxsize=16)
def _packet_spectrum(spec: PointerSpec) -> np.ndarray:
    """1-D FFT of the packet ``build_initial`` prepares for ``spec``, read-only."""
    ft = np.fft.fft(_packet(spec).amplitudes)
    ft.setflags(write=False)
    return ft


@lru_cache(maxsize=16)
def _packet_moments(spec: PointerSpec) -> tuple[float, float]:
    """Measured position mean and spread of the packet ``build_initial`` prepares."""
    return state_moments(_packet(spec), spec.grid)


@lru_cache(maxsize=32)
def _kicked_packet(spec: PointerSpec, kicks: int) -> np.ndarray:
    """pi^kicks on the packet ``build_initial`` prepares, pi the pointer momentum, read-only.

    One inverse transform of k^kicks times the cached spectrum; no kick is
    the packet itself.
    """
    if kicks == 0:
        return _packet(spec).amplitudes
    out = np.fft.ifft(spec.grid.wavenumbers() ** kicks * _packet_spectrum(spec))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _kicked_packets(spec: PointerSpec, most: int) -> np.ndarray:
    """The packet kicked 0, 1, ..., ``most`` times, one per row, read-only."""
    out = np.stack([_kicked_packet(spec, n) for n in range(most + 1)])
    out.setflags(write=False)
    return out


def _system_map(m: np.ndarray, tensor: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The matrix ``m`` applied to the system axis of ``tensor``, written into ``out``."""
    d = tensor.shape[0]
    np.matmul(m, tensor.reshape(d, -1), out=out.reshape(d, -1))
    return out


def _spectrum(
    state: UnifiedState, axes: tuple[int, ...], left: np.ndarray | None = None
) -> np.ndarray:
    """The amplitudes Fourier transformed over pointer ``axes``, as a new array.

    ``left``, if given, is applied to the system axis as well. A state with
    no history is the product ``build_initial`` made, so its transform is
    the system amplitudes times each transformed packet's cached spectrum
    and each other packet: no transform runs over the whole tensor. Any
    other state is transformed as it stands.
    """
    if state.history:
        tensor = state.tensor()
        if left is None:
            return np.fft.fftn(tensor, axes=axes)
        tensor = _system_map(left, tensor, np.empty_like(tensor))
        return np.fft.fftn(tensor, axes=axes, out=tensor)
    out = state.initial_system.amplitudes
    if left is not None:
        out = left @ out
    for axis, spec in enumerate(state.pointers, 1):
        factor = _packet_spectrum(spec) if axis in axes else _packet(spec).amplitudes
        out = np.multiply.outer(out, factor)
    return out


def _branch_sum(core: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """sum_b core[b] (x) factors[0][b_1] (x) ... (x) factors[-1][b_k], as a fresh array.

    ``core`` is (B_1, ..., B_k, d): one system vector per branch b, whose
    index has one entry b_p per pointer, and ``factors[p]`` is (B_p, N_p),
    one 1-D pointer factor per entry. The result is (d, N_1, ..., N_k). The
    pointers are contracted in turn, each by one matrix product, the last
    written straight into the result; with every B_p <= N_p no temporary is
    as large as the result.
    """
    t = core
    *inner, last = factors
    for f in inner:
        t = (t.reshape(len(f), -1).T @ f).reshape(t.shape[1:] + f.shape[1:])
    out = np.empty(t.shape[1:] + last.shape[1:], dtype=complex)
    np.matmul(t.reshape(len(last), -1).T, last, out=out.reshape(-1, last.shape[1]))
    return out


def _commuting_branches(
    state: UnifiedState, couplings: Sequence[Coupling]
) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """A commuting phase on the product state as ``_branch_sum`` branches.

    Each coupling is a sum over its observable's cached eigenvectors v of
    the rank-1 projector v v-dagger times the translation of its pointer by
    the impulse times v's eigenvalue. The projectors sum to the identity
    whatever the degeneracy, so this is exact, and the couplings commute,
    so the phase is the product of those sums. A branch picks one
    eigenvector per coupling: its system vector is the projectors applied
    to the system amplitudes in turn, and its factor on a pointer is one
    inverse transform of the packet's cached spectrum times the phase of
    its couplings' summed kicks, batched over the pointer's branches.
    Returns None when a pointer would have more branches, d to the power
    of its couplings, than grid points.
    """
    d = state.system.total
    core = state.initial_system.amplitudes
    shape, factors = [], []
    for spec in state.pointers:
        on = [c for c in couplings if c.pointer == spec.label]
        if d ** len(on) > spec.grid.points:
            return None
        kicks = np.zeros(())
        for c in on:
            w, v = c.observable.spectrum
            # core[..., a, :] = v_a (v_a-dagger core)
            core = (core @ v.conj())[..., None] * v.T
            kicks = np.add.outer(kicks, c.impulse * w)
        shape.append(kicks.size)
        if on:
            k = spec.grid.wavenumbers()
            phase = np.exp(-1j * np.multiply.outer(kicks.reshape(-1), k))
            phase *= _packet_spectrum(spec)
            factors.append(np.fft.ifft(phase, out=phase))
        else:
            factors.append(_packet(spec).amplitudes[None])
    return core.reshape(shape + [d]), factors


def _evolve_commuting(state: UnifiedState, couplings: Sequence[Coupling]) -> np.ndarray:
    """Per-eigenvalue translations of a commuting phase.

    The product state is written once from its branches
    (``_commuting_branches``) unless a pointer has too many. Otherwise
    every coupling multiplies its pointer's momentum amplitudes by
    exp(-i g t a k) in its observable's eigenbasis, all between one forward
    and one inverse transform. The basis changes act on the system axis,
    so they commute with the transforms over the pointer axes, and
    consecutive ones merge into one matrix.
    """
    if not state.history:
        branches = _commuting_branches(state, couplings)
        if branches is not None:
            return _branch_sum(*branches)
    axes = tuple(sorted({_pointer_axis(state, c.pointer) for c in couplings}))
    bases = [c.observable.spectrum for c in couplings]
    ft = _spectrum(state, axes, bases[0][1].conj().T)
    spare = np.empty_like(ft)
    for i, (c, (w, v)) in enumerate(zip(couplings, bases)):
        if i:
            ft, spare = _system_map(v.conj().T @ bases[i - 1][1], ft, spare), ft
        axis = _pointer_axis(state, c.pointer)
        k = state.pointer_spec(c.pointer).grid.wavenumbers()
        phase = np.exp(-1j * c.impulse * np.multiply.outer(w, k))
        shape = [1] * ft.ndim
        shape[0], shape[axis] = phase.shape
        ft *= phase.reshape(shape)
    out = _system_map(bases[-1][1], ft, spare)
    return np.fft.ifftn(out, axes=axes, out=out)


def _kick(state: UnifiedState, c: Coupling, grid_ndim: int) -> np.ndarray:
    """g * k on the coupled pointer's momentum axis, broadcastable over the grid."""
    k = state.pointer_spec(c.pointer).grid.wavenumbers()
    shape = [1] * grid_ndim
    shape[_pointer_axis(state, c.pointer) - 1] = k.size
    return c.strength * k.reshape(shape)


def _qubit_blocks(
    ft: np.ndarray, state: UnifiedState, couplings: Sequence[Coupling], t: float
) -> np.ndarray:
    """exp(-i t h(k)) on every momentum block of a qubit, in closed form, in place.

    Each block is h(k) = c0 I + c . sigma with real c0, c, so
    exp(-i t h) = exp(-i t c0) [[a, b], [-b*, a*]] with a = cos(t|c|) - i s cz,
    b = -s (cy + i cx) and s = sin(t|c|)/|c|. s is t sinc(t|c|/pi), which is
    t at |c| = 0 with no special case. Each coefficient is assembled in real
    arithmetic into one complex buffer, in turn, and ``ft``, which the
    caller owns, is overwritten row by row and returned; one spare row keeps
    the first input row for the second. A component no observable carries
    stays the scalar 0 and spans no grid; for c0 the factor exp(-i t c0),
    exactly 1, is then skipped.
    """
    grid = ft.shape[1:]
    parts = [0.0, 0.0, 0.0, 0.0]
    for c in couplings:
        a = c.observable.matrix
        gk = _kick(state, c, len(grid))
        weights = (
            (a[0, 0] + a[1, 1]).real / 2,
            a[0, 1].real,
            -a[0, 1].imag,
            (a[0, 0] - a[1, 1]).real / 2,
        )
        for i, w in enumerate(weights):
            if w:
                parts[i] = parts[i] + gk * w
    c0, cx, cy, cz = parts
    tr = np.sqrt(cx * cx + cy * cy + cz * cz)
    tr *= t
    s = np.sinc(tr / np.pi)
    s *= t
    u0, u1 = ft
    first = u0.copy()
    coef = np.empty(grid, dtype=complex)
    # a = cos - i s cz on u0, then b = -s cy - i s cx on u1, into row 0
    np.cos(tr, out=coef.real)
    np.multiply(s, -cz, out=coef.imag)
    np.multiply(coef, u0, out=u0)
    np.multiply(s, -cy, out=coef.real)
    np.multiply(s, -cx, out=coef.imag)
    coef *= u1
    u0 += coef
    # a* on u1, then -b* = s cy - i s cx on the first row, into row 1
    np.cos(tr, out=coef.real)
    np.multiply(s, cz, out=coef.imag)
    np.multiply(coef, u1, out=u1)
    np.multiply(s, cy, out=coef.real)
    np.multiply(s, -cx, out=coef.imag)
    coef *= first
    u1 += coef
    if isinstance(c0, np.ndarray):
        # exp(-i t c0)
        np.cos(t * c0, out=coef.real)
        np.sin(-t * c0, out=coef.imag)
        ft *= coef
    return ft


def _evolve_blocks(
    state: UnifiedState, couplings: Sequence[Coupling], t: float
) -> np.ndarray:
    """Exact exponential of the full generator, block by momentum block.

    In the pointer momentum representation the generator is diagonal over
    the momentum grid, leaving one small Hermitian system block per grid
    point. Qubit blocks are exponentiated in closed form
    (``_qubit_blocks``); larger ones by batched eigendecomposition.
    """
    paxes = tuple(range(1, 1 + len(state.pointers)))
    ft = _spectrum(state, paxes)
    s = ft.shape[0]
    if s == 2:
        out = _qubit_blocks(ft, state, couplings, t)
        return np.fft.ifftn(out, axes=paxes, out=out)
    h = np.zeros(ft.shape[1:] + (s, s), dtype=complex)
    for c in couplings:
        h = h + _kick(state, c, ft.ndim - 1)[..., None, None] * c.observable.matrix
    w, v = np.linalg.eigh(h)
    vec = np.moveaxis(ft, 0, -1)[..., None]
    vec = np.swapaxes(v.conj(), -1, -2) @ vec
    vec = np.exp(-1j * t * w)[..., None] * vec
    vec = (v @ vec)[..., 0]
    return np.fft.ifftn(np.moveaxis(vec, -1, 0), axes=paxes)


def _dense_action(
    state: UnifiedState, couplings: Sequence[Coupling]
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """v -> H v for H = sum_j g_j kron(A_j, ..., pi_j, ...), and a bound on ||H||_2.

    H is applied one factor at a time and never formed: the dense momentum
    matrix pi on the pointer factor that the state's layout names, then g A
    on the leading system factors. The spectral norm of a kron product is the
    product of its factors' spectral norms, so the bound
    sum_j |g_j| ||A_j||_2 ||pi_j||_2 is exact for one coupling and bounds
    ||H||_2 by the triangle inequality for several. ||A||_2 is the largest
    |eigenvalue| of the observable's cached spectrum; pi is F-dagger diag(k)
    F, so ||pi||_2 is the largest |k| of the grid's cached wavenumbers and no
    eigensolve runs.

    The products go into buffers owned by this one call, so concurrent
    evolutions share nothing; each call of the returned function overwrites
    and returns the same output buffer, which must not be passed back in.
    """
    dims = state.state.dims
    terms = []
    bound = 0.0
    for c in couplings:
        spec = state.pointer_spec(c.pointer)
        pi = momentum_operator(spec.grid, spec.label)
        axis = dims.axis(c.pointer)
        layout = (math.prod(dims.sizes[:axis]), spec.grid.points, -1)
        ga = c.strength * c.observable.matrix
        terms.append((ga, pi.matrix, layout))
        bound += abs(c.strength) * max_abs(c.observable.spectrum[0]) * max_abs(
            spec.grid.wavenumbers()
        )
    moved, scaled, out = (np.empty(dims.total, dtype=complex) for _ in range(3))

    def apply_h(v: np.ndarray) -> np.ndarray:
        for i, (ga, pi, layout) in enumerate(terms):
            np.matmul(pi, v.reshape(layout), out=moved.reshape(layout))
            rows = (ga.shape[0], -1)
            np.matmul(ga, moved.reshape(rows), out=(scaled if i else out).reshape(rows))
            if i:
                np.add(out, scaled, out=out)
        return out

    return apply_h, bound


def _evolve_dense(
    state: UnifiedState, couplings: Sequence[Coupling], t: float
) -> np.ndarray:
    dim = state.state.dims.total
    if dim > DENSE_LIMIT:
        raise ValueError(
            f"dense exponential refuses dimension {dim} > {DENSE_LIMIT}; "
            f"use the shift method or a coarser grid"
        )
    apply_h, bound = _dense_action(state, couplings)
    return generator_action(apply_h, bound, t, state.state.amplitudes)


def evolve(
    state: UnifiedState,
    couplings: Sequence[Coupling],
    method: EvolutionMethod = "shift",
) -> UnifiedState:
    """Apply one interaction phase exp(-i t sum_j g_j A_j pi_j).

    All couplings in the phase act simultaneously and must share a duration.
    Containment and norm preservation are enforced; the returned state
    records the phase in its history.
    """
    cs, t = _validate_couplings(state, couplings)
    bounds = _updated_bounds(state, cs)
    if method == "expm":
        amps = _evolve_dense(state, cs, t)
    elif method == "shift":
        if _couplings_commute(cs):
            tensor = _evolve_commuting(state, cs)
        else:
            tensor = _evolve_blocks(state, cs, t)
        amps = tensor.reshape(-1)
    else:
        raise ValueError(f"unknown evolution method {method!r}")
    # The product's norm, claim and layout are its factors', as kron_states
    # takes them, so reading them forms nothing.
    factors = state._factors()
    norm = float(np.linalg.norm(amps))
    if not abs(norm - math.prod(f.norm for f in factors)) <= NORM_TOL:
        raise ValueError(f"evolution failed to preserve the norm: {norm!r}")
    # The copy stays: without it scenario-suite peak RSS measured about 2 MB higher.
    evolved = StateVector._owning(
        product_dims(*(f.dims for f in factors)),
        amps.copy(),
        normalized=all(f.normalized for f in factors),
        norm=norm,
    )
    return replace(
        state,
        history=state.history + (cs,),
        shift_bounds=bounds,
        _evolved=evolved,
    )


def evolve_sequential(
    state: UnifiedState,
    first: Sequence[Coupling] | Coupling,
    second: Sequence[Coupling] | Coupling,
    method: EvolutionMethod = "shift",
) -> UnifiedState:
    """Two interaction phases back to back, recorded as separate history entries."""
    first_cs = (first,) if isinstance(first, Coupling) else tuple(first)
    second_cs = (second,) if isinstance(second, Coupling) else tuple(second)
    return evolve(evolve(state, first_cs, method), second_cs, method)


def partial_sums(
    state: UnifiedState, couplings: Sequence[Coupling], order: int
) -> list[np.ndarray]:
    """The series terms T_m = (-i t H)^m psi / m! for m = 1..order, on a product state.

    The order-n partial sum is psi + sum_{m<=n} T_m. Scaling every strength
    by s scales T_m by s^m, so one pass serves every impulse scale: the
    partial sums at scale s are psi + sum_{m<=n} s^m T_m, and at s = 1/2
    that rescaling is exact in binary. ``state`` must have no history: it
    is the product ``build_initial`` made, and an evolved state is refused.

    Each g A pi of H acts on the system factor and one packet, so T_m is a
    sum over how its m kicks fall on the pointers. For each way, the system
    vector gathers every ordered product of the g A with those kicks,
    applied to the system amplitudes, times -i t / j at step j, and pointer
    i contributes its packet kicked n_i times (``_kicked_packets``). Each
    term is written once, by one ``_branch_sum`` over the kick patterns.
    Only the packets' 1-D transforms run, once per spec and kick count.
    """
    if order not in (1, 2):
        raise ValueError(f"perturbative order must be 1 or 2, got {order}")
    if state.history:
        raise ValueError("the perturbative series expands only a state with no history")
    cs, t = _validate_couplings(state, couplings)
    index = {spec.label: i for i, spec in enumerate(state.pointers)}
    layer = {(0,) * len(index): state.initial_system.amplitudes}
    terms = []
    for m in range(1, order + 1):
        grown: dict[tuple[int, ...], np.ndarray] = {}
        for kicks, vector in layer.items():
            for c in cs:
                key = list(kicks)
                key[index[c.pointer]] += 1
                key = tuple(key)
                mapped = (-1j * t / m * c.strength) * (c.observable.matrix @ vector)
                grown[key] = grown.get(key, 0) + mapped
        layer = grown
        # the branches: a system vector per kick pattern, zero off the patterns
        core = np.zeros((m + 1,) * len(index) + (state.system.total,), dtype=complex)
        for kicks, vector in layer.items():
            core[kicks] = vector
        factors = [_kicked_packets(spec, m) for spec in state.pointers]
        terms.append(_branch_sum(core, factors).reshape(-1))
    return terms


def apparatus_density(state: UnifiedState) -> DensityMatrix:
    """Reduced density matrix of all pointers, system traced out."""
    return DensityMatrix.from_factors(state.pointer_dims(), state.matrix().T)


def system_density(state: UnifiedState) -> DensityMatrix:
    return DensityMatrix.from_factors(state.system, state.matrix())


def _position_weights(state: UnifiedState, label: str) -> tuple[np.ndarray, np.ndarray]:
    tensor = state.tensor()
    axis = _pointer_axis(state, label)
    other = tuple(i for i in range(tensor.ndim) if i != axis)
    weights = np.abs(tensor) ** 2
    return weights.sum(axis=other), state.pointer_spec(label).grid.positions()


def pointer_mean(state: UnifiedState, label: str) -> float:
    """Raw first position moment <psi| x |psi> of one pointer.

    Equal to the mean position for normalized states; on an unnormalized
    state the quadratic form is returned as is, not divided by the norm.
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


def postselect(state: UnifiedState, final: StateVector) -> Postselection:
    """Condition the apparatus on finding the system in ``final``.

    The conditional apparatus keeps its one column, <final| on the state,
    so no matrix over the pointer grid is formed at any grid size.
    """
    if final.dims != state.system:
        raise ValueError("post-selection state must live on the system factors")
    m = state.matrix()
    v = final.amplitudes.conj() @ m
    probability = float(np.vdot(v, v).real)
    if probability < MIN_POSTSELECT_PROBABILITY:
        raise OrthogonalPostselection(
            f"post-selection probability {probability:.3e} is numerically zero"
        )
    pdims = state.pointer_dims()
    apparatus = DensityMatrix.from_factors(pdims, v[:, None], normalized=False)
    shape = tuple(s.grid.points for s in state.pointers)
    weights = (np.abs(v) ** 2).reshape(shape)
    unnorm: dict[str, float] = {}
    for i, spec in enumerate(state.pointers):
        other = tuple(j for j in range(len(shape)) if j != i)
        w = weights.sum(axis=other) if other else weights
        unnorm[spec.label] = float(w @ spec.grid.positions())
    normalized = {lab: val / probability for lab, val in unnorm.items()}
    return Postselection(probability, apparatus, unnorm, normalized)


def system_expectation(state: UnifiedState, observable: Operator) -> float:
    """tr(A rho_system) of a system observable A."""
    rho = system_density(state).matrix
    value = complex(np.trace(observable.matrix @ rho))
    if not (abs(value.imag) <= EXPECTATION_IMAG_TOL and math.isfinite(value.real)):
        raise ValueError(f"expectation is not a finite real number: {value!r}")
    return float(value.real)
