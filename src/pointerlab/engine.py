"""Coupled evolution of a quantum system and its pointer apparatus.

The interaction Hamiltonian is a sum of terms g * A * pi, one per coupling:
a system observable A multiplied by the momentum pi of one pointer. Two
independent integrators are provided and kept deliberately separate so they
can cross-check each other:

* ``shift``: works in the pointer momentum representation. A state in
  branch form is a sum over branches, each a system vector times one 1-D
  factor per pointer (``_branch_sum``'s inputs); the product state
  ``build_initial`` made is the one-branch case. Every factor row is its
  pointer's packet translated by an accumulated kick, which the form
  keeps. ``evolve`` alone picks the route, in turn: commuting, window,
  blocks. A commuting phase on such a state keeps that form: each coupling
  is split over its observable's eigenspaces into spectral projectors,
  each times a rigid translation of its pointer by the impulse times the
  eigenvalue, so it splits every branch's system vector by those
  projectors and each of its pointer's rows into one row per eigenspace.
  Rows whose kicks are equal are merged, and each row is the packet's
  cached spectrum times its kick's phase, one batched inverse 1-D FFT per
  pointer. Any other phase, or a commuting one on a state without kick
  rows or whose pointer would have more rows than grid points, runs on
  the momentum blocks: the generator is block-diagonal over the momentum
  grid and each small system block is exponentiated exactly, in place, by
  one function (``_qubit_blocks``) at any set of momenta: a qubit block by
  the closed-form SU(2) exponential, any other by batched ``eigh``. The
  qubit coefficients are sums of 1-D profiles, one per pointer, so that
  kernel walks the grid in tiles of TILE_POINTS, takes every cosine and
  sine of a tile from one half-angle tangent, and assembles the blocks in
  real arithmetic in place: no temporary spans the grid. Each block is
  unitary, so the phase keeps the state's norm on any set of momenta. For
  a state on two pointers in branch form whose grids exceed one tile, of
  any system dimension, the blocks run only on the cross region of the
  packets' momentum windows (``_window``, ``_evolve_window``), which holds
  all but an exactly computed part of norm at most WINDOW_TAIL_TOL of the
  state, and the result is a window form (``_Branches``, ``kicks`` None).
  The spectrum of a state in branch form is written from its rows'
  spectra, taken from their kicks where it has them, so no forward
  transform of the state runs.
* ``expm``: applies the generator to the state one factor at a time and
  exp(-i t H) by a scaled Taylor series (``tensors.generator_action``) made
  of those products: no eigensolve, no product-space matrix, and no FFT
  anywhere in the dense oracle. The momentum is taken in closed form,
  pi = -i D + (k_N / N) s s^T, with D the real, antisymmetric Fourier
  differentiation matrix (Trefethen, Spectral Methods in MATLAB, ch. 3;
  ``pointer.differentiation_matrix``), k_N the Nyquist wavenumber and
  s_n = (-1)^n its mode. Per coupling, D goes on the real view of the
  pointer factor its label names, one real product at half the flops of a
  complex one; the rank-1 Nyquist term is added in place; and g A, with
  the -i of pi folded in, goes on the system factors. No complex N x N
  matrix is formed. Operator matrices are stored exactly Hermitian and D
  is exactly antisymmetric, so H is exactly Hermitian and nothing is
  checked or symmetrized at product-space size. The series is scaled by
  sum_j |g_j| ||A_j||_2 ||pi_j||_2, which bounds ||H||_2 and equals it for
  one coupling: ||A||_2 is the largest |eigenvalue| of the observable's
  cached spectrum and ||pi||_2 the largest |k| of the grid's cached
  wavenumbers, so no eigensolve of pi runs. The products and the series
  run in buffers owned by one evolution, so no term allocates. A series
  step that does not converge within a fixed number of terms, as on NaN,
  raises. It refuses spaces beyond DENSE_LIMIT dimensions, and it shares
  no code path with ``shift``.

DENSE_LIMIT bounds only ``expm``. Nothing here, post-selection and ``expm``
included, forms an N x N matrix; everything works from the amplitudes.

For order-by-order comparisons ``partial_sums`` returns the terms of the
truncated series themselves, not a state: the order-n truncation is the
state plus the first n terms, and one pass serves every impulse scale. The
series expands only the product state ``build_initial`` made, and refuses
a state with history. Every term is a branch form over kick patterns, the
observables applied to the system vector times the packets kicked by
their momentum; ``_series_branches`` builds those cores, and a caller that
needs only a sum of terms, such as a whole truncation at one scale,
writes it in one ``_branch_sum``. No FFT runs over the state.

States stay factored until their amplitudes are read: ``build_initial``
keeps the system state and each pointer's packet, from a
per-``PointerSpec`` cache that also holds its 1-D spectrum, momentum
kicks and momentum window, as a one-branch form; a commuting phase keeps
the kick rows, and a noncommuting phase on two readout-size pointers
leaves a window form. A state is a branch form or amplitudes,
nothing else. ``UnifiedState.state`` forms the amplitudes of any branch
form, the product included, on first read with one ``_branch_sum`` and
keeps them. ``evolve`` takes the layout from the factors and checks a
branch form's norm from its factor rows' Gram matrices, or from a window
form's coefficients plus the part it drops, so it forms nothing. The
readouts the scenarios take read the form: position expectations are
quadratic forms in the factor rows (``_quadratic_form``); the system's
reduced state C C-dagger, its purity and expectations, and the Schmidt
coefficients read C = ``UnifiedState.columns``, the state in an
orthonormal basis, which for kick rows is a small Tucker
core from a thin QR of each pointer's rows (``UnifiedState.tucker``) and
for a window form its coefficients on the cross region's plane waves
(Parseval); and a truncation's distance to a window form is taken on the
momenta (``_branch_distance``). A state without branch form, or one whose
amplitudes were already formed, is read as it stands. The readability
verdict reads the bases and core of ``tucker`` for either kind of rows.
Post-selection (``postselect``) contracts the system axis of the form
with the final state, so the conditioned state is a form of the same kind,
read by the same readers. So a readout-grid array is written only where a
result needs the amplitudes themselves: the dense oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Literal, Sequence

import numpy as np

from .pointer import CONTAINMENT_SIGMAS, LeakageError, PointerSpec, gaussian_state
from .pointer import differentiation_matrix, near_edge
from .tensors import (
    DimensionSpec,
    NORM_TOL,
    Operator,
    StateVector,
    generator_action,
    max_abs,
    product_dims,
    schmidt_values,
)

COMMUTATOR_TOL = 1e-10
# Largest imaginary part a system expectation may carry before it is refused.
EXPECTATION_IMAG_TOL = 1e-10
# Largest product-space dimension the dense integrator will accept. It forms
# no product-space matrix, but each product costs the dimension times a
# pointer grid, and the step count grows with the grid's largest momentum.
DENSE_LIMIT = 4096
ORTHOGONAL_OVERLAP_TOL = 1e-12
# The smallest absolute level a readout-grid check resolves: the scenarios'
# two-point scaling checks count a defect at or below it as roundoff.
SCALING_FLOOR = 1e-12
# Largest norm, relative to the state's, that a window form may drop
# (``_evolve_window``), and the spectral mass each pointer's window leaves
# out. Dropping a part of norm delta moves every norm-like readout (the
# norm, a truncation gap, a Schmidt coefficient) by at most delta, and a
# moment of weights w by at most (2 + delta) delta max|w|; two orders below
# SCALING_FLOOR, the first stays unresolved by any check.
WINDOW_TAIL_TOL = SCALING_FLOOR / 100
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


@dataclass(frozen=True, eq=False)
class _Branches:
    """sum_b core[b] (x) factors[0][b_1] (x) ... (x) factors[-1][b_k], and its norm.

    ``core`` is (B_1, ..., B_k, d) and ``factors[p]`` is (B_p, N_p), as
    ``_branch_sum`` takes them; every B_p is at most N_p. The rows are of
    one of two kinds:

    * kick rows: row b of ``factors[p]`` is pointer p's packet translated
      by ``kicks[p][b]``, its accumulated kick, and no two rows of one
      pointer share a kick. A commuting phase keeps them.
    * window rows, with ``kicks`` None: what ``_evolve_window`` leaves of a
      state on two pointers. Each pointer's window W_p is the momenta
      holding all but WINDOW_TAIL_TOL of its packet's spectral mass
      (``_window``), and the form is the state on the cross region
      R = (all x W_B) + (W_A x outside W_B), zero off it: for each system
      row s, sum_b u_sb (x) p_b + sum_a p_a (x) y_sa, with p the window's
      plane waves, u_sb pointer A's column at momentum b of W_B and y_sa
      pointer B's row at momentum a of W_A outside W_B. ``spectrum`` holds
      the same state as coefficients on R's plane-wave products, (d, |R|),
      an orthonormal basis, so its norm and system-side readouts are read
      there. ``tail`` is an exact bound on the norm of what the form drops,
      the state off R, accumulated over the phases that made it.
    """

    core: np.ndarray
    factors: tuple[np.ndarray, ...]
    kicks: tuple[np.ndarray, ...] | None
    norm: float
    tail: float = 0.0
    spectrum: np.ndarray | None = None


@dataclass
class UnifiedState:
    """System plus pointers, with enough context to audit where it came from.

    ``history`` records the coupling phases applied so far (outermost tuple:
    one entry per evolution call). ``shift_bounds`` tracks the accumulated
    interval of possible pointer displacements per label, used to refuse
    evolutions that could wrap the periodic box. ``initial_system`` is the
    pre-interaction system state, whose dims are ``system``; the product
    state and the truncation series start from it, and the scenarios'
    predictions read it.

    ``_evolved`` is the state, of one of two kinds: a ``_Branches``, or
    the amplitudes. ``build_initial`` stores the product of
    ``initial_system`` and the pointers' cached packets as the one-branch
    form, with kick rows at kick 0; a commuting phase keeps kick rows,
    ``_evolve_window`` leaves window rows (``kicks`` None), and any other
    phase leaves the amplitudes. ``branches`` is the branch form, which
    the shift integrator and the perturbative series start from. ``state``
    forms the amplitudes on first read and keeps them, and ``columns``
    holds the state in an orthonormal basis that the system-side readouts
    read, so a state in branch form that is only read out is never written
    out. For kick rows that basis and the core come from ``tucker``, which
    the readability verdict reads for any branch form.
    """

    pointers: tuple[PointerSpec, ...]
    initial_system: StateVector
    _evolved: StateVector | _Branches = field(repr=False)
    history: tuple[tuple[Coupling, ...], ...] = ()
    shift_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def system(self) -> DimensionSpec:
        return self.initial_system.dims

    @cached_property
    def dims(self) -> DimensionSpec:
        """The layout of the amplitudes, taken from the factors: reading it forms nothing."""
        return product_dims(self.system, *(_packet(spec).dims for spec in self.pointers))

    @property
    def branches(self) -> _Branches | None:
        """The state in branch form, or None once a phase left that form."""
        return self._evolved if isinstance(self._evolved, _Branches) else None

    @property
    def norm(self) -> float:
        """The norm of the amplitudes, read without forming them."""
        form = self.branches
        return self.state.norm if form is None else form.norm

    @cached_property
    def state(self) -> StateVector:
        """The amplitudes as a state, formed here on first read."""
        form = self._evolved
        if isinstance(form, StateVector):
            return form
        return StateVector._owning(
            self.dims,
            _branch_sum(form.core, form.factors),
            normalized=self.initial_system.normalized,
            # the product's norm is its factors' kept norms; a phase's is taken here
            norm=None if self.history else form.norm,
        )

    @cached_property
    def tucker(self) -> tuple[tuple[np.ndarray, ...], np.ndarray] | None:
        """The branch form in orthonormal bases: each pointer's basis Q_p and the core, or None.

        A thin QR of each pointer's rows, F_p^T = Q_p R_p, and the branch
        core contracted with every R_p: the state is sum core[s, i_1, ...,
        i_k] |s> (x) Q_1[:, i_1] (x) ... (x) Q_k[:, i_k], a Tucker form with
        orthonormal factors (De Lathauwer, De Moor and Vandewalle, SIAM J.
        Matrix Anal. Appl. 21, 1253 (2000)). Q_p is (N_p, B_p) and the core
        (d, B_1, ..., B_k), all read-only. Kick rows and window rows alike;
        None for a state without branch form.
        """
        form = self.branches
        if form is None:
            return None
        qrs = _qr_each([rows.T for rows in form.factors])
        core = _branch_sum(form.core, [r.T for _, r in qrs])
        bases = tuple(q for q, _ in qrs)
        for a in (core, *bases):
            a.setflags(write=False)
        return bases, core

    @cached_property
    def columns(self) -> np.ndarray:
        """The amplitudes as a (system, rest) matrix in an orthonormal basis of the pointers.

        Kick rows: the core of ``tucker``. Window rows: the form's
        ``spectrum``, whose basis is plane waves. Without branch form, or
        once ``state`` has formed them, the amplitudes themselves: reading
        amplitudes that exist costs less than the QR. Read-only.
        """
        form = self.branches
        if form is None or "state" in vars(self):
            return self.matrix()
        if form.kicks is None:
            return form.spectrum
        return self.tucker[1].reshape(self.system.total, -1)

    def pointer_spec(self, label: str) -> PointerSpec:
        for spec in self.pointers:
            if spec.label == label:
                return spec
        raise KeyError(f"no pointer labeled {label!r}")

    def pointer_dims(self) -> DimensionSpec:
        return self.dims.subset([s.label for s in self.pointers])

    def tensor(self) -> np.ndarray:
        """Amplitudes as (system, pointer_1, ..., pointer_k)."""
        shape = (self.system.total,) + tuple(s.grid.points for s in self.pointers)
        return self.state.amplitudes.reshape(shape)

    def matrix(self) -> np.ndarray:
        """Amplitudes as (system, all pointers flattened)."""
        return self.state.amplitudes.reshape(self.system.total, -1)


def build_initial(system: StateVector, pointers: Sequence[PointerSpec]) -> UnifiedState:
    """Product of a system state and the pointers' Gaussian packets, cached per spec.

    The product is kept as the one-branch form, every pointer's one row its
    packet at kick 0, and its norm the factors' kept norms. No amplitudes
    are formed here: ``state`` forms them on first read.
    """
    specs = tuple(pointers)
    if not specs:
        raise ValueError("at least one pointer is required")
    # a packet that leaks out of its box is refused here
    packets = [_packet(spec) for spec in specs]
    form = _Branches(
        system.amplitudes.reshape((1,) * len(specs) + (-1,)),
        tuple(p.amplitudes[None] for p in packets),
        (np.zeros(1),) * len(specs),
        math.prod(f.norm for f in (system, *packets)),
    )
    return UnifiedState(
        pointers=specs,
        initial_system=system,
        _evolved=form,
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
    return 1 + state.pointers.index(state.pointer_spec(label))


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


def _translated_spectra(spec: PointerSpec, kicks: np.ndarray) -> np.ndarray:
    """The packet's cached spectrum translated by each of ``kicks``: times exp(-i k kick)."""
    k = spec.grid.wavenumbers()
    return _packet_spectrum(spec) * np.exp(-1j * np.multiply.outer(kicks, k))


def _row_spectra(state: UnifiedState, p: int) -> np.ndarray:
    """The 1-D spectra of pointer p's factor rows, from their kicks where the form keeps them."""
    form = state.branches
    if form.kicks is None:
        return np.fft.fft(form.factors[p])
    return _translated_spectra(state.pointers[p], form.kicks[p])


def _spectrum(state: UnifiedState) -> np.ndarray:
    """The amplitudes Fourier transformed over every pointer axis, as a new array.

    A state in branch form is transformed branch by branch: ``_branch_sum``
    of the core with each pointer's factor rows replaced by their spectra
    (``_row_spectra``), so kick rows run no transform at all. Any other
    state is transformed as it stands.
    """
    form = state.branches
    if form is None:
        return np.fft.fftn(state.tensor(), axes=range(1, 1 + len(state.pointers)))
    return _branch_sum(form.core, [_row_spectra(state, p) for p in range(len(form.factors))])


@lru_cache(maxsize=16)
def _window(spec: PointerSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The momenta holding all but WINDOW_TAIL_TOL of the packet's spectral mass, and the rest.

    The window is the fewest momenta, largest power first, whose
    complement holds at most WINDOW_TAIL_TOL of the mass; any row
    translated from the packet has the same power, so the same window.
    Returns the window's and the complement's indices, ascending, and the
    window's plane waves sqrt(N) ifft(e_k), one unit row per momentum, all
    read-only.
    """
    power = np.abs(_packet_spectrum(spec)) ** 2
    order = np.argsort(power, kind="stable")
    tail = np.cumsum(power[order])
    dropped = int(np.searchsorted(tail, WINDOW_TAIL_TOL * tail[-1], side="right"))
    inside, outside = np.sort(order[dropped:]), np.sort(order[:dropped])
    n = spec.grid.points
    units = np.zeros((len(inside), n))
    units[np.arange(len(inside)), inside] = 1.0
    waves = np.fft.ifft(units) * math.sqrt(n)
    for a in (inside, outside, waves):
        a.setflags(write=False)
    return inside, outside, waves


def _qr_each(mats: Sequence[np.ndarray], mode: str = "reduced") -> list:
    """``np.linalg.qr`` of each matrix, in one batched call where they share a shape."""
    if len({m.shape for m in mats}) > 1:
        return [np.linalg.qr(m, mode=mode) for m in mats]
    out = np.linalg.qr(np.stack(mats), mode=mode)
    return list(out) if mode == "r" else list(zip(*out))


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


def _quadratic_form(
    core: np.ndarray,
    factors: Sequence[np.ndarray],
    weights: Sequence[np.ndarray | None] | None = None,
) -> float:
    """<psi| (x)_p W_p |psi> for psi = ``_branch_sum(core, factors)``, W_p = diag(weights[p]).

    A weight None, or no weights, is the identity. The core is contracted
    with each pointer's matrix <f_b'|W_p|f_b>, F W_p F-dagger, in turn, as
    ``_branch_sum`` contracts it with the rows, then against the core: a
    few B x B products, exact, and NaN for NaN input.
    """
    t = core
    for p, f in enumerate(factors):
        w = None if weights is None else weights[p]
        # np.dot: the operands are a few B x B, where it dispatches faster than @
        m = np.dot(f if w is None else f * w, f.conj().T)
        t = np.dot(t.reshape(len(f), -1).T, m).reshape(t.shape[1:] + (len(f),))
    d = t.shape[0]
    # t is (d, B_1, ..., B_k) now; the form is real, so either side may be conjugated
    return float(np.vdot(t.reshape(d, -1), core.reshape(-1, d).T).real)


def _gram_norm(core: np.ndarray, factors: Sequence[np.ndarray]) -> float:
    """The norm of ``_branch_sum(core, factors)``, from the factor rows' Gram matrices."""
    return math.sqrt(abs(_quadratic_form(core, factors)))


def _evolve_commuting(
    state: UnifiedState, couplings: Sequence[Coupling], t: float
) -> _Branches | None:
    """A commuting phase on kick rows, as the new kick rows; None where it cannot keep them.

    Each coupling is a sum over its observable's eigenspaces
    (``Operator.eigenspaces``) of the projector onto one times the
    translation of its pointer by the impulse times that eigenvalue. The
    projectors sum to the identity, so this is exact, and the couplings
    commute, so the phase is the product of those sums. Each coupling
    therefore splits every branch's system vector by its projectors and
    each row of its pointer into one row per eigenspace, whose kick is the
    old row's plus the impulse times the eigenvalue. Rows of one pointer
    whose kicks are equal are one row, so their cores are summed, in the
    order the kicks first appear; kicks equal only in exact arithmetic stay
    apart, which adds rows with orthogonal cores and loses nothing. Each
    row is then the packet's cached spectrum translated by its kick, one
    batched inverse transform per pointer, and the form's norm is taken
    from the rows' Gram matrices (``_gram_norm``). None, for ``evolve`` to
    try the next route: a state without kick rows, or a pointer left with
    more rows than grid points.
    """
    form = state.branches
    if form is None or form.kicks is None:
        return None
    core, kicks, coupled = form.core, list(form.kicks), set()
    for c in couplings:
        p = _pointer_axis(state, c.pointer) - 1
        coupled.add(p)
        w, projectors = c.observable.eigenspaces
        # core[..., b, ..., :] -> core[..., (b, j), ..., :] = P_j core[..., b, ..., :]
        split = np.moveaxis(np.tensordot(core, projectors, axes=(-1, 2)), -2, p + 1)
        core = split.reshape(core.shape[:p] + (-1,) + core.shape[p + 1 :])
        kicks[p] = np.add.outer(kicks[p], c.impulse * w).reshape(-1)
    for p in coupled:
        slots: dict[float, int] = {}
        rows = [slots.setdefault(kick, len(slots)) for kick in kicks[p].tolist()]
        if len(slots) > state.pointers[p].grid.points:
            return None
        if len(slots) < len(rows):
            sums = np.zeros((len(slots), len(rows)))
            sums[rows, np.arange(len(rows))] = 1.0
            core = np.moveaxis(np.tensordot(sums, core, axes=(1, p)), 0, p)
            kicks[p] = np.array(list(slots))
    factors = list(form.factors)
    for p in coupled:
        moved = _translated_spectra(state.pointers[p], kicks[p])
        factors[p] = np.fft.ifft(moved, out=moved)
    return _Branches(core, tuple(factors), tuple(kicks), _gram_norm(core, factors))


# Grid points per tile of the qubit-block kernel. At 4096 points its largest
# temporaries, one complex and one stacked real tile, are 64 KiB each, below
# glibc's default 128 KiB mmap threshold, so they come from the heap and no
# call maps fresh pages.
TILE_POINTS = 4096


def _tiles(grid: tuple[int, ...]) -> list[tuple[int | slice, ...]]:
    """Indices covering ``grid`` in tiles of at most TILE_POINTS points, along its first axis.

    Each tile is a run of whole rows; where one row alone holds more than a
    tile, each row is tiled the same way along its own first axis.
    """
    rest = math.prod(grid[1:])
    if rest > TILE_POINTS:
        return [(i, *sub) for i in range(grid[0]) for sub in _tiles(grid[1:])]
    rows = TILE_POINTS // rest
    return [(slice(i, i + rows),) for i in range(0, grid[0], rows)]


def _qubit_blocks(
    ft: np.ndarray,
    state: UnifiedState,
    couplings: Sequence[Coupling],
    t: float,
    momenta: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """exp(-i t h(k)) on every momentum block, h(k) = sum_j g_j k_j A_j, in place.

    Axis p of ``ft`` after the system is pointer p at ``momenta[p]``, by
    default its whole grid's wavenumbers, in FFT order. A qubit's blocks
    are exponentiated in closed form; any other system dimension d by one
    batched ``eigh`` of the (d, d) blocks at those momenta.

    A qubit block is h(k) = c0 I + c . sigma with real c0, c, so
    exp(-i t h) = exp(-i t c0) [[a, b], [-b*, a*]] with a = cos(t|c|) - i s cz,
    b = -s (cy + i cx) and s = sin(t|c|)/|c|, which is t at |c| = 0. Every
    component is a sum of one 1-D profile per pointer axis (the couplings'
    strengths times the wavenumbers), so nothing spans the grid until a
    tile is formed. The grid is walked in tiles (``_tiles``). Per tile, the
    half angles t|c|/2 and t c0/2 share one buffer and one tangent,
    tau = tan(x/2), from which q = 1/(1 + tau^2) gives cos x = 2q - 1 and
    sin x = 2 tau q; no cosine or sine runs. Each coefficient is assembled
    in real arithmetic into one complex tile, in turn, and ``ft``, which the
    caller owns, is overwritten tile by tile and returned; one spare tile
    keeps the first row's input for the second. A component no observable
    carries stays the scalar 0; for c0 the factor exp(-i t c0), exactly 1,
    is then skipped.
    """
    d, grid = ft.shape[0], ft.shape[1:]
    # per coupling: its observable, pointer axis and g k along that axis
    terms = []
    for c in couplings:
        axis = _pointer_axis(state, c.pointer) - 1
        k = state.pointer_spec(c.pointer).grid.wavenumbers() if momenta is None else momenta[axis]
        along = [-1 if i == axis else 1 for i in range(len(grid))]
        terms.append((c.observable.matrix, axis, (c.strength * k).reshape(along)))
    if d != 2:
        h = np.zeros(grid + (d, d), dtype=complex)
        for a, _, gk in terms:
            h += gk[..., None, None] * a
        w, v = np.linalg.eigh(h)
        vec = np.swapaxes(v.conj(), -1, -2) @ np.moveaxis(ft, 0, -1)[..., None]
        vec *= np.exp(-1j * t * w)[..., None]
        ft[...] = np.moveaxis((v @ vec)[..., 0], -1, 0)
        return ft
    # per component c0, cx, cy, cz: pointer axis -> its 1-D profile
    profiles: list[dict[int, np.ndarray]] = [{}, {}, {}, {}]
    for a, axis, gk in terms:
        weights = (
            (a[0, 0] + a[1, 1]).real / 2,
            a[0, 1].real,
            -a[0, 1].imag,
            (a[0, 0] - a[1, 1]).real / 2,
        )
        for part, w in zip(profiles, weights):
            if w:
                part[axis] = part.get(axis, 0.0) + gk * w
    # each profile as a zero-stride view over the whole grid, sliced per tile
    spans = [[np.broadcast_to(v, grid) for v in part.values()] for part in profiles]
    for index in _tiles(grid):
        parts = [sum(v[index] for v in span) if span else 0.0 for span in spans]
        _qubit_tile(ft[(0, *index)], ft[(1, *index)], parts, t)
    return ft


def _qubit_tile(u0: np.ndarray, u1: np.ndarray, parts: list, t: float) -> None:
    """One tile of ``_qubit_blocks``: rows u0, u1 of ``ft`` and c0, cx, cy, cz there."""
    c0, cx, cy, cz = parts
    angles = 2 if isinstance(c0, np.ndarray) else 1
    # t|c|/2, and t c0/2 where c0 spans the tile; then tan, q, and sin and cos in place
    half = np.empty((angles, *u0.shape))
    norm = np.sqrt(cx * cx + cy * cy + cz * cz)
    np.multiply(norm, t / 2, out=half[0])
    if angles == 2:
        np.multiply(c0, t / 2, out=half[1])
    np.tan(half, out=half)
    cos = half * half
    cos += 1
    np.reciprocal(cos, out=cos)
    half *= cos
    half *= 2
    cos *= 2
    cos -= 1
    # s = sin(t |c|) / |c|, and t where |c| = 0
    s = half[0]
    np.divide(s, norm, out=s, where=norm != 0)
    np.copyto(s, t, where=norm == 0)
    first = u0.copy()
    coef = np.empty(u0.shape, dtype=complex)
    # a = cos - i s cz on u0, then b = -s cy - i s cx on u1, into row 0
    np.copyto(coef.real, cos[0])
    np.multiply(s, -cz, out=coef.imag)
    np.multiply(coef, u0, out=u0)
    np.multiply(s, -cy, out=coef.real)
    np.multiply(s, -cx, out=coef.imag)
    coef *= u1
    u0 += coef
    # a* on u1, then -b* = s cy - i s cx on the first row, into row 1
    np.copyto(coef.real, cos[0])
    np.multiply(s, cz, out=coef.imag)
    np.multiply(coef, u1, out=u1)
    np.multiply(s, cy, out=coef.real)
    np.multiply(s, -cx, out=coef.imag)
    coef *= first
    u1 += coef
    if angles == 2:
        # exp(-i t c0) = cos(t c0) - i sin(t c0)
        np.copyto(coef.real, cos[1])
        np.negative(half[1], out=coef.imag)
        u0 *= coef
        u1 *= coef


def _evolve_blocks(
    state: UnifiedState, couplings: Sequence[Coupling], t: float
) -> np.ndarray:
    """Exact exponential of the full generator, block by momentum block.

    In the pointer momentum representation the generator is diagonal over
    the momentum grid, leaving one small Hermitian system block per grid
    point: the state's spectrum (``_spectrum``), every block exponentiated
    in place (``_qubit_blocks``), and one inverse transform in place. Runs
    wherever ``_evolve_window`` cannot pay, and is exact for any couplings.
    """
    ft = _qubit_blocks(_spectrum(state), state, couplings, t)
    return np.fft.ifftn(ft, axes=tuple(range(1, ft.ndim)), out=ft)


def _cross_blocks(
    state: UnifiedState, core: np.ndarray, spectra: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """A two-pointer branch form's spectrum on the cross region R, as two new blocks.

    ``spectra`` are its rows' 1-D spectra, (B_p, N_p) per pointer. With
    W_p pointer p's ``_window``, the first block is every momentum of A by
    W_B, (d, N_A, |W_B|), and the second W_A by the momenta of B off W_B,
    (d, |W_A|, N_B - |W_B|); together they are R = (all x W_B) +
    (W_A x outside W_B). Each is one ``_branch_sum`` of the rows' spectra
    restricted to its momenta.
    """
    (in_a, _, _), (in_b, out_b, _) = map(_window, state.pointers)
    fa, fb = spectra
    return _branch_sum(core, [fa, fb[:, in_b]]), _branch_sum(core, [fa[:, in_a], fb[:, out_b]])


def _off_window_norm(state: UnifiedState, core: np.ndarray, spectra: Sequence[np.ndarray]) -> float:
    """The norm of a two-pointer branch form off its cross region, outside W_A x outside W_B.

    Exact, from the Gram matrices of its rows' spectra restricted there,
    which Parseval scales by 1 / (N_A N_B).
    """
    (_, out_a, _), (_, out_b, _) = map(_window, state.pointers)
    scale = math.prod(spec.grid.points for spec in state.pointers)
    return _gram_norm(core, [spectra[0][:, out_a], spectra[1][:, out_b]]) / math.sqrt(scale)


def _evolve_window(
    state: UnifiedState, couplings: Sequence[Coupling], t: float
) -> _Branches | None:
    """A phase on two pointers in branch form, as a window form; None where it cannot pay.

    Every momentum block is unitary, so the phase keeps the norm of the
    state on any set of momenta. ``_qubit_blocks`` runs on the cross
    region R only (``_cross_blocks``), for any system dimension d, and the
    part off R, whose norm delta is exact (``_off_window_norm``), is
    dropped: the result is the exact state to within delta, which ``tail``
    accumulates and ``evolve`` adds to its norm check. The form is built
    from R's two blocks (``_Branches``): for each system row s, pointer A's
    columns u_sb at the momenta b of W_B, each times B's plane wave, and
    B's rows y_sa at the momenta a of W_A, each after A's plane wave; the u
    and y rows are each one batched inverse 1-D transform, and the plane
    waves are the windows' own. No readout-grid array is written.

    None, for ``evolve`` to run ``_evolve_blocks`` instead: a state
    without branch form or not on two pointers; grids of one kernel tile
    or less (N_A N_B <= TILE_POINTS), where the whole grid costs no more;
    rows that would outnumber a pointer's grid points, d |W_B| + |W_A| of
    A or d |W_A| + |W_B| of B; or delta above WINDOW_TAIL_TOL of the norm.
    """
    form = state.branches
    if form is None or len(state.pointers) != 2:
        return None
    sizes = tuple(spec.grid.points for spec in state.pointers)
    if math.prod(sizes) <= TILE_POINTS:
        return None
    (in_a, _, _), (in_b, out_b, _) = map(_window, state.pointers)
    n_a, n_b, d = len(in_a), len(in_b), state.system.total
    if n_a + d * n_b > sizes[0] or n_b + d * n_a > sizes[1]:
        return None
    spectra = [_row_spectra(state, p) for p in (0, 1)]
    dropped = _off_window_norm(state, form.core, spectra)
    if not dropped <= WINDOW_TAIL_TOL * form.norm:
        return None
    left, right = _cross_blocks(state, form.core, spectra)
    k_a, k_b = (spec.grid.wavenumbers() for spec in state.pointers)
    _qubit_blocks(left, state, couplings, t, (k_a, k_b[in_b]))
    _qubit_blocks(right, state, couplings, t, (k_a[in_a], k_b[out_b]))
    # coefficients on R's unit plane-wave products, and the rows they make
    scale = 1 / math.sqrt(math.prod(sizes))
    spectrum = np.concatenate([left.reshape(d, -1), right.reshape(d, -1)], axis=1)
    spectrum *= scale
    u = np.fft.ifft(left.transpose(0, 2, 1).reshape(d * n_b, sizes[0]))
    u *= scale * math.sqrt(sizes[0])
    y = np.zeros((d, n_a, sizes[1]), dtype=complex)
    y[:, :, out_b] = right
    y = np.fft.ifft(y).reshape(d * n_a, sizes[1])
    y *= scale * math.sqrt(sizes[1])
    return _window_form(state, u, y, spectrum, form.tail + dropped)


def _window_form(
    state: UnifiedState, u: np.ndarray, y: np.ndarray, spectrum: np.ndarray, tail: float
) -> _Branches:
    """The window form over ``state``'s pointers of rows u and y, coefficients ``spectrum``.

    ``spectrum`` is (d, |R|), u is (d |W_B|, N_A), row s |W_B| + b the
    column u_sb, and y is (d |W_A|, N_B), row s |W_A| + a the row y_sa
    (``_Branches``). The core is 0/1: A's row s n_b + b is paired with B's
    plane wave b, and A's plane wave a, row d n_b + a, with B's row
    n_b + s n_a + a. The norm is read off ``spectrum``, made read-only.
    """
    (_, _, waves_a), (_, _, waves_b) = map(_window, state.pointers)
    n_a, n_b, d = len(waves_a), len(waves_b), len(spectrum)
    core = np.zeros((d * n_b + n_a, n_b + d * n_a, d))
    b, a = np.arange(n_b), np.arange(n_a)
    for s in range(d):
        core[s * n_b + b, b, s] = 1.0
        core[d * n_b + a, n_b + s * n_a + a, s] = 1.0
    factors = (np.concatenate([u, waves_a]), np.concatenate([waves_b, y]))
    spectrum.setflags(write=False)
    return _Branches(core, factors, None, float(np.linalg.norm(spectrum)), tail, spectrum)


def _branch_distance(
    state: UnifiedState, core: np.ndarray, factors: Sequence[np.ndarray]
) -> float:
    """||_branch_sum(core, factors) - state||, for a branch form over the state's pointers.

    A window form is compared by Parseval on the momenta: on the cross
    region, the branch form's coefficients (``_cross_blocks`` of its rows'
    spectra) less the form's ``spectrum``; off it, where the window form is
    zero, the branch form's own norm (``_off_window_norm``). It is off the
    exact state by at most its ``tail``. Any other state is compared on its
    amplitudes: one readout-size array is written and the state subtracted
    from it in place.
    """
    form = state.branches
    if form is None or form.kicks is not None:
        gap = _branch_sum(core, factors).reshape(-1)
        gap -= state.state.amplitudes
        return float(np.linalg.norm(gap))
    spectra = [np.fft.fft(rows) for rows in factors]
    d = state.system.total
    on = np.concatenate([block.reshape(d, -1) for block in _cross_blocks(state, core, spectra)], 1)
    on /= math.sqrt(math.prod(spec.grid.points for spec in state.pointers))
    on -= form.spectrum
    return math.hypot(float(np.linalg.norm(on)), _off_window_norm(state, core, spectra))


def _dense_action(
    state: UnifiedState, couplings: Sequence[Coupling]
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """v -> H v for H = sum_j g_j kron(A_j, ..., pi_j, ...), and a bound on ||H||_2.

    H is applied one factor at a time and never formed. The momentum is
    pi = -i D + (k_N / N) s s^T (``pointer.momentum_operator``), with D the
    grid's real ``differentiation_matrix``, k_N the Nyquist wavenumber and
    s_n = (-1)^n. Per coupling, D goes on the real view of the pointer
    factor that the state's layout names, one real matrix product; i k_N / N
    s (s^T v) is added in place; and -i g A, the -i of pi folded into g A,
    goes on the leading system factors. No complex N x N matrix and no FFT
    is involved. The spectral norm of a kron product is the product of its
    factors' spectral norms, so the bound sum_j |g_j| ||A_j||_2 ||pi_j||_2
    is exact for one coupling and bounds ||H||_2 by the triangle inequality
    for several. ||A||_2 is the largest |eigenvalue| of the observable's
    cached spectrum and ||pi||_2 the largest |k| of the grid's cached
    wavenumbers, so no eigensolve runs.

    The products go into buffers owned by this one call, so concurrent
    evolutions share nothing; each call of the returned function overwrites
    and returns the same output buffer, which must not be passed back in.
    """
    dims = state.dims
    terms = []
    bound = 0.0
    for c in couplings:
        spec = state.pointer_spec(c.pointer)
        n = spec.grid.points
        k = spec.grid.wavenumbers()
        pre = math.prod(dims.sizes[: dims.axis(c.pointer)])
        layout = (pre, n, dims.total // (pre * n))
        nyquist = (1j * k[n // 2] / n) * (-1.0) ** np.arange(n)  # i k_N / N s
        projection = np.empty((pre, 1, layout[2]), dtype=complex)
        ga = -1j * c.strength * c.observable.matrix
        terms.append((layout, differentiation_matrix(spec.grid), nyquist, projection, ga))
        bound += abs(c.strength) * max_abs(c.observable.spectrum[0]) * max_abs(k)
    moved, scaled, out = (np.empty(dims.total, dtype=complex) for _ in range(3))

    def apply_h(v: np.ndarray) -> np.ndarray:
        for i, (layout, d, nyquist, projection, ga) in enumerate(terms):
            v3, m3 = v.reshape(layout), moved.reshape(layout)
            np.matmul(d, v3.view(float), out=m3.view(float))
            np.matmul(nyquist, v3, out=projection[:, 0])
            m3[:, ::2] += projection
            m3[:, 1::2] -= projection
            rows = (ga.shape[0], -1)
            np.matmul(ga, moved.reshape(rows), out=(scaled if i else out).reshape(rows))
            if i:
                np.add(out, scaled, out=out)
        return out

    return apply_h, bound


def _evolve_dense(
    state: UnifiedState, couplings: Sequence[Coupling], t: float
) -> np.ndarray:
    dim = state.dims.total
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
    records the phase in its history. The shift method is dispatched here
    and only here, to the first route that takes the phase: a commuting
    phase on kick rows (``_evolve_commuting``) returns kick rows, whose
    norm is checked from their Gram matrices; a phase on two pointers in
    branch form that ``_evolve_window`` takes returns a window form,
    whose norm is checked from its coefficients together with the part
    delta it drops, hypot(norm, delta) against the input's; their
    amplitudes are formed only when read. Any other phase runs on the
    momentum blocks (``_evolve_blocks``) and returns the amplitudes.
    """
    cs, t = _validate_couplings(state, couplings)
    bounds = _updated_bounds(state, cs)
    if method == "expm":
        result = _evolve_dense(state, cs, t)
    elif method == "shift":
        result = _evolve_commuting(state, cs, t) if _couplings_commute(cs) else None
        if result is None:
            result = _evolve_window(state, cs, t)
        if result is None:
            result = _evolve_blocks(state, cs, t)
    else:
        raise ValueError(f"unknown evolution method {method!r}")
    if isinstance(result, _Branches):
        # a window form drops a part of exact norm: this phase's share of its tail
        norm, dropped = result.norm, result.tail - state.branches.tail
    else:
        # read-only down to its base, so a reduced state built on it keeps a view, not a copy
        result.setflags(write=False)
        norm, dropped = float(np.linalg.norm(result.reshape(-1))), 0.0
    if not abs(math.hypot(norm, dropped) - state.norm) <= NORM_TOL:
        raise ValueError(f"evolution failed to preserve the norm: {norm!r}")
    if isinstance(result, _Branches):
        evolved = result
    else:
        evolved = StateVector._owning(
            state.dims, result, normalized=state.initial_system.normalized, norm=norm
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


def _series_branches(
    state: UnifiedState, couplings: Sequence[Coupling], order: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The series psi, T_1, ..., T_order of ``partial_sums`` in branch form: cores, factors.

    Each g A pi of H acts on the system factor and one packet, so T_m is a
    sum over how its m kicks fall on the pointers. For each way, the system
    vector gathers every ordered product of the g A with those kicks,
    applied to the system amplitudes, times -i t / j at step j, and pointer
    i contributes its packet kicked n_i times. So every term is a branch
    form over the kick patterns (n_1, ..., n_k), n_i <= order: all cores
    are (order + 1, ..., order + 1, d), core m zero off the patterns of m
    kicks (core 0 is psi's, the system amplitudes at no kick), and all share
    the factors, pointer i's packet kicked 0, ..., order times
    (``_kicked_packets``). Any combination sum_m w_m T_m, a partial sum at
    any impulse scale included, is then one ``_branch_sum`` of the combined
    core. Only the packets' 1-D transforms run, once per spec and kick count.
    """
    if order not in (1, 2):
        raise ValueError(f"perturbative order must be 1 or 2, got {order}")
    if state.history:
        raise ValueError("the perturbative series expands only a state with no history")
    cs, t = _validate_couplings(state, couplings)
    index = {spec.label: i for i, spec in enumerate(state.pointers)}
    shape = (order + 1,) * len(index) + (state.system.total,)
    layer = {(0,) * len(index): state.initial_system.amplitudes}
    cores = []
    for m in range(order + 1):
        if m:
            grown: dict[tuple[int, ...], np.ndarray] = {}
            for kicks, vector in layer.items():
                for c in cs:
                    key = list(kicks)
                    key[index[c.pointer]] += 1
                    key = tuple(key)
                    mapped = (-1j * t / m * c.strength) * (c.observable.matrix @ vector)
                    grown[key] = grown.get(key, 0) + mapped
            layer = grown
        core = np.zeros(shape, dtype=complex)
        for kicks, vector in layer.items():
            core[kicks] = vector
        cores.append(core)
    return cores, [_kicked_packets(spec, order) for spec in state.pointers]


def partial_sums(
    state: UnifiedState, couplings: Sequence[Coupling], order: int
) -> list[np.ndarray]:
    """The series terms T_m = (-i t H)^m psi / m! for m = 1..order, on a product state.

    The order-n partial sum is psi + sum_{m<=n} T_m. Scaling every strength
    by s scales T_m by s^m, so one pass serves every impulse scale: the
    partial sums at scale s are psi + sum_{m<=n} s^m T_m, and at s = 1/2
    that rescaling is exact in binary. ``state`` must have no history: it
    is the product ``build_initial`` made, and an evolved state is refused.
    The terms are built in branch form by ``_series_branches``, which a
    caller that needs only a combination of them uses directly; here each
    term is written out by one ``_branch_sum``, with no FFT over the state.
    """
    cores, factors = _series_branches(state, couplings, order)
    return [_branch_sum(core, factors).reshape(-1) for core in cores[1:]]


def system_schmidt(state: UnifiedState) -> tuple[np.ndarray, int]:
    """Schmidt coefficients across system | pointers, descending, and the rank.

    The basis of ``columns`` is orthonormal, so the coefficients are its
    singular values, padded with zeros to the count the full amplitudes
    would give.
    """
    d = state.system.total
    return schmidt_values(state.columns, min(d, state.dims.total // d))


def pointer_expectation(state: UnifiedState, weights: dict[str, np.ndarray]) -> float:
    """<psi| (x)_p diag(w_p) |psi>, with w_p a weight per grid site of pointer p.

    Pointers without weights take the identity. A branch form is read
    through its rows, its amplitudes untouched: kick rows by
    ``_quadratic_form``, window rows by ``_window_expectation``. Amplitudes
    that exist are read as they are. Position moments take w = x; a
    probability and mean conditioned on a region of one pointer take its
    indicator. On an unnormalized state the quadratic form is returned as
    is, not divided by the norm. Either way a label that names no pointer
    raises KeyError, and a weight not of its grid's length ValueError.
    """
    for label, w in weights.items():
        want = (state.pointer_spec(label).grid.points,)
        if np.shape(w) != want:
            raise ValueError(f"pointer {label!r}: weight of shape {np.shape(w)}, expected {want}")
    form = state.branches
    if form is not None and "state" not in vars(state):
        per_pointer = [weights.get(spec.label) for spec in state.pointers]
        if form.kicks is None:
            return _window_expectation(state, *per_pointer)
        return _quadratic_form(form.core, form.factors, per_pointer)
    amplitudes = state.tensor()
    diagonal = 1.0
    for label, w in weights.items():
        shape = [1] * amplitudes.ndim
        shape[_pointer_axis(state, label)] = -1
        diagonal = diagonal * w.reshape(shape)
    # |psi|^2 once, in real arithmetic, against the weights
    density = np.abs(amplitudes)
    density *= density
    axes = list(range(amplitudes.ndim))
    return float(np.einsum(density, axes, np.broadcast_to(diagonal, density.shape), axes, []))


def _window_expectation(
    state: UnifiedState, w_a: np.ndarray | None, w_b: np.ndarray | None
) -> float:
    """<phi| diag(w_a) (x) diag(w_b) |phi> of a window form, a weight None the identity.

    Per system row s the form is L_s + R_s, L_s = sum_b u_sb (x) p_b and
    R_s = sum_a p_a (x) y_sa (``_Branches``), so the form is <L|W|L> +
    <R|W|R> + 2 Re <L|W|R>, each from W's matrices between rows of one
    kind, window by window, instead of between all rows. Where a weight is
    the identity the plane waves are orthonormal, so <L|W|L> or <R|W|R> is
    a weighted sum of the rows' squared moduli; and without B's weight
    <L|W|R> is 0, every y_sa being orthogonal to every p_b.
    """
    (in_a, _, p_a), (in_b, _, p_b) = map(_window, state.pointers)
    rows_a, rows_b = state.branches.factors
    d = state.system.total
    u = rows_a[: d * len(in_b)].reshape(d, len(in_b), -1)
    y = rows_b[len(in_b) :].reshape(d, len(in_a), -1)

    def between(f: np.ndarray, w: np.ndarray | None, g: np.ndarray) -> np.ndarray:
        """<f_i| diag(w) |g_j>, batched over leading axes."""
        return f.conj() @ np.swapaxes(g if w is None else g * w, -1, -2)

    def paired(f: np.ndarray, w_f: np.ndarray | None, g: np.ndarray, w_g: np.ndarray | None):
        """sum_s sum_ij <f_si|W_f|f_sj> <g_i|W_g|g_j>, by the squared moduli where W_g is 1."""
        if w_g is None:
            density = np.einsum("sin,sin->n", f.conj(), f).real
            return float(density.sum() if w_f is None else density @ w_f)
        return float(np.sum(between(f, w_f, f) * between(g, w_g, g)).real)

    total = paired(u, w_a, p_b, w_b) + paired(y, w_b, p_a, w_a)
    if w_b is not None:
        total += 2.0 * float(np.sum(between(u, w_a, p_a) * between(p_b, w_b, y)).real)
    return total


def pointer_mean(state: UnifiedState, label: str) -> float:
    """Raw first position moment <psi| x |psi> of one pointer.

    Equal to the mean position for normalized states; on an unnormalized
    state the quadratic form is returned as is, not divided by the norm.
    """
    return pointer_expectation(state, {label: state.pointer_spec(label).grid.positions()})


def pointer_cross_mean(state: UnifiedState, label_a: str, label_b: str) -> float:
    """Raw correlator <psi| x_a x_b |psi> of two distinct pointers."""
    if label_a == label_b:
        raise ValueError("cross moment needs two distinct pointers")
    return pointer_expectation(
        state, {lab: state.pointer_spec(lab).grid.positions() for lab in (label_a, label_b)}
    )


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


def postselect(state: UnifiedState, final: StateVector) -> UnifiedState:
    """The state conditioned on finding the system in ``final``: <final| (x) 1 on it.

    The result is unnormalized, on a one-dimensional system, its squared
    ``norm`` the probability, in its input's representation, each the
    contraction of its system axis with f* = conj(final):

    * kick rows: the core with f*, the rows kept;
    * window rows: u'_b = sum_s f*_s u_sb, y'_a = sum_s f*_s y_sa and
      f* ``spectrum``, one window form with d = 1 (``_window_form``), and
      ``tail`` kept, a bound still, as <final| has norm 1;
    * amplitudes: f* times the (system, rest) matrix.

    Its ``initial_system`` is <final|initial>, and it keeps the history.
    Every pointer reader reads it; a probability below
    MIN_POSTSELECT_PROBABILITY is refused.
    """
    if final.dims != state.system:
        raise ValueError("post-selection state must live on the system factors")
    f = final.amplitudes.conj()
    system = StateVector(
        DimensionSpec.of(("system", 1)), [f @ state.initial_system.amplitudes], normalized=False
    )
    form = state.branches
    if form is None:
        dims = product_dims(system.dims, state.pointer_dims())
        selected = StateVector._owning(dims, f @ state.matrix(), normalized=False)
    elif form.kicks is not None:
        core = np.tensordot(form.core, f, axes=(-1, 0))[..., None]
        selected = _Branches(core, form.factors, form.kicks, _gram_norm(core, form.factors))
    else:
        (in_a, _, _), (in_b, _, _) = map(_window, state.pointers)
        rows_a, rows_b = form.factors
        n_a, n_b, d = len(in_a), len(in_b), len(f)
        u, y = (f @ rows.reshape(d, -1) for rows in (rows_a[: d * n_b], rows_b[n_b:]))
        u, y = u.reshape(n_b, -1), y.reshape(n_a, -1)
        selected = _window_form(state, u, y, (f @ form.spectrum)[None], form.tail)
    out = replace(state, initial_system=system, _evolved=selected)
    probability = out.norm**2
    if probability < MIN_POSTSELECT_PROBABILITY:
        raise OrthogonalPostselection(
            f"post-selection probability {probability:.3e} is numerically zero"
        )
    return out


def _system_gram(state: UnifiedState) -> np.ndarray:
    """C C-dagger for C = ``columns``: the system's reduced state, d x d."""
    c = state.columns
    return c @ c.conj().T


def system_purity(state: UnifiedState) -> float:
    """tr rho^2 of the system's reduced state: sum_ij |g_ij|^2, g = C C-dagger."""
    g = _system_gram(state)
    return float(np.vdot(g, g).real)


def system_expectation(state: UnifiedState, observable: Operator) -> float:
    """tr(A rho_system) of a system observable A, as tr(A g) with g = C C-dagger.

    On an unnormalized state the trace is returned as is, not divided by
    the norm; a value that is not a finite real number is refused.
    """
    value = complex(np.trace(observable.matrix @ _system_gram(state)))
    if not (abs(value.imag) <= EXPECTATION_IMAG_TOL and math.isfinite(value.real)):
        raise ValueError(f"expectation is not a finite real number: {value!r}")
    return float(value.real)
