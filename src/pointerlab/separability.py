"""Separability analysis of the reduced apparatus state.

After the interaction the pointers alone carry the record of the
measurement. Whether that record can be read dial-by-dial comes down to
whether the reduced apparatus density matrix is separable across the
pointers. Two complementary tools live here:

* constructive certificates: explicit convex decompositions into product
  states. One rule reads them off the state's branch form, sum_b c_b (x)
  f_{b_1} (x) g_{b_2} (x) ..., whatever history made it (``engine``, which
  keeps one row per distinct kick): the apparatus state is sum_{b, b'}
  <c_b'|c_b> |F_b><F_b'|, F_b the product of b's rows. Where the Gram matrix of the
  cores is diagonal it is a mixture of the products F_b; where, for two
  pointers, it has no entry between different rows of one pointer, it is
  sum_i |f_i><f_i| (x) rho_i, each rho_i a few-branch mixture split into
  pure states by one small ``eigh``. A separate first-order product
  certificate serves the truncated expansion;
* the partial-transpose criterion (Peres, PRL 77, 1413 (1996); Horodecki,
  Horodecki and Horodecki, PLA 223, 1 (1996)), whose negative eigenvalues
  witness entanglement when no decomposition exists.

Certificates are never taken on faith: each one is compared against the
actual reduced state in the record's bases, the orthonormal bases Q_p of
the pointers' rows in which the state is a small Tucker core
(``UnifiedState.tucker``), with each certificate factor's exact
coordinates in a basis that extends them, its part off the record's span
included. The rule reads the Gram matrix of the branch cores, which the
engine builds from spectral projectors and kick values alone, so no grid
enters it, and a verdict is decided once, on the state given. A state
without kick rows, as one evolved by ``"expm"`` or a window form left by a
noncommuting phase, gets no certificate.
``SeparableDecomposition.validate`` compares any certificate with any
``DensityMatrix`` through its columns; each term's column is an outer
product of its factors.

The witness reads the record too: the apparatus columns, rho = sum_k
vec(Psi_k) vec(Psi_k)-dagger with Psi_k the apparatus block of system row
k, in the orthonormal bases of ``UnifiedState.tucker`` for any branch
form, kick rows or window rows, and on the grid for a state without one.
The record sits in the full space through a product isometry, so its
partial transpose has the same nonzero spectrum. Each Psi_k is further
compressed onto the Schmidt supports of the two sides of the cut, which
have dimension r_A and r_B, and an (r_A * r_B)-dimension partial transpose
is eigensolved. Weyl's inequality bounds the error by the Frobenius norm
of what the compression drops, plus, for a window form
(``engine._evolve_window``), what that form drops, its ``tail``; a bound
above SUPPORT_BOUND_TOL raises instead of answering.
The witness has this one door: every caller, the scenarios' probes
included, reads ``readability_check(...).ppt_min``.

``readability_check`` forms no N x N apparatus matrix, and for a state in
branch form no array of the grid's size, so a verdict has no size limit
of its own; ``engine.DENSE_LIMIT`` bounds only the dense integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Literal, NamedTuple, Sequence

import numpy as np

from . import engine
from .engine import Coupling, UnifiedState
from .pointer import PointerSpec
from .tensors import (
    Cut,
    DensityMatrix,
    DimensionSpec,
    StateVector,
    _check_columns,
    cut_sides,
    factored_distance,
    half_trace_norm,
)

# Partial-transpose spectrum below this is reported as entanglement.
ENTANGLEMENT_THRESHOLD = -1e-6
# Largest trace distance, or first-order defect, at which a certificate holds.
CERTIFICATE_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-10
WEIGHT_PRUNE = 1e-14
# The compressed partial-transpose witness drops support directions whose
# singular value is below SUPPORT_CUTOFF of the largest, and refuses to
# answer when its Weyl bound on the error exceeds SUPPORT_BOUND_TOL, four
# orders below |ENTANGLEMENT_THRESHOLD|.
SUPPORT_CUTOFF = 1e-13
SUPPORT_BOUND_TOL = 1e-10
# The certificate rule counts a core Gram entry as zero when its modulus is
# at most BRANCH_TOL times the trace. A choice: such entries stand at
# roundoff, near 1e-16, wherever the branches are orthogonal, and a
# certificate is validated against the state anyway, so the constant only
# decides which route is tried.
BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class ProductTerm:
    """One weighted product state in a separable decomposition."""

    weight: float
    factors: dict[str, StateVector]

    def __post_init__(self) -> None:
        if not self.weight >= 0:
            raise ValueError(f"term weight must be nonnegative, got {self.weight}")
        if not self.factors:
            raise ValueError("term must carry at least one factor")


@dataclass(frozen=True)
class SeparableDecomposition:
    """Convex combination of product states over labeled factors.

    Weights must sum to one. Factors are usually normalized pure states;
    the first-order certificate stores deliberately unnormalized polynomial
    factors and says so in its ``kind``.
    """

    terms: tuple[ProductTerm, ...]
    kind: str = "exact"

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("decomposition needs at least one term")
        labels = set(self.terms[0].factors)
        for term in self.terms:
            if set(term.factors) != labels:
                raise ValueError("all terms must carry the same factor labels")
        total = sum(t.weight for t in self.terms)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(t.weight for t in self.terms)

    def _columns(self, dims: DimensionSpec) -> np.ndarray:
        """One column per term: the outer product of its factors in ``dims`` order."""
        columns = [
            reduce(np.multiply.outer, [term.factors[label].amplitudes for label in dims.labels])
            for term in self.terms
        ]
        return np.stack(columns, axis=-1).reshape(dims.total, len(columns))

    def validate(self, target: DensityMatrix) -> float:
        """Trace distance between the mixture the decomposition claims and the target state.

        The target is compared through its columns: the mixture's trace and
        spectrum floor are checked on its Gram matrix, and the distance comes
        from the stacked columns of both, so no N x N matrix is formed.
        """
        columns = self._columns(target.dims) * np.sqrt(self.weights)
        return factored_distance(columns, target)


Status = Literal["separable", "entangled", "inconclusive"]


@dataclass(frozen=True)
class SeparabilityVerdict:
    status: Status
    cut: Cut
    ppt_min: float | None = None
    certificate: SeparableDecomposition | None = None
    certificate_error: float | None = None
    method: str = "ppt"
    notes: tuple[str, ...] = ()


def _witness(
    columns: np.ndarray, layout: DimensionSpec, full: int, cut: Cut, tail: float
) -> float:
    """The partial-transpose minimum of U U-dagger, U = ``columns`` laid out as ``layout``.

    The columns are a state in orthonormal bases of its pointers, which
    sits in the pointers' space, of dimension ``full``, through a product
    isometry: its partial transpose has the same nonzero spectrum, and
    zeros besides when ``layout`` is smaller. ``_support_ppt_min``
    compresses it onto its Schmidt support and bounds the error. For a
    state read off a form that drops a part of norm ``tail``, with
    psi = phi + e, ||e|| <= tail and ||phi|| <= 1, the reduced states differ
    by at most (2 + tail) tail in trace norm, which bounds the Frobenius
    norm of the partial transposes' difference, so Weyl's inequality adds
    it to the bound. A bound above SUPPORT_BOUND_TOL raises.
    """
    order, dl, dr = _cut_layout(layout, cut)
    low, bound = _support_ppt_min(columns, layout.sizes, order, dl, dr)
    if dl * dr < full:
        low = min(low, 0.0)
    bound += (2.0 + tail) * tail
    if not bound <= SUPPORT_BOUND_TOL:
        raise ValueError(
            f"compressed partial transpose is off by up to {bound:.3e}, "
            f"above {SUPPORT_BOUND_TOL:.0e}; no verdict"
        )
    return low


def _cut_layout(dims: DimensionSpec, cut: Cut) -> tuple[list[int], int, int]:
    """The axes of ``dims`` in cut order, and the dimensions of the cut's two sides."""
    left, right = cut_sides(dims, cut)
    order = [dims.axis(lab) for lab in left + right]
    dl = math.prod(dims.dim(lab) for lab in left)
    dr = math.prod(dims.dim(lab) for lab in right)
    return order, dl, dr


def _support_ppt_min(
    columns: np.ndarray, sizes: tuple[int, ...], order: list[int], dl: int, dr: int
) -> tuple[float, float]:
    """Partial-transpose minimum of U U-dagger on its Schmidt support, and its bound.

    Column k of U, as a dl x dr block Psi_k with the cut's left side down,
    is compressed to C_k = U_A-dagger Psi_k V_B, with U_A spanning the Psi_k
    side by side and V_B the Psi_k stacked vertically (singular values
    above SUPPORT_CUTOFF of the largest). The compressed state sits in the
    full one through the isometry U_A (x) conj(V_B), so its partial
    transpose has the same nonzero spectrum; the rest is zeros when
    r_A * r_B < dl * dr. By Weyl's inequality the minimum moves by at most
    ||rho - rho~||_F, computed from the discarded part
    D = Psi - U_A C V_B-dagger: with rho~ = U~ U~-dagger and D orthogonal to
    the support, ||rho - rho~||_F^2 = 2 ||U~ D-dagger||_F^2 +
    ||D D-dagger||_F^2, both from r x r Gram matrices.
    """
    r = columns.shape[1]
    axes = [0] + [1 + i for i in order]
    psi = columns.T.reshape((r,) + sizes).transpose(axes).reshape(r, dl, dr)
    u, s, _ = np.linalg.svd(psi.transpose(1, 0, 2).reshape(dl, r * dr), full_matrices=False)
    ua = u[:, s > SUPPORT_CUTOFF * s[0]]
    _, s, vh = np.linalg.svd(psi.reshape(r * dl, dr), full_matrices=False)
    vb = vh[s > SUPPORT_CUTOFF * s[0]].conj().T
    c = ua.conj().T @ psi @ vb
    ra, rb = c.shape[1:]
    kept = c.reshape(r, ra * rb)
    rho_c = kept.T @ kept.conj()
    pt = rho_c.reshape(ra, rb, ra, rb).transpose(0, 3, 2, 1).reshape(ra * rb, ra * rb)
    low = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2).min())
    if ra * rb < dl * dr:
        low = min(low, 0.0)
    discarded = (psi - ua @ c @ vb.conj().T).reshape(r, dl * dr)
    gram_kept = kept.conj() @ kept.T
    gram_discarded = discarded.conj() @ discarded.T
    cross = float(np.sum(gram_kept * gram_discarded.T).real)
    bound = math.sqrt(max(2.0 * cross, 0.0) + float(np.sum(np.abs(gram_discarded) ** 2)))
    return low, bound


def _record(state: UnifiedState) -> tuple[np.ndarray, DimensionSpec]:
    """The apparatus columns in orthonormal bases of the pointers, and their layout.

    One column per system row. A state in branch form is read off the core
    of ``UnifiedState.tucker``, (B_1 * ... * B_k, d) laid out as the bases'
    ranks B_p; any other state off its amplitudes, laid out as the
    pointers' grids. Both are checked as a ``DensityMatrix`` checks its
    columns.
    """
    if state.tucker is None:
        columns, layout = state.matrix().T, state.pointer_dims()
    else:
        bases, core = state.tucker
        columns = core.reshape(len(core), -1).T
        layout = DimensionSpec(
            tuple((s.label, q.shape[1]) for s, q in zip(state.pointers, bases))
        )
    _check_columns(columns)
    return columns, layout


def _first_order_factor(spec: PointerSpec, shift: float) -> StateVector:
    """Gaussian displaced to first order: (1 - i * shift * momentum) psi.

    psi and momentum times psi are the engine's cached packet and kicked packet.
    """
    psi = engine._packet(spec).amplitudes
    kicked = engine._kicked_packet(spec, 1)
    return StateVector._owning(spec.dims(), psi - 1j * shift * kicked, normalized=False)


def first_order_product_certificate(
    initial: StateVector,
    specs: Sequence[PointerSpec],
    coupling_a: Coupling,
    coupling_b: Coupling,
) -> tuple[SeparableDecomposition, float]:
    """Product state matching the truncated reduced state at first order.

    The candidate is a single product of Gaussians displaced (to first
    order) by impulse times the initial expectation of each observable. The
    returned defect is half the trace norm of the gap between the linear
    coefficients, in a common scaling s of the two couplings, of the
    candidate and of the actual truncated reduced state. With rows
    m_k(s) = m0_k + s m1_k of the truncated amplitudes and
    chi(s) = chi0 + s chi1 + O(s^2) the candidate, the gap is
    sum_k (m0_k m1_k-dagger + m1_k m0_k-dagger) minus
    chi0 chi1-dagger + chi1 chi0-dagger, of rank at most 2r + 2; it is taken
    from signed columns without forming an N x N matrix, so the defect is
    roundoff-limited rather than small-coupling-limited.
    """
    if coupling_a.pointer == coupling_b.pointer:
        raise ValueError("the two couplings must address distinct pointers")
    couplings = [coupling_a, coupling_b]
    amps = initial.amplitudes
    shifts = {
        c.pointer: c.impulse * float((amps.conj() @ (c.observable.matrix @ amps)).real)
        for c in couplings
    }
    factors = {
        spec.label: _first_order_factor(spec, shifts.get(spec.label, 0.0)) for spec in specs
    }
    chi0 = np.ones(1, dtype=complex)
    chi1 = np.zeros(1, dtype=complex)
    for spec in specs:
        psi = engine._packet(spec).amplitudes
        delta = factors[spec.label].amplitudes - psi
        chi1 = (np.multiply.outer(chi1, psi) + np.multiply.outer(chi0, delta)).reshape(-1)
        chi0 = np.multiply.outer(chi0, psi).reshape(-1)
    state = engine.build_initial(initial, specs)
    (m1,) = engine.partial_sums(state, couplings, 1)
    m0 = state.matrix()
    m1 = m1.reshape(m0.shape)
    # u v-dagger + v u-dagger = ((u + v)(u + v)-dagger - (u - v)(u - v)-dagger) / 2
    columns = np.vstack([m0 + m1, m0 - m1, chi0 + chi1, chi0 - chi1]).T / math.sqrt(2)
    r = m0.shape[0]
    signs = np.concatenate([np.ones(r), -np.ones(r), [-1.0, 1.0]])
    defect = half_trace_norm(columns, signs)
    term = ProductTerm(weight=1.0, factors=factors)
    return SeparableDecomposition((term,), kind="first-order-product"), defect


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each vector along the last axis of ``rows``."""
    return np.einsum("...n,...n->...", rows, rows.conj()).real


def _unit(rows: np.ndarray) -> np.ndarray:
    """``rows`` each scaled to unit norm, as a fresh read-only array."""
    out = rows / np.sqrt(_squared_norms(rows))[:, None]
    out.setflags(write=False)
    return out


class _Route(NamedTuple):
    """A separable mixture read off a branch form, not yet validated.

    Term k has weight ``weights[k]`` and, for pointer p, the unit row
    ``rows[p][index[p][k]]``. ``method`` is the verdict's label and
    ``kind`` the certificate's.
    """

    method: str
    kind: str
    weights: np.ndarray
    rows: tuple[np.ndarray, ...]
    index: tuple[np.ndarray, ...]


def _decomposition(state: UnifiedState, route: _Route) -> SeparableDecomposition:
    """The route's mixture as a certificate: one ``StateVector`` per row, shared by its terms."""
    labels = [spec.label for spec in state.pointers]
    states = []
    for spec, unit in zip(state.pointers, route.rows):
        norms = np.sqrt(_squared_norms(unit))
        dims = spec.dims()
        states.append([StateVector._owning(dims, u, norm=float(n)) for u, n in zip(unit, norms)])
    terms = tuple(
        ProductTerm(float(w), {lab: vs[j] for lab, vs, j in zip(labels, states, js)})
        for w, *js in zip(route.weights, *route.index)
    )
    return SeparableDecomposition(terms, kind=route.kind)


def _certificate_route(state: UnifiedState) -> _Route | None:
    """A separable mixture read off the branch form, or None.

    The state is sum_b c_b (x) F_b, F_b the product of branch b's factor
    rows, so the apparatus state is sum_{b, b'} G[b', b] |F_b><F_b'| with
    G[b', b] = <c_b'|c_b>, each pointer's rows distinct, one per kick
    (``engine``): kick rows only. Window rows (``kicks`` None) are not
    branches of a mixture, however few, so they give no certificate, and
    neither does a state without branch form. Entries of G at or below
    BRANCH_TOL times its trace are
    set to 0. A diagonal G gives one term per populated branch.
    Otherwise, for two pointers, a G with no entry between different rows i
    of one pointer gives, per row i in order, |f_i><f_i| (x) sum_{jj'}
    G[ij', ij] |g_j><g_j'| of the other pointer's rows g_j, split into pure
    terms by one batched ``eigh``. Any other G gives no certificate.
    Terms below WEIGHT_PRUNE are dropped. The mixture comes as weights and
    unit factor rows (``_Route``); ``_decomposition`` makes it a certificate.
    """
    form = state.branches
    if form is None or form.kicks is None:
        return None
    core, rows = form.core, form.factors
    shape = core.shape[:-1]
    flat = core.reshape(-1, core.shape[-1])
    gram = flat.conj() @ flat.T
    gram[np.abs(gram) <= BRANCH_TOL * np.trace(gram).real] = 0.0
    diagonal = np.diagonal(gram).real
    if np.count_nonzero(gram) == np.count_nonzero(diagonal):
        weights = diagonal.reshape(shape) * reduce(np.multiply.outer, map(_squared_norms, rows))
        kept = np.nonzero(weights >= WEIGHT_PRUNE)
        method, kind = "commuting-eigenbasis", "commuting-eigenbasis"
        if len(diagonal) == 1:
            method, kind = "uncoupled-product", "uncoupled"
        return _Route(method, kind, weights[kept], tuple(map(_unit, rows)), kept)
    if len(shape) != 2:
        return None
    blocks = gram.reshape(shape + shape)
    for p in (0, 1):
        g = blocks if p == 0 else blocks.transpose(1, 0, 3, 2)
        # g[i, j, i', j'] = <c_ij|c_i'j'>, with i this pointer's row and j the other's
        if np.count_nonzero(g) != np.count_nonzero(np.einsum("ijik->ijk", g)):
            continue
        own = np.arange(len(g))
        # the coefficient of |g_j><g_j'| in row i's group is <c_ij'|c_ij> = g[i, j', i, j]
        w, u = np.linalg.eigh(g[own, :, own, :].transpose(0, 2, 1))
        vectors = np.swapaxes(u, 1, 2) @ rows[1 - p]
        weights = w * _squared_norms(rows[p])[:, None] * _squared_norms(vectors)
        i, m = np.nonzero(weights >= WEIGHT_PRUNE)
        units = [_unit(rows[p]), _unit(vectors[i, m])]
        index = [i, np.arange(len(i))]
        if p == 1:
            units.reverse()
            index.reverse()
        kind = "sequential-branches"
        return _Route(kind, kind, weights[i, m], tuple(units), tuple(index))
    return None


def _record_distance(state: UnifiedState, record: np.ndarray, route: _Route) -> float:
    """The route's ``SeparableDecomposition.validate``, taken in the record's bases.

    Per pointer, one thin QR of [Q_p, U_p^T], Q_p the basis of
    ``UnifiedState.tucker`` and U_p the route's unit rows, gives an
    orthonormal W_p spanning both, and its R = [S_p, A_p]: S_p takes the
    core into W_p, and A_p holds each row's coordinates, so a row's part off
    the record's span enters as exact coordinates; a norm difference would
    keep only half the digits. The mixture and the state then both sit in
    (x)_p W_p, a product isometry that keeps the trace norm, so
    ``half_trace_norm`` of their stacked coordinates is the trace distance
    in the full space, and nothing the size of the grid is formed. The
    mixture's columns get the checks ``factored_distance`` makes, and
    ``record`` is the state's ``_record``, already checked.
    """
    bases, _ = state.tucker
    spans = engine._qr_each([np.concatenate((q, u.T), 1) for q, u in zip(bases, route.rows)], "r")
    maps = [r[:, : q.shape[1]].T for q, r in zip(bases, spans)]
    coords = [r[:, q.shape[1] :].T for q, r in zip(bases, spans)]
    core = record.reshape(tuple(q.shape[1] for q in bases) + (-1,))
    target = engine._branch_sum(core, maps).reshape(record.shape[1], -1).T
    columns = reduce(
        lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(len(a), -1),
        (c[i] for c, i in zip(coords, route.index)),
    )
    columns = columns.T * np.sqrt(route.weights)
    _check_columns(columns)
    signs = np.repeat((1.0, -1.0), (columns.shape[1], target.shape[1]))
    return half_trace_norm(np.concatenate((columns, target), 1), signs)


def readability_check(state: UnifiedState, cut: Cut | None = None) -> SeparabilityVerdict:
    """Decide whether the pointer record is readable dial-by-dial.

    Reads the record (``_record``) once, and takes the partial-transpose
    witness from it (``_witness``), with a window form's tail in its
    bound. A state with kick rows also gets a constructive product
    decomposition, validated against the reduced state in the record's
    bases (``_record_distance``); the certificate object is built only for
    a certificate that holds. A single pointer has nothing to separate and
    is reported separable at once. Any cut must name exactly the state's
    pointers, and is checked before any work.
    """
    dims = state.pointer_dims()
    labels = dims.labels
    if cut is None:
        cut = (labels[:1], labels[1:])
    if len(labels) < 2:
        if sorted((*cut[0], *cut[1])) != list(labels):
            raise ValueError(f"cut {cut} does not name the pointers {labels}")
        return SeparabilityVerdict(
            status="separable",
            cut=cut,
            method="single-apparatus",
            notes=("single pointer, nothing to separate",),
        )
    cut_sides(dims, cut)
    record, layout = _record(state)
    form = state.branches
    ppt = _witness(record, layout, dims.total, cut, 0.0 if form is None else form.tail)
    notes: tuple[str, ...] = ()
    route = _certificate_route(state)
    if route is not None:
        error = _record_distance(state, record, route)
        if error <= CERTIFICATE_TOL:
            if ppt < ENTANGLEMENT_THRESHOLD:
                raise RuntimeError(
                    f"certificate validated to {error:.3e} yet the partial "
                    f"transpose is {ppt:.3e}; internal inconsistency"
                )
            return SeparabilityVerdict(
                status="separable",
                cut=cut,
                ppt_min=ppt,
                certificate=_decomposition(state, route),
                certificate_error=error,
                method=route.method,
            )
        notes = (f"certificate failed validation ({error:.3e}), discarded",)
    return _witness_verdict(ppt, cut, notes)


def _witness_verdict(ppt: float, cut: Cut, notes: tuple[str, ...]) -> SeparabilityVerdict:
    """The verdict of the partial-transpose witness alone, after any discarded certificate."""
    if ppt < ENTANGLEMENT_THRESHOLD:
        return SeparabilityVerdict(
            status="entangled", cut=cut, ppt_min=ppt, method="ppt", notes=notes
        )
    return SeparabilityVerdict(
        status="inconclusive",
        cut=cut,
        ppt_min=ppt,
        method="ppt",
        notes=notes + ("partial transpose is nonnegative but no decomposition route applies",),
    )
