"""Dense linear algebra over labeled tensor factors.

Hilbert spaces in this package are explicit tensor products of named
factors, for example ``(("system", 2), ("A", 256))``. Every state and
operator carries its factor layout, so reductions and bipartite cuts
never address a subsystem by bare axis position.

States and operators are dense arrays. A state can be large (epr's readout
state has 4 x 256 x 256 = 262144 amplitudes), but no matrix over a space of
that size is formed: operators act on small factors, the engine's dense
integrator included, which applies its generator factor by factor.
An Operator is always Hermitian, checked once when built and stored
exactly Hermitian, so real-weighted sums of kron products of Operator
matrices are exactly Hermitian too and are never re-checked.
A density matrix has one form. Every reduced state here is rho = U U-dagger
for a few columns U, so ``DensityMatrix`` keeps U, as a read-only view when
the columns are read-only down to their base, as a state's amplitudes are,
and as a copy otherwise; the apparatus state has rank at most the system
dimension. No runtime path builds one: the engine reads a reduced state off
its columns, and ``DensityMatrix`` is the target that
``SeparableDecomposition.validate`` takes. A density matrix is checked
from U alone: its trace as the squared Frobenius norm of U, which also
refuses NaN and
infinite columns, and its spectrum floor on the smaller of U U-dagger and
the r x r Gram matrix U-dagger U, which share their nonzero spectrum. The
N x N matrix U U-dagger is formed, and its Hermiticity checked, when
``matrix`` is first read, which construction does only when r is at least
N. The trace distance from U U-dagger to a
certificate (``factored_distance``) comes from a thin QR of the stacked
columns of both, so no N x N eigensolve runs.

Quantities derived from immutable objects are computed once and kept on
the object: ``DimensionSpec.labels``, ``sizes`` and ``total``, an
Operator's eigendecomposition (``spectrum``), and a StateVector's ``norm``.
That is safe because these are frozen dataclasses whose arrays are
read-only, so the source of a cached value cannot change; the cached arrays
are read-only too, and equality and hashing still read the dataclass fields
alone.

A StateVector copies the amplitudes it is given. The engine's branch sums
are the exception: the new state owns them read-only down to their base,
keeps a norm the engine already took, and takes its layout from
``product_dims``, one cached DimensionSpec per factor layout
(``StateVector._owning``), so it makes no copy, no second norm pass and no
recomputed sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

HERMITIAN_INPUT_TOL = 1e-12
HERMITIAN_DERIVED_TOL = 1e-10
# Density matrices assembled by long arithmetic chains may dip slightly
# below zero; anything past this floor is a real violation.
EIGENVALUE_FLOOR = -1e-10
NORM_TOL = 1e-10
TRACE_TOL = 1e-10
SCHMIDT_RANK_TOL = 1e-9
# schmidt: a Gram eigenvector fixes its coefficient s to about eps s_max^2 / s,
# so coefficients below this fraction of the largest are resolved again from
# their own, smaller Gram matrix.
SCHMIDT_GRAM_RESOLUTION = 1e-2
# generator_action: the largest norm theta of one Taylor step, the most
# terms a step may take, and the relative size at which the series is cut.
# A step's terms grow to about theta^j / j! before they cancel, so its
# rounding is about u e^theta of its input, u = 2^-53: 4.5e-14 at theta = 6,
# where the truncation-optimal theta_55 = 9.9 (Al-Mohy and Higham, Table
# 3.1) gives 2.2e-12, more than a whole evolution may lose.
TAYLOR_STEP_NORM = 6.0
TAYLOR_TERM_CAP = 60
TAYLOR_TOL = 2.0**-53

Cut = tuple[tuple[str, ...], tuple[str, ...]]


def _frozen(a: np.ndarray | Sequence) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max()) if np.size(m) else 0.0


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of a square matrix from its adjoint."""
    return max_abs(m - m.conj().T)


def antisymmetry_defect(m: np.ndarray) -> float:
    """Largest entrywise |m + m.T| of a real square matrix, a 64 x 64 block at a time.

    No temporary is larger than one block, whatever the size of ``m``.
    """
    edges = range(0, len(m), 64)
    return max(
        (
            max_abs(m[i : i + 64, j : j + 64] + m[j : j + 64, i : i + 64].T)
            for i in edges
            for j in edges
            if i <= j
        ),
        default=0.0,
    )


@dataclass(frozen=True)
class DimensionSpec:
    """Ordered list of (label, dimension) factors of a tensor-product space."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for lab, dim in self.factors:
            if dim < 1:
                raise ValueError(f"factor {lab!r} has nonpositive dimension {dim}")

    @classmethod
    def of(cls, *pairs: tuple[str, int]) -> "DimensionSpec":
        return cls(tuple((str(lab), int(dim)) for lab, dim in pairs))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @cached_property
    def total(self) -> int:
        """Product of the factor dimensions; 1 for no factors."""
        return math.prod(self.sizes)

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise KeyError(f"no factor labeled {label!r} in {self.labels}")

    def dim(self, label: str) -> int:
        return self.factors[self.axis(label)][1]

    def subset(self, labels: Iterable[str]) -> "DimensionSpec":
        """Sub-spec containing the given labels, in this spec's order."""
        want = set(labels)
        missing = want - set(self.labels)
        if missing:
            raise KeyError(f"labels {sorted(missing)} not in {self.labels}")
        return DimensionSpec(tuple(f for f in self.factors if f[0] in want))


@dataclass(frozen=True)
class Operator:
    """Hermitian matrix on a labeled product space: an observable or a generator.

    Construction checks the entrywise defect against HERMITIAN_INPUT_TOL,
    which also refuses NaN and infinite entries, and keeps the exactly
    Hermitian part (m + m-dagger) / 2; an exact input such as a Pauli matrix
    keeps its values.
    """

    dims: DimensionSpec
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        n = self.dims.total
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match dims total {n}")
        with np.errstate(invalid="ignore"):
            defect = hermiticity_defect(m)
        if not defect <= HERMITIAN_INPUT_TOL:
            raise ValueError(f"operator is not Hermitian: defect {defect:.3e}")
        object.__setattr__(self, "matrix", _frozen((m + m.conj().T) / 2.0))

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh`` of the matrix, as read-only arrays."""
        w, v = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    @cached_property
    def eigenspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct eigenvalues, ascending, and the projector onto each eigenspace.

        Read-only arrays (m,) and (m, n, n), from ``spectrum``. The input is
        trusted to HERMITIAN_INPUT_TOL per entry, so by Weyl's inequality
        each eigenvalue is known to ||E||_2 <= ||E||_F <= n HERMITIAN_INPUT_TOL;
        neighbours closer than twice that are one eigenvalue, their mean.
        """
        w, v = self.spectrum
        n = len(w)
        starts = np.flatnonzero(np.diff(w) > 2 * n * HERMITIAN_INPUT_TOL) + 1
        groups = np.split(np.arange(n), starts)
        values = np.array([w[g].mean() for g in groups])
        projectors = np.stack([v[:, g] @ v[:, g].conj().T for g in groups])
        values.setflags(write=False)
        projectors.setflags(write=False)
        return values, projectors


@dataclass(frozen=True)
class StateVector:
    """Amplitudes on a labeled product space, copied and frozen when built.

    A state claimed normalized has its norm checked against NORM_TOL, which
    also refuses NaN and infinite amplitudes, and keeps that norm.
    """

    dims: DimensionSpec
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes).reshape(-1))
        self._check(None)

    @classmethod
    def _owning(
        cls,
        dims: DimensionSpec,
        amplitudes: np.ndarray,
        normalized: bool = True,
        norm: float | None = None,
    ) -> "StateVector":
        """A state that takes over ``amplitudes``, a fresh complex array nothing else holds.

        The array is made read-only in place instead of copied, so the
        amplitudes are read-only down to their base. ``norm``, if
        given, is its norm as the caller already took it, kept instead of
        taken again; a normalized claim is checked against NORM_TOL either way.
        """
        a = np.asarray(amplitudes, dtype=complex)
        a.setflags(write=False)
        v = a.reshape(-1)
        state = object.__new__(cls)
        object.__setattr__(state, "dims", dims)
        object.__setattr__(state, "amplitudes", v)
        object.__setattr__(state, "normalized", normalized)
        state._check(norm)
        return state

    def _check(self, norm: float | None) -> None:
        """Amplitude count and normalized claim; keeps ``norm``, taking it if needed."""
        v = self.amplitudes
        if v.size != self.dims.total:
            raise ValueError(
                f"amplitude count {v.size} does not match dims total {self.dims.total}"
            )
        if norm is None and self.normalized:
            norm = float(np.linalg.norm(v))
        if norm is not None:
            if self.normalized and not abs(norm - 1.0) <= NORM_TOL:
                raise ValueError(f"state claimed normalized but has norm {norm!r}")
            self.__dict__["norm"] = norm  # where the cached property looks first

    @cached_property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor."""
        return self.amplitudes.reshape(self.dims.sizes)


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """U U-dagger on a labeled product space, kept as its columns U (``factors``).

    Complex columns that are read-only down to their base, such as a
    state's amplitudes, are kept as a view; any others are copied.
    Construction checks the trace, unit unless ``normalized=False``, as the
    squared Frobenius norm of U, and the spectrum floor on the smaller of
    the r x r Gram matrix and the matrix itself; both share their nonzero
    spectrum. Unnormalized matrices appear as post-selected reductions,
    whose trace is the selection probability. The N x N matrix is formed,
    and its Hermiticity checked, when ``matrix`` is first read.
    """

    dims: DimensionSpec
    normalized: bool
    trace: float
    factors: np.ndarray = field(repr=False)

    def __init__(
        self, dims: DimensionSpec, factors: np.ndarray, normalized: bool = True
    ) -> None:
        u = factors.view() if _unwritable(factors) else _frozen(factors)
        if u.ndim != 2 or u.shape[0] != dims.total:
            raise ValueError(
                f"columns of shape {u.shape} do not match dims total {dims.total}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "factors", u)
        tr = np.vdot(u, u)
        _check_trace(tr, normalized)
        _check_floor(self.matrix if u.shape[1] >= dims.total else _gram(u), tr)
        object.__setattr__(self, "trace", float(tr.real))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The matrix itself; built from ``factors`` on first read."""
        m = self.factors @ self.factors.conj().T
        m.setflags(write=False)
        _check_hermitian(m)
        return m


def _unwritable(a: object) -> bool:
    """Whether ``a`` is a complex array that no array under it can write."""
    if not (isinstance(a, np.ndarray) and a.dtype == complex):
        return False
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _check_hermitian(m: np.ndarray) -> None:
    defect = hermiticity_defect(m)
    if not defect <= HERMITIAN_DERIVED_TOL:
        raise ValueError(f"density matrix Hermiticity defect {defect:.3e}")


def _gram(columns: np.ndarray) -> np.ndarray:
    """U-dagger U: the nonzero spectrum of U U-dagger, r x r."""
    return columns.conj().T @ columns


def _check_trace(tr: complex, normalized: bool) -> None:
    if not (math.isfinite(tr.real) and math.isfinite(tr.imag)):
        raise ValueError(f"density matrix trace {tr!r} is not finite")
    if not abs(tr.imag) <= TRACE_TOL:
        raise ValueError(f"density matrix has complex trace {tr!r}")
    if normalized and not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density matrix trace {tr.real!r} is not 1")


def _check_floor(h: np.ndarray, tr: complex) -> None:
    """Spectrum floor of a Hermitian matrix that shares a state's nonzero spectrum.

    The floor scales with the trace so unnormalized reductions are judged
    on their own magnitude. A 1 x 1 matrix, the Gram matrix of one column,
    is its own eigenvalue, so it needs no eigensolve.
    """
    scale = max(1.0, abs(float(tr.real)))
    h = (h + h.conj().T) / 2.0
    low = float(h[0, 0].real) if h.shape == (1, 1) else float(np.linalg.eigvalsh(h).min())
    if not low >= EIGENVALUE_FLOOR * scale:
        raise ValueError(f"density matrix has eigenvalue {low:.3e} below floor")


def _check_columns(columns: np.ndarray, normalized: bool = True) -> None:
    """The trace and spectrum floor of U U-dagger, checked on the r x r Gram matrix U-dagger U."""
    g = _gram(columns)
    tr = g.trace()
    _check_trace(tr, normalized)
    _check_floor(g, tr)


def half_trace_norm(columns: np.ndarray, signs: np.ndarray) -> float:
    """Half the trace norm of U diag(s) U-dagger, from a thin QR of U.

    With U = Q R the nonzero spectrum is that of the k x k matrix R S R-dagger,
    k = min(rows, columns).
    """
    r = np.linalg.qr(columns, mode="r")
    core = (r * signs) @ r.conj().T
    return float(np.abs(np.linalg.eigvalsh((core + core.conj().T) / 2.0)).sum() / 2.0)


def factored_distance(columns: np.ndarray, target: DensityMatrix) -> float:
    """Trace distance between the candidate C C-dagger and a target density matrix.

    The candidate's trace (unit when the target is normalized) and spectrum
    floor are checked on its r x r Gram matrix, and the distance comes from
    the stacked columns of both, so no N x N matrix is formed. Weighted
    candidates pass columns scaled by the square roots of their weights.
    """
    c = np.asarray(columns, dtype=complex)
    if c.ndim != 2 or c.shape[0] != target.dims.total:
        raise ValueError(
            f"columns of shape {c.shape} do not match dims total {target.dims.total}"
        )
    _check_columns(c, target.normalized)
    u = target.factors
    signs = np.concatenate([np.ones(c.shape[1]), -np.ones(u.shape[1])])
    return half_trace_norm(np.hstack([c, u]), signs)


@lru_cache(maxsize=32)
def product_dims(*specs: DimensionSpec) -> DimensionSpec:
    """The layout of a tensor product over ``specs``, in order, one object per layout."""
    return DimensionSpec(tuple(f for spec in specs for f in spec.factors))


def expectation(op: Operator, state: StateVector) -> complex:
    v = state.amplitudes
    return complex(v.conj() @ (op.matrix @ v))


def generator_action(
    apply_h: Callable[[np.ndarray], np.ndarray],
    norm_bound: float,
    scale: float,
    vector: np.ndarray,
) -> np.ndarray:
    """exp(-i * scale * H) v by a scaled Taylor series, from products H v alone.

    ``apply_h`` maps a vector to H times it, and ``norm_bound`` is at least
    ||H||_2. H must be Hermitian and is not checked here: the engine's dense
    integrator passes a real-weighted sum of kron products of Operator
    matrices and closed-form momenta, which is exactly Hermitian by
    construction, applied factor by factor, with the sum of the products of
    its factors' spectral norms as the bound. A bound above the true norm
    only adds scaling steps.
    ``apply_h`` may return the same buffer on every call; its result is read
    before the next call, and ``apply_h`` never receives that buffer.

    The scaled Taylor action of Al-Mohy and Higham (SIAM J. Sci. Comput. 33,
    488 (2011)): s steps with ||scale * H||_2 / s <= TAYLOR_STEP_NORM, each
    summing the series until two successive terms fall below TAYLOR_TOL of
    the partial sum in the max norm. That max is taken only once its upper
    bound, the step input's max plus every term's since, lets the cut pass,
    so the series stops at the same term as if it were taken after each.
    Term j of a step is at most TAYLOR_STEP_NORM^j / j! times the 2-norm of
    the step's input, 6e-36 at TAYLOR_TERM_CAP, in the max norm too, while
    a unitary step keeps that 2-norm and so at least 1/sqrt(N) of it in the
    max norm; finite input therefore converges before the cap. A step that
    reaches the cap, as one
    with NaN or infinite input does, raises ValueError. No eigensolve runs
    and no matrix-matrix product is formed.

    The input is copied once and never written; the result is a fresh array.
    The series runs in that copy and one term buffer, so no term allocates.
    """
    v = np.array(vector, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    norm = abs(scale) * norm_bound
    if not math.isfinite(norm):
        raise ValueError(f"generator action needs finite scale * ||H||_2, got {norm!r}")
    steps = max(1, math.ceil(norm / TAYLOR_STEP_NORM))
    a = -1j * scale / steps
    term = np.empty_like(v)
    magnitude = np.empty(v.shape)

    def largest(x: np.ndarray) -> float:
        return float(np.abs(x, out=magnitude).max(initial=0.0))

    for _ in range(steps):
        np.copyto(term, v)
        previous = largest(term)
        ceiling = previous
        for j in range(1, TAYLOR_TERM_CAP + 1):
            product = apply_h(term)
            if product.shape != v.shape:
                raise ValueError(
                    f"operator maps a vector of shape {v.shape} to shape {product.shape}"
                )
            np.multiply(product, a / j, out=term)
            v += term
            current = largest(term)
            ceiling += current
            # max|v| <= ceiling up to rounding, which the factor 2 covers
            # many times over, so the exact max runs only where it can pass
            tail = previous + current
            if tail <= 2.0 * TAYLOR_TOL * ceiling and tail <= TAYLOR_TOL * largest(v):
                break
            previous = current
        else:
            raise ValueError(
                f"Taylor series did not converge within {TAYLOR_TERM_CAP} terms"
            )
    return v


def cut_sides(dims: DimensionSpec, cut: Cut) -> Cut:
    """The two sides of ``cut``, which must split the factors into two nonempty parts."""
    left, right = tuple(cut[0]), tuple(cut[1])
    if sorted(left + right) != sorted(dims.labels) or not (left and right):
        raise ValueError(
            f"cut {cut} does not partition factors {dims.labels} into two nonempty sides"
        )
    return left, right


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a matrix with no more rows than columns, unsorted.

    With v_i the eigenvectors of the Gram matrix M M-dagger, the rows
    v_i-dagger M are orthogonal and their norms are the singular values. An
    eigenvector is fixed only to within roundoff of the largest eigenvalue,
    so rows below SCHMIDT_GRAM_RESOLUTION of the largest norm may mix among
    themselves; their span is still right, and their norms come from the
    same procedure on those rows alone.
    """
    _, v = np.linalg.eigh(m @ m.conj().T)
    rows = v.conj().T @ m
    s = np.sqrt([np.vdot(row, row).real for row in rows])
    small = s < SCHMIDT_GRAM_RESOLUTION * s.max()
    if np.count_nonzero(small) > 1:
        s[small] = _singular_values(rows[small])
    return s


def schmidt_values(m: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Singular values of ``m``, descending and padded with zeros to ``count``, and the rank.

    Rank counts values above SCHMIDT_RANK_TOL. They are taken from the Gram
    matrix of the smaller side (``_singular_values``). ``count`` is at
    least min(m.shape): a matrix that is the amplitudes in orthonormal
    bases of smaller subspaces has the same nonzero values, and the
    padding restores the count of the whole space.
    """
    coeffs = np.sort(_singular_values(m.T if m.shape[0] > m.shape[1] else m))[::-1]
    if coeffs.size < count:
        coeffs = np.concatenate([coeffs, np.zeros(count - coeffs.size)])
    return coeffs, int(np.count_nonzero(coeffs > SCHMIDT_RANK_TOL))


def schmidt(state: StateVector, cut: Cut) -> tuple[np.ndarray, int]:
    """Schmidt coefficients across a bipartition, descending, plus the rank.

    ``cut`` is a pair of label tuples that together partition the factors.
    The coefficients of a normalized state square-sum to one. They are the
    singular values of the amplitudes as a (left, right) matrix
    (``schmidt_values``). Non-finite amplitudes are refused.
    """
    left, right = cut_sides(state.dims, cut)
    # A normalized state passed its norm check, which NaN and inf fail.
    if not (state.normalized or np.isfinite(state.amplitudes).all()):
        raise ValueError("Schmidt decomposition needs finite amplitudes")
    t = state.tensor()
    order = [state.dims.axis(lab) for lab in left + right]
    t = np.transpose(t, order)
    dl = math.prod(state.dims.dim(lab) for lab in left)
    m = t.reshape(dl, -1)
    return schmidt_values(m, min(m.shape))
