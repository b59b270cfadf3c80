"""Dense linear algebra over labeled tensor factors.

Hilbert spaces in this package are explicit tensor products of named
factors, for example ``(("system", 2), ("A", 256))``. Every state and
operator carries its factor layout, so partial traces, bipartite cuts and
operator embeddings never address a subsystem by bare axis position.

States and operators are dense arrays: the measurement models served here
top out around a few thousand amplitudes. One structure is kept on purpose.
A density matrix built from r columns, rho = U U-dagger, remembers U
(``DensityMatrix.from_factors``). The apparatus and system reductions and
the post-selected apparatus are built that way; the apparatus state has
rank at most the system dimension. When r is below the matrix dimension N,
the spectrum floor is checked on the r x r Gram matrix U-dagger U, which has
the same nonzero spectrum, and the trace distance from such a matrix to a
certificate or to another factored matrix (``factored_distance``) comes from
a thin QR of the stacked columns, so no N x N eigensolve runs. Hermiticity
and trace are still checked on the matrix itself. Matrices supplied whole
keep the full-spectrum check.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

HERMITIAN_INPUT_TOL = 1e-12
HERMITIAN_DERIVED_TOL = 1e-10
# Density matrices assembled by long arithmetic chains may dip slightly
# below zero; anything past this floor is a real violation.
EIGENVALUE_FLOOR = -1e-10
NORM_TOL = 1e-10
TRACE_TOL = 1e-10
SCHMIDT_RANK_TOL = 1e-9
# generator_action: the largest 1-norm of one Taylor step (theta_55 for
# double precision, Al-Mohy and Higham, Table 3.1), the most terms a step
# may take, and the relative size at which the series is cut.
TAYLOR_STEP_NORM = 9.9
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

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total(self) -> int:
        return int(np.prod(self.sizes)) if self.factors else 1

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

    def merge(self, other: "DimensionSpec") -> "DimensionSpec":
        return DimensionSpec(self.factors + other.factors)


@dataclass(frozen=True)
class Operator:
    """Square matrix on a labeled product space.

    Pass ``hermitian=True`` to assert Hermiticity at construction; the claim
    is checked entrywise against HERMITIAN_INPUT_TOL and remembered.
    """

    dims: DimensionSpec
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        m = _frozen(self.matrix)
        object.__setattr__(self, "matrix", m)
        n = self.dims.total
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match dims total {n}")
        if self.hermitian:
            defect = hermiticity_defect(m)
            if not defect <= HERMITIAN_INPUT_TOL:
                raise ValueError(
                    f"matrix claimed Hermitian but has defect {defect:.3e}"
                )


@dataclass(frozen=True)
class StateVector:
    dims: DimensionSpec
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        v = _frozen(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", v)
        if v.size != self.dims.total:
            raise ValueError(
                f"amplitude count {v.size} does not match dims total {self.dims.total}"
            )
        if self.normalized:
            norm = float(np.linalg.norm(v))
            if not abs(norm - 1.0) <= NORM_TOL:
                raise ValueError(f"state claimed normalized but has norm {norm!r}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor."""
        return self.amplitudes.reshape(self.dims.sizes)


@dataclass(frozen=True)
class DensityMatrix:
    """Positive-semidefinite matrix on a labeled product space.

    Construction verifies Hermiticity, spectrum above EIGENVALUE_FLOOR and,
    unless ``normalized=False``, unit trace. Unnormalized matrices appear as
    post-selected or truncated reductions whose trace carries meaning.

    ``factors`` holds the columns U when the matrix was built by
    ``from_factors`` as U U-dagger, and is None for a matrix supplied whole,
    which always gets the full-spectrum check. ``_factors`` is keyword-only
    and for ``from_factors`` alone: the constructor does not check that the
    columns reproduce the matrix.
    """

    dims: DimensionSpec
    matrix: np.ndarray
    normalized: bool = True
    _: KW_ONLY
    _factors: InitVar[np.ndarray | None] = None
    factors: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self, _factors: np.ndarray | None) -> None:
        m = _frozen(self.matrix)
        object.__setattr__(self, "matrix", m)
        n = self.dims.total
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match dims total {n}")
        defect = hermiticity_defect(m)
        if not defect <= HERMITIAN_DERIVED_TOL:
            raise ValueError(f"density matrix Hermiticity defect {defect:.3e}")
        tr = m.trace()
        _check_trace(tr, self.normalized)
        if _factors is None or _factors.shape[1] >= n:
            _check_floor(m, tr)
        else:
            _check_floor(_gram(_factors), tr)
        object.__setattr__(self, "factors", _factors)

    @classmethod
    def from_factors(
        cls, dims: DimensionSpec, columns: np.ndarray, normalized: bool = True
    ) -> "DensityMatrix":
        """U U-dagger from the columns U, which the result keeps as ``factors``.

        The spectrum floor is checked on the smaller of the r x r Gram matrix
        and the matrix itself; both share their nonzero spectrum.
        """
        u = _frozen(columns)
        if u.ndim != 2 or u.shape[0] != dims.total:
            raise ValueError(
                f"columns of shape {u.shape} do not match dims total {dims.total}"
            )
        return cls(dims, u @ u.conj().T, normalized, _factors=u)

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


def _gram(columns: np.ndarray) -> np.ndarray:
    """U-dagger U: the nonzero spectrum of U U-dagger, r x r."""
    return columns.conj().T @ columns


def _check_trace(tr: complex, normalized: bool) -> None:
    if not abs(tr.imag) <= TRACE_TOL:
        raise ValueError(f"density matrix has complex trace {tr!r}")
    if not math.isfinite(tr.real):
        raise ValueError(f"density matrix trace {tr.real!r} is not finite")
    if normalized and not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density matrix trace {tr.real!r} is not 1")


def _check_floor(h: np.ndarray, tr: complex) -> None:
    """Spectrum floor of a Hermitian matrix that shares a state's nonzero spectrum.

    The floor scales with the trace so unnormalized reductions are judged
    on their own magnitude.
    """
    scale = max(1.0, abs(float(tr.real)))
    low = float(np.linalg.eigvalsh((h + h.conj().T) / 2.0).min())
    if not low >= EIGENVALUE_FLOOR * scale:
        raise ValueError(f"density matrix has eigenvalue {low:.3e} below floor")


def _half_trace_norm(columns: np.ndarray, signs: np.ndarray) -> float:
    """Half the trace norm of U diag(s) U-dagger, from a thin QR of U.

    With U = Q R the nonzero spectrum is that of the k x k matrix R S R-dagger,
    k = min(rows, columns).
    """
    r = np.linalg.qr(columns, mode="r")
    core = (r * signs) @ r.conj().T
    return float(np.abs(np.linalg.eigvalsh((core + core.conj().T) / 2.0)).sum() / 2.0)


def factored_distance(columns: np.ndarray, target: DensityMatrix) -> float:
    """Trace distance between the candidate C C-dagger and a target built from factors.

    The candidate's trace (unit when the target is normalized) and spectrum
    floor are checked on its r x r Gram matrix, and the distance comes from
    the stacked columns of both, so no N x N matrix is formed. Weighted
    candidates pass columns scaled by the square roots of their weights.
    """
    if target.factors is None:
        raise ValueError("factored distance needs a target built from factors")
    c = np.asarray(columns, dtype=complex)
    if c.ndim != 2 or c.shape[0] != target.dims.total:
        raise ValueError(
            f"columns of shape {c.shape} do not match dims total {target.dims.total}"
        )
    g = _gram(c)
    tr = g.trace()
    _check_trace(tr, target.normalized)
    _check_floor(g, tr)
    u = target.factors
    signs = np.concatenate([np.ones(c.shape[1]), -np.ones(u.shape[1])])
    return _half_trace_norm(np.hstack([c, u]), signs)


def pure_density(state: StateVector) -> DensityMatrix:
    v = state.amplitudes
    return DensityMatrix(state.dims, np.outer(v, v.conj()), normalized=state.normalized)


def kron_states(a: StateVector, b: StateVector) -> StateVector:
    dims = a.dims.merge(b.dims)
    return StateVector(
        dims,
        np.kron(a.amplitudes, b.amplitudes),
        normalized=a.normalized and b.normalized,
    )


def kron_operators(a: Operator, b: Operator) -> Operator:
    return Operator(
        a.dims.merge(b.dims),
        np.kron(a.matrix, b.matrix),
        hermitian=a.hermitian and b.hermitian,
    )


def embed(op: Operator, dims: DimensionSpec) -> Operator:
    """Extend an operator by identity onto the remaining factors of ``dims``.

    The operator's own factors must appear in ``dims`` as a contiguous block
    in the same order; that is the only layout this package ever needs.
    """
    own = op.dims.labels
    labels = dims.labels
    for start in range(len(labels) - len(own) + 1):
        if labels[start : start + len(own)] == own:
            break
    else:
        raise ValueError(f"factors {own} are not a contiguous block of {labels}")
    for lab in own:
        if dims.dim(lab) != op.dims.dim(lab):
            raise ValueError(f"dimension mismatch for factor {lab!r}")
    left = int(np.prod(dims.sizes[:start])) if start else 1
    right_sizes = dims.sizes[start + len(own) :]
    right = int(np.prod(right_sizes)) if right_sizes else 1
    m = np.kron(np.kron(np.eye(left), op.matrix), np.eye(right))
    return Operator(dims, m, hermitian=op.hermitian)


def partial_trace(rho: DensityMatrix, keep: Sequence[str]) -> DensityMatrix:
    """Trace out every factor not named in ``keep``."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one factor")
    sub = rho.dims.subset(keep)
    sizes = rho.dims.sizes
    n = len(sizes)
    t = rho.matrix.reshape(sizes + sizes)
    keep_axes = [rho.dims.axis(lab) for lab in sub.labels]
    # einsum with repeated indices on the traced factors
    row = list(range(n))
    col = [i + n if i in keep_axes else i for i in range(n)]
    out_idx = [i for i in keep_axes] + [i + n for i in keep_axes]
    reduced = np.einsum(t, row + col, out_idx)
    d = sub.total
    return DensityMatrix(sub, reduced.reshape(d, d), normalized=rho.normalized)


def expectation(op: Operator, state: StateVector) -> complex:
    v = state.amplitudes
    return complex(v.conj() @ (op.matrix @ v))


def eigh(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian operator."""
    defect = hermiticity_defect(op.matrix)
    if not defect <= HERMITIAN_INPUT_TOL and not op.hermitian:
        raise ValueError(f"eigh requires a Hermitian operator, defect {defect:.3e}")
    return np.linalg.eigh(op.matrix)


def unitary_from_generator(op: Operator, scale: float) -> np.ndarray:
    """exp(-i * scale * H) through the spectral decomposition of H."""
    w, v = eigh(op)
    u = (v * np.exp(-1j * scale * w)) @ v.conj().T
    defect = max_abs(u @ u.conj().T - np.eye(u.shape[0]))
    if not defect <= HERMITIAN_DERIVED_TOL * u.shape[0]:
        raise ValueError(f"generated matrix is not unitary, defect {defect:.3e}")
    return u


def generator_action(op: Operator, scale: float, vector: np.ndarray) -> np.ndarray:
    """exp(-i * scale * H) v by a scaled Taylor series, from products H v alone.

    The scaled Taylor action of Al-Mohy and Higham (SIAM J. Sci. Comput. 33,
    488 (2011)): s steps with ||scale * H||_1 / s <= TAYLOR_STEP_NORM, each
    summing the series until two successive terms fall below TAYLOR_TOL of
    the partial sum in the max norm. Term j of a step is at most
    TAYLOR_STEP_NORM^j / j! times the step's input, 7e-23 at TAYLOR_TERM_CAP,
    while a unitary step keeps at least 1/sqrt(N) of its input's max norm, so
    finite input converges before the cap. A step that reaches the cap, as
    one with NaN or infinite input does, raises ValueError. No eigensolve
    runs and no matrix-matrix product is formed.
    """
    h = op.matrix
    if not op.hermitian:
        defect = hermiticity_defect(h)
        if not defect <= HERMITIAN_INPUT_TOL:
            raise ValueError(
                f"generator action needs a Hermitian operator, defect {defect:.3e}"
            )
    v = np.asarray(vector, dtype=complex)
    if v.shape != (h.shape[0],):
        raise ValueError(
            f"vector of shape {v.shape} does not match operator dimension {h.shape[0]}"
        )
    norm = abs(scale) * float(np.abs(h).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError(f"generator action needs finite scale * ||H||_1, got {norm!r}")
    steps = max(1, math.ceil(norm / TAYLOR_STEP_NORM))
    a = -1j * scale / steps
    for _ in range(steps):
        term = v
        previous = max_abs(term)
        for j in range(1, TAYLOR_TERM_CAP + 1):
            term = (a / j) * (h @ term)
            v = v + term
            current = max_abs(term)
            if previous + current <= TAYLOR_TOL * max_abs(v):
                break
            previous = current
        else:
            raise ValueError(
                f"Taylor series did not converge within {TAYLOR_TERM_CAP} terms"
            )
    return v


def schmidt(state: StateVector, cut: Cut) -> tuple[np.ndarray, int]:
    """Schmidt coefficients across a bipartition, descending, plus the rank.

    ``cut`` is a pair of label tuples that together partition the factors.
    Rank counts coefficients above SCHMIDT_RANK_TOL; the coefficients of a
    normalized state square-sum to one.
    """
    left, right = tuple(cut[0]), tuple(cut[1])
    all_labels = set(state.dims.labels)
    if set(left) | set(right) != all_labels or set(left) & set(right):
        raise ValueError(f"cut {cut} does not partition factors {state.dims.labels}")
    if not left or not right:
        raise ValueError("both sides of the cut must be nonempty")
    t = state.tensor()
    order = [state.dims.axis(lab) for lab in left + right]
    t = np.transpose(t, order)
    dl = int(np.prod([state.dims.dim(lab) for lab in left]))
    coeffs = np.linalg.svd(t.reshape(dl, -1), compute_uv=False)
    rank = int(np.count_nonzero(coeffs > SCHMIDT_RANK_TOL))
    return coeffs, rank


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference.

    When both matrices carry factors only their stacked columns are used.
    """
    if a.dims != b.dims:
        raise ValueError("trace distance needs matching factor layouts")
    if a.factors is not None and b.factors is not None:
        return factored_distance(a.factors, b)
    diff = a.matrix - b.matrix
    return float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum() / 2.0)
