"""Evolution engine: readout formulas, integrator agreement, guard rails."""

import dataclasses
import math
import sys
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointerlab import engine as engine_module
from pointerlab import tensors
from pointerlab.engine import (
    Coupling,
    OrthogonalPostselection,
    apparatus_density,
    build_initial,
    commutes,
    evolve,
    evolve_sequential,
    partial_sums,
    pointer_cross_mean,
    pointer_mean,
    postselect,
    system_density,
    system_expectation,
    weak_value,
)
from pointerlab.pointer import LeakageError, PointerGrid, PointerSpec, gaussian_state
from pointerlab.pointer import differentiation_matrix, momentum_operator
from pointerlab.scenarios import (
    PAIR_DIMS,
    PAIR_X,
    PAIR_Z,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_state,
    pauli,
)
from pointerlab.tensors import DimensionSpec, Operator, StateVector

from helpers import (
    branch_kicks,
    commuting_family,
    cross_validate,
    partial_trace,
    pure_density,
    unitary_from_generator,
)

FINE = PointerGrid(points=256, length=16.0)
COARSE = PointerGrid(points=16, length=16.0)
TINY = PointerGrid(points=8, length=16.0)

TAN_PI_8 = 0.41421356237309503


def _single(theta=math.pi / 3, g=0.2, grid=FINE, observable=None, x0=0.0):
    system = bloch_state(theta, 0.0)
    spec = PointerSpec("A", grid, x0=x0, sigma=1.0)
    coupling = Coupling(observable or pauli(SIGMA_Z), "A", g, 1.0)
    return build_initial(system, [spec]), coupling


class TestBuildInitial:
    def test_layout_and_bounds(self):
        system = bloch_state(math.pi / 3, 0.0)
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(system, specs)
        assert state.state.dims.labels == ("system", "A", "B")
        assert abs(state.state.norm - 1.0) < 1e-12
        assert state.shift_bounds == {"A": (0.0, 0.0), "B": (0.0, 0.0)}
        assert state.history == ()

    def test_needs_a_pointer(self):
        with pytest.raises(ValueError, match="pointer"):
            build_initial(bloch_state(0.0, 0.0), [])


class TestEvolve:
    def test_noncommuting_result_is_kept_not_copied(self):
        """One noncommuting evolve on 2 x 256 x 256 holds about one state: the
        spectrum it writes is transformed back in place and kept, read-only
        down to its base, so the reduced densities view it and copy nothing."""
        specs = [PointerSpec("A", FINE), PointerSpec("B", FINE)]
        state = build_initial(bloch_state(math.pi / 3, 0.7), specs)
        couplings = [Coupling(pauli(SIGMA_X), "A", 0.4), Coupling(pauli(SIGMA_Z), "B", 0.3)]
        evolve(state, couplings)  # warms the grids' caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evolved = evolve(state, couplings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (16 * 2 * 256 * 256) <= 1.2
        amplitudes = evolved.state.amplitudes
        for rho in (system_density(evolved), apparatus_density(evolved)):
            assert np.shares_memory(rho.factors, amplitudes)

    def test_mean_shift_frozen(self):
        # <sigma_z> at theta = pi/3 is 1/2, so impulse 0.2 moves the mean to 0.1
        state, coupling = _single()
        evolved = evolve(state, [coupling])
        assert abs(pointer_mean(evolved, "A") - 0.1) < 1e-8

    def test_history_records_phases(self):
        state, coupling = _single()
        evolved = evolve(state, [coupling])
        assert len(evolved.history) == 1
        assert evolved.history[0][0].impulse == pytest.approx(0.2)
        twice = evolve_sequential(state, coupling, coupling)
        assert len(twice.history) == 2

    def test_integrators_agree_single_pointer(self):
        state, coupling = _single()
        assert cross_validate(state, [coupling]) < 1e-8

    def test_integrators_agree_noncommuting_pair(self):
        system = bloch_state(math.pi / 3, 0.0)
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(system, specs)
        couplings = [
            Coupling(pauli(SIGMA_X), "A", 0.3, 1.0),
            Coupling(pauli(SIGMA_Z), "B", 0.3, 1.0),
        ]
        assert cross_validate(state, couplings) < 1e-8

    @pytest.mark.parametrize(
        "pairs",
        [
            [(SIGMA_Z, "A", 0.3), (SIGMA_Z, "A", -0.5)],
            [(SIGMA_X, "B", 0.3), (SIGMA_X, "A", 0.5), (SIGMA_X, "B", 0.2)],
            [(SIGMA_Z, "A", 0.4), (np.diag([-1.0, 2.0]), "B", 0.3)],
        ],
        ids=["same-pointer", "three-couplings", "different-eigenbases"],
    )
    def test_commuting_phase_matches_dense_oracle(self, pairs):
        """A commuting phase in branch form, and after a noncommuting one on the momentum blocks."""
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(bloch_state(1.0, 0.3), specs)
        couplings = [Coupling(pauli(m), lab, g) for m, lab, g in pairs]
        assert all(commutes(a.observable, b.observable) for a in couplings for b in couplings)
        assert cross_validate(state, couplings) <= 1e-12
        aged = evolve(state, [Coupling(pauli(SIGMA_X), "A", 0.4)])
        assert cross_validate(aged, couplings) <= 1e-12

    def test_commuting_pair_cross_moment_frozen(self):
        # identical couplings to |up>: both pointers shift by 0.2, so the
        # joint moment is exactly 0.04
        system = bloch_state(0.0, 0.0)
        specs = [PointerSpec("A", FINE), PointerSpec("B", FINE)]
        state = build_initial(system, specs)
        couplings = [
            Coupling(pauli(SIGMA_Z), "A", 0.2, 1.0),
            Coupling(pauli(SIGMA_Z), "B", 0.2, 1.0),
        ]
        evolved = evolve(state, couplings)
        assert abs(pointer_cross_mean(evolved, "A", "B") - 0.04) < 1e-8

    def test_norm_preserved(self):
        state, coupling = _single(g=0.7)
        evolved = evolve(state, [coupling])
        assert abs(evolved.state.norm - 1.0) < 1e-10

    def test_durations_must_match(self):
        system = bloch_state(0.0, 0.0)
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(system, specs)
        couplings = [
            Coupling(pauli(SIGMA_Z), "A", 0.1, 1.0),
            Coupling(pauli(SIGMA_Z), "B", 0.1, 2.0),
        ]
        with pytest.raises(ValueError, match="duration"):
            evolve(state, couplings)

    def test_containment_guard_trips(self):
        state, coupling = _single(g=3.0)
        with pytest.raises(LeakageError, match="edge"):
            evolve(state, [coupling])

    def test_accumulated_shifts_guard(self):
        # each phase is fine on its own; together they reach too far
        state, coupling = _single(theta=0.0, g=1.2)
        once = evolve(state, [coupling])
        with pytest.raises(LeakageError, match="accumulated"):
            evolve(once, [coupling])

    def test_dense_path_refuses_large_spaces(self):
        system = bloch_state(0.0, 0.0)
        specs = [PointerSpec("A", FINE), PointerSpec("B", FINE)]
        state = build_initial(system, specs)
        couplings = [Coupling(pauli(SIGMA_Z), "A", 0.1, 1.0)]
        with pytest.raises(ValueError, match="dense"):
            evolve(state, couplings, "expm")

    @pytest.mark.parametrize("g", [1e-3, 5e-2])
    def test_integrators_agree_across_the_sweep_ladder(self, g):
        state, coupling = _single(g=g)
        assert cross_validate(state, [coupling]) <= 1e-12

    @pytest.mark.parametrize("method", ["shift", "expm"])
    @pytest.mark.parametrize("pair", [False, True], ids=["one", "noncommuting-pair"])
    def test_repeat_evolve_runs_no_eigensolve(self, eigensolve_shapes, method, pair):
        """Observable spectra are computed once per Operator, not once per evolve."""
        grid = COARSE if pair else FINE
        labels = ("A", "B") if pair else ("A",)
        state = build_initial(bloch_state(1.0, 0.4), [PointerSpec(lab, grid) for lab in labels])
        couplings = [
            Coupling(pauli(m), lab, 0.2) for m, lab in zip((SIGMA_X, SIGMA_Z), labels)
        ]
        first = evolve(state, couplings, method)
        assert eigensolve_shapes
        eigensolve_shapes.clear()
        again = evolve(state, couplings, method)
        assert eigensolve_shapes == []
        np.testing.assert_array_equal(again.state.amplitudes, first.state.amplitudes)

    def test_dense_path_runs_no_large_eigensolve(self, eigensolve_shapes):
        shapes = eigensolve_shapes
        state, coupling = _single()
        evolve(state, [coupling], "expm")
        assert shapes
        assert max(shape[-1] for shape in shapes) <= state.system.total

    def test_unknown_method_rejected(self):
        state, coupling = _single()
        with pytest.raises(ValueError, match="method"):
            evolve(state, [coupling], "magic")

    @pytest.mark.parametrize("method", ["shift", "expm"])
    def test_result_norm_taken_once(self, monkeypatch, method):
        """One norm pass over the result's amplitudes: in evolve, or, for a branch
        form, whose norm evolve takes from Gram matrices, when they are formed."""
        state, coupling = _single(grid=COARSE)
        sizes = []
        norm = np.linalg.norm

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        evolved = evolve(state, [coupling], method)
        amplitudes = evolved.state.amplitudes
        assert sizes.count(amplitudes.size) == 1
        assert evolved.state.norm == norm(amplitudes)

    def test_norm_guard_catches_nan(self, monkeypatch):
        # a NaN norm must fail the guard, not slip past a '>' comparison
        state, coupling = _single()
        monkeypatch.setattr(
            engine_module, "_evolve_commuting", lambda state, *_: state.tensor() * math.nan
        )
        with pytest.raises(ValueError, match="preserve the norm"):
            evolve(state, [coupling])


class TestDenseGenerator:
    """The dense oracle's generator, applied factor by factor and checked only at factor size."""

    @pytest.mark.parametrize(
        "grid, labels", [(FINE, ("A",)), (COARSE, ("A", "B"))], ids=["2x256", "2x16x16"]
    )
    def test_expm_checks_no_product_space_matrix(self, monkeypatch, grid, labels):
        state = build_initial(
            bloch_state(math.pi / 3, 0.0), [PointerSpec(lab, grid) for lab in labels]
        )
        couplings = [
            Coupling(pauli(m), lab, 0.3, 1.0) for m, lab in zip((SIGMA_X, SIGMA_Z), labels)
        ]
        checked = []
        for check in ("hermiticity_defect", "antisymmetry_defect"):

            def spied(m, _original=getattr(tensors, check)):
                checked.append(m.shape[0])
                return _original(m)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "pointerlab" and hasattr(module, check):
                    monkeypatch.setattr(module, check, spied)
        differentiation_matrix.cache_clear()  # so the factor checks run inside evolve
        evolve(state, couplings, "expm")
        assert state.state.dims.total == 512
        assert checked, "the spy saw no symmetry check at all"
        assert max(checked) <= max(state.state.dims.sizes)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-1.9, 1.9), min_size=2, max_size=2),
    )
    def test_qudit_generator_exact_and_integrators_agree(self, d, pointers, seed, strengths):
        # spectral radius 1 and |g| < 2 keep every kick inside the 16-point
        # box's containment margin of L/2 - 6 sigma = 2
        state, couplings = _random_qudit_case(d, ("A", "B")[:pointers], COARSE, seed, strengths)
        _assert_action_matches_kron(state, couplings, seed)
        assert cross_validate(state, couplings) <= 1e-12

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 3]),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-1.9, 1.9), min_size=3, max_size=3),
    )
    def test_three_pointers_integrators_agree(self, d, seed, strengths):
        # three 8-point pointers keep d * 512 within DENSE_LIMIT; the box and
        # its containment margin are those of the 16-point grid
        state, couplings = _random_qudit_case(d, ("A", "B", "C"), TINY, seed, strengths)
        _assert_action_matches_kron(state, couplings, seed)
        assert cross_validate(state, couplings) <= 1e-12

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.lists(st.floats(-1.9, 1.9), min_size=2, max_size=2))
    def test_two_factor_system_integrators_agree(self, seed, strengths):
        # the pointers sit behind two system factors, so their axes are 2 and 3
        rng = np.random.default_rng(seed)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = build_initial(
            StateVector(PAIR_DIMS, v / np.linalg.norm(v)),
            [PointerSpec("A", COARSE), PointerSpec("B", COARSE)],
        )
        couplings = [
            Coupling(PAIR_X, "A", strengths[0]),
            Coupling(PAIR_Z, "B", strengths[1]),
        ]
        _assert_action_matches_kron(state, couplings, seed)
        assert cross_validate(state, couplings) <= 1e-12

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.8, 1.9), min_size=2, max_size=2),
        st.lists(st.booleans(), min_size=2, max_size=2),
    )
    def test_expm_matches_kron_spectral_oracle(self, d, pointers, seed, sizes, flips):
        """exp(-itH) v by the Taylor steps against eigh of the kron-built H.

        The grids are fine enough that the spectral-norm bound, not the
        impulse alone, forces at least two scaling steps: one 64-point pointer
        has ||pi||_2 = 4 pi, two 16-point ones on a box of 8 have 2 pi each.
        The narrow packets keep every kick inside the containment margin.
        """
        labels = ("A", "B")[:pointers]
        strengths = [-g if flip else g for g, flip in zip(sizes, flips)]
        if pointers == 1:
            case = _random_qudit_case(d, labels, PointerGrid(64, 16.0), seed, strengths)
        else:
            case = _random_qudit_case(d, labels, PointerGrid(16, 8.0), seed, strengths, 0.3)
        state, couplings = case
        _, bound = engine_module._dense_action(state, couplings)
        assert math.ceil(bound / tensors.TAYLOR_STEP_NORM) >= 2
        h = Operator(state.state.dims, _explicit_generator(state, couplings))
        expected = unitary_from_generator(h, 1.0) @ state.state.amplitudes
        actual = evolve(state, couplings, "expm").state.amplitudes
        assert np.abs(actual - expected).max() <= 1e-12

    @pytest.mark.parametrize(
        "grid, labels", [(FINE, ("A",)), (COARSE, ("A", "B"))], ids=["2x256", "2x16x16"]
    )
    def test_expm_runs_no_fft_transform(self, monkeypatch, grid, labels):
        """The dense oracle shares no FFT with the shift integrator it checks.

        Every transform in numpy.fft is spied on; fftfreq, behind the grid's
        cached wavenumbers, is not a transform. The shift run afterwards
        shows that the spy sees the transforms it is meant to see.
        """
        state = build_initial(
            bloch_state(math.pi / 3, 0.0), [PointerSpec(lab, grid) for lab in labels]
        )
        couplings = [
            Coupling(pauli(m), lab, 0.3, 1.0) for m, lab in zip((SIGMA_X, SIGMA_Z), labels)
        ]
        transforms = []
        for name in np.fft.__all__:
            if not name.endswith(("freq", "shift")):

                def spied(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
                    transforms.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(np.fft, name, spied)
        differentiation_matrix.cache_clear()
        momentum_operator.cache_clear()
        engine_module._packet_spectrum.cache_clear()
        evolve(state, couplings, "expm")
        assert transforms == []
        evolve(state, couplings, "shift")
        assert transforms, "the spy saw no transform in the shift integrator either"

    def test_expm_working_set_at_the_dense_limit(self):
        """One dense evolve of a qubit on 2048 points, the most DENSE_LIMIT admits.

        From a cleared cache it holds D, 2048^2 reals or 32 MiB, and state-
        sized buffers: the oracle's three, the Taylor series' copy, term and
        magnitudes, and evolve's copy. Twelve states bound them. With the
        FFT-built complex momentum the peak was about 320 MiB.
        """
        grid = PointerGrid(points=2048, length=64.0)
        state, coupling = _single(grid=grid)
        state_bytes = state.state.amplitudes.nbytes
        differentiation_matrix.cache_clear()
        tracemalloc.start()
        try:
            evolve(state, [coupling], "expm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            differentiation_matrix.cache_clear()
        assert peak <= grid.points**2 * 8 + 12 * state_bytes

    def test_expm_allocates_no_product_space_matrix(self):
        # the kron of the 4 x 16 x 16 analysis state is a 16 MB matrix; the
        # factor-wise products stay near the 16 kB state
        state = build_initial(
            StateVector(PAIR_DIMS, np.ones(4) / 2.0),
            [PointerSpec("A", COARSE), PointerSpec("B", COARSE)],
        )
        couplings = [Coupling(PAIR_X, "A", 0.3), Coupling(PAIR_Z, "B", 0.3)]
        tracemalloc.start()
        try:
            evolve(state, couplings, "expm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _explicit_generator(state, couplings):
    """sum_j g_j kron(A_j, ..., pi_j, ...) on the state's factors, built whole."""
    n = state.state.dims.total
    h = np.zeros((n, n), dtype=complex)
    for c in couplings:
        factors = [c.strength * c.observable.matrix]
        for spec in state.pointers:
            if spec.label == c.pointer:
                factors.append(momentum_operator(spec.grid, spec.label).matrix)
            else:
                factors.append(np.eye(spec.grid.points))
        h += reduce(np.kron, factors)
    return h


def _spectral_norm(state, couplings, h):
    """||H||_2 from the factors, certified on the kron-built h.

    Each pointer's momentum matrix is diagonalized by its own ``eigh``, pi =
    Q diag(mu) Q-dagger, so the kron of those Q takes H to blocks over the
    joint momentum grid: sum_j g_j mu_j A_j, with mu_j the eigenvalue of
    coupling j's pointer. ||H||_2 is the largest |eigenvalue| of those
    system-sized blocks, and the eigenvector that attains it, kron'ed with
    the pointers' eigenvectors, must be an eigenvector of h itself.
    """
    labels = [spec.label for spec in state.pointers]
    bases = [
        np.linalg.eigh(momentum_operator(spec.grid, spec.label).matrix)
        for spec in state.pointers
    ]
    d = state.system.total
    blocks = np.zeros(tuple(len(mu) for mu, _ in bases) + (d, d), dtype=complex)
    for c in couplings:
        axis = labels.index(c.pointer)
        mu = bases[axis][0].reshape((-1,) + (1,) * (blocks.ndim - axis - 1))
        blocks = blocks + mu * (c.strength * c.observable.matrix)
    w, v = np.linalg.eigh(blocks)
    where = np.unravel_index(np.abs(w).argmax(), w.shape)
    x = v[where[:-1]][:, where[-1]]
    for (_, q), i in zip(bases, where[:-1]):
        x = np.kron(x, q[:, i])
    assert np.abs(h @ x - w[where] * x).max() <= 1e-12 * abs(w[where])
    return abs(w[where])


def _assert_action_matches_kron(state, couplings, seed):
    """The dense oracle's factor-wise H v and spectral-norm bound against the kron-built H."""
    h = _explicit_generator(state, couplings)
    apply_h, bound = engine_module._dense_action(state, couplings)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    expected = h @ v
    assert np.abs(apply_h(v) - expected).max() <= 1e-13 * np.abs(expected).max()
    norm = _spectral_norm(state, couplings, h)
    assert bound >= norm * (1.0 - 1e-12)
    if len(couplings) == 1:
        assert bound == pytest.approx(norm, rel=1e-12)


def _random_qudit_case(d, labels, grid, seed, strengths, sigma=1.0):
    """A random qudit state and one random Hermitian coupling per pointer.

    Each observable is scaled to spectral radius 1, so a kick is at most |g|.
    """
    rng = np.random.default_rng(seed)
    dims = DimensionSpec.of(("system", d))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    specs = [PointerSpec(lab, grid, sigma=sigma) for lab in labels]
    state = build_initial(StateVector(dims, v / np.linalg.norm(v)), specs)
    couplings = []
    for lab, g in zip(labels, strengths):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = m + m.conj().T
        h = h / np.abs(np.linalg.eigvalsh(h)).max()
        couplings.append(Coupling(Operator(dims, h), lab, g, 1.0))
    return state, couplings


SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)


class TestQubitBlocks:
    """Noncommuting qubit couplings: the closed-form SU(2) step, no eigensolve."""

    def test_only_qudit_blocks_are_eigensolved(self, eigensolve_shapes):
        shapes = eigensolve_shapes
        specs = [PointerSpec("A", FINE), PointerSpec("B", FINE)]
        qubit = build_initial(bloch_state(math.pi / 3, 0.0), specs)
        pair = [Coupling(pauli(SIGMA_X), "A", 0.3), Coupling(pauli(SIGMA_Z), "B", 0.3)]
        assert evolve(qubit, pair).state.dims.sizes == (2, 256, 256)
        assert shapes and all(len(shape) <= 2 for shape in shapes)

        shapes.clear()
        dims = DimensionSpec.of(("system", 3))
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        qutrit = build_initial(StateVector(dims, np.ones(3) / math.sqrt(3)), specs)
        pair = [
            Coupling(Operator(dims, SPIN1_X), "A", 0.3),
            Coupling(Operator(dims, SPIN1_Z), "B", 0.3),
        ]
        evolve(qutrit, pair)
        assert [shape for shape in shapes if len(shape) > 2] == [(16, 16, 3, 3)]

    @staticmethod
    def _check_closed_form(points, seed, projector, t, order):
        """Every momentum block against exp(-i t h(k)) from eigh, c0 != 0 and sigma_y included.

        The couplings go to the pointers in the drawn order: a projector
        (trace 1) or a random Hermitian matrix (any trace, a sigma_y part),
        sigma_z, and sigma_y where there is a third pointer.
        """
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        first = np.full((2, 2), 0.5) if projector else m + m.conj().T
        labels = "ABC"[: len(points)]
        specs = [PointerSpec(lab, PointerGrid(n, 16.0)) for lab, n in zip(labels, points)]
        state = build_initial(bloch_state(math.pi / 3, 0.7), specs)
        which = [labels[i] for i in order if i < len(labels)]
        couplings = [
            Coupling(pauli(matrix), label, rng.uniform(-1, 1), t)
            for matrix, label in zip((first, SIGMA_Z, SIGMA_Y), which)
        ]
        ft = rng.normal(size=(2, *points)) + 1j * rng.normal(size=(2, *points))
        got = engine_module._qubit_blocks(ft.copy(), state, couplings, t)
        h = sum(
            engine_module._kick(state, c, len(points))[..., None, None] * c.observable.matrix
            for c in couplings
        )
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * t * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
        want = np.einsum("...ij,j...->i...", u, ft)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(ft).max()
        # h(0) = 0, so the k = 0 block is left exactly as it was
        origin = (slice(None),) + (0,) * len(points)
        assert np.array_equal(got[origin], ft[origin])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.2, 1.5), st.permutations(range(2))
    )
    def test_closed_form_matches_batched_eigh(self, seed, projector, t, order):
        """One tile: 16 x 16 points."""
        self._check_closed_form((16, 16), seed, projector, t, order)

    # Two tiles (64 x 128), sixteen (256 x 256), and three pointers whose
    # rows of 64 x 128 points each exceed a tile. Fewer draws: the batched
    # eigh over 65,536 blocks takes about 0.15 s a draw.
    @pytest.mark.parametrize(
        "points", [(64, 128), (256, 256), (8, 64, 128)], ids=lambda p: "x".join(map(str, p))
    )
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.2, 1.5), st.permutations(range(3))
    )
    def test_tiled_closed_form_matches_batched_eigh(self, points, seed, projector, t, order):
        """Several tiles, and rows larger than a tile, against the same oracle."""
        self._check_closed_form(points, seed, projector, t, order)

    def test_no_cosine_or_sine_and_one_tile_of_buffers(self, monkeypatch):
        """The blocks take cos and sin from one tangent, and hold about one tile's buffers.

        A 2 x 256 x 256 call is 2 MiB of amplitudes; a whole-grid temporary
        would be 0.5 MiB real or 1 MiB complex, against about 0.42 MiB for
        a tile's buffers at numpy 2.4.
        """
        specs = [PointerSpec("A", FINE), PointerSpec("B", FINE)]
        state = build_initial(bloch_state(math.pi / 3, 0.7), specs)
        couplings = [
            Coupling(pauli(0.5 * np.eye(2) + 0.5 * SIGMA_X), "A", 0.4),
            Coupling(pauli(SIGMA_Z), "B", 0.3),
        ]
        rng = np.random.default_rng(7)
        ft = rng.normal(size=(2, 256, 256)) + 1j * rng.normal(size=(2, 256, 256))
        engine_module._qubit_blocks(ft, state, couplings, 1.0)  # warms the grids' caches
        calls = []
        for name in ("cos", "sin"):

            def spied(*args, _name=name, _original=getattr(np, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, spied)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            engine_module._qubit_blocks(ft, state, couplings, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak - start <= 0.5 * 2**20

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.5 * np.eye(2) + 0.5 * SIGMA_X, "A", 0.4), (SIGMA_Z, "B", 0.3)],
            [(SIGMA_Y, "A", 0.4), (SIGMA_Z, "B", 0.3)],
            [(SIGMA_X, "A", 0.4), (SIGMA_Z, "A", 0.3)],
            [(SIGMA_X, "A", 0.0), (SIGMA_Z, "B", 0.3)],
            [(SIGMA_X, "A", 0.4), (SIGMA_Z, "B", -0.3)],
        ],
        ids=["trace-part", "sigma-y", "same-pointer", "zero-strength", "opposite-signs"],
    )
    def test_edge_cases_match_dense_oracle(self, monkeypatch, pairs):
        calls = []

        def spied(*args, _original=engine_module._qubit_blocks):
            calls.append(args[0].shape)
            return _original(*args)

        monkeypatch.setattr(engine_module, "_qubit_blocks", spied)
        labels = sorted({label for _, label, _ in pairs})
        state = build_initial(
            bloch_state(math.pi / 3, 0.7), [PointerSpec(lab, COARSE) for lab in labels]
        )
        couplings = [Coupling(pauli(m), lab, g) for m, lab, g in pairs]
        assert cross_validate(state, couplings) <= 1e-12
        assert calls == [state.tensor().shape]


class TestProductStart:
    """A state with no history is transformed from its packets' 1-D spectra."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_spectrum_matches_fftn_of_the_built_tensor(self, d, pointers, seed, data):
        axes = tuple(range(1, 1 + pointers))
        branched = data.draw(st.booleans())
        rng = np.random.default_rng(seed)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        specs = [
            PointerSpec(lab, COARSE, x0=rng.uniform(-1.0, 1.0), sigma=rng.uniform(0.5, 1.0))
            for lab in ("A", "B", "C")[:pointers]
        ]
        system = StateVector(DimensionSpec.of(("system", d)), v / np.linalg.norm(v))
        state = build_initial(system, specs)
        if branched:
            # a commuting phase keeps the branch form, with d rows per pointer
            observables = commuting_family(rng, d, pointers)
            state = evolve(
                state,
                [Coupling(op, s.label, rng.uniform(-0.5, 0.5)) for op, s in zip(observables, specs)],
            )
            assert state.branches is not None and state.history
        want = np.fft.fftn(state.tensor(), axes=axes)
        scale = np.abs(want).max()
        got = engine_module._spectrum(state)
        assert np.abs(got - want).max() <= 1e-14 * scale
        # the same amplitudes without branch form are transformed as they stand
        formed = dataclasses.replace(state, _evolved=state.state)
        assert formed.branches is None
        assert np.abs(engine_module._spectrum(formed) - want).max() <= 1e-14 * scale

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2]),
        st.data(),
    )
    def test_series_matches_dense_action(self, d, pointers, seed, order, data):
        """Product-start T_m against m applications of the dense oracle's H.

        Couplings land on any pointer, two on one included, and pointers
        without a coupling keep their bare packet.
        """
        labels = ("A", "B", "C")[:pointers]
        on = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3))
        rng = np.random.default_rng(seed)
        dims = DimensionSpec.of(("system", d))
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        grid = TINY if pointers == 3 else COARSE
        specs = [
            PointerSpec(lab, grid, x0=rng.uniform(-1.0, 1.0), sigma=rng.uniform(0.5, 1.0))
            for lab in labels
        ]
        state = build_initial(StateVector(dims, v / np.linalg.norm(v)), specs)
        t = rng.uniform(0.5, 1.5)
        couplings = []
        for lab in on:
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            couplings.append(Coupling(Operator(dims, m + m.conj().T), lab, rng.uniform(-1, 1), t))
        with (
            mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft,
            mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as ifft,
        ):
            terms = engine_module.partial_sums(state, couplings, order)
        # only the packets' 1-D transforms run, never one over the state
        calls = fft.call_args_list + ifft.call_args_list
        assert all(np.ndim(call.args[0]) == 1 for call in calls)
        apply_h, _ = engine_module._dense_action(state, couplings)
        want = state.state.amplitudes
        for m, term in enumerate(terms, 1):
            want = apply_h(want) * (-1j * t / m)
            assert np.abs(term - want).max() <= 1e-12 * np.abs(want).max()
        assert len(terms) == order

    def test_build_is_the_kron_chain_read_only(self):
        system = bloch_state(0.7, 0.2)
        specs = [PointerSpec("A", COARSE, x0=0.3), PointerSpec("B", FINE, x0=-0.2, sigma=0.8)]
        state = build_initial(system, specs)
        want = system.amplitudes
        for spec in specs:
            want = np.kron(want, gaussian_state(spec).amplitudes)
        np.testing.assert_array_equal(state.state.amplitudes, want)
        assert not state.state.amplitudes.flags.writeable
        assert state.state.dims.labels[1:] == ("A", "B")

    def test_packet_spectra_are_shared_read_only(self):
        spec = PointerSpec("A", FINE, x0=0.3)
        spectrum = engine_module._packet_spectrum(spec)
        assert engine_module._packet_spectrum(spec) is spectrum
        assert not spectrum.flags.writeable

    def test_packets_are_shared_read_only(self):
        spec = PointerSpec("A", FINE, x0=0.3)
        packet = engine_module._packet(spec)
        assert engine_module._packet(spec) is packet
        with pytest.raises(ValueError, match="read-only"):
            packet.amplitudes[0] = 1.0
        np.testing.assert_array_equal(packet.amplitudes, gaussian_state(spec).amplitudes)
        state = build_initial(bloch_state(0.0, 0.0), [spec])
        np.testing.assert_array_equal(state.tensor()[0], packet.amplitudes)

    def test_cache_keys_compare_and_hash_as_before(self):
        """Grids, specs and dims key the caches; filling them moves no key's hash or equality."""
        grid = PointerGrid(64, 16.0)
        spec = PointerSpec("A", grid, 0.25)
        keys = (grid, spec, spec.dims())
        hashes = tuple(map(hash, keys))
        build_initial(bloch_state(0.3, 0.0), [spec])
        engine_module._packet_spectrum(spec)
        momentum_operator(grid, "A").spectrum
        keys[2].labels, keys[2].sizes, keys[2].total
        fresh_grid = PointerGrid(64, 16.0)
        fresh = (fresh_grid, PointerSpec("A", fresh_grid, 0.25), DimensionSpec.of(("A", 64)))
        assert tuple(map(hash, keys)) == hashes == tuple(map(hash, fresh))
        assert keys == fresh
        assert spec != PointerSpec("A", grid, 0.5) and grid != PointerGrid(64, 12.0)
        assert engine_module._packet(fresh[1]) is engine_module._packet(spec)


class TestCommutingBranches:
    """A commuting phase on the product state, written from its branches' 1-D factors."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_branches_match_dense_oracle_and_momentum_blocks(self, d, pointers, seed, data):
        """Degenerate commuting spectra, two couplings on one pointer included.

        A pointer left with more distinct kicks, one row each, than grid
        points sends the phase to the momentum blocks instead, which also
        serve a commuting phase on a state without branch form.
        """
        labels = ("A", "B", "C")[:pointers]
        on = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3))
        rng = np.random.default_rng(seed)
        grid = TINY if pointers == 3 else COARSE
        specs = [PointerSpec(lab, grid, x0=rng.uniform(-0.1, 0.1)) for lab in labels]
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        system = StateVector(DimensionSpec.of(("system", d)), v / np.linalg.norm(v))
        state = build_initial(system, specs)
        # offsets and kicks on one pointer sum to less than the containment margin of 2
        couplings = [
            Coupling(op, lab, rng.uniform(-0.6, 0.6))
            for op, lab in zip(commuting_family(rng, d, len(on)), on)
        ]
        branched = all(
            len(branch_kicks(np.zeros(1), couplings, lab)) <= grid.points for lab in labels
        )
        with mock.patch.object(
            engine_module, "_evolve_blocks", wraps=engine_module._evolve_blocks
        ) as spy:
            assert cross_validate(state, couplings) <= 1e-12
        assert spy.called != branched
        if branched:
            # the same product state as amplitudes takes the momentum blocks
            formed = dataclasses.replace(state, _evolved=state.state)
            got = evolve(state, couplings).state.amplitudes
            want = engine_module._evolve_commuting(formed, couplings, 1.0).reshape(-1)
            assert np.abs(got - want).max() <= 1e-15

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_branch_sum_is_the_sum_of_outer_products(self, branches, d, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(4, 9, size=len(branches))
        core = rng.normal(size=(*branches, d)) + 1j * rng.normal(size=(*branches, d))
        factors = [
            rng.normal(size=(b, n)) + 1j * rng.normal(size=(b, n))
            for b, n in zip(branches, sizes)
        ]
        want = np.zeros((d, *sizes), dtype=complex)
        for index in np.ndindex(*branches):
            want += reduce(
                np.multiply.outer, [f[b] for f, b in zip(factors, index)], core[index]
            )
        got = engine_module._branch_sum(core, factors)
        assert got.shape == want.shape and got.flags.writeable
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _readouts(state):
    """Every readout the scenarios take from a state's record, by name."""
    labels = [spec.label for spec in state.pointers]
    positions = {lab: state.pointer_spec(lab).grid.positions() for lab in labels}
    coeffs, rank = engine_module.system_schmidt(state)
    out = {
        "norm": state.norm,
        "system_density": system_density(state).matrix,
        "schmidt": coeffs,
        "rank": rank,
    }
    for lab in labels:
        out[f"mean_{lab}"] = pointer_mean(state, lab)
    for a, b in zip(labels, labels[1:]):
        out[f"cross_{a}{b}"] = pointer_cross_mean(state, a, b)
        # conditioned on pointer b landing above its grid's center
        above = {b: (positions[b] > 0.0).astype(float)}
        probability = engine_module.pointer_expectation(state, above)
        conditioned = engine_module.pointer_expectation(state, {**above, a: positions[a]})
        out[f"conditioned_{a}"] = conditioned / probability
    return out


class TestFactoredRecord:
    """Commuting phases keep the branch form; the readouts read its compressed core."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(0, 2), min_size=1, max_size=3)),
            min_size=1,
            max_size=3,
        ),
    )
    # a commuting phase on a state already in branch form
    @example(d=2, pointers=2, seed=1, phases=[(False, [0]), (False, [1, 0])])
    # a commuting phase after a noncommuting one
    @example(d=3, pointers=2, seed=2, phases=[(True, [0, 1]), (False, [1])])
    # more rows than grid points: 3 x 3 distinct kicks on an 8-point pointer
    @example(d=3, pointers=3, seed=9, phases=[(False, [2]), (False, [0, 0])])
    def test_record_matches_dense_oracle_and_formed_readouts(self, d, pointers, seed, phases):
        """Each phase against the dense oracle from the same input, and the
        compressed readouts against the same readouts on the formed amplitudes.

        A phase is (noncommuting, pointer indices); a noncommuting one has at
        least two couplings with random Hermitian observables.
        """
        rng = np.random.default_rng(seed)
        labels = ("A", "B", "C")[:pointers]
        grid = TINY if pointers == 3 else COARSE
        specs = [PointerSpec(lab, grid, x0=rng.uniform(-0.1, 0.1)) for lab in labels]
        dims = DimensionSpec.of(("system", d))
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        state = build_initial(StateVector(dims, v / np.linalg.norm(v)), specs)
        # each pointer's distinct row kicks, None once the form is left
        kicks = [np.zeros(1)] * pointers
        for noncommuting, on in phases:
            on = [labels[i % pointers] for i in on]
            if noncommuting:
                on = on if len(on) > 1 else on * 2
                observables = []
                for _ in on:
                    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    m = m + m.conj().T
                    observables.append(Operator(dims, m / np.abs(np.linalg.eigvalsh(m)).max()))
            else:
                observables = commuting_family(rng, d, len(on))
            # at most 9 kicks of 0.2 on one pointer stay inside its margin of 2
            phase = [Coupling(op, lab, rng.uniform(-0.2, 0.2)) for op, lab in zip(observables, on)]
            dense = evolve(state, phase, "expm")
            state = evolve(state, phase)
            grown = None if kicks is None or noncommuting else [
                branch_kicks(k, phase, lab) for k, lab in zip(kicks, labels)
            ]
            kicks = grown if grown and max(map(len, grown)) <= grid.points else None
            form = state.branches
            assert (form is None) == (kicks is None)
            if form is not None:
                for got, want in zip(form.kicks, kicks):
                    np.testing.assert_array_equal(np.sort(got), want)
                assert [len(f) for f in form.factors] == list(map(len, kicks))
            gap = np.abs(state.state.amplitudes - dense.state.amplitudes).max()
            assert gap <= 1e-12
        # a fresh copy in branch form forms nothing for its compressed columns
        lazy = dataclasses.replace(state)
        lazy.columns
        assert ("state" in vars(lazy)) == (kicks is None)
        formed = dataclasses.replace(state, _evolved=state.state)
        got, want = _readouts(lazy), _readouts(formed)
        assert got["rank"] == want["rank"]
        for name, value in want.items():
            assert np.abs(got[name] - value).max() <= 1e-13, name
        # and the Schmidt coefficients as tensors.schmidt takes them from the amplitudes
        cut = (dims.labels, labels)
        coeffs, rank = tensors.schmidt(state.state, cut)
        assert rank == got["rank"] and np.abs(coeffs - got["schmidt"]).max() <= 1e-13


# (points, length) of readout grids above one kernel tile, where the window route runs
WINDOW_GRIDS = [(128, 16.0), (256, 16.0), (256, 24.0), (512, 32.0)]


def _hermitian(rng, kind):
    """A qubit observable of spectral norm 1: sigma_y, or random with a trace part."""
    if kind == "sigma_y":
        return Operator(DimensionSpec.of(("system", 2)), SIGMA_Y)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = m + m.conj().T + rng.normal() * np.eye(2)
    return Operator(DimensionSpec.of(("system", 2)), m / np.abs(np.linalg.eigvalsh(m)).max())


class TestWindowRoute:
    """A noncommuting qubit phase on two readout-grid pointers keeps a window form."""

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(
        st.sampled_from(WINDOW_GRIDS),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["random", "sigma_y"]),
    )
    # a branch-form input at the largest grid
    @example(grid=(512, 32.0), seed=3, branched=True, kind="random")
    def test_window_route_matches_blocks(self, grid, seed, branched, kind):
        """Against ``_evolve_blocks`` from the same input: the largest amplitude
        gap is within what the form drops, delta, which is within
        WINDOW_TAIL_TOL of the norm, and norm^2 + delta^2 is the input's to
        1e-14, about 45 eps: over 320 draws it was off by up to 4.2e-15,
        and the blocks' own norm^2 by up to 3.2e-14."""
        rng = np.random.default_rng(seed)
        grid = PointerGrid(*grid)
        dims = DimensionSpec.of(("system", 2))
        specs = [
            PointerSpec(lab, grid, x0=rng.uniform(-0.5, 0.5), sigma=rng.uniform(0.8, 1.0))
            for lab in "AB"
        ]
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = build_initial(StateVector(dims, v / np.linalg.norm(v)), specs)
        if branched:
            first = zip(commuting_family(rng, 2, 2), "AB")
            state = evolve(state, [Coupling(op, lab, rng.uniform(-0.3, 0.3)) for op, lab in first])
            assert state.branches.kicks is not None
        observables = [_hermitian(rng, kind), _hermitian(rng, "random")]
        phase = [Coupling(op, lab, rng.uniform(-0.4, 0.4)) for op, lab in zip(observables, "AB")]
        assert not commutes(*observables)
        want = engine_module._evolve_blocks(state, phase, 1.0)
        got = evolve(state, phase)
        form = got.branches
        assert form is not None and form.kicks is None
        delta = form.tail
        assert delta <= engine_module.WINDOW_TAIL_TOL * state.norm
        assert abs(form.norm**2 + delta**2 - state.norm**2) <= 1e-14
        assert np.abs(got.tensor() - want).max() <= delta + 1e-14

    def test_guard_sends_small_grids_to_blocks(self):
        """One kernel tile or less, windows whose rows would outnumber the grid
        (79 of 128 momenta in a 64-long box), a single pointer, or a qudit runs
        the blocks."""
        x, z = pauli(SIGMA_X), pauli(SIGMA_Z)
        phase = [Coupling(x, "A", 0.1), Coupling(z, "B", 0.1)]
        for grid in (PointerGrid(64, 16.0), PointerGrid(128, 64.0)):
            two = [PointerSpec(lab, grid) for lab in "AB"]
            assert evolve(build_initial(bloch_state(1.0, 0.0), two), phase).branches is None
        one = build_initial(bloch_state(1.0, 0.0), [PointerSpec("A", PointerGrid(8192, 64.0))])
        assert evolve(one, [Coupling(x, "A", 0.1), Coupling(z, "A", 0.1)]).branches is None
        big = [PointerSpec(lab, PointerGrid(128, 16.0)) for lab in "AB"]
        pair = build_initial(StateVector(PAIR_DIMS, np.array([0.5, 0.5, 0.5, 0.5])), big)
        z_first = Operator(PAIR_DIMS, np.kron(SIGMA_Z, np.eye(2)))
        phase = [Coupling(PAIR_X, "A", 0.1), Coupling(z_first, "B", 0.1)]
        assert evolve(pair, phase).branches is None

    @pytest.mark.parametrize("tail, windowed", [(7e-15, True), (1.4e-14, False)])
    def test_tail_near_its_bound(self, tail, windowed):
        """Planted tails of 0.7 and 1.4 times WINDOW_TAIL_TOL (1e-14): each
        pointer's row is a plane wave of its window plus one outside it of
        amplitude e, so the part off the cross region has norm e^2."""
        e = math.sqrt(tail)
        grid = PointerGrid(256, 16.0)
        specs = [PointerSpec(lab, grid) for lab in "AB"]
        rows = []
        for spec in specs:
            _, outside, waves = engine_module._window(spec)
            off = np.fft.ifft(np.eye(grid.points)[outside[0]]) * math.sqrt(grid.points)
            rows.append((math.sqrt(1 - e * e) * waves[0] + e * off)[None])
        system = bloch_state(1.0, 0.0)
        core = system.amplitudes.reshape(1, 1, 2)
        norm = engine_module._gram_norm(core, rows)
        form = engine_module._Branches(core, tuple(rows), None, norm)
        state = dataclasses.replace(build_initial(system, specs), _evolved=form)
        phase = [Coupling(pauli(SIGMA_X), "A", 0.05), Coupling(pauli(SIGMA_Z), "B", 0.05)]
        evolved = evolve(state, phase)
        assert (evolved.branches is not None) == windowed
        if windowed:
            assert abs(evolved.branches.tail - tail) <= 1e-6 * tail

    def test_readouts_and_distance_read_the_momenta(self):
        """The window form's readouts match the formed amplitudes', and a
        branch form's distance to it matches the distance to them."""
        specs = [PointerSpec("A", FINE, x0=0.3), PointerSpec("B", FINE, x0=-0.2)]
        state = build_initial(bloch_state(1.0, 0.4), specs)
        phase = [Coupling(pauli(SIGMA_X), "A", 0.3), Coupling(pauli(SIGMA_Y), "B", 0.2)]
        lazy = evolve(state, phase)
        assert lazy.branches.kicks is None
        formed = dataclasses.replace(lazy, _evolved=dataclasses.replace(lazy).state)
        got, want = _readouts(lazy), _readouts(formed)
        assert "state" not in vars(lazy)
        assert got["rank"] == want["rank"]
        for name, value in want.items():
            assert np.abs(got[name] - value).max() <= 1e-13, name
        cores, factors = engine_module._series_branches(state, phase, 2)
        core = cores[0] + cores[1] + cores[2]
        exact = np.linalg.norm(engine_module._branch_sum(core, factors) - formed.tensor())
        got = engine_module._branch_distance(lazy, core, factors)
        assert "state" not in vars(lazy)
        assert abs(got - exact) <= 1e-15 + lazy.branches.tail

    def test_chained_phases_keep_the_window(self):
        """A second phase on a window form, commuting or not, keeps it, and
        matches the blocks run on the formed amplitudes."""
        specs = [PointerSpec(lab, PointerGrid(128, 16.0)) for lab in "AB"]
        state = build_initial(bloch_state(2.0, 0.1), specs)
        first = [Coupling(pauli(SIGMA_X), "A", 0.2), Coupling(pauli(SIGMA_Z), "B", 0.2)]
        state = evolve(state, first)
        for phase in (
            [Coupling(pauli(SIGMA_Z), "A", 0.1), Coupling(pauli(SIGMA_Z), "B", -0.1)],
            [Coupling(pauli(SIGMA_Y), "A", 0.1), Coupling(pauli(SIGMA_X), "B", 0.1)],
        ):
            formed = dataclasses.replace(state, _evolved=state.state)
            want = engine_module._evolve_blocks(formed, phase, 1.0)
            state = evolve(state, phase)
            assert state.branches.kicks is None
            assert np.abs(state.tensor() - want).max() <= state.branches.tail + 1e-14


class TestLazyProduct:
    """A state with no history forms its amplitudes only when they are read."""

    @pytest.mark.parametrize(
        "pairs",
        [[(SIGMA_Z, "A"), (SIGMA_Z, "B")], [(SIGMA_X, "A"), (SIGMA_Z, "B")]],
        ids=["commuting", "noncommuting"],
    )
    def test_shift_and_series_leave_the_product_unformed(self, pairs):
        specs = [PointerSpec("A", FINE), PointerSpec("B", FINE)]
        initial = build_initial(bloch_state(1.0, 0.3), specs)
        couplings = [Coupling(pauli(m), lab, 0.3) for m, lab in pairs]
        evolved = evolve(initial, couplings)
        partial_sums(initial, couplings, 2)
        assert "state" not in vars(initial)
        assert evolved.state.dims is initial.state.dims
        assert evolved.state.normalized and abs(evolved.state.norm - 1.0) < 1e-12

    def test_product_formed_once_read_only(self):
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        initial = build_initial(bloch_state(1.0, 0.3), specs)
        first = initial.state
        assert initial.state is first
        assert not first.amplitudes.flags.writeable
        again = build_initial(bloch_state(1.0, 0.3), specs).state
        np.testing.assert_array_equal(again.amplitudes, first.amplitudes)
        assert again.dims is first.dims

    def test_leaking_packet_refused_when_built(self):
        with pytest.raises(LeakageError, match="out-of-box"):
            # inside the containment margin, but its tails leave the box
            build_initial(bloch_state(0.0, 0.0), [PointerSpec("A", TINY, x0=1.9)])


class TestCouplingValidation:
    @pytest.mark.parametrize("strength", [math.nan, math.inf])
    def test_rejects_nonfinite_strength(self, strength):
        with pytest.raises(ValueError, match="strength must be finite"):
            Coupling(pauli(SIGMA_Z), "A", strength, 1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_rejects_bad_duration(self, duration):
        with pytest.raises(ValueError, match="duration must be finite and nonnegative"):
            Coupling(pauli(SIGMA_Z), "A", 0.2, duration)


class TestCommutes:
    def test_paulis(self):
        assert commutes(pauli(SIGMA_Z), pauli(SIGMA_Z))
        assert not commutes(pauli(SIGMA_X), pauli(SIGMA_Z))


def _truncated(state, couplings, order):
    """The order-``order`` truncation psi + T_1 + ... of the series, as amplitudes."""
    terms = partial_sums(state, couplings, order)
    return sum(terms, state.state.amplitudes)


class TestPerturbative:
    def test_truncation_overshoots_the_norm(self):
        state, coupling = _single()
        # the truncated series overshoots the unit sphere at second order
        assert np.linalg.norm(_truncated(state, [coupling], 1)) > 1.0

    def test_rejects_other_orders(self):
        state, coupling = _single()
        with pytest.raises(ValueError, match="order"):
            partial_sums(state, [coupling], 3)

    def test_expands_only_the_product_state(self):
        state, coupling = _single()
        terms = partial_sums(state, [coupling], 2)
        assert isinstance(terms, list) and len(terms) == 2
        with pytest.raises(ValueError, match="no history"):
            partial_sums(evolve(state, [coupling]), [coupling], 1)

    def test_truncation_error_scales_with_order(self):
        state, coupling_full = _single(g=0.1)
        state_half, coupling_half = _single(g=0.05)

        def defect(st, c, order):
            exact = evolve(st, [c])
            return float(np.linalg.norm(exact.state.amplitudes - _truncated(st, [c], order)))

        r1 = defect(state, coupling_full, 1) / defect(state_half, coupling_half, 1)
        r2 = defect(state, coupling_full, 2) / defect(state_half, coupling_half, 2)
        assert 3.5 <= r1 <= 4.5
        assert 7.0 <= r2 <= 9.0


class TestDensities:
    def test_apparatus_density_matches_partial_trace(self):
        # independent route: outer product of the full state, then trace
        system = bloch_state(math.pi / 3, 0.0)
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(system, specs)
        couplings = [
            Coupling(pauli(SIGMA_X), "A", 0.4, 1.0),
            Coupling(pauli(SIGMA_Z), "B", 0.4, 1.0),
        ]
        evolved = evolve(state, couplings)
        direct = apparatus_density(evolved)
        via_trace = partial_trace(pure_density(evolved.state), evolved.state.dims, ["A", "B"])
        assert np.abs(direct.matrix - via_trace).max() < 1e-12

    def test_system_density_traces_to_one(self):
        state, coupling = _single()
        evolved = evolve(state, [coupling])
        rho = system_density(evolved)
        assert abs(rho.trace - 1.0) < 1e-12

    def test_densities_keep_their_factors(self):
        state, coupling = _single(grid=COARSE)
        evolved = evolve(state, [coupling])
        # a branch form nobody formed keeps its compressed core, whose Gram
        # matrix is m m-dagger; formed amplitudes are their own core
        core = system_density(evolved).factors
        m = evolved.matrix()
        np.testing.assert_array_equal(apparatus_density(evolved).factors, m.T)
        assert core.shape == (2, 2)
        np.testing.assert_allclose(core @ core.conj().T, m @ m.conj().T, atol=1e-15)
        formed = dataclasses.replace(evolved, _evolved=evolved.state)
        np.testing.assert_array_equal(system_density(formed).factors, m)
        again = evolve(state, [coupling])
        again.state  # a branch form read once is its amplitudes from then on
        np.testing.assert_array_equal(system_density(again).factors, m)
        selected = postselect(evolved, bloch_state(math.pi / 4, 0.0)).apparatus
        assert selected.factors.shape == (COARSE.points, 1)
        v = bloch_state(math.pi / 4, 0.0).amplitudes.conj() @ m
        np.testing.assert_allclose(selected.matrix, np.outer(v, v.conj()), atol=1e-16)

    def test_cross_moment_needs_two_pointers(self):
        state, coupling = _single()
        evolved = evolve(state, [coupling])
        with pytest.raises(ValueError, match="distinct"):
            pointer_cross_mean(evolved, "A", "A")


class TestWeakValue:
    def test_real_part_frozen(self):
        initial = bloch_state(math.pi / 2, 0.0)
        final = bloch_state(math.pi / 4, 0.0)
        wv = weak_value(pauli(SIGMA_Z), initial, final)
        assert abs(wv.value.real - TAN_PI_8) < 1e-12
        assert abs(wv.value.imag) < 1e-12

    def test_complex_value_frozen(self):
        initial = bloch_state(math.pi / 2, math.pi / 2)  # (|up> + i|down>)/sqrt(2)
        final = bloch_state(math.pi / 2, 0.0)  # (|up> + |down>)/sqrt(2)
        wv = weak_value(pauli(SIGMA_Z), initial, final)
        assert abs(wv.value - (-1j)) < 1e-12

    def test_orthogonal_pair_rejected(self):
        initial = bloch_state(0.0, 0.0)
        final = bloch_state(math.pi, 0.0)
        with pytest.raises(OrthogonalPostselection):
            weak_value(pauli(SIGMA_Z), initial, final)


class TestPostselect:
    def test_projective_case_frozen(self):
        # selecting the coupled eigenstate reads its eigenvalue exactly:
        # probability cos^2(pi/6) = 3/4, conditional mean x0 + impulse
        state, coupling = _single(theta=math.pi / 3, g=0.1)
        evolved = evolve(state, [coupling])
        result = postselect(evolved, bloch_state(0.0, 0.0))
        assert abs(result.probability - 0.75) < 1e-10
        assert abs(result.normalized_mean["A"] - 0.1) < 1e-10
        assert abs(result.unnormalized_mean["A"] - 0.075) < 1e-10

    def test_probability_matches_overlap_formula(self):
        # closed form: (1 + sin(pi/4) exp(-(gt)^2 / 2 sigma^2)) / 2
        state, coupling = _single(theta=math.pi / 2, g=0.01)
        evolved = evolve(state, [coupling])
        result = postselect(evolved, bloch_state(math.pi / 4, 0.0))
        damping = math.exp(-(0.01**2) / 2.0)
        expected = 0.5 * (1.0 + math.sin(math.pi / 4) * damping)
        assert abs(result.probability - expected) < 1e-12
        assert abs(result.probability - 0.85353571) < 1e-8

    def test_apparatus_trace_equals_probability(self):
        state, coupling = _single(theta=math.pi / 2, g=0.01)
        evolved = evolve(state, [coupling])
        result = postselect(evolved, bloch_state(math.pi / 4, 0.0))
        assert abs(result.apparatus.trace - result.probability) < 1e-12

    def test_two_pointer_readout_grid_from_amplitudes(self, matrix_reads):
        # 2 x 256 x 256 amplitudes, far above DENSE_LIMIT; nothing squares them
        specs = [PointerSpec("A", FINE, x0=0.3), PointerSpec("B", FINE, x0=-0.2)]
        state = build_initial(bloch_state(math.pi / 3, 0.0), specs)
        couplings = [Coupling(pauli(SIGMA_X), "A", 0.5), Coupling(pauli(SIGMA_Z), "B", 0.5)]
        evolved = evolve(state, couplings)
        assert evolved.state.dims.total > engine_module.DENSE_LIMIT
        final = bloch_state(math.pi / 4, 0.0)
        result = postselect(evolved, final)
        selected = np.tensordot(final.amplitudes.conj(), evolved.tensor(), axes=(0, 0))
        weights = np.abs(selected) ** 2
        probability = weights.sum()
        means = {"A": weights.sum(axis=1) @ FINE.positions()}
        means["B"] = weights.sum(axis=0) @ FINE.positions()
        assert abs(result.probability - probability) < 1e-14
        for label, mean in means.items():
            assert abs(result.unnormalized_mean[label] - mean) < 1e-14
            assert abs(result.normalized_mean[label] - mean / probability) < 1e-14
        assert abs(result.apparatus.trace - probability) < 1e-14
        assert matrix_reads == []

    def test_zero_probability_rejected(self):
        state, coupling = _single(theta=math.pi / 2, g=0.0)
        evolved = evolve(state, [coupling])
        with pytest.raises(OrthogonalPostselection, match="probability"):
            postselect(evolved, bloch_state(math.pi / 2, math.pi))


class TestInitialInfo:
    def test_commuting_observable_sees_no_change(self):
        state, coupling = _single(theta=math.pi / 3, g=0.5)
        proj_up = pauli(np.array([[1, 0], [0, 0]], dtype=complex))
        value = system_expectation(evolve(state, [coupling]), proj_up)
        assert abs(value - math.cos(math.pi / 6) ** 2) < 1e-12

    def test_noncommuting_observable_is_dephased(self):
        state, coupling = _single(theta=math.pi / 3, g=0.5)
        proj_plus = pauli(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        value = system_expectation(evolve(state, [coupling]), proj_plus)
        initial = 0.5 * (1.0 + math.sin(math.pi / 3))
        assert abs(value - initial) > 1e-3

    def test_nan_expectation_rejected(self, monkeypatch):
        state, coupling = _single(theta=math.pi / 3, g=0.5)
        evolved = evolve(state, [coupling])
        proj_up = pauli(np.array([[1, 0], [0, 0]], dtype=complex))
        for entry in (complex(np.nan, np.nan), complex(np.nan, 0.0)):
            rho = type("Rho", (), {"matrix": np.full((2, 2), entry)})
            monkeypatch.setattr(engine_module, "system_density", lambda state: rho)
            with pytest.raises(ValueError, match="not a finite real number"):
                system_expectation(evolved, proj_up)
