"""Labeled tensor algebra: frozen matrix values plus structural properties."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointerlab.engine import Coupling, build_initial, evolve
from pointerlab import tensors
from pointerlab.pointer import PointerGrid, PointerSpec
from pointerlab.scenarios import PAIR_DIMS, PAIR_X, PAIR_Z, PAULI_X, PAULI_Z, bloch_state
from pointerlab.tensors import (
    SCHMIDT_RANK_TOL,
    DensityMatrix,
    DimensionSpec,
    Operator,
    StateVector,
    expectation,
    factored_distance,
    generator_action,
    hermiticity_defect,
    kron_states,
    schmidt,
)

from helpers import (
    commuting_family,
    partial_trace,
    pure_density,
    trace_distance,
    unitary_from_generator,
    whole_density,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

Q = DimensionSpec.of(("q", 2))
R = DimensionSpec.of(("r", 2))
QR = DimensionSpec(Q.factors + R.factors)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _random_state(rng, dims: DimensionSpec) -> StateVector:
    v = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
    return StateVector(dims, v / np.linalg.norm(v))


def _random_unitary(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDimensionSpec:
    def test_lookup(self):
        dims = DimensionSpec.of(("s", 2), ("A", 16), ("B", 8))
        assert dims.labels == ("s", "A", "B")
        assert dims.sizes == (2, 16, 8)
        assert dims.total == 256
        assert dims.axis("B") == 2
        assert dims.dim("A") == 16
        assert dims.subset(["B", "s"]).labels == ("s", "B")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DimensionSpec.of(("s", 2), ("s", 3))

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            DimensionSpec.of(("s", 2)).axis("t")

    def test_no_factors_total_one(self):
        assert DimensionSpec(()).total == 1
        assert DimensionSpec(()).sizes == ()

    def test_cached_sizes_leave_equality_and_hash_alone(self):
        # DimensionSpec keys caches, so reading its cached sizes must not move them
        pairs = (("s", 2), ("A", 16))
        read, fresh = DimensionSpec.of(*pairs), DimensionSpec.of(*pairs)
        before = hash(read)
        assert (read.labels, read.sizes, read.total) == (("s", "A"), (2, 16), 32)
        assert hash(read) == before == hash(fresh)
        assert read == fresh and fresh == read
        assert repr(read) == repr(fresh)
        assert {read: 1}[fresh] == 1
        assert read != DimensionSpec.of(("s", 2), ("A", 8))


class TestConstructorValidation:
    def test_operator_rejects_false_hermitian_claim(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Operator(Q, np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)], ids=["nan", "inf", "-inf", "inf-j"]
    )
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_operator_rejects_nonfinite(self, bad, where):
        m = SX.copy()
        m[where] = m[where[::-1]] = bad
        with pytest.raises(ValueError, match="Hermitian"):
            Operator(Q, m)

    def test_operator_stores_exactly_hermitian_part(self):
        m = np.array([[0.25, 0.5 + 1e-13], [0.5, -0.25]], dtype=complex)
        op = Operator(Q, m)
        assert hermiticity_defect(op.matrix) == 0.0
        assert op.matrix.tobytes() == ((m + m.conj().T) / 2.0).tobytes()
        assert op.matrix[0, 1] != m[0, 1]

    def test_operator_has_no_hermitian_flag(self):
        with pytest.raises(TypeError):
            Operator(Q, SX, hermitian=True)

    def test_state_rejects_wrong_norm(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(Q, np.array([1.0, 1.0]))

    def test_unnormalized_state_allowed_when_flagged(self):
        StateVector(Q, np.array([1.0, 1.0]), normalized=False)

    def test_whole_density_rejects_negative_spectrum(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            whole_density(m)

    def test_one_dimensional_floor_needs_no_eigensolve(self, monkeypatch):
        """One column's Gram matrix is 1 x 1, its own eigenvalue, as is a 1 x 1 whole matrix."""
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h) or eigvalsh(h))
        with pytest.raises(ValueError, match="eigenvalue"):
            whole_density(np.array([[-0.5]]), normalized=False)
        whole_density(np.array([[0.5]]), normalized=False)
        column = np.array([[0.6], [0.8j]])
        assert DensityMatrix(Q, column).trace == pytest.approx(1.0)
        assert calls == []

    def test_state_norm_is_kept(self):
        v = np.array([0.6, 0.8j])
        state = StateVector(Q, v)
        assert state.norm == float(np.linalg.norm(v))
        assert state.__dict__["norm"] == state.norm
        loose = StateVector(Q, 2 * v, normalized=False)
        assert "norm" not in loose.__dict__
        assert loose.norm == float(np.linalg.norm(2 * v))

    def test_whole_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            whole_density(np.diag([0.7, 0.7]).astype(complex))

    def test_whole_density_unnormalized_trace_allowed(self):
        whole_density(np.diag([0.7, 0.7]).astype(complex), normalized=False)

    def test_whole_density_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            whole_density(m)


class TestKron:
    def test_kron_states_index_order(self):
        a = StateVector(Q, np.array([1.0, 0.0]))
        b = StateVector(R, np.array([0.0, 1.0]))
        joint = kron_states(a, b)
        # |0>_q |1>_r sits at flat index 0*2 + 1
        np.testing.assert_array_equal(joint.amplitudes, [0, 1, 0, 0])

    def test_label_collision_rejected(self):
        a = StateVector(Q, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="duplicate"):
            kron_states(a, a)

    @pytest.mark.parametrize("sizes", [(2, 16), (3, 8, 16), (4, 8, 8, 8)])
    def test_product_chain_is_the_kron_chain_bit_for_bit(self, sizes):
        rng = _rng(len(sizes))
        labels = ("s", "A", "B", "C")
        states = [_random_state(rng, DimensionSpec.of((lab, n))) for lab, n in zip(labels, sizes)]
        joint = kron_states(*states)
        want = states[0].amplitudes
        for state in states[1:]:
            want = np.kron(want, state.amplitudes)
        np.testing.assert_array_equal(joint.amplitudes, want)
        assert joint.dims.sizes == sizes and joint.normalized
        assert not joint.amplitudes.flags.writeable
        # the norm is the product of the factors' kept norms, not taken again
        assert joint.__dict__["norm"] == math.prod(state.norm for state in states)

    def test_normalized_claim_still_checked(self):
        # each factor passes its own check; their product is off by 1.4e-10
        v = np.array([1.0 + 0.7e-10, 0.0])
        a, b = StateVector(Q, v), StateVector(R, v)
        with pytest.raises(ValueError, match="claimed normalized"):
            kron_states(a, b)
        loose = kron_states(StateVector(Q, 2 * v, normalized=False), b)
        assert not loose.normalized and loose.norm == pytest.approx(2.0)

    def test_layout_is_one_object_per_factor_layout(self):
        rng = _rng(20)
        first = kron_states(_random_state(rng, Q), _random_state(rng, R))
        second = kron_states(_random_state(rng, Q), _random_state(rng, R))
        assert first.dims is second.dims
        assert first.dims == DimensionSpec(Q.factors + R.factors)

    def test_caller_arrays_are_still_copied(self):
        v = np.array([0.6, 0.8j])
        state = StateVector(Q, v)
        v[0] = 5.0
        assert state.amplitudes[0] == 0.6
        alone = kron_states(state)
        np.testing.assert_array_equal(alone.amplitudes, state.amplitudes)
        assert alone.dims == state.dims and not alone.amplitudes.flags.writeable


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        dims = QR
        bell = StateVector(dims, np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(pure_density(bell), dims, keep=["q"])
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-14)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_product_state_reduces_to_own_density(self, seed):
        rng = _rng(seed)
        a = _random_state(rng, Q)
        b = _random_state(rng, R)
        reduced = partial_trace(pure_density(kron_states(a, b)), QR, keep=["q"])
        np.testing.assert_allclose(reduced, pure_density(a), atol=1e-12)

    def test_keep_order_follows_dims(self):
        dims = DimensionSpec.of(("a", 2), ("b", 3), ("c", 2))
        rng = _rng(7)
        state = _random_state(rng, dims)
        reduced = partial_trace(pure_density(state), dims, keep=["c", "a"])
        t = state.tensor()
        # rows and columns run over (a, c) in that order, whatever the order of ``keep``
        np.testing.assert_allclose(
            reduced, np.einsum("ibj,kbl->ijkl", t, t.conj()).reshape(4, 4), atol=1e-14
        )
        assert abs(np.trace(reduced) - 1.0) < 1e-12


class TestEigh:
    """The spectral decomposition reaches np.linalg.eigh only through an Operator."""

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            unitary_from_generator(Operator(Q, np.array([[0, 1], [0, 0]], dtype=complex)), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 16])
    def test_cached_spectrum_is_eigh_bit_for_bit(self, n):
        m = _rng(n).normal(size=(n, n)) + 1j * _rng(n + 1).normal(size=(n, n))
        op = Operator(DimensionSpec.of(("q", n)), m + m.conj().T)
        w, v = op.spectrum
        want_w, want_v = np.linalg.eigh(op.matrix)
        np.testing.assert_array_equal(w, want_w)
        np.testing.assert_array_equal(v, want_v)
        assert op.spectrum[0] is w and op.spectrum[1] is v

    def test_cached_spectrum_is_read_only(self):
        op = Operator(Q, SX)
        w, v = op.spectrum
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 0.0
        np.testing.assert_array_equal(op.spectrum[0], [-1.0, 1.0])

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_eigenspaces_of_degenerate_spectra(self, d, seed):
        """Eigenvalues in {-1, 0, 1}, repeated ones split by eigh's roundoff, are one
        eigenspace each: the projectors are orthogonal, of the multiplicity's rank,
        sum to the identity and rebuild the matrix."""
        (op,) = commuting_family(np.random.default_rng(seed), d, 1)
        values, projectors = op.eigenspaces
        w = np.linalg.eigvalsh(op.matrix)
        want = np.unique(np.round(w))
        np.testing.assert_allclose(values, want, rtol=0, atol=1e-14)
        eye = np.eye(d)
        np.testing.assert_allclose(projectors.sum(axis=0), eye, rtol=0, atol=1e-14)
        rebuilt = np.einsum("j,jab->ab", values, projectors)
        np.testing.assert_allclose(rebuilt, op.matrix, rtol=0, atol=1e-14)
        for value, p in zip(values, projectors):
            np.testing.assert_allclose(p @ p, p, rtol=0, atol=1e-14)
            assert round(np.trace(p).real) == np.count_nonzero(np.abs(w - value) < 1e-9)
        assert op.eigenspaces[0] is values and not values.flags.writeable
        assert not projectors.flags.writeable

    @pytest.mark.parametrize("gap, count", [(3e-12, 1), (5e-12, 2)])
    def test_eigenvalues_within_the_input_tolerance_are_one(self, gap, count):
        """Two eigenvalues of a qubit within 2 n HERMITIAN_INPUT_TOL = 4e-12 are one,
        their mean; literal gaps, so a changed bound is caught."""
        values, projectors = Operator(Q, np.diag([1.0, 1.0 + gap])).eigenspaces
        assert len(values) == len(projectors) == count
        if count == 1:
            assert values[0] == pytest.approx(1.0 + gap / 2, abs=1e-15)

    def test_cached_values_agree_across_threads(self):
        """Threads that race to fill the cached values all read the same numbers."""
        n = 32
        m = _rng(7).normal(size=(n, n)) + 1j * _rng(8).normal(size=(n, n))
        op = Operator(DimensionSpec.of(("q", n)), m + m.conj().T)
        state = StateVector(DimensionSpec.of(("q", n)), m[0], normalized=False)
        want = np.linalg.eigh(op.matrix)
        barrier = threading.Barrier(8)

        def read(_):
            barrier.wait(timeout=10)
            return op.spectrum, state.norm, state.dims.total

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(read, range(8), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        for (w, v), norm, total in seen:
            np.testing.assert_array_equal(w, want[0])
            np.testing.assert_array_equal(v, want[1])
            assert norm == np.linalg.norm(m[0])
            assert total == n


class TestUnitaryFromGenerator:
    def test_sigma_z_quarter_turn_frozen(self):
        u = unitary_from_generator(Operator(Q, SZ), np.pi / 2)
        np.testing.assert_allclose(u, np.diag([-1j, 1j]), atol=1e-14)

    def test_matches_closed_form_rotation(self):
        # exp(-i theta sigma_x) = cos(theta) I - i sin(theta) sigma_x
        theta = 0.731
        u = unitary_from_generator(Operator(Q, SX), theta)
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SX
        np.testing.assert_allclose(u, expected, atol=1e-14)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5))
    def test_result_is_unitary(self, seed, scale):
        rng = _rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (m + m.conj().T) / 2
        dims = DimensionSpec.of(("x", 4))
        u = unitary_from_generator(Operator(dims, h), scale)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


class TestGeneratorAction:
    """The Taylor action against the spectral exponential as oracle."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(2, 64),
        st.integers(0, 2**32 - 1),
        st.floats(20.0, 60.0),
        st.booleans(),
    )
    # rounding in steps of norm 9.9 costs 1.17e-12 here, against a 40-digit expm
    @example(n=2, seed=267, scale=49.375, backwards=False)
    def test_matches_spectral_oracle(self, n, seed, scale, backwards):
        # ||H||_2 <= ||H||_1 = 1, so the bound 1 forces 4 to 10 scaling steps
        rng = _rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        h = h / np.linalg.norm(h, 1)
        op = Operator(DimensionSpec.of(("x", n)), h)
        v = _random_state(rng, op.dims).amplitudes
        t = -scale if backwards else scale
        expected = unitary_from_generator(op, t) @ v
        actual = generator_action(lambda w: op.matrix @ w, 1.0, t, v)
        assert np.abs(actual - expected).max() <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.floats(20.0, 60.0))
    def test_spectral_norm_bound_matches_spectral_oracle(self, n, seed, scale):
        # the bound is ||H||_2 itself, the least the contract allows: 4 to 10 steps
        rng = _rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        h = h / np.linalg.norm(h, 2)
        op = Operator(DimensionSpec.of(("x", n)), h)
        v = _random_state(rng, op.dims).amplitudes
        expected = unitary_from_generator(op, scale) @ v
        actual = generator_action(lambda w: op.matrix @ w, 1.0, scale, v)
        assert np.abs(actual - expected).max() <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.floats(0.5, 60.0))
    def test_bounded_max_stops_where_the_exact_max_would(self, n, seed, scale):
        """Bit for bit the series that takes max|v| after every term, with as many products."""
        rng = _rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        h = h / np.linalg.norm(h, 2)
        v = _random_state(rng, DimensionSpec.of(("x", n))).amplitudes
        products = []

        def apply_h(w):
            products.append(1)
            return h @ w

        got = generator_action(apply_h, 1.0, scale, v)
        steps = math.ceil(scale / tensors.TAYLOR_STEP_NORM)
        a = -1j * scale / steps
        want = v.copy()
        count = 0
        for _ in range(steps):
            term = want.copy()
            previous = np.abs(term).max()
            for j in range(1, tensors.TAYLOR_TERM_CAP + 1):
                term = (h @ term) * (a / j)
                count += 1
                want += term
                current = np.abs(term).max()
                if previous + current <= tensors.TAYLOR_TOL * np.abs(want).max():
                    break
                previous = current
        np.testing.assert_array_equal(got, want)
        assert len(products) == count

    def test_input_untouched_and_result_fresh(self):
        """A read-only input is never written, and each call returns its own array."""
        rng = _rng(11)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (m + m.conj().T) / 2
        out = np.empty(8, dtype=complex)

        def apply_h(w):
            # returns the same buffer each time, as the engine's dense action does
            return np.matmul(h, w, out=out)

        v = _random_state(rng, DimensionSpec.of(("x", 8))).amplitudes
        assert not v.flags.writeable
        before = v.copy()
        first = generator_action(apply_h, np.linalg.norm(h, 2), 25.0, v)
        kept = first.copy()
        second = generator_action(apply_h, np.linalg.norm(h, 2), -3.0, v)
        np.testing.assert_array_equal(v, before)
        np.testing.assert_array_equal(first, kept)
        assert first is not v and second is not v and first is not out
        assert not np.shares_memory(first, second)
        assert first.flags.writeable and first.flags.owndata

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.floats(0.5, 30.0))
    def test_loose_norm_bound_gives_the_same_vector(self, n, seed, scale):
        # four times the true norm only adds scaling steps
        rng = _rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        v = _random_state(rng, DimensionSpec.of(("x", n))).amplitudes
        norm = np.linalg.norm(h, 1)
        exact = generator_action(lambda w: h @ w, norm, scale / norm, v)
        loose = generator_action(lambda w: h @ w, 4.0 * norm, scale / norm, v)
        assert np.abs(loose - exact).max() <= 1e-12

    @pytest.mark.parametrize(
        "action, vector",
        [
            (lambda w: SX @ w, np.ones(3)),
            (lambda w: SX @ w[:2], np.ones(3)),
            (lambda w: SX @ w, np.ones((2, 1))),
        ],
        ids=["too-long", "image-too-short", "not-a-vector"],
    )
    def test_rejects_mismatched_vector(self, action, vector):
        with pytest.raises(ValueError):
            generator_action(action, 1.0, 0.5, vector)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_vector_trips_the_convergence_guard(self, bad):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="did not converge"):
            generator_action(lambda w: SX @ w, 1.0, 0.5, np.array([1.0, bad]))

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_rejects_nonfinite_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            generator_action(lambda w: SX @ w, 1.0, scale, np.array([1.0, 0.0]))


class TestSchmidt:
    def test_bell_frozen(self):
        dims = QR
        bell = StateVector(dims, np.array([1, 0, 0, 1]) / np.sqrt(2))
        coeffs, rank = schmidt(bell, (("q",), ("r",)))
        assert rank == 2
        np.testing.assert_allclose(coeffs[:2], [2**-0.5, 2**-0.5], atol=1e-14)

    def test_product_state_rank_one(self):
        rng = _rng(3)
        joint = kron_states(_random_state(rng, Q), _random_state(rng, R))
        coeffs, rank = schmidt(joint, (("q",), ("r",)))
        assert rank == 1
        assert abs(coeffs[0] - 1.0) < 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_coefficients_invariant_under_local_unitaries(self, seed):
        rng = _rng(seed)
        dims = QR
        state = _random_state(rng, dims)
        coeffs, _ = schmidt(state, (("q",), ("r",)))
        oracle = np.linalg.svd(state.amplitudes.reshape(2, 2), compute_uv=False)
        np.testing.assert_allclose(coeffs, oracle, rtol=0, atol=1e-13)
        rotated = np.kron(_random_unitary(rng, 2), _random_unitary(rng, 2)) @ state.amplitudes
        coeffs2, _ = schmidt(StateVector(dims, rotated), (("q",), ("r",)))
        np.testing.assert_allclose(coeffs, coeffs2, atol=1e-10)
        assert abs(np.sum(coeffs**2) - 1.0) < 1e-10

    def test_cut_must_partition(self):
        dims = QR
        state = _random_state(_rng(0), dims)
        with pytest.raises(ValueError, match="partition"):
            schmidt(state, (("q",), ("q",)))
        with pytest.raises(ValueError, match="partition"):
            schmidt(state, (("q", "r"), ()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_amplitudes(self, bad):
        amps = np.ones(16, dtype=complex)
        amps[5] = bad
        state = StateVector(DimensionSpec.of(("q", 2), ("r", 8)), amps, normalized=False)
        with pytest.raises(ValueError, match="finite amplitudes"):
            schmidt(state, (("q",), ("r",)))


def _evolved(system, couplings, grid=PointerGrid(points=256, length=16.0)):
    """The system coupled to one 256-point pointer per coupling."""
    specs = [PointerSpec(c.pointer, grid) for c in couplings]
    return evolve(build_initial(system, specs), couplings).state


def _clustered(seed: int, coefficients) -> StateVector:
    """U diag(c) V-dagger on a 4 x 64 cut, with random unitaries U and V."""
    rng = _rng(seed)
    c = np.asarray(coefficients, dtype=float)
    u = _random_unitary(rng, 4)
    v = _random_unitary(rng, 64)[:, :4]
    m = (u * (c / np.linalg.norm(c))) @ v.conj().T
    return StateVector(DimensionSpec.of(("q", 4), ("r", 64)), m.reshape(-1))


SINGLET = StateVector(PAIR_DIMS, np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2))
GRAM_CASES = {
    "eigenstate-theta0": lambda: _evolved(bloch_state(0.0, 0.0), [Coupling(PAULI_Z, "A", 0.5)]),
    "g0": lambda: _evolved(bloch_state(np.pi / 3, 0.0), [Coupling(PAULI_X, "A", 0.0)]),
    "g1e-9": lambda: _evolved(bloch_state(np.pi / 3, 0.0), [Coupling(PAULI_X, "A", 1e-9)]),
    "two-dials": lambda: _evolved(
        bloch_state(np.pi / 3, 0.0), [Coupling(PAULI_X, "A", 0.5), Coupling(PAULI_Z, "B", 0.5)]
    ),
    "epr-pair": lambda: _evolved(SINGLET, [Coupling(PAIR_X, "A", 0.5), Coupling(PAIR_Z, "B", 0.5)]),
    "clustered": lambda: _clustered(1, [0.5, 0.5 + 1e-12, 0.5 - 1e-12, 1e-10]),
    "near-rank-tol": lambda: _clustered(2, [1.0, 1e-9 * (1 + 1e-3), 1e-9 * (1 - 1e-3), 0.0]),
}


@pytest.mark.parametrize("case", list(GRAM_CASES))
def test_gram_route_matches_svd(case):
    """The Gram-matrix coefficients against np.linalg.svd, the oracle, on every side."""
    state = GRAM_CASES[case]()
    labels = state.dims.labels
    for cut_at in range(1, len(labels)):
        cut = (labels[:cut_at], labels[cut_at:])
        coeffs, rank = schmidt(state, cut)
        m = state.tensor().reshape(state.dims.subset(cut[0]).total, -1)
        oracle = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(coeffs, oracle, rtol=0, atol=1e-13)
        assert rank == np.count_nonzero(oracle > SCHMIDT_RANK_TOL)


class TestDistanceAndExpectation:
    def test_trace_distance_extremes(self):
        up, down = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
        assert abs(factored_distance(up, DensityMatrix(Q, down)) - 1.0) < 1e-14
        assert factored_distance(up, DensityMatrix(Q, up)) < 1e-14
        assert abs(trace_distance(up @ up.T, down @ down.T) - 1.0) < 1e-14
        assert trace_distance(up @ up.T, up @ up.T) < 1e-14

    def test_expectation_frozen(self):
        plus = StateVector(Q, np.array([1.0, 1.0]) / np.sqrt(2))
        assert abs(expectation(Operator(Q, SX), plus) - 1.0) < 1e-14
        assert abs(expectation(Operator(Q, SZ), plus)) < 1e-14


class TestFactoredDensity:
    """DensityMatrix: U U-dagger, checked on its Gram matrix."""

    DIMS = DimensionSpec.of(("a", 4), ("b", 4))

    def _columns(self, seed: int, r: int = 3) -> np.ndarray:
        rng = _rng(seed)
        u = rng.normal(size=(16, r)) + 1j * rng.normal(size=(16, r))
        return u / np.linalg.norm(u)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_equals_dense_outer_product_sum(self, seed):
        u = self._columns(seed)
        rho = DensityMatrix(self.DIMS, u)
        dense = sum(np.outer(ui, ui.conj()) for ui in u.T)
        np.testing.assert_allclose(rho.matrix, dense, atol=1e-15)
        np.testing.assert_array_equal(rho.factors, u)

    def test_constructor_takes_columns_only(self):
        u = self._columns(4)
        with pytest.raises(TypeError):
            DensityMatrix(self.DIMS, u, True, u)
        with pytest.raises(TypeError):
            DensityMatrix(self.DIMS, None, _factors=u)

    def test_floor_checked_on_the_smaller_matrix(self, monkeypatch):
        """The Gram matrix of 3 columns on 16 rows; the matrix itself for 40 columns on 2."""
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(h, *args, **kwargs):
            shapes.append(np.shape(h))
            return eigvalsh(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        DensityMatrix(self.DIMS, self._columns(3))
        assert shapes == [(3, 3)]
        shapes.clear()
        u = _rng(3).normal(size=(2, 40))
        DensityMatrix(Q, u / np.linalg.norm(u))
        assert shapes == [(2, 2)]
        shapes.clear()
        whole_density(np.eye(16) / 16)
        assert shapes == [(16, 16)]

    def test_rejects_wrong_trace(self):
        u = self._columns(5)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(self.DIMS, np.sqrt(2) * u)
        DensityMatrix(self.DIMS, np.sqrt(2) * u, normalized=False)

    def test_rejects_nan_column(self):
        u = self._columns(6).copy()
        u[3, 1] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix(self.DIMS, u)
        with pytest.raises(ValueError):
            factored_distance(u, DensityMatrix(self.DIMS, self._columns(7)))

    def test_refuses_bad_columns_without_forming_the_matrix(self, monkeypatch):
        def formed(rho):
            raise AssertionError("U U-dagger was formed")

        monkeypatch.setattr(DensityMatrix, "matrix", property(formed))
        u = self._columns(15)
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            columns = u.copy()
            columns[4, 2] = bad
            with pytest.raises(ValueError, match="trace"):
                DensityMatrix(self.DIMS, columns)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(self.DIMS, 1.01 * u)
        assert DensityMatrix(self.DIMS, u).trace == pytest.approx(1.0, abs=1e-14)

    def test_read_only_columns_are_kept_as_a_view(self):
        """Columns nothing can write are viewed, not copied; writeable ones are copied."""
        state = kron_states(_random_state(_rng(17), Q), _random_state(_rng(18), self.DIMS))
        columns = state.amplitudes.reshape(2, -1).T
        rho = DensityMatrix(self.DIMS, columns)
        assert np.shares_memory(rho.factors, state.amplitudes)
        assert not rho.factors.flags.writeable
        u = self._columns(19)
        ro = u.view()
        ro.setflags(write=False)  # read-only, but its base is not
        for writeable in (u, ro):
            rho = DensityMatrix(self.DIMS, writeable)
            assert not np.shares_memory(rho.factors, u)
            np.testing.assert_array_equal(rho.factors, u)
        real = np.abs(u)
        real /= np.linalg.norm(real)
        real.setflags(write=False)
        assert DensityMatrix(self.DIMS, real).factors.dtype == complex

    def test_matrix_formed_once_on_first_read(self):
        rho = DensityMatrix(self.DIMS, self._columns(16))
        assert "matrix" not in vars(rho)
        first = rho.matrix
        assert rho.matrix is first
        assert not first.flags.writeable

    def test_rejects_mismatched_shapes(self):
        u = self._columns(8)
        with pytest.raises(ValueError, match="columns"):
            DensityMatrix(Q, u)
        with pytest.raises(ValueError, match="columns"):
            factored_distance(u[:4], DensityMatrix(self.DIMS, u))

    def test_more_columns_than_rows(self):
        # the floor is then checked on the matrix itself
        rng = _rng(9)
        u = rng.normal(size=(2, 40)) + 1j * rng.normal(size=(2, 40))
        rho = DensityMatrix(Q, u / np.linalg.norm(u))
        assert abs(rho.trace - 1.0) < 1e-14

    @pytest.mark.parametrize("seed", [10, 11])
    def test_trace_distance_matches_dense(self, seed):
        a = DensityMatrix(self.DIMS, self._columns(seed))
        b = DensityMatrix(self.DIMS, self._columns(seed + 100, r=2))
        dense = trace_distance(whole_density(a.matrix), whole_density(b.matrix))
        assert dense > 0.1
        assert abs(factored_distance(a.factors, b) - dense) < 1e-13
        assert factored_distance(a.factors, a) < 1e-14

    @pytest.mark.parametrize("seed", [12, 13])
    def test_weighted_candidate_matches_dense(self, seed):
        u = self._columns(seed)
        w = _rng(seed).uniform(0.1, 1.0, size=3)
        w = w / (w * (np.abs(u) ** 2).sum(axis=0)).sum()
        candidate = whole_density((u * w) @ u.conj().T)
        target = DensityMatrix(self.DIMS, self._columns(seed + 100, r=2))
        dense = trace_distance(candidate, whole_density(target.matrix))
        assert dense > 0.1
        assert abs(factored_distance(u * np.sqrt(w), target) - dense) < 1e-13


class TestNonFiniteInputs:
    def test_state_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(Q, np.array([1.0, np.nan]))

    def test_whole_density_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="Hermiticity"):
            whole_density(np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex))
