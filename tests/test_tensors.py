"""Labeled tensor algebra: frozen matrix values plus structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab.tensors import (
    DensityMatrix,
    DimensionSpec,
    Operator,
    StateVector,
    eigh,
    embed,
    expectation,
    factored_distance,
    generator_action,
    kron_operators,
    kron_states,
    partial_trace,
    pure_density,
    schmidt,
    trace_distance,
    unitary_from_generator,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

Q = DimensionSpec.of(("q", 2))
R = DimensionSpec.of(("r", 2))


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


class TestConstructorValidation:
    def test_operator_rejects_false_hermitian_claim(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Operator(Q, np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)

    def test_state_rejects_wrong_norm(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(Q, np.array([1.0, 1.0]))

    def test_unnormalized_state_allowed_when_flagged(self):
        StateVector(Q, np.array([1.0, 1.0]), normalized=False)

    def test_density_rejects_negative_spectrum(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(Q, m)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(Q, np.diag([0.7, 0.7]).astype(complex))

    def test_density_unnormalized_trace_allowed(self):
        DensityMatrix(Q, np.diag([0.7, 0.7]).astype(complex), normalized=False)

    def test_density_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            DensityMatrix(Q, m)


class TestKron:
    def test_sigma_x_kron_sigma_z_frozen(self):
        got = kron_operators(Operator(Q, SX, hermitian=True), Operator(R, SZ, hermitian=True))
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        assert got.dims.labels == ("q", "r")
        np.testing.assert_array_equal(got.matrix, expected)

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


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        dims = Q.merge(R)
        bell = StateVector(dims, np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(pure_density(bell), keep=["q"])
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_product_state_reduces_to_own_density(self, seed):
        rng = _rng(seed)
        a = _random_state(rng, Q)
        b = _random_state(rng, R)
        reduced = partial_trace(pure_density(kron_states(a, b)), keep=["q"])
        np.testing.assert_allclose(
            reduced.matrix, pure_density(a).matrix, atol=1e-12
        )

    def test_keep_order_follows_dims(self):
        dims = DimensionSpec.of(("a", 2), ("b", 3), ("c", 2))
        rng = _rng(7)
        rho = pure_density(_random_state(rng, dims))
        reduced = partial_trace(rho, keep=["c", "a"])
        assert reduced.dims.labels == ("a", "c")
        assert abs(reduced.trace - 1.0) < 1e-12


class TestEigh:
    def test_sigma_x_frozen(self):
        w, v = eigh(Operator(Q, SX, hermitian=True))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
        # eigenvectors up to phase
        for col, target in zip(v.T, ([1, -1], [1, 1])):
            overlap = abs(np.vdot(col, np.array(target) / np.sqrt(2)))
            assert abs(overlap - 1.0) < 1e-12

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(Operator(Q, np.array([[0, 1], [0, 0]], dtype=complex)))


class TestUnitaryFromGenerator:
    def test_sigma_z_quarter_turn_frozen(self):
        u = unitary_from_generator(Operator(Q, SZ, hermitian=True), np.pi / 2)
        np.testing.assert_allclose(u, np.diag([-1j, 1j]), atol=1e-14)

    def test_matches_closed_form_rotation(self):
        # exp(-i theta sigma_x) = cos(theta) I - i sin(theta) sigma_x
        theta = 0.731
        u = unitary_from_generator(Operator(Q, SX, hermitian=True), theta)
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SX
        np.testing.assert_allclose(u, expected, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5))
    def test_result_is_unitary(self, seed, scale):
        rng = _rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (m + m.conj().T) / 2
        dims = DimensionSpec.of(("x", 4))
        u = unitary_from_generator(Operator(dims, h, hermitian=True), scale)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


class TestGeneratorAction:
    """The Taylor action against the spectral exponential as oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 64),
        st.integers(0, 2**32 - 1),
        st.floats(20.0, 60.0),
        st.booleans(),
    )
    def test_matches_spectral_oracle(self, n, seed, scale, backwards):
        # ||H||_1 = 1, so ||scale * H||_1 / 9.9 forces 3 to 7 scaling steps
        rng = _rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        h = h / np.abs(h).sum(axis=0).max()
        op = Operator(DimensionSpec.of(("x", n)), h, hermitian=True)
        v = _random_state(rng, op.dims).amplitudes
        t = -scale if backwards else scale
        expected = unitary_from_generator(op, t) @ v
        assert np.abs(generator_action(op, t, v) - expected).max() <= 1e-12

    def test_rejects_nan_generator(self):
        h = np.array([[0.0, np.nan], [np.nan, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            generator_action(Operator(Q, h), 0.5, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_vector_trips_the_convergence_guard(self, bad):
        op = Operator(Q, SX, hermitian=True)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="did not converge"):
            generator_action(op, 0.5, np.array([1.0, bad]))

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_rejects_nonfinite_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            generator_action(Operator(Q, SX, hermitian=True), scale, np.array([1.0, 0.0]))


class TestSchmidt:
    def test_bell_frozen(self):
        dims = Q.merge(R)
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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_coefficients_invariant_under_local_unitaries(self, seed):
        rng = _rng(seed)
        dims = Q.merge(R)
        state = _random_state(rng, dims)
        coeffs, _ = schmidt(state, (("q",), ("r",)))
        rotated = np.kron(_random_unitary(rng, 2), _random_unitary(rng, 2)) @ state.amplitudes
        coeffs2, _ = schmidt(StateVector(dims, rotated), (("q",), ("r",)))
        np.testing.assert_allclose(coeffs, coeffs2, atol=1e-10)
        assert abs(np.sum(coeffs**2) - 1.0) < 1e-10

    def test_cut_must_partition(self):
        dims = Q.merge(R)
        state = _random_state(_rng(0), dims)
        with pytest.raises(ValueError, match="partition"):
            schmidt(state, (("q",), ("q",)))


class TestDistanceAndExpectation:
    def test_trace_distance_extremes(self):
        up = pure_density(StateVector(Q, np.array([1.0, 0.0])))
        down = pure_density(StateVector(Q, np.array([0.0, 1.0])))
        assert abs(trace_distance(up, down) - 1.0) < 1e-14
        assert trace_distance(up, up) < 1e-14

    def test_expectation_frozen(self):
        plus = StateVector(Q, np.array([1.0, 1.0]) / np.sqrt(2))
        assert abs(expectation(Operator(Q, SX, hermitian=True), plus) - 1.0) < 1e-14
        assert abs(expectation(Operator(Q, SZ, hermitian=True), plus)) < 1e-14


class TestEmbed:
    def test_matches_explicit_kron(self):
        dims = DimensionSpec.of(("s", 2), ("A", 4), ("B", 3))
        op = Operator(DimensionSpec.of(("A", 4)), np.diag([0, 1, 2, 3]).astype(complex), hermitian=True)
        expected = np.kron(np.kron(np.eye(2), op.matrix), np.eye(3))
        np.testing.assert_array_equal(embed(op, dims).matrix, expected)

    def test_rejects_noncontiguous_block(self):
        dims = DimensionSpec.of(("s", 2), ("A", 4), ("B", 3))
        op = Operator(
            DimensionSpec.of(("s", 2), ("B", 3)), np.eye(6, dtype=complex), hermitian=True
        )
        with pytest.raises(ValueError, match="contiguous"):
            embed(op, dims)


class TestFactoredDensity:
    """DensityMatrix.from_factors: U U-dagger, checked on its Gram matrix."""

    DIMS = DimensionSpec.of(("a", 4), ("b", 4))

    def _columns(self, seed: int, r: int = 3) -> np.ndarray:
        rng = _rng(seed)
        u = rng.normal(size=(16, r)) + 1j * rng.normal(size=(16, r))
        return u / np.linalg.norm(u)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_equals_dense_outer_product_sum(self, seed):
        u = self._columns(seed)
        rho = DensityMatrix.from_factors(self.DIMS, u)
        dense = sum(np.outer(ui, ui.conj()) for ui in u.T)
        np.testing.assert_allclose(rho.matrix, dense, atol=1e-15)
        np.testing.assert_array_equal(rho.factors, u)

    def test_plain_constructor_carries_no_factors(self):
        assert DensityMatrix(Q, np.eye(2) / 2).factors is None
        with pytest.raises(TypeError):
            DensityMatrix(Q, np.eye(2) / 2, True, np.eye(2))

    def test_plain_constructor_runs_full_spectrum_check(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(h, *args, **kwargs):
            shapes.append(np.shape(h))
            return eigvalsh(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        u = self._columns(3)
        DensityMatrix(self.DIMS, u @ u.conj().T)
        assert shapes == [(16, 16)]
        shapes.clear()
        DensityMatrix.from_factors(self.DIMS, u)
        assert shapes == [(3, 3)]

    def test_rejects_wrong_trace(self):
        u = self._columns(5)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_factors(self.DIMS, np.sqrt(2) * u)
        DensityMatrix.from_factors(self.DIMS, np.sqrt(2) * u, normalized=False)

    def test_rejects_nan_column(self):
        u = self._columns(6).copy()
        u[3, 1] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix.from_factors(self.DIMS, u)
        with pytest.raises(ValueError):
            factored_distance(u, DensityMatrix.from_factors(self.DIMS, self._columns(7)))

    def test_rejects_mismatched_shapes(self):
        u = self._columns(8)
        with pytest.raises(ValueError, match="columns"):
            DensityMatrix.from_factors(Q, u)
        with pytest.raises(ValueError, match="columns"):
            factored_distance(u[:4], DensityMatrix.from_factors(self.DIMS, u))

    def test_more_columns_than_rows(self):
        # the floor is then checked on the matrix itself
        rng = _rng(9)
        u = rng.normal(size=(2, 40)) + 1j * rng.normal(size=(2, 40))
        rho = DensityMatrix.from_factors(Q, u / np.linalg.norm(u))
        assert abs(rho.trace - 1.0) < 1e-14

    @pytest.mark.parametrize("seed", [10, 11])
    def test_trace_distance_matches_dense(self, seed):
        a = DensityMatrix.from_factors(self.DIMS, self._columns(seed))
        b = DensityMatrix.from_factors(self.DIMS, self._columns(seed + 100, r=2))
        dense = trace_distance(DensityMatrix(self.DIMS, a.matrix), b)
        assert dense > 0.1
        assert abs(trace_distance(a, b) - dense) < 1e-13
        assert trace_distance(a, a) < 1e-14

    @pytest.mark.parametrize("seed", [12, 13])
    def test_weighted_candidate_matches_dense(self, seed):
        u = self._columns(seed)
        w = _rng(seed).uniform(0.1, 1.0, size=3)
        w = w / (w * (np.abs(u) ** 2).sum(axis=0)).sum()
        candidate = DensityMatrix(self.DIMS, (u * w) @ u.conj().T)
        target = DensityMatrix.from_factors(self.DIMS, self._columns(seed + 100, r=2))
        dense = trace_distance(candidate, DensityMatrix(self.DIMS, target.matrix))
        assert dense > 0.1
        assert abs(factored_distance(u * np.sqrt(w), target) - dense) < 1e-13

    def test_distance_needs_factored_target(self):
        u = self._columns(14)
        with pytest.raises(ValueError, match="built from factors"):
            factored_distance(u, DensityMatrix(self.DIMS, u @ u.conj().T))


class TestNonFiniteInputs:
    def test_state_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(Q, np.array([1.0, np.nan]))

    def test_density_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="Hermiticity"):
            DensityMatrix(Q, np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex))
