"""Separability of the apparatus record: witness, certificates, routing."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointerlab import engine, pointer, scenarios, separability
from pointerlab.engine import Coupling, build_initial, evolve, evolve_sequential
from pointerlab.pointer import LeakageError, PointerGrid, PointerSpec, gaussian_state
from pointerlab.scenarios import DEFAULTS, SCENARIOS
from pointerlab.scenarios import PAIR_X, PAIR_Z, SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_state, pauli
from pointerlab.separability import (
    ProductTerm,
    SeparableDecomposition,
    first_order_product_certificate,
    readability_check,
)
from pointerlab.tensors import DensityMatrix, DimensionSpec, Operator, StateVector

from helpers import (
    apparatus_density,
    branch_kicks,
    commuting_family,
    dense_ppt_min,
    partial_trace,
    ppt_min_eigenvalue,
    pure_density,
    reconstruct,
    trace_distance,
    translate,
    unitary_from_generator,
)

COARSE = PointerGrid(points=16, length=16.0)
QUBIT_PAIR = DimensionSpec.of(("a", 2), ("b", 2))
CUT_AB = (("a",), ("b",))
CUT_POINTERS = (("A",), ("B",))


def _bell() -> DensityMatrix:
    amps = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return DensityMatrix(QUBIT_PAIR, amps[:, None])


def _coarse_pair(theta=0.0, impulse_a=1.0, impulse_b=None, obs_a=SIGMA_X, obs_b=SIGMA_Z):
    system = bloch_state(theta, 0.0)
    specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
    couplings = [
        Coupling(pauli(obs_a), "A", impulse_a, 1.0),
        Coupling(pauli(obs_b), "B", impulse_b if impulse_b is not None else impulse_a, 1.0),
    ]
    return build_initial(system, specs), couplings, specs


class TestPartialTranspose:
    def test_bell_state_frozen(self):
        assert abs(ppt_min_eigenvalue(_bell(), CUT_AB) - (-0.5)) < 1e-12
        assert abs(dense_ppt_min(_bell().matrix, QUBIT_PAIR, CUT_AB) - (-0.5)) < 1e-12

    def test_product_state_nonnegative(self):
        up = StateVector(DimensionSpec.of(("a", 2)), np.array([1, 0], dtype=complex))
        plus = StateVector(
            DimensionSpec.of(("b", 2)), np.array([1, 1], dtype=complex) / math.sqrt(2)
        )
        amps = np.kron(up.amplitudes, plus.amplitudes)
        assert ppt_min_eigenvalue(DensityMatrix(QUBIT_PAIR, amps[:, None]), CUT_AB) >= -1e-10
        rho = pure_density(StateVector(QUBIT_PAIR, amps))
        assert dense_ppt_min(rho, QUBIT_PAIR, CUT_AB) >= -1e-10

    def test_werner_state_frozen(self):
        # p |singlet><singlet| + (1 - p) I/4 has minimum eigenvalue
        # (1 - 3p)/4 under partial transposition; five columns, so the
        # compressed witness runs on a full support
        singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        p = 0.5
        columns = np.hstack([math.sqrt(p) * singlet[:, None], math.sqrt((1 - p) / 4) * np.eye(4)])
        rho = DensityMatrix(QUBIT_PAIR, columns)
        m = p * np.outer(singlet, singlet.conj()) + (1 - p) * np.eye(4) / 4
        np.testing.assert_allclose(rho.matrix, m, atol=1e-15)
        assert abs(ppt_min_eigenvalue(rho, CUT_AB) - (1 - 3 * p) / 4) < 1e-12
        assert abs(dense_ppt_min(m, QUBIT_PAIR, CUT_AB) - (1 - 3 * p) / 4) < 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.floats(-math.pi, math.pi),
        st.floats(-math.pi, math.pi),
        st.floats(0, math.pi),
        st.floats(0, 2 * math.pi),
    )
    def test_local_unitaries_preserve_witness(self, angle_a, angle_b, theta, phi):
        amps = np.array(
            [
                math.cos(theta / 2),
                0,
                0,
                math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi)),
            ],
            dtype=complex,
        )
        ua = unitary_from_generator(
            Operator(DimensionSpec.of(("a", 2)), SIGMA_Y), angle_a
        )
        ub = unitary_from_generator(
            Operator(DimensionSpec.of(("b", 2)), SIGMA_X), angle_b
        )
        u = np.kron(ua, ub)
        rho = DensityMatrix(QUBIT_PAIR, amps[:, None])
        rotated = DensityMatrix(QUBIT_PAIR, u @ rho.factors)
        before = ppt_min_eigenvalue(rho, CUT_AB)
        after = ppt_min_eigenvalue(rotated, CUT_AB)
        assert abs(before - after) < 1e-10
        dense = dense_ppt_min(u @ rho.matrix @ u.conj().T, QUBIT_PAIR, CUT_AB)
        assert abs(after - dense) < 1e-10

    def test_refuses_unnormalized(self):
        rho = DensityMatrix(QUBIT_PAIR, np.eye(4) / math.sqrt(8), normalized=False)
        with pytest.raises(ValueError, match="normalized"):
            ppt_min_eigenvalue(rho, CUT_AB)

    def test_refuses_bad_cut(self):
        with pytest.raises(ValueError, match="partition"):
            ppt_min_eigenvalue(_bell(), (("a",), ("a",)))
        with pytest.raises(ValueError, match="partition"):
            ppt_min_eigenvalue(_bell(), (("a", "b"), ()))


class TestDecompositionContainer:
    def test_weights_must_sum_to_one(self):
        spec = PointerSpec("A", COARSE)
        from pointerlab.pointer import gaussian_state

        factor = gaussian_state(spec)
        with pytest.raises(ValueError, match="sum"):
            SeparableDecomposition(
                (ProductTerm(0.4, {"A": factor}), ProductTerm(0.4, {"A": factor}))
            )

    def test_weight_sum_tolerance(self):
        """Weights summing to 1 + 2e-10 are refused, and to 1 + 5e-11 accepted."""
        factor = gaussian_state(PointerSpec("A", COARSE))
        near = SeparableDecomposition(
            (ProductTerm(0.5 + 5e-11, {"A": factor}), ProductTerm(0.5, {"A": factor}))
        )
        assert sum(near.weights) != 1.0
        with pytest.raises(ValueError, match="sum"):
            SeparableDecomposition(
                (ProductTerm(0.5 + 2e-10, {"A": factor}), ProductTerm(0.5, {"A": factor}))
            )

    def test_negative_weight_rejected(self):
        spec = PointerSpec("A", COARSE)
        from pointerlab.pointer import gaussian_state

        with pytest.raises(ValueError, match="nonnegative"):
            ProductTerm(-0.1, {"A": gaussian_state(spec)})

    def test_nan_weight_rejected(self):
        spec = PointerSpec("A", COARSE)
        from pointerlab.pointer import gaussian_state

        with pytest.raises(ValueError, match="nonnegative"):
            ProductTerm(float("nan"), {"A": gaussian_state(spec)})


class TestCommutingDecomposition:
    def test_plus_state_weights_and_accuracy(self):
        state, couplings, specs = _coarse_pair(
            theta=math.pi / 2, impulse_a=0.5, obs_a=SIGMA_Z, obs_b=SIGMA_Z
        )
        evolved = evolve(state, couplings)
        decomposition = readability_check(evolved).certificate
        assert sorted(decomposition.weights) == pytest.approx([0.5, 0.5], abs=1e-12)
        rho = apparatus_density(evolved)
        assert decomposition.validate(rho) < 1e-10

    def test_anticorrelated_pair_weights_frozen(self):
        # local sigma_x and sigma_z readouts of a singlet: all four product
        # eigenvectors are equally populated
        amps = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        system = StateVector(DimensionSpec.of(("system", 4)), amps)
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        sys_dims = DimensionSpec.of(("system", 4))
        ca = Coupling(
            Operator(sys_dims, np.kron(SIGMA_X, np.eye(2))), "A", 0.5, 1.0
        )
        cb = Coupling(
            Operator(sys_dims, np.kron(np.eye(2), SIGMA_Z)), "B", 0.5, 1.0
        )
        evolved = evolve(build_initial(system, specs), [ca, cb])
        decomposition = readability_check(evolved).certificate
        assert sorted(decomposition.weights) == pytest.approx([0.25] * 4, abs=1e-10)

    def test_noncommuting_inputs_rejected(self):
        state, couplings, _ = _coarse_pair(impulse_a=0.3)
        assert readability_check(evolve(state, couplings)).certificate is None

    def test_same_pointer_couplings_certified(self):
        # two commuting couplings on one pointer leave the other uncoupled
        state, _, _ = _coarse_pair(theta=math.pi / 3)
        ca = Coupling(pauli(SIGMA_Z), "A", 0.3, 1.0)
        cb = Coupling(pauli(SIGMA_Z), "A", 0.3, 1.0)
        verdict = readability_check(evolve(state, [ca, cb]))
        assert (verdict.status, verdict.method) == ("separable", "commuting-eigenbasis")
        assert verdict.certificate.weights == pytest.approx([0.25, 0.75], abs=1e-12)


class TestSequentialDecomposition:
    def test_branch_weights_frozen(self):
        # |up> split by a sigma_x readout: both branches carry weight 1/2. The
        # sigma_z record is sharp, so the cores are orthogonal and the rule
        # reads the record as a mixture of products, one per branch.
        system = bloch_state(0.0, 0.0)
        specs = [PointerSpec("B", COARSE), PointerSpec("A", COARSE)]
        first = Coupling(pauli(SIGMA_Z), "B", 0.5, 1.0)
        second = Coupling(pauli(SIGMA_X), "A", 0.5, 1.0)
        evolved = evolve_sequential(build_initial(system, specs), first, second)
        decomposition = readability_check(evolved).certificate
        assert sorted(decomposition.weights) == pytest.approx([0.5, 0.5], abs=1e-12)
        assert decomposition.kind == "commuting-eigenbasis"

    def test_reconstruction_matches_engine(self):
        # exact at strong coupling and for noncommuting observables
        system = bloch_state(math.pi / 3, 0.0)
        specs = [PointerSpec("B", COARSE), PointerSpec("A", COARSE)]
        first = Coupling(pauli(SIGMA_Z), "B", 0.8, 1.0)
        second = Coupling(pauli(SIGMA_X), "A", 0.8, 1.0)
        state = build_initial(system, specs)
        evolved = evolve_sequential(state, first, second)
        rho = apparatus_density(evolved)
        decomposition = readability_check(evolved).certificate
        assert decomposition.validate(rho) < 1e-8


class TestFirstOrderCertificate:
    def test_defect_is_roundoff_even_at_moderate_coupling(self):
        state, couplings, specs = _coarse_pair(theta=math.pi / 3, impulse_a=0.3)
        decomposition, defect = first_order_product_certificate(
            state.initial_system, specs, couplings[0], couplings[1]
        )
        assert decomposition.kind == "first-order-product"
        assert len(decomposition.terms) == 1
        assert defect < 1e-8

    def test_same_pointer_rejected(self):
        state, _, specs = _coarse_pair()
        ca = Coupling(pauli(SIGMA_X), "A", 0.3, 1.0)
        cb = Coupling(pauli(SIGMA_Z), "A", 0.3, 1.0)
        with pytest.raises(ValueError, match="must address distinct pointers"):
            first_order_product_certificate(state.initial_system, specs, ca, cb)

    @pytest.mark.parametrize("impulse", [0.05, 0.5, 1.5])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_wrong_candidate_defect_matches_stencil_oracle(
        self, monkeypatch, theta, impulse
    ):
        """A candidate shifted 1.1 times too far: the defect equals a dense oracle's.

        The oracle takes the linear coefficients of the truncated reduced
        state and of the candidate by the five-point stencil, exact through
        degree four, over dense N x N matrices; half the trace norm of their
        difference is the defect.
        """
        factor = separability._first_order_factor
        monkeypatch.setattr(
            separability,
            "_first_order_factor",
            lambda spec, shift: factor(spec, 1.1 * shift),
        )
        state, couplings, specs = _coarse_pair(theta=theta, impulse_a=impulse)
        system = state.initial_system
        _, defect = first_order_product_certificate(system, specs, *couplings)

        def truncated(s):
            scaled = [
                Coupling(c.observable, c.pointer, s * c.strength, c.duration)
                for c in couplings
            ]
            initial = build_initial(system, specs)
            (term,) = engine.partial_sums(initial, scaled, 1)
            m = (initial.state.amplitudes + term).reshape(system.dims.total, -1)
            return m.T @ m.conj()

        def candidate(s):
            amp = np.ones(1, dtype=complex)
            for spec, c in zip(specs, couplings):
                psi = gaussian_state(spec).amplitudes
                k = spec.grid.wavenumbers()
                mean = (system.amplitudes.conj() @ c.observable.matrix @ system.amplitudes).real
                kicked = np.fft.ifft(k * np.fft.fft(psi))
                amp = np.kron(amp, psi - 1.1j * s * c.impulse * mean * kicked)
            return np.outer(amp, amp.conj())

        def linear(f):
            return (-f(1.0) + 8 * f(0.5) - 8 * f(-0.5) + f(-1.0)) / 6.0

        diff = linear(truncated) - linear(candidate)
        oracle = np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum() / 2
        assert oracle > 1e-3
        assert defect == pytest.approx(oracle, abs=1e-12)


CACHED_SPECS = [
    PointerSpec("A", COARSE, x0=0.4, sigma=0.8),
    PointerSpec("B", PointerGrid(points=256, length=16.0), x0=-0.3),
]


class TestCachedFactors:
    """First-order factors come from the engine's cached packets, bit for bit."""

    @pytest.mark.parametrize("spec", CACHED_SPECS, ids=["16", "256"])
    @pytest.mark.parametrize("shift", [0.0, 0.37, -1.2])
    def test_first_order_factor_is_the_uncached_one_bit_for_bit(self, spec, shift):
        psi = gaussian_state(spec).amplitudes
        k = spec.grid.wavenumbers()
        want = psi - 1j * shift * np.fft.ifft(k * np.fft.fft(psi))
        got = separability._first_order_factor(spec, shift)
        np.testing.assert_array_equal(got.amplitudes, want)
        assert not got.normalized and not got.amplitudes.flags.writeable

    @pytest.mark.parametrize("shift", [2.5, -2.5, math.nan, math.inf])
    def test_translation_out_of_the_box_refused(self, shift):
        with pytest.raises(LeakageError, match=f"translation by {shift} .* edge"):
            translate(gaussian_state(PointerSpec("A", COARSE)), shift, COARSE)

    def test_verdicts_rebuild_no_packet_after_first_use(self, monkeypatch):
        """Once a spec's packet is cached, a verdict prepares and krons nothing."""

        def records(theta, impulse):
            start, _, _ = _coarse_pair(theta)
            z, x = pauli(SIGMA_Z), pauli(SIGMA_X)
            return (
                evolve(start, [Coupling(z, "A", impulse), Coupling(z, "B", impulse)]),
                evolve_sequential(start, Coupling(z, "A", impulse), Coupling(x, "B", impulse)),
                start,
            )

        for record in records(0.8, 0.4):
            assert readability_check(record, CUT_POINTERS).status == "separable"
        calls = []
        for module in (pointer, engine, separability):
            if hasattr(module, "gaussian_state"):
                original = module.gaussian_state
                monkeypatch.setattr(
                    module,
                    "gaussian_state",
                    lambda *a, _original=original: calls.append("gaussian_state")
                    or _original(*a),
                )
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda *a: calls.append("kron") or kron(*a))
        verdicts = [readability_check(r, CUT_POINTERS) for r in records(2.1, 0.9)]
        assert [v.method for v in verdicts] == [
            "commuting-eigenbasis",
            "sequential-branches",
            "uncoupled-product",
        ]
        assert all(v.status == "separable" for v in verdicts)
        assert calls == []


class TestReadability:
    def test_commuting_record_is_separable(self):
        state, couplings, _ = _coarse_pair(
            theta=math.pi / 2, impulse_a=0.5, obs_a=SIGMA_Z, obs_b=SIGMA_Z
        )
        verdict = readability_check(evolve(state, couplings))
        assert verdict.status == "separable"
        assert verdict.method == "commuting-eigenbasis"
        assert verdict.certificate_error is not None
        assert verdict.certificate_error < 1e-8
        assert verdict.ppt_min is not None
        assert verdict.ppt_min >= -1e-6

    def test_strong_noncommuting_record_is_entangled(self):
        state, couplings, _ = _coarse_pair(impulse_a=1.0)
        verdict = readability_check(evolve(state, couplings))
        assert verdict.status == "entangled"
        assert verdict.method == "ppt"
        assert verdict.ppt_min < -1e-4
        assert verdict.ppt_min == pytest.approx(-0.0467934079932201, abs=1e-10)

    def test_weak_noncommuting_record_is_inconclusive(self):
        state, couplings, _ = _coarse_pair(impulse_a=1e-3)
        verdict = readability_check(evolve(state, couplings))
        assert verdict.status == "inconclusive"
        assert verdict.ppt_min is not None
        assert abs(verdict.ppt_min) < 1e-8

    def test_sequential_record_is_separable(self):
        system = bloch_state(math.pi / 3, 0.0)
        specs = [PointerSpec("B", COARSE), PointerSpec("A", COARSE)]
        first = Coupling(pauli(SIGMA_Z), "B", 0.5, 1.0)
        second = Coupling(pauli(SIGMA_X), "A", 0.5, 1.0)
        evolved = evolve_sequential(build_initial(system, specs), first, second)
        verdict = readability_check(evolved)
        assert verdict.status == "separable"
        assert verdict.method == "sequential-branches"

    def test_uncoupled_record_is_separable(self):
        state, _, _ = _coarse_pair()
        verdict = readability_check(state)
        assert verdict.status == "separable"
        assert verdict.method == "uncoupled-product"

    def test_single_pointer_is_trivially_separable(self):
        system = bloch_state(math.pi / 3, 0.0)
        state = build_initial(system, [PointerSpec("A", COARSE)])
        evolved = evolve(state, [Coupling(pauli(SIGMA_Z), "A", 0.5, 1.0)])
        verdict = readability_check(evolved)
        assert verdict.status == "separable"
        assert verdict.method == "single-apparatus"

    @pytest.mark.parametrize("cut", [(("X",), ("Y",)), (("A", "B"), ()), ((), ())])
    def test_single_pointer_refuses_a_foreign_cut(self, cut, density_builds):
        state = build_initial(bloch_state(math.pi / 3, 0.0), [PointerSpec("A", COARSE)])
        with pytest.raises(ValueError, match="does not name the pointers"):
            readability_check(state, cut)
        # the verdict comes before any apparatus state is built
        for own in ((("A",), ()), ((), ("A",))):
            verdict = readability_check(state, own)
            assert (verdict.status, verdict.method, verdict.cut) == (
                "separable", "single-apparatus", own
            )
        assert density_builds == []

    def test_two_pointers_refuse_a_foreign_cut_before_any_certificate(
        self, monkeypatch, density_builds
    ):
        state, couplings, _ = _coarse_pair(obs_a=SIGMA_Z, impulse_a=0.3)
        state = evolve(state, couplings)
        monkeypatch.setattr(separability, "_certificate_route", None)
        with pytest.raises(ValueError, match="partition"):
            readability_check(state, (("A",), ("X",)))
        assert density_builds == []

    @pytest.mark.parametrize("kind", ["uncoupled", "commuting", "sequential", "noncommuting"])
    def test_readout_grid_verdict_matches_analysis_grid(self, kind, matrix_reads):
        # 256 points per pointer: an apparatus dimension of 65536, and
        # nothing reads the apparatus matrix at either grid
        coarse, fine = (readability_check(_simultaneous_record(n, kind)) for n in (16, 256))
        assert (fine.status, fine.method) == (coarse.status, coarse.method)
        kinds = {getattr(v.certificate, "kind", None) for v in (coarse, fine)}
        assert len(kinds) == 1
        assert fine.status == ("entangled" if kind == "noncommuting" else "separable")
        assert matrix_reads == []
        if kind == "noncommuting":
            # the window form's record core against the witness on its amplitudes
            state = _simultaneous_record(256, kind)
            assert state.branches.kicks is None
            rho = apparatus_density(state)
            assert abs(fine.ppt_min - ppt_min_eigenvalue(rho, CUT_POINTERS)) <= 1e-13


@pytest.mark.parametrize(
    "name, status, share",
    [
        ("epr", "separable", 4),
        ("sequential", "separable", 4),
        ("simultaneous", "entangled", 1),
        ("weak-orders", "entangled", 1),
    ],
)
def test_readout_verdict_forms_no_readout_size_array(name, status, share):
    """Readability on the default readout states, 256 points per pointer in
    branch form, reads their record core. For kick rows (epr, sequential)
    its peak traced allocation stays under a quarter of one readout state
    (2 MiB, 4 MiB for epr's pair), less than one 256 x 256 complex block;
    for the window forms of simultaneous and weak-orders, whose core is
    (2, 63, 63), under one readout state. So no array of the apparatus's or
    the state's size is formed. A first verdict, on another copy of the
    state, runs outside the count, so nothing filled once per process is
    counted; the counted verdict must agree with it."""
    cfg = DEFAULTS[name]
    scenario = SCENARIOS[name]
    system = scenario.system(cfg.theta_i, cfg.phi_i)
    phases = scenario.phases(cfg, 1.0)
    x0 = {"A": cfg.x0_a, "B": cfg.x0_b}
    labels = sorted({c.pointer for phase in phases for c in phase})
    specs = [PointerSpec(lab, cfg.readout_grid(), x0[lab], cfg.sigma) for lab in labels]
    state, _ = scenarios._evolve(system, specs, phases)
    assert state.branches is not None and "state" not in vars(state)
    assert (state.branches.kicks is None) == (share == 1)
    state_bytes = 16 * system.dims.total * cfg.grid_points**2
    first = readability_check(dataclasses.replace(state), scenarios.POINTER_CUT)
    fresh = dataclasses.replace(state)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        verdict = readability_check(fresh, scenarios.POINTER_CUT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.status, verdict.method) == (first.status, first.method)
    assert verdict.status == status
    assert "state" not in vars(fresh)
    assert peak - start < state_bytes / share


def _simultaneous_record(points, kind):
    """A two-dial state at the simultaneous scenario's defaults, g = 0.05."""
    grid = PointerGrid(points=points, length=16.0)
    specs = [PointerSpec("A", grid, x0=0.3), PointerSpec("B", grid, x0=-0.2)]
    initial = build_initial(bloch_state(math.pi / 3, 0.0), specs)
    x, z = pauli(SIGMA_X), pauli(SIGMA_Z)
    if kind == "uncoupled":
        return initial
    if kind == "sequential":
        return evolve_sequential(initial, Coupling(z, "A", 0.05), Coupling(x, "B", 0.05))
    obs_a = z if kind == "commuting" else x
    return evolve(initial, [Coupling(obs_a, "A", 0.05), Coupling(z, "B", 0.05)])


def _record(points, theta, impulse, *couplings, **named):
    """Two-dial record on a ``points`` grid and the certificate its verdict carries."""
    state = _record_state(points, theta, impulse, *couplings, **named)
    certificate = readability_check(state, CUT_POINTERS).certificate
    return apparatus_density(state), certificate


def _record_state(points, theta, impulse, sequential=False, obs_a=SIGMA_Z, obs_b=SIGMA_Z):
    """The evolved two-dial state behind ``_record``."""
    grid = PointerGrid(points=points, length=16.0)
    system = bloch_state(theta, 0.3)
    specs = [PointerSpec("A", grid), PointerSpec("B", grid)]
    ca = Coupling(pauli(obs_a), "A", impulse, 1.0)
    cb = Coupling(pauli(SIGMA_X if sequential else obs_b), "B", impulse, 1.0)
    initial = build_initial(system, specs)
    if sequential:
        return evolve_sequential(initial, ca, cb)
    return evolve(initial, [ca, cb])


def _dense_distance(certificate: SeparableDecomposition, rho: DensityMatrix) -> float:
    """Trace distance from the certificate's whole matrix to ``rho``'s, both formed densely."""
    return trace_distance(reconstruct(certificate, rho.dims, rho.normalized), rho.matrix)


def _swapped_a(certificate: SeparableDecomposition) -> SeparableDecomposition:
    first, second = certificate.terms
    return SeparableDecomposition(
        (
            ProductTerm(first.weight, {"A": second.factors["A"], "B": first.factors["B"]}),
            ProductTerm(second.weight, {"A": first.factors["A"], "B": second.factors["B"]}),
        )
    )


class TestFactoredValidation:
    """Validation from factors against the dense reconstruction as oracle."""

    @pytest.mark.parametrize("points", [16, 32])
    @pytest.mark.parametrize("sequential", [False, True])
    def test_certificates_match_dense_oracle(self, points, sequential):
        rho, certificate = _record(points, math.pi / 3, 0.5, sequential)
        factored = certificate.validate(rho)
        assert factored < 1e-12
        assert abs(factored - _dense_distance(certificate, rho)) < 1e-12

    def test_swapped_factors_match_dense_oracle(self):
        rho, certificate = _record(16, math.pi / 3, 0.5)
        swapped = _swapped_a(certificate)
        factored = swapped.validate(rho)
        assert factored == pytest.approx(0.3033094692010, abs=1e-10)
        assert abs(factored - _dense_distance(swapped, rho)) < 1e-12

    def test_noncommuting_record_matches_dense_oracle(self):
        _, certificate = _record(16, math.pi / 3, 0.5)
        rho, _ = _record(16, math.pi / 3, 0.5, obs_a=SIGMA_X)
        factored = certificate.validate(rho)
        assert factored == pytest.approx(0.1405488546543, abs=1e-10)
        assert abs(factored - _dense_distance(certificate, rho)) < 1e-12

    def test_unnormalized_certificate_refused_on_both_routes(self):
        state, couplings, specs = _coarse_pair(theta=math.pi / 3, impulse_a=0.3)
        certificate, _ = first_order_product_certificate(
            state.initial_system, specs, couplings[0], couplings[1]
        )
        rho = apparatus_density(evolve(state, couplings))
        with pytest.raises(ValueError, match="trace"):
            certificate.validate(rho)
        with pytest.raises(ValueError, match="trace"):
            _dense_distance(certificate, rho)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.floats(0.0, math.pi),
        st.floats(1e-3, 1.5),
        st.booleans(),
        st.booleans(),
    )
    def test_property_factored_equals_dense(self, theta, impulse, sequential, swap):
        rho, certificate = _record(16, theta, impulse, sequential)
        if swap and len(certificate.terms) == 2:
            certificate = _swapped_a(certificate)
        factored = certificate.validate(rho)
        assert abs(factored - _dense_distance(certificate, rho)) < 1e-12

    def test_no_eigensolve_beyond_the_analysis_grid(self, monkeypatch):
        shapes = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        state, couplings, _ = _coarse_pair(
            theta=math.pi / 3, impulse_a=0.5, obs_a=SIGMA_Z, obs_b=SIGMA_Z
        )
        verdict = readability_check(evolve(state, couplings))
        assert verdict.status == "separable"
        assert shapes
        assert max(shape[-1] for shape in shapes) <= 256


LADDER = np.geomspace(1e-3, 1.5, 12)
FAMILY = {
    "commuting": dict(obs_a=SIGMA_Z),
    "sequential": dict(sequential=True),
    "noncommuting": dict(obs_a=SIGMA_X),
}


class TestSupportWitness:
    """The partial transpose on the Schmidt support, against the dense oracle."""

    @pytest.mark.parametrize("points", [16, 32])
    @pytest.mark.parametrize("kind", sorted(FAMILY))
    def test_ladder_matches_dense_oracle(self, points, kind):
        # Every rung at 16 points; at 32, where each dense oracle call takes
        # two 1024-dimension eigensolves, the middle rung and the strongest.
        for impulse in LADDER if points == 16 else LADDER[5::6]:
            rho, _ = _record(points, math.pi / 3, impulse, **FAMILY[kind])
            compressed = ppt_min_eigenvalue(rho, CUT_POINTERS)
            dense = dense_ppt_min(rho.matrix, rho.dims, CUT_POINTERS)
            assert abs(compressed - dense) < 1e-12, (kind, impulse)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(2, 6),
        st.integers(2, 6),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_property_random_factors_match_dense(self, da, db, rank, terms, seed, swap):
        rng = np.random.default_rng(seed)

        def normal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        # Each column sums ``terms`` products, so low Schmidt ranks occur too.
        blocks = np.einsum("kat,kbt->kab", normal(rank, da, terms), normal(rank, db, terms))
        u = blocks.reshape(rank, da * db).T
        rho = DensityMatrix(DimensionSpec.of(("a", da), ("b", db)), u / np.linalg.norm(u))
        cut = (("b",), ("a",)) if swap else CUT_AB
        compressed = ppt_min_eigenvalue(rho, cut)
        assert abs(compressed - dense_ppt_min(rho.matrix, rho.dims, cut)) < 1e-12

    def test_noncommuting_record_stays_on_the_support(self, monkeypatch):
        formed, shapes = [], []
        matrix = DensityMatrix.__dict__["matrix"]

        def spied(rho):
            formed.append(rho.dims.total)
            return matrix.__get__(rho, DensityMatrix)

        monkeypatch.setattr(DensityMatrix, "matrix", property(spied))
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a)[-1])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        state, couplings, _ = _coarse_pair(theta=math.pi / 3, impulse_a=1.0)
        evolved = evolve(state, couplings)
        shapes.clear()
        verdict = readability_check(evolved, CUT_POINTERS)
        assert verdict.status == "entangled"
        assert formed == []
        assert shapes and max(shapes) < 256

    def test_bound_comes_from_the_discarded_part(self, monkeypatch):
        # Two columns on a 2 x 2 support of a 5 x 4 space, plus a planted
        # 1e-8 component orthogonal to it on both sides, which a 1e-6 cutoff
        # discards: the compressed state is then exactly the first part.
        rng = np.random.default_rng(7)
        qa = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        qb = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        core = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        kept = np.einsum("ai,kij,bj->abk", qa[:, :2], core, qb[:, :2]).reshape(20, 2)
        planted = np.einsum("a,k,b->abk", qa[:, 4], [1.0, 2.0], qb[:, 3]).reshape(20, 2)
        scale = np.linalg.norm(kept)
        u = (kept + 1e-8 * scale * planted) / scale
        rho = DensityMatrix(DimensionSpec.of(("a", 5), ("b", 4)), u)
        rho_kept = (kept / scale) @ (kept / scale).conj().T
        exact = np.linalg.norm(rho.matrix - rho_kept)
        monkeypatch.setattr(separability, "SUPPORT_CUTOFF", 1e-6)
        low, bound = separability._support_ppt_min(u, (5, 4), [0, 1], 5, 4)
        assert bound == pytest.approx(exact, rel=1e-6)
        assert abs(low - dense_ppt_min(rho.matrix, rho.dims, CUT_AB)) <= bound
        with pytest.raises(ValueError, match="no verdict"):
            ppt_min_eigenvalue(rho, CUT_AB)


X, Z = pauli(SIGMA_X), pauli(SIGMA_Z)


def _history(phases, order="AB", phi=0.4, method="shift", grid=COARSE):
    """A record of ``phases``, each a list of (observable, pointer), at impulse 0.5.

    ``order`` is the order of the pointers in the state, and so in its branch form.
    """
    specs = [PointerSpec(lab, grid) for lab in order]
    state = build_initial(bloch_state(math.pi / 3, phi), specs)
    for phase in phases:
        state = evolve(state, [Coupling(op, lab, 0.5) for op, lab in phase], method)
    return state


def _dense_oracles(state, certificate, verdict=None):
    """The certificate rebuilt densely against the dense partial trace, and the dense PPT.

    Given the ``verdict`` that carries the certificate, its witness value is
    also pinned to the dense partial trace's dense PPT, and its error to the
    dense trace distance of the reconstruction, both to 1e-12.
    """
    dims = state.pointer_dims()
    cut = (dims.labels[:1], dims.labels[1:])
    want = partial_trace(pure_density(state.state), state.state.dims, dims.labels)
    got = reconstruct(certificate, dims)
    assert np.abs(got - want).max() <= 1e-12
    ppt = dense_ppt_min(got, dims, cut)
    assert ppt >= separability.ENTANGLEMENT_THRESHOLD
    if verdict is not None:
        assert abs(verdict.ppt_min - dense_ppt_min(want, dims, cut)) <= 1e-12
        assert abs(verdict.certificate_error - trace_distance(got, want)) <= 1e-12


# the histories the rule certifies, with the label it reads off their branch form
CERTIFIED = {
    "zA zB": ([[(Z, "A"), (Z, "B")]], "commuting-eigenbasis"),
    "zA, xB": ([[(Z, "A")], [(X, "B")]], "sequential-branches"),
    "zB, xA": ([[(Z, "B")], [(X, "A")]], "sequential-branches"),
    "zA, zB, zA": ([[(Z, "A")], [(Z, "B")], [(Z, "A")]], "commuting-eigenbasis"),
    "xA, zB, zB": ([[(X, "A")], [(Z, "B")], [(Z, "B")]], "sequential-branches"),
    "xA, zB zB": ([[(X, "A")], [(Z, "B"), (Z, "B")]], "sequential-branches"),
}


class TestRevalidationGrid:
    """The certificate rule reads the Gram matrix of the branch cores, built from
    spectral projectors and kick values alone, so no grid enters it: a history
    takes the same route on any grid that holds its rows. That is checked here,
    once, and each verdict is decided on the state it is given."""

    GRIDS = (16, 32, 256)

    @staticmethod
    def _reading(state):
        """The route's method, kind and term index, with the verdict certified at roundoff."""
        route = separability._certificate_route(state)
        verdict = readability_check(state, CUT_POINTERS)
        assert (verdict.status, verdict.method) == ("separable", route.method)
        assert verdict.certificate.kind == route.kind
        assert verdict.certificate_error <= 1e-14
        return route.method, route.kind, [index.tolist() for index in route.index]

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_certified_history_takes_one_route_on_every_grid(self, name):
        phases, method = CERTIFIED[name]
        readings = [
            self._reading(_history(phases, grid=PointerGrid(points, 16.0)))
            for points in self.GRIDS
        ]
        assert readings[0][:2] == (method, method)
        assert readings == readings[:1] * len(self.GRIDS)

    @pytest.mark.parametrize("kind", ["commuting", "sequential"])
    def test_ladder_takes_one_route_on_every_grid(self, kind):
        for impulse in LADDER:
            readings = [
                self._reading(_record_state(points, math.pi / 3, impulse, **FAMILY[kind]))
                for points in self.GRIDS
            ]
            assert readings == readings[:1] * len(self.GRIDS), impulse

    @pytest.mark.parametrize("points", [256, 64])
    @pytest.mark.parametrize("d", [2, 4])
    def test_revalidation_grid_holds_the_branch_rows(self, d, points):
        """64 distinct kicks on pointer A, more rows than a 32-point grid holds,
        keep the branch form on a grid that holds them, and the record, a
        product since B is never coupled, is certified at roundoff. Six
        sigma_z couplings at impulses 0.32 / 2^j, or three
        couplings of a four-level observable at 0.16 / 4^j, give every sum
        of kicks apart, as binary or base-4 digits."""
        grid = PointerGrid(points=points, length=16.0)
        specs = [PointerSpec("A", grid), PointerSpec("B", grid)]
        if d == 2:
            observable, impulses = pauli(SIGMA_Z), 0.32 / 2.0 ** np.arange(6)
        else:
            dims = DimensionSpec.of(("system", 4))
            observable = Operator(dims, np.diag([-1.5, -0.5, 0.5, 1.5]))
            impulses = 0.16 / 4.0 ** np.arange(3)
        v = np.arange(1, d + 1) + 0.5j
        state = build_initial(StateVector(observable.dims, v / np.linalg.norm(v)), specs)
        for impulse in impulses:
            state = evolve(state, [Coupling(observable, "A", impulse)])
        assert [len(rows) for rows in state.branches.factors] == [64, 1]
        verdict = readability_check(state, CUT_POINTERS)
        assert verdict.status == "separable"
        assert verdict.certificate_error <= 1e-14

    @pytest.mark.parametrize("impulse", [0.1, 0.2])
    def test_repeated_kicks_share_rows(self, impulse):
        """Five sigma_z couplings on A of a 16-point pair: rows of equal kick are
        one row, so the state keeps its branch form with 8 rows, not 2^5, and
        the record, a product since B is never coupled, is certified. The 6
        kicks of exact arithmetic are 8 in floating point."""
        specs = [PointerSpec("A", COARSE), PointerSpec("B", COARSE)]
        state = build_initial(bloch_state(math.pi / 3, 0.4), specs)
        for _ in range(5):
            state = evolve(state, [Coupling(pauli(SIGMA_Z), "A", impulse)])
        assert [len(rows) for rows in state.branches.factors] == [8, 1]
        assert len(set(state.branches.kicks[0])) == 8
        verdict = readability_check(state, CUT_POINTERS)
        assert (verdict.status, verdict.method) == ("separable", "commuting-eigenbasis")
        assert verdict.certificate_error <= 1e-14


def _planted(core, kicks):
    """A two-pointer state on COARSE grids in branch form: ``core``, and on both
    pointers the packet translated by each of ``kicks``, one row each."""
    system = StateVector(DimensionSpec.of(("system", core.shape[-1])), np.eye(core.shape[-1])[0])
    state = build_initial(system, [PointerSpec("A", COARSE), PointerSpec("B", COARSE)])
    packet = gaussian_state(PointerSpec("A", COARSE))
    rows = np.stack([translate(packet, a, COARSE).amplitudes for a in kicks])
    factors = (rows, rows)
    norm = engine._gram_norm(core, factors)
    form = engine._Branches(core, factors, (np.array(kicks),) * 2, norm)
    return dataclasses.replace(state, _evolved=form)


class TestCertificateRule:
    """One rule reads a certificate off the branch form, whatever history made it."""

    @pytest.mark.parametrize("phi", [0.7, 2.3])
    @pytest.mark.parametrize("order", ["AB", "BA"])
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_complex_phase_records_on_both_sides_of_the_cut(self, name, order, phi):
        """A complex initial phase makes each group's coefficient matrix complex, so
        it differs from its transpose; either pointer may come first in the form."""
        phases, method = CERTIFIED[name]
        state = _history(phases, order, phi=phi)
        for cut in (CUT_POINTERS, CUT_POINTERS[::-1]):
            verdict = readability_check(state, cut)
            assert (verdict.status, verdict.method) == ("separable", method)
            assert verdict.certificate.kind == method
            assert verdict.certificate_error <= 1e-14
            assert verdict.notes == ()
        _dense_oracles(state, verdict.certificate)

    def test_histories_pinned(self):
        """Three-phase histories, one with two couplings in a phase, certified at roundoff."""
        for name in ("zA, zB, zA", "xA, zB, zB", "xA, zB zB"):
            phases, method = CERTIFIED[name]
            verdict = readability_check(_history(phases), CUT_POINTERS)
            assert (verdict.status, verdict.method) == ("separable", method), name
            assert verdict.certificate_error <= 1e-15, name

    def test_alternating_history_stays_entangled(self):
        """sigma_x, sigma_z, sigma_x: the cores overlap across the rows of both pointers."""
        state = _history([[(X, "A")], [(Z, "B")], [(X, "A")]])
        assert separability._certificate_route(state) is None
        verdict = readability_check(state, CUT_POINTERS)
        assert (verdict.status, verdict.certificate) == ("entangled", None)
        assert verdict.ppt_min == pytest.approx(-1.878217892980567e-02, abs=1e-10)

    @pytest.mark.parametrize("method", ["shift", "expm"])
    def test_noncommuting_ladder_never_certified(self, method):
        for impulse in np.geomspace(1e-4, 1.5, 12):
            state, couplings, _ = _coarse_pair(theta=math.pi / 3, impulse_a=impulse)
            state = evolve(state, couplings, method)
            assert state.branches is None
            assert separability._certificate_route(state) is None, impulse
            assert readability_check(state, CUT_POINTERS).certificate is None, impulse

    def test_window_form_gets_no_certificate(self):
        """A noncommuting phase on 128-point pointers leaves window rows, kicks
        None: however few, they are not branches of a mixture, so the rule
        reads nothing and the witness answers, with the form's tail in its
        bound; a tail of 1e-9 puts the bound past SUPPORT_BOUND_TOL."""
        grid = PointerGrid(128, 16.0)
        specs = [PointerSpec(lab, grid) for lab in "AB"]
        state = build_initial(bloch_state(math.pi / 3, 0.0), specs)
        phase = [Coupling(pauli(SIGMA_X), "A", 0.5), Coupling(pauli(SIGMA_Z), "B", 0.5)]
        state = evolve(state, phase)
        form = state.branches
        assert form.kicks is None and 0.0 < form.tail <= engine.WINDOW_TAIL_TOL
        assert separability._certificate_route(state) is None
        verdict = readability_check(state, CUT_POINTERS)
        assert (verdict.status, verdict.method, verdict.certificate) == ("entangled", "ppt", None)
        formed = dataclasses.replace(state, _evolved=state.state)
        assert verdict.ppt_min == pytest.approx(
            readability_check(formed, CUT_POINTERS).ppt_min, abs=1e-14
        )
        widened = dataclasses.replace(state, _evolved=dataclasses.replace(form, tail=1e-9))
        with pytest.raises(ValueError, match="no verdict"):
            readability_check(widened, CUT_POINTERS)

    @pytest.mark.parametrize("name", ["zA zB", "zA, xB", "zA, zB, zA"])
    def test_expm_record_gets_no_certificate(self, name):
        """The dense integrator leaves no branch form, so the rule has nothing to
        read and the witness alone answers; the certificate of the same history
        evolved by the shift integrator still holds on the dense record."""
        phases, method = CERTIFIED[name]
        state = _history(phases, method="expm")
        assert state.branches is None
        assert separability._certificate_route(state) is None
        verdict = readability_check(state, CUT_POINTERS)
        assert (verdict.status, verdict.certificate) == ("inconclusive", None)
        certificate = readability_check(_history(phases), CUT_POINTERS).certificate
        assert certificate.kind == method
        rho = apparatus_density(state)
        assert certificate.validate(rho) <= 1e-12
        _dense_oracles(state, certificate)

    @pytest.mark.parametrize("entry, method", [(8e-13, "commuting-eigenbasis"), (1.25e-12, None)])
    def test_gram_entry_near_branch_tol(self, entry, method):
        """A Gram entry just below and just above BRANCH_TOL (1e-12) times the
        trace, between the cores of branches on different rows of both
        pointers, counts only above it. Literal entries, so that a changed
        value of the constant is caught."""
        core = np.zeros((2, 2, 4), dtype=complex)
        core.reshape(4, 4)[:] = 0.5 * np.eye(4)
        # <c_00|c_11> = 0.5 * delta, and the trace is 1 + delta^2, 1 in double precision
        core[1, 1, 0] = 2 * entry
        route = separability._certificate_route(_planted(core, (-0.5, 0.5)))
        assert (route and route[0]) == method

    @pytest.mark.parametrize("sine, accepted", [(7e-9, True), (1.4e-8, False)])
    def test_factor_off_the_record_span_near_certificate_tol(self, sine, accepted, monkeypatch):
        """Pointer A's factor of the uncoupled product tilted off the record's span,
        the one row A has, by an angle whose sine is 0.7x and 1.4x CERTIFICATE_TOL
        (1e-8): the trace distance of two pure states is that sine, so the first
        certificate holds and the second is discarded. Literal sines, so that a changed value of the constant is
        caught; the tilt's part off the span enters as a coordinate, where a
        norm difference, 1 - cos^2, would read roundoff instead."""
        route = separability._certificate_route

        def tilted(state):
            found = route(state)
            (row,) = found.rows[0]
            off = np.arange(len(row)) * row
            off = off - row * np.vdot(row, off)
            off /= np.linalg.norm(off)
            rows = (math.sqrt(1 - sine**2) * row + sine * off)[None]
            return found._replace(rows=(rows, *found.rows[1:]))

        monkeypatch.setattr(separability, "_certificate_route", tilted)
        state, _, _ = _coarse_pair()
        verdict = readability_check(state, CUT_POINTERS)
        if accepted:
            assert (verdict.status, verdict.method) == ("separable", "uncoupled-product")
            assert verdict.certificate_error == pytest.approx(sine, abs=1e-15)
        else:
            assert (verdict.status, verdict.certificate) == ("inconclusive", None)
            assert verdict.notes[0] == f"certificate failed validation ({sine:.3e}), discarded"

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.lists(
            st.tuples(st.booleans(), st.lists(st.sampled_from("AB"), min_size=1, max_size=3)),
            min_size=1,
            max_size=3,
        ),
    )
    # epr's phase: PAIR_X on A and PAIR_Z on B, two eigenspaces each, so 2 rows per pointer
    @example(d=4, seed=2, shared=False, phases=[(True, ["A", "B"])])
    # a degenerate qutrit read by A, then by B twice in one phase
    @example(d=3, seed=2, shared=False, phases=[(False, ["A"]), (False, ["B", "B"])])
    def test_property_certificates_match_dense_oracles(self, d, seed, shared, phases):
        """1-3 commuting phases on two pointers, with degenerate spectra.

        A phase is (pair observables, pointers); on d = 4 the first picks
        PAIR_X or PAIR_Z per coupling instead of a commuting family, which
        is drawn afresh for each phase, or once for the whole history when
        ``shared``. A state in branch form has one row per distinct kick.
        Whenever a certificate is issued, it rebuilds the dense partial
        trace and its dense partial transpose is nonnegative. When every
        observable of the history commutes with every other and the state
        keeps its branch form, a certificate must be issued: the joint
        eigenspaces give orthogonal cores.
        """
        rng = np.random.default_rng(seed)
        dims = DimensionSpec.of(("system", d))
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        state = build_initial(
            StateVector(dims, v / np.linalg.norm(v)),
            [PointerSpec("A", COARSE), PointerSpec("B", COARSE)],
        )
        family = commuting_family(rng, d, sum(len(on) for _, on in phases))
        kicks = {"A": np.zeros(1), "B": np.zeros(1)}
        for pair, on in phases:
            if pair and d == 4:
                pick = rng.integers(2, size=len(on))
                observables = [Operator(dims, (PAIR_X, PAIR_Z)[i].matrix) for i in pick]
            elif shared:
                observables, family = family[: len(on)], family[len(on) :]
            else:
                observables = commuting_family(rng, d, len(on))
            # at most 9 kicks of 0.2 on one pointer stay inside its margin of 2
            phase = [Coupling(op, lab, rng.uniform(-0.2, 0.2)) for op, lab in zip(observables, on)]
            state = evolve(state, phase)
            kicks = {lab: branch_kicks(k, phase, lab) for lab, k in kicks.items()}
        form = state.branches
        if form is not None:
            assert [len(rows) for rows in form.factors] == [len(kicks["A"]), len(kicks["B"])]
        verdict = readability_check(state, CUT_POINTERS)
        couplings = [c for phase in state.history for c in phase]
        if engine._couplings_commute(couplings) and form is not None:
            assert verdict.status == "separable", (d, phases)
        if verdict.certificate is not None:
            _dense_oracles(state, verdict.certificate, verdict)
