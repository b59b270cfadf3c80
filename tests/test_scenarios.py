"""End-to-end scenario reports: frozen spot values and report plumbing."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import pointerlab
from pointerlab import cli, engine, pointer, scenarios, separability, tensors
from pointerlab.scenarios import DEFAULTS, SCENARIOS, run_scenario

REPORT_KEYS = {
    "scenario",
    "config",
    "readouts",
    "predictions",
    "defects",
    "checks",
    "readability",
    "schmidt",
    "purity",
    "pass",
    "notes",
    "runtime_seconds",
}

TAN_PI_8 = 0.41421356237309503


def test_registry_and_defaults_line_up():
    assert set(SCENARIOS) == set(DEFAULTS)
    assert len(SCENARIOS) == 7


@pytest.mark.parametrize("name, most", [("eigenstate", 125), ("weak-noselect", 50)])
def test_dense_oracle_products_at_defaults(name, most, monkeypatch):
    """The spectral-norm bound keeps the oracle's H v products per default run down."""
    products = []
    dense_action = engine._dense_action

    def counted(state, couplings):
        apply_h, bound = dense_action(state, couplings)

        def apply_counted(v):
            products.append(v.shape)
            return apply_h(v)

        return apply_counted, bound

    monkeypatch.setattr(engine, "_dense_action", counted)
    assert run_scenario(name).passed
    assert 0 < len(products) <= most


def test_all_defaults_pass(default_reports):
    failed = {
        name: [k for k, ok in report.checks.items() if not ok]
        for name, report in default_reports.items()
        if not report.passed
    }
    assert not failed


def test_reports_serialize_to_json(default_reports):
    for report in default_reports.values():
        d = report.to_dict()
        assert set(d) == REPORT_KEYS
        json.loads(json.dumps(d))  # strict JSON, no NaN/inf leakage


def test_runs_are_deterministic():
    a = run_scenario("weak-noselect").to_dict()
    b = run_scenario("weak-noselect").to_dict()
    a.pop("runtime_seconds")
    b.pop("runtime_seconds")
    assert a == b


def test_each_state_evolved_once(monkeypatch):
    """The seven defaults evolve their states at most 42 times, 8 of them dense.

    ``engine.evolve`` is rebound in every module that holds it, as the
    benchmark's span recorder does. One dense call per coupling phase (eight
    phases in all) backs the evolution_paths defect; the rest count the
    distinct states, plus the certificate replicas.
    """
    original = engine.evolve
    methods = []

    def counted(state, couplings, method="shift"):
        methods.append(method)
        return original(state, couplings, method)

    for mod in (pointerlab, tensors, pointer, engine, separability, scenarios, cli):
        if vars(mod).get("evolve") is original:
            monkeypatch.setattr(mod, "evolve", counted)
    for name in SCENARIOS:
        run_scenario(name)
    assert methods.count("expm") == 8
    assert len(methods) <= 42


# np.fft calls per default scenario on arrays shaped (system, n, n): two
# readout-grid pointer axes behind the system. A commuting phase on a state
# with no history is written from its branches' 1-D factors and runs none;
# a noncommuting one is transformed from its packets' spectra, so it runs
# only its inverse transform; a phase on a state with history runs at most
# one transform pair. The weak-orders series starts from the product state,
# so it is built from the packets' 1-D transforms and runs none.
READOUT_FFT_PASSES = {
    "weak-noselect": {},
    "weak-postselect": {},
    "simultaneous": {"ifftn": 2},
    "weak-orders": {"ifftn": 2},
    "eigenstate": {},
    "epr": {},
    "sequential": {"fftn": 1, "ifftn": 1},
}


@pytest.mark.parametrize("name", list(READOUT_FFT_PASSES))
def test_readout_grid_fft_passes(monkeypatch, name):
    n = DEFAULTS[name].readout_grid().points
    counts = {}
    for fname in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft"):

        def counted(a, *args, _name=fname, _original=getattr(np.fft, fname), **kwargs):
            if np.ndim(a) == 3 and np.shape(a)[1:] == (n, n):
                counts[_name] = counts.get(_name, 0) + 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, fname, counted)
    run_scenario(name)
    assert counts == READOUT_FFT_PASSES[name]


# Peak traced allocation over one default run, above where it started, in
# readout states: system dimension x 256 x 256 amplitudes, 2 MiB (4 MiB for
# epr's pair). Measured at numpy 2.4: simultaneous 3.55, weak-orders 5.02,
# epr 2.01 and sequential 3.07 states. The product state is never formed
# for the shift integrator, a commuting phase is written once from its
# branches, and a state's amplitudes are viewed, not copied, by its
# reduced densities.
WORKING_SET_STATES = {
    "simultaneous": 3.6,
    "weak-orders": 5.1,
    "epr": 2.025,
    "sequential": 3.1,
}


@pytest.mark.parametrize("name", list(WORKING_SET_STATES))
def test_readout_working_set(name):
    cfg = DEFAULTS[name]
    system = SCENARIOS[name].system(cfg.theta_i, cfg.phi_i)
    state_bytes = 16 * system.dims.total * cfg.grid_points**2
    run_scenario(name)  # fills the per-spec caches outside the count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_scenario(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / state_bytes <= WORKING_SET_STATES[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_steps_read_cached_spectra(monkeypatch, name):
    """No scenario step eigensolves a coupled observable again: each reads ``spectrum``."""
    operators = (scenarios.PAULI_X, scenarios.PAULI_Z, scenarios.PAIR_X, scenarios.PAIR_Z)
    matrices = [op.matrix for op in operators] + [scenarios.SIGMA_X, scenarios.SIGMA_Z]
    for op in operators:
        op.spectrum
    again = []
    for fname in ("eigh", "eigvalsh"):

        def spied(a, *args, _original=getattr(np.linalg, fname), **kwargs):
            again.extend(m for m in matrices if a is m)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, fname, spied)
    run_scenario(name)
    assert again == []


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_scenario("weak-unselect")


class TestScalingCheck:
    """Defect pairs just either side of each two-point scaling threshold."""

    @staticmethod
    def _check(drop, ratio, defect=1e-6):
        return scenarios._scaling_check(defect, defect / drop, ratio)

    def test_quadratic_ratio(self):
        assert self._check(3.6, scenarios.QUADRATIC_RATIO)
        assert not self._check(3.4, scenarios.QUADRATIC_RATIO)

    def test_cubic_ratio(self):
        assert self._check(7.6, scenarios.CUBIC_RATIO)
        assert not self._check(7.4, scenarios.CUBIC_RATIO)

    def test_floor(self):
        """A defect that does not drop passes only at the roundoff floor."""
        assert self._check(1.0, scenarios.QUADRATIC_RATIO, defect=1e-12)
        assert not self._check(1.0, scenarios.QUADRATIC_RATIO, defect=2e-12)


class TestWeakNoselect:
    def test_mean_frozen(self, default_reports):
        # impulse 0.2 times <sigma_z> = 1/2 at theta = pi/3
        report = default_reports["weak-noselect"]
        assert report.readouts["mean_a"] == pytest.approx(0.1, abs=1e-8)
        assert report.predictions["mean_a"] == pytest.approx(0.1, abs=1e-12)

    def test_record_is_weakly_entangled(self, default_reports):
        report = default_reports["weak-noselect"]
        assert report.schmidt["rank"] == 2
        assert report.purity < 1.0 - 1e-6


class TestWeakPostselect:
    def test_probability_frozen(self, default_reports):
        report = default_reports["weak-postselect"]
        # (1 + sin(pi/4) exp(-(gt)^2/2)) / 2 at gt = 0.01
        assert report.readouts["probability"] == pytest.approx(0.85353571, abs=1e-8)

    def test_normalized_mean_tracks_weak_value(self, default_reports):
        report = default_reports["weak-postselect"]
        assert report.predictions["weak_value_re"] == pytest.approx(TAN_PI_8, abs=1e-12)
        assert report.predictions["weak_value_im"] == pytest.approx(0.0, abs=1e-12)
        readout = report.readouts["normalized_mean_a"]
        assert readout == pytest.approx(0.01 * TAN_PI_8, rel=1e-4)

    def test_scaling_checks_active(self, default_reports):
        checks = default_reports["weak-postselect"].checks
        assert checks["probability_first_order_scaling"]
        assert checks["normalized_mean_a_first_order_scaling"]


class TestSimultaneous:
    def test_record_entangled(self, default_reports):
        readability = default_reports["simultaneous"].readability
        assert readability["status"] == "entangled"
        assert readability["ppt_min"] < -1e-6

    def test_cross_moment_beyond_first_order(self, default_reports):
        report = default_reports["simultaneous"]
        assert report.checks["cross_moment_beyond_first_order"]
        assert report.readouts["cross_moment"] == pytest.approx(
            report.predictions["cross_moment"], abs=1e-3
        )


class TestWeakOrders:
    def test_defect_ratios_frozen(self, default_reports):
        report = default_reports["weak-orders"]
        assert report.readouts["defect_ratio_order1"] == pytest.approx(4.0, abs=0.5)
        assert report.readouts["defect_ratio_order2"] == pytest.approx(8.0, abs=1.0)

    def test_truncation_defects_match_closed_form(self, default_reports):
        """Defects against the sigma_x / sigma_z block series, summed term by term.

        Per momentum block h = g_a k_a sigma_x + g_b k_b sigma_z squares to
        |c|^2 I, so the order-n residual is (C_n(u) I - i S(u) h/|c|) psi(k)
        with u = t |c|, C_n the cosine series less its first n terms and
        S = sin u - u. The cross term is imaginary and h/|c| is unitary, so
        the squared defect is the sum of (C_n^2 + S^2) |psi(k)|^2 over the
        grid. The system state drops out. Each series is summed from its
        first kept term, so nothing cancels against 1 or u.
        """
        report = default_reports["weak-orders"]
        cfg = report.config
        grid = cfg.readout_grid()
        x, k = grid.positions(), grid.wavenumbers()

        def momentum_weight(x0):
            amp = np.exp(-((x - x0) ** 2) / (4.0 * cfg.sigma**2))
            return np.abs(np.fft.fft(amp / np.linalg.norm(amp))) ** 2 / grid.points

        weight = np.multiply.outer(momentum_weight(cfg.x0_a), momentum_weight(cfg.x0_b))

        def tail(u, first):
            """sum_{m >= first, m - first even} (-1)^((m - first) / 2) u^m / m!"""
            term = u**first / math.factorial(first)
            total = np.zeros_like(u)
            for m in range(first, first + 60, 2):
                total += term
                term = -term * u * u / ((m + 1) * (m + 2))
            return total

        def defects(scale):
            u = cfg.t * scale * np.hypot.outer(cfg.g_a * k, cfg.g_b * k)
            sin_tail = -tail(u, 3)
            return [
                math.sqrt(float(((cos_tail**2 + sin_tail**2) * weight).sum()))
                for cos_tail in (-tail(u, 2), tail(u, 4))
            ]

        (d1, d2), (h1, h2) = defects(1.0), defects(0.5)
        readouts = report.readouts
        assert readouts["truncation_defect_order1"] == pytest.approx(d1, rel=2e-12)
        assert readouts["truncation_defect_order2"] == pytest.approx(d2, rel=2e-12)
        assert readouts["defect_ratio_order1"] == pytest.approx(d1 / h1, rel=1e-11)
        assert readouts["defect_ratio_order2"] == pytest.approx(d2 / h2, rel=1e-11)

    def test_truncation_defects_take_one_series_pass(self, monkeypatch):
        """One order-2 series pass serves both impulse scales.

        It starts from the product state, so it is built from the packets'
        1-D transforms: no ``np.fft.fft`` runs over the readout state.
        """
        passes = []
        partial_sums = engine.partial_sums

        def counted_sums(state, couplings, order):
            passes.append((state.state.dims.sizes, order))
            return partial_sums(state, couplings, order)

        shapes = []
        original = np.fft.fft

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(engine, "partial_sums", counted_sums)
        monkeypatch.setattr(np.fft, "fft", counted)
        report = run_scenario("weak-orders")
        n = report.config.readout_grid().points
        # the other pass is the first-order certificate's, on the analysis grid
        assert [order for sizes, order in passes if sizes == (2, n, n)] == [2]
        assert (2, n, n) not in shapes

    def test_forms_no_apparatus_matrix(self, matrix_reads, eigensolve_shapes):
        """Only the 2 x 2 system state is read whole, and no eigensolve reaches
        the 256 dimensions of the two 16-point analysis pointers."""
        run_scenario("weak-orders")
        assert matrix_reads and set(matrix_reads) == {2}
        assert max(shape[-1] for shape in eigensolve_shapes) < 256

    def test_coupling_strength_ladder(self, default_reports):
        report = default_reports["weak-orders"]
        assert report.defects["first_order_certificate"] < 1e-8
        assert report.readouts["ppt_min_strong_coupling"] < -1e-4
        assert abs(report.readouts["ppt_min_weak_coupling"]) < 1e-8


class TestEigenstate:
    def test_purity_frozen(self, default_reports):
        report = default_reports["eigenstate"]
        expected = 0.5 * (1.0 + math.exp(-0.25))
        assert report.readouts["purity"] == pytest.approx(expected, abs=1e-6)
        assert report.readouts["mean_a"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("offset, ok", [(0.0, True), (5e-7, True), (2e-6, False)])
    def test_purity_checks_near_their_tolerance(self, offset, ok):
        """A purity off by just more than PURITY_TOL fails both purity checks."""
        cfg = DEFAULTS["eigenstate"]
        spec = pointer.PointerSpec("A", cfg.readout_grid(), cfg.x0_a, cfg.sigma)
        system = scenarios.bloch_state(cfg.theta_i, cfg.phi_i)
        phases = SCENARIOS["eigenstate"].phases(cfg, 1.0)
        state, _ = scenarios._evolve(system, [spec], phases)
        rho = engine.system_density(state).matrix
        purity = float(np.trace(rho @ rho).real) + offset
        run = scenarios.Run(cfg, state, None, None, purity, None)
        checks = scenarios._eigenstate(run).checks
        assert checks["purity_matches_formula"] is ok
        assert checks["purity_matches_sampled_overlap"] is ok

    def test_true_eigenstate_input_stays_sharp(self):
        cfg = dataclasses.replace(DEFAULTS["eigenstate"], theta_i=math.pi / 2)
        report = run_scenario("eigenstate", cfg)
        assert report.passed
        assert report.readouts["mean_a"] == pytest.approx(0.5, abs=1e-9)
        assert report.readouts["purity"] == pytest.approx(1.0, abs=1e-9)
        assert report.schmidt["rank"] == 1


class TestEpr:
    def test_anticorrelation_frozen(self, default_reports):
        report = default_reports["epr"]
        assert report.readouts["correlation"] == pytest.approx(-1.0, abs=1e-12)
        assert report.readouts["mean_a"] == pytest.approx(0.0, abs=1e-9)
        assert report.readouts["mean_b"] == pytest.approx(0.0, abs=1e-9)

    def test_record_separable_with_flat_weights(self, default_reports):
        readability = default_reports["epr"].readability
        assert readability["status"] == "separable"
        assert sorted(readability["weights"]) == pytest.approx([0.25] * 4, abs=1e-10)

    def test_product_input_concentrates_weights(self):
        cfg = dataclasses.replace(DEFAULTS["epr"], theta_i=0.0)
        report = run_scenario("epr", cfg)
        assert report.passed
        assert report.readouts["mean_b"] == pytest.approx(-0.5, abs=1e-9)
        weights = report.readability["weights"]
        assert sorted(weights) == pytest.approx([0.5, 0.5], abs=1e-10)

    @pytest.fixture(scope="class")
    def epr_run(self):
        """The default run as the runner hands it to ``_epr``."""
        cfg = DEFAULTS["epr"]
        system = scenarios._pair_state(cfg.theta_i, cfg.phi_i)
        phases = SCENARIOS["epr"].phases(cfg, 1.0)
        specs = [
            pointer.PointerSpec(lab, cfg.readout_grid(), x0, cfg.sigma)
            for lab, x0 in (("A", cfg.x0_a), ("B", cfg.x0_b))
        ]
        state, _ = scenarios._evolve(system, specs, phases)
        analysis = [dataclasses.replace(s, grid=scenarios.ANALYSIS_GRID) for s in specs]
        verdict = separability.readability_check(
            scenarios._evolve(system, analysis, phases)[0], scenarios.POINTER_CUT
        )
        return scenarios.Run(cfg, state, None, verdict, 1.0, None)

    @staticmethod
    def _failed(run):
        return {name for name, ok in scenarios._epr(run).checks.items() if not ok}

    @pytest.mark.parametrize("scale, failed", [(0.5, set()), (2.0, {"weights_match_populations"})])
    def test_weights_check_near_its_tolerance(self, epr_run, scale, failed):
        """Two certificate weights moved apart by a multiple of EPR_WEIGHT_TOL, total kept."""
        shift = scale * scenarios.EPR_WEIGHT_TOL
        certificate = epr_run.verdict.certificate
        first, second, *rest = certificate.terms
        terms = (
            dataclasses.replace(first, weight=first.weight + shift),
            dataclasses.replace(second, weight=second.weight - shift),
            *rest,
        )
        moved = dataclasses.replace(certificate, terms=terms)
        verdict = dataclasses.replace(epr_run.verdict, certificate=moved)
        assert self._failed(dataclasses.replace(epr_run, verdict=verdict)) == failed

    @pytest.mark.parametrize("scale, failed", [(0.5, set()), (2.0, {"anticorrelation_sharp"})])
    def test_anticorrelation_check_near_its_tolerance(self, epr_run, scale, failed):
        """An |up, up> amplitude that gives Var(zz) a multiple of SHARP_CORRELATION_TOL.

        With weight e^2 there, <zz> = (e^2 - 1) / (1 + e^2), so Var(zz) is
        4 e^2 / (1 + e^2)^2 and |<zz> + 1| half of that. The amplitude is i
        times the phase of the |down, up> one, so <sigma_x (x) 1> stays 0;
        the other readouts and the populations move by e^2 only.
        """
        variance = scale * scenarios.SHARP_CORRELATION_TOL
        e = math.sqrt(variance) / 2
        amplitudes = epr_run.system.amplitudes.copy()
        amplitudes[0] = 1j * e * amplitudes[2] / abs(amplitudes[2])
        system = tensors.StateVector(
            scenarios.PAIR_DIMS, amplitudes / np.linalg.norm(amplitudes)
        )
        state = dataclasses.replace(epr_run.state, initial_system=system)
        assert self._failed(dataclasses.replace(epr_run, state=state)) == failed


class TestSequential:
    def test_second_stage_mean_frozen(self, default_reports):
        report = default_reports["sequential"]
        assert report.readouts["mean_b"] == pytest.approx(0.25, abs=1e-9)

    def test_first_stage_readout_is_damped(self, default_reports):
        report = default_reports["sequential"]
        assert report.readouts["mean_a"] == pytest.approx(
            report.predictions["mean_a_damped"], abs=1e-8
        )
        assert report.readouts["mean_a"] < report.predictions["mean_a_first_order"]

    def test_conditioning_moves_the_other_dial(self, default_reports):
        report = default_reports["sequential"]
        assert report.checks["conditioned_readout_shifts"]
        deviation = abs(report.readouts["conditioned_mean_a"] - report.readouts["mean_a"])
        assert deviation > 1e-3

    def test_record_separable(self, default_reports):
        readability = default_reports["sequential"].readability
        assert readability["status"] == "separable"
        assert readability["method"] == "sequential-branches"
