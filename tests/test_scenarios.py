"""End-to-end scenario reports: frozen spot values and report plumbing."""

import dataclasses
import functools
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
    """The seven defaults evolve their states at most 27 times, 8 of them dense.

    ``engine.evolve`` is rebound in every module that holds it, as the
    benchmark's span recorder does. One dense call per coupling phase (eight
    phases in all) backs the evolution_paths defect; the rest count the
    distinct states. A readability verdict evolves nothing.
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
    assert len(methods) <= 27


# np.fft calls per default scenario on arrays shaped (system, n, n): two
# readout-grid pointer axes behind the system. A commuting phase on a state
# in branch form keeps that form and transforms only its 1-D factor rows,
# so sequential's two phases run none; a noncommuting one on two readout-grid
# pointers keeps a window form, built from its packets' spectra on the cross
# region by 1-D transforms, so simultaneous and weak-orders run none either.
# The weak-orders series is built from the packets' 1-D transforms and is
# compared with the window form on the momenta, so it runs none.
READOUT_FFT_PASSES = {
    "weak-noselect": {},
    "weak-postselect": {},
    "simultaneous": {},
    "weak-orders": {},
    "eigenstate": {},
    "epr": {},
    "sequential": {},
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
# epr's pair). Measured at numpy 2.4: simultaneous 1.244, weak-orders 1.204,
# epr 0.109 and sequential 0.117 states. No state's amplitudes are formed:
# epr's and sequential's commuting records stay in branch form, read out
# from their compressed columns, so their peaks are the 16-point analysis
# states'; simultaneous's and weak-orders' noncommuting readout and
# half-impulse states are window forms, each about 0.65 MiB of rows and
# coefficients, and their truncation gaps are read on the momenta.
WORKING_SET_STATES = {
    "simultaneous": 1.3,
    "weak-orders": 1.3,
    "epr": 0.12,
    "sequential": 0.12,
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


@pytest.mark.parametrize("name", ["epr", "sequential"])
def test_commuting_records_never_formed(monkeypatch, name):
    """Default epr and sequential runs write no readout-grid array.

    Every amplitude array a state forms goes through ``UnifiedState.state``,
    and every one the engine writes from branches through ``_branch_sum``;
    both are spied on. Only the analysis states are formed.
    """
    n = DEFAULTS[name].readout_grid().points
    formed, written = [], []
    state = engine.UnifiedState.__dict__["state"]

    def spied_state(self):
        formed.append(tuple(spec.grid.points for spec in self.pointers))
        return state.func(self)

    spied = functools.cached_property(spied_state)
    spied.__set_name__(engine.UnifiedState, "state")
    monkeypatch.setattr(engine.UnifiedState, "state", spied)
    branch_sum = engine._branch_sum

    def spied_sum(core, factors):
        out = branch_sum(core, factors)
        written.append(out.shape)
        return out

    monkeypatch.setattr(engine, "_branch_sum", spied_sum)
    assert run_scenario(name).passed
    assert formed and all(n not in points for points in formed)
    assert written and all(n not in shape for shape in written)


@pytest.mark.parametrize("name", ["simultaneous", "weak-orders"])
def test_noncommuting_records_never_formed(monkeypatch, name):
    """Default simultaneous and weak-orders runs write no readout-grid array.

    Their readout and half-impulse states are window forms, read out on
    the momenta and from their rows. ``UnifiedState.state`` and
    ``_branch_sum`` are spied on as for the commuting records: only the
    analysis states are formed, and no branch sum spans both readout-grid
    pointer axes; the window's blocks span one.
    """
    n = DEFAULTS[name].readout_grid().points
    formed, written, windows = [], [], []
    state = engine.UnifiedState.__dict__["state"]

    def spied_state(self):
        formed.append(tuple(spec.grid.points for spec in self.pointers))
        return state.func(self)

    spied = functools.cached_property(spied_state)
    spied.__set_name__(engine.UnifiedState, "state")
    monkeypatch.setattr(engine.UnifiedState, "state", spied)
    branch_sum, evolve_window = engine._branch_sum, engine._evolve_window

    def spied_sum(core, factors):
        out = branch_sum(core, factors)
        written.append(out.shape)
        return out

    def spied_window(state, couplings, t):
        form = evolve_window(state, couplings, t)
        windows.append(form is not None and form.kicks is None)
        return form

    monkeypatch.setattr(engine, "_branch_sum", spied_sum)
    monkeypatch.setattr(engine, "_evolve_window", spied_window)
    assert run_scenario(name).passed
    assert formed and all(n not in points for points in formed)
    assert written and all(shape[-2:] != (n, n) for shape in written)
    # the readout and half-impulse states; the analysis states fit in one tile
    assert windows.count(True) == 2


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

    # sigma_z branch populations planted at impulse 0.2 and spread 1, where
    # 1 - gamma^2 = 1 - exp(-0.04): predicted second coefficients 9.9e-8,
    # 1.4e-7, 2.0e-7 and 2.0e-9 (rank 2 read, counted invisible by a
    # population gate at 1e-12), 2.8e-7 and 2.0e-11.
    @pytest.mark.parametrize(
        "population, rank",
        [(2.5e-13, 2), (5e-13, 2), (1e-12, 2), (1e-16, 2), (2e-12, 2), (1e-20, 1)],
    )
    def test_rank_from_predicted_coefficient(self, population, rank):
        theta = 2 * math.asin(math.sqrt(population))
        self._check_rank(dataclasses.replace(DEFAULTS["weak-noselect"], theta_i=theta), rank)

    # A packet a tenth of a grid spacing wide, at the default half-populated
    # branches: measured coefficients 0.63e-9 and 1.57e-9, where the
    # continuum overlap would predict 1.73e-9 and 4.33e-9.
    @pytest.mark.parametrize("g_a, rank", [(4e-10, 1), (1e-9, 2)])
    def test_rank_on_a_packet_narrower_than_its_grid(self, g_a, rank):
        cfg = DEFAULTS["weak-noselect"]
        self._check_rank(dataclasses.replace(cfg, g_a=g_a, sigma=0.1, grid_points=16), rank)

    @staticmethod
    def _check_rank(cfg, rank):
        """The predicted rank is ``rank``, and the run reads it and passes."""
        coupling = engine.Coupling(scenarios.PAULI_Z, "A", cfg.g_a, cfg.t)
        system = scenarios.bloch_state(cfg.theta_i, cfg.phi_i)
        spec = pointer.PointerSpec("A", cfg.readout_grid(), cfg.x0_a, cfg.sigma)
        assert scenarios._expected_branch_rank(system, coupling, spec) == rank
        report = run_scenario("weak-noselect", cfg)
        assert report.checks["schmidt_rank_as_expected"] and report.schmidt["rank"] == rank

    def test_threshold_impulse_predicts_nothing_inside_the_margin(self):
        """At the impulse whose coefficient is the tolerance, and only there, no rank is pinned.

        A half-populated branch pair has coefficient about impulse / 2 at
        spread 1, so impulses of 1.5e-9 and 3e-9 predict ranks 1 and 2, and
        the run reads the same; the report's note names the idle case.
        """
        system = scenarios.bloch_state(math.pi / 2, 0.0)
        # 1 - gamma^2 = 4 tol^2 at p = 1/2: the impulse D / 2 = sqrt(-log(1 - 4 tol^2))
        edge = math.sqrt(-math.log1p(-4 * tensors.SCHMIDT_RANK_TOL**2))
        spec = pointer.PointerSpec("A", DEFAULTS["weak-noselect"].readout_grid())
        for g_a, rank in [(edge, None), (1.5e-9, 1), (3e-9, 2)]:
            coupling = engine.Coupling(scenarios.PAULI_Z, "A", g_a)
            assert scenarios._expected_branch_rank(system, coupling, spec) == rank
            cfg = dataclasses.replace(DEFAULTS["weak-noselect"], g_a=g_a, theta_i=math.pi / 2)
            report = run_scenario("weak-noselect", cfg)
            assert report.passed
            if rank is not None:
                assert report.schmidt["rank"] == rank
            marginal = "coupling too marginal to pin the Schmidt rank" in report.notes
            assert marginal == (rank is None)


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

    @staticmethod
    def _failed(monkeypatch, gap, cfg=DEFAULTS["simultaneous"]):
        """Failed checks with the full-impulse <x_a x_b> put at <x_a><x_b> + ``gap``.

        The half-impulse cross moment is left as it is, so the scaling check
        sees a larger full-impulse defect and still holds.
        """
        original = engine.pointer_cross_mean
        calls = []

        def planted(state, label_a, label_b):
            calls.append(label_a)
            if len(calls) > 1:
                return original(state, label_a, label_b)
            means = engine.pointer_mean(state, "A") * engine.pointer_mean(state, "B")
            return means + gap

        monkeypatch.setattr(engine, "pointer_cross_mean", planted)
        report = run_scenario("simultaneous", cfg)
        assert len(calls) == 2
        return {name for name, ok in report.checks.items() if not ok}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "gap, failed", [(7e-7, {"joint_moment_nonfactorizing"}), (1.4e-6, set())]
    )
    def test_factorization_check_near_its_tolerance(self, monkeypatch, gap, sign, failed):
        """A measured gap of 0.7 and 1.4 times FACTORIZATION_GAP_TOL (1e-6) counts only above it."""
        assert self._failed(monkeypatch, sign * gap) == failed

    @pytest.mark.parametrize(
        "predicted, failed", [(1.4e-6, set()), (2.8e-6, {"joint_moment_nonfactorizing"})]
    )
    def test_factorization_gate_near_its_threshold(self, monkeypatch, predicted, failed):
        """With no measured gap, the check is idle below FACTORIZATION_GAP_MIN (2e-6) and
        fails above; the predicted gaps are 0.7 and 1.4 times it.

        For sigma_x on A and sigma_z on B at equal impulse g the predicted
        gap is g^2 <sigma_x><sigma_z>, with <sigma_x> = sin(theta) and
        <sigma_z> = cos(theta) at the default phi = 0.
        """
        cfg = DEFAULTS["simultaneous"]
        product = math.sin(cfg.theta_i) * math.cos(cfg.theta_i)
        g = math.sqrt(predicted / product) / cfg.t
        cfg = dataclasses.replace(cfg, g_a=g, g_b=g)
        assert self._failed(monkeypatch, 0.0, cfg) == failed


    @pytest.mark.parametrize(
        "full, half, failed",
        [
            (7.5e-7, 7e-8, set()),
            (7.5e-7, 1.4e-7, {"cross_moment_beyond_first_order"}),
            (1e-13, 7e-13, set()),
            (1e-13, 1.4e-12, {"cross_moment_beyond_first_order"}),
        ],
    )
    def test_cross_moment_scaling_through_measure(self, monkeypatch, full, half, failed):
        """Literal cross-moment defects fed through ``_simultaneous``: the
        half-impulse defect at 0.7 and 1.4 times the full one over CUBIC_RATIO
        (7.5), then at 0.7 and 1.4 times SCALING_FLOOR (1e-12) beside a full
        defect at roundoff. The planted moment is the first-order prediction
        plus the defect, at full and at half impulse in turn; sigma_x and
        sigma_z anticommute, so the prediction has no impulse-squared term."""
        cfg = DEFAULTS["simultaneous"]
        system = scenarios.bloch_state(cfg.theta_i, cfg.phi_i)
        ex, ez = (
            tensors.expectation(op, system).real for op in (scenarios.PAULI_X, scenarios.PAULI_Z)
        )
        planted = iter([full, half])

        def cross(state, label_a, label_b):
            ia, ib = (c.impulse for c in state.history[0])
            predicted = cfg.x0_a * cfg.x0_b + ia * cfg.x0_b * ex + ib * cfg.x0_a * ez
            return predicted + next(planted)

        monkeypatch.setattr(engine, "pointer_cross_mean", cross)
        report = run_scenario("simultaneous")
        assert {name for name, ok in report.checks.items() if not ok} == failed
        assert report.defects["cross_moment"] == pytest.approx(full, rel=1e-3)
        assert report.defects["cross_moment_half_impulse"] == pytest.approx(half, rel=1e-3)


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
        Every series pass, ``partial_sums``' included, goes through
        ``engine._series_branches``, which is spied on.
        """
        passes = []
        series_branches = engine._series_branches

        def counted_sums(state, couplings, order):
            passes.append((state.dims.sizes, order))
            return series_branches(state, couplings, order)

        shapes = []
        original = np.fft.fft

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(engine, "_series_branches", counted_sums)
        monkeypatch.setattr(np.fft, "fft", counted)
        report = run_scenario("weak-orders")
        n = report.config.readout_grid().points
        # the other pass is the first-order certificate's, on the analysis grid
        assert [order for sizes, order in passes if sizes == (2, n, n)] == [2]
        assert (2, n, n) not in shapes

    def test_forms_no_apparatus_matrix(self, matrix_reads, density_builds, eigensolve_shapes):
        """No density matrix is built, so none is read whole, the system's 2 x 2
        one included, and no eigensolve reaches the 256 dimensions of the two
        16-point analysis pointers."""
        run_scenario("weak-orders")
        assert matrix_reads == [] and density_builds == []
        assert max(shape[-1] for shape in eigensolve_shapes) < 256

    def test_coupling_strength_ladder(self, default_reports):
        report = default_reports["weak-orders"]
        assert report.defects["first_order_certificate"] < 1e-8
        assert report.readouts["ppt_min_strong_coupling"] < -1e-4
        assert abs(report.readouts["ppt_min_weak_coupling"]) < 1e-8

    @pytest.fixture(scope="class")
    def orders_run(self):
        """The default run as the runner hands it to ``_weak_orders``."""
        return _two_pointer_run("weak-orders", DEFAULTS["weak-orders"])

    @staticmethod
    def _failed(run):
        return {name for name, ok in scenarios._weak_orders(run).checks.items() if not ok}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "order, offset, failed",
        [
            (1, 0.35, set()),
            (1, 0.7, {"order1_defect_scales_quadratically"}),
            (2, 0.7, set()),
            (2, 1.4, {"order2_defect_scales_cubically"}),
        ],
    )
    def test_ratio_windows_near_their_slack(
        self, orders_run, monkeypatch, order, offset, sign, failed
    ):
        """One halving ratio off its prediction by 0.7 and 1.4 times its slack, the other
        exact: ORDER1_RATIO_SLACK is 0.5 and ORDER2_RATIO_SLACK 1.0."""
        ratios = {1: 4.0, 2: 8.0}
        ratios[order] += sign * offset
        defects = [[1e-3, 1e-3 / ratios[1]], [1e-5, 1e-5 / ratios[2]]]
        monkeypatch.setattr(scenarios, "_truncation_defects", lambda run: defects)
        assert self._failed(orders_run) == failed

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("half, ok", [(7e-13, True), (1.4e-12, False)])
    def test_ratio_floor_near_scaling_floor(self, orders_run, monkeypatch, order, half, ok):
        """One order's defects at roundoff, 1e-13 at full impulse and 0.7 and 1.4
        times SCALING_FLOOR (1e-12) at half, fed through ``_weak_orders``: only
        that order's check flips, and only above the floor."""
        defects = [[1e-3, 1e-3 / 4.0], [1e-5, 1e-5 / 8.0]]
        defects[order - 1] = [1e-13, half]
        monkeypatch.setattr(scenarios, "_truncation_defects", lambda run: defects)
        name = ("order1_defect_scales_quadratically", "order2_defect_scales_cubically")[order - 1]
        assert self._failed(orders_run) == (set() if ok else {name})

    @pytest.mark.parametrize("ppt, failed", [(7e-9, set()), (1.4e-8, {"weak_limit_ppt_vanishes"})])
    def test_weak_ppt_near_its_tolerance(self, orders_run, monkeypatch, ppt, failed):
        """The weak probe, the second witness taken, reads -0.7 and -1.4 times
        WEAK_PPT_TOL (1e-8), planted in the verdict the probe reads it from."""
        original = scenarios.readability_check
        calls = []

        def planted(state, cut):
            calls.append(cut)
            verdict = original(state, cut)
            return verdict if len(calls) == 1 else dataclasses.replace(verdict, ppt_min=-ppt)

        monkeypatch.setattr(scenarios, "readability_check", planted)
        exact = [[1e-3, 1e-3 / 4.0], [1e-5, 1e-5 / 8.0]]
        monkeypatch.setattr(scenarios, "_truncation_defects", lambda run: exact)
        assert self._failed(orders_run) == failed
        assert len(calls) == 2


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
        purity = engine.system_purity(state) + offset
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


def _two_pointer_run(name, cfg):
    """The Run that ``run_scenario`` hands to a two-pointer scenario's ``measure``."""
    scenario = SCENARIOS[name]
    system = scenario.system(cfg.theta_i, cfg.phi_i)
    phases = scenario.phases(cfg, 1.0)
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

    @pytest.mark.parametrize(
        "overrides, weights",
        [
            ({"g_a": 0.0, "g_b": 0.0}, [1.0]),
            ({"g_a": 0.0, "g_b": 0.5}, [0.5, 0.5]),
            ({"t": 0.0}, [1.0]),
        ],
        ids=["gA-0-gB-0", "gA-0", "t-0"],
    )
    def test_uncoupled_pointer_merges_predicted_weights(self, overrides, weights):
        """An uncoupled pointer gives every branch the same kick on it, so the engine
        keeps one row there, and the prediction sums the populations that share a kick."""
        report = run_scenario("epr", dataclasses.replace(DEFAULTS["epr"], **overrides))
        assert report.passed
        assert sorted(report.readability["weights"]) == pytest.approx(weights, abs=1e-12)

    @pytest.fixture(scope="class")
    def epr_run(self):
        """The default run as the runner hands it to ``_epr``."""
        return _two_pointer_run("epr", DEFAULTS["epr"])

    @staticmethod
    def _failed(run):
        return {name for name, ok in scenarios._epr(run).checks.items() if not ok}

    @pytest.mark.parametrize(
        "shift, failed", [(7e-11, set()), (1.4e-10, {"weights_match_populations"})]
    )
    def test_weights_check_near_its_tolerance(self, epr_run, shift, failed):
        """Two certificate weights moved apart by 0.7 and 1.4 times EPR_WEIGHT_TOL (1e-10),
        total kept."""
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

    @pytest.mark.parametrize(
        "variance, failed", [(7e-13, set()), (1.4e-12, {"anticorrelation_sharp"})]
    )
    def test_anticorrelation_check_near_its_tolerance(self, epr_run, variance, failed):
        """An |up, up> amplitude that gives Var(zz) 0.7 and 1.4 times SHARP_CORRELATION_TOL (1e-12).

        With weight e^2 there, <zz> = (e^2 - 1) / (1 + e^2), so Var(zz) is
        4 e^2 / (1 + e^2)^2 and |<zz> + 1| half of that. The amplitude is i
        times the phase of the |down, up> one, so <sigma_x (x) 1> stays 0;
        the other readouts and the populations move by e^2 only.
        """
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

    @staticmethod
    def _failed(cfg=DEFAULTS["sequential"]):
        run = _two_pointer_run("sequential", cfg)
        return {name for name, ok in scenarios._sequential(run).checks.items() if not ok}

    @staticmethod
    def _drag(monkeypatch, offset):
        """Puts the conditioned mean of A at its unconditioned mean plus ``offset``."""
        original = engine.pointer_expectation

        def moved(state, weights):
            if set(weights) == {"A", "B"}:
                mean_a = original(state, {"A": weights["A"]})
                return original(state, {"B": weights["B"]}) * (mean_a + offset)
            return original(state, weights)

        monkeypatch.setattr(engine, "pointer_expectation", moved)

    @pytest.mark.parametrize(
        "drag, failed", [(7e-4, {"conditioned_readout_shifts"}), (1.4e-3, set())]
    )
    def test_conditioned_shift_near_its_threshold(self, monkeypatch, drag, failed):
        """A drag of 0.7 and 1.4 times CONDITIONED_SHIFT_MIN (1e-3) counts only above it."""
        self._drag(monkeypatch, drag)
        assert self._failed() == failed

    @pytest.mark.parametrize(
        "predicted, failed", [(7e-4, set()), (1.4e-3, {"conditioned_readout_shifts"})]
    )
    def test_drag_gate_near_its_threshold(self, monkeypatch, default_reports, predicted, failed):
        """With no drag, the check is idle where the predicted drag is below
        CONDITIONED_SHIFT_MIN (1e-3) and fails above; the predicted drags are 0.7
        and 1.4 times it.

        The prediction is linear in the second impulse g_a t, and matches the
        measured drag to about 1e-12, so g_a is scaled from the default drag.
        """
        cfg = DEFAULTS["sequential"]
        readouts = default_reports["sequential"].readouts
        drag = abs(readouts["conditioned_mean_a"] - readouts["mean_a"])
        self._drag(monkeypatch, 0.0)
        assert self._failed(dataclasses.replace(cfg, g_a=cfg.g_a * predicted / drag)) == failed

    @pytest.mark.parametrize(
        "overrides",
        [{"g_b": 0.0}, {"g_b": 1e-3}, {"theta_i": math.pi / 2, "g_b": 0.1}],
        ids=["gB-0", "gB-1e-3", "thetaI-pi/2-gB-0.1"],
    )
    def test_weak_first_record_leaves_the_check_idle(self, overrides):
        """Predicted drags of 0, -1.8e-4 and -6.3e-5: below CONDITIONED_SHIFT_MIN,
        so the run passes although its second readout barely moves."""
        cfg = dataclasses.replace(DEFAULTS["sequential"], **overrides)
        report = run_scenario("sequential", cfg)
        assert report.passed
        assert report.notes[0].startswith("conditioned-readout check idle")

    @pytest.mark.parametrize(
        "offset, failed", [(7e-11, set()), (1.4e-10, {"initial_info_preserved"})]
    )
    def test_info_check_near_its_tolerance(self, monkeypatch, offset, failed):
        """A commuting readout after the first coupling off by 0.7 and 1.4 times
        INFO_PRESERVED_TOL (1e-10)."""
        original = engine.system_expectation

        def moved(state, observable):
            value = original(state, observable)
            if np.array_equal(observable.matrix, np.diag([1.0, 0.0])):
                value += offset
            return value

        monkeypatch.setattr(engine, "system_expectation", moved)
        assert self._failed() == failed
