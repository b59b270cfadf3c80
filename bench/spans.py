"""Per-layer spans around pointerlab's public functions, installed from outside.

``install`` rebinds every public function of the pointerlab modules (in each
module that holds a reference to it), three public methods, and the public
functions of ``numpy.linalg`` and ``numpy.fft`` to timing wrappers. Nothing
under ``src/`` changes; an untraced run never calls ``install``.

Each span records its duration and its self time (duration minus the spans
it caused). ``layer_metrics`` folds the spans into the per-layer metrics the
benchmark reports, per operation.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import defaultdict
from time import perf_counter

# The library's own thresholds, restated so the branch and yield figures are
# classified from inputs and outputs without reading pointerlab's internals.
COMMUTATOR_TOL = 1e-10  # engine.COMMUTATOR_TOL: shift versus blocks
CERTIFICATE_TOL = 1e-8  # separability.CERTIFICATE_TOL: certificate accepted


class Recorder:
    """Span totals by label, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [label, start, time in child spans]
        self.depth: dict[str, int] = defaultdict(int)
        # label -> [total, self, calls, max_dim, n3]; total counts only the
        # outermost span of a label, so nested spans of one label add once.
        self.stats: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0, 0, 0])
        # Evolve spans caused directly by readability_check: the replica rebuild.
        self.replica_s = 0.0
        self.accepted = 0

    def wrap(self, fn, label, describe=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, dim, n3 = describe(args, kwargs) if describe else (label, 0, 0)
            frame = [name, 0.0, 0.0]
            self.stack.append(frame)
            self.depth[name] += 1
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                self.stack.pop()
                self.depth[name] -= 1
                parent = self.stack[-1][0] if self.stack else None
                if self.stack:
                    self.stack[-1][2] += duration
                s = self.stats[name]
                if self.depth[name] == 0:
                    s[0] += duration
                s[1] += duration - frame[2]
                s[2] += 1
                s[3] = max(s[3], dim)
                s[4] += n3
                if name.startswith("engine.evolve.") and parent == "separability.readability_check":
                    self.replica_s += duration
            if after is not None:
                after(result)
            return result

        return traced

    def snapshot(self) -> dict:
        """The totals as JSON-ready data."""
        return {"stats": dict(self.stats), "replica_s": self.replica_s, "accepted": self.accepted}


def _argument(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _commute(couplings) -> bool:
    mats = [c.observable.matrix for c in couplings]
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            if abs(a @ b - b @ a).max() > COMMUTATOR_TOL:
                return False
    return True


def _describe_evolve(args, kwargs):
    """Name the integrator branch from the input: dense, commuting shift or blocks."""
    state = _argument(args, kwargs, 0, "state")
    couplings = _argument(args, kwargs, 1, "couplings")
    method = _argument(args, kwargs, 2, "method", "auto")
    if method == "expm":
        branch = "dense"
    else:
        branch = "shift" if _commute(tuple(couplings)) else "blocks"
    return f"engine.evolve.{branch}", state.state.amplitudes.size, 0


def _describe_eig(label):
    def describe(args, kwargs):
        shape = _argument(args, kwargs, 0, "a").shape
        n = shape[-1]
        return label, n, math.prod(shape[:-2]) * n**3

    return describe


def _describe_density(args, kwargs):
    return "tensors.density_matrix", _argument(args, kwargs, 1, "dims").total, 0


def _describe_ppt(args, kwargs):
    return "separability.ppt", _argument(args, kwargs, 0, "rho").dims.total, 0


def _describe_run_scenario(args, kwargs):
    return f"scenarios.run_scenario:{_argument(args, kwargs, 0, 'name')}", 0, 0


def install(recorder: Recorder, extra: dict | None = None) -> None:
    """Rebind pointerlab, numpy.linalg and numpy.fft entry points to spans.

    ``extra`` maps (module, attribute) pairs of the benchmark's own code to
    span labels, for work it does around the library such as serializing.
    """
    import numpy
    import pointerlab
    from pointerlab import cli, engine, pointer, scenarios, separability, tensors

    modules = (tensors, pointer, engine, separability, scenarios, cli)
    special = {
        "engine.evolve": _describe_evolve,
        "separability.ppt_min_eigenvalue": _describe_ppt,
        "scenarios.run_scenario": _describe_run_scenario,
    }
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                label = f"{short}.{attr}"
                wrapped[obj] = recorder.wrap(obj, label, special.get(label))
    for mod in (pointerlab, *modules):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    def count_accepted(error):
        if error <= CERTIFICATE_TOL:
            recorder.accepted += 1

    cls = tensors.DensityMatrix
    cls.__init__ = recorder.wrap(cls.__init__, "tensors.density_matrix", _describe_density)
    cls = separability.SeparableDecomposition
    cls.validate = recorder.wrap(
        cls.validate, "separability.certificate_validate", after=count_accepted
    )
    cls = scenarios.ScenarioReport
    cls.to_dict = recorder.wrap(cls.to_dict, "cli.serialize")

    for mod, prefix in ((numpy.linalg, "numpy.linalg"), (numpy.fft, "numpy.fft")):
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if not callable(obj) or isinstance(obj, type):
                continue
            label = f"{prefix}.{attr}"
            describe = _describe_eig(label) if attr in ("eigh", "eigvalsh") else None
            setattr(mod, attr, recorder.wrap(obj, label, describe))

    for (mod, attr), label in (extra or {}).items():
        setattr(mod, attr, recorder.wrap(getattr(mod, attr), label))


SCENARIO_NAMES = (
    "weak-noselect",
    "weak-postselect",
    "simultaneous",
    "weak-orders",
    "eigenstate",
    "epr",
    "sequential",
)
FFT_TRANSFORMS = tuple(
    f"numpy.fft.{name}"
    for name in (
        "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
        "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
    )
)
EIG = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
POINTER = ("pointer.gaussian_state", "pointer.translate", "pointer.momentum_operator")
READOUTS = tuple(
    f"engine.{name}"
    for name in (
        "pointer_mean", "pointer_cross_mean", "postselect", "system_density", "weak_value",
    )
)
CERTIFICATE_BUILDERS = tuple(
    f"separability.{name}"
    for name in (
        "commuting_decomposition",
        "sequential_decomposition",
        "first_order_product_certificate",
    )
)
_FIELDS = {"s": ("s", "total"), "calls": ("count", "calls"), "max_dim": ("dim", "max_dim")}


def _group(metric: str, labels: tuple[str, ...] | None = None, fields=("s", "calls")) -> list:
    """Metrics ``<metric>.<field>`` over span ``labels`` (default: the metric's own)."""
    labels = labels or (metric,)
    return [(f"{metric}.{f}", _FIELDS[f][0], "lower", (_FIELDS[f][1], labels)) for f in fields]


# (metric, unit, better, (what it reads, span labels)). "total", "self",
# "calls", "max_dim" and "n3" read the span stats of the labels.
LAYER_METRICS = [
    *_group("numpy.eig", EIG, ("s", "calls", "max_dim")),
    ("numpy.eig.n3", "ops-computed", "lower", ("n3", EIG)),
    *_group("numpy.svd", ("numpy.linalg.svd",), ("s",)),
    *_group("numpy.fft", FFT_TRANSFORMS),
    *_group("tensors.density_matrix", fields=("s", "calls", "max_dim")),
    *_group("tensors.trace_distance"),
    *_group("tensors.schmidt", fields=("s",)),
    *_group("pointer", POINTER),
    *_group("engine.evolve.shift"),
    *_group("engine.evolve.blocks", fields=("s", "calls", "max_dim")),
    *_group("engine.evolve.dense", fields=("s", "calls", "max_dim")),
    *_group("engine.expand_perturbative"),
    *_group("engine.apparatus_density", fields=("s",)),
    *_group("engine.readouts", READOUTS),
    *_group("separability.readability_check"),
    *_group("separability.certificate_build", CERTIFICATE_BUILDERS, ("s",)),
    *_group("separability.certificate_validate"),
    ("separability.replica_evolve.s", "s", "lower", ("replica", None)),
    *_group("separability.ppt", fields=("s", "calls", "max_dim")),
    ("separability.certificate_yield", "ratio", "higher", ("yield", None)),
    ("scenarios.run_scenario.s", "s", "lower", ("scenarios_self", None)),
    *(
        _group(f"scenarios.{name}", (f"scenarios.run_scenario:{name}",), ("s",))[0]
        for name in SCENARIO_NAMES
    ),
    ("cli.main.s", "s", "lower", ("self", ("cli.main",))),
    *_group("cli.serialize", fields=("s",)),
]


def layer_metrics(snapshots: list[dict], ops: int) -> dict[str, dict]:
    """Per-operation layer figures from the span snapshots of one run's processes.

    Times, call counts and n3 are divided by ``ops``; dimensions are maxima
    and the certificate yield is accepted over validated certificates (0
    when none was validated).
    """
    stats: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0, 0, 0])
    for snap in snapshots:
        for label, row in snap["stats"].items():
            merged = stats[label]
            for i in (0, 1, 2, 4):
                merged[i] += row[i]
            merged[3] = max(merged[3], row[3])
    replica = sum(snap["replica_s"] for snap in snapshots)
    accepted = sum(snap["accepted"] for snap in snapshots)
    column = {"total": 0, "self": 1, "calls": 2, "n3": 4}
    out = {}
    for name, unit, _, (kind, labels) in LAYER_METRICS:
        if kind == "max_dim":
            value = max((stats[lab][3] for lab in labels if lab in stats), default=0)
        elif kind in column:
            value = sum(stats[lab][column[kind]] for lab in labels if lab in stats) / ops
        elif kind == "replica":
            value = replica / ops
        elif kind == "yield":
            validated = stats["separability.certificate_validate"][2]
            value = accepted / validated if validated else 0.0
        else:  # scenarios_self: time in the scenarios module's own code
            value = sum(row[1] for lab, row in stats.items() if lab.startswith("scenarios.")) / ops
        out[name] = {"value": value, "unit": unit}
    return out
