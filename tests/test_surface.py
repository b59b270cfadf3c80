"""The public names the benchmark workloads read, and the names removed from the package."""

import ast
import dataclasses
import importlib
from functools import reduce
from pathlib import Path

import pointerlab

WORKLOAD = Path(__file__).resolve().parents[1] / "bench" / "workload.py"
REMOVED = {
    "engine": (
        "expand_perturbative", "initial_info_expectation", "cross_validate", "_packet_moments",
    ),
    "tensors": (
        "kron_operators",
        "pure_density",
        "unitary_from_generator",
        "partial_trace",
        "trace_distance",
        "DensityMatrix.from_factors",
        "DimensionSpec.merge",
    ),
    "pointer": ("position_operator", "shifted_amplitudes"),
    "separability": (
        "commuting_decomposition",
        "sequential_decomposition",
        "_joint_eigensystem",
        "_translated_gaussian",
        "NonCommutingError",
        "SeparableDecomposition.reconstruct",
        "REVALIDATION_POINTS",
        "_replica",
        "_revalidation_points",
        "_record_ppt_min",
        "_ppt_min",
    ),
}


def _names_read(tree: ast.Module) -> set[tuple[object, str]]:
    """(owner, name) for every name the file reads from pointerlab.

    ``import pointerlab as pl`` binds ``pl``; ``from pointerlab import x``
    reads ``x``, or binds it when ``x`` is a submodule such as ``cli``, so
    ``pl.<name>`` and ``cli.<name>`` are read through their owners.
    """
    owners: dict[str, object] = {}
    read: set[tuple[object, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "pointerlab":
                    owners[alias.asname or alias.name] = pointerlab
        elif isinstance(node, ast.ImportFrom) and node.module == "pointerlab":
            for alias in node.names:
                try:  # a submodule, as ``from pointerlab import cli`` imports it
                    owners[alias.asname or alias.name] = importlib.import_module(
                        f"pointerlab.{alias.name}"
                    )
                except ModuleNotFoundError:
                    read.add((pointerlab, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in owners
        ):
            read.add((owners[node.value.id], node.attr))
    return read


def test_benchmark_names_resolve_and_removed_names_are_gone():
    read = _names_read(ast.parse(WORKLOAD.read_text()))
    names = {(owner.__name__, name) for owner, name in read}
    # the three workloads' entry points are among what the parse finds
    assert {
        ("pointerlab", "run_scenario"),
        ("pointerlab.cli", "main"),
        ("pointerlab", "evolve_sequential"),
        ("pointerlab", "readability_check"),
    } <= names
    missing = sorted(f"{o.__name__}.{name}" for o, name in read if not hasattr(o, name))
    assert missing == []
    for module, removed in REMOVED.items():
        owner = importlib.import_module(f"pointerlab.{module}")
        for name in removed:
            # a dotted name is an attribute of a class the module defines
            *path, attr = name.split(".")
            for root in (pointerlab, owner):
                assert not hasattr(reduce(getattr, path, root), attr), f"{module}.{name}"
    fields = {f.name for f in dataclasses.fields(pointerlab.engine.UnifiedState)}
    assert "provenance" not in fields

