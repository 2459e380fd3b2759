"""The traced benchmark run wraps package functions by name; keep those names alive.

``perfbench/traced_cli.py`` lists its targets in ``TARGETS`` as
(module, function, attribute-function factory) and binds each call's
arguments by parameter name; it also imports package names of its own
(``from vdvcarleman.<module> import <names>``) for its per-step floors.
The file is read as source, not imported, so this test runs without the
benchmark's own modules on the path.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

from vdvcarleman.montecarlo import PathConfig

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _targets() -> list[tuple[str, str, str | None]]:
    tree = ast.parse(TRACED_CLI.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            out = []
            for entry in node.value.elts:
                module, name, factory = entry.elts
                if isinstance(factory, ast.Call):
                    factory = factory.func
                out.append((module.value, name.value, factory.id if isinstance(factory, ast.Name) else None))
            return out
    raise AssertionError("TARGETS not found in perfbench/traced_cli.py")


TARGETS = _targets()


def _imported_names() -> list[tuple[str, str]]:
    """(module, name) of every ``from vdvcarleman.<module> import <name>``, anywhere in the file."""
    tree = ast.parse(TRACED_CLI.read_text(encoding="utf-8"))
    return [
        (node.module.split(".", 1)[1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vdvcarleman.")
        for alias in node.names
    ]


IMPORTED = _imported_names()


def test_targets_are_listed():
    assert ("montecarlo", "ensemble_moments", "_ensemble") in TARGETS
    assert len(TARGETS) >= 10


def test_imported_names_are_found():
    assert {("moments", "grid_steps"), ("model", "drift"), ("model", "jacobian")} <= set(IMPORTED)


@pytest.mark.parametrize("module, name", IMPORTED, ids=[f"{m}.{n}" for m, n in IMPORTED])
def test_imported_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"vdvcarleman.{module}"), name))


@pytest.mark.parametrize("module, name, factory", TARGETS, ids=[f"{m}.{n}" for m, n, _ in TARGETS])
def test_trace_target_resolves_with_bound_parameters(module, name, factory):
    fn = getattr(importlib.import_module(f"vdvcarleman.{module}"), name)
    params = set(inspect.signature(fn).parameters)
    if "cfg" in params:
        cfg = PathConfig(dt=0.1, t_end=1.0, seed=3)
        assert (cfg.n_steps, cfg.seed) == (10, 3)
    if factory == "_steps":
        # reads cfg.n_steps, or grid_steps(dt, t_end)
        assert "cfg" in params or {"dt", "t_end"} <= params, params
    elif factory == "_ensemble":
        # reads cfg.n_steps, cfg.seed and n_paths
        assert {"cfg", "n_paths"} <= params, params
