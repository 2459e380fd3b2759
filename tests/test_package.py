import ast
import re
from pathlib import Path

import vdvcarleman

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_readme_library_names_are_exported():
    used = set(re.findall(r"\bv\.([A-Za-z_]\w*)", _library_block()))
    assert {"integrate_physical", "integrate_augmented", "ekf_predict"} <= used
    assert used <= set(vdvcarleman.__all__), sorted(used - set(vdvcarleman.__all__))


def test_all_names_resolve():
    assert len(set(vdvcarleman.__all__)) == len(vdvcarleman.__all__)
    for name in vdvcarleman.__all__:
        assert hasattr(vdvcarleman, name), name


def _sites(tree: ast.AST, named, scope: str = ""):
    """(enclosing function or class qualname, name) for each name ``named(node)`` gives, over every node."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _sites(node, named, f"{scope}.{node.name}".lstrip("."))
            continue
        yield from ((scope, name) for name in named(node))
        yield from _sites(node, named, scope)


def _package_sites(named) -> set:
    """(module, top-level function or class, name) of every site `_sites` finds in the package."""
    sites = set()
    for path in sorted(Path(vdvcarleman.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites |= {(path.stem, scope.split(".")[0], name) for scope, name in _sites(tree, named)}
    return sites


def test_only_fork_map_forks_waits_and_kills():
    # `montecarlo._fork_map` kills and reaps every child it forks; a fork,
    # wait or kill anywhere else would be outside that guarantee.  The
    # functions nested in it (its ``join``) are part of it.
    names = {"fork", "waitpid", "kill"}

    def os_names(node):
        """Each ``os.<name>`` reference and ``from os import <name>``."""
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            return [node.attr]
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            return [alias.name for alias in node.names if alias.name in names]
        return []

    assert _package_sites(os_names) == {("montecarlo", "_fork_map", name) for name in names}


def test_only_a_scenario_derives_its_grid_and_system():
    # A Scenario builds its step count, checkpoint steps and bilinear system
    # once; `run`, the emitters and `matrices` read them.  `cli._apply_overrides`
    # must drop checkpoints before the new Scenario exists.
    names = {"build_vandevusse", "grid_steps", "grid_index"}

    def used(node):
        """Each use of one of ``names``, bare or as an attribute, but not its import."""
        if isinstance(node, ast.Name) and node.id in names:
            return [node.id]
        if isinstance(node, ast.Attribute) and node.attr in names:
            return [node.attr]
        return []

    sites = {site for site in _package_sites(used) if site[0] in ("experiments", "cli")}
    assert sites == {*(("experiments", "Scenario", name) for name in names),
                     ("cli", "_apply_overrides", "grid_steps"), ("cli", "_apply_overrides", "grid_index")}
