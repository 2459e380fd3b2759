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


def _os_sites(tree: ast.AST, names: set[str], scope: str = ""):
    """(enclosing function qualname, name) of every ``os.<name>`` reference and ``from os import <name>``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _os_sites(node, names, f"{scope}.{node.name}".lstrip("."))
            continue
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield scope, node.attr
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from ((scope, alias.name) for alias in node.names if alias.name in names)
        yield from _os_sites(node, names, scope)


def test_only_fork_map_forks_waits_and_kills():
    # `montecarlo._fork_map` kills and reaps every child it forks; a fork,
    # wait or kill anywhere else would be outside that guarantee.  The
    # functions nested in it (its ``join``) are part of it.
    names = {"fork", "waitpid", "kill"}
    sites = set()
    for path in sorted(Path(vdvcarleman.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites |= {(path.stem, scope.split(".")[0], name) for scope, name in _os_sites(tree, names)}
    assert sites == {("montecarlo", "_fork_map", name) for name in names}
