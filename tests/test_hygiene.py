"""Static checks over the package source, with the standard library's ``ast``.

* no module-level mutable container: state shared by every caller in the
  process makes results depend on call history;
* no ``assert`` statement: ``python -O`` strips it, so a guarantee must be
  an explicit check;
* no unused import outside ``__init__.py`` (which imports to re-export);
* no dead private helper: every module-level ``def _name`` is referenced
  somewhere in the package outside its own body;
* no dead module-level name: every name a module assigns at its top level
  (except ``__version__``) is referenced somewhere in the package, the
  tests or the benchmark outside its own assignment;
* one version: ``pyproject.toml`` reads it from ``cubicpaths.__version__``
  rather than keeping a second copy.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubicpaths"
MODULES = sorted(PACKAGE.glob("*.py"))
CONTAINER_CALLS = {"dict", "list", "set"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_mutable_container(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in CONTAINER_CALLS
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_mutable_container(path):
    found = [
        f"{path.name}:{node.lineno}"
        for node in _tree(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_mutable_container(node.value)
    ]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_import(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_dead_private_helper():
    trees = {path.name: _tree(path) for path in MODULES}
    dead = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")):
                continue
            own = {id(node) for node in ast.walk(fn)}
            referenced = any(
                id(node) not in own
                and fn.name in (getattr(node, "id", None), getattr(node, "attr", None))
                for other in trees.values()
                for node in ast.walk(other)
            )
            if not referenced:
                dead.append(f"{module}:{fn.lineno} {fn.name}")
    assert dead == []


def test_no_dead_module_level_name():
    users = [
        path
        for top in ("src", "tests", "perfbench")
        for path in (ROOT / top).rglob("*.py")
    ]
    trees = {path: _tree(path) for path in users}
    assigned = []  # (where, name) of every top-level assignment target in the package
    targets = set()
    for path in MODULES:
        for node in trees[path].body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            targets.add(id(name))
                            assigned.append((f"{path.name}:{name.lineno}", name.id))
    referenced = {"__version__"}
    for tree in trees.values():
        for node in ast.walk(tree):
            if id(node) not in targets:
                referenced.add(getattr(node, "id", None) or getattr(node, "attr", None))
    assert [f"{where} {name}" for where, name in assigned if name not in referenced] == []


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "cubicpaths.__version__"}
