"""Every name a module of ``absorb`` imports is used in that module, every
top-level function, class and constant of a module is named somewhere in the
package, no module imports ``random`` (no library path samples), and no
module reads an instance's ``__dict__``.

``__init__.py`` is left out of the first check: its imports are the package's
public surface, and so a name it imports counts as used by the second.  A
name counts as used when it appears as an identifier; a mention in a
docstring does not count."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "absorb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def _unused_imports(path: Path) -> list[str]:
    tree = TREES[path.name]
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_the_package_has_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_module_imports_random(path):
    imported = set()
    for node in ast.walk(TREES[path.name]):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "random" not in imported


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_module_reads_an_instance_dict(path):
    """Taking an instance's ``__dict__`` makes CPython keep a separate dict
    for it, and every later attribute read on it slower: caches on an
    instance go through ``getattr`` and plain assignment."""
    reads = [
        node.lineno
        for node in ast.walk(TREES[path.name])
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    ]
    assert reads == []


def _named_in_package() -> set[str]:
    """Every identifier read anywhere in the package, attribute names and the
    names ``__init__.py`` imports included."""
    named = set()
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name == "__init__.py":
                named.update(alias.name for alias in node.names)
    return named


def _top_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_name_is_used(path):
    named = _named_in_package()
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in _top_level_names(TREES[path.name])
        if name not in named
    ]
    assert unused == []
