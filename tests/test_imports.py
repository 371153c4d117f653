"""Every module-level import of the library is used, and every module-level
private name (`_x`) of the library is read somewhere in it.

No linter ships with the project, so these stdlib checks stand in for one.
`__init__.py` is exempt from the import check: it only re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "plaplab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import csv\nimport math\n\nx = math.pi\n") == ["line 1: csv"]
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_imports(source) == ["line 1: field"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """The private names (_x, not __x__) that the module's top level binds."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*map(_private_definitions, trees))
    read = set().union(*map(_reads, trees))
    return sorted(defined - read)


def test_the_private_name_check_sees_an_unread_name():
    module = "_A = 1\n_B, _C = 2, 3\n\ndef _f():\n    return _B\n\nclass _K:\n    pass\n"
    assert _unread_private_names([module, "from m import _K\nx = m._f\n"]) == ["_A", "_C"]


def test_every_module_level_private_name_is_read():
    assert _unread_private_names([path.read_text() for path in PACKAGE]) == []
