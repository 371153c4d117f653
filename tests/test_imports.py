"""Every module-level import of the library is used.

No linter ships with the project, so this stdlib check stands in for one.
`__init__.py` is exempt: it only re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "plaplab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
