"""Every module-level import of the library is used, every module-level
private name (`_x`) of the library is read somewhere in it, and every public
function, class, method and property of the library is read by a program:
the library, the scripts, the benchmark or the acceptance suite.

No linter ships with the project, so these stdlib checks stand in for one.
`__init__.py` is exempt from the import check, and its re-exports are not
reads: it only re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plaplab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))
# the programs besides the library whose reads count for its public names
READERS = (sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


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


def _public_definitions(tree: ast.Module) -> set[str]:
    """The public functions and classes the module's top level defines, and
    the public methods and properties of those classes, as Class.name."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names


def _span_target_reads(source: str) -> set[str]:
    """The names in the dotted attributes of the TARGETS that a traced
    benchmark run wraps (perfbench/spans.py), such as Region and space_mask."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return {name for _, attr, *_ in ast.literal_eval(node.value) for name in attr.split(".")}
    return set()


def _unread_public_names(library: list[str], readers: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in library]
    defined = set().union(*map(_public_definitions, trees))
    read = set().union(*map(_reads, trees + [ast.parse(source) for source in readers]),
                       *map(_span_target_reads, readers))
    return sorted(name for name in defined if name.split(".")[-1] not in read)


# public names that no program reads, each kept for its reason
UNREAD_PUBLIC = {
    "kappa_exponent": "ROADMAP item 12 decides whether the sup-normalizing exponents stay",
    "mu_ceiling": "ROADMAP item 12 decides whether the sup-normalizing exponents stay",
    "GridFunction.from_callable": "a helper of four test files; ROADMAP item 14 found that "
                                  "moving it to conftest adds lines",
    "PointwiseReport.vacuous": "README documents it as a report field (ROADMAP item 4)",
}


def test_the_public_name_check_sees_an_unread_name():
    module = ("def f():\n    return g()\n\ndef g():\n    pass\n\ndef h():\n    pass\n\n"
              "class K:\n    def m(self):\n        pass\n\n    @property\n    def p(self):\n"
              "        return 1\n\n    def _q(self):\n        pass\n")
    spans = 'TARGETS = (("pkg.mod", "K.m", "mod.m", None),)\n'
    assert _unread_public_names([module], []) == ["K", "K.m", "K.p", "f", "h"]
    assert _unread_public_names([module], [spans, "from pkg import f\nx = y.p\n"]) == ["h"]


def test_every_public_name_is_read_by_a_program_or_kept_for_a_reason():
    unread = set(_unread_public_names([path.read_text() for path in MODULES],
                                      [path.read_text() for path in READERS]))
    assert sorted(unread - UNREAD_PUBLIC.keys()) == []  # read by no program, kept for no reason
    assert sorted(UNREAD_PUBLIC.keys() - unread) == []  # kept for a reason, yet read after all
