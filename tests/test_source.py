"""Checks on the source of the package itself."""

import ast
from pathlib import Path

import pytest

import mutants
import towerkit

MODULES = sorted(p for p in Path(towerkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
# the users that count for the dead-name scan: every Python file under src/
# and perfbench/ but the package's __init__.py, so a definition that only
# tests name, or only a re-export, is dead
SOURCES = sorted(p for d in ("src", "perfbench")
                 for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports at module level but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def definitions(source: str):
    """Module-level functions and classes of ``source``, as ``name``, and
    the methods and properties of its classes, as ``Class.name``; dunder
    methods are left out, since Python calls them by protocol."""
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def dead_names(modules: dict, sources: list) -> list:
    """Definitions of ``modules`` (file name -> source) that no source in
    ``sources`` names: as a name, an attribute or an imported name.  A
    definition does not name itself."""
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    return sorted((file, label) for file, source in modules.items()
                  for label, name in definitions(source)
                  if name not in named)


def test_scan_finds_a_dead_name():
    module = "def used():\n    pass\n\n\ndef dead():\n    return used()\n" \
             "\n\nclass Kept:\n    def __len__(self):\n        return 0\n" \
             "\n    def read(self):\n        return self.gone\n" \
             "\n    @property\n    def gone(self):\n        return 1\n" \
             "\n    def dead_method(self):\n        return self.read()\n"
    user = "from pkg.m import used\nx = pkg.m.Kept().read()\n"
    assert dead_names({"m.py": module}, [module, user]) == \
        [("m.py", "Kept.dead_method"), ("m.py", "dead")]


def test_no_dead_names():
    sources = [p.read_text() for p in SOURCES]
    assert dead_names({p.name: p.read_text() for p in MODULES},
                      sources) == []


def test_scan_finds_an_unused_import():
    src = "import os\nimport sys\nfrom typing import Dict, List\n" \
          "x: List[int] = sys.argv\n"
    assert unused_imports(src) == [(1, "os"), (3, "Dict")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_float_slack_is_named_once():
    # the verdicts' one float slack is lemma_engine.FLOAT_SLACK: no other
    # 1e-12 in src/, inline or named, grows beside it
    found = [(p.name, node.lineno) for p in MODULES
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and node.value == 1e-12]
    engine = Path(towerkit.__file__).parent / "lemma_engine.py"
    line = engine.read_text().splitlines().index("FLOAT_SLACK = 1e-12") + 1
    assert found == [("lemma_engine.py", line)]
    assert all("1e-12" not in p.read_text().replace("FLOAT_SLACK = 1e-12", "")
               for p in MODULES)


def users(source: str, name: str) -> list:
    """The module-level definitions of ``source`` that read ``name``, as a
    name or an attribute, anywhere in their body; module-level code that
    reads it counts as ``<module>``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name
               for n in ast.walk(node)):
            found.append(getattr(node, "name", "<module>"))
    return found


def test_scan_finds_every_user():
    src = "from b import self_concat\nimport b\n\n\n" \
          "def plain(w):\n    return self_concat(w, 2)\n\n\n" \
          "def attr(w):\n    return [b.self_concat(w, m) for m in (2, 3)]\n" \
          "\n\nclass K:\n    tile = staticmethod(self_concat)\n\n\n" \
          "def other(w):\n    return w\n\n\nT = self_concat\n"
    assert users(src, "self_concat") == ["plain", "attr", "K", "<module>"]


def test_every_tiling_goes_through_tile():
    # outside blocks.py, only the guarded tiling lemma_engine._tile and the
    # bump tiling _add_bumps, which checks its own rescale, call
    # self_concat; any other tiling would skip the 2^62 guard
    found = [(p.name, user) for p in MODULES if p.name != "blocks.py"
             for user in users(p.read_text(), "self_concat")]
    assert found == [("lemma_engine.py", "_add_bumps"),
                     ("lemma_engine.py", "_tile")]


def test_every_mutant_text_occurs_once():
    # a refactor that moves a mutant's code fails here, rather than
    # silently dropping the mutant from tests/mutants.py; each mutant names
    # test files (and tests in them) that exist
    for m in mutants.MUTANTS:
        text = (ROOT / "src" / "towerkit" / m.file).read_text()
        assert text.count(m.old) == 1, (m.file, m.old)
        assert m.tests
        for test in m.tests:
            file, *names = test.split("::")
            source = (ROOT / "tests" / file).read_text()
            assert all(f"def {n}(" in source or f"class {n}:" in source
                       for n in names), test
