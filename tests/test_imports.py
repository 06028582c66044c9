"""Every name a sweepsense module imports is used in it, or listed in its ``__all__``,
every module-level private name is used somewhere in the package, the README's
library layout lists every module, and the package module itself exports nothing."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sweepsense").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never references, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nx: np.ndarray\n", []),
    ("from a import b, c as d\nb()\n", ["d"]),
    ("from __future__ import annotations\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
])
def test_guard_finds_unused_names(source, unused):
    assert unused_imports(source) == unused


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level ``_name`` defs, classes and assignments of ``sources`` (file name ->
    text) that no file references by a loaded name, an attribute or an import, as
    'file: name'."""
    defined, used = {}, set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update((f"{file}: {name}", name) for name in names
                           if name.startswith("_") and not (name.startswith("__")
                                                            and name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [where for where, name in defined.items() if name not in used]


def test_no_dead_private_name():
    assert dead_private_names({path.name: path.read_text() for path in SOURCES}) == []


@pytest.mark.parametrize("sources, dead", [
    ({"a.py": "def _f(): pass\nclass _C: pass\n_X = 1\n_Y: int = 2\n"},
     ["a.py: _f", "a.py: _C", "a.py: _X", "a.py: _Y"]),
    ({"a.py": "_X = 1\n_X = 2\n_A, (_B, c) = 1, (2, 3)\n"}, ["a.py: _X", "a.py: _A", "a.py: _B"]),
    ({"a.py": "def _f(): pass\n", "b.py": "from a import _f\n"}, []),
    ({"a.py": "_X = 1\n", "b.py": "import a\na._X\n"}, []),
    ({"a.py": "_X = 1\ndef f():\n    return _X\n"}, []),
    ({"a.py": "def f():\n    _x = 1\n__all__ = []\n__version__ = '1'\n"}, []),
])
def test_guard_finds_dead_private_names(sources, dead):
    assert dead_private_names(sources) == dead


def layout_modules(readme: str) -> list[str]:
    """The module names in the first column of the README's "Library layout" table."""
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `sweepsense\.(\w+)`", section, flags=re.M)


def test_readme_layout_lists_exactly_the_modules():
    listed = layout_modules((ROOT / "README.md").read_text())
    assert sorted(listed) == sorted(p.stem for p in SOURCES if p.stem != "__init__")


def test_layout_guard_reads_the_table_rows():
    readme = ("# x\n\n## Library layout\n\n| module | contents |\n|---|---|\n"
              "| `sweepsense.core` | `sweepsense.synth` |\n| `sweepsense.cli`  | x |\n\n"
              "## Conventions\n\n| `sweepsense.other` | x |\n")
    assert layout_modules(readme) == ["core", "cli"]


def test_package_module_is_its_docstring_alone():
    # each name is imported from the module that defines it; the package re-exports none
    tree = ast.parse((ROOT / "src" / "sweepsense" / "__init__.py").read_text())
    assert [type(node) for node in tree.body] == [ast.Expr]
    assert ast.get_docstring(tree)
