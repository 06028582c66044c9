"""Every name a sweepsense module imports is used in it, or listed in its ``__all__``,
the CLI imports no private name of another module,
every module-level private name is used somewhere in the package, every module-level
public function and class is used by another statement of the package or imported by
the acceptance suite, every public method or property of a class is named as an attribute
outside itself in the package or the acceptance suite, no parameter default of the
package is passed by every call in it and the acceptance suite, every error class of
the package is caught by its name somewhere in it or imported by the acceptance suite,
the README's library layout lists every module, the package module itself exports
nothing, no ``cmd_*`` verb of the CLI writes (``main`` writes their outputs), the
``sweepsense`` script and ``python -m sweepsense.cli`` launch one function of the CLI,
the CSV printer's tables are built only by a verb that prints a table, and OpenSSL is
loaded only by a verb that keys noise."""

import ast
import builtins
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sweepsense import cli

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


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names ``source`` imports from other modules, and the modules it
    imports by a ``_``-prefixed dotted name, in import order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            modules = [node.module or ""]
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [m for m in modules if any(part.startswith("_") for part in m.split("."))]
    return found


def test_cli_imports_no_private_name():
    assert private_imports((ROOT / "src" / "sweepsense" / "cli.py").read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("from sweepsense.fingerprint import _CHUNK_ROWS, HALF_POWER\n", ["_CHUNK_ROWS"]),
    ("from sweepsense.fingerprint import (\n    PositionGrid,\n    _normalize as norm,\n)\n",
     ["_normalize"]),
    ("def f():\n    from sweepsense.core import _WRITE_CELLS\n", ["_WRITE_CELLS"]),
    ("from numpy._core._exceptions import _ArrayMemoryError\n",
     ["_ArrayMemoryError", "numpy._core._exceptions"]),
    ("import numpy._core as core\n", ["numpy._core"]),
    ("from __future__ import annotations\nimport numpy as np\n", []),
    ("from sweepsense.fingerprint import CHUNK_ROWS, normalize\n", []),
])
def test_private_import_guard_finds_a_planted_import(source, found):
    assert private_imports(source) == found


def references(node) -> set[str]:
    """The names ``node`` references: its loaded names, attributes and imported names."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


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
        used |= references(tree)
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


def uncalled_public_names(sources: dict[str, str], imported=frozenset()) -> list[str]:
    """The module-level public defs and classes of ``sources`` (file name -> text) that no
    other statement of any file references by a loaded name, an attribute or an import,
    and that are not among ``imported``, as 'file: name'. A def that only calls itself is
    uncalled."""
    defined, uses = [], []
    for file, source in sources.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((f"{file}: {node.name}", node))
            uses.append((node, references(node)))
    return [where for where, own in defined if own.name not in imported
            and not any(own.name in names for node, names in uses if node is not own)]


def acceptance_imports() -> set[str]:
    """The names tests/test_acceptance.py imports from sweepsense modules."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("sweepsense") for alias in node.names}


def test_every_public_name_is_called():
    # the acceptance suite stays as stated, so what it imports stays too
    sources = {path.name: path.read_text() for path in SOURCES}
    assert uncalled_public_names(sources, acceptance_imports()) == []


@pytest.mark.parametrize("sources, imported, uncalled", [
    ({"a.py": "def f(): pass\nclass C: pass\nX = 1\ndef _g(): pass\n"}, (),
     ["a.py: f", "a.py: C"]),
    ({"a.py": "def f(n):\n    return f(n - 1)\n"}, (), ["a.py: f"]),
    ({"a.py": "def f(): pass\ndef g():\n    return f()\n"}, (), ["a.py: g"]),
    ({"a.py": "def f(): pass\n", "b.py": "from a import f\n"}, (), []),
    ({"a.py": "class C: pass\n", "b.py": "import a\nx: a.C\n"}, (), []),
    ({"a.py": "def main(): pass\nif __name__ == '__main__':\n    main()\n"}, (), []),
    ({"a.py": "def f(): pass\nclass C:\n    def f(self): pass\nC\n"}, (), ["a.py: f"]),
    ({"a.py": "def f(): pass\ndef g(): pass\n"}, {"f"}, ["a.py: g"]),
])
def test_guard_finds_uncalled_public_names(sources, imported, uncalled):
    assert uncalled_public_names(sources, imported) == uncalled


def unreferenced_public_methods(sources: dict[str, str], outside=()) -> list[str]:
    """The public methods and properties of the classes of ``sources`` (file name -> text)
    that no attribute of any file or of the ``outside`` texts names, other than in the
    method itself, as 'file: Class.name'."""
    trees = {file: ast.parse(source) for file, source in sources.items()}
    named = Counter(node.attr for tree in [*trees.values(), *map(ast.parse, outside)]
                    for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return [f"{file}: {cls.name}.{node.name}" for file, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and named[node.name] == sum(isinstance(n, ast.Attribute) and n.attr == node.name
                                        for n in ast.walk(node))]


# The calls of the standard library into a hook a package class overrides: argparse calls
# the error method of the CLI's parser.
HOOK_CALLS = "parser.error(message)\n"


def test_every_public_method_is_referenced():
    sources = {path.name: path.read_text() for path in SOURCES}
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert unreferenced_public_methods(sources, [acceptance, HOOK_CALLS]) == []


@pytest.mark.parametrize("sources, outside, unreferenced", [
    ({"a.py": "class C:\n    def f(self): pass\n    @property\n    def p(self): pass\n"
              "    def _g(self): pass\n    def __len__(self): pass\nC\n"}, (),
     ["a.py: C.f", "a.py: C.p"]),
    ({"a.py": "class C:\n    def f(self):\n        return self.f()\n"}, (), ["a.py: C.f"]),
    ({"a.py": "class C:\n    def f(self): pass\n    def g(self):\n        self.f()\n"}, (),
     ["a.py: C.g"]),
    ({"a.py": "class C:\n    def f(self): pass\n", "b.py": "c.f()\n"}, (), []),
    ({"a.py": "class C:\n    def f(self): pass\n"}, ["c.f\n"], []),
    ({"a.py": "def f(): pass\nclass C:\n    def f(self): pass\nf()\n"}, (), ["a.py: C.f"]),
    ({"a.py": "def g():\n    class C:\n        @staticmethod\n        def f(): pass\n"}, (),
     ["a.py: C.f"]),
])
def test_method_guard_finds_a_planted_method(sources, outside, unreferenced):
    assert unreferenced_public_methods(sources, outside) == unreferenced


def passed_parameters(call: ast.Call, positional: list[str], bound: bool) -> set[str]:
    """The parameters ``call`` surely passes to a function whose positional parameters are
    ``positional``, the first bound when ``bound``: each one it names by keyword, and by
    position the first ones up to its first ``*x`` and, after its last ``*x``, as many of
    the last ones as plain arguments follow. ``*x`` and ``**x`` pass none themselves."""
    stars = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
    before = bound + (stars[0] if stars else len(call.args))
    after = len(call.args) - 1 - stars[-1] if stars else 0
    by_position = positional[:before] + positional[max(0, len(positional) - after) :]
    return set(by_position) | {keyword.arg for keyword in call.keywords if keyword.arg}


def overridden_defaults(sources: dict[str, str], outside=()) -> list[str]:
    """The parameters with a default, of the functions and methods of ``sources`` (file name
    -> text) other than dunder methods, that every call naming the function in any file or
    ``outside`` text passes (passed_parameters), as 'function.parameter'. A method is
    bound when called as an attribute, a static one never; a function no call names is
    left out."""
    trees = [ast.parse(source) for source in sources.values()]
    calls = [node for tree in [*trees, *map(ast.parse, outside)] for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []
    for tree in trees:
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for func in ast.walk(tree):
            if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or func.name.startswith("__") and func.name.endswith("__")):
                continue
            a = func.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaults = positional[len(positional) - len(a.defaults) :] + [
                p.arg for p, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
            method = id(func) in methods and "staticmethod" not in map(ast.unparse,
                                                                       func.decorator_list)
            named = [call for call in calls if func.name in (getattr(call.func, "id", None),
                                                             getattr(call.func, "attr", None))]
            passed = [passed_parameters(call, positional,
                                        method and isinstance(call.func, ast.Attribute))
                      for call in named]
            found += [f"{func.name}.{name}" for name in defaults
                      if passed and all(name in each for each in passed)]
    return found


def test_no_default_is_passed_by_every_call():
    # a default that no call relies on is a second way in that nothing takes
    sources = {path.name: path.read_text() for path in SOURCES}
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert overridden_defaults(sources, [acceptance]) == []


METHOD = "class C:\n    def m(self, x=1): pass\n"


@pytest.mark.parametrize("sources, outside, overridden", [
    ({"a.py": "def f(a, b=1, *, k=2): pass\nf(1, 2, k=3)\nf(1, b=2, k=3)\n"}, (),
     ["f.b", "f.k"]),
    ({"a.py": "def f(a, b=1): pass\nf(1, 2)\nf(1)\n"}, (), []),
    ({"a.py": "def f(a, b=1): pass\nf(1, 2)\n"}, ["f(1)\n"], []),
    ({"a.py": "def f(a, b=1): pass\n"}, (), []),
    ({"a.py": "def f(a, b=1): pass\nf(1, 2)\nf(*args)\n"}, (), []),
    ({"a.py": "def f(a, b=1): pass\nf(1, 2)\nf(1, **kwargs)\n"}, (), []),
    ({"a.py": "def f(a, b=1, c=2): pass\nf(1, *xs, 3)\n"}, (), ["f.c"]),
    ({"a.py": "def f(x=1): pass\n", "b.py": "import a\na.f(2)\n"}, (), ["f.x"]),
    ({"a.py": METHOD + "C().m(2)\n"}, (), ["m.x"]),
    ({"a.py": METHOD + "C().m()\n"}, (), []),
    ({"a.py": "class C:\n    @staticmethod\n    def m(x=1): pass\nC.m(2)\n"}, (), ["m.x"]),
    ({"a.py": "class C:\n    def __init__(self, x=1): pass\n    def __eq__(self, o=None): pass\n"
              "C(2).__eq__(3)\n"}, (), []),
])
def test_default_guard_finds_a_planted_default(sources, outside, overridden):
    assert overridden_defaults(sources, outside) == overridden


def uncaught_error_classes(sources: dict[str, str], imported=frozenset()) -> list[str]:
    """The exception classes of ``sources`` (file name -> text), those derived from a
    builtin exception or from another of them, that no ``except`` clause or ``isinstance``
    call of any file names, by a name or an attribute, and that are not among ``imported``,
    as 'file: name'."""
    errors = {name for name, obj in vars(builtins).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes, caught = [], set()
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                classes.append((file, node))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= references(node.type)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and len(node.args) == 2):
                caught |= references(node.args[1])
    own = set()
    while new := {node.name for _, node in classes if node.name not in own
                  and any(references(base) & (errors | own) for base in node.bases)}:
        own |= new
    return [f"{file}: {node.name}" for file, node in classes
            if node.name in own and node.name not in caught | set(imported)]


def test_every_error_class_is_caught():
    # an error class that nothing tells apart from its base only renames that base
    sources = {path.name: path.read_text() for path in SOURCES}
    assert uncaught_error_classes(sources, acceptance_imports()) == []


@pytest.mark.parametrize("sources, imported, uncaught", [
    ({"a.py": "class E(ValueError): pass\nclass F(E): pass\nclass G: pass\n"}, (),
     ["a.py: E", "a.py: F"]),
    ({"a.py": "class E(ValueError): pass\n", "b.py": "try:\n    f()\nexcept a.E:\n    pass\n"},
     (), []),
    ({"a.py": "class E(KeyError): pass\nclass F(E): pass\ntry:\n    f()\n"
              "except (OSError, F) as exc:\n    pass\n"}, (), ["a.py: E"]),
    ({"a.py": "class E(Exception): pass\nif isinstance(x, (int, E)):\n    pass\n"}, (), []),
    ({"a.py": "class E(ValueError): pass\nraise E('x')\nissubclass(E, ValueError)\n"}, (),
     ["a.py: E"]),
    ({"a.py": "class E(ValueError): pass\nclass F(ValueError): pass\n"}, {"F"}, ["a.py: E"]),
    ({"a.py": "class R:\n    class E(ArithmeticError): pass\n"}, (), ["a.py: E"]),
])
def test_error_guard_finds_a_planted_class(sources, imported, uncaught):
    assert uncaught_error_classes(sources, imported) == uncaught


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


# What a verb may not call: it returns its output and side text, and cli.main writes them.
WRITERS = ("open", "print", "write_text", "write_table", "export_dictionary", "write",
           "writelines")


def writes_outside_main(source: str) -> list[str]:
    """The writing calls in the ``cmd_*`` functions of ``source`` (any of WRITERS, by name
    or as an attribute such as ``sys.stdout.write``), and the write_text calls in any
    other function but ``main``, as 'function: name'."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name == "main":
            continue
        writers = WRITERS if node.name.startswith("cmd_") else ("write_text",)
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if name in writers:
                    found.append(f"{node.name}: {name}")
    return found


def test_only_main_writes_a_verbs_output():
    assert writes_outside_main((ROOT / "src" / "sweepsense" / "cli.py").read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("def cmd_a(args):\n    sys.stdout.write('x')\n", ["cmd_a: write"]),
    ("def cmd_a(args):\n    print('x', file=sys.stderr)\n", ["cmd_a: print"]),
    ("def cmd_a(args):\n    with open(args.out, 'w') as fh:\n        fh.writelines([])\n",
     ["cmd_a: open", "cmd_a: writelines"]),
    ("def cmd_a(args):\n    def inner():\n        core.write_table(args.out, 'h', t)\n",
     ["cmd_a: write_table"]),
    ("def cmd_a(args):\n    export_dictionary(d, args.out)\n", ["cmd_a: export_dictionary"]),
    ("def helper(out):\n    write_text(out, [])\n", ["helper: write_text"]),
    ("def helper():\n    print('x')\n", []),
    ("def cmd_a(args):\n    return text, None\n", []),
    ("def main(argv):\n    write_text(sys.stdout, [])\n    print('error')\n", []),
])
def test_write_guard_finds_a_planted_write(source, found):
    assert writes_outside_main(source) == found


def launcher_faults(pyproject: str, source: str) -> list[str]:
    """How the ``sweepsense`` script of ``pyproject`` and the ``__main__`` block of
    ``source`` (the CLI's) fail to launch one function: [] when the script is
    'sweepsense.cli:<name>', ``<name>`` is a function of ``source``, and its one
    ``__main__`` block is the one call ``<name>()``."""
    import tomllib  # Python 3.11 and later; the rest of this module runs on 3.10

    script = tomllib.loads(pyproject)["project"]["scripts"]["sweepsense"]
    module, _, name = script.partition(":")
    tree = ast.parse(source)
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    if module != "sweepsense.cli" or name not in functions:
        return [f"script {script!r} is not sweepsense.cli:<a function of the CLI>"]
    blocks = [list(map(ast.unparse, node.body)) for node in tree.body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    want = [[f"{name}()"]]
    return [] if blocks == want else [f"__main__ blocks {blocks} are not {want}"]


def test_both_launchers_call_one_entry():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert launcher_faults(pyproject, (ROOT / "src" / "sweepsense" / "cli.py").read_text()) == []


SCRIPT = '[project.scripts]\nsweepsense = "sweepsense.cli:{}"\n'
MAIN_BLOCK = "if __name__ == '__main__':\n    "


@pytest.mark.parametrize("script, source, faults", [
    ("entry", f"def entry(): pass\n{MAIN_BLOCK}entry()\n", []),
    ("main", f"def main(): pass\ndef entry(): pass\n{MAIN_BLOCK}entry()\n",
     ["__main__ blocks [['entry()']] are not [['main()']]"]),
    ("entry", f"def main(): pass\ndef entry(): pass\n{MAIN_BLOCK}sys.exit(main())\n",
     ["__main__ blocks [['sys.exit(main())']] are not [['entry()']]"]),
    ("entry", "def entry(): pass\n", ["__main__ blocks [] are not [['entry()']]"]),
    ("entry", f"def entry(): pass\n{MAIN_BLOCK}entry()\n{MAIN_BLOCK}entry()\n",
     ["__main__ blocks [['entry()'], ['entry()']] are not [['entry()']]"]),
    ("start", f"def entry(): pass\n{MAIN_BLOCK}start()\n",
     ["script 'sweepsense.cli:start' is not sweepsense.cli:<a function of the CLI>"]),
])
def test_launcher_guard_finds_a_planted_launcher(script, source, faults):
    assert launcher_faults(SCRIPT.format(script), source) == faults


ARCHITECTURE = {"name": "FaA-Single", "rf_chains": 1, "physical_size_m": 0.12,
                "bandwidth_hz": 6e9, "n_samples": 128, "aperture_kind": "virtual",
                "f_ref_hz": 63e9, "power_mw": 850.0, "cost_usd": 55.0, "fov_deg": 60.0,
                "eta_reference": 926.0}

PRINTER_TABLES = """
import sys
from sweepsense import cli, core

def built():
    return [f.cache_info().currsize for f in (core._digits4, core._lead, core._exponents,
                                              core._pow10)]

config, out = sys.argv[1:]
assert cli.main(["compare", "--config", config]) == 0
before = built()
assert cli.main(["dict", "--config", config, "--out", out]) == 0
print(before, built())
"""


def test_printer_tables_are_built_on_first_use(tmp_path):
    # A fresh interpreter: in this one another test may have printed a table.
    grid = {f"{a}_{end}_m": lo for a, lo in zip("xyz", (-0.1, -0.1, 2.0)) for end in ("min", "max")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "plan": {"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 4},
        "dispersion": {"kind": "linear_sine", "theta_max_deg": 60.0},
        "grid": {**grid, "nx": 1, "ny": 1, "nz": 1},
        "architectures": [ARCHITECTURE],
    }))
    run = subprocess.run(
        [sys.executable, "-c", PRINTER_TABLES, str(config), str(tmp_path / "dict.csv")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    # compare prints no table and builds none; dict builds each table once
    assert run.stdout.split("\n")[-2] == "[0, 0, 0, 0] [1, 1, 1, 1]"



FOOTPRINT = """
import sys
from sweepsense import cli

assert cli.main(sys.argv[1:]) == 0
print("_hashlib" in sys.modules, "dataclasses" in sys.modules)
"""

# Each verb's argv, and whether it keys noise
VERBS = [
    ("dict --config {quiet}", False),
    ("localize --config {quiet} --measurement {meas}", False),
    ("localize --config {quiet} --measurement {meas} --dict {dict}", False),
    ("probe --config {quiet} --span 1.0 --steps 11", False),
    ("compare --config {quiet}", False),
    ("simulate --config {quiet}", False),
    ("simulate --config {noisy}", True),
    ("sweep --config {quiet} --snr 10 --trials 2", True),
    ("sweep --config {quiet} --snr noiseless --trials 5", False),
]
VERB_IDS = ["dict", "localize", "localize-dict", "probe", "compare", "simulate-noiseless",
            "simulate-noisy", "sweep", "sweep-noiseless"]


def footprint(tmp_path, argv: str) -> list[str]:
    """Run one verb in a fresh interpreter; return whether it loaded _hashlib and dataclasses.

    A fresh interpreter per verb: in this one another test may have loaded either."""
    grid = {f"{a}_{end}_m": v for a in "xy" for end, v in (("min", -0.1), ("max", 0.1))}
    config = {
        "plan": {"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 8},
        "dispersion": {"kind": "linear_sine", "theta_max_deg": 60.0},
        "antenna": {"length_m": 0.012},
        "scene": {"targets": [{"x_m": 0.0, "y_m": 0.0, "z_m": 3.0}], "snr_db": "noiseless",
                  "seed": 7},
        "grid": {**grid, "z_min_m": 2.9, "z_max_m": 3.1, "nx": 2, "ny": 2, "nz": 2},
        "architectures": [ARCHITECTURE],
    }
    paths = {name: tmp_path / f"{name}.{ext}" for name, ext in (
        ("quiet", "json"), ("noisy", "json"), ("meas", "csv"), ("dict", "csv"))}
    paths["quiet"].write_text(json.dumps(config))
    config["scene"]["snr_db"] = 5.0
    paths["noisy"].write_text(json.dumps(config))
    for verb, out in (("simulate", "meas"), ("dict", "dict")):  # the inputs of localize
        assert cli.main([verb, "--config", str(paths["quiet"]), "--out", str(paths[out])]) == 0
    run = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *(arg.format(**paths) for arg in argv.split()),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return run.stdout.split("\n")[-2].split()


@pytest.mark.parametrize("argv, loads_openssl", VERBS, ids=VERB_IDS)
def test_only_a_verb_that_keys_noise_loads_openssl(tmp_path, argv, loads_openssl):
    # hashlib's _hashlib module links OpenSSL (about 3.6 MB of a child's peak).
    assert footprint(tmp_path, argv)[0] == str(loads_openssl)


@pytest.mark.parametrize("argv", [argv for argv, _ in VERBS], ids=VERB_IDS)
def test_no_verb_loads_dataclasses(tmp_path, argv):
    # A frozen dataclass compiles its generated methods with exec each time its module is
    # imported, bytecode cache or not; the record types derive from core.Record instead.
    assert footprint(tmp_path, argv)[1] == "False"
