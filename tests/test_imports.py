"""No module of the package or of its tests imports a name it never
uses, no module of the package defines a top-level name that no entry
point reaches, and the package needs numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "momentsos"

# unused in hierarchy itself: the benchmark's layer trace patches it there
EXCEPTIONS = {"hierarchy.moment_matrix"}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # re-exported names
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_no_unused_imports():
    found = {
        f"{path.stem}.{name}"
        for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
        for name in unused_imports(path)
    }
    assert sorted(found - EXCEPTIONS) == []


def test_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import json\nfrom typing import Dict, List\n"
        "__all__ = ['Dict']\n\ndef f(x: List[int]) -> int:\n    return 0\n"
    )
    assert unused_imports(module) == ["json"]


def unreached_names(paths, entry_points) -> list:
    """Top-level names (def, class or assignment target) of the modules at
    `paths` that no entry point reaches, as "module.name". The roots are
    `entry_points` ("module.name") and every name that module-level code
    reads: imports, `__all__` strings, the right-hand sides of
    assignments. A reached def or class reaches every name it reads: a
    bare name in its own module, or anywhere as an attribute (`sdp._foo`)
    or an imported name."""
    defined = {}
    roots = {tuple(name.split(".")) for name in entry_points}

    def reads(module, node, strings=False):
        """(module, name) for a bare name, ("*", name) for any module's."""
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add((module, sub.id))
            elif isinstance(sub, ast.Attribute):
                out.add(("*", sub.attr))
            elif isinstance(sub, ast.alias):
                out.add(("*", sub.name))
            elif isinstance(sub, ast.Constant) and strings:
                if isinstance(sub.value, str):
                    out.add(("*", sub.value))
        return out

    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[(path.stem, node.name)] = node
                continue
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    defined[(path.stem, t.id)] = None
            roots |= reads(path.stem, node, strings=True)
    reached = set()
    while roots:
        module, name = roots.pop()
        if module == "*":
            keys = {k for k in defined if k[1] == name}
        else:
            keys = {(module, name)} & defined.keys()
        for key in keys - reached:
            reached.add(key)
            if defined[key] is not None:
                roots |= reads(key[0], defined[key])
    return sorted(f"{m}.{n}" for m, n in defined if (m, n) not in reached)


def test_every_top_level_name_is_reached():
    paths = sorted(PACKAGE.glob("*.py"))
    assert unreached_names(paths, ["cli.main"]) == []


def test_scan_sees_an_unreached_name(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "__all__ = ['exported']\n_USED = 1\n_DEAD = 2\n\n"
        "def _rec(n):\n    return _rec(n - 1)\n\n"
        "def _imported():\n    return _USED\n\n"
        "def exported():\n    return 0\n\ndef by_attribute():\n    return 0\n\n"
        "def helper():\n    return 0\n\ndef dead():\n    return helper()\n"
    )
    b.write_text(
        "from . import a\nfrom .a import _imported\n\n_USED = 3\n\n"
        "class _Dead:\n    pass\n\ndef main():\n    return a.by_attribute()\n"
    )
    assert unreached_names([a, b], ["b.main"]) == [
        "a._DEAD", "a._rec", "a.dead", "a.helper", "b._Dead", "b._USED"
    ]


def test_import_leaves_scipy_unloaded():
    # pyproject.toml and the README promise a numpy-only package
    code = "import sys, momentsos; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_import_loads_neither_scipy_nor_sympy():
    # both may be installed; the package promises numpy alone, and importing
    # scipy.linalg alone costs more than half a second of every start
    code = (
        "import sys, momentsos, momentsos.cli; "
        "print(sorted({'scipy', 'sympy'} & {m.split('.')[0] for m in sys.modules}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
