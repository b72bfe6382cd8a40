"""No module of the package imports a name it never uses or defines a
private name nothing uses, and the package needs numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "momentsos"

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
        for path in sorted(PACKAGE.glob("*.py"))
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


def unreferenced_private_names(paths) -> list:
    """Module-level private names (`_foo`) of the modules at `paths` that
    no code reads outside the name's own definition, as "module.name". A
    name counts as read in its own module, or anywhere as an attribute
    (`sdp._foo`) or an imported name."""
    defined = []
    local = {}
    anywhere = set()
    for path in paths:
        local[path.stem] = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [
                (path.stem, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
            # reads inside a definition do not count for the name it
            # defines, so that a dead recursive function is still found
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    if sub.id not in names:
                        local[path.stem].add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr not in names:
                    anywhere.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    anywhere.add(sub.name)
    return sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in local[module] and name not in anywhere
    )


def test_no_unreferenced_private_names():
    assert unreferenced_private_names(sorted(PACKAGE.glob("*.py"))) == []


def test_scan_sees_an_unreferenced_private_name(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "_USED = 1\n_DEAD = 2\n\ndef _rec(n):\n    return _rec(n - 1)\n\n"
        "def _imported():\n    return _USED\n"
    )
    b.write_text(
        "from .a import _imported\n\n_USED = 3\n\nclass _Dead:\n    pass\n"
    )
    assert unreferenced_private_names([a, b]) == [
        "a._DEAD", "a._rec", "b._Dead", "b._USED"
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
