"""No module of the package imports a name it never uses, and the package
needs numpy alone."""

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
