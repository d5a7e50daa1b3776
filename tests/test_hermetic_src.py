"""A simulated run may depend only on its seed and inputs: nothing under
``src/repro`` reads the process environment."""

import ast
from pathlib import Path

import repro


def _environment_reads(tree: ast.AST):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "os"
                and node.attr in ("environ", "environb", "getenv", "getenvb")):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "environb", "getenv", "getenvb"):
                    yield node.lineno, f"from os import {alias.name}"


def test_src_never_reads_the_environment():
    root = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(root)}:{lineno}: {what}"
        for path in sorted(root.rglob("*.py"))
        for lineno, what in _environment_reads(ast.parse(path.read_text()))
    ]
    assert found == [], "environment reads under src/repro:\n" + "\n".join(found)
