"""The package needs nothing at run time beyond the standard library."""

from __future__ import annotations

import ast
import pathlib
import sys

import a4c


def test_package_imports_only_the_standard_library():
    imported: dict[str, str] = {}
    for path in sorted(pathlib.Path(a4c.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.name.split(".")[0]] = path.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported[node.module.split(".")[0]] = path.name
    assert imported
    outside = {name: file for name, file in imported.items()
               if name not in sys.stdlib_module_names}
    assert outside == {}
