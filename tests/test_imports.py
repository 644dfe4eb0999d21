"""What importing the package and running `check` load."""

from __future__ import annotations

import ast
import importlib.resources as ir
import os
import subprocess
import sys

import a4c

from conftest import CORPUS

SUBMODULES = ("analysis", "cli", "diagnostics", "formatter", "lexer", "model", "parser",
              "records", "render", "resolver", "validate")

# modules that `check` has no use for
NOT_FOR_CHECK = ("a4c.render", "a4c.formatter", "hashlib", "dataclasses", "json")


def _loaded_modules(code: str) -> set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter that
    sees this package, as the names it prints last on stdout."""
    src = os.path.dirname(os.path.dirname(a4c.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    script = f"import sys\n{code}\nprint(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_check_loads_no_renderer_formatter_hashlib_or_dataclasses():
    files = [str(ir.files("a4c") / "corpus" / f"{name}.a4c") for name in CORPUS]
    baseline = _loaded_modules("")  # what this interpreter's start-up preloads
    after_check = _loaded_modules(f"from a4c.cli import main\nmain(['check', *{files!r}])")
    assert "a4c.validate" in after_check
    assert {name for name in NOT_FOR_CHECK if name not in baseline} & after_check == set()


def test_package_serves_every_public_name_and_submodule():
    for name in a4c.__all__:
        assert getattr(a4c, name) is not None, name
    assert a4c.parse is a4c.parser.parse
    assert a4c.RenderError is a4c.render.RenderError
    for name in SUBMODULES:
        assert getattr(a4c, name).__name__ == f"a4c.{name}"
    assert set(a4c.__all__) <= set(dir(a4c))
    assert set(SUBMODULES) <= set(dir(a4c))


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(a4c, "no_such_name")
