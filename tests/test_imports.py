"""What importing the package and running each command load: a per-command
load budget, so start-up cost cannot creep back unseen."""

from __future__ import annotations

import ast
import importlib.resources as ir
import importlib.util
import os
import pkgutil
import subprocess
import sys

import a4c

from conftest import CORPUS

# every module in the package directory, so a new one cannot be left out
SUBMODULES = tuple(info.name for info in pkgutil.iter_modules(a4c.__path__))

# modules that each command has no use for; a ``check`` in one process
# loads neither the fork code nor the element builders
NOT_FOR_CHECK = ("a4c.render", "a4c.formatter", "a4c.analysis", "a4c.commands",
                 "a4c.parallel", "a4c.elements", "hashlib", "dataclasses", "json", "pickle")
NOT_FOR_FMT = ("a4c.resolver", "a4c.validate", "a4c.analysis")
NOT_FOR_RENDER = ("a4c.analysis", "a4c.flow", "a4c.validate", "a4c.formatter")
NOT_FOR_HELP = ("a4c.parser", "a4c.resolver")

# AST nodes of the a4c modules that ``check`` loads: a cold ``check``
# compiles them all, and line counts do not track that cost. Lower it as
# code leaves; raise it only for a reason recorded in CHANGES.md.
CHECK_AST_BUDGET = 18_417

# Sources that are not module files, compiled while ``check`` runs: the
# code that ``@record`` compiles, once per number of fields. A record class
# that compiled code of its own would add one each.
CHECK_GENERATED_COMPILES = 16


def _run_fresh(code: str, result: str):
    """The value of the expression ``result`` after running ``code`` in a
    fresh interpreter that sees this package."""
    src = os.path.dirname(os.path.dirname(a4c.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    script = f"import sys\n{code}\nprint(repr({result}))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _loaded_modules(code: str) -> set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    return set(_run_fresh(code, "sorted(sys.modules)"))


def _after_cli(argv: list[str]) -> set[str]:
    """The modules loaded once ``a4c *argv`` has run in a fresh interpreter."""
    return _loaded_modules("from a4c.cli import main\n"
                           f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass")


def _corpus_files() -> list[str]:
    return [str(ir.files("a4c") / "corpus" / f"{name}.a4c") for name in CORPUS]


def test_check_loads_no_renderer_formatter_hashlib_or_dataclasses():
    baseline = _loaded_modules("")  # what this interpreter's start-up preloads
    after_check = _after_cli(["check", *_corpus_files()])
    assert {"a4c.validate", "a4c.flow"} <= after_check
    assert {name for name in NOT_FOR_CHECK if name not in baseline} & after_check == set()


def _ast_nodes(module: str) -> int:
    with open(importlib.util.find_spec(module).origin, encoding="utf-8") as f:
        return sum(1 for _ in ast.walk(ast.parse(f.read())))


def test_check_compiles_within_its_ast_budget():
    loaded = _after_cli(["check", *_corpus_files()])
    ours = sorted(name for name in loaded if name.split(".")[0] == "a4c")
    assert {"a4c.cli", "a4c.validate", "a4c.flow"} <= set(ours)
    total = sum(_ast_nodes(name) for name in ours)
    assert total <= CHECK_AST_BUDGET, (total, ours)


def test_check_compiles_little_generated_code():
    """An audit hook sees every ``compile``; those of a module file are the
    imports, and the rest are code built at run time."""
    hook = ("import os\n"
            "generated = []\n"
            "def hook(event, args):\n"
            "    if event == 'compile' and not (isinstance(args[1], str)\n"
            "                                   and os.path.isfile(args[1])):\n"
            "        generated.append(str(args[1]))\n"
            "sys.addaudithook(hook)\n")
    run = f"from a4c.cli import main\nmain({['check', *_corpus_files()]!r})\n"
    generated = _run_fresh(hook + run, "generated")
    assert generated and set(generated) == {"<record>"}
    assert len(generated) <= CHECK_GENERATED_COMPILES, generated


def test_fmt_loads_no_resolver_validator_or_analysis():
    after_fmt = _after_cli(["fmt", "--stdout", *_corpus_files()])
    assert "a4c.formatter" in after_fmt
    assert set(NOT_FOR_FMT) & after_fmt == set()


def test_render_loads_no_analysis_flow_validator_or_formatter(tmp_path):
    runs = [["render", "--out", str(tmp_path / str(k)), path]
            for k, path in enumerate(_corpus_files())]
    after_render = _loaded_modules("from a4c.cli import main\n"
                                   f"assert [main(argv) for argv in {runs!r}] == [0, 0, 0]")
    assert "a4c.render" in after_render and len(list(tmp_path.rglob("*.dot"))) > 3
    assert set(NOT_FOR_RENDER) & after_render == set()


def test_help_loads_no_parser_or_resolver():
    after_help = _after_cli(["--help"])
    assert "a4c.cli" in after_help
    assert set(NOT_FOR_HELP) & after_help == set()


def test_package_serves_every_public_name_and_submodule():
    for name in a4c.__all__:
        assert getattr(a4c, name) is not None, name
    assert a4c.parse is a4c.parser.parse
    assert a4c.RenderError is a4c.render.RenderError
    # in a fresh interpreter, where no other import has set the attribute
    served = _run_fresh("import a4c", f"[getattr(a4c, name).__name__ for name in {SUBMODULES!r}]")
    assert served == [f"a4c.{name}" for name in SUBMODULES]
    assert set(a4c.__all__) <= set(dir(a4c))
    assert set(SUBMODULES) <= set(dir(a4c))


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(a4c, "no_such_name")
