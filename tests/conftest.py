from __future__ import annotations

import importlib.resources as ir
import importlib.util
import pathlib

import pytest

from a4c.cli import main as cli_main
from a4c.parser import parse
from a4c.resolver import ResolvedModel, resolve

CORPUS = ("testgen", "recovery", "resell")


def corpus_text(name: str) -> str:
    return (ir.files("a4c") / "corpus" / f"{name}.a4c").read_text(encoding="utf-8")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    """``a4c *argv`` in process: (exit code, stdout, stderr)."""
    try:
        rc = cli_main(list(argv))
    except SystemExit as exc:
        rc = int(exc.code or 0)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def load_shapes():
    """The benchmark's synthetic model shapes, ``bench/shapes.py``."""
    path = pathlib.Path(__file__).parent.parent / "bench" / "shapes.py"
    spec = importlib.util.spec_from_file_location("shapes", path)
    shapes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shapes)
    return shapes


def load_resolved(text: str, file: str = "<test>") -> ResolvedModel:
    result = parse(text, file)
    assert result.model is not None, result.diagnostics
    resolved = resolve(result.model)
    assert resolved.model is not None, resolved.diagnostics
    return resolved.model


@pytest.fixture(scope="session")
def testgen_text() -> str:
    return corpus_text("testgen")


@pytest.fixture(scope="session")
def recovery_text() -> str:
    return corpus_text("recovery")


@pytest.fixture(scope="session")
def resell_text() -> str:
    return corpus_text("resell")


@pytest.fixture(scope="session")
def testgen_rm(testgen_text) -> ResolvedModel:
    return load_resolved(testgen_text, "testgen.a4c")


@pytest.fixture(scope="session")
def recovery_rm(recovery_text) -> ResolvedModel:
    return load_resolved(recovery_text, "recovery.a4c")


@pytest.fixture(scope="session")
def resell_rm(resell_text) -> ResolvedModel:
    return load_resolved(resell_text, "resell.a4c")


@pytest.fixture(scope="session")
def model_pool() -> list[tuple[int, str, ResolvedModel]]:
    """200 randomized valid models shared by the property suites."""
    from genmodels import generate_model

    pool = []
    for i in range(200):
        text = generate_model(i)
        pool.append((i, text, load_resolved(text, f"gen-{i}.a4c")))
    return pool


@pytest.fixture(scope="session")
def noisy_texts() -> list[str]:
    """500 randomized model texts with messy layout and comments."""
    from genmodels import generate_model

    return [generate_model(1000 + i, noise=True) for i in range(500)]
