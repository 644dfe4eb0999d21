"""The differential harness (``differential.py``): the same records under
every declared Python version, and a record that moves with the product.

``pyproject.toml`` declares Python 3.10 and later while this suite runs
under one interpreter. The first test runs the harness's observer on the
corpus and ``messy.a4c`` under the running interpreter and under each other
interpreter of 3.10 or later that it finds on ``PATH`` (``python3.10`` and
up) or under ``$PYENV_ROOT/versions``, one per version, and compares their
records; an interpreter counts as found only if it starts and reports its
version. It skips, naming what it could not check, when it finds none.

The other tests plant one change at a time with monkeypatch (a token's end,
a diagnostic's message, one impact path element, one rendered byte) and
assert that the observer's record for that observable moves, so the
harness still sees what it is there to see.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

import pytest

import differential
from a4c import analysis, lexer, render, validate
from a4c.diagnostics import Diagnostic

from conftest import CORPUS, corpus_text

INPUTS = {**{f"{name}.a4c": corpus_text(name) for name in CORPUS},
          "messy.a4c": (pathlib.Path(__file__).parent / "fixtures" / "messy.a4c")
          .read_text(encoding="utf-8")}
VERSION = "import platform; print(platform.python_version())"


def other_interpreters() -> dict[str, str]:
    """Version -> interpreter, for each Python of 3.10 or later but the
    running version that starts and reports its version."""
    pyenv = pathlib.Path(os.environ.get("PYENV_ROOT", pathlib.Path.home() / ".pyenv"))
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(map(str, pyenv.glob("versions/3.*/bin/python3")))
    found: dict[str, str] = {}
    for python in filter(None, candidates):
        try:
            proc = subprocess.run([python, "-c", VERSION], capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = proc.stdout.strip()
        if proc.returncode == 0 and version and version != platform.python_version():
            major, minor = version.split(".")[:2]
            if (int(major), int(minor)) >= (3, 10):
                found.setdefault(version, python)
    return found


def test_every_interpreter_found_gives_the_same_records(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other Python 3.10+ starts here: the observables are unchecked on every "
                    f"declared version but {platform.python_version()}")
    inputs_path = tmp_path / "inputs.json"
    inputs_path.write_text(json.dumps(INPUTS), encoding="utf-8")
    src = differential.REPO / "src"
    _, want = differential.run_side(sys.executable, src, inputs_path, tmp_path, "running",
                                    cli=False)
    for k, python in enumerate(others.values()):
        version, got = differential.run_side(python, src, inputs_path, tmp_path, f"other{k}",
                                             cli=False)
        differ = {obs: row["differ"] for obs, row in differential.compare(want, got).items()
                  if row["differ"]}
        assert not differ, (version, python, differ)


# --- planted changes ----------------------------------------------------------------

def _token_end(monkeypatch):
    real = lexer.tokenize

    def tokenize(text, file):
        result = real(text, file)
        result.ends[1] += 1
        return result
    monkeypatch.setattr(lexer, "tokenize", tokenize)


def _diagnostic_message(monkeypatch):
    real = validate.check

    def check(rm):
        first, *rest = real(rm)
        return [Diagnostic(first.code, first.severity, first.message + ".", first.span,
                           first.related), *rest]
    monkeypatch.setattr(validate, "check", check)


def _impact_path_element(monkeypatch):
    real = analysis.impact
    planted = []

    def impact(rm, seed, direction):
        report = real(rm, seed, direction)
        if planted or not report.affected:
            return report
        planted.append(seed)
        a = report.affected[-1]
        moved = analysis.Affected(a.element, a.relation, (a.path[0] + "x", *a.path[1:]))
        return analysis.ImpactReport(report.seed, report.direction,
                                     report.affected[:-1] + (moved,), report.levels_touched)
    monkeypatch.setattr(analysis, "impact", impact)


def _rendered_byte(monkeypatch):
    real = render.render_context

    def render_context(model):
        diagram = real(model)
        return render.DiagramText(diagram.kind, diagram.text[:-1] + chr(ord(diagram.text[-1]) ^ 1))
    monkeypatch.setattr(render, "render_context", render_context)


@pytest.mark.parametrize("obs, plant", [
    ("tokens", _token_end),
    ("check", _diagnostic_message),
    ("impact", _impact_path_element),
    ("render", _rendered_byte),
])
def test_the_observer_sees_a_planted_change(monkeypatch, obs, plant):
    name, old, new = differential.WARNED  # a model with one W113, so check has a message
    text = corpus_text(name).replace(old, new, 1)
    before = differential.observe_text(text, "warned.a4c")
    plant(monkeypatch)
    after = differential.observe_text(text, "warned.a4c")
    assert not str(after[obs]).startswith("raised"), after[obs]
    assert after[obs] != before[obs]
