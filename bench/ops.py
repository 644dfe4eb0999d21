"""The in-process operations the benchmark times, one call per input.

Every operation takes the package to run as its first argument: ``a4c``
from ``src/`` (the code under test) or the frozen control copy in
``bench/control`` (see ``load_control``). It goes through module
attributes (``a.parser.parse``, not a name imported at load time), so a
``Tracer`` installed between rounds sees every call. Each returns what the
correctness checks need.
"""

from __future__ import annotations

import importlib.util
import os
import sys

DIRECTIONS = ("up", "down", "both")
CONTROL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "control")


def load_control():
    """The control copy of a4c, imported as package ``a4c_control`` so that it
    lives next to the ``a4c`` under test without sharing a module with it."""
    init = os.path.join(CONTROL_DIR, "a4c", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        "a4c_control", init, submodule_search_locations=[os.path.dirname(init)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules["a4c_control"] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def _resolved(a, text: str, name: str):
    result = a.resolver.resolve(a.parser.parse(text, name).model)
    return result.model


def check(a, path: str):
    """The ``a4c check`` path for one file: read, parse, resolve, check."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parsed = a.parser.parse(text, path)
    if parsed.model is None:
        return parsed.diagnostics
    result = a.resolver.resolve(parsed.model)
    diags = parsed.diagnostics + result.diagnostics
    if result.model is not None:
        diags += a.validate.check(result.model)
    return a.diagnostics.sort_diagnostics(diags)


def analyze(a, text: str, name: str, seeds: tuple[str, ...]):
    """Classify every composite task; impact of each seed in each direction."""
    rm = _resolved(a, text, name)
    patterns = [
        (agent.name, task.name, a.analysis.classify(rm, agent, task))
        for agent, task in a.model.iter_tasks(rm.model)
        if task.is_composite
    ]
    reports = [a.analysis.impact(rm, seed, d) for seed in seeds for d in DIRECTIONS]
    return patterns, reports


def docs(a, text: str, name: str) -> dict[str, str]:
    """Every renderer at every level, then the docs bundle."""
    rm = _resolved(a, text, name)
    model = rm.model
    render = a.render
    out = {"c1.puml": render.render_context(model).text}
    if model.deployment is not None:
        out["c2.puml"] = render.render_deployment(model).text
    for agent, task in a.model.iter_tasks(model):
        if task.graph is not None:
            out[f"activity/{agent.name}.{task.name}.dot"] = render.render_activity(
                model, agent, task).text
        if task.prompt is not None:
            out[f"prompts/{agent.name}.{task.name}.md"] = render.render_prompts(agent, task).text
    for rel, content in render.docs_bundle(rm).files.items():
        out[f"docs/{rel}"] = content
    return out


def fmt(a, text: str, name: str) -> str:
    return a.formatter.canonical_format(text, name)


def emit(a, model) -> str:
    """The emitter alone, on an already-parsed model."""
    return a.formatter.parse_roundtrip(model)
