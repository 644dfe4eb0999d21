"""Metered work per stage grows linearly with the model.

The north star asks that a 4x larger model cost about 4x the work, and at
most 5x. Wall time on a shared host moves by tens of percent, so these
tests count work with ``meter.work`` instead: the count is the same on
every run and under every ``PYTHONHASHSEED``. Each stage runs on a fresh
parse, so no view that an earlier stage cached is left out of its count.

Shapes: the benchmark's chain, fan-out and feedback loop
(``bench/shapes.py``), and ``genmodels.many_bodies``, one body and one
artifact per agent. Stages: parse, ``check``, the activity diagram of
every body, ``docs_bundle`` and ``canonical_format``. Two more shapes test
what the chain leaves out: the chain with a comment on and above every
line, and the chain with four parse errors in every agent. For them the
stages are parse and ``check`` as ``a4c check`` runs it on one file, from
reading it to its sorted diagnostics.

The meter counts one C call as one unit of work (see ``meter.py``), so a
stage whose cost hides in one C call, such as a regular expression, is
bounded here only as far as the shapes' sizes are.
"""

from __future__ import annotations

import re

import pytest

import a4c.analysis  # noqa: F401  docs pages import it on first use; no count may include that
from a4c import cli, model as m
from a4c.formatter import canonical_format
from a4c.parser import parse
from a4c.render import docs_bundle, render_activity
from a4c.validate import check

from conftest import load_resolved, load_shapes
from genmodels import many_bodies
from meter import work

BOUND = 5  # most work allowed for a 4x step
SHAPES = load_shapes()


def _shape(name: str, n: int) -> str:
    if name == "many_bodies":
        return many_bodies(n)
    return getattr(SHAPES, name)(n, 0)


def _render_every_body(model: m.Model) -> list:
    return [render_activity(model, agent, task)
            for agent, task in m.iter_tasks(model) if task.graph is not None]


def _stage(stage: str, text: str):
    """The call that ``stage`` makes on ``text``, set up unmetered."""
    if stage == "parse":
        return lambda: parse(text, "scale.a4c")
    if stage == "fmt":
        return lambda: canonical_format(text, "scale.a4c")
    rm = load_resolved(text, "scale.a4c")
    if stage == "check":
        return lambda: check(rm)
    if stage == "docs":
        return lambda: docs_bundle(rm)
    return lambda: _render_every_body(rm.model)


def _steps(stage: str, texts: list[str]) -> tuple[list[int], list[float]]:
    counts = [work(_stage(stage, text)) for text in texts]
    return counts, [round(b / a, 2) for a, b in zip(counts, counts[1:])]


@pytest.mark.parametrize("stage", ["parse", "check", "render", "docs", "fmt"])
@pytest.mark.parametrize("shape", ["chain", "fan", "feedback", "many_bodies"])
def test_work_grows_linearly(shape, stage):
    sizes = (100, 400, 1600) if shape == "many_bodies" and stage == "render" else (25, 100, 400)
    counts, steps = _steps(stage, [_shape(shape, n) for n in sizes])
    assert max(steps) <= BOUND, (counts, steps)


def commented(n: int) -> str:
    """The chain of n agents with a comment line above, and a comment at the
    end of, every line: about two thirds of the text is comments."""
    return "".join(f"// note {i}: what the line below is for\n{line}  // note {i}\n"
                   for i, line in enumerate(SHAPES.chain(n, 0).splitlines()))


def broken(n: int) -> str:
    """The chain of n agents with four parse errors in each agent (P003, two
    P001 and one more P001 after the parser resumes), so the file does not parse."""
    lines = []
    for line in SHAPES.chain(n, 0).splitlines():
        lines.append(line)
        if line.startswith("  agent "):
            lines += ["    widget W", "    ~ task", "    task t { in ]  }"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("stage", ["parse", "check"])
@pytest.mark.parametrize("shape", [commented, broken])
def test_comments_and_errors_cost_linear_work(tmp_path, shape, stage):
    texts = [shape(n) for n in (25, 100, 400)]
    assert (parse(texts[0], "x.a4c").model is None) == (shape is broken)
    if stage == "parse":
        counts = [work(lambda text=text: parse(text, "scale.a4c")) for text in texts]
    else:
        paths = []
        for k, text in enumerate(texts):
            paths.append(tmp_path / f"{k}.a4c")
            paths[-1].write_text(text, encoding="utf-8")
        counts = [work(lambda path=str(path): cli._check_file(path)) for path in paths]
    steps = [round(b / a, 2) for a, b in zip(counts, counts[1:])]
    assert max(steps) <= BOUND, (counts, steps)


def guardless_ladder(k: int) -> str:
    """The benchmark's ladder of k diamonds with ``chk -> end`` unguarded: every
    guarded exit of its 2**k circuits stays inside their SCC."""
    return re.sub(r"chk -> end \[.*\]", "chk -> end", SHAPES.ladder(k, 0))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: V13 enumerates every circuit"
                                       " of a loop whose guarded exits stay in its SCC")
def test_check_on_the_guardless_ladder_grows_linearly():
    counts, steps = _steps("check", [guardless_ladder(k) for k in (2, 8)])
    assert max(steps) <= BOUND, (counts, steps)
