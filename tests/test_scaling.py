"""Cost per stage grows linearly with the model.

The north star asks that a 4x larger model cost about 4x, and at most 5x.
Wall time on a shared host moves by tens of percent, so these tests count
cost with two meters instead (``meter.py``): ``work``, the calls a stage
makes, which is the same on every run and under every
``PYTHONHASHSEED``, and ``peak_bytes``, the most memory it holds at once,
whose ratios are the same under every ``PYTHONHASHSEED`` though its bytes
may differ a little. Every case that is not an xfail is bounded under
both. Each stage runs on a fresh parse, so no view that an earlier stage
cached is left out of its count.

Shapes: the benchmark's chain, fan-out and feedback loop
(``bench/shapes.py``), and ``genmodels.many_bodies``, one body and one
artifact per agent. Stages: parse, ``check``, the activity diagram of
every body, ``docs_bundle``, ``canonical_format``, and ``impact`` up, down
and both from the first agent's first task (``Root.run``, or ``A0.run`` in
``many_bodies``), which builds the model's impact relation and then walks
it three times. More shapes test what the chain leaves out: the chain with
a comment on and above every line, and the chain with four parse errors in
every agent, for parse and ``check`` as ``a4c check`` runs it on one file,
from reading it to its sorted diagnostics; and one task with n inputs and
n outputs, for ``resolve`` and ``check``.

The call meter counts one C call as one unit of work, so a stage whose
cost hides in one C call, such as a regular expression or a scan along a
tuple, is bounded by it only as far as the shapes' sizes are; the wide
task's inputs compare in Python code so that their scans are counted. The
allocation peak sees the C calls that build what they cost, such as the
lexer's columns or a path copied per element. Five cases are strict
xfails until the ROADMAP item that mends them lands: the impact walk on a
delegation chain (item 4), ``check`` on the guardless ladder and
``classify`` on a loop that shares its merge with a ladder of merges (item
3), and ``check``'s output on a loop of fork diamonds and its search on a
chain of calls linked both ways (item 13).
"""

from __future__ import annotations

import contextlib
import io
import re
from functools import partial
from typing import Callable

import pytest

from a4c import cli, model as m
# docs pages import analysis on first use; no count may include that
from a4c.analysis import classify, impact
from a4c.formatter import canonical_format
from a4c.parser import parse
from a4c.render import docs_bundle, render_activity
from a4c.resolver import resolve
from a4c.validate import check

from conftest import load_resolved, load_shapes
from genmodels import many_bodies
from meter import peak_bytes, work

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
    if stage == "impact":
        agent = rm.model.agents[0]
        seed = m.task_display(agent.name, agent.tasks[0].name)
        return lambda: [impact(rm, seed, d) for d in ("up", "down", "both")]
    return lambda: _render_every_body(rm.model)


def assert_linear(setups: list[Callable[[], Callable]], meters=(work, peak_bytes)) -> None:
    """Under each meter, the count of each call that ``setups`` set up, one
    fresh call per meter, is at most ``BOUND`` times the count before it."""
    for meter in meters:
        counts = [meter(setup()) for setup in setups]
        steps = [round(b / a, 2) for a, b in zip(counts, counts[1:])]
        assert max(steps) <= BOUND, (meter.__name__, counts, steps)


@pytest.mark.parametrize("stage", ["parse", "check", "render", "docs", "fmt", "impact"])
@pytest.mark.parametrize("shape", ["chain", "fan", "feedback", "many_bodies"])
def test_work_grows_linearly(shape, stage):
    sizes = (100, 400, 1600) if shape == "many_bodies" and stage == "render" else (25, 100, 400)
    assert_linear([partial(_stage, stage, _shape(shape, n)) for n in sizes])


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
        assert_linear([partial(_stage, stage, text) for text in texts])
        return
    paths = []
    for k, text in enumerate(texts):
        paths.append(tmp_path / f"{k}.a4c")
        paths[-1].write_text(text, encoding="utf-8")
    assert_linear([lambda path=str(path): partial(cli._check_file, path) for path in paths])


class Noisy(str):
    """A name whose ``==`` runs Python code, so that the call meter counts
    each comparison, those of a scan along a tuple of names included."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return str.__eq__(self, other)


def wide_task(n: int) -> str:
    """Task ``A.run`` with inputs ``I0`` to ``I<n-1>`` and outputs ``O0`` to
    ``O<n-1>``, the i-th of each consumed and made by the i-th of a chain
    of n tool calls (V4 and V5 look up each), and task ``A.ask`` with the
    same inputs and one prompt row naming each (the resolver looks up each)."""
    ins = ", ".join(f"I{i}" for i in range(n))
    lines = ['model "Wide" {'] + [f"  artifact {k}{i}" for k in "IO" for i in range(n)]
    lines += ["  llm L default", "  tool T", "  agent A {", "    task run {", f"      in {ins}",
              f"      out {', '.join(f'O{i}' for i in range(n))}", "      body {"]
    lines += [f"        invoke t{i} = T.op {{ in I{i} out O{i} }}" for i in range(n)]
    lines += ["        start -> t0"] + [f"        t{i} -> t{i + 1}" for i in range(n - 1)]
    lines += [f"        t{n - 1} -> end", "      }", "    }", "    task ask {", f"      in {ins}",
              "      prompt {"] + [f'        static r{i} = "use {{I{i}}}"' for i in range(n)]
    return "\n".join(lines + ["      }", "    }", "  }", "}"]) + "\n"


def _wide_stage(stage: str, n: int):
    """``resolve`` or ``check`` of ``wide_task(n)`` with ``Noisy`` task
    inputs, set up unmetered."""
    model = parse(wide_task(n), "wide.a4c").model
    agent = model.sections[-1]
    tasks = tuple(m.Task(t.name, tuple(map(Noisy, t.inputs)), *t[2:]) for t in agent.tasks)
    agent = m.Agent(agent.name, agent.llm, tasks, agent.span)
    model = m.Model(model.name, model.file, model.sections[:-1] + (agent,))
    if stage == "resolve":
        return partial(resolve, model)
    return partial(check, resolve(model).model)


@pytest.mark.parametrize("stage", ["resolve", "check"])
def test_a_task_with_many_inputs_and_outputs_costs_linear_work(stage):
    assert_linear([partial(_wide_stage, stage, n) for n in (25, 100, 400)])


def guardless_ladder(k: int) -> str:
    """The benchmark's ladder of k diamonds with ``chk -> end`` unguarded: every
    guarded exit of its 2**k circuits stays inside their SCC."""
    return re.sub(r"chk -> end \[.*\]", "chk -> end", SHAPES.ladder(k, 0))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: V13 enumerates every circuit"
                                       " of a loop whose guarded exits stay in its SCC")
def test_check_on_the_guardless_ladder_grows_linearly():
    assert_linear([partial(_stage, "check", guardless_ladder(k)) for k in (2, 8)], (work,))


def shared_merge_ladder(k: int) -> str:
    """The loop ``c0 -> c1 -> x -> c0`` of two calls, and the ladder
    ``x -> d1 -> (a1 | b1) -> m1 -> ... -> mk -> chk -> x`` of k diamonds of
    merges that shares its merge ``x``: the SCC holds calls and decisions,
    but none of its 2**k + 1 circuits holds both."""
    lines = ['model "Merges" {', "  artifact R", "  llm L default", "  agent A {",
             "    task run {", "      in R", "      out R", "      body {",
             "        call c0 = step { in R out R }", "        call c1 = step { in R out R }",
             "        merge x"]
    for i in range(1, k + 1):
        lines += [f"        decision d{i} on R", f"        merge a{i}", f"        merge b{i}",
                  f"        merge m{i}"]
    lines += ["        decision chk on R", "        start -> c0", "        c0 -> c1",
              "        c1 -> x", "        x -> c0", "        x -> d1"]
    for i in range(1, k + 1):
        lines += [f"        d{i} -> a{i} [R == Left]", f"        d{i} -> b{i} [R == Right]",
                  f"        a{i} -> m{i}", f"        b{i} -> m{i}",
                  f"        m{i} -> {f'd{i + 1}' if i < k else 'chk'}"]
    lines += ["        chk -> x [R == Bad]", "        chk -> end [R == Good]", "      }", "    }",
              '    task step { in R out R prompt { static role = "step" } }', "  }", "}"]
    return "\n".join(lines) + "\n"


def _classify_run(text: str):
    """``classify`` of ``A.run`` in ``text``, set up unmetered."""
    rm = load_resolved(text, "merges.a4c")
    agent = rm.model.agents[0]
    return partial(classify, rm, agent, agent.tasks[0])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: classify enumerates every circuit"
                                       " of an SCC with a call and a decision on no one circuit")
def test_classify_on_the_shared_merge_ladder_grows_linearly():
    assert_linear([partial(_classify_run, shared_merge_ladder(k)) for k in (2, 8)], (work,))


def both_ways_chain(n: int) -> str:
    """Calls ``c0`` to ``c<n-1>`` with ``c<i> -> c<i+1>`` and
    ``c<i+1> -> c<i>``, no guard: n - 1 unguarded loops of two calls."""
    lines = ['model "BothWays" {', "  artifact R", "  llm L default", "  agent A {",
             "    task run {", "      in R", "      out R", "      body {"]
    lines += [f"        call c{i} = step {{ in R out R }}" for i in range(n)]
    lines += ["        start -> c0"]
    for i in range(n - 1):
        lines += [f"        c{i} -> c{i + 1}", f"        c{i + 1} -> c{i}"]
    lines += [f"        c{n - 1} -> end", "      }", "    }",
              '    task step { in R out R prompt { static role = "step" } }', "  }", "}"]
    return "\n".join(lines) + "\n"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: V13 recomputes the SCCs of what is"
                                       " left of a loop after each root, quadratic in the body")
def test_check_on_the_both_ways_chain_grows_linearly():
    assert_linear([partial(_stage, "check", both_ways_chain(n)) for n in (25, 100)], (work,))


def fork_diamonds(k: int) -> str:
    """The loop ``c0 -> f1 -> (a1 | b1) -> j1 -> ... -> jk -> chk -> c0`` of
    k fork/join diamonds, left by the unguarded ``chk -> end``: none of its
    2**k circuits has a guarded exit."""
    lines = ['model "Diamonds" {', "  artifact R", "  llm L default", "  agent A {",
             "    task run {", "      in R", "      out R", "      body {",
             "        call c0 = step { in R out R }"]
    for i in range(1, k + 1):
        lines += [f"        fork f{i}", f"        call a{i} = step {{ in R out R }}",
                  f"        call b{i} = step {{ in R out R }}", f"        join j{i}"]
    lines += ["        decision chk on R", "        start -> c0", "        c0 -> f1"]
    for i in range(1, k + 1):
        lines += [f"        f{i} -> a{i}", f"        f{i} -> b{i}", f"        a{i} -> j{i}",
                  f"        b{i} -> j{i}", f"        j{i} -> {f'f{i + 1}' if i < k else 'chk'}"]
    lines += ["        chk -> c0 [R == Bad]", "        chk -> end", "      }", "    }",
              '    task step { in R out R prompt { static role = "step" } }', "  }", "}"]
    return "\n".join(lines) + "\n"


def stdout_bytes(fn: Callable[[], str]) -> int:
    """The size of what ``fn`` returns, its printed output, in UTF-8 bytes."""
    return len(fn().encode())


def _cli_check(path: str) -> str:
    """What ``a4c check path`` prints to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["check", path])
    return out.getvalue()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: V13 prints one W113 per"
                                       " unguarded circuit, 2**k of them")
def test_check_on_fork_diamonds_prints_and_works_linearly(tmp_path):
    paths = [tmp_path / f"diamonds{k}.a4c" for k in (2, 8)]
    for k, path in zip((2, 8), paths):
        path.write_text(fork_diamonds(k), encoding="utf-8")
    assert_linear([lambda path=str(path): partial(_cli_check, path) for path in paths],
                  (stdout_bytes, work))


def delegation(n: int) -> str:
    """Agents ``G0`` to ``G<n-1>``: ``G<i>.work`` calls ``G<i+1>.work``, and
    each task has an input and an output artifact of its own, so impact down
    from ``G0.work`` reaches ``G<i>.work`` only by a path of i calls."""
    lines = ['model "Delegation" {']
    lines += [f"  artifact {kind}{i}" for i in range(n) for kind in "AB"]
    for i in range(n):
        lines += [f"  agent G{i} {{", "    task work {", f"      in A{i}", f"      out B{i}"]
        if i + 1 < n:
            lines += ["      body {", f"        call c = work on G{i + 1} {{ in A{i} out B{i} }}",
                      "        start -> c", "        c -> end", "      }"]
        lines += ["    }", "  }"]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: each affected element keeps its"
                                       " whole path, so impact's memory grows as n**2")
def test_impact_on_a_delegation_chain_holds_linear_memory():
    models = [load_resolved(delegation(n), "delegation.a4c") for n in (125, 500, 2000)]
    for rm in models:
        rm.relations  # built before the walk is metered
    assert_linear([lambda rm=rm: partial(impact, rm, "G0.work", "down") for rm in models],
                  (peak_bytes,))
