"""Rules V4 and V13 against brute-force oracles, long-loop regressions, and
one build of each body's control facts.

V4 runs as a bitset dataflow and V13 prunes nodes with a guarded exit from
their SCC before it enumerates circuits; both are compared here with the
literal searches in ``oracles.py`` on the corpus, generated models, the
rule mutations and random task bodies.
"""

from __future__ import annotations

import re
import sys
import time
from collections import Counter

import oracles
from a4c import flow, model as m
from a4c.analysis import Pattern, classify, loop_facts
from a4c.parser import parse
from a4c.render import docs_bundle
from a4c.resolver import resolve
from a4c.validate import check

from conftest import CORPUS, corpus_text, load_resolved
from genmodels import generate_body_model, generate_model
from test_validate import mutations

_E104 = re.compile(r"^'(.+)' is consumed by '(.+)' but ")
_W113 = re.compile(r"^control-flow cycle (.+) in task '(.+)' has no guarded exit$")


def _differential_texts() -> list[tuple[str, str]]:
    texts = [(name, corpus_text(name)) for name in CORPUS]
    texts += [(f"clean-{i}", generate_model(i)) for i in range(60)]
    texts += [(f"noisy-{i}", generate_model(2000 + i, noise=True)) for i in range(60)]
    texts += [(f"rule-{rule}", text)
              for rule, text, _ in mutations(corpus_text("testgen"), corpus_text("recovery"))]
    texts += [(f"body-{i}", generate_body_model(i)) for i in range(400)]
    return texts


def test_v4_and_v13_match_oracles():
    seen = Counter()
    for name, text in _differential_texts():
        parsed = parse(text, name)
        resolved = resolve(parsed.model) if parsed.model is not None else None
        if resolved is None or resolved.model is None:
            continue
        rm = resolved.model
        diags = check(rm)

        got_e104 = Counter()
        got_w113: dict[str, list[tuple[str, ...]]] = {}
        for d in diags:
            if d.code == "E104":
                art, node = _E104.match(d.message).groups()
                got_e104[(d.span, node, art)] += 1
            elif d.code == "W113":
                cycle_text, task = _W113.match(d.message).groups()
                got_w113.setdefault(task, []).append(tuple(cycle_text.split(" -> ")[:-1]))

        want_e104 = Counter()
        for agent, task in m.iter_tasks(rm.model):
            if task.graph is None:
                continue
            spans = {n.id: n.span for n in task.graph.nodes}
            for node, art in oracles.oracle_unavailable(agent, task):
                want_e104[(spans[node], node, art)] += 1

            display = f"{agent.name}.{task.name}"
            got = got_w113.pop(display, [])
            want = {c for c in oracles.oracle_cycles(task.graph)
                    if not oracles.oracle_guarded_exits(task.graph, c)}
            assert set(got) == want, (name, display)
            # same circuits, multiplicity and order as enumerating them all;
            # diagnostics are sorted by the span of each circuit's first node
            enumerated = [f.cycle for f in loop_facts(task) if not f.exits]
            first = {n.id: (n.span.start.line, n.span.start.column) for n in task.graph.nodes}
            assert got == sorted(enumerated, key=lambda c: first[c[0]]), (name, display)
            seen["W113"] += len(got)
        assert got_e104 == want_e104, name
        assert not got_w113, name
        seen["E104"] += sum(want_e104.values())
    # the inputs exercise both rules, not just their silent paths
    assert seen["E104"] > 50 and seen["W113"] > 50, seen


# --- long loops ---------------------------------------------------------------------

def _loop_model(body: list[str]) -> str:
    lines = [
        'model "Loop" {',
        "  artifact R",
        "  llm M default",
        "  agent Root {",
        "    task run {",
        "      in R",
        "      out R",
        "      body {",
        *(f"        {line}" for line in body),
        "      }",
        "    }",
        "  }",
        "  agent Worker {",
        "    task step {",
        "      in R",
        "      out R",
        "      prompt {",
        '        dynamic r = "{R}"',
        "      }",
        "    }",
        "  }",
        "}",
    ]
    return "\n".join(lines) + "\n"


def feedback_loop(length: int) -> str:
    """``c1 -> ... -> c<length> -> chk -> c1``, left by the guarded ``chk -> end``."""
    body = [f"call c{i} = step on Worker {{ in R out R }}" for i in range(1, length + 1)]
    body += ["decision chk on R", "start -> c1"]
    body += [f"c{i} -> c{i + 1}" for i in range(1, length)]
    body += [f"c{length} -> chk", "chk -> end [R == Good]", "chk -> c1 [R == Bad]"]
    return _loop_model(body)


def diamond_ladder(k: int) -> str:
    """A loop through k decision/merge diamonds: 2**k circuits, one guarded exit."""
    body = ["call c0 = step on Worker { in R out R }", "decision chk on R",
            "start -> c0", "c0 -> d1"]
    for i in range(1, k + 1):
        body += [
            f"decision d{i} on R",
            f"call a{i} = step on Worker {{ in R out R }}",
            f"call b{i} = step on Worker {{ in R out R }}",
            f"merge m{i}",
            f"d{i} -> a{i} [R == Left]",
            f"d{i} -> b{i} [R == Right]",
            f"a{i} -> m{i}",
            f"b{i} -> m{i}",
            f"m{i} -> {f'd{i + 1}' if i < k else 'chk'}",
        ]
    body += ["chk -> end [R == Good]", "chk -> c0 [R == Bad]"]
    return _loop_model(body)


def test_loop_longer_than_the_recursion_limit():
    length = int(1.2 * sys.getrecursionlimit())
    rm = load_resolved(feedback_loop(length), "long-loop.a4c")
    assert check(rm) == []
    agent = rm.agents["Root"]
    task = agent.task("run")
    assert classify(rm, agent, task).value is Pattern.PIPELINE_WITH_FEEDBACK
    assert "- loop c1 -> " in docs_bundle(rm).files["agents/Root.md"]


def test_unguarded_long_loop_is_reported_once():
    length = int(1.2 * sys.getrecursionlimit())
    text = feedback_loop(length).replace("chk -> end [R == Good]", "chk -> end")
    codes = Counter(d.code for d in check(load_resolved(text, "long-loop.a4c")))
    assert codes["W113"] == 1


def test_diamond_ladder_check_is_not_exponential():
    rm = load_resolved(diamond_ladder(24), "ladder.a4c")
    began = time.perf_counter()
    diags = check(rm)
    assert time.perf_counter() - began < 2.0
    assert diags == []


def call_loop_beside_ladder(k: int) -> str:
    """A loop of two calls with no decision, and apart from it a loop
    through k decision/merge diamonds with no call: 2**k circuits, none of
    which holds both a call and a decision."""
    body = ["call c0 = step on Worker { in R out R }", "call c1 = step on Worker { in R out R }",
            "decision chk on R", "start -> c0", "c0 -> c1", "c1 -> c0", "c1 -> d1"]
    for i in range(1, k + 1):
        body += [
            f"decision d{i} on R",
            f"merge a{i}",
            f"merge b{i}",
            f"merge m{i}",
            f"d{i} -> a{i} [R == Left]",
            f"d{i} -> b{i} [R == Right]",
            f"a{i} -> m{i}",
            f"b{i} -> m{i}",
            f"m{i} -> {f'd{i + 1}' if i < k else 'chk'}",
        ]
    body += ["chk -> end [R == Good]", "chk -> d1 [R == Bad]"]
    return _loop_model(body)


def test_classify_and_docs_without_a_feedback_witness_are_not_exponential():
    rm = load_resolved(call_loop_beside_ladder(20), "split.a4c")
    agent = rm.agents["Root"]
    began = time.perf_counter()
    assert classify(rm, agent, agent.task("run")).value is Pattern.UNCLASSIFIED
    page = docs_bundle(rm).files["agents/Root.md"]
    assert time.perf_counter() - began < 2.0
    assert "- loop c0 -> c1: no guarded exit" in page
    assert "more than 64 circuits, exits via chk -> end [R == Good]" in page


def test_each_body_builds_its_control_facts_once(monkeypatch):
    built = Counter()
    build = flow.control_facts

    def counted(graph):
        built[id(graph)] += 1
        return build(graph)

    monkeypatch.setattr(flow, "control_facts", counted)
    for name in CORPUS:
        rm = load_resolved(corpus_text(name), f"{name}.a4c")
        bodies = [task.graph for _agent, task in m.iter_tasks(rm.model) if task.graph is not None]
        built.clear()
        check(rm)
        docs_bundle(rm)
        assert built == Counter({id(graph): 1 for graph in bodies}), name
        assert all(graph.control is graph.control for graph in bodies)
