"""Rules V4 and V13 and the SCC search against brute-force oracles,
long-loop regressions, and one build of each body's control facts.

V4 runs as a bitset dataflow and V13 prunes nodes with a guarded exit from
their SCC before it enumerates circuits; both are compared here with the
literal searches in ``oracles.py`` on the corpus, generated models, the
rule mutations and random task bodies.
"""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from functools import partial

import oracles
from a4c import flow, model as m
from a4c.analysis import Pattern, classify, loop_facts
from a4c.parser import parse
from a4c.render import docs_bundle
from a4c.resolver import resolve
from a4c.validate import check

from conftest import CORPUS, corpus_text, load_resolved, load_shapes
from genmodels import (call_loop_beside_ladder, diamond_ladder, feedback_loop, generate_body_model,
                       generate_model)
from meter import assert_linear, work
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
            assert len(set(got)) == len(got), (name, display)  # each circuit once
            # same circuits and order as enumerating them all; diagnostics
            # are sorted by the span of each circuit's first node
            enumerated = [f.cycle for f in loop_facts(task) if not f.exits]
            first = {n.id: (n.span.start.line, n.span.start.column) for n in task.graph.nodes}
            assert got == sorted(enumerated, key=lambda c: first[c[0]]), (name, display)
            seen["W113"] += len(got)
        assert got_e104 == want_e104, name
        assert not got_w113, name
        seen["E104"] += sum(want_e104.values())
    # the inputs exercise both rules, not just their silent paths
    assert seen["E104"] > 50 and seen["W113"] > 50, seen


def test_strongly_connected_matches_the_oracle():
    # random digraphs as V2 and control_facts pass them: string or tuple
    # vertices, self-loops, parallel edges, and a vertex subset that leaves
    # some successors out
    seen = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        tuples = rng.random() < 0.3
        names = [(f"A{i % 3}", f"t{i}") if tuples else f"v{i}" for i in range(n)]
        edges = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 3 * n))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 2)))  # parallel copies
        adj: dict = {}
        for source, target in edges:
            adj.setdefault(source, []).append(target)
        subset = sorted(rng.sample(names, rng.randint(1, n)))
        sccs = flow.strongly_connected(subset, adj)
        assert {frozenset(scc) for scc in sccs} == oracles.oracle_sccs(subset, edges), seed
        assert sorted(v for scc in sccs for v in scc) == subset, seed
        # sinks first: no edge leads from a component to a later one
        position = {v: i for i, scc in enumerate(sccs) for v in scc}
        assert all(position[s] >= position[t] for s, t in edges
                   if s in position and t in position), seed
        seen["tuple"] += tuples
        seen["self-loop"] += any(s == t for s, t in edges)
        seen["parallel"] += len(set(edges)) < len(edges)
        seen["subset"] += len(subset) < n
        seen["cyclic"] += any(len(scc) > 1 for scc in sccs)
    assert min(seen.values()) > 50, seen


# --- long loops ---------------------------------------------------------------------

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


def doubled_feedback_loop(length: int) -> str:
    """The benchmark's feedback loop of ``length`` calls with every
    ``c<i> -> c<i+1>`` line written twice and ``chk -> end`` unguarded: one
    loop over 2**(length - 1) choices of parallel edges, with no guarded exit."""
    lines = []
    for line in load_shapes().feedback(length, 0).splitlines():
        if re.fullmatch(r"\s*c\d+ -> c\d+", line):
            lines.append(line)
        lines.append(re.sub(r"chk -> end \[.*\]$", "chk -> end", line))
    return "\n".join(lines) + "\n"


def _checking(text: str):
    """``check`` on a fresh parse of ``text``, set up unmetered."""
    return partial(check, load_resolved(text))


def test_parallel_edges_make_one_loop():
    # in this order, so that a search that multiplies circuits by their
    # choices of parallel edges fails at once instead of running for ages
    for length in (8, 16, 64):
        rm = load_resolved(doubled_feedback_loop(length), "doubled.a4c")
        assert [d.code for d in check(rm)].count("W113") == 1, length
        page = docs_bundle(rm).files["agents/Root.md"]
        assert page.count("\n- loop ") == 1, length
        assert "- loops through" not in page, length
    # linear in the loop's length: about 4x the work for 4x the calls
    assert_linear([partial(_checking, doubled_feedback_loop(n)) for n in (16, 64)])


# Ladders of k = 16 diamonds at most, so that a search that lists all 2**k
# circuits fails within seconds instead of running for minutes.

def test_diamond_ladder_check_is_not_exponential():
    setups = [partial(_checking, diamond_ladder(k)) for k in (4, 16)]
    assert_linear(setups)
    assert setups[-1]()() == []


def _classifying(k: int, docs: bool = False):
    """``classify`` of ``Root.run`` on a fresh parse of
    ``call_loop_beside_ladder(k)``, followed with ``docs`` by its docs
    pages, set up unmetered."""
    rm = load_resolved(call_loop_beside_ladder(k), "split.a4c")
    agent = rm.agents["Root"]
    pattern = partial(classify, rm, agent, agent.task("run"))
    return (lambda: (pattern(), docs_bundle(rm))) if docs else pattern


def test_classify_and_docs_without_a_feedback_witness_are_not_exponential():
    assert_linear([partial(_classifying, k) for k in (4, 16)])
    assert_linear([partial(_classifying, k, True) for k in (4, 16)], (work,))
    pattern, bundle = _classifying(16, True)()
    assert pattern.value is Pattern.UNCLASSIFIED
    page = bundle.files["agents/Root.md"]
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
