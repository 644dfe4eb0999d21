from __future__ import annotations

import pathlib
import re

import pytest

from a4c import model as m
from a4c.analysis import impact, loop_facts
from a4c.cli import main as cli_main
from a4c.diagnostics import SYNTHETIC as S
from a4c.elements import Element
from a4c.parser import parse
from a4c.render import (
    LOOP_LISTING_LIMIT,
    RenderError,
    docs_bundle,
    render_activity,
    render_context,
    render_deployment,
    render_prompts,
)

import oracles
from conftest import CORPUS, corpus_path, corpus_text, find_task, load_resolved
from genmodels import diamond_ladder, loop_soup

GOLDEN = pathlib.Path(__file__).parent / "golden" / "render"


def read_tree(root: pathlib.Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


def render_tree(name: str, out: pathlib.Path) -> dict[str, bytes]:
    assert cli_main(["render", corpus_path(name), "--out", str(out), "--level", "all"]) == 0
    assert cli_main(["docs", corpus_path(name), "--out", str(out)]) == 0
    return read_tree(out)


# --- determinism and goldens ------------------------------------------------------

def test_golden_byte_equality(tmp_path, capsys):
    for name in CORPUS:
        first = render_tree(name, tmp_path / f"{name}-1")
        second = render_tree(name, tmp_path / f"{name}-2")
        capsys.readouterr()
        assert first == second, name
        golden = read_tree(GOLDEN / name)
        assert first == golden, name


def test_renderers_are_pure(testgen_rm):
    model = testgen_rm.model
    assert render_context(model).text == render_context(model).text
    assert render_deployment(model).text == render_deployment(model).text
    agent, task = find_task(testgen_rm, "GeneratorTeam", "generate")
    assert render_activity(model, agent, task).text == render_activity(model, agent, task).text
    bundle_a, bundle_b = docs_bundle(testgen_rm), docs_bundle(testgen_rm)
    assert bundle_a.files == bundle_b.files


# --- context and deployment diagrams ----------------------------------------------

def test_context_diagram_shape(testgen_rm):
    d = render_context(testgen_rm.model)
    assert d.kind == "c1"
    assert d.text.startswith("@startuml\n")
    assert d.text.endswith("@enduml\n")
    assert 'actor "Tester" as Tester <<user>>' in d.text
    assert 'rectangle "TestScriptGen" as TestScriptGen <<system>>' in d.text
    assert 'rectangle "SystemUnderTest" as SystemUnderTest <<external>>' in d.text
    assert 'rectangle "GPT4o\\ngpt-4o-2024-05-13" as GPT4o <<llm>>' in d.text
    assert '<<tool>> <<external>>' in d.text
    assert "Tester --> TestScriptGen : TestSpec" in d.text
    # style left to the consumer: tags, not colors
    assert "#" not in d.text.replace("skinparam", "")


def test_deployment_diagram_shape(testgen_rm, testgen_text):
    d = render_deployment(testgen_rm.model)
    assert d.kind == "c2"
    assert 'node "GeneratorService" as GeneratorService <<node>> {' in d.text
    assert '  component "GeneratorTeam" as GeneratorTeam <<agent>>' in d.text
    assert '  component "JenkinsTool" as JenkinsTool <<tool>>' in d.text
    assert 'node "JenkinsHost" as JenkinsHost <<node>> <<external>> {' in d.text
    assert "GeneratorService --> JenkinsHost : HTTP" in d.text
    # a parsed model that hosts an undeclared name, which only the library renders
    model = parse(testgen_text.replace("hosts JenkinsTool", "hosts JenkinsTool, Ledger"), "t.a4c")
    assert '  component "Ledger" as Ledger <<component>>' in render_deployment(model.model).text


def test_deployment_missing_raises_r001(recovery_rm):
    with pytest.raises(RenderError) as exc:
        render_deployment(recovery_rm.model)
    assert exc.value.code == "R001"


# --- activity diagrams -------------------------------------------------------------

def test_activity_composite_kind_and_nodes(testgen_rm):
    agent, task = find_task(testgen_rm, "GeneratorTeam", "generate")
    d = render_activity(testgen_rm.model, agent, task)
    assert d.kind == "c3"
    assert '"start" [shape=circle, style=filled' in d.text
    assert '"end" [shape=doublecircle' in d.text
    assert '"gen" [shape=box, style=rounded, label="generate:Developer"]' in d.text
    assert '"chk" [shape=diamond, label="Report?"]' in d.text
    assert '"store:codeStore" [shape=cylinder, label="codeStore : TestCode"]' in d.text
    assert '"chk" -> "end" [label="[Report == IO]"]' in d.text
    assert '"chk" -> "fx" [label="[Report == NIO]"]' in d.text
    assert '"store:codeStore" -> "tst" [style=dashed]' in d.text


def test_activity_leaf_kind(testgen_rm):
    agent, task = find_task(testgen_rm, "TestPipeline", "execute")
    d = render_activity(testgen_rm.model, agent, task)
    assert d.kind == "c4"
    assert 'label="run:JenkinsTool"' in d.text


def test_activity_element_wise_marker_and_records(recovery_rm):
    agent, task = find_task(recovery_rm, "AutomatedArchitectureRecoveryPipeline", "recover")
    d = render_activity(recovery_rm.model, agent, task)
    assert 'label="* synthesize:ComponentTeam"' in d.text
    # collections draw as three-element records of their element type
    assert '[shape=record, label="RosNode|RosNode|RosNode"]' in d.text
    assert '"art:ext:in:Repository" -> "ext" [style=dashed]' in d.text


def test_activity_fork_join_bars(resell_rm):
    agent, task = find_task(resell_rm, "MarketSearchConductor", "estimate")
    d = render_activity(resell_rm.model, agent, task)
    assert '"fk" [shape=box, style=filled, fillcolor=black' in d.text
    assert '"jn" [shape=box, style=filled, fillcolor=black' in d.text


def tricky_body():
    """A hand-built body whose DOT ids, guard literals and artifact names hold
    quotes and backslashes, with an element-wise call, an artifact declared
    twice (first as a collection), a store node with and without its
    datastore, parallel edges, and an edge to a node the body lacks."""
    quoted = 'Say"\\'
    graph = m.ActivityGraph((
        m.InvokeNode('t\\1', S, "Tool", "fetch", (), (quoted,)),
        m.CallNode('c"1', S, "work", "Other", "Pile", ("Pile", quoted), ("Item",)),
        m.CallNode("c2", S, "work", None, None, ("Pile",), (quoted, "Nope")),
        m.DecisionNode("d", S, quoted),
        m.MergeNode("mg", S),
        m.ActivityEdge("start", 't\\1', None, m.EdgeKind.CONTROL, S),
        m.ActivityEdge('t\\1', 'c"1', None, m.EdgeKind.CONTROL, S),
        m.ActivityEdge('c"1', "c2", None, m.EdgeKind.CONTROL, S),
        m.ActivityEdge('c"1', "c2", None, m.EdgeKind.CONTROL, S),
        m.ActivityEdge("c2", "d", None, m.EdgeKind.CONTROL, S),
        m.ActivityEdge("d", "end", m.Guard(quoted, '"q\\"', False, S), m.EdgeKind.CONTROL, S),
        m.ActivityEdge("d", "mg", m.Guard(None, None, True, S), m.EdgeKind.CONTROL, S),
        m.ActivityEdge("mg", "end", None, m.EdgeKind.CONTROL, S),
        m.ActivityEdge("store:mem", 'c"1', None, m.EdgeKind.STORE_READ, S),
        m.ActivityEdge("store:mem", "c2", m.Guard(quoted, "x", False, S), m.EdgeKind.STORE_READ, S),
        m.ActivityEdge("c2", "store:gone", None, m.EdgeKind.STORE_WRITE, S),
        m.ActivityEdge("mg", 'ghost"', None, m.EdgeKind.CONTROL, S),
    ), S)
    agent = m.Agent('A"g', None, (
        m.Datastore("mem", "Pile", S),
        m.Task("run", ("Pile",), ("Item",), graph, None, S),
    ), S)
    return m.Model("Tricky", "<test>", (
        m.ArtifactType("Pile", "Item", S),
        m.ArtifactType("Item", None, S),
        m.ArtifactType(quoted, None, S),
        m.ArtifactType("Pile", None, S),
        agent,
    ), S), agent


def test_activity_bytes_of_a_tricky_body():
    model, agent = tricky_body()
    d = render_activity(model, agent, agent.tasks[0])
    assert d.kind == "c3"
    assert d.text == r'''digraph "A\"g.run" {
  rankdir=TB;
  label="A\"g.run";
  labelloc=t;
  node [fontname="Helvetica"];

  "start" [shape=circle, style=filled, fillcolor=black, label="", width=0.2];
  "end" [shape=doublecircle, style=filled, fillcolor=black, label="", width=0.15];
  "t\\1" [shape=box, style=rounded, label="fetch:Tool"];
  "c\"1" [shape=box, style=rounded, label="* work:Other"];
  "c2" [shape=box, style=rounded, label="work"];
  "d" [shape=diamond, label="Say\"\\?"];
  "mg" [shape=diamond, label=""];
  "store:mem" [shape=cylinder, label="mem : Pile"];
  "store:gone" [shape=cylinder, label="gone"];

  "art:t\\1:out:Say\"\\" [shape=box, label="Say\"\\"];
  "art:c\"1:in:Pile" [shape=record, label="Item|Item|Item"];
  "art:c\"1:in:Say\"\\" [shape=box, label="Say\"\\"];
  "art:c\"1:out:Item" [shape=box, label="Item"];
  "art:c2:in:Pile" [shape=record, label="Item|Item|Item"];
  "art:c2:out:Say\"\\" [shape=box, label="Say\"\\"];
  "art:c2:out:Nope" [shape=box, label="Nope"];

  "start" -> "t\\1";
  "t\\1" -> "c\"1";
  "c\"1" -> "c2";
  "c\"1" -> "c2";
  "c2" -> "d";
  "d" -> "end" [label="[Say\"\\ == \"q\\\"]"];
  "d" -> "mg" [label="[else]"];
  "mg" -> "end";
  "store:mem" -> "c\"1" [style=dashed];
  "store:mem" -> "c2" [label="[Say\"\\ == x]", style=dashed];
  "c2" -> "store:gone" [style=dashed];
  "mg" -> "ghost\"";
  "t\\1" -> "art:t\\1:out:Say\"\\" [style=dashed];
  "art:c\"1:in:Pile" -> "c\"1" [style=dashed];
  "art:c\"1:in:Say\"\\" -> "c\"1" [style=dashed];
  "c\"1" -> "art:c\"1:out:Item" [style=dashed];
  "art:c2:in:Pile" -> "c2" [style=dashed];
  "c2" -> "art:c2:out:Say\"\\" [style=dashed];
  "c2" -> "art:c2:out:Nope" [style=dashed];
}
'''


def test_activity_on_bodyless_task_raises_r002(testgen_rm):
    agent, task = find_task(testgen_rm, "Developer", "fix")
    with pytest.raises(RenderError) as exc:
        render_activity(testgen_rm.model, agent, task)
    assert exc.value.code == "R002"


# --- prompt tables -----------------------------------------------------------------

def test_prompt_table_static_rows_first(testgen_rm):
    agent, task = find_task(testgen_rm, "Developer", "fix")
    d = render_prompts(agent, task)
    assert d.kind == "prompt"
    lines = d.text.splitlines()
    assert lines[0] == "# Prompt: Developer.fix"
    rows = [ln for ln in lines if ln.startswith("| ") and "---" not in ln]
    assert rows[0] == "| Part | Content |"
    kinds = [row.split("|")[1].strip().split()[0] for row in rows[1:]]
    assert kinds == sorted(kinds, key=lambda k: k != "static")


def test_prompt_table_escapes_pipes():
    rm = load_resolved(
        'model "Esc" {\n'
        "  artifact A\n"
        "  llm M default\n"
        "  agent G {\n"
        "    task t {\n"
        "      in A\n"
        "      out A\n"
        '      prompt { static role = "a | b" }\n'
        "    }\n"
        "  }\n"
        "}\n"
    )
    agent = rm.model.agents[0]
    d = render_prompts(agent, agent.tasks[0])
    assert "a \\| b" in d.text
    assert "a | b |" not in d.text


def test_prompts_on_promptless_task_raises_r003(testgen_rm):
    agent, task = find_task(testgen_rm, "GeneratorTeam", "generate")
    with pytest.raises(RenderError) as exc:
        render_prompts(agent, task)
    assert exc.value.code == "R003"


# --- docs bundle -------------------------------------------------------------------

def test_docs_bundle_file_sets(testgen_rm, recovery_rm, resell_rm):
    assert set(docs_bundle(testgen_rm).files) == {
        "index.md", "c1.md", "c2.md", "c3.md", "c4.md",
        "agents/GeneratorTeam.md", "agents/Developer.md",
        "agents/TestPipeline.md", "agents/TestRetriever.md",
    }
    recovery_files = set(docs_bundle(recovery_rm).files)
    assert "c2.md" not in recovery_files
    assert recovery_files == {
        "index.md", "c1.md", "c3.md", "c4.md",
        "agents/AutomatedArchitectureRecoveryPipeline.md",
        "agents/ComponentTeam.md", "agents/SystemTeam.md",
    }
    assert len(docs_bundle(resell_rm).files) == 9


def test_docs_index_links_every_file(testgen_rm):
    bundle = docs_bundle(testgen_rm)
    index = bundle.files["index.md"]
    for path in bundle.files:
        if path != "index.md":
            assert f"[{path}]({path})" in index


def test_docs_agent_page_content(testgen_rm):
    page = docs_bundle(testgen_rm).files["agents/GeneratorTeam.md"]
    assert "# Agent GeneratorTeam" in page
    assert "Model binding: GPT4o" in page
    assert "- codeStore: TestCode" in page
    assert "Interaction pattern: PipelineWithFeedback" in page
    assert "- loop chk -> fx -> tst: exits via chk -> end [Report == IO]" in page
    assert "```dot" in page
    assert "Signature: (in TestSpec, CodeExamples; out TestCode, Report) [C3]" in page


def test_docs_leaf_page_marks_a_task_with_no_body_and_no_prompt(testgen_text):
    rm = load_resolved(testgen_text.replace("    task fix {", "    task idle {\n      in TestCode\n"
                                            "    }\n    task fix {"))
    assert "## Developer.idle\n\n- no body and no prompt\n" in docs_bundle(rm).files["c4.md"]


# --- bounded loop listing ----------------------------------------------------------

def _exit_text(exits) -> str:
    if not exits:
        return "no guarded exit"
    return "exits via " + "; ".join(f"{x.source} -> {x.target} {x.guard.display()}"
                                     for x in exits)


def reference_loop_lines(task) -> list[str]:
    """The agent page's loop lines built from the exhaustive ``loop_facts``:
    the first ``LOOP_LISTING_LIMIT`` circuits of each SCC in sorted order,
    then a summary of each SCC with more."""
    sccs = sorted(sorted(scc) for scc in task.graph.control.cyclic)
    scc_of = {v: i for i, scc in enumerate(sccs) for v in scc}
    taken = [0] * len(sccs)
    lines = []
    for fact in loop_facts(task):
        i = scc_of[fact.cycle[0]]
        taken[i] += 1
        if taken[i] <= LOOP_LISTING_LIMIT:
            lines.append(f"- loop {' -> '.join(fact.cycle)}: {_exit_text(fact.exits)}")
    for scc, count in zip(sccs, taken):
        if count > LOOP_LISTING_LIMIT:
            inside = set(scc)
            exits = sorted((e for e in task.graph.edges
                            if e.kind is m.EdgeKind.CONTROL and e.guard is not None
                            and e.source in inside and e.target not in inside),
                           key=lambda e: (e.source, e.target))
            lines.append(f"- loops through {', '.join(scc)}: more than {LOOP_LISTING_LIMIT}"
                         f" circuits, {_exit_text(exits)}")
    return lines


def page_loop_lines(page: str) -> list[str]:
    return [line for line in page.split("\n") if line.startswith("- loop")]


@pytest.mark.parametrize("k", [4, 6, 7, 12, 16])
def test_docs_lists_at_most_the_limit_of_loops_per_scc(k):
    rm = load_resolved(diamond_ladder(k), "ladder.a4c")
    task = rm.agents["Root"].task("run")
    lines = page_loop_lines(docs_bundle(rm).files["agents/Root.md"])
    listed = [line for line in lines if line.startswith("- loop ")]
    summaries = [line for line in lines if line.startswith("- loops through ")]
    assert len(listed) == min(2 ** k, LOOP_LISTING_LIMIT)
    assert len(summaries) == (1 if 2 ** k > LOOP_LISTING_LIMIT else 0)
    assert lines == listed + summaries
    if summaries:
        members = ["c0", "chk"] + sorted(f"{x}{i}" for i in range(1, k + 1) for x in "abdm")
        assert summaries[0] == (f"- loops through {', '.join(sorted(members))}: more than 64"
                                " circuits, exits via chk -> end [R == Good]")
    if k <= 12:  # 2**16 circuits take the exhaustive listing seconds
        assert lines == reference_loop_lines(task)


def test_docs_loop_listing_stays_small_as_the_ladder_grows():
    sizes = {k: len(docs_bundle(load_resolved(diamond_ladder(k), "ladder.a4c"))
                    .files["agents/Root.md"].encode()) for k in (8, 16)}
    assert sizes[16] <= 2.5 * sizes[8]


def test_docs_loop_listing_matches_the_exhaustive_listing():
    # random bodies: several SCCs per body, some with more circuits than the limit
    crowded = 0
    for seed in range(150):
        rm = load_resolved(loop_soup(seed, dense=True), f"soup-{seed}")
        task = rm.model.agents[0].tasks[0]
        lines = page_loop_lines(docs_bundle(rm).files["agents/Root.md"])
        assert lines == reference_loop_lines(task), seed
        crowded += sum(line.startswith("- loops through ") for line in lines)
    assert crowded > 0


def test_docs_artifact_glossary(testgen_rm):
    c1 = docs_bundle(testgen_rm).files["c1.md"]
    for artifact in testgen_rm.model.artifacts:
        assert artifact.name in c1


# --- anchor coverage ---------------------------------------------------------------

def anchor_union(rm) -> set[str]:
    return set(docs_bundle(rm).anchors)


def test_every_element_is_anchored(testgen_rm, recovery_rm, resell_rm):
    for rm in (testgen_rm, recovery_rm, resell_rm):
        anchored = anchor_union(rm)
        tracked = set(rm.model.source_map)
        assert tracked <= anchored, tracked - anchored
        # and no anchor points at an untracked element
        assert anchored <= tracked, anchored - tracked


def test_generated_models_stay_anchored(model_pool):
    for _i, _text, rm in model_pool[:30]:
        missing = set(rm.model.source_map) - anchor_union(rm)
        assert not missing, missing


def own_names(element: Element) -> list[str]:
    """What an element's page must mention: a flow's or link's source and
    target, else the last segment of its display form."""
    if element.kind in ("flow", "link"):
        return element.display.split(" ", 1)[1].rpartition("#")[0].split("->")
    return [re.split(r"[./]", element.display)[-1]]


def anchor_misses(rm) -> list[str]:
    """Elements whose anchor names no page of the bundle, or a page that
    does not mention them."""
    bundle = docs_bundle(rm)
    misses = []
    for element in rm.model.elements:
        page = bundle.anchors[element.id]
        text = bundle.files.get(page)
        if text is None or not all(name in text for name in own_names(element)):
            misses.append(f"{element.id} -> {page}")
    return misses


def test_every_anchor_names_a_page_that_mentions_its_element(model_pool):
    corpus = [load_resolved(corpus_text(name), f"{name}.a4c") for name in CORPUS]
    for rm in corpus:
        docs_bundle(rm)
        assert "elements" not in rm.model.__dict__  # the anchors are built on first use
    models = corpus + [rm for _i, _text, rm in model_pool[:30]]
    for rm in models:
        assert not anchor_misses(rm), (rm.model.file, anchor_misses(rm)[:5])
    assert sum(len(rm.model.elements) for rm in models) > 1000


# --- repeated flows and links ------------------------------------------------------

REPEATED = """model "Twice" {
  context {
    user S
    system T
    flow S -> T : A
    flow S -> T : B
  }
  artifact A
  artifact B
  llm M default
  deployment {
    node N1 { hosts W }
    node N2 { }
    link N1 -> N2 : "HTTP" : A
    link N1 -> N2 : "HTTP" : B
  }
  agent W {
    task run {
      in A
      out B
      prompt {
        dynamic a = "{A}"
      }
    }
  }
}
"""


def test_repeated_flows_and_links_are_numbered():
    rm = load_resolved(REPEATED, "twice.a4c")
    model = rm.model
    ids = ["flow:S->T#0", "flow:S->T#1", "link:N1->N2#0", "link:N1->N2#1"]
    source_map = list(model.source_map)
    assert [k for k in source_map if k.startswith(("flow:", "link:"))] == ids
    spans = [model.source_map[k].start.line for k in ids]
    assert spans == [5, 6, 14, 15]
    anchors = docs_bundle(rm).anchors
    assert [anchors[k] for k in ids] == ["c1.md", "c1.md", "c2.md", "c2.md"]

    # B rides only on the second flow and the second link
    report = impact(rm, "A", "down")
    got = {a.element: a.relation for a in report.affected}
    assert got["flow S->T#1"] == got["link N1->N2#1"] == "FlowsOver"
    assert "flow S->T#0" not in got and "link N1->N2#0" not in got
    base = oracles.closure(oracles.oracle_edges(model), "A", "down")
    assert set(got) == base | set(oracles.oracle_decorations(model, base))
