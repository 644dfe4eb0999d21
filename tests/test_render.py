from __future__ import annotations

import importlib.resources as ir
import pathlib

import pytest

from a4c.analysis import impact
from a4c.cli import main as cli_main
from a4c.render import (
    RenderError,
    docs_bundle,
    render_activity,
    render_context,
    render_deployment,
    render_prompts,
)

import oracles
from conftest import CORPUS, corpus_text, load_resolved

GOLDEN = pathlib.Path(__file__).parent / "golden" / "render"


def corpus_path(name: str) -> str:
    return str(ir.files("a4c") / "corpus" / f"{name}.a4c")


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


def find_task(rm, agent_name: str, task_name: str):
    agent = next(a for a in rm.model.agents if a.name == agent_name)
    return agent, next(t for t in agent.tasks if t.name == task_name)


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


def test_deployment_diagram_shape(testgen_rm):
    d = render_deployment(testgen_rm.model)
    assert d.kind == "c2"
    assert 'node "GeneratorService" as GeneratorService <<node>> {' in d.text
    assert '  component "GeneratorTeam" as GeneratorTeam <<agent>>' in d.text
    assert '  component "JenkinsTool" as JenkinsTool <<tool>>' in d.text
    assert 'node "JenkinsHost" as JenkinsHost <<node>> <<external>> {' in d.text
    assert "GeneratorService --> JenkinsHost : HTTP" in d.text


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


def test_docs_artifact_glossary(testgen_rm):
    c1 = docs_bundle(testgen_rm).files["c1.md"]
    for artifact in testgen_rm.model.artifacts:
        assert artifact.name in c1


# --- anchor coverage ---------------------------------------------------------------

def anchor_union(rm) -> set[str]:
    model = rm.model
    keys = set(render_context(model).element_anchors)
    if model.deployment is not None:
        keys |= set(render_deployment(model).element_anchors)
    for agent in model.agents:
        for task in agent.tasks:
            if task.graph is not None:
                keys |= set(render_activity(model, agent, task).element_anchors)
            if task.prompt is not None:
                keys |= set(render_prompts(agent, task).element_anchors)
    keys |= set(docs_bundle(rm).anchors)
    return keys


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
    assert [k for k in render_context(model).element_anchors if k.startswith("flow:")] == ids[:2]
    assert list(render_deployment(model).element_anchors)[2:] == ids[2:]
    anchors = docs_bundle(rm).anchors
    assert [anchors[k] for k in ids] == ["c1.md", "c1.md", "c2.md", "c2.md"]

    # B rides only on the second flow and the second link
    report = impact(rm, "A", "down")
    got = {a.element: a.relation for a in report.affected}
    assert got["flow S->T#1"] == got["link N1->N2#1"] == "FlowsOver"
    assert "flow S->T#0" not in got and "link N1->N2#0" not in got
    base = oracles.closure(oracles.oracle_edges(model), "A", "down")
    assert set(got) == base | set(oracles.oracle_decorations(model, base))
