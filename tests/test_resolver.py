from __future__ import annotations

from a4c.parser import parse
from a4c.resolver import call_graph, call_graph_roots, resolve

from conftest import CORPUS, corpus_text


def resolve_text(text: str):
    result = parse(text, "<test>")
    assert result.model is not None, result.diagnostics
    return resolve(result.model)


def codes(rr):
    return sorted(d.code for d in rr.diagnostics)


def test_corpus_resolves_cleanly():
    for name in CORPUS:
        rr = resolve_text(corpus_text(name))
        assert rr.ok and rr.diagnostics == [], (name, rr.diagnostics)


def test_unknown_flow_endpoint(testgen_text):
    rr = resolve_text(testgen_text.replace("flow Tester ->", "flow Ghost ->"))
    assert codes(rr) == ["E001"]


def test_unknown_flow_artifact(testgen_text):
    rr = resolve_text(
        testgen_text.replace(": TestSpec\n", ": Ghost\n", 1)
    )
    assert codes(rr) == ["E001"]


def test_unknown_call_agent(testgen_text):
    rr = resolve_text(testgen_text.replace("generate on Developer", "generate on Developr"))
    assert codes(rr) == ["E001"]


def test_unknown_io_artifact(testgen_text):
    rr = resolve_text(
        testgen_text.replace("in TestSpec, CodeExamples\n      out TestCode, Report",
                             "in TestSpec, Ghost\n      out TestCode, Report")
    )
    assert codes(rr) == ["E001"]


def test_unknown_store_artifact(testgen_text):
    rr = resolve_text(testgen_text.replace("store codeStore : TestCode",
                                           "store codeStore : Ghost"))
    assert codes(rr) == ["E001"]


def test_unknown_each_artifact(recovery_text):
    rr = resolve_text(recovery_text.replace("each NodeList", "each Ghost"))
    assert codes(rr) == ["E001"]


def test_unknown_edge_endpoint(testgen_text):
    rr = resolve_text(testgen_text.replace("start -> gen", "start -> ghost"))
    assert codes(rr) == ["E001"]


def test_unknown_decision_subject(testgen_text):
    rr = resolve_text(testgen_text.replace("decision chk on Report",
                                           "decision chk on Ghost"))
    # the guard subjects still resolve; only the decision subject is unknown
    assert "E001" in codes(rr)


def test_unknown_hosted_element(testgen_text):
    rr = resolve_text(testgen_text.replace("hosts GeneratorTeam,", "hosts Ghost,"))
    assert "E001" in codes(rr)


def test_placeholder_must_name_an_input(testgen_text):
    rr = resolve_text(
        testgen_text.replace("{TestSpec}", "{Report}", 1)
    )
    assert codes(rr) == ["E001"]
    assert "Report" in rr.diagnostics[0].message


def test_collection_of_collection_rejected(recovery_text):
    rr = resolve_text(
        recovery_text.replace("artifact ComponentDiagrams collection of ComponentDiagram",
                              "artifact ComponentDiagrams collection of NodeList")
    )
    assert "E001" in codes(rr)
    assert any("scalar" in d.message for d in rr.diagnostics)


def test_duplicate_artifact(testgen_text):
    rr = resolve_text(testgen_text.replace("artifact TestSpec",
                                           "artifact TestSpec\n  artifact TestSpec"))
    assert codes(rr) == ["E002"]
    assert rr.diagnostics[0].related, "duplicate should point at first declaration"


def test_duplicate_agent(testgen_text):
    rr = resolve_text(testgen_text + "\n")
    assert rr.ok
    dup = testgen_text.replace(
        "agent TestRetriever {",
        "agent Developer {", 1
    )
    # renaming TestRetriever to Developer duplicates the agent name
    rr = resolve_text(dup)
    assert "E002" in codes(rr)


def test_duplicate_task_in_agent(testgen_text):
    rr = resolve_text(testgen_text.replace("task fix {", "task generate {", 1))
    assert "E002" in codes(rr)


def test_duplicate_body_node(testgen_text):
    rr = resolve_text(testgen_text.replace("call tst = test", "call gen = test", 1))
    assert "E002" in codes(rr)


def test_duplicate_default_llm(testgen_text):
    rr = resolve_text(testgen_text.replace(
        'llm GPT4o version "gpt-4o-2024-05-13" default',
        'llm GPT4o version "gpt-4o-2024-05-13" default\n  llm Other default'))
    assert "E002" in codes(rr)
    assert any("default" in d.message for d in rr.diagnostics)


def test_duplicate_prompt_row(testgen_text):
    rr = resolve_text(testgen_text.replace(
        'dynamic code = "Here is the current test script: {TestCode}"',
        'dynamic report = "Here is the current test script: {TestCode}"', 1))
    assert "E002" in codes(rr)


def test_duplicate_context_section(testgen_text):
    rr = resolve_text(testgen_text.replace(
        "  artifact TestSpec",
        "  context { system Extra }\n  artifact TestSpec", 1))
    assert "E002" in codes(rr)


def test_default_llm_binding(testgen_rm):
    agent = testgen_rm.model.agent("GeneratorTeam")
    assert testgen_rm.llm_of(agent).name == "GPT4o"


def test_agent_llm_override(resell_rm):
    analyst = resell_rm.model.agent("ImageAnalyst")
    conductor = resell_rm.model.agent("MarketSearchConductor")
    assert resell_rm.llm_of(analyst).name == "VisionModel"
    assert resell_rm.llm_of(conductor).name == "TextModel"


def test_host_of(testgen_rm):
    assert testgen_rm.hosts["GeneratorTeam"] == ["GeneratorService"]
    assert testgen_rm.hosts["JenkinsTool"] == ["JenkinsHost"]


def test_call_graph_shape(testgen_rm):
    graph = call_graph(testgen_rm)
    assert graph[("GeneratorTeam", "generate")] == [
        ("Developer", "generate"),
        ("TestPipeline", "test"),
        ("Developer", "fix"),
    ]
    assert graph[("TestPipeline", "test")] == [
        ("TestPipeline", "execute"),
        ("TestPipeline", "summarize"),
    ]


def test_call_graph_roots(testgen_rm):
    roots = call_graph_roots(testgen_rm)
    assert roots == [("GeneratorTeam", "generate"), ("TestRetriever", "retrieve")]


def test_unresolved_names_at_one_span_keep_their_written_order():
    rr = resolve_text('model "M" {\n'
                      "  artifact A\n"
                      "  agent Boss {\n"
                      "    task run { in A body {\n"
                      "      call c = go on Ghost each Phantom { in Nope, A out Gone, Lost }\n"
                      "      start -> c\n"
                      "      c -> end\n"
                      "    } }\n"
                      "  }\n"
                      "}\n")
    assert not rr.ok
    assert [(d.code, d.message, d.span.start.line) for d in rr.diagnostics] == [
        ("E001", "unresolved agent 'Ghost'", 5),
        ("E001", "unresolved artifact 'Phantom'", 5),
        ("E001", "unresolved artifact 'Nope'", 5),
        ("E001", "unresolved artifact 'Gone'", 5),
        ("E001", "unresolved artifact 'Lost'", 5),
    ]
    assert len({d.span for d in rr.diagnostics}) == 1
