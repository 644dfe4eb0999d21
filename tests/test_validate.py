from __future__ import annotations

import pytest

from a4c.diagnostics import Severity
from a4c.parser import parse
from a4c.resolver import resolve
from a4c.validate import RULES, RULES_BY_ID, check, is_valid

from conftest import CORPUS, corpus_text


def all_codes(text: str) -> set[str]:
    """Codes from the whole pipeline: parse, resolve, validate."""
    pr = parse(text, "<mut>")
    if pr.model is None:
        return {d.code for d in pr.diagnostics}
    rr = resolve(pr.model)
    if rr.model is None:
        return {d.code for d in pr.diagnostics + rr.diagnostics}
    return {d.code for d in pr.diagnostics + rr.diagnostics + check(rr.model)}


def check_text(text: str):
    rr = resolve(parse(text, "<mut>").model)
    assert rr.model is not None, rr.diagnostics
    return check(rr.model)


def test_rule_catalog():
    assert len(RULES) == 13
    assert [r.id for r in RULES] == [f"V{i}" for i in range(1, 14)]
    assert [r.code for r in RULES] == [
        "E101", "E102", "E103", "E104", "W105", "E106", "E107",
        "E108", "W109", "E110", "W111", "W112", "W113",
    ]
    for rule in RULES:
        expected = Severity.ERROR if rule.code.startswith("E") else Severity.WARNING
        assert rule.severity is expected
        assert rule.description


def test_corpus_is_valid():
    for name in CORPUS:
        rr = resolve(parse(corpus_text(name), f"{name}.a4c").model)
        assert check(rr.model) == [], name
        assert is_valid(rr.model)


# Each mutation flips exactly one rule; expectations were computed by hand
# on the corpus graphs before the checker existed.

def mutations(tg: str, rec: str):
    return [
        # V1: call target task missing on the callee agent
        ("V1", tg.replace("call tst = test on TestPipeline",
                          "call tst = testt on TestPipeline"), {"E101"}),
        # V2: summarize gains a body that calls test, closing a call cycle
        ("V2", tg.replace(
            """      prompt {
        static role = "You classify test runs as IO or NIO and list every failure."
        dynamic code = "The executed test script: {TestCode}"
        dynamic log = "The execution log to summarize: {TestLog}"
      }""",
            """      body {
        call t2 = test { in TestCode out Report }
        start -> t2
        t2 -> end
      }"""), {"E102"}),
        # V3: leaf task stripped of its prompt
        ("V3", tg.replace(
            """    task fix {
      in TestCode, Report
      out TestCode
      prompt {
        static role = "You are a senior test engineer repairing failing test scripts."
        dynamic code = "Here is the current test script: {TestCode}"
        dynamic report = "Fix the problems listed in this report: {Report}"
      }
    }""",
            """    task fix {
      in TestCode, Report
      out TestCode
    }"""), {"E103"}),
        # V4: fx consumes TestLog which nothing upstream provides
        ("V4", tg.replace(
            "call fx = fix on Developer { in TestCode, Report out TestCode }",
            "call fx = fix on Developer { in TestCode, Report, TestLog out TestCode }",
        ), {"E104"}),
        # V5: generate claims to output TestLog but no body node produces it
        ("V5", tg.replace(
            "      in TestSpec, CodeExamples\n      out TestCode, Report\n      body {",
            "      in TestSpec, CodeExamples\n      out TestCode, Report, TestLog\n      body {",
        ), {"W105"}),
        # V6: dropping the NIO branch leaves a one-exit decision and strands fx
        ("V6", tg.replace("        chk -> fx [Report == NIO]\n", ""), {"E106"}),
        # V7: element-wise call whose in-list has no collection
        ("V7", rec.replace("each NodeList { in NodeList out ComponentDiagrams }",
                           "each NodeList { in Repository out ComponentDiagrams }"),
         {"E107"}),
        # V8: invoke names an undeclared tool
        ("V8", tg.replace("invoke runj = JenkinsTool.run",
                          "invoke runj = JenkinsToolX.run"), {"E108"}),
        # V9: removing the default leaves every agent unbound
        ("V9", tg.replace(' version "gpt-4o-2024-05-13" default',
                          ' version "gpt-4o-2024-05-13"'), {"W109"}),
        # V10: Developer loses its host
        ("V10", tg.replace(
            "hosts GeneratorTeam, Developer, TestPipeline, TestRetriever, ScriptKB",
            "hosts GeneratorTeam, TestPipeline, TestRetriever, ScriptKB"), {"E110"}),
        # V11: flow artifact outside every root task signature
        ("V11", tg.replace("flow TestScriptGen -> SystemUnderTest : TestCode",
                           "flow TestScriptGen -> SystemUnderTest : TestLog"),
         {"W111"}),
        # V12: datastore that is never written or read
        ("V12", tg.replace("    store codeStore : TestCode",
                           "    store codeStore : TestCode\n    store scratch : Report"),
         {"W112"}),
        # V13: unguarding the loop exit leaves the cycle with no guarded way out
        ("V13", tg.replace("chk -> end [Report == IO]", "chk -> end"), {"W113"}),
    ]


def test_mutation_table(testgen_text, recovery_text):
    seen_rules = set()
    for rule_id, text, expected in mutations(testgen_text, recovery_text):
        assert text != testgen_text and text != recovery_text, rule_id
        got = all_codes(text)
        assert got == expected, f"{rule_id}: expected {expected}, got {got}"
        seen_rules.add(rule_id)
    assert seen_rules == {f"V{i}" for i in range(1, 14)}


def test_mutations_expectation_matches_catalog(testgen_text, recovery_text):
    for rule_id, _text, expected in mutations(testgen_text, recovery_text):
        assert expected == {RULES_BY_ID[rule_id].code}


def test_deleting_loop_exit_edge_reports_shape_and_loop(testgen_text):
    # removing the IO edge breaks reach-to-end (E106) and unguards the loop
    got = all_codes(testgen_text.replace("        chk -> end [Report == IO]\n", ""))
    assert got == {"E106", "W113"}


def test_v4_not_reported_for_unreachable_consumer(testgen_text):
    # fx becomes unreachable; its consumption must not double-report as E104
    diags = check_text(testgen_text.replace("        chk -> fx [Report == NIO]\n", ""))
    assert {d.code for d in diags} == {"E106"}
    messages = [d.message for d in diags]
    assert any("unreachable" in msg for msg in messages)
    assert any("outgoing edge" in msg for msg in messages)


def test_v6_duplicate_guard_literal(testgen_text):
    diags = check_text(testgen_text.replace("chk -> fx [Report == NIO]",
                                            "chk -> fx [Report == IO]"))
    assert [d.code for d in diags] == ["E106"]
    assert "duplicate guard literal" in diags[0].message


def test_v6_guard_subject_mismatch(testgen_text):
    diags = check_text(testgen_text.replace("chk -> end [Report == IO]",
                                            "chk -> end [TestCode == IO]"))
    assert [d.code for d in diags] == ["E106"]
    assert "subject" in diags[0].message


def test_v6_guard_off_decision(testgen_text):
    diags = check_text(testgen_text.replace("gen -> tst", "gen -> tst [Report == IO]"))
    assert [d.code for d in diags] == ["E106"]
    assert "does not leave a decision" in diags[0].message


def test_v6_fork_join_balance(resell_text):
    one_branch = resell_text.replace("        fk -> az\n", "")
    diags = check_text(one_branch)
    codes = {d.code for d in diags}
    assert codes == {"E106"}
    assert any("fork" in d.message for d in diags)


def test_v6_join_without_fork(resell_text):
    # route a direct edge around the fork: join becomes fork-free reachable
    text = resell_text.replace("        cq -> fk\n",
                               "        cq -> fk\n        cq -> jn\n")
    diags = check_text(text)
    assert {d.code for d in diags} == {"E106"}
    assert any("without passing a fork" in d.message for d in diags)


def test_v6_counts_parallel_edges_at_fork_and_join():
    # a fork's two edges to one call and that call's two edges to a join
    # are two out-edges and two in-edges, though both lead to one node
    text = """model "Parallel" {
  artifact R
  llm M default
  agent Root {
    task run {
      in R
      out R
      body {
        call a = step on Worker { in R out R }
        fork f
        join j
        start -> f
        f -> a
        f -> a
        a -> j
        a -> j
        j -> end
      }
    }
  }
  agent Worker {
    task step {
      in R
      out R
      prompt {
        dynamic r = "{R}"
      }
    }
  }
}
"""
    assert "E106" not in {d.code for d in check_text(text)}
    assert "E106" in {d.code for d in check_text(text.replace("        a -> j\n", "", 1))}


def test_v9_reports_every_unbound_agent(testgen_text):
    diags = check_text(testgen_text.replace(
        ' version "gpt-4o-2024-05-13" default', ' version "gpt-4o-2024-05-13"'))
    assert [d.code for d in diags] == ["W109"] * 4


def test_v10_cross_node_call_without_link(testgen_text):
    # move Developer onto its own unlinked node
    text = testgen_text.replace(
        "hosts GeneratorTeam, Developer, TestPipeline, TestRetriever, ScriptKB",
        "hosts GeneratorTeam, TestPipeline, TestRetriever, ScriptKB",
    ).replace(
        "    link GeneratorService -> JenkinsHost : \"HTTP\"",
        "    node DevHost {\n      hosts Developer\n    }\n"
        "    link GeneratorService -> JenkinsHost : \"HTTP\"",
    )
    diags = check_text(text)
    assert {d.code for d in diags} == {"E110"}
    assert any("no link" in d.message for d in diags)


def test_v10_messages_for_task_calls_and_tool_calls(testgen_text):
    # Developer on its own node and no link at all: two task calls and one
    # tool call cross unlinked nodes
    text = testgen_text.replace(
        "hosts GeneratorTeam, Developer, TestPipeline, TestRetriever, ScriptKB",
        "hosts GeneratorTeam, TestPipeline, TestRetriever, ScriptKB",
    ).replace(
        "    link GeneratorService -> JenkinsHost : \"HTTP\"",
        "    node DevHost {\n      hosts Developer\n    }",
    )
    to_developer = ("call from agent 'GeneratorTeam' (node 'GeneratorService') to agent"
                    " 'Developer' (node 'DevHost') has no link between their nodes")
    assert [(d.code, d.message) for d in check_text(text)] == [
        ("E110", to_developer),
        ("E110", to_developer),
        ("E110", "tool call from agent 'TestPipeline' (node 'GeneratorService') to tool"
                 " 'JenkinsTool' (node 'JenkinsHost') has no link between their nodes"),
    ]


def test_v10_link_direction_is_ignored(testgen_text):
    flipped = testgen_text.replace('link GeneratorService -> JenkinsHost : "HTTP"',
                                   'link JenkinsHost -> GeneratorService : "HTTP"')
    assert check_text(flipped) == []


def test_v10_unhosted_tool_is_allowed(testgen_text):
    text = testgen_text.replace(
        "hosts GeneratorTeam, Developer, TestPipeline, TestRetriever, ScriptKB",
        "hosts GeneratorTeam, Developer, TestPipeline, TestRetriever")
    assert check_text(text) == []


def test_v10_skipped_without_deployment(recovery_rm):
    # recovery has agents but no deployment section: no E110
    assert check(recovery_rm) == []


def test_v12_message_names_the_gap(testgen_text):
    diags = check_text(testgen_text.replace(
        "    store codeStore : TestCode",
        "    store codeStore : TestCode\n    store scratch : Report"))
    assert len(diags) == 1
    assert "never written or read" in diags[0].message


def test_v12_write_only(testgen_text):
    text = testgen_text.replace("        codeStore.read -> tst\n", "") \
                       .replace("        codeStore.read -> fx\n", "")
    diags = check_text(text)
    assert [d.code for d in diags] == ["W112"]
    assert "never read" in diags[0].message


def test_rules_fire_independently(testgen_text, recovery_text):
    # combining two mutations yields exactly the union of their code sets
    combined = testgen_text.replace(
        "call tst = test on TestPipeline", "call tst = testt on TestPipeline"
    ).replace("invoke runj = JenkinsTool.run", "invoke runj = JenkinsToolX.run")
    assert all_codes(combined) == {"E101", "E108"}


def test_diagnostic_ordering(testgen_text):
    diags = check_text(testgen_text.replace(
        ' version "gpt-4o-2024-05-13" default', ' version "gpt-4o-2024-05-13"'))
    keys = [d.sort_key() for d in diags]
    assert keys == sorted(keys)


def test_is_valid_false_on_error(testgen_text):
    rr = resolve(parse(testgen_text.replace(
        "invoke runj = JenkinsTool.run", "invoke runj = JenkinsToolX.run"),
        "<mut>").model)
    assert not is_valid(rr.model)


def test_warnings_do_not_invalidate(testgen_text):
    rr = resolve(parse(testgen_text.replace(
        "chk -> end [Report == IO]", "chk -> end"), "<mut>").model)
    assert is_valid(rr.model)
