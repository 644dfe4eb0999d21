from __future__ import annotations

import random

import pytest

from a4c import diagnostics, parser
from a4c.diagnostics import Severity
from a4c.formatter import canonical_format
from a4c.lexer import LexResult, tokenize
from a4c.model import (
    CallNode,
    DecisionNode,
    EdgeKind,
    ForkNode,
    InitialNode,
    InvokeNode,
    JoinNode,
    StoreNode,
    fingerprint,
)
from a4c.parser import parse
from a4c.render import docs_bundle
from a4c.resolver import resolve
from a4c.validate import check

from conftest import CORPUS, corpus_text

MINI = """
model "Mini" {
  context {
    system S
    user U
    flow U -> S : A
  }
  artifact A
  artifact B
  llm L default
  agent G {
    task t {
      in A
      out B
      prompt {
        static role = "do the thing with {A}"
      }
    }
  }
}
"""


def codes(diags):
    return [d.code for d in diags]


def test_corpus_parses_cleanly():
    for name in CORPUS:
        result = parse(corpus_text(name), f"{name}.a4c")
        assert result.ok, (name, result.diagnostics)
        assert result.diagnostics == []


def test_minimal_model_shape():
    result = parse(MINI, "mini.a4c")
    assert result.ok
    model = result.model
    assert model.name == "Mini"
    assert [a.name for a in model.context.actors] == ["S", "U"]
    assert model.context.flows[0].artifacts == ("A",)
    assert [a.name for a in model.artifacts] == ["A", "B"]
    assert model.llms[0].default
    task = model.agent("G").task("t")
    assert task.inputs == ("A",) and task.outputs == ("B",)
    assert task.graph is None
    assert task.prompt.rows[0].name == "role"


def test_spans_are_one_based_and_registered():
    result = parse(MINI, "mini.a4c")
    span = result.model.source_map["agent:G"]
    assert span.file == "mini.a4c"
    assert span.start.line >= 1 and span.start.column >= 1
    assert "task:G.t" in result.model.source_map
    assert "prow:G.t/role" in result.model.source_map


def test_body_statement_kinds(testgen_text):
    model = parse(testgen_text, "t.a4c").model
    graph = model.agent("GeneratorTeam").task("generate").graph
    kinds = {type(n).__name__ for n in graph.nodes}
    assert {"InitialNode", "FinalNode", "CallNode", "DecisionNode", "StoreNode"} <= kinds
    call = graph.by_id["gen"]
    assert isinstance(call, CallNode)
    assert call.agent == "Developer" and call.task == "generate"
    assert graph.by_id["chk"].subject == "Report"
    store_nodes = [n for n in graph.nodes if isinstance(n, StoreNode)]
    assert [n.store for n in store_nodes] == ["codeStore"]


def test_store_edge_kinds(testgen_text):
    model = parse(testgen_text, "t.a4c").model
    graph = model.agent("GeneratorTeam").task("generate").graph
    kinds = {(e.source, e.target): e.kind for e in graph.edges}
    assert kinds[("gen", "store:codeStore")] is EdgeKind.STORE_WRITE
    assert kinds[("store:codeStore", "tst")] is EdgeKind.STORE_READ
    assert kinds[("start", "gen")] is EdgeKind.CONTROL


def test_guards(testgen_text):
    model = parse(testgen_text, "t.a4c").model
    graph = model.agent("GeneratorTeam").task("generate").graph
    guard = next(e.guard for e in graph.edges if e.target == "end" and e.guard)
    assert guard.subject == "Report" and guard.literal == "IO" and not guard.is_else


def test_else_guard():
    text = MINI.replace(
        """      prompt {
        static role = "do the thing with {A}"
      }""",
        """      body {
        decision d on A
        start -> d
        d -> end [A == Ok]
        d -> end [else]
      }""",
    )
    result = parse(text, "else.a4c")
    assert result.ok
    graph = result.model.agent("G").task("t").graph
    guards = [e.guard for e in graph.edges if e.guard is not None]
    assert any(g.is_else for g in guards)


def test_empty_body_synthesizes_start_end_edge():
    text = MINI.replace(
        """      prompt {
        static role = "do the thing with {A}"
      }""",
        "      body { }",
    )
    graph = parse(text, "e.a4c").model.agent("G").task("t").graph
    assert graph.statements == ()
    assert len(graph.edges) == 1
    edge = graph.edges[0]
    assert edge.source == "start" and edge.target == "end" and edge.guard is None
    assert isinstance(graph.nodes[0], InitialNode)


def test_fork_join_and_invoke(resell_text):
    model = parse(resell_text, "r.a4c").model
    graph = model.agent("MarketSearchConductor").task("estimate").graph
    assert any(isinstance(n, ForkNode) for n in graph.nodes)
    assert any(isinstance(n, JoinNode) for n in graph.nodes)
    execute = model.agent("EbayResearcher").task("search").graph
    invoke = next(n for n in execute.nodes if isinstance(n, InvokeNode))
    assert invoke.tool == "EbaySearchAPI" and invoke.operation == "findItems"


def test_strings_parse_to_their_unescaped_values():
    """A string token's value is its text; the model keeps the string it denotes:
    ``\\"`` and ``\\\\`` unescaped, any other backslash kept."""
    text = r'''model "M \"1\" \\ x" {
  llm L version "v\\2 \"b\"" default
  deployment {
    node N { }
    node P { }
    link N -> P : "h\"t\\p\x"
  }
  agent G {
    task t {
      prompt {
        static role = "say \"{A}\" \\ \n"
      }
    }
  }
}
'''
    model = parse(text, "s.a4c").model
    assert model.name == 'M "1" \\ x'
    assert model.llms[0].version == 'v\\2 "b"'
    assert model.deployment.links[0].protocol == 'h"t\\p\\x'
    assert model.agent("G").task("t").prompt.rows[0].template == 'say "{A}" \\ \\n'
    assert parse(canonical_format(text, "s.a4c"), "s.a4c").model == model


def test_p001_unexpected_token():
    result = parse('model "X" { artifact }', "p.a4c")
    assert not result.ok
    assert codes(result.diagnostics) == ["P001"]
    assert all(d.severity is Severity.ERROR for d in result.diagnostics)


def test_p001_missing_close_brace_is_single_error(testgen_text):
    broken = testgen_text.rstrip().rstrip("}")
    result = parse(broken, "p.a4c")
    assert not result.ok
    assert codes(result.diagnostics) == ["P001"]
    assert "end of file" in result.diagnostics[0].message


def test_p002_unterminated_string():
    result = parse('model "X { }', "p.a4c")
    assert not result.ok
    assert "P002" in codes(result.diagnostics)


def test_p003_unknown_keyword():
    result = parse('model "X" { widget W }', "p.a4c")
    assert not result.ok
    assert codes(result.diagnostics) == ["P003"]
    assert "widget" in result.diagnostics[0].message
    assert "expected" in result.diagnostics[0].message


# Each block level: a model with "%s" where one item of the block goes, and a
# model that ends inside the block.
BLOCKS = {
    "section": ('model "X" {\n  %s\n}\n', 'model "X" {\n  artifact A\n'),
    "context": ('model "X" {\n  context {\n    %s\n  }\n}\n',
                'model "X" {\n  context {\n    system S\n'),
    "deployment": ('model "X" {\n  deployment {\n    %s\n  }\n}\n',
                   'model "X" {\n  deployment {\n    node N { }\n'),
    "agent": ('model "X" {\n  agent G {\n    %s\n  }\n}\n',
              'model "X" {\n  agent G {\n    store s : A\n'),
    "body": ('model "X" {\n  agent G {\n    task t {\n      body {\n        %s\n'
             '      }\n    }\n  }\n}\n',
             'model "X" {\n  agent G {\n    task t {\n      body {\n        start -> end\n'),
    "prompt": ('model "X" {\n  agent G {\n    task t {\n      prompt {\n        %s\n'
               '      }\n    }\n  }\n}\n',
               'model "X" {\n  agent G {\n    task t {\n      prompt {\n'
               '        static r = "x"\n'),
}

# (block, case) -> every diagnostic as (code, line:column, message). A broken
# item is reported once and skipped to its block's '}', which closes only that
# block, so the enclosing blocks and the model close without a report; ending
# inside blocks reports the missing '}' once.
BLOCK_DIAGNOSTICS = {
    ("section", "word"): [
        ("P003", "2:3", "unknown keyword 'bogus' (expected one of: agent, artifact,"
                        " context, deployment, llm, tool)")],
    ("section", "punct"): [("P001", "2:3", "expected a section, found '='")],
    ("section", "eof"): [("P001", "3:1", "expected '}', found end of file")],
    ("context", "word"): [
        ("P003", "3:5", "unknown keyword 'bogus' (expected one of: external, flow, system, user)")],
    ("context", "punct"): [("P001", "3:5", "expected a context item, found '='")],
    ("context", "eof"): [("P001", "4:1", "expected '}', found end of file")],
    ("deployment", "word"): [
        ("P003", "3:5", "unknown keyword 'bogus' (expected one of: link, node)")],
    ("deployment", "punct"): [("P001", "3:5", "expected a deployment item, found '='")],
    ("deployment", "eof"): [("P001", "4:1", "expected '}', found end of file")],
    ("agent", "word"): [
        ("P003", "3:5", "unknown keyword 'bogus' (expected one of: store, task)")],
    ("agent", "punct"): [("P001", "3:5", "expected an agent member, found '='")],
    ("agent", "eof"): [("P001", "4:1", "expected '}', found end of file")],
    # in a body a word starts an edge: 'bogus B' lacks its '->'
    ("body", "word"): [("P001", "5:15", "expected '->', found identifier 'B'")],
    ("body", "punct"): [("P001", "5:9", "expected a body statement, found '='")],
    ("body", "eof"): [("P001", "6:1", "expected '}', found end of file")],
    ("body", "else"): [("P001", "5:22", "expected ']', found identifier 'B'")],
    ("prompt", "word"): [
        ("P003", "5:9", "unknown keyword 'bogus' (expected 'static' or 'dynamic')")],
    ("prompt", "punct"): [("P001", "5:9", "expected a prompt row, found '='")],
    ("prompt", "eof"): [("P001", "6:1", "expected '}', found end of file")],
}


def block_case(block: str, case: str) -> str:
    template, ends_inside = BLOCKS[block]
    return {"word": template % "bogus B", "punct": template % "= B", "eof": ends_inside,
            "else": template % "a -> b [else B]"}[case]


def located(diags) -> list[tuple[str, str, str]]:
    return [(d.code, f"{d.span.start.line}:{d.span.start.column}", d.message) for d in diags]


def test_block_syntax_errors():
    for (block, case), expected in BLOCK_DIAGNOSTICS.items():
        result = parse(block_case(block, case), "b.a4c")
        assert located(result.diagnostics) == expected, (block, case)
        assert not result.ok


# a broken context item and a broken section after it, all on one line
TWO_MISTAKES = 'model "X" { context { bogus } artifact A widget W }'


def test_mistake_in_a_block_does_not_hide_a_later_section():
    result = parse(TWO_MISTAKES, "p.a4c")
    assert located(result.diagnostics) == [
        ("P003", "1:23", "unknown keyword 'bogus' (expected one of: external, flow, system, user)"),
        ("P003", "1:42", "unknown keyword 'widget' (expected one of: agent, artifact, context,"
                         " deployment, llm, tool)"),
    ]


def test_each_broken_item_reports_once():
    body = BLOCKS["body"][0]
    # 'b' ends the broken edge's line, so it does not restart an edge
    result = parse(body % "a -> -> b\n        c -> d", "p.a4c")
    assert located(result.diagnostics) == [("P001", "5:14", "expected edge endpoint, found '->'")]

    n = 4000
    lines = "\n        ".join(f"a{k} -> -> b{k}" for k in range(n))
    text = body.replace("\n}\n", "\n  bogus B\n}\n") % lines
    diags = parse(text, "p.a4c").diagnostics
    assert len(diags) == n + 1
    assert [d.span.start.line for d in diags[:n]] == list(range(5, 5 + n))
    assert [d.code for d in diags] == ["P001"] * n + ["P003"]


# Replacements for one token of a line: a word of the model or one of these.
# None is a brace, so a mutant keeps the model's block structure.
RECALL_EDITS = ["->", "[", "]", "==", '"x"', ""]


def diagnostic_keys(text: str) -> list[tuple]:
    return sorted((d.code, d.span.start.line, d.span.start.column, d.message)
                  for d in parse(text, "r.a4c").diagnostics)


def brace_lines(text: str) -> list[tuple[int, str]]:
    lex = tokenize(text, "r.a4c")
    return [(lex.position(t.start).line, t.type) for t in lex.tokens
            if t.type in ("LBRACE", "RBRACE")]


def broken_lines(text: str, rng: random.Random, count: int) -> list[tuple]:
    """``count`` one-token edits of distinct lines of ``text``, each inside a
    top-level section, keeping every brace and failing to parse: (section
    index, line index, edited line, the edited file's diagnostic keys)."""
    lines = text.split("\n")
    words = sorted({w for w in text.split() if w.isidentifier()})
    sections = [range(s.span.start.line - 1, s.span.end.line)
                for s in parse(text, "r.a4c").model.sections]
    braces = brace_lines(text)
    edits: dict[int, tuple] = {}
    while len(edits) < count:
        k = rng.randrange(len(sections))
        i = rng.choice(sections[k])
        toks = lines[i].split(" ")
        toks[rng.randrange(len(toks))] = rng.choice(words + RECALL_EDITS)
        line = " ".join(toks)
        mutant = "\n".join(lines[:i] + [line] + lines[i + 1:])
        if i not in edits and brace_lines(mutant) == braces:
            report = diagnostic_keys(mutant)
            if report:
                edits[i] = (k, i, line, report)
    return list(edits.values())


def test_recovery_recall_on_corpus_mutant_pairs():
    """Two mistakes in top-level sections with a section between them do not
    interact: the file with both reports exactly the diagnostics of the two
    files with one each."""
    rng = random.Random(1531)
    checked, failed = 0, []
    for name in CORPUS:
        text = corpus_text(name)
        lines = text.split("\n")
        singles = broken_lines(text, rng, 40)
        pairs = [(a, b) for a in singles for b in singles if b[0] >= a[0] + 2]
        for (_ka, i, line_a, report_a), (_kb, j, line_b, report_b) in rng.sample(pairs, 110):
            both = list(lines)
            both[i], both[j] = line_a, line_b
            checked += 1
            if diagnostic_keys("\n".join(both)) != sorted(report_a + report_b):
                failed.append((name, i + 1, j + 1))
    assert checked >= 300
    assert failed == [], f"{len(failed)} of {checked} pairs: {failed[:5]}"


def test_one_token_deletions_match_the_golden():
    """Each corpus model with one token cut out reports the diagnostics in
    ``golden/parse_deletions.txt``: text, position, order and recovery."""
    from make_goldens import GOLDEN, parse_deletions

    golden = (GOLDEN / "parse_deletions.txt").read_text(encoding="utf-8")
    assert parse_deletions() == golden


def test_p001_self_flow():
    result = parse(
        'model "X" { context { system S flow S -> S : A } artifact A }', "p.a4c"
    )
    assert not result.ok
    assert "P001" in codes(result.diagnostics)
    assert any("source" in d.message for d in result.diagnostics)


def test_a_wrong_store_access_that_ends_the_file_is_its_only_error():
    """The access word is read before it is found wrong, so at the end of the
    file no missing ``}`` is reported after it; with a token left, one is."""
    body = 'model "X" { agent G { task t { body { s.bogus'
    assert [d.message for d in parse(body, "p.a4c").diagnostics] == [
        "expected 'read' or 'write'"]
    assert [d.message for d in parse(body + " -> b", "p.a4c").diagnostics] == [
        "expected 'read' or 'write'", "expected '}', found end of file"]


def test_store_endpoint_orientation_errors():
    base = MINI.replace(
        """      prompt {
        static role = "do the thing with {A}"
      }""",
        "      body {\n        %s\n      }",
    )
    bad_write = parse(base % "s.write -> end", "p.a4c")
    assert any("'.write'" in d.message for d in bad_write.diagnostics)
    bad_read = parse(base % "start -> s.read", "p.a4c")
    assert any("'.read'" in d.message for d in bad_read.diagnostics)
    two_stores = parse(base % "s.read -> s.write", "p.a4c")
    assert any("at most one datastore" in d.message for d in two_stores.diagnostics)


def test_recovery_continues_after_broken_section(testgen_text):
    broken = testgen_text.replace("artifact TestSpec", "artifact artifact", 1)
    # a second mistake, in a prompt row of a later agent
    broken = broken.replace("dynamic code =", "dynamic code :", 1)
    result = parse(broken, "p.a4c")
    assert not result.ok
    assert located(result.diagnostics) == [
        ("P001", "13:12", "expected artifact name, found keyword 'artifact'"),
        ("P001", "73:22", "expected '=', found ':'"),
    ]


def test_diagnostics_sorted_by_position():
    text = 'model "X" { context { flow A -> A : B } widget W }'
    result = parse(text, "p.a4c")
    keys = [d.sort_key() for d in result.diagnostics]
    assert keys == sorted(keys)


def test_fingerprint_ignores_layout(testgen_text):
    compact = testgen_text.replace("\n      ", "\n  ").replace("  ", " ")
    fp1 = fingerprint(parse(testgen_text, "a").model)
    fp2 = fingerprint(parse(compact, "b").model)
    assert fp1 == fp2


FP_MODEL = """model "Fp" {
  context {
    system S
    user U
    flow U -> S : A
  }
  artifact A
  artifact B
  artifact C collection of A
  llm L version "v1" default
  tool T external
  deployment {
    node N1 { hosts G }
    node N2 external { hosts T }
    link N1 -> N2 : "HTTP" : A
  }
  agent G llm L {
    store st : A
    task t {
      in A
      out B
      body {
        call c = u on H each C { in A out B }
        invoke v = T.run { in A out B }
        decision d on A
        fork f
        join j
        start -> c
        c -> v
        v -> d
        d -> f [A == yes]
        d -> end [else]
        f -> j
        j -> end
      }
      prompt {
        static role = "You review."
        dynamic ask = "Review {A}"
      }
    }
  }
}
"""

# each edit changes one structural field of FP_MODEL
FP_EDITS = [
    ("collection of A", "collection of B"),
    ('version "v1"', 'version "v2"'),
    ('"v1" default', '"v1"'),
    ("tool T external", "tool T"),
    ("hosts G", "hosts G, T"),
    ('"HTTP"', '"gRPC"'),
    (': "HTTP" : A', ': "HTTP" : B'),
    ("flow U -> S : A", "flow U -> S : B"),
    ("agent G llm L", "agent G llm M"),
    ("store st : A", "store st : B"),
    ("      in A\n", "      in B\n"),
    ("      out B\n", "      out A\n"),
    ("on H each", "on K each"),
    ("each C", "each A"),
    ("T.run", "T.walk"),
    ("decision d on A", "decision d on B"),
    ("fork f", "join f"),
    ("f -> j", "f -> end"),
    ("[A == yes]", "[else]"),
    ("static role", "dynamic role"),
    ('"You review."', '"You check."'),
]


def test_fingerprint_sees_every_structural_field():
    base = fingerprint(parse(FP_MODEL, "fp.a4c").model)
    for old, new in FP_EDITS:
        assert FP_MODEL.count(old) == 1, old
        edited = parse(FP_MODEL.replace(old, new), "fp.a4c").model
        assert edited is not None, old
        assert fingerprint(edited) != base, old
    relaid = FP_MODEL.replace("\n      ", "\n ").replace("\n", "\n// note\n")
    assert fingerprint(parse(relaid, "other.a4c").model) == base


def test_comments_collected_not_tokenized(testgen_text):
    lexed = tokenize(testgen_text, "t.a4c")
    assert len(lexed.comments) >= 2
    assert all(t.type != "COMMENT" for t in lexed.tokens)


def test_parse_never_reads_the_token_view(monkeypatch, testgen_text):
    """The parser walks the lexer's columns; ``LexResult.tokens`` is a view
    for other callers, built anew on each read."""
    def unread(self):
        raise AssertionError("the parser read LexResult.tokens")

    monkeypatch.setattr(LexResult, "tokens", property(unread))
    texts = [corpus_text(name) for name in CORPUS]
    texts += [block_case(block, case) for block, case in BLOCK_DIAGNOSTICS]
    texts += ['model "X" { artifact }', 'model "X { }', 'model "X" { widget W }',
              'model "X" { context { flow A -> A : B } widget W }',
              testgen_text.rstrip().rstrip("}"),
              testgen_text.replace("artifact TestSpec", "artifact artifact", 1)]
    for text in texts:
        parse(text, "v.a4c")


def test_a_clean_run_never_works_out_a_position(monkeypatch):
    """A span holds two offsets and its file's line table; a position is
    built only when one is read, and the table is filled only then. Parsing,
    resolving, checking, docs and formatting a model that has no findings
    and no comments read none, and leave each file's table empty."""
    def unread(line_starts, offset):
        raise AssertionError("a line was looked up")

    lexed = []

    def recorded(text, file):
        lexed.append(tokenize(text, file))
        return lexed[-1]

    for module in (diagnostics, parser):
        monkeypatch.setattr(module, "line_of", unread)
    monkeypatch.setattr(parser, "tokenize", recorded)
    with pytest.raises(AssertionError, match="looked up"):
        tokenize("a\nb", "v.a4c").span(2, 3).start
    with pytest.raises(AssertionError, match="looked up"):
        parse('model "X" { artifact artifact A }', "v.a4c")
    lexed.clear()
    for name in CORPUS:
        lines = corpus_text(name).split("\n")
        text = "\n".join(line for line in lines if not line.lstrip().startswith("//"))
        assert not tokenize(text, "v.a4c").comments
        result = parse(text, f"{name}.a4c")
        resolved = resolve(result.model)
        assert not result.diagnostics and not resolved.diagnostics
        assert check(resolved.model) == []
        docs_bundle(resolved.model)
        canonical_format(text, f"{name}.a4c")
        assert result.model.span[3] is lexed[-2].line_starts
    assert len(lexed) == 2 * len(CORPUS)  # one parse and one fmt per model
    assert not any(lex.line_starts for lex in lexed)


def test_one_position_read_fills_the_whole_line_table():
    """The first position read fills the file's table with the offset at
    which each line starts, as the lexer once built it for every file; only
    ``\\n`` breaks a line, so a text of lone ``\\r`` has one line."""
    texts = ["", "a", "\r", "a\rb\r", "\n", "a\r\nb\n\nc", "x\n\r\n "]
    for text in texts + [corpus_text(name) for name in CORPUS]:
        lex = tokenize(text, "v.a4c")
        assert lex.line_starts == []
        assert lex.span(len(text), len(text)).start.line == text.count("\n") + 1
        assert lex.line_starts == [0] + [k + 1 for k, c in enumerate(text) if c == "\n"]
