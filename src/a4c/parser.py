"""Recursive-descent parser producing a Model with source spans.

Error codes: P001 unexpected token, P002 unterminated string (lexer), P003
unknown keyword in a keyword position. After an error in an item of a
``{ ... }`` block, parsing resumes at the next item of the same block that
begins a line, or at that block's ``}``, so one run can report several
independent mistakes; a file that ends inside blocks reports the missing
``}`` once. A Model is only returned when no P-class error was recorded.

``_Parser.block`` reads every ``{ ... }`` block, the model's included, and
``_Parser.item`` each of its items: the one place that dispatches on an
item's leading keyword and reports an item that starts wrong.

The parser reads the lexer's token columns through one index, ``_Parser.i``:
no token record is built, and a span is made from two offsets only where an
element or a diagnostic needs one.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import model as m
from .diagnostics import Diagnostic, SourceSpan, error, line_of, sort_diagnostics
from .lexer import (
    ARROW, COLON, COMMA, DOT, EOF, EQ, EQEQ, IDENT, KW, LBRACE, LBRACKET,
    RBRACE, RBRACKET, STRING, Comment, LexResult, tokenize,
)
from .records import record


@record
class ParseResult:
    model: Optional[m.Model]
    diagnostics: list[Diagnostic]
    comments: list[Comment]

    @property
    def ok(self) -> bool:
        return self.model is not None


class _ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


def _describe(ttype: str, value: str) -> str:
    if ttype == EOF:
        return "end of file"
    if ttype == KW:
        return f"keyword '{value}'"
    if ttype == IDENT:
        return f"identifier '{value}'"
    if ttype == STRING:
        return "string literal"
    return f"'{value}'"


class _Parser:
    def __init__(self, lex: LexResult):
        # token k is entry k of each column; self.i is the next token
        self.types = lex.types
        self.values = lex.values
        self.starts = lex.starts
        self.ends = lex.ends
        self.i = 0
        self.lex = lex
        self.diags: list[Diagnostic] = list(lex.diagnostics)
        self._flow_counts: dict[tuple[str, str], int] = {}
        self._link_counts: dict[tuple[str, str], int] = {}

    # --- cursor helpers -------------------------------------------------
    # They name a token by its index, never by a record; its text is
    # ``self.values[i]``.

    def advance(self) -> int:
        """Consume the next token, unless it is EOF; its index."""
        i = self.i
        if self.types[i] != EOF:
            self.i = i + 1
        return i

    def at(self, ttype: str) -> bool:
        return self.types[self.i] == ttype

    def at_kw(self, name: str) -> bool:
        i = self.i
        return self.types[i] == KW and self.values[i] == name

    def accept_kw(self, name: str) -> bool:
        """Consume the keyword ``name`` if it comes next."""
        i = self.i
        if self.types[i] == KW and self.values[i] == name:
            self.i = i + 1
            return True
        return False

    def accept(self, ttype: str) -> bool:
        """Consume a token of type ``ttype`` (never EOF) if one comes next."""
        if self.types[self.i] == ttype:
            self.i += 1
            return True
        return False

    def block(self, parsers: dict[str, Callable], what: str,
              expected: Optional[str] = None) -> tuple:
        """The items of a ``{ ... }`` block, each read by ``item``. After an
        error in an item, reading resumes at the next item of this block that
        begins a line, or at its ``}`` (``skip_item``). An error at end of
        file, such as a missing ``}``, goes up to ``parse_model`` unrecorded,
        so it is reported once."""
        self.expect(LBRACE, "'{'")
        items = []
        while not self.accept(RBRACE):
            if self.at(EOF):
                raise self.fail_expected("'}'")
            start = self.i
            try:
                items.append(self.item(parsers, what, expected))
            except _ParseError as e:
                if self.at(EOF):
                    raise
                self.diags.append(e.diag)
                self.skip_item(parsers, start)
        return tuple(items)

    def skip_item(self, parsers: dict[str, Callable], start: int) -> None:
        """Panic recovery after a broken item that began at token ``start``:
        move to the ``}`` that closes the block, or to the next token at the
        block's depth that can start one of its items and begins a line."""
        types, values, starts, ends = self.types, self.values, self.starts, self.ends
        line_starts = self.lex.line_starts
        depth = 0
        i = start
        while types[i] != EOF:
            ttype = types[i]
            if ttype == LBRACE:
                depth += 1
            elif ttype == RBRACE:
                if depth == 0:
                    break
                depth -= 1
            elif (depth == 0 and i > start and (values[i] if ttype == KW else ttype) in parsers
                  and line_of(line_starts, starts[i]) > line_of(line_starts, ends[i - 1])):
                break
            i += 1
        self.i = i

    def item(self, parsers: dict[str, Callable], what: str,
             expected: Optional[str] = None):
        """One item, read by the parser listed under its leading keyword, or
        under IDENT for a plain word. Any other word is an unknown keyword
        when ``expected`` lists the keywords; anything else is P001."""
        i = self.i
        ttype = self.types[i]
        parse = parsers.get(self.values[i] if ttype == KW else ttype)
        if parse is not None:
            return parse(self)
        if ttype == IDENT and expected is not None:
            raise self.fail(f"unknown keyword '{self.values[i]}' (expected {expected})", i, "P003")
        raise self.fail_expected(what)

    def fail(self, message: str, i: Optional[int] = None, code: str = "P001") -> _ParseError:
        """A ``code`` error at token ``i``, by default the next one."""
        return _ParseError(error(code, message, self.token_span(self.i if i is None else i)))

    def fail_expected(self, what: str) -> _ParseError:
        """P001 at the next token, which is not the ``what`` expected there."""
        i = self.i
        return self.fail(f"expected {what}, found {_describe(self.types[i], self.values[i])}")

    def expect(self, ttype: str, what: str) -> int:
        """Consume a token of type ``ttype`` (never EOF); its index."""
        i = self.i
        if self.types[i] != ttype:
            raise self.fail_expected(what)
        self.i = i + 1
        return i

    def expect_value(self, ttype: str, what: str) -> str:
        """Consume a token of type ``ttype`` (never EOF); its text."""
        i = self.i
        if self.types[i] != ttype:
            raise self.fail_expected(what)
        self.i = i + 1
        return self.values[i]

    def expect_kw(self, name: str) -> int:
        i = self.i
        if self.types[i] != KW or self.values[i] != name:
            raise self.fail_expected(f"'{name}'")
        self.i = i + 1
        return i

    def token_span(self, i: int) -> SourceSpan:
        return self.lex.span(self.starts[i], self.ends[i])

    def span_from(self, start: int) -> SourceSpan:
        """From the start of token ``start`` to the end of the last consumed token."""
        return self.lex.span(self.starts[start], self.ends[self.i - 1])

    # --- grammar --------------------------------------------------------

    def parse_model(self) -> Optional[m.Model]:
        try:
            start = self.item({"model": _Parser.advance}, "'model'", "'model'")
            name = self.expect_value(STRING, "model name string")
            sections = self.block(self.sections, "a section", self.section_keywords)
            if not self.at(EOF):
                raise self.fail_expected("end of file")
        except _ParseError as e:
            self.diags.append(e.diag)
            return None
        return m.Model(name=name, file=self.lex.file, sections=sections,
                       span=self.span_from(start))

    def parse_context(self) -> m.ContextSection:
        start = self.expect_kw("context")
        items = self.block(self.context_items, "a context item",
                           "one of: external, flow, system, user")
        return m.ContextSection(items, self.span_from(start))

    def parse_actor(self) -> m.Actor:
        start = self.advance()
        name = self.expect_value(IDENT, "actor name")
        return m.Actor(m.ActorKind(self.values[start]), name, self.span_from(start))

    def parse_flow(self) -> m.ContextFlow:
        start = self.expect_kw("flow")
        src = self.expect_value(IDENT, "flow source")
        self.expect(ARROW, "'->'")
        dst_i = self.expect(IDENT, "flow target")
        dst = self.values[dst_i]
        if dst == src:
            self.diags.append(
                error("P001", "flow target matches its source", self.token_span(dst_i)))
        self.expect(COLON, "':'")
        arts = self.parse_identlist("artifact name")
        occ = self._flow_counts.get((src, dst), 0)
        self._flow_counts[(src, dst)] = occ + 1
        return m.ContextFlow(src, dst, arts, self.span_from(start), occ)

    def parse_artifact(self) -> m.ArtifactType:
        start = self.expect_kw("artifact")
        name = self.expect_value(IDENT, "artifact name")
        element: Optional[str] = None
        if self.accept_kw("collection"):
            self.expect_kw("of")
            element = self.expect_value(IDENT, "element artifact name")
        return m.ArtifactType(name, element, self.span_from(start))

    def parse_llm(self) -> m.LlmDecl:
        start = self.expect_kw("llm")
        name = self.expect_value(IDENT, "llm name")
        version: Optional[str] = None
        if self.accept_kw("version"):
            version = self.expect_value(STRING, "version string")
        default = self.accept_kw("default")
        return m.LlmDecl(name, version, default, self.span_from(start))

    def parse_tool(self) -> m.ToolDecl:
        start = self.expect_kw("tool")
        name = self.expect_value(IDENT, "tool name")
        external = self.accept_kw("external")
        return m.ToolDecl(name, external, self.span_from(start))

    def parse_deployment(self) -> m.DeploymentSection:
        start = self.expect_kw("deployment")
        items = self.block(self.deployment_items, "a deployment item", "one of: link, node")
        return m.DeploymentSection(items, self.span_from(start))

    def parse_deployment_node(self) -> m.DeploymentNode:
        start = self.expect_kw("node")
        name = self.expect_value(IDENT, "node name")
        external = self.accept_kw("external")
        self.expect(LBRACE, "'{'")
        hosts: tuple[str, ...] = ()
        if self.accept_kw("hosts"):
            hosts = self.parse_identlist("hosted element name")
        self.expect(RBRACE, "'}'")
        return m.DeploymentNode(name, external, hosts, self.span_from(start))

    def parse_link(self) -> m.DeploymentLink:
        start = self.expect_kw("link")
        src = self.expect_value(IDENT, "link source node")
        self.expect(ARROW, "'->'")
        dst = self.expect_value(IDENT, "link target node")
        self.expect(COLON, "':'")
        protocol = self.expect_value(STRING, "protocol string")
        arts: tuple[str, ...] = ()
        if self.accept(COLON):
            arts = self.parse_identlist("artifact name")
        occ = self._link_counts.get((src, dst), 0)
        self._link_counts[(src, dst)] = occ + 1
        return m.DeploymentLink(src, dst, protocol, arts, self.span_from(start), occ)

    def parse_agent(self) -> m.Agent:
        start = self.expect_kw("agent")
        name = self.expect_value(IDENT, "agent name")
        llm: Optional[str] = None
        if self.accept_kw("llm"):
            llm = self.expect_value(IDENT, "llm name")
        members = self.block(self.agent_members, "an agent member", "one of: store, task")
        return m.Agent(name, llm, members, self.span_from(start))

    def parse_store(self) -> m.Datastore:
        start = self.expect_kw("store")
        name = self.expect_value(IDENT, "datastore name")
        self.expect(COLON, "':'")
        artifact = self.expect_value(IDENT, "artifact name")
        return m.Datastore(name, artifact, self.span_from(start))

    def parse_task(self) -> m.Task:
        start = self.expect_kw("task")
        name = self.expect_value(IDENT, "task name")
        self.expect(LBRACE, "'{'")
        inputs, outputs = self.parse_io()
        graph: Optional[m.ActivityGraph] = None
        if self.at_kw("body"):
            graph = self.parse_body()
        prompt: Optional[m.PromptSpec] = None
        if self.at_kw("prompt"):
            prompt = self.parse_prompt()
        self.expect(RBRACE, "'}'")
        return m.Task(name, inputs, outputs, graph, prompt, self.span_from(start))

    def parse_io(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        inputs: tuple[str, ...] = ()
        outputs: tuple[str, ...] = ()
        if self.accept_kw("in"):
            inputs = self.parse_identlist("input artifact name")
        if self.accept_kw("out"):
            outputs = self.parse_identlist("output artifact name")
        return inputs, outputs

    def parse_body(self) -> m.ActivityGraph:
        start = self.expect_kw("body")
        statements = self.block(self.body_statements, "a body statement")
        return m.ActivityGraph(statements, self.span_from(start))

    def parse_call(self) -> m.CallNode:
        start = self.expect_kw("call")
        node_id = self.expect_value(IDENT, "call binding name")
        self.expect(EQ, "'='")
        task = self.expect_value(IDENT, "task name")
        agent: Optional[str] = None
        if self.accept_kw("on"):
            agent = self.expect_value(IDENT, "agent name")
        each: Optional[str] = None
        if self.accept_kw("each"):
            each = self.expect_value(IDENT, "collection artifact name")
        self.expect(LBRACE, "'{'")
        inputs, outputs = self.parse_io()
        self.expect(RBRACE, "'}'")
        return m.CallNode(node_id, self.span_from(start), task, agent, each, inputs, outputs)

    def parse_invoke(self) -> m.InvokeNode:
        start = self.expect_kw("invoke")
        node_id = self.expect_value(IDENT, "invoke binding name")
        self.expect(EQ, "'='")
        tool = self.expect_value(IDENT, "tool name")
        self.expect(DOT, "'.'")
        op = self.expect_value(IDENT, "operation name")
        self.expect(LBRACE, "'{'")
        inputs, outputs = self.parse_io()
        self.expect(RBRACE, "'}'")
        return m.InvokeNode(node_id, self.span_from(start), tool, op, inputs, outputs)

    def parse_decision(self) -> m.DecisionNode:
        start = self.expect_kw("decision")
        node_id = self.expect_value(IDENT, "decision binding name")
        self.expect_kw("on")
        subject = self.expect_value(IDENT, "artifact name")
        return m.DecisionNode(node_id, self.span_from(start), subject)

    def parse_fork_join(self) -> m.ActivityNode:
        start = self.advance()
        kind = self.values[start]
        node_id = self.expect_value(IDENT, f"{kind} binding name")
        span = self.span_from(start)
        if kind == "fork":
            return m.ForkNode(node_id, span)
        if kind == "join":
            return m.JoinNode(node_id, span)
        return m.MergeNode(node_id, span)

    def parse_endpoint(self) -> tuple[str, Optional[str], int]:
        """Returns (node id, datastore access, index of the first token)."""
        first = self.i
        if self.accept_kw("start"):
            return m.INITIAL_ID, None, first
        if self.accept_kw("end"):
            return m.FINAL_ID, None, first
        name = self.expect_value(IDENT, "edge endpoint")
        if self.accept(DOT):
            access_i = self.expect(IDENT, "'read' or 'write'")
            access = self.values[access_i]
            if access not in ("read", "write"):
                raise self.fail("expected 'read' or 'write'", access_i)
            return m.store_node_id(name), access, first
        return name, None, first

    def parse_edge(self) -> m.ActivityEdge:
        src, src_access, src_i = self.parse_endpoint()
        if src_access == "write":
            self.diags.append(
                error("P001", "a '.write' endpoint cannot start an edge",
                      self.token_span(src_i))
            )
        self.expect(ARROW, "'->'")
        dst, dst_access, dst_i = self.parse_endpoint()
        if dst_access == "read":
            self.diags.append(
                error("P001", "a '.read' endpoint cannot end an edge", self.token_span(dst_i))
            )
        if src_access is not None and dst_access is not None:
            self.diags.append(
                error("P001", "an edge may touch at most one datastore endpoint",
                      self.token_span(dst_i))
            )
        guard: Optional[m.Guard] = None
        if self.at(LBRACKET):
            guard = self.parse_guard()
        kind = m.EdgeKind.CONTROL
        if src_access == "read":
            kind = m.EdgeKind.STORE_READ
        elif dst_access == "write":
            kind = m.EdgeKind.STORE_WRITE
        return m.ActivityEdge(src, dst, guard, kind, self.span_from(src_i))

    def parse_guard(self) -> m.Guard:
        start = self.expect(LBRACKET, "'['")
        if self.accept_kw("else"):
            self.expect(RBRACKET, "']'")
            return m.Guard(None, None, True, self.span_from(start))
        subject = self.expect_value(IDENT, "artifact name")
        self.expect(EQEQ, "'=='")
        literal = self.expect_value(IDENT, "guard literal")
        self.expect(RBRACKET, "']'")
        return m.Guard(subject, literal, False, self.span_from(start))

    def parse_prompt(self) -> m.PromptSpec:
        start = self.expect_kw("prompt")
        rows = self.block(self.prompt_rows, "a prompt row", "'static' or 'dynamic'")
        return m.PromptSpec(rows, self.span_from(start))

    def parse_prompt_row(self) -> m.PromptRow:
        start = self.advance()
        part = m.PromptPart.STATIC if self.values[start] == "static" else m.PromptPart.TASK_SPECIFIC
        name = self.expect_value(IDENT, "prompt row name")
        self.expect(EQ, "'='")
        template = self.expect_value(STRING, "prompt template string")
        return m.PromptRow(part, name, template, self.span_from(start))

    def parse_identlist(self, what: str) -> tuple[str, ...]:
        names = [self.expect_value(IDENT, what)]
        while self.accept(COMMA):
            names.append(self.expect_value(IDENT, what))
        return tuple(names)

    # --- block items ----------------------------------------------------
    # Each table maps an item's leading keyword, or IDENT for a plain word,
    # to the method that reads the item; ``item`` calls it with the parser.

    sections = {"agent": parse_agent, "artifact": parse_artifact, "context": parse_context,
                "deployment": parse_deployment, "llm": parse_llm, "tool": parse_tool}
    section_keywords = "one of: " + ", ".join(sorted(sections))
    context_items = {"external": parse_actor, "flow": parse_flow,
                     "system": parse_actor, "user": parse_actor}
    deployment_items = {"link": parse_link, "node": parse_deployment_node}
    agent_members = {"store": parse_store, "task": parse_task}
    body_statements = {IDENT: parse_edge, "start": parse_edge, "end": parse_edge,
                       "call": parse_call, "invoke": parse_invoke, "decision": parse_decision,
                       "fork": parse_fork_join, "join": parse_fork_join, "merge": parse_fork_join}
    prompt_rows = {"dynamic": parse_prompt_row, "static": parse_prompt_row}


def parse(text: str, file: str = "<input>") -> ParseResult:
    """Parse one model file; the model is present iff no P-class error occurred."""
    lex = tokenize(text, file)
    parser = _Parser(lex)
    parsed = parser.parse_model()
    diags = sort_diagnostics(parser.diags)
    if any(d.code.startswith("P") for d in diags):
        return ParseResult(None, diags, lex.comments)
    return ParseResult(parsed, diags, lex.comments)
