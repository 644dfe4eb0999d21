"""Recursive-descent parser producing a Model with source spans.

Error codes: P001 unexpected token, P002 unterminated string (lexer), P003
unknown keyword in a keyword position. On an error inside a section the
parser skips ahead to the next section boundary and keeps going, so one run
can report several independent mistakes. A Model is only returned when no
P-class error was recorded.

``_Parser.block`` reads every ``{ ... }`` block below the model, and
``_Parser.item`` each of its items and each section: the one place that
dispatches on an item's leading keyword and reports an item that starts wrong.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import model as m
from .diagnostics import Diagnostic, SourceSpan, error, sort_diagnostics
from .lexer import (
    ARROW, COLON, COMMA, DOT, EOF, EQ, EQEQ, IDENT, KW, LBRACE, LBRACKET,
    RBRACE, RBRACKET, STRING, Comment, LexResult, Token, tokenize,
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


def _describe(tok: Token) -> str:
    if tok.type == EOF:
        return "end of file"
    if tok.type == KW:
        return f"keyword '{tok.value}'"
    if tok.type == IDENT:
        return f"identifier '{tok.value}'"
    if tok.type == STRING:
        return "string literal"
    return f"'{tok.value}'"


class _Parser:
    def __init__(self, lex: LexResult):
        self.toks = lex.tokens
        self.i = 0
        self.lex = lex
        self.diags: list[Diagnostic] = list(lex.diagnostics)
        self._flow_counts: dict[tuple[str, str], int] = {}
        self._link_counts: dict[tuple[str, str], int] = {}

    # --- cursor helpers -------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.type != EOF:
            self.i += 1
        return tok

    def at(self, ttype: str) -> bool:
        return self.toks[self.i].type == ttype

    def at_kw(self, name: str) -> bool:
        tok = self.toks[self.i]
        return tok.type == KW and tok.value == name

    def accept_kw(self, name: str) -> bool:
        """Consume the keyword ``name`` if it comes next."""
        tok = self.toks[self.i]
        if tok.type == KW and tok.value == name:
            self.i += 1
            return True
        return False

    def accept(self, ttype: str) -> bool:
        """Consume a token of type ``ttype`` (never EOF) if one comes next."""
        if self.toks[self.i].type == ttype:
            self.i += 1
            return True
        return False

    def block(self, parsers: dict[str, Callable], what: str,
              expected: Optional[str] = None) -> tuple:
        """The items of a ``{ ... }`` block, each read by ``item``; the file
        must not end inside the block."""
        self.expect(LBRACE, "'{'")
        items = []
        while not self.accept(RBRACE):
            if self.at(EOF):
                raise self.fail("expected '}', found end of file")
            items.append(self.item(parsers, what, expected))
        return tuple(items)

    def item(self, parsers: dict[str, Callable], what: str,
             expected: Optional[str] = None):
        """One item, read by the parser listed under its leading keyword, or
        under IDENT for a plain word. Any other word is an unknown keyword
        when ``expected`` lists the keywords; anything else is P001."""
        tok = self.toks[self.i]
        parse = parsers.get(tok.value if tok.type == KW else tok.type)
        if parse is not None:
            return parse(self)
        if tok.type == IDENT and expected is not None:
            raise self.fail(f"unknown keyword '{tok.value}' (expected {expected})", tok, "P003")
        raise self.fail(f"expected {what}, found {_describe(tok)}")

    def fail(self, message: str, tok: Optional[Token] = None, code: str = "P001") -> _ParseError:
        tok = tok or self.peek()
        return _ParseError(error(code, message, self.token_span(tok)))

    def expect(self, ttype: str, what: str) -> Token:
        tok = self.toks[self.i]
        if tok.type != ttype:
            raise self.fail(f"expected {what}, found {_describe(tok)}")
        self.i += 1  # never EOF: no caller expects it
        return tok

    def expect_kw(self, name: str) -> Token:
        tok = self.toks[self.i]
        if tok.type != KW or tok.value != name:
            raise self.fail(f"expected '{name}', found {_describe(tok)}")
        self.i += 1
        return tok

    def token_span(self, tok: Token) -> SourceSpan:
        return self.lex.span(tok.start, tok.end)

    def span_from(self, start: Token) -> SourceSpan:
        """From the start of ``start`` to the end of the last consumed token."""
        return self.lex.span(start.start, self.toks[self.i - 1].end)

    def sync_to_section(self) -> None:
        """Panic recovery: skip to the next section keyword at this brace depth."""
        depth = 0
        while not self.at(EOF):
            tok = self.peek()
            if tok.type == LBRACE:
                depth += 1
            elif tok.type == RBRACE:
                if depth == 0:
                    return
                depth -= 1
            elif tok.type == KW and tok.value in self.sections and depth == 0:
                return
            self.advance()

    # --- grammar --------------------------------------------------------

    def parse_model(self) -> Optional[m.Model]:
        try:
            start = self.item({"model": _Parser.advance}, "'model'", "'model'")
            name = self.expect(STRING, "model name string").value
            self.expect(LBRACE, "'{'")
        except _ParseError as e:
            self.diags.append(e.diag)
            return None

        sections: list[m.Section] = []
        closed = False
        while True:
            tok = self.peek()
            if tok.type == RBRACE:
                self.advance()
                closed = True
                break
            if tok.type == EOF:
                # a nested block that ran to end of file has said this already
                diag = self.fail("expected '}', found end of file").diag
                if not self.diags or self.diags[-1] != diag:
                    self.diags.append(diag)
                break
            try:
                sections.append(self.parse_section())
            except _ParseError as e:
                self.diags.append(e.diag)
                self.sync_to_section()
                if self.at(RBRACE):
                    # could close either the broken section or the model;
                    # treat it as the model's brace to avoid cascade errors
                    self.advance()
                    closed = True
                    break
        if closed and not self.at(EOF):
            self.diags.append(self.fail(f"expected end of file, found {_describe(self.peek())}").diag)
        return m.Model(
            name=name,
            file=self.lex.file,
            sections=tuple(sections),
            span=self.span_from(start),
        )

    def parse_section(self) -> m.Section:
        return self.item(self.sections, "a section", self.section_keywords)

    def parse_context(self) -> m.ContextSection:
        start = self.expect_kw("context")
        items = self.block(self.context_items, "a context item",
                           "one of: external, flow, system, user")
        return m.ContextSection(items, self.span_from(start))

    def parse_actor(self) -> m.Actor:
        start = self.advance()
        name = self.expect(IDENT, "actor name").value
        return m.Actor(m.ActorKind(start.value), name, self.span_from(start))

    def parse_flow(self) -> m.ContextFlow:
        start = self.expect_kw("flow")
        src = self.expect(IDENT, "flow source").value
        self.expect(ARROW, "'->'")
        dst_tok = self.expect(IDENT, "flow target")
        if dst_tok.value == src:
            self.diags.append(
                error("P001", "flow target matches its source", self.token_span(dst_tok)))
        self.expect(COLON, "':'")
        arts = self.parse_identlist("artifact name")
        occ = self._flow_counts.get((src, dst_tok.value), 0)
        self._flow_counts[(src, dst_tok.value)] = occ + 1
        return m.ContextFlow(src, dst_tok.value, arts, self.span_from(start), occ)

    def parse_artifact(self) -> m.ArtifactType:
        start = self.expect_kw("artifact")
        name = self.expect(IDENT, "artifact name").value
        element: Optional[str] = None
        if self.accept_kw("collection"):
            self.expect_kw("of")
            element = self.expect(IDENT, "element artifact name").value
        return m.ArtifactType(name, element, self.span_from(start))

    def parse_llm(self) -> m.LlmDecl:
        start = self.expect_kw("llm")
        name = self.expect(IDENT, "llm name").value
        version: Optional[str] = None
        if self.accept_kw("version"):
            version = self.expect(STRING, "version string").value
        default = self.accept_kw("default")
        return m.LlmDecl(name, version, default, self.span_from(start))

    def parse_tool(self) -> m.ToolDecl:
        start = self.expect_kw("tool")
        name = self.expect(IDENT, "tool name").value
        external = self.accept_kw("external")
        return m.ToolDecl(name, external, self.span_from(start))

    def parse_deployment(self) -> m.DeploymentSection:
        start = self.expect_kw("deployment")
        items = self.block(self.deployment_items, "a deployment item", "one of: link, node")
        return m.DeploymentSection(items, self.span_from(start))

    def parse_deployment_node(self) -> m.DeploymentNode:
        start = self.expect_kw("node")
        name = self.expect(IDENT, "node name").value
        external = self.accept_kw("external")
        self.expect(LBRACE, "'{'")
        hosts: tuple[str, ...] = ()
        if self.accept_kw("hosts"):
            hosts = self.parse_identlist("hosted element name")
        self.expect(RBRACE, "'}'")
        return m.DeploymentNode(name, external, hosts, self.span_from(start))

    def parse_link(self) -> m.DeploymentLink:
        start = self.expect_kw("link")
        src = self.expect(IDENT, "link source node").value
        self.expect(ARROW, "'->'")
        dst = self.expect(IDENT, "link target node").value
        self.expect(COLON, "':'")
        protocol = self.expect(STRING, "protocol string").value
        arts: tuple[str, ...] = ()
        if self.accept(COLON):
            arts = self.parse_identlist("artifact name")
        occ = self._link_counts.get((src, dst), 0)
        self._link_counts[(src, dst)] = occ + 1
        return m.DeploymentLink(src, dst, protocol, arts, self.span_from(start), occ)

    def parse_agent(self) -> m.Agent:
        start = self.expect_kw("agent")
        name = self.expect(IDENT, "agent name").value
        llm: Optional[str] = None
        if self.accept_kw("llm"):
            llm = self.expect(IDENT, "llm name").value
        members = self.block(self.agent_members, "an agent member", "one of: store, task")
        return m.Agent(name, llm, members, self.span_from(start))

    def parse_store(self) -> m.Datastore:
        start = self.expect_kw("store")
        name = self.expect(IDENT, "datastore name").value
        self.expect(COLON, "':'")
        artifact = self.expect(IDENT, "artifact name").value
        return m.Datastore(name, artifact, self.span_from(start))

    def parse_task(self) -> m.Task:
        start = self.expect_kw("task")
        name = self.expect(IDENT, "task name").value
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
        node_id = self.expect(IDENT, "call binding name").value
        self.expect(EQ, "'='")
        task = self.expect(IDENT, "task name").value
        agent: Optional[str] = None
        if self.accept_kw("on"):
            agent = self.expect(IDENT, "agent name").value
        each: Optional[str] = None
        if self.accept_kw("each"):
            each = self.expect(IDENT, "collection artifact name").value
        self.expect(LBRACE, "'{'")
        inputs, outputs = self.parse_io()
        self.expect(RBRACE, "'}'")
        return m.CallNode(node_id, self.span_from(start), task, agent, each, inputs, outputs)

    def parse_invoke(self) -> m.InvokeNode:
        start = self.expect_kw("invoke")
        node_id = self.expect(IDENT, "invoke binding name").value
        self.expect(EQ, "'='")
        tool = self.expect(IDENT, "tool name").value
        self.expect(DOT, "'.'")
        op = self.expect(IDENT, "operation name").value
        self.expect(LBRACE, "'{'")
        inputs, outputs = self.parse_io()
        self.expect(RBRACE, "'}'")
        return m.InvokeNode(node_id, self.span_from(start), tool, op, inputs, outputs)

    def parse_decision(self) -> m.DecisionNode:
        start = self.expect_kw("decision")
        node_id = self.expect(IDENT, "decision binding name").value
        self.expect_kw("on")
        subject = self.expect(IDENT, "artifact name").value
        return m.DecisionNode(node_id, self.span_from(start), subject)

    def parse_fork_join(self) -> m.ActivityNode:
        tok = self.advance()
        node_id = self.expect(IDENT, f"{tok.value} binding name").value
        span = self.span_from(tok)
        if tok.value == "fork":
            return m.ForkNode(node_id, span)
        if tok.value == "join":
            return m.JoinNode(node_id, span)
        return m.MergeNode(node_id, span)

    def parse_endpoint(self) -> tuple[str, Optional[str], Token]:
        """Returns (node id, datastore access, first token)."""
        tok = self.peek()
        if self.accept_kw("start"):
            return m.INITIAL_ID, None, tok
        if self.accept_kw("end"):
            return m.FINAL_ID, None, tok
        name_tok = self.expect(IDENT, "edge endpoint")
        if self.accept(DOT):
            access_tok = self.expect(IDENT, "'read' or 'write'")
            if access_tok.value not in ("read", "write"):
                raise self.fail("expected 'read' or 'write'", access_tok)
            return m.store_node_id(name_tok.value), access_tok.value, name_tok
        return name_tok.value, None, name_tok

    def parse_edge(self) -> m.ActivityEdge:
        src, src_access, src_tok = self.parse_endpoint()
        if src_access == "write":
            self.diags.append(
                error("P001", "a '.write' endpoint cannot start an edge",
                      self.token_span(src_tok))
            )
        self.expect(ARROW, "'->'")
        dst, dst_access, dst_tok = self.parse_endpoint()
        if dst_access == "read":
            self.diags.append(
                error("P001", "a '.read' endpoint cannot end an edge", self.token_span(dst_tok))
            )
        if src_access is not None and dst_access is not None:
            self.diags.append(
                error("P001", "an edge may touch at most one datastore endpoint",
                      self.token_span(dst_tok))
            )
        guard: Optional[m.Guard] = None
        if self.at(LBRACKET):
            guard = self.parse_guard()
        kind = m.EdgeKind.CONTROL
        if src_access == "read":
            kind = m.EdgeKind.STORE_READ
        elif dst_access == "write":
            kind = m.EdgeKind.STORE_WRITE
        return m.ActivityEdge(src, dst, guard, kind, self.span_from(src_tok))

    def parse_guard(self) -> m.Guard:
        start = self.expect(LBRACKET, "'['")
        if self.accept_kw("else"):
            self.expect(RBRACKET, "']'")
            return m.Guard(None, None, True, self.span_from(start))
        subject = self.expect(IDENT, "artifact name").value
        self.expect(EQEQ, "'=='")
        literal = self.expect(IDENT, "guard literal").value
        self.expect(RBRACKET, "']'")
        return m.Guard(subject, literal, False, self.span_from(start))

    def parse_prompt(self) -> m.PromptSpec:
        start = self.expect_kw("prompt")
        rows = self.block(self.prompt_rows, "a prompt row", "'static' or 'dynamic'")
        return m.PromptSpec(rows, self.span_from(start))

    def parse_prompt_row(self) -> m.PromptRow:
        start = self.advance()
        part = m.PromptPart.STATIC if start.value == "static" else m.PromptPart.TASK_SPECIFIC
        name = self.expect(IDENT, "prompt row name").value
        self.expect(EQ, "'='")
        template = self.expect(STRING, "prompt template string").value
        return m.PromptRow(part, name, template, self.span_from(start))

    def parse_identlist(self, what: str) -> tuple[str, ...]:
        names = [self.expect(IDENT, what).value]
        while self.accept(COMMA):
            names.append(self.expect(IDENT, what).value)
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
