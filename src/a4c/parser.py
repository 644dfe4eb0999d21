"""Recursive-descent parser producing a Model with source spans.

Error codes: P001 unexpected token, P002 unterminated string (lexer), P003
unknown keyword in a keyword position. On an error inside a section the
parser skips ahead to the next section boundary and keeps going, so one run
can report several independent mistakes. A Model is only returned when no
P-class error was recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import model as m
from .diagnostics import Diagnostic, SourceSpan, error, sort_diagnostics
from .lexer import (
    ARROW, COLON, COMMA, DOT, EOF, EQ, EQEQ, IDENT, KW, LBRACE, LBRACKET,
    RBRACE, RBRACKET, STRING, Comment, Token, tokenize,
)

SECTION_KEYWORDS = ("context", "deployment", "artifact", "llm", "tool", "agent")


@dataclass(frozen=True)
class ParseResult:
    model: Optional[m.Model]
    diagnostics: list[Diagnostic]
    comments: list[Comment] = field(default_factory=list)

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
    def __init__(self, tokens: list[Token], file: str):
        self.toks = tokens
        self.i = 0
        self.file = file
        self.diags: list[Diagnostic] = []
        self.source_map: dict[str, SourceSpan] = {}
        self._flow_counts: dict[tuple[str, str], int] = {}
        self._link_counts: dict[tuple[str, str], int] = {}

    # --- cursor helpers -------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.type != EOF:
            self.i += 1
        return tok

    def at(self, ttype: str) -> bool:
        return self.peek().type == ttype

    def at_kw(self, *names: str) -> bool:
        return self.peek().is_kw(*names)

    def fail(self, message: str, tok: Optional[Token] = None, code: str = "P001") -> _ParseError:
        tok = tok or self.peek()
        return _ParseError(error(code, message, tok.span))

    def expect(self, ttype: str, what: str) -> Token:
        tok = self.peek()
        if tok.type != ttype:
            raise self.fail(f"expected {what}, found {_describe(tok)}")
        return self.advance()

    def expect_kw(self, name: str) -> Token:
        tok = self.peek()
        if not tok.is_kw(name):
            raise self.fail(f"expected '{name}', found {_describe(tok)}")
        return self.advance()

    def unknown_keyword(self, expected: str) -> _ParseError:
        tok = self.peek()
        return self.fail(
            f"unknown keyword '{tok.value}' (expected {expected})", tok, code="P003"
        )

    def span_from(self, start: SourceSpan) -> SourceSpan:
        last = self.toks[max(self.i - 1, 0)]
        return SourceSpan(self.file, start.start, last.span.end)

    def register(self, elem_id: str, span: SourceSpan) -> None:
        self.source_map.setdefault(elem_id, span)

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
            elif tok.type == KW and tok.value in SECTION_KEYWORDS and depth == 0:
                return
            self.advance()

    # --- grammar --------------------------------------------------------

    def parse_model(self) -> Optional[m.Model]:
        tok = self.peek()
        if not tok.is_kw("model"):
            if tok.type == IDENT:
                self.diags.append(self.unknown_keyword("'model'").diag)
            else:
                self.diags.append(self.fail(f"expected 'model', found {_describe(tok)}").diag)
            return None
        start = self.advance().span
        try:
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
                self.diags.append(self.fail("expected '}', found end of file").diag)
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
            file=self.file,
            sections=tuple(sections),
            source_map=self.source_map,
            span=self.span_from(start),
        )

    def parse_section(self) -> m.Section:
        tok = self.peek()
        if tok.type == IDENT:
            raise self.unknown_keyword("one of: " + ", ".join(sorted(SECTION_KEYWORDS)))
        if tok.is_kw("context"):
            return self.parse_context()
        if tok.is_kw("deployment"):
            return self.parse_deployment()
        if tok.is_kw("artifact"):
            return self.parse_artifact()
        if tok.is_kw("llm"):
            return self.parse_llm()
        if tok.is_kw("tool"):
            return self.parse_tool()
        if tok.is_kw("agent"):
            return self.parse_agent()
        raise self.fail(f"expected a section, found {_describe(tok)}")

    def parse_context(self) -> m.ContextSection:
        start = self.expect_kw("context").span
        self.expect(LBRACE, "'{'")
        items: list[Union[m.Actor, m.ContextFlow]] = []
        while not self.at(RBRACE):
            tok = self.peek()
            if tok.type == EOF:
                raise self.fail("expected '}', found end of file")
            if tok.is_kw("system", "user", "external"):
                kind = m.ActorKind(self.advance().value)
                name_tok = self.expect(IDENT, "actor name")
                actor = m.Actor(kind, name_tok.value, self.span_from(tok.span))
                self.register(m.actor_id(actor.name), actor.span)
                items.append(actor)
            elif tok.is_kw("flow"):
                items.append(self.parse_flow())
            elif tok.type == IDENT:
                raise self.unknown_keyword("one of: external, flow, system, user")
            else:
                raise self.fail(f"expected a context item, found {_describe(tok)}")
        self.expect(RBRACE, "'}'")
        return m.ContextSection(tuple(items), self.span_from(start))

    def parse_flow(self) -> m.ContextFlow:
        start = self.expect_kw("flow").span
        src = self.expect(IDENT, "flow source").value
        self.expect(ARROW, "'->'")
        dst_tok = self.expect(IDENT, "flow target")
        if dst_tok.value == src:
            self.diags.append(error("P001", "flow target matches its source", dst_tok.span))
        self.expect(COLON, "':'")
        arts = self.parse_identlist("artifact name")
        occ = self._flow_counts.get((src, dst_tok.value), 0)
        self._flow_counts[(src, dst_tok.value)] = occ + 1
        flow = m.ContextFlow(src, dst_tok.value, arts, self.span_from(start), occ)
        self.register(m.flow_id(flow), flow.span)
        return flow

    def parse_artifact(self) -> m.ArtifactType:
        start = self.expect_kw("artifact").span
        name = self.expect(IDENT, "artifact name").value
        element: Optional[str] = None
        if self.at_kw("collection"):
            self.advance()
            self.expect_kw("of")
            element = self.expect(IDENT, "element artifact name").value
        art = m.ArtifactType(name, element, self.span_from(start))
        self.register(m.artifact_id(name), art.span)
        return art

    def parse_llm(self) -> m.LlmDecl:
        start = self.expect_kw("llm").span
        name = self.expect(IDENT, "llm name").value
        version: Optional[str] = None
        if self.at_kw("version"):
            self.advance()
            version = self.expect(STRING, "version string").value
        default = False
        if self.at_kw("default"):
            self.advance()
            default = True
        llm = m.LlmDecl(name, version, default, self.span_from(start))
        self.register(m.llm_id(name), llm.span)
        return llm

    def parse_tool(self) -> m.ToolDecl:
        start = self.expect_kw("tool").span
        name = self.expect(IDENT, "tool name").value
        external = False
        if self.at_kw("external"):
            self.advance()
            external = True
        tool = m.ToolDecl(name, external, self.span_from(start))
        self.register(m.tool_id(name), tool.span)
        return tool

    def parse_deployment(self) -> m.DeploymentSection:
        start = self.expect_kw("deployment").span
        self.expect(LBRACE, "'{'")
        items: list[Union[m.DeploymentNode, m.DeploymentLink]] = []
        while not self.at(RBRACE):
            tok = self.peek()
            if tok.type == EOF:
                raise self.fail("expected '}', found end of file")
            if tok.is_kw("node"):
                items.append(self.parse_deployment_node())
            elif tok.is_kw("link"):
                items.append(self.parse_link())
            elif tok.type == IDENT:
                raise self.unknown_keyword("one of: link, node")
            else:
                raise self.fail(f"expected a deployment item, found {_describe(tok)}")
        self.expect(RBRACE, "'}'")
        return m.DeploymentSection(tuple(items), self.span_from(start))

    def parse_deployment_node(self) -> m.DeploymentNode:
        start = self.expect_kw("node").span
        name = self.expect(IDENT, "node name").value
        external = False
        if self.at_kw("external"):
            self.advance()
            external = True
        self.expect(LBRACE, "'{'")
        hosts: tuple[str, ...] = ()
        if self.at_kw("hosts"):
            self.advance()
            hosts = self.parse_identlist("hosted element name")
        self.expect(RBRACE, "'}'")
        node = m.DeploymentNode(name, external, hosts, self.span_from(start))
        self.register(m.deployment_node_id(name), node.span)
        return node

    def parse_link(self) -> m.DeploymentLink:
        start = self.expect_kw("link").span
        src = self.expect(IDENT, "link source node").value
        self.expect(ARROW, "'->'")
        dst = self.expect(IDENT, "link target node").value
        self.expect(COLON, "':'")
        protocol = self.expect(STRING, "protocol string").value
        arts: tuple[str, ...] = ()
        if self.at(COLON):
            self.advance()
            arts = self.parse_identlist("artifact name")
        occ = self._link_counts.get((src, dst), 0)
        self._link_counts[(src, dst)] = occ + 1
        link = m.DeploymentLink(src, dst, protocol, arts, self.span_from(start), occ)
        self.register(m.link_id(link), link.span)
        return link

    def parse_agent(self) -> m.Agent:
        start = self.expect_kw("agent").span
        name = self.expect(IDENT, "agent name").value
        llm: Optional[str] = None
        if self.at_kw("llm"):
            self.advance()
            llm = self.expect(IDENT, "llm name").value
        self.expect(LBRACE, "'{'")
        members: list[Union[m.Datastore, m.Task]] = []
        while not self.at(RBRACE):
            tok = self.peek()
            if tok.type == EOF:
                raise self.fail("expected '}', found end of file")
            if tok.is_kw("store"):
                members.append(self.parse_store(name))
            elif tok.is_kw("task"):
                members.append(self.parse_task(name))
            elif tok.type == IDENT:
                raise self.unknown_keyword("one of: store, task")
            else:
                raise self.fail(f"expected an agent member, found {_describe(tok)}")
        self.expect(RBRACE, "'}'")
        agent = m.Agent(name, llm, tuple(members), self.span_from(start))
        self.register(m.agent_id(name), agent.span)
        return agent

    def parse_store(self, agent_name: str) -> m.Datastore:
        start = self.expect_kw("store").span
        name = self.expect(IDENT, "datastore name").value
        self.expect(COLON, "':'")
        artifact = self.expect(IDENT, "artifact name").value
        store = m.Datastore(name, artifact, self.span_from(start))
        self.register(m.store_elem_id(agent_name, name), store.span)
        return store

    def parse_task(self, agent_name: str) -> m.Task:
        start = self.expect_kw("task").span
        name = self.expect(IDENT, "task name").value
        self.expect(LBRACE, "'{'")
        inputs, outputs = self.parse_io()
        graph: Optional[m.ActivityGraph] = None
        if self.at_kw("body"):
            graph = self.parse_body(agent_name, name)
        prompt: Optional[m.PromptSpec] = None
        if self.at_kw("prompt"):
            prompt = self.parse_prompt(agent_name, name)
        self.expect(RBRACE, "'}'")
        task = m.Task(name, inputs, outputs, graph, prompt, self.span_from(start))
        self.register(m.task_id(agent_name, name), task.span)
        return task

    def parse_io(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        inputs: tuple[str, ...] = ()
        outputs: tuple[str, ...] = ()
        if self.at_kw("in"):
            self.advance()
            inputs = self.parse_identlist("input artifact name")
        if self.at_kw("out"):
            self.advance()
            outputs = self.parse_identlist("output artifact name")
        return inputs, outputs

    def parse_body(self, agent_name: str, task_name: str) -> m.ActivityGraph:
        start = self.expect_kw("body").span
        self.expect(LBRACE, "'{'")
        statements: list[Union[m.ActivityNode, m.ActivityEdge]] = []
        while not self.at(RBRACE):
            tok = self.peek()
            if tok.type == EOF:
                raise self.fail("expected '}', found end of file")
            if tok.is_kw("call"):
                statements.append(self.parse_call(agent_name, task_name))
            elif tok.is_kw("invoke"):
                statements.append(self.parse_invoke(agent_name, task_name))
            elif tok.is_kw("decision"):
                statements.append(self.parse_decision(agent_name, task_name))
            elif tok.is_kw("fork", "join", "merge"):
                statements.append(self.parse_fork_join(agent_name, task_name))
            elif tok.type == IDENT or tok.is_kw("start", "end"):
                statements.append(self.parse_edge())
            else:
                raise self.fail(f"expected a body statement, found {_describe(tok)}")
        self.expect(RBRACE, "'}'")
        return self.assemble_graph(statements, self.span_from(start))

    def parse_call(self, agent_name: str, task_name: str) -> m.CallNode:
        start = self.expect_kw("call").span
        node_id = self.expect(IDENT, "call binding name").value
        self.expect(EQ, "'='")
        task = self.expect(IDENT, "task name").value
        agent: Optional[str] = None
        if self.at_kw("on"):
            self.advance()
            agent = self.expect(IDENT, "agent name").value
        each: Optional[str] = None
        if self.at_kw("each"):
            self.advance()
            each = self.expect(IDENT, "collection artifact name").value
        self.expect(LBRACE, "'{'")
        inputs, outputs = self.parse_io()
        self.expect(RBRACE, "'}'")
        node = m.CallNode(node_id, self.span_from(start), task, agent, each, inputs, outputs)
        self.register(m.activity_node_id(agent_name, task_name, node_id), node.span)
        return node

    def parse_invoke(self, agent_name: str, task_name: str) -> m.InvokeNode:
        start = self.expect_kw("invoke").span
        node_id = self.expect(IDENT, "invoke binding name").value
        self.expect(EQ, "'='")
        tool = self.expect(IDENT, "tool name").value
        self.expect(DOT, "'.'")
        op = self.expect(IDENT, "operation name").value
        self.expect(LBRACE, "'{'")
        inputs, outputs = self.parse_io()
        self.expect(RBRACE, "'}'")
        node = m.InvokeNode(node_id, self.span_from(start), tool, op, inputs, outputs)
        self.register(m.activity_node_id(agent_name, task_name, node_id), node.span)
        return node

    def parse_decision(self, agent_name: str, task_name: str) -> m.DecisionNode:
        start = self.expect_kw("decision").span
        node_id = self.expect(IDENT, "decision binding name").value
        self.expect_kw("on")
        subject = self.expect(IDENT, "artifact name").value
        node = m.DecisionNode(node_id, self.span_from(start), subject)
        self.register(m.activity_node_id(agent_name, task_name, node_id), node.span)
        return node

    def parse_fork_join(self, agent_name: str, task_name: str) -> m.ActivityNode:
        tok = self.advance()
        node_id = self.expect(IDENT, f"{tok.value} binding name").value
        span = self.span_from(tok.span)
        node: m.ActivityNode
        if tok.value == "fork":
            node = m.ForkNode(node_id, span)
        elif tok.value == "join":
            node = m.JoinNode(node_id, span)
        else:
            node = m.MergeNode(node_id, span)
        self.register(m.activity_node_id(agent_name, task_name, node_id), node.span)
        return node

    def parse_endpoint(self) -> tuple[str, Optional[str], Token]:
        """Returns (node id, datastore access, first token)."""
        tok = self.peek()
        if tok.is_kw("start"):
            self.advance()
            return m.INITIAL_ID, None, tok
        if tok.is_kw("end"):
            self.advance()
            return m.FINAL_ID, None, tok
        name_tok = self.expect(IDENT, "edge endpoint")
        if self.at(DOT):
            self.advance()
            access_tok = self.expect(IDENT, "'read' or 'write'")
            if access_tok.value not in ("read", "write"):
                raise self.fail("expected 'read' or 'write'", access_tok)
            return m.store_node_id(name_tok.value), access_tok.value, name_tok
        return name_tok.value, None, name_tok

    def parse_edge(self) -> m.ActivityEdge:
        src, src_access, src_tok = self.parse_endpoint()
        if src_access == "write":
            self.diags.append(
                error("P001", "a '.write' endpoint cannot start an edge", src_tok.span)
            )
        self.expect(ARROW, "'->'")
        dst, dst_access, dst_tok = self.parse_endpoint()
        if dst_access == "read":
            self.diags.append(
                error("P001", "a '.read' endpoint cannot end an edge", dst_tok.span)
            )
        if src_access is not None and dst_access is not None:
            self.diags.append(
                error("P001", "an edge may touch at most one datastore endpoint", dst_tok.span)
            )
        guard: Optional[m.Guard] = None
        if self.at(LBRACKET):
            guard = self.parse_guard()
        kind = m.EdgeKind.CONTROL
        if src_access == "read":
            kind = m.EdgeKind.STORE_READ
        elif dst_access == "write":
            kind = m.EdgeKind.STORE_WRITE
        span = SourceSpan(self.file, src_tok.span.start, self.toks[self.i - 1].span.end)
        return m.ActivityEdge(src, dst, guard, kind, span)

    def parse_guard(self) -> m.Guard:
        start = self.expect(LBRACKET, "'['").span
        if self.at_kw("else"):
            self.advance()
            self.expect(RBRACKET, "']'")
            return m.Guard(None, None, True, self.span_from(start))
        subject = self.expect(IDENT, "artifact name").value
        self.expect(EQEQ, "'=='")
        literal = self.expect(IDENT, "guard literal").value
        self.expect(RBRACKET, "']'")
        return m.Guard(subject, literal, False, self.span_from(start))

    def parse_prompt(self, agent_name: str, task_name: str) -> m.PromptSpec:
        start = self.expect_kw("prompt").span
        self.expect(LBRACE, "'{'")
        rows: list[m.PromptRow] = []
        while not self.at(RBRACE):
            tok = self.peek()
            if tok.type == EOF:
                raise self.fail("expected '}', found end of file")
            if tok.is_kw("static", "dynamic"):
                self.advance()
                part = m.PromptPart.STATIC if tok.value == "static" else m.PromptPart.TASK_SPECIFIC
                name = self.expect(IDENT, "prompt row name").value
                self.expect(EQ, "'='")
                template = self.expect(STRING, "prompt template string").value
                row = m.PromptRow(part, name, template, self.span_from(tok.span))
                self.register(m.prompt_row_id(agent_name, task_name, name), row.span)
                rows.append(row)
            elif tok.type == IDENT:
                raise self.unknown_keyword("'static' or 'dynamic'")
            else:
                raise self.fail(f"expected a prompt row, found {_describe(tok)}")
        self.expect(RBRACE, "'}'")
        return m.PromptSpec(tuple(rows), self.span_from(start))

    def parse_identlist(self, what: str) -> tuple[str, ...]:
        names = [self.expect(IDENT, what).value]
        while self.at(COMMA):
            self.advance()
            names.append(self.expect(IDENT, what).value)
        return tuple(names)

    # --- graph assembly ---------------------------------------------------

    def assemble_graph(
        self,
        statements: list[Union[m.ActivityNode, m.ActivityEdge]],
        span: SourceSpan,
    ) -> m.ActivityGraph:
        nodes: list[m.ActivityNode] = [m.InitialNode(m.INITIAL_ID, span), m.FinalNode(m.FINAL_ID, span)]
        edges: list[m.ActivityEdge] = []
        seen_stores: dict[str, m.StoreNode] = {}
        for st in statements:
            if isinstance(st, m.ActivityNode):
                nodes.append(st)
            else:
                edges.append(st)
                for endpoint in (st.source, st.target):
                    if m.is_store_node_id(endpoint) and endpoint not in seen_stores:
                        seen_stores[endpoint] = m.StoreNode(
                            endpoint, st.span, m.store_name_of(endpoint)
                        )
        nodes.extend(seen_stores.values())
        if not statements:
            edges.append(
                m.ActivityEdge(
                    m.INITIAL_ID, m.FINAL_ID, None, m.EdgeKind.CONTROL, span, synthetic=True
                )
            )
        return m.ActivityGraph(tuple(statements), tuple(nodes), tuple(edges), span)


def parse(text: str, file: str = "<input>") -> ParseResult:
    """Parse one model file; the model is present iff no P-class error occurred."""
    lex = tokenize(text, file)
    parser = _Parser(lex.tokens, file)
    parser.diags.extend(lex.diagnostics)
    parsed = parser.parse_model()
    diags = sort_diagnostics(parser.diags)
    if any(d.code.startswith("P") for d in diags):
        return ParseResult(None, diags, lex.comments)
    return ParseResult(parsed, diags, lex.comments)
