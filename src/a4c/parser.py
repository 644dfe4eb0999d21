"""Recursive-descent parser producing a Model with source spans.

Error codes: P001 unexpected token, P002 unterminated string (lexer), P003
unknown keyword in a keyword position. After an error in an item of a
``{ ... }`` block, parsing resumes at the next item of the same block that
begins a line, or at that block's ``}``, so one run can report several
independent mistakes; a file that ends inside blocks reports the missing
``}`` once. A Model is only returned when no P-class error was recorded.

The parser reads the lexer's token columns by index; a span is made from
two offsets only where an element or a diagnostic needs one, its start
worked out from the token's end by ``LexResult.start``. A string token's
value is its text, quotes and escapes included; the four items that read
one (the model name, an llm's version, a link's protocol and a prompt row's
template) keep the string it denotes, from ``lexer.string_value``. Its cost
follows items, not tokens. ``_Parser.block`` reads every ``{ ... }`` block,
the model's included: its loop looks up the type of each item's leading
token in the block's table and calls the method listed there with the
item's index. A keyword's type is the keyword itself (IDENT marks a plain
word), so the type column alone tells every keyword apart, and no code
reads a token's text to find out which keyword it is. The item method
checks the fixed run of tokens after the keyword, such as ``IDENT = IDENT``
after ``call``, with one comparison of a slice of the type column against a
``_Run`` constant; optional parts, keywords included, are tested one token
type at a time, and a list ``a, b, c`` is one stepped slice.
A wrong token is reported by ``expected``, which moves the cursor onto it
and builds P001 ``expected <what>, found <token>``; after a failed run
comparison, ``mismatch`` finds the run's first wrong token and what it wants
there. So each item has one code path, whichever token is wrong.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import model as m
from .diagnostics import Diagnostic, SourceSpan, error, line_of, sort_diagnostics
from .lexer import (
    ARROW, COLON, COMMA, DOT, EOF, EQ, EQEQ, IDENT, KEYWORDS, LBRACE, LBRACKET,
    RBRACE, RBRACKET, STRING, Comment, LexResult, string_value, tokenize,
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
    if ttype in KEYWORDS:
        return f"keyword '{value}'"
    if ttype == IDENT:
        return f"identifier '{value}'"
    if ttype == STRING:
        return "string literal"
    return f"'{value}'"


class _Run(list):
    """A fixed run of tokens: the list of their types (a keyword's type is
    the keyword), and in ``wants`` per token what P001 names as expected there."""

    def __init__(self, *wants: tuple[str, str]):
        super().__init__(ttype for ttype, _ in wants)
        self.wants = [what for _, what in wants]


_FLOW = _Run((IDENT, "flow source"), (ARROW, "'->'"), (IDENT, "flow target"))
_OF = _Run(("of", "'of'"), (IDENT, "element artifact name"))
_LINK = _Run((IDENT, "link source node"), (ARROW, "'->'"), (IDENT, "link target node"),
             (COLON, "':'"), (STRING, "protocol string"))
_STORE = _Run((IDENT, "datastore name"), (COLON, "':'"), (IDENT, "artifact name"))
_TASK = _Run((IDENT, "task name"), (LBRACE, "'{'"))
_CALL = _Run((IDENT, "call binding name"), (EQ, "'='"), (IDENT, "task name"))
_INVOKE = _Run((IDENT, "invoke binding name"), (EQ, "'='"), (IDENT, "tool name"),
               (DOT, "'.'"), (IDENT, "operation name"), (LBRACE, "'{'"))
_DECISION = _Run((IDENT, "decision binding name"), ("on", "'on'"), (IDENT, "artifact name"))
_GUARD = _Run((IDENT, "artifact name"), (EQEQ, "'=='"), (IDENT, "guard literal"),
              (RBRACKET, "']'"))
_ROW = _Run((IDENT, "prompt row name"), (EQ, "'='"), (STRING, "prompt template string"))
_ENDS = {"start": m.INITIAL_ID, "end": m.FINAL_ID}


class _Parser:
    def __init__(self, lex: LexResult):
        # token k is entry k of each column; self.i is the next token
        self.types = lex.types
        self.values = lex.values
        self.ends = lex.ends
        self.start = lex.start
        self.file = lex.file
        self.line_starts = lex.line_starts
        self.i = 0
        self.diags: list[Diagnostic] = list(lex.diagnostics)
        self._flow_counts: dict[tuple[str, str], int] = {}
        self._link_counts: dict[tuple[str, str], int] = {}

    # --- blocks, errors and spans ------------------------------------------
    # They name a token by its index, never by a record; its text is
    # ``self.values[i]``. An item method gets the index of its first token
    # and leaves ``self.i`` past its last one.

    def block(self, i: int, parsers: dict[str, Callable], what: str,
              expected: Optional[str] = None) -> tuple:
        """The items of the ``{ ... }`` block that opens at token ``i``. After
        an error in an item, reading resumes at the next item of this block
        that begins a line, or at its ``}`` (``skip_item``). An error at end
        of file, such as a missing ``}``, goes up to ``parse_model``
        unrecorded, so it is reported once."""
        types = self.types
        if types[i] != LBRACE:
            raise self.expected(i, "'{'")
        self.i = i + 1
        items = []
        while True:
            i = self.i
            ttype = types[i]
            if ttype == RBRACE:
                self.i = i + 1
                return tuple(items)
            if ttype == EOF:
                raise self.expected(i, "'}'")
            parse = parsers.get(ttype)
            try:
                if parse is None:
                    raise self.wrong_item(i, what, expected)
                items.append(parse(self, i))
            except _ParseError as e:
                if types[self.i] == EOF:
                    raise
                self.diags.append(e.diag)
                self.skip_item(parsers, i)

    def skip_item(self, parsers: dict[str, Callable], start: int) -> None:
        """Panic recovery after a broken item that began at token ``start``:
        move to the ``}`` that closes the block, or to the next token at the
        block's depth that can start one of its items and begins a line."""
        types, ends, line_starts = self.types, self.ends, self.line_starts
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
            elif (depth == 0 and i > start and ttype in parsers
                  and line_of(line_starts, self.start(i)) > line_of(line_starts, ends[i - 1])):
                break
            i += 1
        self.i = i

    def wrong_item(self, i: int, what: str, expected: Optional[str]) -> _ParseError:
        """The error for token ``i``, which starts no item: P003 for a plain
        word when ``expected`` lists the keywords, else P001."""
        if self.types[i] == IDENT and expected is not None:
            return self.fail(f"unknown keyword '{self.values[i]}' (expected {expected})", i, "P003")
        return self.expected(i, what)

    def fail(self, message: str, i: int, code: str = "P001") -> _ParseError:
        """A ``code`` error at token ``i``."""
        return _ParseError(error(code, message, self.token_span(i)))

    def expected(self, i: int, what: str) -> _ParseError:
        """P001 at token ``i``, not the ``what`` expected; the cursor moves there."""
        self.i = i
        return self.fail(f"expected {what}, found {_describe(self.types[i], self.values[i])}", i)

    def mismatch(self, i: int, run: _Run) -> _ParseError:
        """``expected`` at the first token from ``i`` on that breaks ``run``."""
        types = self.types
        k = 0
        while types[i + k] == run[k]:
            k += 1
        return self.expected(i + k, run.wants[k])

    def note(self, message: str, i: int) -> None:
        """Record P001 at token ``i`` and read on."""
        self.diags.append(error("P001", message, self.token_span(i)))

    def option(self, j: int, keyword: str, ttype: str, what: str) -> tuple[Optional[str], int]:
        """``keyword`` and then a ``ttype`` token, if token ``j`` is that
        keyword: the token's text, or None, and the index after them."""
        types = self.types
        if types[j] != keyword:
            return None, j
        if types[j + 1] != ttype:
            raise self.expected(j + 1, what)
        return self.values[j + 1], j + 2

    def identlist(self, i: int, what: str) -> tuple[str, ...]:
        """The names of a list ``a, b, ...`` that starts at token ``i``."""
        types = self.types
        if types[i] != IDENT:
            raise self.expected(i, what)
        j = i + 1
        while types[j] == COMMA:
            if types[j + 1] != IDENT:
                raise self.expected(j + 1, what)
            j += 2
        self.i = j
        return tuple(self.values[i:j:2])

    def token_span(self, i: int) -> SourceSpan:
        return tuple.__new__(SourceSpan, (self.file, self.start(i), self.ends[i],
                                          self.line_starts))

    def span_from(self, start: int) -> SourceSpan:
        """From the start of token ``start`` to the end of the last consumed
        token, built in place as ``LexResult.span`` does."""
        return tuple.__new__(SourceSpan, (self.file, self.start(start), self.ends[self.i - 1],
                                          self.line_starts))

    # --- grammar --------------------------------------------------------

    def parse_model(self) -> Optional[m.Model]:
        types, values = self.types, self.values
        try:
            if types[0] != "model":
                raise self.wrong_item(0, "'model'", "'model'")
            if types[1] != STRING:
                raise self.expected(1, "model name string")
            sections = self.block(2, self.sections, "a section", self.section_keywords)
            if types[self.i] != EOF:
                raise self.expected(self.i, "end of file")
        except _ParseError as e:
            self.diags.append(e.diag)
            return None
        return m.Model(name=string_value(values[1]), file=self.file, sections=sections,
                       span=self.span_from(0))

    def parse_context(self, i: int) -> m.ContextSection:
        return m.ContextSection(self.block(i + 1, self.context_items, "a context item",
                                           "one of: external, flow, system, user"),
                                self.span_from(i))

    def parse_actor(self, i: int) -> m.Actor:
        if self.types[i + 1] != IDENT:
            raise self.expected(i + 1, "actor name")
        self.i = i + 2
        return m.Actor(m.ActorKind(self.values[i]), self.values[i + 1], self.span_from(i))

    def parse_flow(self, i: int) -> m.ContextFlow:
        types, values = self.types, self.values
        if types[i + 1:i + 4] != _FLOW:
            raise self.mismatch(i + 1, _FLOW)
        src, dst = values[i + 1], values[i + 3]
        if dst == src:
            self.note("flow target matches its source", i + 3)
        if types[i + 4] != COLON:
            raise self.expected(i + 4, "':'")
        arts = self.identlist(i + 5, "artifact name")
        occ = self._flow_counts.get((src, dst), 0)
        self._flow_counts[(src, dst)] = occ + 1
        return m.ContextFlow(src, dst, arts, self.span_from(i), occ)

    def parse_artifact(self, i: int) -> m.ArtifactType:
        types, values = self.types, self.values
        if types[i + 1] != IDENT:
            raise self.expected(i + 1, "artifact name")
        element: Optional[str] = None
        j = i + 2
        if types[j] == "collection":
            if types[j + 1:j + 3] != _OF:
                raise self.mismatch(j + 1, _OF)
            element = values[j + 2]
            j += 3
        self.i = j
        return m.ArtifactType(values[i + 1], element, self.span_from(i))

    def parse_llm(self, i: int) -> m.LlmDecl:
        types, values = self.types, self.values
        if types[i + 1] != IDENT:
            raise self.expected(i + 1, "llm name")
        version, j = self.option(i + 2, "version", STRING, "version string")
        default = types[j] == "default"
        self.i = j + default
        return m.LlmDecl(values[i + 1], version and string_value(version), default,
                         self.span_from(i))

    def parse_tool(self, i: int) -> m.ToolDecl:
        types, values = self.types, self.values
        if types[i + 1] != IDENT:
            raise self.expected(i + 1, "tool name")
        external = types[i + 2] == "external"
        self.i = i + 2 + external
        return m.ToolDecl(values[i + 1], external, self.span_from(i))

    def parse_deployment(self, i: int) -> m.DeploymentSection:
        return m.DeploymentSection(self.block(i + 1, self.deployment_items, "a deployment item",
                                              "one of: link, node"), self.span_from(i))

    def parse_deployment_node(self, i: int) -> m.DeploymentNode:
        types, values = self.types, self.values
        if types[i + 1] != IDENT:
            raise self.expected(i + 1, "node name")
        external = types[i + 2] == "external"
        j = i + 2 + external
        if types[j] != LBRACE:
            raise self.expected(j, "'{'")
        self.i = j + 1
        hosts = (self.identlist(j + 2, "hosted element name")
                 if types[j + 1] == "hosts" else ())
        self.close(self.i)
        return m.DeploymentNode(values[i + 1], external, hosts, self.span_from(i))

    def parse_link(self, i: int) -> m.DeploymentLink:
        types, values = self.types, self.values
        if types[i + 1:i + 6] != _LINK:
            raise self.mismatch(i + 1, _LINK)
        src, dst = values[i + 1], values[i + 3]
        self.i = i + 6
        arts = self.identlist(i + 7, "artifact name") if types[i + 6] == COLON else ()
        occ = self._link_counts.get((src, dst), 0)
        self._link_counts[(src, dst)] = occ + 1
        return m.DeploymentLink(src, dst, string_value(values[i + 5]), arts, self.span_from(i),
                                occ)

    def parse_agent(self, i: int) -> m.Agent:
        types, values = self.types, self.values
        if types[i + 1] != IDENT:
            raise self.expected(i + 1, "agent name")
        llm, j = self.option(i + 2, "llm", IDENT, "llm name")
        members = self.block(j, self.agent_members, "an agent member", "one of: store, task")
        return m.Agent(values[i + 1], llm, members, self.span_from(i))

    def parse_store(self, i: int) -> m.Datastore:
        if self.types[i + 1:i + 4] != _STORE:
            raise self.mismatch(i + 1, _STORE)
        self.i = i + 4
        return m.Datastore(self.values[i + 1], self.values[i + 3], self.span_from(i))

    def parse_task(self, i: int) -> m.Task:
        types, values = self.types, self.values
        if types[i + 1:i + 3] != _TASK:
            raise self.mismatch(i + 1, _TASK)
        inputs, outputs = self.parse_io(i + 3)
        j = self.i
        graph = self.parse_body(j) if types[j] == "body" else None
        j = self.i
        prompt = self.parse_prompt(j) if types[j] == "prompt" else None
        self.close(self.i)
        return m.Task(values[i + 1], inputs, outputs, graph, prompt, self.span_from(i))

    def parse_io(self, i: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The optional ``in`` and ``out`` lists from token ``i`` on."""
        types = self.types
        inputs = outputs = ()
        self.i = i
        if types[i] == "in":
            inputs = self.identlist(i + 1, "input artifact name")
        if types[self.i] == "out":
            outputs = self.identlist(self.i + 1, "output artifact name")
        return inputs, outputs

    def close(self, i: int) -> None:
        """The ``}`` of an item's own braces, at token ``i``."""
        if self.types[i] != RBRACE:
            raise self.expected(i, "'}'")
        self.i = i + 1

    def parse_body(self, i: int) -> m.ActivityGraph:
        return m.ActivityGraph(self.block(i + 1, self.body_statements, "a body statement"),
                               self.span_from(i))

    def parse_call(self, i: int) -> m.CallNode:
        types, values = self.types, self.values
        if types[i + 1:i + 4] != _CALL:
            raise self.mismatch(i + 1, _CALL)
        agent, j = self.option(i + 4, "on", IDENT, "agent name")
        each, j = self.option(j, "each", IDENT, "collection artifact name")
        if types[j] != LBRACE:
            raise self.expected(j, "'{'")
        inputs, outputs = self.parse_io(j + 1)
        self.close(self.i)
        return m.CallNode(values[i + 1], self.span_from(i), values[i + 3], agent, each,
                          inputs, outputs)

    def parse_invoke(self, i: int) -> m.InvokeNode:
        if self.types[i + 1:i + 7] != _INVOKE:
            raise self.mismatch(i + 1, _INVOKE)
        inputs, outputs = self.parse_io(i + 7)
        self.close(self.i)
        values = self.values
        return m.InvokeNode(values[i + 1], self.span_from(i), values[i + 3], values[i + 5],
                            inputs, outputs)

    def parse_decision(self, i: int) -> m.DecisionNode:
        if self.types[i + 1:i + 4] != _DECISION:
            raise self.mismatch(i + 1, _DECISION)
        self.i = i + 4
        values = self.values
        return m.DecisionNode(values[i + 1], self.span_from(i), values[i + 3])

    def parse_bar(self, i: int) -> m.ActivityNode:
        kind = self.types[i]
        if self.types[i + 1] != IDENT:
            raise self.expected(i + 1, f"{kind} binding name")
        self.i = i + 2
        return m.BAR_NODES[kind](self.values[i + 1], self.span_from(i))

    def parse_endpoint(self, i: int) -> tuple[str, Optional[str], int]:
        """The edge endpoint at token ``i``: (node id, datastore access, the
        index of the token after it)."""
        types, values = self.types, self.values
        if types[i] != IDENT:
            if types[i] in _ENDS:
                return _ENDS[types[i]], None, i + 1
            raise self.expected(i, "edge endpoint")
        if types[i + 1] != DOT:
            return values[i], None, i + 1
        if types[i + 2] != IDENT:
            raise self.expected(i + 2, "'read' or 'write'")
        if values[i + 2] not in ("read", "write"):
            self.i = i + 3
            raise self.fail("expected 'read' or 'write'", i + 2)
        return m.store_node_id(values[i]), values[i + 2], i + 3

    def parse_edge(self, i: int) -> m.ActivityEdge:
        src, src_access, j = self.parse_endpoint(i)
        if src_access == "write":
            self.note("a '.write' endpoint cannot start an edge", i)
        if self.types[j] != ARROW:
            raise self.expected(j, "'->'")
        dst, dst_access, self.i = self.parse_endpoint(j + 1)
        if dst_access == "read":
            self.note("a '.read' endpoint cannot end an edge", j + 1)
        if src_access is not None and dst_access is not None:
            self.note("an edge may touch at most one datastore endpoint", j + 1)
        guard = self.parse_guard(self.i) if self.types[self.i] == LBRACKET else None
        kind = (m.EdgeKind.STORE_READ if src_access == "read" else
                m.EdgeKind.STORE_WRITE if dst_access == "write" else m.EdgeKind.CONTROL)
        return m.ActivityEdge(src, dst, guard, kind, self.span_from(i))

    def parse_guard(self, i: int) -> m.Guard:
        types, values = self.types, self.values
        if types[i + 1] == "else":
            if types[i + 2] != RBRACKET:
                raise self.expected(i + 2, "']'")
            self.i = i + 3
            return m.Guard(None, None, True, self.span_from(i))
        if types[i + 1:i + 5] != _GUARD:
            raise self.mismatch(i + 1, _GUARD)
        self.i = i + 5
        return m.Guard(values[i + 1], values[i + 3], False, self.span_from(i))

    def parse_prompt(self, i: int) -> m.PromptSpec:
        return m.PromptSpec(self.block(i + 1, self.prompt_rows, "a prompt row",
                                       "'static' or 'dynamic'"), self.span_from(i))

    def parse_prompt_row(self, i: int) -> m.PromptRow:
        if self.types[i + 1:i + 4] != _ROW:
            raise self.mismatch(i + 1, _ROW)
        self.i = i + 4
        part = m.PromptPart.STATIC if self.types[i] == "static" else m.PromptPart.TASK_SPECIFIC
        values = self.values
        return m.PromptRow(part, values[i + 1], string_value(values[i + 3]), self.span_from(i))

    # --- block items ----------------------------------------------------
    # Each table maps an item's leading keyword, or IDENT for a plain word,
    # to the method that reads the item; ``block`` calls it with the parser
    # and the index of that token.

    sections = {"agent": parse_agent, "artifact": parse_artifact, "context": parse_context,
                "deployment": parse_deployment, "llm": parse_llm, "tool": parse_tool}
    section_keywords = "one of: " + ", ".join(sorted(sections))
    context_items = {"external": parse_actor, "flow": parse_flow,
                     "system": parse_actor, "user": parse_actor}
    deployment_items = {"link": parse_link, "node": parse_deployment_node}
    agent_members = {"store": parse_store, "task": parse_task}
    body_statements = {IDENT: parse_edge, "start": parse_edge, "end": parse_edge,
                       "call": parse_call, "invoke": parse_invoke, "decision": parse_decision,
                       "fork": parse_bar, "join": parse_bar, "merge": parse_bar}
    prompt_rows = {"dynamic": parse_prompt_row, "static": parse_prompt_row}


def parse(text: str, file: str = "<input>") -> ParseResult:
    """Parse one model file; the model is present iff no P-class error occurred."""
    lex = tokenize(text, file)
    parser = _Parser(lex)
    parsed = parser.parse_model()
    diags = sort_diagnostics(parser.diags)
    failed = any(d.code.startswith("P") for d in diags)
    return ParseResult(None if failed else parsed, diags, lex.comments)
