"""Canonical source formatter.

`canonical_format` reprints a file in one fixed layout: two-space indent,
one declaration or statement per line, single blank lines between block
sections, no reordering. Formatting is idempotent and structure-preserving:
the formatted text parses back to a model with an equal `fingerprint`.

Comments survive. A comment is reattached to the first declaration that
starts after it (printed on its own line just above), or kept at the end of
the line it shares with a declaration. Comments inside a task header move
below the in/out lines; they stay inside their block.

The emitter keeps the current indent as a string. A line costs one append,
and reads no position off a span, when no comment is left to place or the
line has no span from the source (an ``in``/``out`` line, or a model built
by hand). Otherwise the comments that start before it go above it first,
and one that starts on its line goes at its end.
"""

from __future__ import annotations

from typing import Optional, Union

from . import model as m
from .diagnostics import SYNTHETIC, Diagnostic, Position, error
from .lexer import Comment, escape_string
from .parser import parse


class FormatError(Exception):
    """Raised when input cannot be formatted because it does not parse."""

    def __init__(self, causes: list[Diagnostic]):
        first = causes[0].span if causes else SYNTHETIC
        message = "cannot format: input does not parse"
        self.diagnostic = error("F001", message, first)
        self.causes = causes
        super().__init__(message)


def canonical_format(text: str, file: str = "<input>") -> str:
    result = parse(text, file)
    if result.model is None:
        raise FormatError(result.diagnostics)
    return _emit(result.model, result.comments)


def parse_roundtrip(model: m.Model) -> str:
    """Canonical text of an already-parsed model, comments dropped."""
    return _emit(model, [])


# --- emitter -------------------------------------------------------------------

class _Emitter:
    def __init__(self, comments: list[Comment]):
        self.lines: list[str] = []
        # each comment with its start, worked out once: no two comments share one
        self.queue = sorted((c.span.start, c) for c in comments)
        self.pos = 0
        self.pad = ""  # the indent of the next line

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    @staticmethod
    def _comment_line(c: Comment) -> str:
        body = c.text.strip()
        return f"// {body}" if body else "//"

    def flush(self, before: Optional[Position] = None) -> None:
        """Print each queued comment that starts before ``before``, or every
        one, on a line of its own."""
        while self.pos < len(self.queue) and (before is None or self.queue[self.pos][0] < before):
            self.lines.append(self.pad + self._comment_line(self.queue[self.pos][1]))
            self.pos += 1

    def _take_trailing(self, line: int, min_pos: Optional[Position] = None) -> str:
        if self.pos < len(self.queue):
            start, c = self.queue[self.pos]
            if start.line == line and (min_pos is None or not (start < min_pos)):
                self.pos += 1
                return " " + self._comment_line(c)
        return ""

    def blank(self) -> None:
        if self.lines and self.lines[-1] != "":
            self.lines.append("")

    def line(self, content: str, span=None) -> None:
        if self.pos == len(self.queue) or span is None or span.is_synthetic:
            self.lines.append(self.pad + content)
            return
        start = span.start
        self.flush(start)
        self.lines.append(self.pad + content + self._take_trailing(start.line))

    def open(self, content: str, span=None) -> None:
        self.line(content, span)
        self.pad += "  "

    def close(self, span=None) -> None:
        trailing = ""
        if self.pos < len(self.queue) and span is not None and not span.is_synthetic:
            end = span.end
            self.flush(end)
            trailing = self._take_trailing(end.line, end)
        self.pad = self.pad[2:]
        self.lines.append(self.pad + "}" + trailing)


def _emit(model: m.Model, comments: list[Comment]) -> str:
    e = _Emitter(comments)
    e.open(f"model {escape_string(model.name)} {{", model.span)
    previous: Optional[m.Section] = None
    for section in model.sections:
        if previous is not None and not _same_group(previous, section):
            e.blank()
        _emit_section(e, section)
        previous = section
    e.close(model.span)
    e.flush()
    return e.text()


def _same_group(a: m.Section, b: m.Section) -> bool:
    simple = (m.ArtifactType, m.LlmDecl, m.ToolDecl)
    return isinstance(a, simple) and isinstance(b, simple) and type(a) is type(b)


def _emit_section(e: _Emitter, section: m.Section) -> None:
    if isinstance(section, m.ContextSection):
        e.open("context {", section.span)
        for item in section.items:
            if isinstance(item, m.Actor):
                e.line(f"{item.kind} {item.name}", item.span)
            else:
                arts = ", ".join(item.artifacts)
                e.line(f"flow {item.source} -> {item.target} : {arts}", item.span)
        e.close(section.span)
    elif isinstance(section, m.ArtifactType):
        suffix = f" collection of {section.element_type}" if section.is_collection else ""
        e.line(f"artifact {section.name}{suffix}", section.span)
    elif isinstance(section, m.LlmDecl):
        parts = [f"llm {section.name}"]
        if section.version is not None:
            parts.append(f"version {escape_string(section.version)}")
        if section.default:
            parts.append("default")
        e.line(" ".join(parts), section.span)
    elif isinstance(section, m.ToolDecl):
        suffix = " external" if section.external else ""
        e.line(f"tool {section.name}{suffix}", section.span)
    elif isinstance(section, m.DeploymentSection):
        e.open("deployment {", section.span)
        for item in section.items:
            if isinstance(item, m.DeploymentNode):
                _emit_node(e, item)
            else:
                _emit_link(e, item)
        e.close(section.span)
    elif isinstance(section, m.Agent):
        _emit_agent(e, section)
    else:
        raise TypeError(type(section).__name__)


def _emit_node(e: _Emitter, node: m.DeploymentNode) -> None:
    ext = " external" if node.external else ""
    if node.hosts:
        e.open(f"node {node.name}{ext} {{", node.span)
        e.line(f"hosts {', '.join(node.hosts)}")
        e.close(node.span)
    else:
        e.line(f"node {node.name}{ext} {{ }}", node.span)


def _emit_link(e: _Emitter, link: m.DeploymentLink) -> None:
    text = f"link {link.source} -> {link.target} : {escape_string(link.protocol)}"
    if link.artifacts:
        text += f" : {', '.join(link.artifacts)}"
    e.line(text, link.span)


def _emit_agent(e: _Emitter, agent: m.Agent) -> None:
    header = f"agent {agent.name}"
    if agent.llm is not None:
        header += f" llm {agent.llm}"
    e.open(header + " {", agent.span)
    previous: Optional[Union[m.Datastore, m.Task]] = None
    for member in agent.members:
        if previous is not None and not (
            isinstance(previous, m.Datastore) and isinstance(member, m.Datastore)
        ):
            e.blank()
        if isinstance(member, m.Datastore):
            e.line(f"store {member.name} : {member.artifact}", member.span)
        else:
            _emit_task(e, member)
        previous = member
    e.close(agent.span)


def _emit_task(e: _Emitter, task: m.Task) -> None:
    e.open(f"task {task.name} {{", task.span)
    if task.inputs:
        e.line(f"in {', '.join(task.inputs)}")
    if task.outputs:
        e.line(f"out {', '.join(task.outputs)}")
    if task.graph is not None:
        e.open("body {", task.graph.span)
        for st in task.graph.statements:
            _emit_statement(e, st)
        e.close(task.graph.span)
    if task.prompt is not None:
        e.open("prompt {", task.prompt.span)
        for row in task.prompt.rows:
            kw = "static" if row.part is m.PromptPart.STATIC else "dynamic"
            e.line(f"{kw} {row.name} = {escape_string(row.template)}", row.span)
        e.close(task.prompt.span)
    e.close(task.span)


def _io_clause(inputs: tuple[str, ...], outputs: tuple[str, ...]) -> str:
    parts = []
    if inputs:
        parts.append(f"in {', '.join(inputs)}")
    if outputs:
        parts.append(f"out {', '.join(outputs)}")
    return "{ " + " ".join(parts) + " }" if parts else "{ }"


def _endpoint(node_id: str, is_source: bool) -> str:
    if m.is_store_node_id(node_id):
        access = "read" if is_source else "write"
        return f"{m.store_name_of(node_id)}.{access}"
    return node_id


_BAR_WORDS = {node: word for word, node in m.BAR_NODES.items()}


def _emit_statement(e: _Emitter, st: Union[m.ActivityNode, m.ActivityEdge]) -> None:
    if isinstance(st, m.ActivityEdge):
        text = f"{_endpoint(st.source, True)} -> {_endpoint(st.target, False)}"
        if st.guard is not None:
            text += f" {st.guard.display()}"
        e.line(text, st.span)
    elif isinstance(st, m.CallNode):
        text = f"call {st.id} = {st.task}"
        if st.agent is not None:
            text += f" on {st.agent}"
        if st.each is not None:
            text += f" each {st.each}"
        e.line(f"{text} {_io_clause(st.inputs, st.outputs)}", st.span)
    elif isinstance(st, m.InvokeNode):
        e.line(
            f"invoke {st.id} = {st.tool}.{st.operation}"
            f" {_io_clause(st.inputs, st.outputs)}",
            st.span,
        )
    elif isinstance(st, m.DecisionNode):
        e.line(f"decision {st.id} on {st.subject}", st.span)
    elif type(st) in _BAR_WORDS:
        e.line(f"{_BAR_WORDS[type(st)]} {st.id}", st.span)
    else:
        raise TypeError(type(st).__name__)
