"""The elements of a model, as every view and analysis names them.

``Model.elements`` and ``Model.source_map`` are built here on first read,
and only ``analysis`` and ``render`` import this module, so ``check`` never
compiles it.

A task, body node, datastore, prompt row, flow or link has one display
form, the name that ``impact``, ``classify`` and diagnostics print; its id
(the source_map and anchor key) is a kind prefix on that form, and only the
element walk below builds one. A repeated flow or link is told apart by its
occurrence number, which the parser counts. ``model.task_display``, which
``check``'s diagnostics print, stays in ``model``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .diagnostics import SourceSpan
from .model import (
    ActivityNode,
    Actor,
    Agent,
    ArtifactType,
    CallNode,
    ContextFlow,
    ContextSection,
    Datastore,
    DeploymentLink,
    DeploymentNode,
    DeploymentSection,
    InvokeNode,
    LlmDecl,
    Section,
    Task,
    ToolDecl,
    task_display,
)
from .records import record


@record
class Element:
    """One element of a model as every view and analysis names it.

    ``kind`` is one of actor, flow, artifact, llm, tool, node, link, store,
    body node, prompt row, task or agent; ``id`` is the source-map and
    anchor key; ``level`` is None for artifacts and prompt rows.
    """

    kind: str
    display: str
    id: str
    level: Optional[str]
    span: SourceSpan


# --- element names -------------------------------------------------------------

def body_node_display(agent: str, task: str, node: str) -> str:
    return f"{task_display(agent, task)}/{node}"


def store_display(agent: str, store: str) -> str:
    return f"{agent}.{store}"


def prompt_row_display(agent: str, task: str, row: str) -> str:
    return f"{task_display(agent, task)}/{row}"


def _arrow(item: Union[ContextFlow, DeploymentLink]) -> str:
    return f"{item.source}->{item.target}#{item.occurrence}"


def flow_display(flow: ContextFlow) -> str:
    return f"flow {_arrow(flow)}"


def link_display(link: DeploymentLink) -> str:
    return f"link {_arrow(link)}"


# --- display and level operations ---------------------------------------------

def call_display(call: CallNode) -> str:
    """Rendering form of a TaskCall: ``task:Agent``, or ``task`` for self-calls."""
    if call.agent is None:
        return call.task
    return f"{call.task}:{call.agent}"


def invoke_display(invoke: InvokeNode) -> str:
    return f"{invoke.operation}:{invoke.tool}"


def level_of(task: Task) -> str:
    """C3 for composite tasks, C4 for leaves."""
    return "C3" if task.is_composite else "C4"


# --- the element walk ----------------------------------------------------------

def elements_of(sections: tuple[Section, ...]) -> Iterator[Element]:
    """The walk behind ``Model.elements``."""
    for s in sections:
        if isinstance(s, ContextSection):
            for i in s.items:
                if isinstance(i, Actor):
                    yield Element("actor", i.name, f"actor:{i.name}", "C1", i.span)
                else:
                    yield Element("flow", flow_display(i), f"flow:{_arrow(i)}", "C1", i.span)
        elif isinstance(s, DeploymentSection):
            for i in s.items:
                if isinstance(i, DeploymentNode):
                    yield Element("node", i.name, f"node:{i.name}", "C2", i.span)
                else:
                    yield Element("link", link_display(i), f"link:{_arrow(i)}", "C2", i.span)
        elif isinstance(s, ArtifactType):
            yield Element("artifact", s.name, f"artifact:{s.name}", None, s.span)
        elif isinstance(s, LlmDecl):
            yield Element("llm", s.name, f"llm:{s.name}", "C1", s.span)
        elif isinstance(s, ToolDecl):
            yield Element("tool", s.name, f"tool:{s.name}", "C1", s.span)
        else:
            yield from _agent_elements(s)


def _agent_elements(agent: Agent) -> Iterator[Element]:
    a = agent.name
    for member in agent.members:
        if isinstance(member, Datastore):
            store = store_display(a, member.name)
            yield Element("store", store, f"store:{store}", "C3", member.span)
            continue
        t = member.name
        level = level_of(member)
        if member.graph is not None:
            for node in member.graph.statements:
                if isinstance(node, ActivityNode):
                    display = body_node_display(a, t, node.id)
                    yield Element("body node", display, f"anode:{display}", level, node.span)
        if member.prompt is not None:
            for row in member.prompt.rows:
                display = prompt_row_display(a, t, row.name)
                yield Element("prompt row", display, f"prow:{display}", None, row.span)
        task = task_display(a, t)
        yield Element("task", task, f"task:{task}", level, member.span)
    yield Element("agent", a, f"agent:{a}", "C3", agent.span)


def source_map(elements: tuple[Element, ...]) -> dict[str, SourceSpan]:
    """Element id -> span of its first declaration."""
    spans: dict[str, SourceSpan] = {}
    for e in elements:
        spans.setdefault(e.id, e.span)
    return spans
