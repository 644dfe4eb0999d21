"""Metamodel for the architecture description language.

One Model spans all four description levels: context actors and flows (C1),
deployment nodes and links (C2), agents with tasks and datastores (C3), and
task bodies with tool calls and prompts (C4). All types are immutable records
whose derived views are computed once; a parsed model is safe to share across
threads without locking. Equality ignores spans and tells types apart.

Declaration order is preserved (``sections``, ``members``, ``items``,
``statements``) so the formatter can reprint files without reordering.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Optional, Union

from .diagnostics import SYNTHETIC, SourceSpan
from .records import record

if TYPE_CHECKING:
    from .flow import ControlFacts

INITIAL_ID = "start"
FINAL_ID = "end"
STORE_ID_PREFIX = "store:"


class ActorKind(Enum):
    SYSTEM = "system"
    USER = "user"
    EXTERNAL = "external"

    def __str__(self) -> str:
        return self.value


@record(ignore="span")
class Actor:
    kind: ActorKind
    name: str
    span: SourceSpan


@record(ignore="span")
class ContextFlow:
    source: str
    target: str
    artifacts: tuple[str, ...]
    span: SourceSpan
    occurrence: int  # earlier flows in the model with the same source and target


@record(ignore="span")
class ContextSection:
    items: tuple[Union[Actor, ContextFlow], ...]
    span: SourceSpan

    @cached_property
    def actors(self) -> tuple[Actor, ...]:
        return tuple(i for i in self.items if isinstance(i, Actor))

    @cached_property
    def flows(self) -> tuple[ContextFlow, ...]:
        return tuple(i for i in self.items if isinstance(i, ContextFlow))


@record(ignore="span")
class ArtifactType:
    name: str
    element_type: Optional[str]  # set iff this artifact is a collection
    span: SourceSpan

    @property
    def is_collection(self) -> bool:
        return self.element_type is not None


@record(ignore="span")
class LlmDecl:
    name: str
    version: Optional[str]
    default: bool
    span: SourceSpan


@record(ignore="span")
class ToolDecl:
    name: str
    external: bool
    span: SourceSpan


@record(ignore="span")
class DeploymentNode:
    name: str
    external: bool
    hosts: tuple[str, ...]
    span: SourceSpan


@record(ignore="span")
class DeploymentLink:
    source: str
    target: str
    protocol: str
    artifacts: tuple[str, ...]
    span: SourceSpan
    occurrence: int  # earlier links in the model with the same source and target


@record(ignore="span")
class DeploymentSection:
    items: tuple[Union[DeploymentNode, DeploymentLink], ...]
    span: SourceSpan

    @cached_property
    def nodes(self) -> tuple[DeploymentNode, ...]:
        return tuple(i for i in self.items if isinstance(i, DeploymentNode))

    @cached_property
    def links(self) -> tuple[DeploymentLink, ...]:
        return tuple(i for i in self.items if isinstance(i, DeploymentLink))


@record(ignore="span")
class ActivityNode:
    id: str
    span: SourceSpan


@record(ignore="span")
class InitialNode(ActivityNode):
    pass


@record(ignore="span")
class FinalNode(ActivityNode):
    pass


@record(ignore="span")
class CallNode(ActivityNode):
    """TaskCall; ``agent`` is None for a self-call on the enclosing agent."""

    task: str
    agent: Optional[str]
    each: Optional[str]  # collection artifact iterated element-wise
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def element_wise(self) -> bool:
        return self.each is not None


@record(ignore="span")
class InvokeNode(ActivityNode):
    """ToolCall on a declared tool operation."""

    tool: str
    operation: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


@record(ignore="span")
class DecisionNode(ActivityNode):
    subject: str


@record(ignore="span")
class MergeNode(ActivityNode):
    pass


@record(ignore="span")
class ForkNode(ActivityNode):
    pass


@record(ignore="span")
class JoinNode(ActivityNode):
    pass


@record(ignore="span")
class StoreNode(ActivityNode):
    """Datastore endpoint materialized from ``name.read`` / ``name.write`` edges."""

    store: str


class EdgeKind(Enum):
    CONTROL = "control"
    OBJECT = "object"
    STORE_READ = "store_read"
    STORE_WRITE = "store_write"


@record(ignore="span")
class Guard:
    """Either ``subject == literal`` or the else branch."""

    subject: Optional[str]
    literal: Optional[str]
    is_else: bool
    span: SourceSpan

    def display(self) -> str:
        if self.is_else:
            return "[else]"
        return f"[{self.subject} == {self.literal}]"


@record(ignore="span")
class ActivityEdge:
    source: str
    target: str
    guard: Optional[Guard]
    kind: EdgeKind
    span: SourceSpan


@record(ignore="span")
class ActivityGraph:
    """A task body as written: its declared nodes and edges in source order.
    Every other fact about the body is a view built on first use."""

    statements: tuple[Union[ActivityNode, ActivityEdge], ...]
    span: SourceSpan

    @cached_property
    def nodes(self) -> tuple[ActivityNode, ...]:
        """Start, end, the declared nodes, then one node per datastore
        endpoint, spanning the first edge that touches it."""
        nodes: list[ActivityNode] = [InitialNode(INITIAL_ID, self.span),
                                     FinalNode(FINAL_ID, self.span)]
        stores: dict[str, StoreNode] = {}
        for st in self.statements:
            if isinstance(st, ActivityNode):
                nodes.append(st)
                continue
            for endpoint in (st.source, st.target):
                if is_store_node_id(endpoint) and endpoint not in stores:
                    stores[endpoint] = StoreNode(endpoint, st.span, store_name_of(endpoint))
        return tuple(nodes) + tuple(stores.values())

    @cached_property
    def edges(self) -> tuple[ActivityEdge, ...]:
        """The declared edges; an empty body has one edge from start to end."""
        if not self.statements:
            return (ActivityEdge(INITIAL_ID, FINAL_ID, None, EdgeKind.CONTROL, self.span),)
        return tuple(st for st in self.statements if isinstance(st, ActivityEdge))

    @cached_property
    def calls(self) -> tuple[CallNode, ...]:
        return tuple(n for n in self.statements if isinstance(n, CallNode))

    @cached_property
    def invokes(self) -> tuple[InvokeNode, ...]:
        return tuple(n for n in self.statements if isinstance(n, InvokeNode))

    @cached_property
    def control(self) -> ControlFacts:
        """The body's control-flow facts, shared by every rule and analysis."""
        from .flow import control_facts

        return control_facts(self)

    def node_by_id(self, node_id: str) -> Optional[ActivityNode]:
        return self._by_id.get(node_id)

    @cached_property
    def _by_id(self) -> dict[str, ActivityNode]:
        return {n.id: n for n in reversed(self.nodes)}  # the first node with an id wins


class PromptPart(Enum):
    STATIC = "static"
    TASK_SPECIFIC = "task-specific"

    def __str__(self) -> str:
        return self.value


@record(ignore="span")
class PromptRow:
    part: PromptPart
    name: str
    template: str
    span: SourceSpan


@record(ignore="span")
class PromptSpec:
    rows: tuple[PromptRow, ...]
    span: SourceSpan


@record(ignore="span")
class Task:
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    graph: Optional[ActivityGraph]
    prompt: Optional[PromptSpec]
    span: SourceSpan

    @property
    def is_composite(self) -> bool:
        return self.graph is not None and len(self.graph.calls) > 0

    @property
    def is_leaf(self) -> bool:
        return not self.is_composite


@record(ignore="span")
class Datastore:
    name: str
    artifact: str
    span: SourceSpan


@record(ignore="span")
class Agent:
    name: str
    llm: Optional[str]
    members: tuple[Union[Datastore, Task], ...]
    span: SourceSpan

    @cached_property
    def datastores(self) -> tuple[Datastore, ...]:
        return tuple(m for m in self.members if isinstance(m, Datastore))

    @cached_property
    def tasks(self) -> tuple[Task, ...]:
        return tuple(m for m in self.members if isinstance(m, Task))

    def task(self, name: str) -> Optional[Task]:
        return next((t for t in self.tasks if t.name == name), None)

    def datastore(self, name: str) -> Optional[Datastore]:
        return next((s for s in self.datastores if s.name == name), None)


Section = Union[ContextSection, DeploymentSection, ArtifactType, LlmDecl, ToolDecl, Agent]


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


@record(ignore="span")
class Model:
    name: str
    file: str
    sections: tuple[Section, ...]
    span: SourceSpan = SYNTHETIC

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """Every element once, in declaration order, except that a task
        follows its body nodes and prompt rows, and an agent its members."""
        return tuple(_elements(self.sections))

    @cached_property
    def source_map(self) -> dict[str, SourceSpan]:
        """Element id -> span of its first declaration."""
        spans: dict[str, SourceSpan] = {}
        for e in self.elements:
            spans.setdefault(e.id, e.span)
        return spans

    @cached_property
    def context(self) -> Optional[ContextSection]:
        return next((s for s in self.sections if isinstance(s, ContextSection)), None)

    @cached_property
    def deployment(self) -> Optional[DeploymentSection]:
        return next((s for s in self.sections if isinstance(s, DeploymentSection)), None)

    @cached_property
    def artifacts(self) -> tuple[ArtifactType, ...]:
        return tuple(s for s in self.sections if isinstance(s, ArtifactType))

    @cached_property
    def llms(self) -> tuple[LlmDecl, ...]:
        return tuple(s for s in self.sections if isinstance(s, LlmDecl))

    @cached_property
    def tools(self) -> tuple[ToolDecl, ...]:
        return tuple(s for s in self.sections if isinstance(s, ToolDecl))

    @cached_property
    def agents(self) -> tuple[Agent, ...]:
        return tuple(s for s in self.sections if isinstance(s, Agent))

    def agent(self, name: str) -> Optional[Agent]:
        return next((a for a in self.agents if a.name == name), None)


# --- element names -------------------------------------------------------------
#
# A task, body node, datastore, prompt row, flow or link has one display
# form, the name that `impact`, `classify` and diagnostics print; its id (the
# source_map and anchor key) is a kind prefix on that form. A repeated flow or link is told
# apart by its occurrence number, which the parser counts.

def task_display(agent: str, task: str) -> str:
    return f"{agent}.{task}"


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


def artifact_id(name: str) -> str:
    return f"artifact:{name}"


def actor_id(name: str) -> str:
    return f"actor:{name}"


def flow_id(flow: ContextFlow) -> str:
    return f"flow:{_arrow(flow)}"


def llm_id(name: str) -> str:
    return f"llm:{name}"


def tool_id(name: str) -> str:
    return f"tool:{name}"


def deployment_node_id(name: str) -> str:
    return f"node:{name}"


def link_id(link: DeploymentLink) -> str:
    return f"link:{_arrow(link)}"


def agent_id(name: str) -> str:
    return f"agent:{name}"


def store_elem_id(agent: str, store: str) -> str:
    return f"store:{store_display(agent, store)}"


def task_id(agent: str, task: str) -> str:
    return f"task:{task_display(agent, task)}"


def activity_node_id(agent: str, task: str, node: str) -> str:
    return f"anode:{body_node_display(agent, task, node)}"


def prompt_row_id(agent: str, task: str, row: str) -> str:
    return f"prow:{prompt_row_display(agent, task, row)}"


def store_node_id(store: str) -> str:
    """Graph-local id of the node representing a datastore endpoint."""
    return STORE_ID_PREFIX + store


def is_store_node_id(node_id: str) -> bool:
    return node_id.startswith(STORE_ID_PREFIX)


def store_name_of(node_id: str) -> str:
    return node_id[len(STORE_ID_PREFIX):]


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

def _elements(sections: tuple[Section, ...]) -> Iterator[Element]:
    for s in sections:
        if isinstance(s, ContextSection):
            for i in s.items:
                if isinstance(i, Actor):
                    yield Element("actor", i.name, actor_id(i.name), "C1", i.span)
                else:
                    yield Element("flow", flow_display(i), flow_id(i), "C1", i.span)
        elif isinstance(s, DeploymentSection):
            for i in s.items:
                if isinstance(i, DeploymentNode):
                    yield Element("node", i.name, deployment_node_id(i.name), "C2", i.span)
                else:
                    yield Element("link", link_display(i), link_id(i), "C2", i.span)
        elif isinstance(s, ArtifactType):
            yield Element("artifact", s.name, artifact_id(s.name), None, s.span)
        elif isinstance(s, LlmDecl):
            yield Element("llm", s.name, llm_id(s.name), "C1", s.span)
        elif isinstance(s, ToolDecl):
            yield Element("tool", s.name, tool_id(s.name), "C1", s.span)
        else:
            yield from _agent_elements(s)


def _agent_elements(agent: Agent) -> Iterator[Element]:
    a = agent.name
    for member in agent.members:
        if isinstance(member, Datastore):
            yield Element("store", store_display(a, member.name),
                          store_elem_id(a, member.name), "C3", member.span)
            continue
        t = member.name
        level = level_of(member)
        if member.graph is not None:
            for node in member.graph.statements:
                if isinstance(node, ActivityNode):
                    yield Element("body node", body_node_display(a, t, node.id),
                                  activity_node_id(a, t, node.id), level, node.span)
        if member.prompt is not None:
            for row in member.prompt.rows:
                yield Element("prompt row", prompt_row_display(a, t, row.name),
                              prompt_row_id(a, t, row.name), None, row.span)
        yield Element("task", task_display(a, t), task_id(a, t), level, member.span)
    yield Element("agent", a, agent_id(a), "C3", agent.span)


# --- structural fingerprint ---------------------------------------------------

def fingerprint(model: Model) -> tuple:
    """Span-free structural identity of a model.

    Two parses of the same text, or of a text and its formatted form, must
    produce equal fingerprints. Declaration order is significant. Element
    equality ignores spans, and the fingerprint leaves out the file name.
    """
    return ("model", model.name, model.sections)


def iter_tasks(model: Model) -> Iterator[tuple[Agent, Task]]:
    for a in model.agents:
        for t in a.tasks:
            yield a, t
