"""Metamodel for the architecture description language.

One Model spans all four description levels: context actors and flows (C1),
deployment nodes and links (C2), agents with tasks and datastores (C3), and
task bodies with tool calls and prompts (C4). All types are frozen; a parsed
model is safe to share across threads without locking.

Declaration order is preserved (``sections``, ``members``, ``items``,
``statements``) so the formatter can reprint files without reordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Union

from .diagnostics import SourceSpan

INITIAL_ID = "start"
FINAL_ID = "end"
STORE_ID_PREFIX = "store:"


class ActorKind(Enum):
    SYSTEM = "system"
    USER = "user"
    EXTERNAL = "external"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Actor:
    kind: ActorKind
    name: str
    span: SourceSpan


@dataclass(frozen=True)
class ContextFlow:
    source: str
    target: str
    artifacts: tuple[str, ...]
    span: SourceSpan
    occurrence: int  # earlier flows in the model with the same source and target


@dataclass(frozen=True)
class ContextSection:
    items: tuple[Union[Actor, ContextFlow], ...]
    span: SourceSpan

    @property
    def actors(self) -> tuple[Actor, ...]:
        return tuple(i for i in self.items if isinstance(i, Actor))

    @property
    def flows(self) -> tuple[ContextFlow, ...]:
        return tuple(i for i in self.items if isinstance(i, ContextFlow))


@dataclass(frozen=True)
class ArtifactType:
    name: str
    element_type: Optional[str]  # set iff this artifact is a collection
    span: SourceSpan

    @property
    def is_collection(self) -> bool:
        return self.element_type is not None


@dataclass(frozen=True)
class LlmDecl:
    name: str
    version: Optional[str]
    default: bool
    span: SourceSpan


@dataclass(frozen=True)
class ToolDecl:
    name: str
    external: bool
    span: SourceSpan


@dataclass(frozen=True)
class DeploymentNode:
    name: str
    external: bool
    hosts: tuple[str, ...]
    span: SourceSpan


@dataclass(frozen=True)
class DeploymentLink:
    source: str
    target: str
    protocol: str
    artifacts: tuple[str, ...]
    span: SourceSpan
    occurrence: int  # earlier links in the model with the same source and target


@dataclass(frozen=True)
class DeploymentSection:
    items: tuple[Union[DeploymentNode, DeploymentLink], ...]
    span: SourceSpan

    @property
    def nodes(self) -> tuple[DeploymentNode, ...]:
        return tuple(i for i in self.items if isinstance(i, DeploymentNode))

    @property
    def links(self) -> tuple[DeploymentLink, ...]:
        return tuple(i for i in self.items if isinstance(i, DeploymentLink))


@dataclass(frozen=True)
class ActivityNode:
    id: str
    span: SourceSpan


@dataclass(frozen=True)
class InitialNode(ActivityNode):
    pass


@dataclass(frozen=True)
class FinalNode(ActivityNode):
    pass


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class InvokeNode(ActivityNode):
    """ToolCall on a declared tool operation."""

    tool: str
    operation: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class DecisionNode(ActivityNode):
    subject: str


@dataclass(frozen=True)
class MergeNode(ActivityNode):
    pass


@dataclass(frozen=True)
class ForkNode(ActivityNode):
    pass


@dataclass(frozen=True)
class JoinNode(ActivityNode):
    pass


@dataclass(frozen=True)
class StoreNode(ActivityNode):
    """Datastore endpoint materialized from ``name.read`` / ``name.write`` edges."""

    store: str


class EdgeKind(Enum):
    CONTROL = "control"
    OBJECT = "object"
    STORE_READ = "store_read"
    STORE_WRITE = "store_write"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ActivityEdge:
    source: str
    target: str
    guard: Optional[Guard]
    kind: EdgeKind
    span: SourceSpan
    synthetic: bool = False


@dataclass(frozen=True)
class ActivityGraph:
    # declared statements in source order: explicit nodes and edges only
    statements: tuple[Union[ActivityNode, ActivityEdge], ...]
    nodes: tuple[ActivityNode, ...]  # includes implicit start/end and store nodes
    edges: tuple[ActivityEdge, ...]
    span: SourceSpan

    def node_by_id(self, node_id: str) -> Optional[ActivityNode]:
        for n in self.nodes:
            if n.id == node_id:
                return n
        return None

    def call_nodes(self) -> tuple[CallNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n, CallNode))

    def invoke_nodes(self) -> tuple[InvokeNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n, InvokeNode))


class PromptPart(Enum):
    STATIC = "static"
    TASK_SPECIFIC = "task-specific"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PromptRow:
    part: PromptPart
    name: str
    template: str
    span: SourceSpan


@dataclass(frozen=True)
class PromptSpec:
    rows: tuple[PromptRow, ...]
    span: SourceSpan


@dataclass(frozen=True)
class Task:
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    graph: Optional[ActivityGraph]
    prompt: Optional[PromptSpec]
    span: SourceSpan

    @property
    def is_composite(self) -> bool:
        return self.graph is not None and len(self.graph.call_nodes()) > 0

    @property
    def is_leaf(self) -> bool:
        return not self.is_composite


@dataclass(frozen=True)
class Datastore:
    name: str
    artifact: str
    span: SourceSpan


@dataclass(frozen=True)
class Agent:
    name: str
    llm: Optional[str]
    members: tuple[Union[Datastore, Task], ...]
    span: SourceSpan

    @property
    def datastores(self) -> tuple[Datastore, ...]:
        return tuple(m for m in self.members if isinstance(m, Datastore))

    @property
    def tasks(self) -> tuple[Task, ...]:
        return tuple(m for m in self.members if isinstance(m, Task))

    def task(self, name: str) -> Optional[Task]:
        for t in self.tasks:
            if t.name == name:
                return t
        return None

    def datastore(self, name: str) -> Optional[Datastore]:
        for s in self.datastores:
            if s.name == name:
                return s
        return None


Section = Union[ContextSection, DeploymentSection, ArtifactType, LlmDecl, ToolDecl, Agent]


@dataclass(frozen=True)
class Model:
    name: str
    file: str
    sections: tuple[Section, ...]
    source_map: dict[str, SourceSpan] = field(compare=False)
    span: SourceSpan = SourceSpan.synthetic()

    @property
    def context(self) -> Optional[ContextSection]:
        for s in self.sections:
            if isinstance(s, ContextSection):
                return s
        return None

    @property
    def deployment(self) -> Optional[DeploymentSection]:
        for s in self.sections:
            if isinstance(s, DeploymentSection):
                return s
        return None

    @property
    def artifacts(self) -> tuple[ArtifactType, ...]:
        return tuple(s for s in self.sections if isinstance(s, ArtifactType))

    @property
    def llms(self) -> tuple[LlmDecl, ...]:
        return tuple(s for s in self.sections if isinstance(s, LlmDecl))

    @property
    def tools(self) -> tuple[ToolDecl, ...]:
        return tuple(s for s in self.sections if isinstance(s, ToolDecl))

    @property
    def agents(self) -> tuple[Agent, ...]:
        return tuple(s for s in self.sections if isinstance(s, Agent))

    def agent(self, name: str) -> Optional[Agent]:
        for a in self.agents:
            if a.name == name:
                return a
        return None


# --- element names -------------------------------------------------------------
#
# A task, body node, datastore, flow or link has one display form, the name
# that `impact`, `classify` and diagnostics print; its id (the source_map and
# anchor key) is a kind prefix on that form. A repeated flow or link is told
# apart by its occurrence number, which the parser counts.

def task_display(agent: str, task: str) -> str:
    return f"{agent}.{task}"


def body_node_display(agent: str, task: str, node: str) -> str:
    return f"{task_display(agent, task)}/{node}"


def store_display(agent: str, store: str) -> str:
    return f"{agent}.{store}"


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
    return f"prow:{task_display(agent, task)}/{row}"


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


# --- structural fingerprint ---------------------------------------------------

def fingerprint(model: Model) -> tuple:
    """Span-free structural identity of a model.

    Two parses of the same text, or of a text and its formatted form, must
    produce equal fingerprints. Declaration order is significant.
    """
    return ("model", model.name, tuple(_fp_section(s) for s in model.sections))


def _fp_section(s: Section) -> tuple:
    if isinstance(s, ContextSection):
        return ("context", tuple(_fp_context_item(i) for i in s.items))
    if isinstance(s, DeploymentSection):
        return ("deployment", tuple(_fp_deploy_item(i) for i in s.items))
    if isinstance(s, ArtifactType):
        return ("artifact", s.name, s.element_type)
    if isinstance(s, LlmDecl):
        return ("llm", s.name, s.version, s.default)
    if isinstance(s, ToolDecl):
        return ("tool", s.name, s.external)
    if isinstance(s, Agent):
        return ("agent", s.name, s.llm, tuple(_fp_member(m) for m in s.members))
    raise TypeError(type(s).__name__)


def _fp_context_item(i: Union[Actor, ContextFlow]) -> tuple:
    if isinstance(i, Actor):
        return ("actor", i.kind.value, i.name)
    return ("flow", i.source, i.target, i.artifacts)


def _fp_deploy_item(i: Union[DeploymentNode, DeploymentLink]) -> tuple:
    if isinstance(i, DeploymentNode):
        return ("node", i.name, i.external, i.hosts)
    return ("link", i.source, i.target, i.protocol, i.artifacts)


def _fp_member(m: Union[Datastore, Task]) -> tuple:
    if isinstance(m, Datastore):
        return ("store", m.name, m.artifact)
    prompt = None
    if m.prompt is not None:
        prompt = tuple((r.part.value, r.name, r.template) for r in m.prompt.rows)
    graph = None
    if m.graph is not None:
        graph = tuple(_fp_statement(st) for st in m.graph.statements)
    return ("task", m.name, m.inputs, m.outputs, graph, prompt)


def _fp_statement(st: Union[ActivityNode, ActivityEdge]) -> tuple:
    if isinstance(st, CallNode):
        return ("call", st.id, st.task, st.agent, st.each, st.inputs, st.outputs)
    if isinstance(st, InvokeNode):
        return ("invoke", st.id, st.tool, st.operation, st.inputs, st.outputs)
    if isinstance(st, DecisionNode):
        return ("decision", st.id, st.subject)
    if isinstance(st, ForkNode):
        return ("fork", st.id)
    if isinstance(st, JoinNode):
        return ("join", st.id)
    if isinstance(st, MergeNode):
        return ("merge", st.id)
    if isinstance(st, ActivityEdge):
        guard = None
        if st.guard is not None:
            guard = ("else",) if st.guard.is_else else (st.guard.subject, st.guard.literal)
        return ("edge", st.source, st.target, guard)
    raise TypeError(type(st).__name__)


def iter_tasks(model: Model) -> Iterator[tuple[Agent, Task]]:
    for a in model.agents:
        for t in a.tasks:
            yield a, t
