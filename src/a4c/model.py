"""Metamodel for the architecture description language.

One Model spans all four description levels: context actors and flows (C1),
deployment nodes and links (C2), agents with tasks and datastores (C3), and
task bodies with tool calls and prompts (C4). All types are immutable records
whose derived views are computed once; a parsed model is safe to share across
threads without locking. Equality ignores spans and tells types apart.

Declaration order is preserved (``sections``, ``members``, ``items``,
``statements``) so the formatter can reprint files without reordering. The
typed views of one of these fields, such as ``Model.agents``,
``Agent.tasks`` or ``ActivityGraph.calls``, keep its entries of one type in
that order; each is declared by one ``_kind`` line.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Optional, Union

from .diagnostics import SYNTHETIC, SourceSpan
from .records import record

if TYPE_CHECKING:
    from .elements import Element
    from .flow import ControlFacts

INITIAL_ID = "start"
FINAL_ID = "end"
STORE_ID_PREFIX = "store:"


def _kind(field: str, cls: type) -> cached_property:
    """A view cached on first read: the entries of the record's ``field``
    that are ``cls`` instances, as a tuple in their order."""
    return cached_property(lambda self: tuple(x for x in getattr(self, field)
                                              if isinstance(x, cls)))


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

    actors = _kind("items", Actor)
    flows = _kind("items", ContextFlow)


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

    nodes = _kind("items", DeploymentNode)
    links = _kind("items", DeploymentLink)


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


# each bar node's body keyword, read by the parser and printed by the formatter
BAR_NODES = {"fork": ForkNode, "join": JoinNode, "merge": MergeNode}


@record(ignore="span")
class StoreNode(ActivityNode):
    """Datastore endpoint materialized from ``name.read`` / ``name.write`` edges."""

    store: str


class EdgeKind(Enum):
    CONTROL = "control"
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

    calls = _kind("statements", CallNode)
    invokes = _kind("statements", InvokeNode)

    @cached_property
    def control(self) -> ControlFacts:
        """The body's control-flow facts, shared by every rule and analysis."""
        from .flow import control_facts

        return control_facts(self)

    @cached_property
    def by_id(self) -> dict[str, ActivityNode]:
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

    datastores = _kind("members", Datastore)
    tasks = _kind("members", Task)

    def task(self, name: str) -> Optional[Task]:
        return next((t for t in self.tasks if t.name == name), None)


Section = Union[ContextSection, DeploymentSection, ArtifactType, LlmDecl, ToolDecl, Agent]


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
        from .elements import elements_of

        return tuple(elements_of(self.sections))

    @cached_property
    def source_map(self) -> dict[str, SourceSpan]:
        """Element id -> span of its first declaration."""
        from .elements import source_map

        return source_map(self.elements)

    @cached_property
    def context(self) -> Optional[ContextSection]:
        return next((s for s in self.sections if isinstance(s, ContextSection)), None)

    @cached_property
    def deployment(self) -> Optional[DeploymentSection]:
        return next((s for s in self.sections if isinstance(s, DeploymentSection)), None)

    artifacts = _kind("sections", ArtifactType)

    @cached_property
    def artifact_table(self) -> dict[str, ArtifactType]:
        """Artifact name -> its first declaration."""
        table: dict[str, ArtifactType] = {}
        for art in self.artifacts:
            table.setdefault(art.name, art)
        return table

    llms = _kind("sections", LlmDecl)
    tools = _kind("sections", ToolDecl)
    agents = _kind("sections", Agent)

    def agent(self, name: str) -> Optional[Agent]:
        return next((a for a in self.agents if a.name == name), None)


# --- names ---------------------------------------------------------------------
#
# The display form of a task, which diagnostics print. The other elements'
# display forms and ids, and the element walk, are in ``elements``.

def task_display(agent: str, task: str) -> str:
    return f"{agent}.{task}"


def store_node_id(store: str) -> str:
    """Graph-local id of the node representing a datastore endpoint."""
    return STORE_ID_PREFIX + store


def is_store_node_id(node_id: str) -> bool:
    return node_id.startswith(STORE_ID_PREFIX)


def store_name_of(node_id: str) -> str:
    return node_id[len(STORE_ID_PREFIX):]


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
