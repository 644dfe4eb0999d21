"""Name resolution: symbol tables, reference binding checks, call graph.

Namespaces are separate per element kind (artifacts, actors, llms, tools,
agents, deployment nodes; datastores and tasks are agent-local). E001 flags
a reference that binds to nothing, E002 a duplicate declaration. Two name
classes are deliberately left to the validator so their diagnostics carry
rule codes instead: the task named by a TaskCall on a known agent (V1) and
the tool named by a ToolCall (V8).
"""

from __future__ import annotations

from functools import cached_property
import re
from typing import TYPE_CHECKING, Optional

from . import model as m
from .diagnostics import Diagnostic, Related, error, has_errors, sort_diagnostics
from .records import record

if TYPE_CHECKING:
    from .analysis import Relations

PLACEHOLDER_RE = re.compile(r"\{([A-Za-z][A-Za-z0-9_]*)\}")


@record
class ResolvedModel:
    """A model whose cross-references all bind, plus lookup tables."""

    model: m.Model
    artifacts: dict[str, m.ArtifactType]
    llms: dict[str, m.LlmDecl]
    tools: dict[str, m.ToolDecl]
    agents: dict[str, m.Agent]
    default_llm: Optional[m.LlmDecl]
    hosts: dict[str, list[str]]  # agent/tool name -> every node hosting it, once per listing
    tasks: dict[str, dict[str, m.Task]]  # agent name -> task name -> task
    stores: dict[str, dict[str, m.Datastore]]  # agent name -> datastore name -> datastore

    def task(self, agent_name: str, task_name: str) -> Optional[m.Task]:
        return self.tasks.get(agent_name, {}).get(task_name)

    def llm_of(self, agent: m.Agent) -> Optional[m.LlmDecl]:
        if agent.llm is not None:
            return self.llms.get(agent.llm)
        return self.default_llm

    def callee_agent_name(self, owner: m.Agent, call: m.CallNode) -> str:
        return call.agent if call.agent is not None else owner.name

    @cached_property
    def relations(self) -> Relations:
        """Built by ``analysis`` on first use and kept for its later queries: a
        record can be neither hashed nor weakly referenced, so no outside cache can."""
        from .analysis import impact_relations

        return impact_relations(self)


@record
class ResolveResult:
    model: Optional[ResolvedModel]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.model is not None


class _Resolver:
    def __init__(self, model: m.Model):
        self.m = model
        self.diags: list[Diagnostic] = []

    def err(self, code: str, message: str, span, related=()) -> None:
        self.diags.append(error(code, message, span, related))

    def duplicate(self, kind: str, name: str, span, first_span) -> None:
        self.err(
            "E002",
            f"duplicate {kind} declaration '{name}'",
            span,
            (Related("first declared here", first_span),),
        )

    def run(self) -> ResolveResult:
        model = self.m

        seen_sections: dict[str, m.Section] = {}
        for s in model.sections:
            if isinstance(s, m.ContextSection) or isinstance(s, m.DeploymentSection):
                kind = "context" if isinstance(s, m.ContextSection) else "deployment"
                if kind in seen_sections:
                    self.duplicate(kind + " section", kind, s.span, seen_sections[kind].span)
                else:
                    seen_sections[kind] = s

        artifacts = self.collect("artifact", model.artifact_table, model.artifacts)
        llms = self.collect("llm", {}, model.llms)
        tools = self.collect("tool", {}, model.tools)
        agents = self.collect("agent", {}, model.agents)
        actors: dict[str, m.Actor] = {}
        if model.context:
            actors = self.collect("actor", {}, model.context.actors)
        nodes: dict[str, m.DeploymentNode] = {}
        if model.deployment:
            nodes = self.collect("deployment node", {}, model.deployment.nodes)

        # collection element types must be declared scalars (nesting depth <= 2)
        for art in model.artifacts:
            if art.element_type is None:
                continue
            elem = artifacts.get(art.element_type)
            if elem is None:
                self.err("E001", f"unresolved artifact '{art.element_type}'", art.span)
            elif elem.is_collection:
                self.err(
                    "E001",
                    f"collection element type '{art.element_type}' must be a scalar artifact",
                    art.span,
                    (Related("declared as a collection here", elem.span),),
                )

        default_llm: Optional[m.LlmDecl] = None
        for llm in model.llms:
            if llm.default:
                if default_llm is None:
                    default_llm = llm
                else:
                    self.duplicate("default llm", llm.name, llm.span, default_llm.span)

        if model.context:
            for flow in model.context.flows:
                for endpoint in (flow.source, flow.target):
                    if endpoint not in actors and endpoint not in tools and endpoint not in llms:
                        self.err("E001", f"unresolved flow endpoint '{endpoint}'", flow.span)
                for art in flow.artifacts:
                    if art not in artifacts:
                        self.err("E001", f"unresolved artifact '{art}'", flow.span)

        hosts: dict[str, list[str]] = {}
        if model.deployment:
            for node in model.deployment.nodes:
                for hosted in node.hosts:
                    if hosted not in agents and hosted not in tools:
                        self.err(
                            "E001",
                            f"unresolved hosted element '{hosted}' (not an agent or tool)",
                            node.span,
                        )
                    else:
                        hosts.setdefault(hosted, []).append(node.name)
            for link in model.deployment.links:
                for endpoint in (link.source, link.target):
                    if endpoint not in nodes:
                        self.err("E001", f"unresolved deployment node '{endpoint}'", link.span)
                for art in link.artifacts:
                    if art not in artifacts:
                        self.err("E001", f"unresolved artifact '{art}'", link.span)

        tasks: dict[str, dict[str, m.Task]] = {}
        stores: dict[str, dict[str, m.Datastore]] = {}
        for agent in model.agents:
            tasks[agent.name], stores[agent.name] = self.resolve_agent(
                agent, artifacts, agents, llms)

        diags = sort_diagnostics(self.diags)
        if has_errors(diags):
            return ResolveResult(None, diags)
        resolved = ResolvedModel(
            model=model,
            artifacts=artifacts,
            llms=llms,
            tools=tools,
            agents=agents,
            default_llm=default_llm,
            hosts=hosts,
            tasks=tasks,
            stores=stores,
        )
        return ResolveResult(resolved, diags)

    def collect(self, kind: str, table: dict, decls) -> dict:
        """Enter each declaration by name, the first one winning, and flag the
        others; a table that already holds the first ones stays as it is."""
        for decl in decls:
            first = table.setdefault(decl.name, decl)
            if first is not decl:
                self.duplicate(kind, decl.name, decl.span, first.span)
        return table

    def resolve_agent(
        self,
        agent: m.Agent,
        artifacts: dict[str, m.ArtifactType],
        agents: dict[str, m.Agent],
        llms: dict[str, m.LlmDecl],
    ) -> tuple[dict[str, m.Task], dict[str, m.Datastore]]:
        """Check one agent; returns its task and datastore tables."""
        if agent.llm is not None and agent.llm not in llms:
            self.err("E001", f"unresolved llm '{agent.llm}'", agent.span)

        stores = self.collect("datastore", {}, agent.datastores)
        for store in agent.datastores:
            if store.artifact not in artifacts:
                self.err("E001", f"unresolved artifact '{store.artifact}'", store.span)
        tasks = self.collect("task", {}, agent.tasks)
        for task in agent.tasks:
            self.resolve_task(agent, task, artifacts, agents, stores)
        return tasks, stores

    def resolve_task(
        self,
        agent: m.Agent,
        task: m.Task,
        artifacts: dict[str, m.ArtifactType],
        agents: dict[str, m.Agent],
        stores: dict[str, m.Datastore],
    ) -> None:
        for art in task.inputs + task.outputs:
            if art not in artifacts:
                self.err("E001", f"unresolved artifact '{art}'", task.span)

        if task.prompt is not None:
            self.collect("prompt row", {}, task.prompt.rows)
            for row in task.prompt.rows:
                for placeholder in PLACEHOLDER_RE.findall(row.template):
                    if placeholder not in task.inputs:
                        self.err(
                            "E001",
                            f"prompt placeholder '{{{placeholder}}}' does not name an input"
                            f" of task '{task.name}'",
                            row.span,
                        )

        if task.graph is None:
            return
        graph = task.graph

        for node in graph.nodes:
            first = graph.node_by_id(node.id)
            if first is not node:
                self.duplicate("body node", node.id, node.span, first.span)
            if isinstance(node, m.CallNode):
                if node.agent is not None and node.agent not in agents:
                    self.err("E001", f"unresolved agent '{node.agent}'", node.span)
                if node.each is not None and node.each not in artifacts:
                    self.err("E001", f"unresolved artifact '{node.each}'", node.span)
                for art in node.inputs + node.outputs:
                    if art not in artifacts:
                        self.err("E001", f"unresolved artifact '{art}'", node.span)
            elif isinstance(node, m.InvokeNode):
                # tool existence is validator rule V8 (E108)
                for art in node.inputs + node.outputs:
                    if art not in artifacts:
                        self.err("E001", f"unresolved artifact '{art}'", node.span)
            elif isinstance(node, m.DecisionNode):
                if node.subject not in artifacts:
                    self.err("E001", f"unresolved artifact '{node.subject}'", node.span)
            elif isinstance(node, m.StoreNode):
                if node.store not in stores:
                    self.err("E001", f"unresolved datastore '{node.store}'", node.span)

        for edge in graph.edges:
            for endpoint in (edge.source, edge.target):
                if graph.node_by_id(endpoint) is None:
                    self.err("E001", f"unresolved edge endpoint '{endpoint}'", edge.span)
            if edge.guard is not None and not edge.guard.is_else:
                if edge.guard.subject not in artifacts:
                    self.err(
                        "E001", f"unresolved artifact '{edge.guard.subject}'", edge.guard.span
                    )


def resolve(model: m.Model) -> ResolveResult:
    """Bind every name reference; the resolved model is present iff no error."""
    return _Resolver(model).run()


def call_graph(resolved: ResolvedModel) -> dict[tuple[str, str], list[tuple[str, str]]]:
    """Edges (agent, task) -> (callee agent, callee task) from TaskCall nodes.

    Unresolvable callees (unknown task on a known agent, V1 territory) are
    kept as graph vertices so downstream consumers see the reference.
    """
    graph: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for agent, task in m.iter_tasks(resolved.model):
        key = (agent.name, task.name)
        graph.setdefault(key, [])
        if task.graph is None:
            continue
        for call in task.graph.calls:
            callee = (resolved.callee_agent_name(agent, call), call.task)
            graph[key].append(callee)
    return graph


def call_graph_roots(resolved: ResolvedModel) -> list[tuple[str, str]]:
    """Tasks that no other task calls, in declaration order."""
    graph = call_graph(resolved)
    called: set[tuple[str, str]] = set()
    for callees in graph.values():
        called.update(callees)
    return [key for key in graph if key not in called]
