"""Deterministic diagram and documentation rendering.

Context and deployment views render to PlantUML; task bodies render to DOT
digraphs; prompts render to markdown tables; `docs_bundle` assembles a
browsable markdown set. Output depends only on the model: rendering the
same model twice, in any process, yields byte-identical text.

Styling is carried by stereotype tags (`<<external>>`, `<<tool>>`, ...)
rather than hardcoded colors, so downstream skins stay in control.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterable

from . import model as m
from .analysis import classify
from .flow import ControlFacts, guarded_exits, iter_circuits
from .lexer import escape_string
from .records import record
from .resolver import ResolvedModel, call_graph


# circuits listed per SCC on an agent page; a loop through k decision
# diamonds has 2**k of them
LOOP_LISTING_LIMIT = 64


class RenderError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@record
class DiagramText:
    kind: str  # c1 | c2 | c3 | c4 | prompt
    text: str
    element_anchors: dict[str, str]


@record
class DocsBundle:
    files: dict[str, str]  # relative path -> content
    anchors: dict[str, str]  # element id -> page it is documented on


# --- C1: system context ----------------------------------------------------------

def render_context(model: m.Model) -> DiagramText:
    anchors: dict[str, str] = {}
    lines = ["@startuml", "skinparam shadowing false", ""]
    context = model.context
    if context is not None:
        for actor in context.actors:
            shape = "actor" if actor.kind is m.ActorKind.USER else "rectangle"
            lines.append(
                f'{shape} "{actor.name}" as {actor.name} <<{actor.kind}>>'
            )
            anchors[m.actor_id(actor.name)] = actor.name
    for llm in model.llms:
        label = llm.name if llm.version is None else f"{llm.name}\\n{llm.version}"
        lines.append(f'rectangle "{label}" as {llm.name} <<llm>>')
        anchors[m.llm_id(llm.name)] = llm.name
    for tool in model.tools:
        tags = "<<tool>> <<external>>" if tool.external else "<<tool>>"
        lines.append(f'rectangle "{tool.name}" as {tool.name} {tags}')
        anchors[m.tool_id(tool.name)] = tool.name
    if context is not None:
        lines.append("")
        for flow in context.flows:
            label = ", ".join(flow.artifacts)
            lines.append(f"{flow.source} --> {flow.target} : {label}")
            anchors[m.flow_id(flow)] = f"{flow.source} --> {flow.target}"
    lines.append("@enduml")
    return DiagramText("c1", "\n".join(lines) + "\n", anchors)


# --- C2: deployment --------------------------------------------------------------

def render_deployment(model: m.Model) -> DiagramText:
    deployment = model.deployment
    if deployment is None:
        raise RenderError("R001", "model has no deployment section")
    agent_names = {a.name for a in model.agents}
    tool_names = {t.name for t in model.tools}
    anchors: dict[str, str] = {}
    lines = ["@startuml", "skinparam shadowing false", ""]
    for node in deployment.nodes:
        tags = "<<node>> <<external>>" if node.external else "<<node>>"
        lines.append(f'node "{node.name}" as {node.name} {tags} {{')
        for hosted in node.hosts:
            if hosted in agent_names:
                tag = "<<agent>>"
            elif hosted in tool_names:
                tag = "<<tool>>"
            else:
                tag = "<<component>>"
            lines.append(f'  component "{hosted}" as {hosted} {tag}')
        lines.append("}")
        anchors[m.deployment_node_id(node.name)] = node.name
    lines.append("")
    for link in deployment.links:
        label = link.protocol
        if link.artifacts:
            label += " : " + ", ".join(link.artifacts)
        lines.append(f"{link.source} --> {link.target} : {label}")
        anchors[m.link_id(link)] = f"{link.source} --> {link.target}"
    lines.append("@enduml")
    return DiagramText("c2", "\n".join(lines) + "\n", anchors)


# --- C3/C4: task activity --------------------------------------------------------

def _object_node(artifacts: dict[str, m.ArtifactType], owner_id: str, artifact: str,
                 direction: str) -> tuple[str, str]:
    """Declare one per-action object node; returns (quoted node id, declaration line).

    Collections render as a segmented record, a stack of element instances.
    """
    node_id = escape_string(f"art:{owner_id}:{direction}:{artifact}")
    decl = artifacts.get(artifact)
    if decl is not None and decl.is_collection:
        label = "|".join([decl.element_type] * 3)
        line = f"{node_id} [shape=record, label={escape_string(label)}];"
    else:
        line = f"{node_id} [shape=box, label={escape_string(artifact)}];"
    return node_id, line


def render_activity(model: m.Model, agent: m.Agent, task: m.Task) -> DiagramText:
    title = m.task_display(agent.name, task.name)
    if task.graph is None:
        raise RenderError("R002", f"task '{title}' has no body")
    graph = task.graph
    anchors: dict[str, str] = {m.task_id(agent.name, task.name): title}
    lines = [
        f"digraph {escape_string(title)} {{",
        "  rankdir=TB;",
        f"  label={escape_string(title)};",
        "  labelloc=t;",
        '  node [fontname="Helvetica"];',
        "",
    ]
    artifacts: dict[str, m.ArtifactType] = {}
    for art in model.artifacts:
        artifacts.setdefault(art.name, art)  # the first declaration wins
    object_lines: list[str] = []
    object_edges: list[str] = []
    for node in graph.nodes:
        nid = escape_string(node.id)
        if not isinstance(node, (m.InitialNode, m.FinalNode, m.StoreNode)):
            anchors[m.activity_node_id(agent.name, task.name, node.id)] = node.id
        if isinstance(node, m.InitialNode):
            lines.append(f"  {nid} [shape=circle, style=filled, fillcolor=black,"
                         ' label="", width=0.2];')
        elif isinstance(node, m.FinalNode):
            lines.append(f"  {nid} [shape=doublecircle, style=filled,"
                         ' fillcolor=black, label="", width=0.15];')
        elif isinstance(node, m.CallNode):
            label = m.call_display(node)
            if node.element_wise:
                label = "* " + label
            lines.append(f"  {nid} [shape=box, style=rounded, label={escape_string(label)}];")
            _attach_objects(artifacts, node, object_lines, object_edges)
        elif isinstance(node, m.InvokeNode):
            lines.append(
                f"  {nid} [shape=box, style=rounded,"
                f" label={escape_string(m.invoke_display(node))}];"
            )
            _attach_objects(artifacts, node, object_lines, object_edges)
        elif isinstance(node, m.DecisionNode):
            lines.append(f"  {nid} [shape=diamond, label={escape_string(node.subject + '?')}];")
        elif isinstance(node, m.MergeNode):
            lines.append(f'  {nid} [shape=diamond, label=""];')
        elif isinstance(node, (m.ForkNode, m.JoinNode)):
            lines.append(f'  {nid} [shape=box, style=filled, fillcolor=black,'
                         ' label="", height=0.06, width=1.2];')
        elif isinstance(node, m.StoreNode):
            store = agent.datastore(node.store)
            label = node.store if store is None else f"{node.store} : {store.artifact}"
            lines.append(f"  {nid} [shape=cylinder, label={escape_string(label)}];")
            anchors[m.store_elem_id(agent.name, node.store)] = node.id
    if object_lines:
        lines.append("")
        lines.extend(object_lines)
    lines.append("")
    for edge in graph.edges:
        attrs: list[str] = []
        if edge.guard is not None:
            attrs.append(f"label={escape_string(edge.guard.display())}")
        if edge.kind in (m.EdgeKind.STORE_READ, m.EdgeKind.STORE_WRITE):
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {escape_string(edge.source)} -> {escape_string(edge.target)}{suffix};")
    lines.extend(object_edges)
    lines.append("}")
    kind = "c3" if task.is_composite else "c4"
    return DiagramText(kind, "\n".join(lines) + "\n", anchors)


def _attach_objects(artifacts: dict[str, m.ArtifactType], node: m.ActivityNode,
                    object_lines: list[str], object_edges: list[str]) -> None:
    nid = escape_string(node.id)
    for art in node.inputs:
        obj_id, decl = _object_node(artifacts, node.id, art, "in")
        object_lines.append("  " + decl)
        object_edges.append(f"  {obj_id} -> {nid} [style=dashed];")
    for art in node.outputs:
        obj_id, decl = _object_node(artifacts, node.id, art, "out")
        object_lines.append("  " + decl)
        object_edges.append(f"  {nid} -> {obj_id} [style=dashed];")


# --- prompt tables ----------------------------------------------------------------

def _md_escape(cell: str) -> str:
    return cell.replace("|", "\\|").replace("\n", "<br>")


def render_prompts(agent: m.Agent, task: m.Task) -> DiagramText:
    title = m.task_display(agent.name, task.name)
    if task.prompt is None:
        raise RenderError("R003", f"task '{title}' has no prompt")
    anchors: dict[str, str] = {m.task_id(agent.name, task.name): title}
    lines = [f"# Prompt: {title}", "", "| Part | Content |", "| --- | --- |"]
    ordered = [r for r in task.prompt.rows if r.part is m.PromptPart.STATIC]
    ordered += [r for r in task.prompt.rows if r.part is not m.PromptPart.STATIC]
    for row in ordered:
        lines.append(f"| {row.part} {row.name} | {_md_escape(row.template)} |")
        anchors[m.prompt_row_id(agent.name, task.name, row.name)] = row.name
    return DiagramText("prompt", "\n".join(lines) + "\n", anchors)


# --- docs bundle ------------------------------------------------------------------

def docs_bundle(rm: ResolvedModel) -> DocsBundle:
    model = rm.model
    files: dict[str, str] = {}
    anchors: dict[str, str] = {}

    files["c1.md"] = _page_context(model, anchors)
    if model.deployment is not None:
        files["c2.md"] = _page_deployment(model, anchors)
    if model.agents:
        files["c3.md"] = _page_agents_overview(rm, anchors)
    leaf_tasks = [(a, t) for a, t in m.iter_tasks(model) if t.is_leaf]
    if leaf_tasks:
        files["c4.md"] = _page_leaves(model, leaf_tasks, anchors)
    for agent in model.agents:
        files[f"agents/{agent.name}.md"] = _page_agent(rm, agent, anchors)
    files["index.md"] = _page_index(model, sorted(files))
    return DocsBundle(files, anchors)


def _page_index(model: m.Model, paths: list[str]) -> str:
    lines = [f"# {model.name}", "", "Generated architecture documentation.", ""]
    for path in paths:
        lines.append(f"- [{path}]({path})")
    return "\n".join(lines) + "\n"


def _page_context(model: m.Model, anchors: dict[str, str]) -> str:
    lines = [f"# {model.name}: context", ""]
    context = model.context
    if context is not None and context.actors:
        lines += ["## Actors", "", "| Name | Kind |", "| --- | --- |"]
        for actor in context.actors:
            lines.append(f"| {actor.name} | {actor.kind} |")
            anchors.setdefault(m.actor_id(actor.name), "c1.md")
        lines.append("")
    if context is not None and context.flows:
        lines += ["## Flows", ""]
        for flow in context.flows:
            arts = ", ".join(flow.artifacts)
            lines.append(f"- {flow.source} to {flow.target}: {arts}")
            anchors.setdefault(m.flow_id(flow), "c1.md")
        lines.append("")
    if model.llms:
        lines += ["## Models", "", "| Name | Version | Default |", "| --- | --- | --- |"]
        for llm in model.llms:
            version = llm.version if llm.version is not None else ""
            default = "yes" if llm.default else ""
            lines.append(f"| {llm.name} | {version} | {default} |")
            anchors.setdefault(m.llm_id(llm.name), "c1.md")
        lines.append("")
    if model.tools:
        lines += ["## Tools", "", "| Name | External |", "| --- | --- |"]
        for tool in model.tools:
            lines.append(f"| {tool.name} | {'yes' if tool.external else ''} |")
            anchors.setdefault(m.tool_id(tool.name), "c1.md")
        lines.append("")
    if model.artifacts:
        lines += ["## Artifacts", "", "| Name | Collection of |", "| --- | --- |"]
        for art in model.artifacts:
            elem = art.element_type if art.is_collection else ""
            lines.append(f"| {art.name} | {elem} |")
            anchors.setdefault(m.artifact_id(art.name), "c1.md")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _page_deployment(model: m.Model, anchors: dict[str, str]) -> str:
    deployment = model.deployment
    assert deployment is not None
    lines = [f"# {model.name}: deployment", "", "## Nodes", ""]
    for node in deployment.nodes:
        ext = " (external)" if node.external else ""
        hosts = ", ".join(node.hosts) if node.hosts else "nothing"
        lines.append(f"- {node.name}{ext}: hosts {hosts}")
        anchors.setdefault(m.deployment_node_id(node.name), "c2.md")
    if deployment.links:
        lines += ["", "## Links", ""]
        for link in deployment.links:
            arts = f" carrying {', '.join(link.artifacts)}" if link.artifacts else ""
            lines.append(f"- {link.source} to {link.target} over {link.protocol}{arts}")
            anchors.setdefault(m.link_id(link), "c2.md")
    return "\n".join(lines) + "\n"


def _page_agents_overview(rm: ResolvedModel, anchors: dict[str, str]) -> str:
    model = rm.model
    lines = [f"# {model.name}: agents", ""]
    for agent in model.agents:
        llm = rm.llm_of(agent)
        binding = llm.name if llm is not None else "none"
        lines.append(f"## {agent.name}")
        lines.append("")
        lines.append(f"Model binding: {binding}. Details: [agents/{agent.name}.md]"
                     f"(agents/{agent.name}.md)")
        lines.append("")
        anchors.setdefault(m.agent_id(agent.name), "c3.md")
        for store in agent.datastores:
            lines.append(f"- store {store.name}: {store.artifact}")
            anchors.setdefault(m.store_elem_id(agent.name, store.name), "c3.md")
        for task in agent.tasks:
            sig = _signature(task)
            lines.append(f"- task {task.name}{sig} [{m.level_of(task)}]")
            anchors.setdefault(m.task_id(agent.name, task.name), "c3.md")
        lines.append("")
    edges = call_graph(rm)
    edge_lines = []
    for (caller_agent, caller_task), callees in edges.items():
        for callee_agent, callee_task in callees:
            edge_lines.append(
                f"- {m.task_display(caller_agent, caller_task)} calls"
                f" {m.task_display(callee_agent, callee_task)}"
            )
    if edge_lines:
        lines += ["## Task calls", ""] + edge_lines + [""]
    return "\n".join(lines).rstrip("\n") + "\n"


def _signature(task: m.Task) -> str:
    parts = []
    if task.inputs:
        parts.append("in " + ", ".join(task.inputs))
    if task.outputs:
        parts.append("out " + ", ".join(task.outputs))
    return f" ({'; '.join(parts)})" if parts else ""


def _page_leaves(model: m.Model, leaf_tasks, anchors: dict[str, str]) -> str:
    lines = [f"# {model.name}: leaf tasks", ""]
    for agent, task in leaf_tasks:
        title = m.task_display(agent.name, task.name)
        lines.append(f"## {title}")
        lines.append("")
        anchors.setdefault(m.task_id(agent.name, task.name), "c4.md")
        if task.graph is not None:
            for invoke in task.graph.invokes:
                lines.append(f"- tool call: {m.invoke_display(invoke)}")
        if task.prompt is not None:
            names = ", ".join(r.name for r in task.prompt.rows)
            lines.append(f"- prompt rows: {names}")
        if task.graph is None and task.prompt is None:
            lines.append("- no body and no prompt")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _page_agent(rm: ResolvedModel, agent: m.Agent, anchors: dict[str, str]) -> str:
    model = rm.model
    page = f"agents/{agent.name}.md"
    llm = rm.llm_of(agent)
    binding = llm.name if llm is not None else "none"
    lines = [f"# Agent {agent.name}", "", f"Model binding: {binding}", ""]
    anchors.setdefault(m.agent_id(agent.name), page)
    if agent.datastores:
        lines += ["## Datastores", ""]
        for store in agent.datastores:
            lines.append(f"- {store.name}: {store.artifact}")
            anchors.setdefault(m.store_elem_id(agent.name, store.name), page)
        lines.append("")
    for task in agent.tasks:
        lines.append(f"## Task {task.name}")
        lines.append("")
        anchors.setdefault(m.task_id(agent.name, task.name), page)
        sig = _signature(task)
        lines.append(f"Signature:{sig if sig else ' none'} [{m.level_of(task)}]")
        lines.append("")
        if task.is_composite:
            pattern = classify(rm, agent, task)
            lines.append(f"Interaction pattern: {pattern.value}")
            for criterion, refs in pattern.evidence:
                lines.append(f"- {criterion}: {', '.join(refs)}")
            lines.append("")
            loops = _loop_lines(task.graph.control)
            if loops:
                lines += loops + [""]
        if task.graph is not None:
            diagram = render_activity(model, agent, task)
            lines += ["```dot"] + diagram.text.rstrip("\n").split("\n") + ["```", ""]
            for elem_id in diagram.element_anchors:
                anchors.setdefault(elem_id, page)
        if task.graph is not None and task.is_leaf:
            for invoke in task.graph.invokes:
                lines.append(f"- tool call: {m.invoke_display(invoke)}")
        if task.prompt is not None:
            table = render_prompts(agent, task)
            lines += [""] + table.text.rstrip("\n").split("\n")[2:] + [""]
            for elem_id in table.element_anchors:
                anchors.setdefault(elem_id, page)
    return "\n".join(lines).rstrip("\n") + "\n"


def _loop_lines(facts: ControlFacts) -> list[str]:
    """One line per elementary circuit of the body with its guarded exits, at
    most ``LOOP_LISTING_LIMIT`` per SCC in sorted order, then one line for
    each SCC that holds more."""
    listed: list[list[tuple[str, ...]]] = []
    crowded: list[list[str]] = []
    for scc in sorted(sorted(scc) for scc in facts.cyclic):
        circuits = list(islice(iter_circuits(facts.succ, [scc]), LOOP_LISTING_LIMIT + 1))
        if len(circuits) > LOOP_LISTING_LIMIT:
            circuits.pop()
            crowded.append(scc)
        listed.append(circuits)
    exit_texts: dict[int, str] = {}  # by edge identity: one exit leaves many loops

    def exits_text(members: Iterable[str]) -> str:
        exits = guarded_exits(facts, members)
        for x in exits:
            if id(x) not in exit_texts:
                guard = f" {x.guard.display()}" if x.guard is not None else ""
                exit_texts[id(x)] = f"{x.source} -> {x.target}{guard}"
        if not exits:
            return "no guarded exit"
        return "exits via " + "; ".join(exit_texts[id(x)] for x in exits)

    lines = [f"- loop {' -> '.join(cycle)}: {exits_text(cycle)}"
             for cycle in heapq.merge(*listed)]
    lines += [f"- loops through {', '.join(scc)}: more than {LOOP_LISTING_LIMIT} circuits,"
              f" {exits_text(scc)}" for scc in crowded]
    return lines
