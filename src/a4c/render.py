"""Deterministic diagram and documentation rendering.

Context and deployment views render to PlantUML; task bodies render to DOT
digraphs; prompts render to markdown tables; `docs_bundle` assembles a
browsable markdown set. Output depends only on the model: rendering the
same model twice, in any process, yields byte-identical text.

An activity diagram and an agent page's loop listing each cost time linear
in their own body: the artifact table is the model's, built once
(``Model.artifact_table``), and each DOT id is escaped once per diagram.

Styling is carried by stereotype tags (`<<external>>`, `<<tool>>`, ...)
rather than hardcoded colors, so downstream skins stay in control.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from . import model as m
from .elements import call_display, invoke_display, level_of
from .lexer import escape_string
from .records import record
from .resolver import ResolvedModel, call_graph

if TYPE_CHECKING:
    from .flow import ControlFacts


class RenderError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@record
class DiagramText:
    kind: str  # c1 | c2 | c3 | c4 | prompt
    text: str


# the page that documents each kind of element; a body node or prompt row is
# on its agent's page, named by its display form up to the first '.'
_PAGE_OF_KIND = {
    "actor": "c1.md", "flow": "c1.md", "artifact": "c1.md", "llm": "c1.md", "tool": "c1.md",
    "node": "c2.md", "link": "c2.md",
    "agent": "c3.md", "store": "c3.md", "task": "c3.md",
}


@record
class DocsBundle:
    """The pages of one model's docs, and the page each element is on."""

    files: dict[str, str]  # relative path -> content
    model: m.Model

    @cached_property
    def anchors(self) -> dict[str, str]:
        """Element id -> the page it is documented on, one entry per id in
        ``Model.source_map``. Built on first use, since writing the files
        never reads it."""
        return {e.id: _PAGE_OF_KIND.get(e.kind) or f"agents/{e.display.partition('.')[0]}.md"
                for e in self.model.elements}


# --- C1: system context ----------------------------------------------------------

def render_context(model: m.Model) -> DiagramText:
    lines = ["@startuml", "skinparam shadowing false", ""]
    context = model.context
    if context is not None:
        for actor in context.actors:
            shape = "actor" if actor.kind is m.ActorKind.USER else "rectangle"
            lines.append(
                f'{shape} "{actor.name}" as {actor.name} <<{actor.kind}>>'
            )
    for llm in model.llms:
        label = llm.name if llm.version is None else f"{llm.name}\\n{llm.version}"
        lines.append(f'rectangle "{label}" as {llm.name} <<llm>>')
    for tool in model.tools:
        tags = "<<tool>> <<external>>" if tool.external else "<<tool>>"
        lines.append(f'rectangle "{tool.name}" as {tool.name} {tags}')
    if context is not None:
        lines.append("")
        for flow in context.flows:
            label = ", ".join(flow.artifacts)
            lines.append(f"{flow.source} --> {flow.target} : {label}")
    lines.append("@enduml")
    return DiagramText("c1", "\n".join(lines) + "\n")


# --- C2: deployment --------------------------------------------------------------

def render_deployment(model: m.Model) -> DiagramText:
    deployment = model.deployment
    if deployment is None:
        raise RenderError("R001", "model has no deployment section")
    agent_names = {a.name for a in model.agents}
    tool_names = {t.name for t in model.tools}
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
    lines.append("")
    for link in deployment.links:
        label = link.protocol
        if link.artifacts:
            label += " : " + ", ".join(link.artifacts)
        lines.append(f"{link.source} --> {link.target} : {label}")
    lines.append("@enduml")
    return DiagramText("c2", "\n".join(lines) + "\n")


# --- C3/C4: task activity --------------------------------------------------------

_BAR = '[shape=box, style=filled, fillcolor=black, label="", height=0.06, width=1.2]'
# the attributes of each kind of node that shows nothing of its own
_FIXED_STYLE = {
    m.InitialNode: '[shape=circle, style=filled, fillcolor=black, label="", width=0.2]',
    m.FinalNode: '[shape=doublecircle, style=filled, fillcolor=black, label="", width=0.15]',
    m.MergeNode: '[shape=diamond, label=""]',
    m.ForkNode: _BAR,
    m.JoinNode: _BAR,
}


def render_activity(model: m.Model, agent: m.Agent, task: m.Task) -> DiagramText:
    """The task body as a DOT digraph: its nodes, then one object node per
    input and output of each call and tool call (a collection as a
    segmented record, a stack of element instances), then its edges and the
    object flows. Each DOT id is escaped once."""
    title = m.task_display(agent.name, task.name)
    if task.graph is None:
        raise RenderError("R002", f"task '{title}' has no body")
    graph = task.graph
    quoted = escape_string(title)
    lines = [f"digraph {quoted} {{", "  rankdir=TB;", f"  label={quoted};", "  labelloc=t;",
             '  node [fontname="Helvetica"];', ""]
    artifacts = model.artifact_table
    ids: dict[str, str] = {}  # node id -> its DOT id
    shapes: dict[str, str] = {}  # artifact -> the attributes of its object nodes
    object_lines: list[str] = []
    object_edges: list[str] = []
    for node in graph.nodes:
        nid = ids[node.id] = escape_string(node.id)
        fixed = _FIXED_STYLE.get(type(node))
        if fixed is not None:
            lines.append(f"  {nid} {fixed};")
        elif isinstance(node, (m.CallNode, m.InvokeNode)):
            if isinstance(node, m.InvokeNode):
                label = invoke_display(node)
            else:
                label = ("* " if node.element_wise else "") + call_display(node)
            lines.append(f"  {nid} [shape=box, style=rounded, label={escape_string(label)}];")
            for direction, names in (("in", node.inputs), ("out", node.outputs)):
                for art in names:
                    shape = shapes.get(art)
                    if shape is None:
                        decl = artifacts.get(art)
                        if decl is not None and decl.is_collection:
                            label = "|".join([decl.element_type] * 3)
                            shape = shapes[art] = f"shape=record, label={escape_string(label)}"
                        else:
                            shape = shapes[art] = f"shape=box, label={escape_string(art)}"
                    oid = escape_string(f"art:{node.id}:{direction}:{art}")
                    object_lines.append(f"  {oid} [{shape}];")
                    flow = f"{oid} -> {nid}" if direction == "in" else f"{nid} -> {oid}"
                    object_edges.append(f"  {flow} [style=dashed];")
        elif isinstance(node, m.DecisionNode):
            lines.append(f"  {nid} [shape=diamond, label={escape_string(node.subject + '?')}];")
        elif isinstance(node, m.StoreNode):
            store = next((s for s in agent.datastores if s.name == node.store), None)
            label = node.store if store is None else f"{node.store} : {store.artifact}"
            lines.append(f"  {nid} [shape=cylinder, label={escape_string(label)}];")
    if object_lines:
        lines.append("")
        lines.extend(object_lines)
    lines.append("")
    for edge in graph.edges:
        # an endpoint that names no node occurs only in a model that does not resolve
        source = ids.get(edge.source) or escape_string(edge.source)
        target = ids.get(edge.target) or escape_string(edge.target)
        if edge.guard is None:
            attrs = "" if edge.kind is m.EdgeKind.CONTROL else " [style=dashed]"
        elif edge.kind is m.EdgeKind.CONTROL:
            attrs = f" [label={escape_string(edge.guard.display())}]"
        else:
            attrs = f" [label={escape_string(edge.guard.display())}, style=dashed]"
        lines.append(f"  {source} -> {target}{attrs};")
    lines.extend(object_edges)
    lines.append("}")
    kind = "c3" if task.is_composite else "c4"
    return DiagramText(kind, "\n".join(lines) + "\n")


# --- prompt tables ----------------------------------------------------------------

def _md_escape(cell: str) -> str:
    return cell.replace("|", "\\|").replace("\n", "<br>")


def render_prompts(agent: m.Agent, task: m.Task) -> DiagramText:
    title = m.task_display(agent.name, task.name)
    if task.prompt is None:
        raise RenderError("R003", f"task '{title}' has no prompt")
    lines = [f"# Prompt: {title}", "", "| Part | Content |", "| --- | --- |"]
    ordered = [r for r in task.prompt.rows if r.part is m.PromptPart.STATIC]
    ordered += [r for r in task.prompt.rows if r.part is not m.PromptPart.STATIC]
    for row in ordered:
        lines.append(f"| {row.part.value} {row.name} | {_md_escape(row.template)} |")
    return DiagramText("prompt", "\n".join(lines) + "\n")


# --- docs bundle ------------------------------------------------------------------

def docs_bundle(rm: ResolvedModel) -> DocsBundle:
    model = rm.model
    files: dict[str, str] = {}

    files["c1.md"] = _page_context(model)
    if model.deployment is not None:
        files["c2.md"] = _page_deployment(model)
    if model.agents:
        files["c3.md"] = _page_agents_overview(rm)
    leaf_tasks = [(a, t) for a, t in m.iter_tasks(model) if t.is_leaf]
    if leaf_tasks:
        files["c4.md"] = _page_leaves(model, leaf_tasks)
    for agent in model.agents:
        files[f"agents/{agent.name}.md"] = _page_agent(rm, agent)
    files["index.md"] = _page_index(model, sorted(files))
    return DocsBundle(files, model)


def _page_index(model: m.Model, paths: list[str]) -> str:
    lines = [f"# {model.name}", "", "Generated architecture documentation.", ""]
    for path in paths:
        lines.append(f"- [{path}]({path})")
    return "\n".join(lines) + "\n"


def _page_context(model: m.Model) -> str:
    lines = [f"# {model.name}: context", ""]
    context = model.context
    if context is not None and context.actors:
        lines += ["## Actors", "", "| Name | Kind |", "| --- | --- |"]
        for actor in context.actors:
            lines.append(f"| {actor.name} | {actor.kind} |")
        lines.append("")
    if context is not None and context.flows:
        lines += ["## Flows", ""]
        for flow in context.flows:
            arts = ", ".join(flow.artifacts)
            lines.append(f"- {flow.source} to {flow.target}: {arts}")
        lines.append("")
    if model.llms:
        lines += ["## Models", "", "| Name | Version | Default |", "| --- | --- | --- |"]
        for llm in model.llms:
            version = llm.version if llm.version is not None else ""
            default = "yes" if llm.default else ""
            lines.append(f"| {llm.name} | {version} | {default} |")
        lines.append("")
    if model.tools:
        lines += ["## Tools", "", "| Name | External |", "| --- | --- |"]
        for tool in model.tools:
            lines.append(f"| {tool.name} | {'yes' if tool.external else ''} |")
        lines.append("")
    if model.artifacts:
        lines += ["## Artifacts", "", "| Name | Collection of |", "| --- | --- |"]
        for art in model.artifacts:
            elem = art.element_type if art.is_collection else ""
            lines.append(f"| {art.name} | {elem} |")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _page_deployment(model: m.Model) -> str:
    deployment = model.deployment
    assert deployment is not None
    lines = [f"# {model.name}: deployment", "", "## Nodes", ""]
    for node in deployment.nodes:
        ext = " (external)" if node.external else ""
        hosts = ", ".join(node.hosts) if node.hosts else "nothing"
        lines.append(f"- {node.name}{ext}: hosts {hosts}")
    if deployment.links:
        lines += ["", "## Links", ""]
        for link in deployment.links:
            arts = f" carrying {', '.join(link.artifacts)}" if link.artifacts else ""
            lines.append(f"- {link.source} to {link.target} over {link.protocol}{arts}")
    return "\n".join(lines) + "\n"


def _page_agents_overview(rm: ResolvedModel) -> str:
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
        for store in agent.datastores:
            lines.append(f"- store {store.name}: {store.artifact}")
        for task in agent.tasks:
            sig = _signature(task)
            lines.append(f"- task {task.name}{sig} [{level_of(task)}]")
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


def _page_leaves(model: m.Model, leaf_tasks) -> str:
    lines = [f"# {model.name}: leaf tasks", ""]
    for agent, task in leaf_tasks:
        title = m.task_display(agent.name, task.name)
        lines.append(f"## {title}")
        lines.append("")
        if task.graph is not None:
            for invoke in task.graph.invokes:
                lines.append(f"- tool call: {invoke_display(invoke)}")
        if task.prompt is not None:
            names = ", ".join(r.name for r in task.prompt.rows)
            lines.append(f"- prompt rows: {names}")
        if task.graph is None and task.prompt is None:
            lines.append("- no body and no prompt")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _page_agent(rm: ResolvedModel, agent: m.Agent) -> str:
    from .analysis import classify  # only docs pages classify: `a4c render` never loads it

    model = rm.model
    llm = rm.llm_of(agent)
    binding = llm.name if llm is not None else "none"
    lines = [f"# Agent {agent.name}", "", f"Model binding: {binding}", ""]
    if agent.datastores:
        lines += ["## Datastores", ""]
        for store in agent.datastores:
            lines.append(f"- {store.name}: {store.artifact}")
        lines.append("")
    for task in agent.tasks:
        lines.append(f"## Task {task.name}")
        lines.append("")
        sig = _signature(task)
        lines.append(f"Signature:{sig if sig else ' none'} [{level_of(task)}]")
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
        if task.graph is not None and task.is_leaf:
            for invoke in task.graph.invokes:
                lines.append(f"- tool call: {invoke_display(invoke)}")
        if task.prompt is not None:
            table = render_prompts(agent, task)
            lines += [""] + table.text.rstrip("\n").split("\n")[2:] + [""]
    return "\n".join(lines).rstrip("\n") + "\n"


def _loop_lines(facts: ControlFacts) -> list[str]:
    """One line per elementary circuit of the body with its guarded exits, at
    most ``LOOP_LISTING_LIMIT`` per SCC in sorted order, then one line for
    each SCC that holds more."""
    from .flow import LOOP_LISTING_LIMIT, guarded_exits, loop_listing

    listing = list(loop_listing(facts))
    # each guarded edge that can leave a loop, by identity: one exit leaves many loops
    exit_texts = {id(x): f"{x.source} -> {x.target} {x.guard.display()}"
                  for scc in facts.cyclic for v in scc for x in facts.guarded.get(v, ())}

    def exits_text(members: Iterable[str]) -> str:
        exits = guarded_exits(facts, members)
        if not exits:
            return "no guarded exit"
        return "exits via " + "; ".join([exit_texts[id(x)] for x in exits])

    lines = [f"- loop {' -> '.join(cycle)}: {exits_text(cycle)}"
             for cycle in heapq.merge(*[circuits for _, circuits, _ in listing])]
    lines += [f"- loops through {', '.join(scc)}: more than {LOOP_LISTING_LIMIT} circuits,"
              f" {exits_text(scc)}" for scc, _, more in listing if more]
    return lines
