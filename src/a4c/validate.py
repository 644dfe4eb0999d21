"""Semantic rule engine for resolved models.

Thirteen rules, V1 through V13. ``RULES`` pairs each rule with its code, and
the code's severity and meaning come from ``diagnostics.CODES``, the one
catalogue of codes. A rule function yields ``(message, span)`` findings, and
``check`` gives each finding its rule's code and severity, so no rule spells
a code. Error codes (E1xx) make a model invalid; warning codes (W1xx) flag
documentation quality problems. The rule list is append-only: codes never
change meaning across releases.

Cascade suppression keeps mutation diagnostics sharp: V4 only judges
consumers reachable from start, and V5 is skipped for a body whose end is
unreachable, since the reachability breakage itself is already reported
under V6's code space.
"""

from __future__ import annotations

from collections import deque

from . import model as m
from .diagnostics import CODES, Diagnostic, Severity, has_errors, sort_diagnostics
from .flow import ControlFacts, reachable, strongly_connected, unguarded_circuits
from .records import record
from .resolver import ResolvedModel, call_graph, call_graph_roots


@record
class Rule:
    id: str
    code: str
    severity: Severity
    description: str


RULES: tuple[Rule, ...] = tuple(
    Rule(f"V{i}", code, *CODES[code])
    for i, code in enumerate(("E101", "E102", "E103", "E104", "W105", "E106", "E107",
                              "E108", "W109", "E110", "W111", "W112", "W113"), 1)
)

RULES_BY_ID = {r.id: r for r in RULES}

# a task with a body, and the control-flow facts of that body
Body = tuple[m.Agent, m.Task, ControlFacts]


def check(rm: ResolvedModel) -> list[Diagnostic]:
    """Run every rule; diagnostics come back sorted by file, span, code."""
    bodies: list[Body] = [
        (agent, task, task.graph.control)
        for agent, task in m.iter_tasks(rm.model)
        if task.graph is not None
    ]
    # rules are looked up in the module at each call, so a wrapper set in a
    # rule's place (bench/tracer.py's per-rule spans) runs instead of it
    findings = (
        _v1_call_targets(rm, bodies),
        _v2_recursion(rm),
        _v3_leaf_substance(rm),
        _v4_consumption(rm, bodies),
        _v5_outputs_on_final_paths(bodies),
        _v6_graph_shape(bodies),
        _v7_element_wise(rm, bodies),
        _v8_tools(rm, bodies),
        _v9_llm_binding(rm),
        _v10_deployment(rm, bodies),
        _v11_flow_signatures(rm),
        _v12_datastores(rm),
        _v13_unguarded_cycles(bodies),
    )
    diags = [Diagnostic(rule.code, rule.severity, message, span)
             for rule, found in zip(RULES, findings) for message, span in found]
    return sort_diagnostics(diags)


def is_valid(rm: ResolvedModel) -> bool:
    return not has_errors(check(rm))


# --- V1 ------------------------------------------------------------------------

def _v1_call_targets(rm: ResolvedModel, bodies: list[Body]):
    for agent, task, _facts in bodies:
        for call in task.graph.calls:
            callee = rm.callee_agent_name(agent, call)
            # an unresolved agent name was already E001
            if callee in rm.agents and rm.task(callee, call.task) is None:
                yield f"agent '{callee}' has no task '{call.task}'", call.span


# --- V2 ------------------------------------------------------------------------

def _v2_recursion(rm: ResolvedModel):
    graph = call_graph(rm)  # keyed by (agent, task) in declaration order
    adj = {key: sorted(c for c in callees if c in graph) for key, callees in graph.items()}
    decl_order = {key: i for i, key in enumerate(graph)}
    for scc in strongly_connected(sorted(adj), adj):
        if len(scc) == 1 and scc[0] not in adj[scc[0]]:
            continue
        members = sorted(scc, key=decl_order.__getitem__)
        cycle_text = " -> ".join(m.task_display(*key) for key in members + members[:1])
        yield f"recursive task decomposition: {cycle_text}", rm.task(*members[0]).span


# --- V3 ------------------------------------------------------------------------

def _v3_leaf_substance(rm: ResolvedModel):
    for agent, task in m.iter_tasks(rm.model):
        if task.is_composite:
            continue
        has_invoke = task.graph is not None and len(task.graph.invokes) > 0
        if not has_invoke and task.prompt is None:
            yield (f"leaf task '{m.task_display(agent.name, task.name)}' has neither a tool"
                   " call nor a prompt", task.span)


# --- V4 ------------------------------------------------------------------------

def _consumptions(node: m.ActivityNode) -> tuple[str, ...]:
    if isinstance(node, (m.CallNode, m.InvokeNode)):
        return node.inputs
    if isinstance(node, m.DecisionNode):
        return (node.subject,)
    return ()


def _v4_consumption(rm: ResolvedModel, bodies: list[Body]):
    for agent, task, facts in bodies:
        graph = task.graph
        inputs = set(task.inputs)
        stores = rm.stores[agent.name]
        store_reads: dict[str, set[str]] = {}
        for edge in graph.edges:
            if edge.kind is m.EdgeKind.STORE_READ:
                store = stores.get(m.store_name_of(edge.source))
                if store is not None:
                    store_reads.setdefault(edge.target, set()).add(store.artifact)
        # one bit per artifact that a call or invoke reachable from start produces
        bit: dict[str, int] = {}
        gen: dict[str, int] = {}
        for node in graph.nodes:
            if isinstance(node, (m.CallNode, m.InvokeNode)) and node.id in facts.from_start:
                for art in node.outputs:
                    gen[node.id] = gen.get(node.id, 0) | 1 << bit.setdefault(art, len(bit))
        available = _available(facts, gen)
        for node in graph.nodes:
            if node.id not in facts.from_start:
                continue  # unreachable nodes are V6's finding, not V4's
            for art in _consumptions(node):
                if art in inputs:
                    continue
                if art in store_reads.get(node.id, ()):
                    continue
                if art in bit and available.get(node.id, 0) >> bit[art] & 1:
                    continue
                yield (f"'{art}' is consumed by '{node.id}' but is neither a task input,"
                       " produced upstream, nor read from a datastore", node.span)


def _available(facts: ControlFacts, gen: dict[str, int]) -> dict[str, int]:
    """Artifacts that may be available on entry to each node: the least
    solution of avail[v] = OR of (avail[u] | gen[u]) over edges u -> v.

    A bit is set when its artifact is produced on some path of length >= 1
    into the node, including around a loop. This is reaching definitions
    over bitsets (Kildall 1973), with a worklist seeded in topological order
    so that an acyclic body settles in one pass.
    """
    if not gen:
        return {}
    order = [v for scc in reversed(facts.sccs) for v in scc if v in facts.from_start]
    avail = dict.fromkeys(order, 0)
    queue = deque(order)
    queued = set(order)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        out = avail[u] | gen.get(u, 0)
        if not out:
            continue
        for v in facts.succ.get(u, ()):
            merged = avail[v] | out
            if merged != avail[v]:
                avail[v] = merged
                if v not in queued:
                    queued.add(v)
                    queue.append(v)
    return avail


# --- V5 ------------------------------------------------------------------------

def _v5_outputs_on_final_paths(bodies: list[Body]):
    for agent, task, facts in bodies:
        if task.prompt is not None:
            continue
        if m.FINAL_ID not in facts.from_start:
            continue  # unreachable end is reported under V6
        # what the calls and tool calls on a path from start to end produce
        produced = {art for node in task.graph.calls + task.graph.invokes
                    if node.id in facts.from_start and node.id in facts.reaches_end
                    for art in node.outputs}
        for art in task.outputs:
            if art not in produced:
                yield (f"declared output '{art}' of task"
                       f" '{m.task_display(agent.name, task.name)}' is produced on no"
                       " path from start to end", task.span)


# --- V6 ------------------------------------------------------------------------

def _v6_graph_shape(bodies: list[Body]):
    for _agent, task, facts in bodies:
        graph = task.graph
        decisions = {n.id: n for n in graph.nodes if isinstance(n, m.DecisionNode)}

        for node_id, decision in sorted(decisions.items()):
            outgoing = facts.out_edges.get(node_id, [])
            if len(outgoing) < 2:
                yield (f"decision '{node_id}' has {len(outgoing)} outgoing edge(s);"
                       " at least 2 are required", decision.span)
            literals: set[str] = set()
            else_seen = False
            for edge in outgoing:
                if edge.guard is None:
                    continue
                if edge.guard.is_else:
                    if else_seen:
                        yield (f"decision '{node_id}' has more than one [else] guard",
                               edge.guard.span)
                    else_seen = True
                    continue
                if edge.guard.literal in literals:
                    yield (f"duplicate guard literal '{edge.guard.literal}' on decision"
                           f" '{node_id}'", edge.guard.span)
                literals.add(edge.guard.literal)
                if edge.guard.subject != decision.subject:
                    yield (f"guard subject '{edge.guard.subject}' does not match decision"
                           f" subject '{decision.subject}'", edge.guard.span)

        for edge in graph.edges:
            if edge.kind is not m.EdgeKind.CONTROL:
                continue
            if edge.guard is not None and edge.source not in decisions:
                yield "guard on an edge that does not leave a decision", edge.guard.span

        for node in graph.nodes:
            if isinstance(node, m.ForkNode):
                out_degree = len(facts.out_edges.get(node.id, ()))
                if out_degree < 2:
                    yield (f"fork '{node.id}' has {out_degree} outgoing edge(s);"
                           " at least 2 are required", node.span)
            elif isinstance(node, m.JoinNode):
                in_degree = len(facts.pred.get(node.id, ()))
                if in_degree < 2:
                    yield (f"join '{node.id}' has {in_degree} incoming edge(s);"
                           " at least 2 are required", node.span)

        # joins must only be reachable through fork branches
        fork_ids = {n.id for n in graph.nodes if isinstance(n, m.ForkNode)}
        adj_without_forks = {
            src: targets for src, targets in facts.succ.items() if src not in fork_ids
        }
        reachable_without_forks = reachable(adj_without_forks, m.INITIAL_ID)
        for node in graph.nodes:
            if isinstance(node, m.JoinNode) and node.id in reachable_without_forks:
                yield f"join '{node.id}' is reachable without passing a fork", node.span

        from_start = facts.from_start
        for node in graph.nodes:
            if isinstance(node, (m.InitialNode, m.StoreNode)):
                continue
            if isinstance(node, m.FinalNode):
                if node.id not in from_start:
                    yield "no path from start reaches end", graph.span
                continue
            if node.id not in from_start:
                yield f"node '{node.id}' is unreachable from start", node.span
        if m.FINAL_ID in from_start:
            for node in graph.nodes:
                if isinstance(node, (m.FinalNode, m.StoreNode)):
                    continue
                if node.id in from_start and node.id not in facts.reaches_end:
                    yield f"node '{node.id}' reaches no end node", node.span


# --- V7 ------------------------------------------------------------------------

def _v7_element_wise(rm: ResolvedModel, bodies: list[Body]):
    for _agent, task, _facts in bodies:
        for call in task.graph.calls:
            if not call.element_wise:
                continue
            has_collection_input = any(
                rm.artifacts[a].is_collection
                for a in call.inputs
                if a in rm.artifacts
            )
            if not has_collection_input:
                yield f"element-wise call '{call.id}' has no collection-typed input", call.span


# --- V8 ------------------------------------------------------------------------

def _v8_tools(rm: ResolvedModel, bodies: list[Body]):
    for _agent, task, _facts in bodies:
        for invoke in task.graph.invokes:
            if invoke.tool not in rm.tools:
                yield f"tool call to undeclared tool '{invoke.tool}'", invoke.span


# --- V9 ------------------------------------------------------------------------

def _v9_llm_binding(rm: ResolvedModel):
    for agent in rm.model.agents:
        if rm.llm_of(agent) is None:
            yield (f"agent '{agent.name}' has no llm binding (no agent-level llm and"
                   " no model-level default)", agent.span)


# --- V10 -----------------------------------------------------------------------

def _v10_deployment(rm: ResolvedModel, bodies: list[Body]):
    deployment = rm.model.deployment
    if deployment is None:
        return
    hosts = rm.hosts
    for agent in rm.model.agents:
        nodes = hosts.get(agent.name, [])
        if len(nodes) == 0:
            yield f"agent '{agent.name}' is not hosted by any deployment node", agent.span
        elif len(nodes) > 1:
            yield (f"agent '{agent.name}' is hosted by {len(nodes)} deployment nodes;"
                   " exactly one is required", agent.span)
    for tool in rm.model.tools:
        nodes = hosts.get(tool.name, [])
        if len(nodes) > 1:
            yield (f"tool '{tool.name}' is hosted by {len(nodes)} deployment nodes;"
                   " exactly one is required", tool.span)

    def unique_host(name: str) -> str | None:
        nodes = hosts.get(name, [])
        return nodes[0] if len(nodes) == 1 else None

    linked: set[frozenset[str]] = set()
    for link in deployment.links:
        linked.add(frozenset((link.source, link.target)))

    for agent, task, _facts in bodies:
        caller_node = unique_host(agent.name)
        if caller_node is None:
            continue
        # task calls first, then tool calls: (what, target kind, target, span)
        targets = [("call", "agent", rm.callee_agent_name(agent, call), call.span)
                   for call in task.graph.calls]
        targets += [("tool call", "tool", invoke.tool, invoke.span)
                    for invoke in task.graph.invokes]
        for what, kind, target, span in targets:
            target_node = unique_host(target)
            if target_node is None or target_node == caller_node:
                continue
            if frozenset((caller_node, target_node)) not in linked:
                yield (f"{what} from agent '{agent.name}' (node '{caller_node}') to {kind}"
                       f" '{target}' (node '{target_node}') has no link between"
                       " their nodes", span)


# --- V11 -----------------------------------------------------------------------

def _v11_flow_signatures(rm: ResolvedModel):
    context = rm.model.context
    if context is None:
        return
    root_signature: set[str] = set()
    for agent_name, task_name in call_graph_roots(rm):
        task = rm.task(agent_name, task_name)
        if task is not None:
            root_signature.update(task.inputs)
            root_signature.update(task.outputs)
    for flow in context.flows:
        for art in flow.artifacts:
            if art not in root_signature:
                yield f"flow artifact '{art}' appears in no root task signature", flow.span


# --- V12 -----------------------------------------------------------------------

def _v12_datastores(rm: ResolvedModel):
    for agent in rm.model.agents:
        if not agent.datastores:
            continue
        written: set[str] = set()
        read: set[str] = set()
        for task in agent.tasks:
            if task.graph is None:
                continue
            for edge in task.graph.edges:
                if edge.kind is m.EdgeKind.STORE_WRITE:
                    written.add(m.store_name_of(edge.target))
                elif edge.kind is m.EdgeKind.STORE_READ:
                    read.add(m.store_name_of(edge.source))
        for store in agent.datastores:
            missing = []
            if store.name not in written:
                missing.append("written")
            if store.name not in read:
                missing.append("read")
            if missing:
                yield (f"datastore '{store.name}' of agent '{agent.name}' is never"
                       f" {' or '.join(missing)}", store.span)


# --- V13 -----------------------------------------------------------------------

def _v13_unguarded_cycles(bodies: list[Body]):
    for agent, task, facts in bodies:
        for cycle in unguarded_circuits(facts):
            cycle_text = " -> ".join(cycle + (cycle[0],))
            yield (f"control-flow cycle {cycle_text} in task"
                   f" '{m.task_display(agent.name, task.name)}' has no guarded exit",
                   task.graph.by_id[cycle[0]].span)
