"""Graph analyses over resolved models.

* impact: transitive change-impact closure from a seed element, upward
  (what influences it), downward (what it influences), or both.
* classify: interaction-pattern classification of a composite task.
* control_facts: the control-flow facts of one task body (successors,
  predecessors, reachability, SCCs, guarded out-edges), built once and
  shared by the rules and the analyses below.
* loop_facts: elementary control-flow circuits of a task body with their
  guarded exit edges.

The impact relation works at task-signature granularity: a task produces
its declared outputs plus anything its own tool calls emit, and consumes
its declared inputs plus its tool calls' inputs. Datastore writes and reads
count as Produces/Consumes on the store. Decisions join the graph through
the artifact they gate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import model as m
from .resolver import ResolvedModel


class AnalysisError(Exception):
    """Raised for misuse of an analysis entry point (codes A001, A002)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class Direction(Enum):
    UP = "up"
    DOWN = "down"
    BOTH = "both"

    def __str__(self) -> str:
        return self.value


class Pattern(Enum):
    PIPELINE = "Pipeline"
    PIPELINE_WITH_FEEDBACK = "PipelineWithFeedback"
    ORCHESTRATION = "Orchestration"
    FAN_OUT = "FanOut"
    UNCLASSIFIED = "Unclassified"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PatternClass:
    value: Pattern
    evidence: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class Affected:
    element: str
    relation: str
    path: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {"element": self.element, "relation": self.relation, "path": list(self.path)}


@dataclass(frozen=True)
class ImpactReport:
    seed: str
    direction: Direction
    affected: tuple[Affected, ...]
    levels_touched: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "direction": str(self.direction),
            "affected": [a.to_json_obj() for a in self.affected],
            "levels": list(self.levels_touched),
        }


@dataclass(frozen=True)
class LoopFact:
    cycle: tuple[str, ...]
    exits: tuple[m.ActivityEdge, ...]


# --- impact graph -------------------------------------------------------------

class _ImpactGraph:
    """Labeled adjacency in both directions over element display names."""

    def __init__(self) -> None:
        self.down: dict[str, list[tuple[str, str]]] = {}
        self.up: dict[str, list[tuple[str, str]]] = {}

    def add(self, u: str, v: str, label_down: str, label_up: str) -> None:
        self.down.setdefault(u, []).append((v, label_down))
        self.up.setdefault(v, []).append((u, label_up))

    def neighbors(self, vertex: str, direction: Direction) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        if direction in (Direction.DOWN, Direction.BOTH):
            out.extend(self.down.get(vertex, ()))
        if direction in (Direction.UP, Direction.BOTH):
            out.extend(self.up.get(vertex, ()))
        return sorted(set(out))


def _build_impact_graph(rm: ResolvedModel) -> _ImpactGraph:
    g = _ImpactGraph()
    model = rm.model
    for agent in model.agents:
        llm = rm.llm_of(agent)
        if llm is not None:
            g.add(llm.name, agent.name, "Consumes", "Consumes")
        for task in agent.tasks:
            tq = m.task_display(agent.name, task.name)
            g.add(agent.name, tq, "Hosts", "Hosts")
            produced = set(task.outputs)
            consumed = set(task.inputs)
            if task.graph is not None:
                for node in task.graph.nodes:
                    if isinstance(node, m.CallNode):
                        callee = m.task_display(rm.callee_agent_name(agent, node), node.task)
                        g.add(tq, callee, "Calls", "CalledBy")
                    elif isinstance(node, m.InvokeNode):
                        produced.update(node.outputs)
                        consumed.update(node.inputs)
                        g.add(node.tool, tq, "Consumes", "Consumes")
                    elif isinstance(node, m.DecisionNode):
                        dq = m.body_node_display(agent.name, task.name, node.id)
                        g.add(node.subject, dq, "Gates", "Gates")
                        g.add(dq, node.subject, "Gates", "Gates")
                for edge in task.graph.edges:
                    if edge.kind is m.EdgeKind.STORE_WRITE:
                        sq = m.store_display(agent.name, m.store_name_of(edge.target))
                        g.add(tq, sq, "Produces", "Produces")
                    elif edge.kind is m.EdgeKind.STORE_READ:
                        sq = m.store_display(agent.name, m.store_name_of(edge.source))
                        g.add(sq, tq, "Consumes", "Consumes")
            for art in sorted(produced):
                g.add(tq, art, "Produces", "Produces")
            for art in sorted(consumed):
                g.add(art, tq, "Consumes", "Consumes")
    return g


def _element_level_map(rm: ResolvedModel) -> dict[str, str]:
    model = rm.model
    levels: dict[str, str] = {}
    if model.context is not None:
        for actor in model.context.actors:
            levels[actor.name] = "C1"
        for flow in model.context.flows:
            levels[m.flow_display(flow)] = "C1"
    for llm in model.llms:
        levels[llm.name] = "C1"
    for tool in model.tools:
        levels[tool.name] = "C1"
    if model.deployment is not None:
        for node in model.deployment.nodes:
            levels[node.name] = "C2"
        for link in model.deployment.links:
            levels[m.link_display(link)] = "C2"
    for agent in model.agents:
        levels[agent.name] = "C3"
        for store in agent.datastores:
            levels[m.store_display(agent.name, store.name)] = "C3"
        for task in agent.tasks:
            lvl = m.level_of(task)
            levels[m.task_display(agent.name, task.name)] = lvl
            if task.graph is not None:
                for node in task.graph.nodes:
                    if isinstance(node, (m.InitialNode, m.FinalNode, m.StoreNode)):
                        continue
                    levels[m.body_node_display(agent.name, task.name, node.id)] = lvl
    return levels


def seed_table(rm: ResolvedModel) -> dict[str, str]:
    """Known seed names -> element kind; later insertions take precedence,
    so agents win over tasks win over artifacts and so on."""
    model = rm.model
    table: dict[str, str] = {}
    if model.context is not None:
        for actor in model.context.actors:
            table[actor.name] = "actor"
    if model.deployment is not None:
        for node in model.deployment.nodes:
            table[node.name] = "node"
    for agent in model.agents:
        for task in agent.tasks:
            if task.graph is not None:
                for node in task.graph.nodes:
                    if not isinstance(node, (m.InitialNode, m.FinalNode, m.StoreNode)):
                        table[m.body_node_display(agent.name, task.name, node.id)] = "body node"
        for store in agent.datastores:
            table[m.store_display(agent.name, store.name)] = "store"
    for llm in model.llms:
        table[llm.name] = "llm"
    for tool in model.tools:
        table[tool.name] = "tool"
    for artifact in model.artifacts:
        table[artifact.name] = "artifact"
    for agent in model.agents:
        for task in agent.tasks:
            table[m.task_display(agent.name, task.name)] = "task"
    for agent in model.agents:
        table[agent.name] = "agent"
    return table


def impact(rm: ResolvedModel, seed: str, direction: Direction | str) -> ImpactReport:
    """Transitive closure of elements affected by changing ``seed``."""
    if isinstance(direction, str):
        try:
            direction = Direction(direction.lower())
        except ValueError:
            raise AnalysisError("A001", f"unknown direction '{direction}'") from None
    if seed not in seed_table(rm):
        raise AnalysisError("A001", f"unknown seed element '{seed}'")

    graph = _build_impact_graph(rm)

    # breadth-first closure with deterministic first-discovery bookkeeping
    parent: dict[str, Optional[str]] = {seed: None}
    relation: dict[str, str] = {}
    frontier = [seed]
    order: list[str] = []
    while frontier:
        next_frontier: list[str] = []
        for vertex in sorted(frontier):
            for neighbor, label in graph.neighbors(vertex, direction):
                if neighbor in parent:
                    continue
                parent[neighbor] = vertex
                relation[neighbor] = label
                order.append(neighbor)
                next_frontier.append(neighbor)
        frontier = next_frontier

    def path_of(element: str) -> tuple[str, ...]:
        chain: list[str] = []
        cur: Optional[str] = element
        while cur is not None and cur != seed:
            chain.append(cur)
            cur = parent[cur]
        return tuple(reversed(chain))

    affected: dict[str, Affected] = {}
    for element in order:
        affected[element] = Affected(element, relation[element], path_of(element))

    model = rm.model
    affected_set = set(affected)
    if model.context is not None:
        for flow in model.context.flows:
            hits = sorted(a for a in flow.artifacts if a in affected_set)
            if hits:
                display = m.flow_display(flow)
                affected[display] = Affected(
                    display, "FlowsOver", affected[hits[0]].path + (display,)
                )
    if model.deployment is not None:
        for node in model.deployment.nodes:
            hits = sorted(h for h in node.hosts if h in affected_set)
            if hits:
                affected[node.name] = Affected(
                    node.name, "Hosts", affected[hits[0]].path + (node.name,)
                )
        for link in model.deployment.links:
            hits = sorted(a for a in link.artifacts if a in affected_set)
            if hits:
                display = m.link_display(link)
                affected[display] = Affected(
                    display, "FlowsOver", affected[hits[0]].path + (display,)
                )

    level_map = _element_level_map(rm)
    levels = {level_map[e] for e in affected if e in level_map}
    if model.context is not None:
        for flow in model.context.flows:
            if seed in flow.artifacts or seed in (flow.source, flow.target):
                levels.add("C1")
    if model.deployment is not None:
        for link in model.deployment.links:
            if seed in link.artifacts:
                levels.add("C2")

    return ImpactReport(
        seed=seed,
        direction=direction,
        affected=tuple(sorted(affected.values(), key=lambda a: a.element)),
        levels_touched=tuple(sorted(levels)),
    )


# --- control-flow facts ---------------------------------------------------------

@dataclass(frozen=True)
class ControlFacts:
    """Control-flow facts of one task body, built once by ``control_facts``
    and shared by the rules and analyses that walk the body.

    Control flow follows CONTROL and OBJECT edges. Successor and predecessor
    lists hold one entry per edge, so parallel edges repeat a node.
    """

    out_edges: dict[str, list[m.ActivityEdge]]  # by source, in body order
    succ: dict[str, list[str]]  # sorted
    pred: dict[str, list[str]]
    from_start: set[str]
    reaches_end: set[str]
    sccs: list[list[str]]  # every SCC, sinks first (reverse topological order)
    cyclic: list[list[str]]  # the SCCs that hold a cycle
    guarded: dict[str, list[m.ActivityEdge]]  # guarded CONTROL out-edges by source


def control_facts(graph: m.ActivityGraph) -> ControlFacts:
    out_edges: dict[str, list[m.ActivityEdge]] = {}
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    guarded: dict[str, list[m.ActivityEdge]] = {}
    for edge in graph.edges:
        if edge.kind in (m.EdgeKind.CONTROL, m.EdgeKind.OBJECT):
            out_edges.setdefault(edge.source, []).append(edge)
            succ.setdefault(edge.source, []).append(edge.target)
            pred.setdefault(edge.target, []).append(edge.source)
            if edge.kind is m.EdgeKind.CONTROL and edge.guard is not None:
                guarded.setdefault(edge.source, []).append(edge)
    for targets in succ.values():
        targets.sort()
    vertices = sorted(set(succ) | set(pred))
    sccs = strongly_connected(vertices, succ)
    return ControlFacts(
        out_edges=out_edges,
        succ=succ,
        pred=pred,
        from_start=reachable(succ, m.INITIAL_ID),
        reaches_end=reachable(pred, m.FINAL_ID),
        sccs=sccs,
        cyclic=[scc for scc in sccs if _is_cyclic(scc, succ)],
        guarded=guarded,
    )


def reachable(adj: dict[str, list[str]], start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def strongly_connected(vertices: list[str], adj: dict[str, list[str]]) -> list[list[str]]:
    """Tarjan SCC over the given vertex subset, sink components first."""
    allowed = set(vertices)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        # iterative DFS to avoid recursion limits on generated graphs
        work = [(v, iter([w for w in adj.get(v, ()) if w in allowed]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([x for x in adj.get(w, ()) if x in allowed])))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                sccs.append(component)

    for v in vertices:
        if v not in index:
            strongconnect(v)
    return sccs


def _is_cyclic(scc: list[str], adj: dict[str, list[str]]) -> bool:
    return len(scc) > 1 or scc[0] in adj.get(scc[0], ())


# --- elementary circuits (Johnson's algorithm) ---------------------------------

def elementary_circuits(adj: dict[str, list[str]],
                        sccs: list[list[str]]) -> list[tuple[str, ...]]:
    """All elementary circuits inside the given cyclic SCCs of ``adj``, each
    rotated to start at its smallest vertex, in sorted order. A circuit over
    parallel edges is listed once per choice of edges."""
    circuits: list[tuple[str, ...]] = []
    pending = [set(scc) for scc in sccs]
    while pending:
        component = pending.pop()
        least = min(component)
        _circuits_through(least, component, adj, circuits)
        component.discard(least)
        pending.extend(
            set(scc)
            for scc in strongly_connected(sorted(component), adj)
            if _is_cyclic(scc, adj)
        )
    return sorted(circuits)


def _circuits_through(root: str, component: set[str], adj: dict[str, list[str]],
                      circuits: list[tuple[str, ...]]) -> None:
    """Johnson's CIRCUIT search from ``root`` (Johnson 1975), with explicit
    stacks for CIRCUIT and UNBLOCK so that long loops cannot overflow the
    interpreter's recursion limit."""
    blocked = {root}
    blocked_map: dict[str, set[str]] = {}
    path = [root]
    found = [False]  # per path vertex: has a circuit been closed below it?
    successors = [iter(adj.get(root, ()))]
    while successors:
        w = next(successors[-1], None)
        if w is not None:
            if w not in component:
                continue
            if w == root:
                circuits.append(tuple(path))
                found[-1] = True
            elif w not in blocked:
                path.append(w)
                blocked.add(w)
                found.append(False)
                successors.append(iter(adj.get(w, ())))
            continue
        v = path.pop()
        successors.pop()
        v_found = found.pop()
        if v_found:
            unblock = [v]
            while unblock:
                u = unblock.pop()
                blocked.discard(u)
                unblock.extend(x for x in blocked_map.pop(u, ()) if x in blocked)
            if found:
                found[-1] = True
        else:
            for x in adj.get(v, ()):
                if x in component:
                    blocked_map.setdefault(x, set()).add(v)


def _guarded_exits(facts: ControlFacts, cycle: tuple[str, ...]) -> tuple[m.ActivityEdge, ...]:
    members = set(cycle)
    return tuple(
        sorted(
            (e for v in cycle for e in facts.guarded.get(v, ()) if e.target not in members),
            key=lambda e: (e.source, e.target),
        )
    )


def loop_facts(task: m.Task) -> list[LoopFact]:
    """Every elementary control-flow cycle of the task body with the guarded
    edges that leave it; a cycle with no such exit risks never terminating."""
    if task.graph is None:
        return []
    facts = control_facts(task.graph)
    return [
        LoopFact(cycle, _guarded_exits(facts, cycle))
        for cycle in elementary_circuits(facts.succ, facts.cyclic)
    ]


def unguarded_circuits(facts: ControlFacts) -> list[tuple[str, ...]]:
    """The elementary circuits with no guarded exit, in sorted order.

    A node with a guarded CONTROL edge to a target outside its own SCC, or
    to a node already pruned, is pruned first: that edge is a guarded exit
    of every circuit through the node. SCCs are recomputed until no such
    node is left, and only the circuits of what remains are enumerated.
    """
    sccs = facts.cyclic
    while sccs:
        scc_of = {v: i for i, scc in enumerate(sccs) for v in scc}
        leaving = {
            v
            for v, i in scc_of.items()
            if any(scc_of.get(e.target) != i for e in facts.guarded.get(v, ()))
        }
        if not leaving:
            break
        remaining = sorted(v for v in scc_of if v not in leaving)
        sccs = [scc for scc in strongly_connected(remaining, facts.succ)
                if _is_cyclic(scc, facts.succ)]
    return [c for c in elementary_circuits(facts.succ, sccs) if not _guarded_exits(facts, c)]


# --- interaction pattern classification ----------------------------------------

def classify(rm: ResolvedModel, agent: m.Agent, task: m.Task) -> PatternClass:
    """Classify a composite task's interaction pattern.

    Precedence when several criteria hold: FanOut, then Orchestration, then
    PipelineWithFeedback, then Pipeline. The evidence list names the model
    elements that witnessed the decision.
    """
    if not task.is_composite:
        raise AnalysisError("A002", f"task '{m.task_display(agent.name, task.name)}' is a leaf")
    graph = task.graph
    assert graph is not None
    calls = graph.call_nodes()

    element_wise = tuple(c.id for c in calls if c.element_wise)
    if element_wise:
        return PatternClass(Pattern.FAN_OUT, (("element-wise-call", element_wise),))

    self_calls = tuple(
        c.id for c in calls if c.agent is None or c.agent == agent.name
    )
    delegated = tuple(
        sorted({c.agent for c in calls if c.agent is not None and c.agent != agent.name})
    )
    if self_calls and len(delegated) >= 2:
        evidence: list[tuple[str, tuple[str, ...]]] = [
            ("self-call", self_calls),
            ("delegates-to", delegated),
        ]
        forks = tuple(n.id for n in graph.nodes if isinstance(n, m.ForkNode))
        if forks:
            evidence.append(("parallel-delegation", forks))
        else:
            delegating_calls = tuple(
                c.id for c in calls if c.agent is not None and c.agent != agent.name
            )
            evidence.append(("sequential-delegation", delegating_calls))
        return PatternClass(Pattern.ORCHESTRATION, tuple(evidence))

    facts = control_facts(graph)
    chain = _call_chain_order(graph, facts.succ, calls)
    if chain is not None:
        forward, backward = _call_successions(graph, facts.succ, chain)
        consecutive = {(chain[i], chain[i + 1]) for i in range(len(chain) - 1)}
        chain_ok = forward == consecutive
        if chain_ok and backward:
            call_ids = {c.id for c in calls}
            decision_ids = {n.id for n in graph.nodes if isinstance(n, m.DecisionNode)}
            witness = [
                cy for cy in elementary_circuits(facts.succ, facts.cyclic)
                if set(cy) & call_ids and set(cy) & decision_ids
            ]
            if witness:
                return PatternClass(
                    Pattern.PIPELINE_WITH_FEEDBACK,
                    (
                        ("chain", chain),
                        ("feedback", tuple(f"{a}->{b}" for a, b in sorted(backward))),
                        ("cycle-through-decision", witness[0]),
                    ),
                )
        if chain_ok and not backward and not facts.cyclic:
            return PatternClass(Pattern.PIPELINE, (("chain", chain),))

    return PatternClass(Pattern.UNCLASSIFIED, ())


def _call_chain_order(
    graph: m.ActivityGraph,
    adj: dict[str, list[str]],
    calls: tuple[m.CallNode, ...],
) -> Optional[tuple[str, ...]]:
    """Call ids ordered by breadth-first distance from start, or None when a
    call is unreachable."""
    dist: dict[str, int] = {m.INITIAL_ID: 0}
    frontier = [m.INITIAL_ID]
    d = 0
    while frontier:
        d += 1
        nxt: list[str] = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    decl_index = {c.id: i for i, c in enumerate(calls)}
    if any(c.id not in dist for c in calls):
        return None
    return tuple(sorted((c.id for c in calls), key=lambda i: (dist[i], decl_index[i])))


def _call_successions(
    graph: m.ActivityGraph,
    adj: dict[str, list[str]],
    chain: tuple[str, ...],
) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """Pairs of calls linked by a control path with no call in between,
    split into forward and backward pairs relative to the chain order."""
    call_ids = set(chain)
    position = {cid: i for i, cid in enumerate(chain)}
    forward: set[tuple[str, str]] = set()
    backward: set[tuple[str, str]] = set()
    for cid in chain:
        seen: set[str] = set()
        stack = list(adj.get(cid, ()))
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            if v in call_ids:
                if position[v] > position[cid]:
                    forward.add((cid, v))
                else:
                    backward.add((cid, v))
                continue  # do not look through another call
            stack.extend(adj.get(v, ()))
    return forward, backward
