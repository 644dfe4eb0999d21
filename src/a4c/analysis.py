"""Graph analyses over resolved models.

* impact: transitive change-impact closure from a seed element, upward
  (what influences it), downward (what it influences), or both.
* classify: interaction-pattern classification of a composite task.
* control_facts: the control-flow facts of one task body (successors,
  predecessors, reachability, SCCs, guarded out-edges). The body builds
  them once, as ``ActivityGraph.control``, and the rules and the analyses
  below all read that one copy; its ``circuits`` are likewise enumerated
  once per body.
* loop_facts: elementary control-flow circuits of a task body with their
  guarded exit edges.
* iter_circuits: the elementary circuits one at a time, in sorted order,
  so a caller that needs the first few (``classify``'s witness, the docs
  listing) stops the search there. Pending components wait in a heap keyed
  by their least vertex, and Johnson's search (1975) runs from that vertex
  over each vertex's distinct successors in sorted order. The root is the
  least vertex of its component and is tried first, so circuits come out
  in lexicographic order, each repeated once per choice of parallel edges.
  Each next circuit costs time linear in the size of the body.
  ``elementary_circuits`` is the whole list.

The impact relation works at task-signature granularity: a task produces
its declared outputs plus anything its own tool calls emit, and consumes
its declared inputs plus its tool calls' inputs. Datastore writes and reads
count as Produces/Consumes on the store. Decisions join the graph through
the artifact they gate on. Everything that does not depend on the seed is
built once per model and shared by every impact query: the seed kinds and
the element levels (``ResolvedModel.seed_kinds``, ``element_levels``), and
``ResolvedModel.relations``, which holds the relation as a sorted
neighbour index per direction, the flows, nodes and links that carry
impact, and the names that touch C1 or C2 through a flow or link. A query
is a breadth-first walk over the index of its direction: the frontier is
visited in sorted order, each vertex's neighbours in ``(name, label)``
order, and the first discovery of an element fixes its relation and its
witness path, its discoverer's path plus itself. So every path reported
is a shortest one.
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from . import model as m
from .records import record
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


@record
class PatternClass:
    value: Pattern
    evidence: tuple[tuple[str, tuple[str, ...]], ...]


@record
class Affected:
    element: str
    relation: str
    path: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {"element": self.element, "relation": self.relation, "path": list(self.path)}


@record
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


@record
class LoopFact:
    cycle: tuple[str, ...]
    exits: tuple[m.ActivityEdge, ...]


# --- impact -------------------------------------------------------------------

def seed_table(rm: ResolvedModel) -> dict[str, str]:
    """Known seed names -> element kind; a name shared by elements of
    several kinds takes the kind of highest precedence."""
    return dict(rm.seed_kinds)


def impact(rm: ResolvedModel, seed: str, direction: Direction | str) -> ImpactReport:
    """Transitive closure of elements affected by changing ``seed``."""
    if isinstance(direction, str):
        try:
            direction = Direction(direction.lower())
        except ValueError:
            raise AnalysisError("A001", f"unknown direction '{direction}'") from None
    if seed not in rm.seed_kinds:
        raise AnalysisError("A001", f"unknown seed element '{seed}'")
    relations = rm.relations
    neighbours = getattr(relations, direction.value)

    # breadth-first, frontier sorted, neighbours in (name, label) order: the
    # first discovery of an element fixes its relation, and its path is its
    # discoverer's path plus itself
    path: dict[str, tuple[str, ...]] = {seed: ()}
    relation: dict[str, str] = {}
    frontier = [seed]
    while frontier:
        next_frontier: list[str] = []
        for vertex in sorted(frontier):
            base = path[vertex]
            for neighbour, label in neighbours.get(vertex, ()):
                if neighbour not in path:
                    path[neighbour] = base + (neighbour,)
                    relation[neighbour] = label
                    next_frontier.append(neighbour)
        frontier = next_frontier
    del path[seed]

    # flows, nodes and links are affected through what they carry or host;
    # a carrier's path extends its least carried element's path as it stands
    # when the carrier comes up, which may be an earlier carrier's of the
    # same name (a node named like the agent it hosts)
    reached = set(relation)
    for display, label, carried in relations.carriers:
        hits = reached.intersection(carried)
        if hits:
            path[display] = path[min(hits)] + (display,)
            relation[display] = label

    level_map = rm.element_levels
    levels = {level_map[e] for e in relation if e in level_map}
    if seed in relations.touches_c1:
        levels.add("C1")
    if seed in relations.touches_c2:
        levels.add("C2")

    return ImpactReport(
        seed=seed,
        direction=direction,
        affected=tuple(Affected(e, relation[e], path[e]) for e in sorted(relation)),
        levels_touched=tuple(sorted(levels)),
    )


# --- control-flow facts ---------------------------------------------------------

@record
class ControlFacts:
    """Control-flow facts of one task body, built once by ``control_facts``
    for ``ActivityGraph.control`` and shared by the rules and analyses that
    walk the body.

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

    @cached_property
    def circuits(self) -> list[tuple[str, ...]]:
        """Every elementary circuit of the body, in sorted order."""
        return elementary_circuits(self.succ, self.cyclic)


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
    return list(iter_circuits(adj, sccs))


def iter_circuits(adj: dict[str, list[str]],
                  sccs: list[list[str]]) -> Iterator[tuple[str, ...]]:
    """The circuits of ``elementary_circuits``, in the same order, found one
    at a time: a caller that stops early pays only for what it took."""
    pending = [(min(scc), set(scc)) for scc in sccs]  # disjoint: least vertices differ
    heapq.heapify(pending)
    edge_counts: dict[str, dict[str, int]] = {}
    while pending:
        root, component = heapq.heappop(pending)
        yield from _circuits_through(root, component, adj, edge_counts)
        component.discard(root)
        for scc in strongly_connected(sorted(component), adj):
            if _is_cyclic(scc, adj):
                heapq.heappush(pending, (min(scc), set(scc)))


def _circuits_through(root: str, component: set[str], adj: dict[str, list[str]],
                      edge_counts: dict[str, dict[str, int]]) -> Iterator[tuple[str, ...]]:
    """Johnson's CIRCUIT search from ``root`` (Johnson 1975), with explicit
    stacks for CIRCUIT and UNBLOCK so that long loops cannot overflow the
    interpreter's recursion limit. It follows distinct successors in sorted
    order and yields each circuit once per choice of parallel edges along
    it, back to back."""

    def successors(v: str) -> dict[str, int]:
        counts = edge_counts.get(v)
        if counts is None:
            counts = edge_counts[v] = {}
            for w in adj.get(v, ()):  # sorted, so the keys are too
                counts[w] = counts.get(w, 0) + 1
        return counts

    blocked = {root}
    blocked_map: dict[str, set[str]] = {}
    path = [root]
    choices = [1]  # per path vertex: choices of parallel edges along the path to it
    found = [False]  # per path vertex: has a circuit been closed below it?
    out = [successors(root)]
    pending = [iter(out[-1])]
    while pending:
        w = next(pending[-1], None)
        if w is not None:
            if w not in component:
                continue
            if w == root:
                circuit = tuple(path)
                for _ in range(choices[-1] * out[-1][w]):
                    yield circuit
                found[-1] = True
            elif w not in blocked:
                path.append(w)
                blocked.add(w)
                choices.append(choices[-1] * out[-1][w])
                found.append(False)
                out.append(successors(w))
                pending.append(iter(out[-1]))
            continue
        v = path.pop()
        choices.pop()
        v_out = out.pop()
        pending.pop()
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
            for x in v_out:
                if x in component:
                    blocked_map.setdefault(x, set()).add(v)


_SOURCE_TARGET = attrgetter("source", "target")


def guarded_exits(facts: ControlFacts, members: Iterable[str]) -> tuple[m.ActivityEdge, ...]:
    """The guarded CONTROL edges from a member to a non-member, by source and
    target, parallel edges in body order."""
    inside = set(members)
    guarded = facts.guarded
    return tuple(sorted((e for v in inside for e in guarded.get(v, ()) if e.target not in inside),
                        key=_SOURCE_TARGET))


def loop_facts(task: m.Task) -> list[LoopFact]:
    """Every elementary control-flow cycle of the task body with the guarded
    edges that leave it; a cycle with no such exit risks never terminating."""
    if task.graph is None:
        return []
    facts = task.graph.control
    return [LoopFact(cycle, guarded_exits(facts, cycle)) for cycle in facts.circuits]


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
    return [c for c in elementary_circuits(facts.succ, sccs) if not guarded_exits(facts, c)]


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
    calls = graph.calls

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

    facts = graph.control
    chain = _call_chain_order(facts.succ, calls)
    if chain is not None:
        forward, backward = _call_successions(facts.succ, chain)
        consecutive = {(chain[i], chain[i + 1]) for i in range(len(chain) - 1)}
        chain_ok = forward == consecutive
        if chain_ok and backward:
            call_ids = {c.id for c in calls}
            decision_ids = {n.id for n in graph.nodes if isinstance(n, m.DecisionNode)}
            # only an SCC that holds a call and a decision can hold a witness
            sccs = [scc for scc in facts.cyclic
                    if not call_ids.isdisjoint(scc) and not decision_ids.isdisjoint(scc)]
            witness = next((cy for cy in iter_circuits(facts.succ, sccs)
                            if not call_ids.isdisjoint(cy) and not decision_ids.isdisjoint(cy)),
                           None)
            if witness is not None:
                return PatternClass(
                    Pattern.PIPELINE_WITH_FEEDBACK,
                    (
                        ("chain", chain),
                        ("feedback", tuple(f"{a}->{b}" for a, b in sorted(backward))),
                        ("cycle-through-decision", witness),
                    ),
                )
        if chain_ok and not backward and not facts.cyclic:
            return PatternClass(Pattern.PIPELINE, (("chain", chain),))

    return PatternClass(Pattern.UNCLASSIFIED, ())


def _call_chain_order(
    adj: dict[str, list[str]], calls: tuple[m.CallNode, ...]
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
    adj: dict[str, list[str]], chain: tuple[str, ...]
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
