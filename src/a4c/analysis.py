"""Graph analyses over resolved models.

* impact: transitive change-impact closure from a seed element, upward
  (what influences it), downward (what it influences), or both.
* classify: interaction-pattern classification of a composite task.
* loop_facts: elementary control-flow circuits of a task body with their
  guarded exit edges.

The control-flow graph code these read (``ActivityGraph.control``,
``iter_circuits``, ``guarded_exits``) lives in ``flow``.

The impact relation works at task-signature granularity: a task produces
its declared outputs plus anything its own tool calls emit, and consumes
its declared inputs plus its tool calls' inputs. Datastore writes and reads
count as Produces/Consumes on the store. Decisions join the graph through
the artifact they gate on. Every impact fact that does not depend on the
seed lives in one record, ``Relations``: the seed table, the element
levels, the relation as a sorted neighbour index per direction, the flows,
nodes and links that carry impact, and the names that touch C1 or C2
through a flow or link. ``impact_relations`` builds it in one pass on the
first query, and ``ResolvedModel.relations`` keeps it for every later one.
A query is a breadth-first walk over the index of its direction: the
frontier is visited in sorted order, each vertex's neighbours in
``(name, label)`` order, and the first discovery of an element fixes its
relation and its witness path, its discoverer's path plus itself. So every
path reported is a shortest one. The walk and the report are all that a
query pays for: nothing is rebuilt per query, and nothing is kept for the
next one. The direction is a ``Direction`` or its value in any letter
case; anything else, like an unknown seed, raises ``A001``.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from . import model as m
from .elements import body_node_display, flow_display, link_display, store_display
from .flow import guarded_exits, iter_circuits
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

# the kinds of element an impact seed can name, lowest precedence first
_SEED_RANK = {kind: i for i, kind in enumerate(
    ("actor", "node", "body node", "store", "llm", "tool", "artifact", "task", "agent"))}


@record
class Relations:
    """The facts of impact that do not depend on the seed, built once per
    model by ``impact_relations``.

    ``seeds`` maps each name that can be a seed to its element's kind, and
    ``levels`` each element display name to its C4 level. A name shared by
    several elements takes the kind of highest precedence and the highest level.

    ``down``, ``up`` and ``both`` are the labeled impact relation over
    element display names, one neighbour index per direction and named for
    it: ``down[u]`` lists ``(v, label)`` for each element v that u
    influences, ``up[v]`` ``(u, label)`` for each element u that influences
    v, and ``both[w]`` the union of the two. Each list is sorted and holds
    each pair once.

    ``carriers`` lists ``(display, label, carried)`` for every context flow,
    then every deployment node, then every deployment link, in file order:
    the element, the relation by which it is affected, and the names whose
    impact reaches it. ``touches_c1`` holds the names that a flow mentions
    (its source, its target and its artifacts), and ``touches_c2`` the
    artifacts a link carries.
    """

    seeds: dict[str, str]
    levels: dict[str, str]
    down: dict[str, list[tuple[str, str]]]
    up: dict[str, list[tuple[str, str]]]
    both: dict[str, list[tuple[str, str]]]
    carriers: list[tuple[str, str, tuple[str, ...]]]
    touches_c1: set[str]
    touches_c2: set[str]


def impact_relations(rm: ResolvedModel) -> Relations:
    """Build the model's ``Relations``; ``rm.relations`` keeps them."""
    down: dict[str, set[tuple[str, str]]] = {}
    up: dict[str, set[tuple[str, str]]] = {}

    def add(u: str, v: str, label_down: str, label_up: str) -> None:
        down.setdefault(u, set()).add((v, label_down))
        up.setdefault(v, set()).add((u, label_up))

    model = rm.model
    for agent in model.agents:
        llm = rm.llm_of(agent)
        if llm is not None:
            add(llm.name, agent.name, "Consumes", "Consumes")
        for task in agent.tasks:
            tq = m.task_display(agent.name, task.name)
            add(agent.name, tq, "Hosts", "Hosts")
            produced = set(task.outputs)
            consumed = set(task.inputs)
            if task.graph is not None:
                for node in task.graph.nodes:
                    if isinstance(node, m.CallNode):
                        callee = m.task_display(rm.callee_agent_name(agent, node), node.task)
                        add(tq, callee, "Calls", "CalledBy")
                    elif isinstance(node, m.InvokeNode):
                        produced.update(node.outputs)
                        consumed.update(node.inputs)
                        add(node.tool, tq, "Consumes", "Consumes")
                    elif isinstance(node, m.DecisionNode):
                        dq = body_node_display(agent.name, task.name, node.id)
                        add(node.subject, dq, "Gates", "Gates")
                        add(dq, node.subject, "Gates", "Gates")
                for edge in task.graph.edges:
                    if edge.kind is m.EdgeKind.STORE_WRITE:
                        sq = store_display(agent.name, m.store_name_of(edge.target))
                        add(tq, sq, "Produces", "Produces")
                    elif edge.kind is m.EdgeKind.STORE_READ:
                        sq = store_display(agent.name, m.store_name_of(edge.source))
                        add(sq, tq, "Consumes", "Consumes")
            for art in produced:
                add(tq, art, "Produces", "Produces")
            for art in consumed:
                add(art, tq, "Consumes", "Consumes")

    carriers: list[tuple[str, str, tuple[str, ...]]] = []
    touches_c1: set[str] = set()
    touches_c2: set[str] = set()
    if model.context is not None:
        for flow in model.context.flows:
            carriers.append((flow_display(flow), "FlowsOver", flow.artifacts))
            touches_c1.update(flow.artifacts)
            touches_c1.update((flow.source, flow.target))
    if model.deployment is not None:
        carriers += [(node.name, "Hosts", node.hosts) for node in model.deployment.nodes]
        for link in model.deployment.links:
            carriers.append((link_display(link), "FlowsOver", link.artifacts))
            touches_c2.update(link.artifacts)

    # sorted by ascending precedence or level, so the highest is written last
    ranked = sorted((e for e in model.elements if e.kind in _SEED_RANK),
                    key=lambda e: _SEED_RANK[e.kind])
    leveled = sorted((e for e in model.elements if e.level is not None),
                     key=lambda e: e.level)
    return Relations(
        seeds={e.display: e.kind for e in ranked},
        levels={e.display: e.level for e in leveled},
        down={u: sorted(pairs) for u, pairs in down.items()},
        up={v: sorted(pairs) for v, pairs in up.items()},
        both={w: sorted(down.get(w, set()) | up.get(w, set()))
              for w in down.keys() | up.keys()},
        carriers=carriers,
        touches_c1=touches_c1,
        touches_c2=touches_c2,
    )


def seed_table(rm: ResolvedModel) -> dict[str, str]:
    """Known seed names -> element kind, as a copy the caller may change."""
    return dict(rm.relations.seeds)


# a Direction, or its value, -> the Direction
_DIRECTIONS = {key: d for d in Direction for key in (d, d.value)}


def impact(rm: ResolvedModel, seed: str, direction: Direction | str) -> ImpactReport:
    """Transitive closure of elements affected by changing ``seed``."""
    try:
        direction = _DIRECTIONS[direction.lower() if isinstance(direction, str) else direction]
    except (KeyError, TypeError):
        raise AnalysisError("A001", f"unknown direction '{direction}'") from None
    relations = rm.relations
    if seed not in relations.seeds:
        raise AnalysisError("A001", f"unknown seed element '{seed}'")
    # ``_value_`` names the direction's index, and unlike ``value`` runs no code
    neighbours = getattr(relations, direction._value_)

    # breadth-first, frontier sorted, neighbours in (name, label) order: the
    # first discovery of an element fixes its relation, and its path is its
    # discoverer's path plus itself. ``found`` maps each element to its entry,
    # built by ``tuple.__new__`` so that no ``__new__`` frame runs per entry;
    # the seed's entry only starts the walk
    found = {seed: Affected(seed, "", ())}
    frontier = [seed]
    while frontier:
        next_frontier = []
        for vertex in sorted(frontier):
            base = found[vertex].path
            for neighbour, label in neighbours.get(vertex, ()):
                if neighbour not in found:
                    found[neighbour] = tuple.__new__(
                        Affected, (neighbour, label, base + (neighbour,)))
                    next_frontier.append(neighbour)
        frontier = next_frontier
    del found[seed]

    # flows, nodes and links are affected through what they carry or host;
    # a carrier's path extends its least carried element's path as it stands
    # when the carrier comes up, which may be an earlier carrier's of the
    # same name (a node named like the agent it hosts)
    reached = set(found)
    for display, label, carried in relations.carriers:
        if reached.isdisjoint(carried):
            continue
        base = found[min(reached.intersection(carried))].path
        found[display] = tuple.__new__(Affected, (display, label, base + (display,)))

    levels = set(filter(None, map(relations.levels.get, found)))
    if seed in relations.touches_c1:
        levels.add("C1")
    if seed in relations.touches_c2:
        levels.add("C2")
    return tuple.__new__(ImpactReport, (
        seed, direction, tuple(map(found.__getitem__, sorted(found))), tuple(sorted(levels))))


# --- loops ---------------------------------------------------------------------

def loop_facts(task: m.Task) -> list[LoopFact]:
    """Every elementary control-flow cycle of the task body with the guarded
    edges that leave it; a cycle with no such exit risks never terminating."""
    if task.graph is None:
        return []
    facts = task.graph.control
    return [LoopFact(cycle, guarded_exits(facts, cycle))
            for cycle in iter_circuits(facts.succ, facts.cyclic)]


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
