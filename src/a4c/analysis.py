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

from enum import Enum
from typing import Optional

from . import model as m
# elementary_circuits and strongly_connected: still read as a4c.analysis.X by callers
from .flow import elementary_circuits, guarded_exits, iter_circuits, strongly_connected
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


# --- loops ---------------------------------------------------------------------

def loop_facts(task: m.Task) -> list[LoopFact]:
    """Every elementary control-flow cycle of the task body with the guarded
    edges that leave it; a cycle with no such exit risks never terminating."""
    if task.graph is None:
        return []
    facts = task.graph.control
    return [LoopFact(cycle, guarded_exits(facts, cycle)) for cycle in facts.circuits]


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
