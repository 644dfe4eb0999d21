"""Control-flow graphs of task bodies.

* control_facts: the control-flow facts of one task body (successors,
  predecessors, reachability, SCCs, guarded out-edges). The body builds
  them once, as ``ActivityGraph.control``, and the rules and the analyses
  all read that one copy.
* strongly_connected: Tarjan's SCCs of the subgraph that a vertex subset
  induces, for ``control_facts``, rule V2, V13's pruning and
  ``iter_circuits``. It costs time linear in the out-edges of the subset.
* iter_circuits: the elementary circuits one at a time, in sorted order,
  so a caller that needs the first few (``classify``'s witness, the loop
  listing) stops the search there. Pending components wait in a heap keyed
  by their least vertex, and Johnson's search (1975) runs from that vertex
  over each vertex's successors in sorted order. The root is the least
  vertex of its component and is tried first, so circuits come out in
  lexicographic order. A circuit is its vertex sequence: parallel edges
  make one circuit. Each next circuit costs time linear in the size of
  the body.
* guarded_exits and loop_listing: the guarded edges that leave a circuit,
  and the one listing of loops (rule V13, agent pages), which stops at the
  first circuit past ``LOOP_LISTING_LIMIT`` per SCC. The exits of a circuit
  cost one sort of its guarded sources and a pass over their edges, which
  ``control_facts`` keeps sorted by target.

This module holds no impact or classify code, so ``check`` runs without
loading ``analysis``.
"""

from __future__ import annotations

import heapq
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator

from . import model as m
from .records import record

LOOP_LISTING_LIMIT = 64  # circuits listed per SCC; k diamonds in a loop make 2**k


@record
class ControlFacts:
    """Control-flow facts of one task body, built once by ``control_facts``
    for ``ActivityGraph.control`` and shared by the rules and analyses that
    walk the body.

    Control flow follows CONTROL edges. Parallel edges collapse in the
    successor lists, so the body is a simple digraph to every walk and
    circuit search. Out-edges and predecessor lists keep one entry per edge,
    because rule V6 counts the edges that leave a fork and enter a join.
    """

    out_edges: dict[str, list[m.ActivityEdge]]  # by source, in body order
    succ: dict[str, list[str]]  # sorted, distinct
    pred: dict[str, list[str]]  # one entry per edge
    from_start: set[str]
    reaches_end: set[str]
    sccs: list[list[str]]  # every SCC, sinks first (reverse topological order)
    cyclic: list[list[str]]  # the SCCs that hold a cycle
    # guarded CONTROL out-edges by source, each list by target (parallel
    # edges in body order)
    guarded: dict[str, list[m.ActivityEdge]]


_TARGET = attrgetter("target")


def control_facts(graph: m.ActivityGraph) -> ControlFacts:
    out_edges: dict[str, list[m.ActivityEdge]] = {}
    pred: dict[str, list[str]] = {}
    guarded: dict[str, list[m.ActivityEdge]] = {}
    for edge in graph.edges:
        if edge.kind is m.EdgeKind.CONTROL:
            out_edges.setdefault(edge.source, []).append(edge)
            pred.setdefault(edge.target, []).append(edge.source)
            if edge.guard is not None:
                guarded.setdefault(edge.source, []).append(edge)
    for edges in guarded.values():
        edges.sort(key=_TARGET)
    succ = {v: sorted({e.target for e in edges}) for v, edges in out_edges.items()}
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
    """Tarjan's SCCs (1972) of the subgraph that ``vertices`` induce, sink
    components first. The depth-first search is iterative, so long bodies
    cannot overflow the recursion limit, and it skips a successor outside
    the subset where it meets it instead of copying a filtered list."""
    allowed = set(vertices)
    index = {}
    low = {}
    stack = []
    depth = {}  # vertex on ``stack`` -> its position there
    sccs = []
    for root in vertices:
        if root in index:
            continue
        path = [root]
        successors = []  # per vertex on ``path``, its unvisited successors
        while path:
            v = path[-1]
            if v not in index:
                index[v] = low[v] = len(index)
                depth[v] = len(stack)
                stack.append(v)
                successors.append(iter(adj.get(v, ())))
            for w in successors[-1]:
                if w not in allowed:
                    continue
                if w not in index:
                    path.append(w)
                    break
                if w in depth and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                successors.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] == index[v]:
                    component = stack[depth[v]:]
                    del stack[depth[v]:]
                    for w in component:
                        del depth[w]
                    sccs.append(component[::-1])
    return sccs


def _is_cyclic(scc: list[str], adj: dict[str, list[str]]) -> bool:
    return len(scc) > 1 or scc[0] in adj.get(scc[0], ())


# --- elementary circuits (Johnson's algorithm) ---------------------------------

def iter_circuits(adj: dict[str, list[str]],
                  sccs: list[list[str]]) -> Iterator[tuple[str, ...]]:
    """The elementary circuits inside the given cyclic SCCs of ``adj``, each
    rotated to start at its smallest vertex, in sorted order, found one at a
    time: a caller that stops early pays only for what it took. ``adj``
    holds sorted, distinct adjacency lists, as ``ControlFacts.succ`` does."""
    pending = [(min(scc), set(scc)) for scc in sccs]  # disjoint: least vertices differ
    heapq.heapify(pending)
    while pending:
        root, component = heapq.heappop(pending)
        yield from _circuits_through(root, component, adj)
        component.discard(root)
        for scc in strongly_connected(sorted(component), adj):
            if _is_cyclic(scc, adj):
                heapq.heappush(pending, (min(scc), set(scc)))


def _circuits_through(root: str, component: set[str],
                      adj: dict[str, list[str]]) -> Iterator[tuple[str, ...]]:
    """Johnson's CIRCUIT search from ``root`` (Johnson 1975), with explicit
    stacks for CIRCUIT and UNBLOCK so that long loops cannot overflow the
    interpreter's recursion limit. It follows successors in sorted order."""
    blocked = {root}
    blocked_map: dict[str, set[str]] = {}
    path = [root]
    found = [False]  # per path vertex: has a circuit been closed below it?
    pending = [iter(adj.get(root, ()))]
    while pending:
        w = next(pending[-1], None)
        if w is not None:
            if w not in component:
                continue
            if w == root:
                yield tuple(path)
                found[-1] = True
            elif w not in blocked:
                path.append(w)
                blocked.add(w)
                found.append(False)
                pending.append(iter(adj.get(w, ())))
            continue
        v = path.pop()
        pending.pop()
        if found.pop():
            unblock = [v]
            while unblock:
                u = unblock.pop()
                blocked.discard(u)
                unblock += blocked.intersection(blocked_map.pop(u, ()))
            if found:
                found[-1] = True
        else:
            for x in adj.get(v, ()):
                if x in component:
                    blocked_map.setdefault(x, set()).add(v)


# --- guarded exits (rule V13) ----------------------------------------------------

def guarded_exits(facts: ControlFacts, members: Iterable[str]) -> tuple[m.ActivityEdge, ...]:
    """The guarded CONTROL edges from a member to a non-member, by source and
    target, parallel edges in body order."""
    inside = set(members)
    guarded = facts.guarded
    return tuple([e for v in sorted(guarded.keys() & inside) for e in guarded[v]
                  if e.target not in inside])


def loop_listing(facts: ControlFacts, unguarded: bool = False
                 ) -> Iterator[tuple[list[str], list[tuple[str, ...]], bool]]:
    """Per cyclic SCC, in sorted order: its sorted vertices, its first
    ``LOOP_LISTING_LIMIT`` elementary circuits in sorted order, and whether
    it holds more. With ``unguarded``, only circuits with no guarded exit
    count (rule V13), and a node with a guarded CONTROL edge to a target
    outside its own SCC, or to a node already pruned, is pruned first: that
    edge is a guarded exit of every circuit through the node. SCCs are
    recomputed until no such node is left, and only what remains is searched.
    """
    sccs = facts.cyclic
    while unguarded and sccs:
        scc_of = {v: i for i, scc in enumerate(sccs) for v in scc}
        leaving = {v for v, i in scc_of.items()
                   if any(scc_of.get(e.target) != i for e in facts.guarded.get(v, ()))}
        if not leaving:
            break
        remaining = sorted(scc_of.keys() - leaving)
        sccs = [scc for scc in strongly_connected(remaining, facts.succ)
                if _is_cyclic(scc, facts.succ)]
    for scc in sorted(map(sorted, sccs)):
        circuits = iter_circuits(facts.succ, [scc])
        if unguarded:
            circuits = (c for c in circuits if not guarded_exits(facts, c))
        circuits = list(islice(circuits, LOOP_LISTING_LIMIT + 1))
        yield scc, circuits[:LOOP_LISTING_LIMIT], len(circuits) > LOOP_LISTING_LIMIT
