"""Control-flow graphs of task bodies.

* control_facts: the control-flow facts of one task body (successors,
  predecessors, reachability, SCCs, guarded out-edges). The body builds
  them once, as ``ActivityGraph.control``, and the rules and the analyses
  all read that one copy; its ``circuits`` are likewise enumerated once
  per body.
* iter_circuits: the elementary circuits one at a time, in sorted order,
  so a caller that needs the first few (``classify``'s witness, the docs
  listing) stops the search there. Pending components wait in a heap keyed
  by their least vertex, and Johnson's search (1975) runs from that vertex
  over each vertex's distinct successors in sorted order. The root is the
  least vertex of its component and is tried first, so circuits come out
  in lexicographic order, each repeated once per choice of parallel edges.
  Each next circuit costs time linear in the size of the body.
  ``elementary_circuits`` is the whole list.
* guarded_exits and unguarded_circuits: the guarded edges that leave a
  circuit, and the circuits that no guarded edge leaves (rule V13).

This module holds no impact or classify code, so ``check`` runs without
loading ``analysis``.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator

from . import model as m
from .records import record


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


# --- guarded exits (rule V13) ----------------------------------------------------

_SOURCE_TARGET = attrgetter("source", "target")


def guarded_exits(facts: ControlFacts, members: Iterable[str]) -> tuple[m.ActivityEdge, ...]:
    """The guarded CONTROL edges from a member to a non-member, by source and
    target, parallel edges in body order."""
    inside = set(members)
    guarded = facts.guarded
    return tuple(sorted((e for v in inside for e in guarded.get(v, ()) if e.target not in inside),
                        key=_SOURCE_TARGET))


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
