"""Independent reference implementations used to cross-check analyses.

These deliberately use the slowest, most literal algorithms available:
change impact runs a fixpoint sweep over a flat edge list, circuit
enumeration does an exhaustive simple-path search (over edges, where
parallel edges count), artifact availability searches forward from every
producer, and tokenizing walks the text one character at a time. They
share nothing with the package's graph code beyond the metamodel itself,
nor with its lexer beyond the token names and the keyword set.

The relation edge table (who produces/consumes/calls/hosts what, and with
which label per traversal direction) is written out longhand here from the
model, so a disagreement with the package points at a real bug rather than
a shared helper.
"""

from __future__ import annotations

from a4c import lexer as lx
from a4c import model as m
from a4c.diagnostics import Position, SourceSpan, error


def display_task(agent: str, task: str) -> str:
    return f"{agent}.{task}"


def display_body_node(agent: str, task: str, node_id: str) -> str:
    return f"{agent}.{task}/{node_id}"


def display_store(agent: str, store: str) -> str:
    return f"{agent}.{store}"


def display_flow(flow: m.ContextFlow, occurrence: int) -> str:
    return f"flow {flow.source}->{flow.target}#{occurrence}"


def display_link(link: m.DeploymentLink, occurrence: int) -> str:
    return f"link {link.source}->{link.target}#{occurrence}"


def default_llm_name(model: m.Model) -> str | None:
    for llm in model.llms:
        if llm.default:
            return llm.name
    return None


def oracle_edges(model: m.Model) -> list[tuple[str, str, str, str]]:
    """Flat (u, v, label_down, label_up) list of the impact relation."""
    edges: list[tuple[str, str, str, str]] = []
    default_llm = default_llm_name(model)

    for agent in model.agents:
        llm = agent.llm if agent.llm is not None else default_llm
        if llm is not None:
            edges.append((llm, agent.name, "Consumes", "Consumes"))
        store_artifacts = {s.name: s.artifact for s in agent.datastores}
        for task in agent.tasks:
            tq = display_task(agent.name, task.name)
            edges.append((agent.name, tq, "Hosts", "Hosts"))

            produced = set(task.outputs)
            consumed = set(task.inputs)
            if task.graph is not None:
                for node in task.graph.nodes:
                    if isinstance(node, m.InvokeNode):
                        produced.update(node.outputs)
                        consumed.update(node.inputs)
                        edges.append((node.tool, tq, "Consumes", "Consumes"))
                    elif isinstance(node, m.CallNode):
                        callee_agent = node.agent if node.agent is not None else agent.name
                        callee = display_task(callee_agent, node.task)
                        edges.append((tq, callee, "Calls", "CalledBy"))
                    elif isinstance(node, m.DecisionNode):
                        dq = display_body_node(agent.name, task.name, node.id)
                        edges.append((node.subject, dq, "Gates", "Gates"))
                        edges.append((dq, node.subject, "Gates", "Gates"))
                for edge in task.graph.edges:
                    if edge.kind is m.EdgeKind.STORE_WRITE:
                        store = m.store_name_of(edge.target)
                        if store in store_artifacts:
                            sq = display_store(agent.name, store)
                            edges.append((tq, sq, "Produces", "Produces"))
                    elif edge.kind is m.EdgeKind.STORE_READ:
                        store = m.store_name_of(edge.source)
                        if store in store_artifacts:
                            sq = display_store(agent.name, store)
                            edges.append((sq, tq, "Consumes", "Consumes"))
            for art in sorted(produced):
                edges.append((tq, art, "Produces", "Produces"))
            for art in sorted(consumed):
                edges.append((art, tq, "Consumes", "Consumes"))
    return edges


def closure(edges: list[tuple[str, str, str, str]], seed: str, direction: str) -> set[str]:
    """Naive fixpoint over a flat edge list; returns displays, seed excluded."""
    members = {seed}
    changed = True
    while changed:
        changed = False
        for u, v, _dl, _ul in edges:
            if direction in ("down", "both") and u in members and v not in members:
                members.add(v)
                changed = True
            if direction in ("up", "both") and v in members and u not in members:
                members.add(u)
                changed = True
    return members - {seed}


def oracle_affected_set(model: m.Model, seed: str, direction: str) -> set[str]:
    return closure(oracle_edges(model), seed, direction)


def carriers(model: m.Model) -> list[tuple[str, str, tuple[str, ...]]]:
    """(display, relation, carried names) of every C1 flow, then every C2
    node, then every C2 link, in file order."""
    out: list[tuple[str, str, tuple[str, ...]]] = []
    flow_counts: dict[tuple[str, str], int] = {}
    if model.context is not None:
        for flow in model.context.flows:
            key = (flow.source, flow.target)
            occ = flow_counts.get(key, 0)
            flow_counts[key] = occ + 1
            out.append((display_flow(flow, occ), "FlowsOver", flow.artifacts))
    link_counts: dict[tuple[str, str], int] = {}
    if model.deployment is not None:
        for node in model.deployment.nodes:
            out.append((node.name, "Hosts", node.hosts))
        for link in model.deployment.links:
            key = (link.source, link.target)
            occ = link_counts.get(key, 0)
            link_counts[key] = occ + 1
            out.append((display_link(link, occ), "FlowsOver", link.artifacts))
    return out


def oracle_decorations(model: m.Model, affected: set[str]) -> dict[str, str]:
    """C1 flows, C2 links, and C2 nodes pulled in by already-affected elements."""
    return {display: relation for display, relation, carried in carriers(model)
            if any(a in affected for a in carried)}


def oracle_impact_report(
    model: m.Model, seed: str, direction: str
) -> tuple[list[tuple[str, str, tuple[str, ...]]], list[str]]:
    """The whole impact report by the documented rule, over ``oracle_edges``.

    Breadth-first from the seed: the frontier is visited in sorted order,
    each vertex's distinct neighbours in (name, label) order, and the first
    discovery of an element fixes its relation and its path, its
    discoverer's path plus itself. Then each carrier (``carriers``) that
    carries or hosts a discovered element is added with its own relation;
    its path is the path of the least such element, as that path stands
    when the carrier comes up, plus the carrier. Returns the affected
    ``(element, relation, path)`` triples sorted by element, and the
    sorted levels.
    """
    adjacency: dict[str, set[tuple[str, str]]] = {}
    for u, v, label_down, label_up in oracle_edges(model):
        if direction in ("down", "both"):
            adjacency.setdefault(u, set()).add((v, label_down))
        if direction in ("up", "both"):
            adjacency.setdefault(v, set()).add((u, label_up))
    path: dict[str, tuple[str, ...]] = {seed: ()}
    relation: dict[str, str] = {}
    frontier = [seed]
    while frontier:
        discovered = []
        for vertex in sorted(frontier):
            for neighbour, label in sorted(adjacency.get(vertex, ())):
                if neighbour not in path:
                    path[neighbour] = path[vertex] + (neighbour,)
                    relation[neighbour] = label
                    discovered.append(neighbour)
        frontier = discovered
    del path[seed]
    closure_members = set(relation)
    for display, label, carried in carriers(model):
        hits = sorted(a for a in carried if a in closure_members)
        if hits:
            path[display] = path[hits[0]] + (display,)
            relation[display] = label
    affected = [(e, relation[e], path[e]) for e in sorted(relation)]
    return affected, sorted(oracle_levels(model, seed, set(relation)))


def oracle_levels(model: m.Model, seed: str, affected: set[str]) -> set[str]:
    levels: set[str] = set()
    level_by_element = element_levels(model)
    for elem in affected:
        lvl = level_by_element.get(elem)
        if lvl is not None:
            levels.add(lvl)
    # flows and links mentioning the seed itself touch their level even
    # when nothing else is affected
    if model.context is not None:
        for flow in model.context.flows:
            if seed in flow.artifacts or seed in (flow.source, flow.target):
                levels.add("C1")
    if model.deployment is not None:
        for link in model.deployment.links:
            if seed in link.artifacts:
                levels.add("C2")
    return levels


def element_levels(model: m.Model) -> dict[str, str]:
    """Display name -> C-level; artifacts carry no level of their own."""
    levels: dict[str, str] = {}
    if model.context is not None:
        for actor in model.context.actors:
            levels[actor.name] = "C1"
        counts: dict[tuple[str, str], int] = {}
        for flow in model.context.flows:
            key = (flow.source, flow.target)
            occ = counts.get(key, 0)
            counts[key] = occ + 1
            levels[display_flow(flow, occ)] = "C1"
    for llm in model.llms:
        levels[llm.name] = "C1"
    for tool in model.tools:
        levels[tool.name] = "C1"
    if model.deployment is not None:
        for node in model.deployment.nodes:
            levels[node.name] = "C2"
        counts = {}
        for link in model.deployment.links:
            key = (link.source, link.target)
            occ = counts.get(key, 0)
            counts[key] = occ + 1
            levels[display_link(link, occ)] = "C2"
    for agent in model.agents:
        levels[agent.name] = "C3"
        for store in agent.datastores:
            levels[display_store(agent.name, store.name)] = "C3"
        for task in agent.tasks:
            task_level = "C3" if task.is_composite else "C4"
            levels[display_task(agent.name, task.name)] = task_level
            if task.graph is not None:
                for node in task.graph.nodes:
                    if isinstance(node, (m.InitialNode, m.FinalNode, m.StoreNode)):
                        continue
                    levels[display_body_node(agent.name, task.name, node.id)] = task_level
    return levels


def oracle_cycles(graph: m.ActivityGraph) -> set[tuple[str, ...]]:
    """Every elementary control-flow circuit, canonicalized to its smallest
    rotation, found by exhaustive simple-path search."""
    adjacency: dict[str, set[str]] = {}
    for edge in graph.edges:
        if edge.kind is m.EdgeKind.CONTROL:
            adjacency.setdefault(edge.source, set()).add(edge.target)

    cycles: set[tuple[str, ...]] = set()
    vertices = sorted(adjacency)

    def search(origin: str, current: str, path: list[str]) -> None:
        for nxt in sorted(adjacency.get(current, ())):
            if nxt == origin:
                cycles.add(canonical_cycle(tuple(path)))
            elif nxt not in path and nxt > origin:
                path.append(nxt)
                search(origin, nxt, path)
                path.pop()

    for v in vertices:
        search(v, v, [v])
    return cycles


def oracle_circuit_list(edges: list[tuple[str, str]]) -> list[tuple[str, ...]]:
    """Every elementary circuit of a directed multigraph given as an edge
    list, once per choice of parallel edges, rotated to its smallest vertex,
    in sorted order. The search walks edges, not vertices, from each origin
    through larger vertices only, so each choice of edges is found once."""
    out: dict[str, list[str]] = {}
    for source, target in edges:
        out.setdefault(source, []).append(target)

    circuits: list[tuple[str, ...]] = []

    def search(origin: str, path: list[str]) -> None:
        for nxt in out.get(path[-1], ()):
            if nxt == origin:
                circuits.append(tuple(path))
            elif nxt > origin and nxt not in path:
                path.append(nxt)
                search(origin, path)
                path.pop()

    for v in sorted(out):
        search(v, [v])
    return sorted(circuits)


def oracle_sccs(vertices, edges) -> set[frozenset]:
    """The strongly connected components of the subgraph that ``vertices``
    induce in the digraph ``edges``, a list of pairs that may hold parallel
    edges and self-loops, by brute force: two vertices share a component iff
    each reaches the other, by a search from every vertex."""
    inside = set(vertices)
    out: dict = {}
    for source, target in edges:
        if source in inside and target in inside:
            out.setdefault(source, []).append(target)

    def reach(v) -> set:
        seen = {v}
        todo = [v]
        while todo:
            for w in out.get(todo.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    reaches = {v: reach(v) for v in inside}
    return {frozenset(w for w in reaches[v] if v in reaches[w]) for v in inside}


def canonical_cycle(cycle: tuple[str, ...]) -> tuple[str, ...]:
    """Rotate so the smallest node id comes first."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def oracle_guarded_exits(graph: m.ActivityGraph, cycle: tuple[str, ...]) -> set[tuple[str, str]]:
    members = set(cycle)
    exits: set[tuple[str, str]] = set()
    for edge in graph.edges:
        if edge.kind is m.EdgeKind.CONTROL and edge.guard is not None:
            if edge.source in members and edge.target not in members:
                exits.add((edge.source, edge.target))
    return exits


def oracle_unavailable(agent: m.Agent, task: m.Task) -> list[tuple[str, str]]:
    """(node id, artifact) for every consumption rule V4 must report, in body
    node order: a node reachable from start consumes an artifact that is not
    a task input, not read from a datastore into that node, and not produced
    by a call or invoke reachable from start on a path of length >= 1 into
    the node."""
    graph = task.graph
    successors: dict[str, list[str]] = {}
    for edge in graph.edges:
        if edge.kind is m.EdgeKind.CONTROL:
            successors.setdefault(edge.source, []).append(edge.target)

    def search(origins: list[str]) -> set[str]:
        seen = set(origins)
        frontier = list(origins)
        while frontier:
            for nxt in successors.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    from_start = search([m.INITIAL_ID])
    store_artifacts = {s.name: s.artifact for s in agent.datastores}
    missing: list[tuple[str, str]] = []
    for node in graph.nodes:
        if node.id not in from_start:
            continue
        if isinstance(node, (m.CallNode, m.InvokeNode)):
            consumed = node.inputs
        elif isinstance(node, m.DecisionNode):
            consumed = (node.subject,)
        else:
            continue
        for art in consumed:
            if art in task.inputs:
                continue
            if any(
                edge.kind is m.EdgeKind.STORE_READ
                and edge.target == node.id
                and store_artifacts.get(m.store_name_of(edge.source)) == art
                for edge in graph.edges
            ):
                continue
            if any(
                isinstance(p, (m.CallNode, m.InvokeNode))
                and art in p.outputs
                and p.id in from_start
                and node.id in search(successors.get(p.id, []))
                for p in graph.nodes
            ):
                continue
            missing.append((node.id, art))
    return missing


def oracle_tokenize(text: str, file: str) -> tuple[list, list, list]:
    """The character-by-character tokenizer: ``(tokens, comments,
    diagnostics)`` with each token a ``(type, value, span)`` triple and each
    comment a ``(text, span)`` pair, positions counted as the lexer
    documents them (1-based lines broken by ``\\n`` only, code-point
    columns)."""
    tokens: list[tuple[str, str, SourceSpan]] = []
    comments: list[tuple[str, SourceSpan]] = []
    diags: list = []

    line = 1
    col = 1
    i = 0
    n = len(text)
    ws = " \t\r\n"
    punct = {"{": lx.LBRACE, "}": lx.RBRACE, "[": lx.LBRACKET, "]": lx.RBRACKET,
             ":": lx.COLON, ",": lx.COMMA, ".": lx.DOT}

    def pos() -> Position:
        return Position(line, col)

    def advance_to(j: int) -> None:
        nonlocal i, line, col
        newlines = text.count("\n", i, j)
        if newlines:
            line += newlines
            col = j - text.rfind("\n", i, j)
        else:
            col += j - i
        i = j

    while i < n:
        ch = text[i]
        if ch in ws:
            j = i + 1
            while j < n and text[j] in ws:
                j += 1
            advance_to(j)
            continue
        start = pos()
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            body = text[i + 2 : j]
            advance_to(j)
            comments.append((body.strip(), SourceSpan(file, start, pos())))
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            advance_to(i + 2)
            tokens.append((lx.ARROW, "->", SourceSpan(file, start, pos())))
            continue
        if ch == "=":
            if i + 1 < n and text[i + 1] == "=":
                advance_to(i + 2)
                tokens.append((lx.EQEQ, "==", SourceSpan(file, start, pos())))
            else:
                advance_to(i + 1)
                tokens.append((lx.EQ, "=", SourceSpan(file, start, pos())))
            continue
        if ch in punct:
            advance_to(i + 1)
            tokens.append((punct[ch], ch, SourceSpan(file, start, pos())))
            continue
        if ch == '"':  # a string's value is its text, quotes and escapes included
            j = i + 1
            closed = False
            while j < n:
                c = text[j]
                if c == "\n":
                    break
                if c == "\\" and j + 1 < n and text[j + 1] in '"\\':
                    j += 2
                    continue
                if c == '"':
                    j += 1
                    closed = True
                    break
                j += 1
            literal = text[i:j]
            advance_to(j)
            if not closed:
                diags.append(
                    error("P002", "unterminated string literal", SourceSpan(file, start, pos()))
                )
                continue
            tokens.append((lx.STRING, literal, SourceSpan(file, start, pos())))
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance_to(j)
            kind = word if word in lx.KEYWORDS else lx.IDENT  # a keyword is its own type
            tokens.append((kind, word, SourceSpan(file, start, pos())))
            continue
        advance_to(i + 1)
        diags.append(error("P001", f"unexpected character {ch!r}", SourceSpan(file, start, pos())))

    tokens.append((lx.EOF, "", SourceSpan(file, pos(), pos())))
    return tokens, comments, diags
