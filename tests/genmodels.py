"""Seeded random model generator.

Emits source text that is valid by construction: it parses, resolves, and
validates with zero errors. Used for the randomized impact-oracle and
formatter-law suites, so generation is independent of both the formatter
(hand-rolled emission with optional whitespace noise) and the analyses.
``mutate`` breaks a model text at random lines, for the fuzz suites.

The loop shapes at the end are the one home of the tests' task bodies with
loops: each is a body wrapped by ``body_model``, and the ladders are built
from ``diamonds``.
"""

from __future__ import annotations

import random

GOOD, BAD = "Good", "Bad"


class _Gen:
    def __init__(self, rng: random.Random, noise: bool):
        self.rng = rng
        self.noise = noise
        self.scalars: list[str] = []
        self.collections: dict[str, str] = {}  # collection -> element type
        self.fresh = 0

    def new_scalar(self) -> str:
        name = f"Art{self.fresh}"
        self.fresh += 1
        self.scalars.append(name)
        return name

    def new_collection(self) -> str:
        elem = self.new_scalar()
        name = f"Batch{self.fresh}"
        self.fresh += 1
        self.collections[name] = elem
        return name

    def ws(self) -> str:
        """Optional horizontal noise."""
        if self.noise and self.rng.random() < 0.3:
            return " " * self.rng.randint(1, 3)
        return ""

    def maybe_comment(self, lines: list[str], indent: str) -> None:
        if self.noise and self.rng.random() < 0.15:
            word = self.rng.choice(["note", "todo", "review", "checked"])
            lines.append(f"{indent}// {word} {self.rng.randint(0, 99)}")

    def maybe_blank(self, lines: list[str]) -> None:
        if self.noise and self.rng.random() < 0.2:
            lines.append("")


def generate_model(seed: int, noise: bool = False) -> str:
    rng = random.Random(seed)
    g = _Gen(rng, noise)
    lines: list[str] = []

    n_tools = rng.randint(0, 2)
    tools = [(f"Tool{i}", rng.random() < 0.5) for i in range(n_tools)]
    has_alt_llm = rng.random() < 0.3
    n_workers = rng.randint(2, 4)
    workers = [f"Worker{i}" for i in range(n_workers)]

    # --- build the composite body plan first; leaf signatures follow from it
    leaf_specs: list[dict] = []  # agent, name, inputs, outputs, kind
    segments: list[dict] = []
    available: list[str] = []

    root_input = g.new_scalar()
    available.append(root_input)
    produced_last = root_input

    def plan_leaf(agent: str, inputs: list[str], outputs: list[str]) -> str:
        name = f"job{len(leaf_specs)}"
        kind = "invoke" if tools and rng.random() < 0.4 else "prompt"
        leaf_specs.append(
            {"agent": agent, "name": name, "inputs": list(inputs),
             "outputs": list(outputs), "kind": kind}
        )
        return name

    n_segments = rng.randint(2, 4)
    use_fork = rng.random() < 0.3
    fork_at = rng.randint(1, n_segments - 1) if use_fork else -1
    calls_made = 0
    for idx in range(n_segments):
        consumed = produced_last
        if len(available) > 1 and rng.random() < 0.3:
            consumed = rng.choice(available)
        if idx == fork_at:
            out_a, out_b = g.new_scalar(), g.new_scalar()
            agent_a, agent_b = rng.choice(workers), rng.choice(workers)
            task_a = plan_leaf(agent_a, [consumed], [out_a])
            task_b = plan_leaf(agent_b, [consumed], [out_b])
            segments.append(
                {"kind": "fork", "calls": [
                    (f"c{calls_made}", agent_a, task_a, [consumed], [out_a]),
                    (f"c{calls_made + 1}", agent_b, task_b, [consumed], [out_b]),
                ]}
            )
            calls_made += 2
            available += [out_a, out_b]
            produced_last = out_a
        elif rng.random() < 0.25:
            coll_in = g.new_collection()
            coll_out = g.new_collection()
            agent = rng.choice(workers)
            task = plan_leaf(
                agent, [g.collections[coll_in]], [g.collections[coll_out]]
            )
            # the collection is seeded as a task input rather than produced
            segments.append(
                {"kind": "each", "calls": [
                    (f"c{calls_made}", agent, task, [coll_in], [coll_out])
                ], "each": coll_in}
            )
            calls_made += 1
            available.append(coll_out)
            produced_last = coll_out
        else:
            out = g.new_scalar()
            agent = rng.choice(workers)
            task = plan_leaf(agent, [consumed], [out])
            segments.append(
                {"kind": "call", "calls": [
                    (f"c{calls_made}", agent, task, [consumed], [out])
                ]}
            )
            calls_made += 1
            available.append(out)
            produced_last = out

    root_inputs = [root_input] + sorted(
        {s["calls"][0][3][0] for s in segments if s["kind"] == "each"}
    )
    root_outputs = [produced_last]
    use_feedback = rng.random() < 0.4
    use_store = rng.random() < 0.3
    store_artifact = produced_last if use_store else None

    # --- emit ------------------------------------------------------------
    lines.append(f'model "Generated{seed}" {{')
    g.maybe_comment(lines, "  ")
    lines.append("  context {")
    lines.append("    system Sys")
    lines.append("    user Operator")
    arts_in = ", ".join(root_inputs)
    arts_out = ", ".join(root_outputs)
    lines.append(f"    flow Operator -> Sys : {arts_in}")
    lines.append(f"    flow Sys -> Operator : {arts_out}")
    lines.append("  }")
    g.maybe_blank(lines)

    for name in g.scalars:
        lines.append(f"  artifact {name}{g.ws()}")
    for name, elem in g.collections.items():
        lines.append(f"  artifact {name} collection of {elem}")
    lines.append("  llm MainModel default")
    if has_alt_llm:
        lines.append('  llm AltModel version "alt-1"')
    for name, external in tools:
        lines.append(f"  tool {name}{' external' if external else ''}")
    g.maybe_blank(lines)

    if rng.random() < 0.5:
        internal = [name for name, ext in tools if not ext]
        external = [name for name, ext in tools if ext]
        hosted = ["Root"] + workers + internal
        lines.append("  deployment {")
        lines.append("    node MainHost {")
        lines.append(f"      hosts {', '.join(hosted)}")
        lines.append("    }")
        if external:
            lines.append("    node ExtHost external {")
            lines.append(f"      hosts {', '.join(external)}")
            lines.append("    }")
            lines.append('    link MainHost -> ExtHost : "HTTPS"')
        lines.append("  }")
        g.maybe_blank(lines)

    # root agent with the composite task
    lines.append("  agent Root {")
    if use_store:
        lines.append(f"    store memory : {store_artifact}")
    lines.append("    task run {")
    lines.append(f"      in {', '.join(root_inputs)}")
    lines.append(f"      out {', '.join(root_outputs)}")
    lines.append("      body {")
    g.maybe_comment(lines, "        ")
    entries: list[str] = []  # first node id of each segment
    exits: list[str] = []  # last node id of each segment
    body: list[str] = []
    for si, seg in enumerate(segments):
        if seg["kind"] == "fork":
            fid, jid = f"f{si}", f"j{si}"
            body.append(f"        fork {fid}")
            for cid, agent, task, ins, outs in seg["calls"]:
                io = f"in {', '.join(ins)} out {', '.join(outs)}"
                body.append(f"        call {cid} = {task} on {agent} {{ {io} }}")
            body.append(f"        join {jid}")
            for cid, _agent, _task, _ins, _outs in seg["calls"]:
                body.append(f"        {fid} -> {cid}")
                body.append(f"        {cid} -> {jid}")
            entries.append(fid)
            exits.append(jid)
        else:
            cid, agent, task, ins, outs = seg["calls"][0]
            io = f"in {', '.join(ins)} out {', '.join(outs)}"
            each = f" each {seg['each']}" if seg["kind"] == "each" else ""
            body.append(f"        call {cid} = {task} on {agent}{each} {{ {io} }}")
            entries.append(cid)
            exits.append(cid)
    wiring = [f"        start -> {entries[0]}"]
    for si in range(1, len(segments)):
        wiring.append(f"        {exits[si - 1]} -> {entries[si]}")
    if use_feedback:
        subject = produced_last
        back_to = entries[rng.randrange(len(entries))]
        wiring.append(f"        {exits[-1]} -> chk")
        body.append(f"        decision chk on {subject}")
        wiring.append(f"        chk -> end [{subject} == {GOOD}]")
        wiring.append(f"        chk -> {back_to} [{subject} == {BAD}]")
    else:
        wiring.append(f"        {exits[-1]} -> end")
    if use_store:
        # last segment writes; first segment reads back on reruns
        wiring.append(f"        {exits[-1]} -> memory.write")
        wiring.append(f"        memory.read -> {entries[-1]}")
    lines.extend(body)
    lines.extend(wiring)
    lines.append("      }")
    lines.append("    }")
    lines.append("  }")
    g.maybe_blank(lines)

    # worker agents with their leaf tasks
    for agent in workers:
        specs = [s for s in leaf_specs if s["agent"] == agent]
        llm = " llm AltModel" if has_alt_llm and rng.random() < 0.3 else ""
        lines.append(f"  agent {agent}{llm} {{")
        for spec in specs:
            lines.append(f"    task {spec['name']} {{")
            lines.append(f"      in {', '.join(spec['inputs'])}")
            lines.append(f"      out {', '.join(spec['outputs'])}")
            if spec["kind"] == "invoke" and tools:
                tool = rng.choice(tools)[0]
                io = (f"in {', '.join(spec['inputs'])}"
                      f" out {', '.join(spec['outputs'])}")
                lines.append("      body {")
                lines.append(f"        invoke iv = {tool}.execute {{ {io} }}")
                lines.append("        start -> iv")
                lines.append("        iv -> end")
                lines.append("      }")
            else:
                lines.append("      prompt {")
                lines.append('        static role = "You perform one step."')
                for art in spec["inputs"]:
                    lines.append(
                        f'        dynamic use{art} = "Work on this: {{{art}}}"'
                    )
                lines.append("      }")
            lines.append("    }")
        if not specs:
            # every agent needs substance; give idle workers a trivial task
            lines.append("    task idle {")
            lines.append(f"      in {g.scalars[0]}")
            lines.append(f"      out {g.scalars[0]}")
            lines.append("      prompt {")
            lines.append(f'        static role = "Pass through {{{g.scalars[0]}}}."')
            lines.append("      }")
            lines.append("    }")
        lines.append("  }")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    return text


def generate_body_model(seed: int) -> str:
    """A resolvable model whose root task body is a random control-flow graph.

    The body mixes calls, tool calls, decisions, merges, guards (on decision
    edges and elsewhere), parallel edges and datastore reads and writes. It
    is usually shape-invalid on purpose, so that cycles with and without
    guarded exits, unreachable nodes and unavailable artifacts all occur.
    Unlike ``generate_model``, the result is not valid by construction.
    """
    rng = random.Random(seed)
    arts = ["A", "B", "C"]
    n = rng.randint(2, 9)
    kinds = rng.choices(["call", "invoke", "decision", "merge"], weights=[4, 1, 3, 2], k=n)
    nodes: list[str] = []
    decisions: dict[str, str] = {}
    for i, kind in enumerate(kinds):
        nid = f"{kind[0]}{i}"
        if kind in ("call", "invoke"):
            ins = ", ".join(sorted(rng.sample(arts, rng.randint(1, 2))))
            outs = ", ".join(sorted(rng.sample(arts, rng.randint(1, 2))))
            target = "work on Helper" if kind == "call" else "Tool.run"
            nodes.append(f"        {kind} {nid} = {target} {{ in {ins} out {outs} }}")
        elif kind == "decision":
            decisions[nid] = rng.choice(arts)
            nodes.append(f"        decision {nid} on {decisions[nid]}")
        else:
            nodes.append(f"        merge {nid}")
        kinds[i] = nid
    ids = kinds
    edges: list[str] = []
    for _ in range(rng.randint(n, 3 * n)):
        u = rng.choice(["start"] + ids)
        v = rng.choice(ids + ["end"])
        guard = ""
        if u in decisions and rng.random() < 0.8:
            guard = rng.choice([f" [{decisions[u]} == X]", f" [{decisions[u]} == Y]", " [else]"])
        elif rng.random() < 0.05:
            guard = f" [{rng.choice(arts)} == X]"
        edge = f"        {u} -> {v}{guard}"
        edges.append(edge)
        if rng.random() < 0.1:
            edges.append(edge)  # a parallel edge
    if rng.random() < 0.5:
        edges.append(f"        memory.read -> {rng.choice(ids)}")
        edges.append(f"        {rng.choice(ids)} -> memory.write")
    rng.shuffle(edges)
    body = "\n".join(nodes + edges)
    return (
        f'model "Body{seed}" {{\n'
        "  artifact A\n"
        "  artifact B\n"
        "  artifact C\n"
        "  llm M default\n"
        "  tool Tool\n"
        "  agent Root {\n"
        f"    store memory : {rng.choice(arts)}\n"
        "    task run {\n"
        f"      in {rng.choice(arts)}\n"
        "      out B\n"
        "      body {\n"
        f"{body}\n"
        "      }\n"
        "    }\n"
        "  }\n"
        "  agent Helper {\n"
        "    task work {\n"
        "      in A\n"
        "      out A\n"
        "      prompt {\n"
        '        static role = "echo"\n'
        '        dynamic a = "{A}"\n'
        "      }\n"
        "    }\n"
        "  }\n"
        "}\n"
    )


def many_bodies(n: int) -> str:
    """``n`` agents, each with one body and its own artifact: ``A<i>.run``
    calls ``A<i>.step`` on ``Art<i>``. Of every three artifacts, the first is
    a collection of ``Item`` that the call walks element-wise, the second a
    collection passed whole, and the third a scalar. The model checks clean;
    its size, and the number of bodies and artifacts, grow linearly in n."""
    lines = ['model "ManyBodies" {', "  artifact Item"]
    lines += [f"  artifact Art{i}{' collection of Item' if i % 3 < 2 else ''}" for i in range(n)]
    lines.append("  llm M default")
    for i in range(n):
        art = f"Art{i}"
        each, own = (f" each {art}", "Item") if i % 3 == 0 else ("", art)
        lines += [
            f"  agent A{i} {{",
            "    task run {",
            f"      in {art}",
            f"      out {art}",
            "      body {",
            f"        call c = step on A{i}{each} {{ in {art} out {art} }}",
            "        start -> c",
            "        c -> end",
            "      }",
            "    }",
            "    task step {",
            f"      in {own}",
            f"      out {own}",
            "      prompt {",
            f'        dynamic input = "Work on {{{own}}}"',
            "      }",
            "    }",
            "  }",
        ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def mutate(text: str, rng: random.Random) -> str:
    """One to three line deletions, duplications or token edits: the same
    edits, drawn the same way, as the benchmark's ``bench/inputs.mutate``."""
    lines = text.split("\n")
    words = sorted({w for w in text.split() if w.isidentifier()})
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.choice(("delete", "duplicate", "edit"))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            toks = lines[i].split(" ")
            toks[rng.randrange(len(toks))] = rng.choice(
                words + ["->", "{", "}", "[", "]", "==", '"x"', ""])
            lines[i] = " ".join(toks)
    return "\n".join(lines)


# --- loop shapes --------------------------------------------------------------------

CALL = "step on Worker { in R out R }"


def body_model(body: list[str]) -> str:
    """A model whose task ``Root.run`` (in R, out R) has the lines of
    ``body`` as its body, beside ``Worker.step`` (in R, out R, with a
    prompt) for the body's calls, each ``call <id> = `` and then ``CALL``."""
    lines = ['model "Loop" {', "  artifact R", "  llm M default", "  agent Root {",
             "    task run {", "      in R", "      out R", "      body {",
             *(f"        {line}" for line in body),
             "      }", "    }", "  }", "  agent Worker {", "    task step {", "      in R",
             "      out R", "      prompt {", '        dynamic r = "{R}"', "      }", "    }",
             "  }", "}"]
    return "\n".join(lines) + "\n"


def diamonds(k: int, entry: str, split: str = "decision", arm: str = "call") -> list[str]:
    """Body lines for ``entry -> s1`` and k diamonds ``s<i> -> (a<i> | b<i>)
    -> m<i>``, each closing into the next and the last into the decision
    ``chk``, whose edges out the caller adds. ``split`` is ``decision``, with
    arms guarded ``[R == Left]`` and ``[R == Right]`` and closed by a
    ``merge``, or ``fork``, closed by a ``join``; ``arm`` is ``call`` or
    ``merge``. A split or close node's id is its kind's initial and i."""
    rest = {"decision": " on R", "call": f" = {CALL}"}
    close = "merge" if split == "decision" else "join"
    s, m = split[0], close[0]
    left, right = (" [R == Left]", " [R == Right]") if split == "decision" else ("", "")
    lines = ["decision chk on R", f"{entry} -> {s}1"]
    for i in range(1, k + 1):
        lines += [f"{kind} {x}{i}{rest.get(kind, '')}"
                  for kind, x in ((split, s), (arm, "a"), (arm, "b"), (close, m))]
        lines += [f"{s}{i} -> a{i}{left}", f"{s}{i} -> b{i}{right}", f"a{i} -> {m}{i}",
                  f"b{i} -> {m}{i}", f"{m}{i} -> {f'{s}{i + 1}' if i < k else 'chk'}"]
    return lines


def feedback_loop(length: int) -> str:
    """``c1 -> ... -> c<length> -> chk -> c1``, left by the guarded ``chk -> end``."""
    body = [f"call c{i} = {CALL}" for i in range(1, length + 1)]
    body += ["decision chk on R", "start -> c1"] + [f"c{i} -> c{i + 1}" for i in range(1, length)]
    body += [f"c{length} -> chk", "chk -> end [R == Good]", "chk -> c1 [R == Bad]"]
    return body_model(body)


def diamond_ladder(k: int) -> str:
    """A loop through k decision/merge diamonds: 2**k circuits, one guarded exit."""
    return body_model([f"call c0 = {CALL}", "start -> c0", *diamonds(k, "c0"),
                       "chk -> end [R == Good]", "chk -> c0 [R == Bad]"])


def call_loop_beside_ladder(k: int) -> str:
    """A loop of two calls with no decision, and apart from it a loop
    through k decision/merge diamonds with no call: 2**k circuits, none of
    which holds both a call and a decision."""
    return body_model([f"call c0 = {CALL}", f"call c1 = {CALL}", "start -> c0", "c0 -> c1",
                       "c1 -> c0", *diamonds(k, "c1", arm="merge"), "chk -> end [R == Good]",
                       "chk -> d1 [R == Bad]"])


def shared_merge_ladder(k: int) -> str:
    """The loop ``c0 -> c1 -> x -> c0`` of two calls, and the ladder
    ``x -> d1 -> (a1 | b1) -> m1 -> ... -> mk -> chk -> x`` of k diamonds of
    merges that shares its merge ``x``: the SCC holds calls and decisions,
    but none of its 2**k + 1 circuits holds both."""
    return body_model([f"call c0 = {CALL}", f"call c1 = {CALL}", "merge x", "start -> c0",
                       "c0 -> c1", "c1 -> x", "x -> c0", *diamonds(k, "x", arm="merge"),
                       "chk -> x [R == Bad]", "chk -> end [R == Good]"])


def both_ways_chain(n: int) -> str:
    """Calls ``c0`` to ``c<n-1>`` with ``c<i> -> c<i+1>`` and
    ``c<i+1> -> c<i>``, no guard: n - 1 unguarded loops of two calls."""
    body = [f"call c{i} = {CALL}" for i in range(n)] + ["start -> c0"]
    for i in range(n - 1):
        body += [f"c{i} -> c{i + 1}", f"c{i + 1} -> c{i}"]
    return body_model(body + [f"c{n - 1} -> end"])


def fork_diamonds(k: int) -> str:
    """The loop ``c0 -> f1 -> (a1 | b1) -> j1 -> ... -> jk -> chk -> c0`` of
    k fork/join diamonds, left by the unguarded ``chk -> end``: none of its
    2**k circuits has a guarded exit."""
    return body_model([f"call c0 = {CALL}", "start -> c0",
                       *diamonds(k, "c0", split="fork"),
                       "chk -> c0 [R == Bad]", "chk -> end"])


def loop_soup(seed: int, dense: bool = False) -> str:
    """Calls ``c0`` to ``c<n-1>`` joined by random edges, some guarded: a
    body that is shape-invalid on purpose, so that cycles of every kind
    appear. ``dense`` adds up to 24 more edges between the calls, some of
    them parallel, so that some SCCs hold more circuits than the docs list."""
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    names = [f"c{i}" for i in range(n)]
    edges: set[tuple[str, str]] = set()
    want = rng.randint(n, min(3 * n, 26))
    while len(edges) < want:
        u = rng.choice(["start", *names])
        v = rng.choice([*names, "end"])
        if u != v:
            edges.add((u, v))
    body = [f"call {name} = {CALL}" for name in names]
    for u, v in sorted(edges):
        guard = " " + rng.choice(["[R == X]", "[R == Y]", "[else]"]) if rng.random() < 0.3 else ""
        body.append(f"{u} -> {v}{guard}")
    if dense:
        more = random.Random(seed)
        body += [f"{more.choice(names)} -> {more.choice(names)}"
                 for _ in range(more.randint(0, 24))]
    return body_model(body)
