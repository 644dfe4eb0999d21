"""Deterministic synthetic model shapes for the benchmark.

Every generator takes a size and a seed and returns model source text that
is valid by construction: it parses, resolves and checks with zero
diagnostics. The seed only picks a fixed-length name tag and prompt words,
so two seeds give different text of exactly the same size and structure,
and therefore the same amount of work.

Shapes:

* ``chain(n)``: a root task calling n worker agents in sequence.
* ``fan(n)``: a root task forking to n calls on distinct agents, then joining.
* ``ladder(k)``: a loop holding k decision/merge diamonds, so the body has
  2**k elementary circuits, each with a guarded exit.
* ``feedback(length)``: a loop of ``length`` calls closed by one decision;
  every call goes to the same worker task, so the text stays small.
"""

from __future__ import annotations

import random
import string

_WORDS = ("draft", "check", "merge", "shape", "refit", "trace", "scope", "align")


def _tag(seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice(string.ascii_uppercase) for _ in range(3))


def _word(rng: random.Random) -> str:
    return rng.choice(_WORDS)


def _header(name: str, root_in: str, root_out: str) -> list[str]:
    return [
        f'model "{name}" {{',
        "  context {",
        "    system Sys",
        "    user Operator",
        f"    flow Operator -> Sys : {root_in}",
        f"    flow Sys -> Operator : {root_out}",
        "  }",
        "",
    ]


def _leaf(lines: list[str], rng: random.Random, agent: str, task: str,
          inputs: str, outputs: str, placeholder: str) -> None:
    lines += [
        f"  agent {agent} {{",
        f"    task {task} {{",
        f"      in {inputs}",
        f"      out {outputs}",
        "      prompt {",
        f'        static role = "You {_word(rng)} one step of the work."',
        f'        dynamic input = "Work on this: {{{placeholder}}}"',
        "      }",
        "    }",
        "  }",
    ]


def chain(n: int, seed: int) -> str:
    """Root task ``Root.run`` calls ``W<i>.work`` for i = 1..n in order."""
    rng = random.Random(seed)
    t = _tag(seed)
    arts = [f"{t}Art{i}" for i in range(n + 1)]
    lines = _header(f"Chain{t}", arts[0], arts[n])
    lines += [f"  artifact {a}" for a in arts]
    lines += ["  llm MainModel default", "", "  agent Root {", "    task run {",
              f"      in {arts[0]}", f"      out {arts[n]}", "      body {"]
    for i in range(1, n + 1):
        lines.append(f"        call c{i} = work on {t}W{i} {{ in {arts[i - 1]} out {arts[i]} }}")
    lines.append("        start -> c1")
    lines += [f"        c{i} -> c{i + 1}" for i in range(1, n)]
    lines += [f"        c{n} -> end", "      }", "    }", "  }"]
    for i in range(1, n + 1):
        _leaf(lines, rng, f"{t}W{i}", "work", arts[i - 1], arts[i], arts[i - 1])
    lines.append("}")
    return "\n".join(lines) + "\n"


def fan(n: int, seed: int) -> str:
    """Root task ``Root.run`` forks to ``W<i>.work`` for i = 1..n, then joins."""
    rng = random.Random(seed)
    t = _tag(seed)
    src = f"{t}Src"
    outs = [f"{t}Out{i}" for i in range(1, n + 1)]
    lines = _header(f"Fan{t}", src, outs[0])
    lines += [f"  artifact {a}" for a in [src] + outs]
    lines += ["  llm MainModel default", "", "  agent Root {", "    task run {",
              f"      in {src}", f"      out {outs[0]}", "      body {", "        fork f"]
    for i in range(1, n + 1):
        lines.append(f"        call c{i} = work on {t}W{i} {{ in {src} out {outs[i - 1]} }}")
    lines += ["        join j", "        start -> f"]
    for i in range(1, n + 1):
        lines += [f"        f -> c{i}", f"        c{i} -> j"]
    lines += ["        j -> end", "      }", "    }", "  }"]
    for i in range(1, n + 1):
        _leaf(lines, rng, f"{t}W{i}", "work", src, outs[i - 1], src)
    lines.append("}")
    return "\n".join(lines) + "\n"


def ladder(k: int, seed: int) -> str:
    """A loop ``c0 -> d1 -> (a1 | b1) -> m1 -> ... -> mk -> chk -> c0`` whose
    only way out is the guarded edge ``chk -> end``: 2**k circuits."""
    rng = random.Random(seed)
    t = _tag(seed)
    x = f"{t}Draft"
    lines = _header(f"Ladder{t}", x, x)
    lines += [f"  artifact {x}", "  llm MainModel default", "", "  agent Root {",
              "    task run {", f"      in {x}", f"      out {x}", "      body {",
              f"        call c0 = step on {t}Worker {{ in {x} out {x} }}"]
    for i in range(1, k + 1):
        lines += [
            f"        decision d{i} on {x}",
            f"        call a{i} = step on {t}Worker {{ in {x} out {x} }}",
            f"        call b{i} = step on {t}Worker {{ in {x} out {x} }}",
            f"        merge m{i}",
        ]
    lines += [f"        decision chk on {x}", "        start -> c0", "        c0 -> d1"]
    for i in range(1, k + 1):
        lines += [
            f"        d{i} -> a{i} [{x} == Left]",
            f"        d{i} -> b{i} [{x} == Right]",
            f"        a{i} -> m{i}",
            f"        b{i} -> m{i}",
            f"        m{i} -> {'d' + str(i + 1) if i < k else 'chk'}",
        ]
    lines += [f"        chk -> end [{x} == Good]", f"        chk -> c0 [{x} == Bad]",
              "      }", "    }", "  }"]
    _leaf(lines, rng, f"{t}Worker", "step", x, x, x)
    lines.append("}")
    return "\n".join(lines) + "\n"


def feedback(length: int, seed: int) -> str:
    """A loop ``c1 -> ... -> c<length> -> chk -> c1`` left by ``chk -> end``;
    its one circuit holds every call and the decision."""
    rng = random.Random(seed)
    t = _tag(seed)
    x = f"{t}Report"
    lines = _header(f"Feedback{t}", x, x)
    lines += [f"  artifact {x}", "  llm MainModel default", "", "  agent Root {",
              "    task run {", f"      in {x}", f"      out {x}", "      body {"]
    lines += [f"        call c{i} = step on {t}Worker {{ in {x} out {x} }}"
              for i in range(1, length + 1)]
    lines += [f"        decision chk on {x}", "        start -> c1"]
    lines += [f"        c{i} -> c{i + 1}" for i in range(1, length)]
    lines += [f"        c{length} -> chk", f"        chk -> end [{x} == Good]",
              f"        chk -> c1 [{x} == Bad]", "      }", "    }", "  }"]
    _leaf(lines, rng, f"{t}Worker", "step", x, x, x)
    lines.append("}")
    return "\n".join(lines) + "\n"
