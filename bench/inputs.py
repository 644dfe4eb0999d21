"""Workload inputs, made from ``--seed`` alone.

A workload is a list of model inputs with the in-process operations to run
on each, and the pairs of inputs (n, 4n) from which the traced run derives
the ``*.scale_4x`` ratios.
"""

from __future__ import annotations

import importlib.resources as ir
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Optional

import shapes
from genmodels import generate_model
from a4c import model as m

CORPUS = ("testgen", "recovery", "resell")
ALL_OPS = ("check", "analyze", "docs", "fmt")


@dataclass
class Input:
    name: str
    text: str
    kind: str  # corpus, chain, fan, ladder, feedback, overlimit, clean, noisy, rule, mutant
    ops: tuple[str, ...] = ALL_OPS
    size: int = 0  # n, k or loop length
    corpus: str = ""  # corpus model behind a corpus input or mutant
    expect_codes: Optional[frozenset] = None  # rule mutations: exact code set
    impact_seeds: tuple[str, ...] = ()
    path: str = ""
    model: Optional[m.Model] = None  # parsed at set-up, for sizes and the emit probe
    timed: bool = True  # False: attempted and counted in every round, in no metric


@dataclass
class Workload:
    name: str
    inputs: list[Input]
    pairs: list[tuple[str, str]]  # (n input, 4n input) names
    probe: list[Input] = field(default_factory=list)  # traced-only n/4n inputs
    repeat: int = 1  # each in-process operation, back to back, per round


def corpus_text(name: str) -> str:
    return (ir.files("a4c") / "corpus" / f"{name}.a4c").read_text(encoding="utf-8")


# --- workload inputs ------------------------------------------------------------

def _corpus_inputs(seed: int, tiny: bool, a) -> tuple[list[Input], list[tuple[str, str]]]:
    return [Input(f"{c}.a4c", corpus_text(c), "corpus", corpus=c) for c in CORPUS], []


def _scale_inputs(seed: int, tiny: bool, a):
    n = 5 if tiny else 50
    inputs, pairs = [], []
    for shape in (shapes.chain, shapes.fan):
        small = Input(f"{shape.__name__}-{n}.a4c", shape(n, seed), shape.__name__, size=n)
        big = Input(f"{shape.__name__}-{4 * n}.a4c", shape(4 * n, seed), shape.__name__,
                    size=4 * n)
        inputs += [small, big]
        pairs.append((small.name, big.name))
    return inputs, pairs


def over_limit_length() -> int:
    """A loop longer than the interpreter's default recursion limit."""
    return int(1.2 * sys.getrecursionlimit())


def _loops_inputs(seed: int, tiny: bool, a):
    k, k_small, length = (5, 3, 5) if tiny else (12, 4, 100)
    inputs = [
        Input(f"ladder-{k}.a4c", shapes.ladder(k, seed), "ladder", size=k),
        Input(f"ladder-{k_small}.a4c", shapes.ladder(k_small, seed), "ladder", size=k_small),
        Input(f"feedback-{length}.a4c", shapes.feedback(length, seed), "feedback", size=length),
        Input(f"feedback-{4 * length}.a4c", shapes.feedback(4 * length, seed), "feedback",
              size=4 * length),
    ]
    over = over_limit_length()
    # only check, and untimed: a metric that counted it would jump once the
    # fault is mended and it runs to the end
    inputs.append(Input(f"feedback-{over}.a4c", shapes.feedback(over, seed), "overlimit",
                        ops=("check",), size=over, timed=False))
    return inputs, [(inputs[2].name, inputs[3].name)]


def mutate(text: str, rng: random.Random) -> str:
    """One to three line deletions, duplications or token edits."""
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


def _outcome(a, text: str) -> str:
    parsed = a.parser.parse(text, "<mutant>")
    if parsed.model is None:
        return "parse"
    return "resolve" if a.resolver.resolve(parsed.model).model is None else "resolved"


def _sized_models(rng: random.Random, count: int, noise: bool) -> list[str]:
    """``count`` generated models whose sizes are spread evenly over the
    generator's usual range (1.1 to 2.1 KB), so that every seed's models add
    up to the same amount of text."""
    models = []
    for i in range(count):
        target = 1100 + i * 1000 / max(count - 1, 1)
        while True:
            text = generate_model(rng.randrange(10**9), noise=noise)
            if abs(len(text) - target) <= 0.02 * target:
                models.append(text)
                break
    return models


def _pool_inputs(seed: int, tiny: bool, a):
    from test_validate import mutations

    n_clean, quota = (2, {"parse": 1, "resolve": 1, "resolved": 1}) if tiny else (
        24, {"parse": 3, "resolve": 2, "resolved": 3})
    rng = random.Random(seed)
    inputs = [Input(f"clean-{i}.a4c", text, "clean")
              for i, text in enumerate(_sized_models(rng, n_clean, noise=False))]
    inputs += [Input(f"noisy-{i}.a4c", text, "noisy")
               for i, text in enumerate(_sized_models(rng, n_clean, noise=True))]
    testgen, recovery = corpus_text("testgen"), corpus_text("recovery")
    for rule, text, expected in mutations(testgen, recovery):
        inputs.append(Input(f"rule-{rule}.a4c", text, "rule", expect_codes=frozenset(expected)))
    # a fixed number of mutants per outcome and corpus model, so every seed
    # does the same kinds and amount of work, and a fixed number of draws, so
    # every seed's set-up does too
    left = {(outcome, base): n for outcome, n in quota.items() for base in CORPUS}
    draws = 0
    while draws < (3 if tiny else 200) or any(left.values()):
        base = CORPUS[draws % len(CORPUS)]
        draws += 1
        text = mutate(corpus_text(base), rng)
        outcome = _outcome(a, text)
        if left[(outcome, base)]:
            left[(outcome, base)] -= 1
            inputs.append(Input(f"mutant-{outcome}-{base}-{left[(outcome, base)]}.a4c", text,
                                "mutant", corpus=base))
    return inputs, []


BUILDERS = {
    "corpus_cli": _corpus_inputs,
    "scale": _scale_inputs,
    "loops": _loops_inputs,
    "pool": _pool_inputs,
}


def _probe(seed: int, tiny: bool) -> tuple[list[Input], list[tuple[str, str]]]:
    """A chain at n and 4n for workloads without a size axis of their own."""
    n = 5 if tiny else 50
    small = Input(f"probe-chain-{n}.a4c", shapes.chain(n, seed), "chain", size=n)
    big = Input(f"probe-chain-{4 * n}.a4c", shapes.chain(4 * n, seed), "chain", size=4 * n)
    return [small, big], [(small.name, big.name)]


def _impact_seeds(a, inp: Input, rm, rng: random.Random) -> tuple[str, ...]:
    """Impact seeds that give every ``--seed`` the same amount of work.

    A corpus model is small: every element is a seed. A synthetic shape
    has the same structure for every seed, so its seeds are structural: the
    root task and the middle artifact. Only the pool, where many models
    average the work out, samples its seeds.
    """
    if inp.kind == "corpus":
        return tuple(sorted(a.analysis.seed_table(rm)))
    if inp.kind in ("clean", "noisy", "rule", "mutant"):
        return tuple(rng.sample(sorted(a.analysis.seed_table(rm)), 2))
    artifacts = rm.model.artifacts
    return ("Root.run", artifacts[len(artifacts) // 2].name)


def build(name: str, seed: int, workdir: str, a, tiny: bool = False) -> Workload:
    """Generate, write and parse the inputs of one workload, with the package
    ``a`` (a4c, or the control when set-up is timed against it)."""
    inputs, pairs = BUILDERS[name](seed, tiny, a)
    probe: list[Input] = []
    if not pairs:
        probe, pairs = _probe(seed, tiny)
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    for inp in inputs + probe:
        inp.path = os.path.join(workdir, inp.name)
        with open(inp.path, "w", encoding="utf-8") as fh:
            fh.write(inp.text)
        parsed = a.parser.parse(inp.text, inp.path)
        inp.model = parsed.model
        rm = a.resolver.resolve(parsed.model).model if parsed.model is not None else None
        if parsed.model is None:
            inp.ops = tuple(op for op in inp.ops if op == "check")
        elif rm is None:
            inp.ops = tuple(op for op in inp.ops if op in ("check", "fmt"))
        elif "analyze" in inp.ops:
            inp.impact_seeds = _impact_seeds(a, inp, rm, rng)
    # corpus operations take milliseconds: repeat them, for more samples per round
    repeat = 5 if name == "corpus_cli" and not tiny else 1
    return Workload(name, inputs, pairs, probe, repeat)
