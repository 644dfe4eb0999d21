"""Correctness checks, made apart from the code under test where possible.

Impact is compared with the brute-force fixpoint in ``tests/oracles.py``,
small ladders with its exhaustive cycle search, and the rest with
properties the method must have (formatter laws, one page per agent, one
DOT node per body node, the documented diagnostic codes). Checks run on the
first round's outputs; later rounds must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import oracles
from inputs import Input, Workload
from a4c import analysis, formatter, parser, resolver
from a4c import model as m
from a4c.diagnostics import Severity

# README: P001-P003, E001/E002, and the thirteen rule codes
DOCUMENTED_CODES = frozenset(
    ["P001", "P002", "P003", "E001", "E002"]
    + ["E101", "E102", "E103", "E104", "W105", "E106", "E107", "E108", "W109",
       "E110", "W111", "W112", "W113"]
)

# the paper's pattern for one composite task of each corpus model
CORPUS_PATTERNS = {
    "testgen": ("GeneratorTeam", "generate", "PipelineWithFeedback"),
    "resell": ("MarketSearchConductor", "estimate", "Orchestration"),
    "recovery": ("AutomatedArchitectureRecoveryPipeline", "recover", "FanOut"),
}
# fixed impact seed per corpus model for the CLI command mix
CORPUS_IMPACT_SEED = {"testgen": "Report", "recovery": "NodeList", "resell": "ProductList"}

_DOT_NODE = re.compile(r'^  "([^"]*)" \[')
_DIAG_LINE = re.compile(r"^(.*):(\d+):(\d+): (error|warning)\[(\w+)\] ")


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _resolved(inp: Input):
    return resolver.resolve(parser.parse(inp.text, inp.name).model).model


# --- in-process results ------------------------------------------------------------

def _check_diags(inp: Input, diags) -> list[str]:
    codes = {d.code for d in diags}
    if inp.kind in ("corpus", "chain", "fan", "ladder", "feedback", "overlimit"):
        return [f"{inp.name}: expected no diagnostics, got {sorted(codes)}"] if diags else []
    if inp.kind in ("clean", "noisy"):
        errors = sorted(d.code for d in diags if d.severity is Severity.ERROR)
        return [f"{inp.name}: generated model has errors {errors}"] if errors else []
    if inp.kind == "rule":
        if codes != inp.expect_codes:
            return [f"{inp.name}: expected {sorted(inp.expect_codes)}, got {sorted(codes)}"]
        return []
    problems = [f"{inp.name}: undocumented code {c}" for c in sorted(codes - DOCUMENTED_CODES)]
    lines = inp.text.split("\n")
    for d in diags:
        for pos in (d.span.start, d.span.end):
            inside = 1 <= pos.line <= len(lines) and 1 <= pos.column <= len(lines[pos.line - 1]) + 1
            if not inside:
                problems.append(f"{inp.name}: {d.code} span {pos} lies outside the file")
    return problems


def _check_impact(inp: Input, rm, reports) -> list[str]:
    problems = []
    edges = oracles.oracle_edges(rm.model)
    for report in reports:
        got = {a.element: a.relation for a in report.affected}
        base = oracles.closure(edges, report.seed, str(report.direction))
        deco = oracles.oracle_decorations(rm.model, base)
        if set(got) != base | set(deco) or any(got[e] != r for e, r in deco.items()):
            problems.append(f"{inp.name}: impact of {report.seed} ({report.direction})"
                            " differs from the oracle")
        elif set(report.levels_touched) != oracles.oracle_levels(rm.model, report.seed,
                                                                  base | set(deco)):
            problems.append(f"{inp.name}: impact levels of {report.seed} differ from the oracle")
    return problems


def _check_patterns(inp: Input, rm, patterns) -> list[str]:
    found = {(a, t): p for a, t, p in patterns}
    if inp.kind == "corpus":
        agent, task, expected = CORPUS_PATTERNS[inp.corpus]
        got = found.get((agent, task))
        if got is None or str(got.value) != expected:
            return [f"{inp.name}: {agent}.{task} is {got and got.value}, expected {expected}"]
    elif inp.kind == "chain":
        got = found[("Root", "run")]
        calls = tuple(f"c{i}" for i in range(1, inp.size + 1))
        if str(got.value) != "Pipeline" or got.evidence != (("chain", calls),):
            return [f"{inp.name}: root is {got.value}, not a Pipeline of c1..c{inp.size} in order"]
    elif inp.kind == "feedback":
        got = found[("Root", "run")]
        if str(got.value) != "PipelineWithFeedback":
            return [f"{inp.name}: root is {got.value}, not PipelineWithFeedback"]
    return []


def _check_loops(inp: Input, rm) -> list[str]:
    task = rm.agents["Root"].task("run")
    facts = analysis.loop_facts(task)
    if inp.kind == "ladder":
        if len(facts) != 2 ** inp.size or not all(f.exits for f in facts):
            return [f"{inp.name}: {len(facts)} loop facts, expected {2 ** inp.size} with exits"]
        if inp.size <= 6 and {f.cycle for f in facts} != oracles.oracle_cycles(task.graph):
            return [f"{inp.name}: loop facts differ from the exhaustive cycle search"]
    elif inp.kind == "feedback":
        members = {f"c{i}" for i in range(1, inp.size + 1)} | {"chk"}
        if len(facts) != 1 or set(facts[0].cycle) != members or not facts[0].exits:
            return [f"{inp.name}: expected one guarded circuit through every call"]
    return []


def _check_docs(inp: Input, rm, files: dict[str, str]) -> list[str]:
    problems = []
    pages = {rel for rel in files if rel.startswith("docs/agents/")}
    if pages != {f"docs/agents/{a.name}.md" for a in rm.model.agents}:
        problems.append(f"{inp.name}: docs bundle does not have one page per agent")
    for agent, task in m.iter_tasks(rm.model):
        if task.graph is None:
            continue
        dot = files[f"activity/{agent.name}.{task.name}.dot"]
        ids = [g.group(1) for g in map(_DOT_NODE.match, dot.split("\n")) if g]
        body = [i for i in ids if not i.startswith("art:")]
        if sorted(body) != sorted(n.id for n in task.graph.nodes):
            problems.append(f"{inp.name}: {agent.name}.{task.name}.dot does not draw each"
                            " body node once")
    return problems


def check_formatted(inp: Input, formatted: str) -> list[str]:
    """The formatter laws, the canonical layout, and for a generated shape,
    whose lines are already canonical, no change but blank lines."""
    name = inp.name
    if formatter.canonical_format(formatted, name) != formatted:
        return [f"{name}: formatting is not idempotent"]
    before, after = parser.parse(inp.text, name).model, parser.parse(formatted, name).model
    if m.fingerprint(after) != m.fingerprint(before):
        return [f"{name}: formatting changed the parsed structure"]
    lines = formatted.split("\n")
    if lines[-1] != "" or lines[-2] == "" or any(
            line != line.rstrip() or (len(line) - len(line.lstrip(" "))) % 2
            or (line == "" and prev == "") for prev, line in zip([None] + lines, lines[:-1])):
        return [f"{name}: formatted text breaks the canonical layout"]
    if inp.kind in ("chain", "fan", "ladder", "feedback") and (
            [x for x in lines if x] != [x for x in inp.text.split("\n") if x]):
        return [f"{name}: formatting changed more than blank lines"]
    return []


def verify_results(wl: Workload, results: dict) -> list[str]:
    """Check the first round's outputs; ``results[(input, op)]`` is each op's
    return value, or the exception it raised."""
    problems: list[str] = []
    for inp in wl.inputs:
        got = {op: results[(inp.name, op)] for op in inp.ops
               if not isinstance(results.get((inp.name, op)), BaseException)}
        if "check" in got:
            problems += _check_diags(inp, got["check"])
        if "fmt" in got:
            problems += check_formatted(inp, got["fmt"])
        if "analyze" not in got and "docs" not in got:
            continue
        rm = _resolved(inp)
        if "analyze" in got:
            patterns, reports = got["analyze"]
            problems += _check_patterns(inp, rm, patterns)
            problems += _check_impact(inp, rm, reports)
        if "docs" in got:
            problems += _check_docs(inp, rm, got["docs"])
        if inp.kind in ("ladder", "feedback"):
            problems += _check_loops(inp, rm)
    return problems


# --- CLI commands --------------------------------------------------------------------


@dataclass
class CliCommand:
    label: str  # the subcommand; "check" commands feed cli_check_ms
    argv: list[str]
    verify: Callable[[int, str], list[str]]  # (exit code, stdout) -> problems
    timed: bool = True  # False: run once, in the first round, only to be checked


def _expect_empty(code: int, out: str) -> list[str]:
    return [] if code == 0 and out == "" else [f"check printed {out[:80]!r}, exit {code}"]


def _expect_json_empty(code: int, out: str) -> list[str]:
    return [] if code == 0 and json.loads(out) == [] else [f"check --format json gave {out[:80]!r}"]


def _expect_manifest(outdir: str):
    def verify(code: int, out: str) -> list[str]:
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            files = json.load(fh)["files"]
        problems = [] if code == 0 and files else [f"{outdir}: exit {code}, empty manifest"]
        for rel, want in files.items():
            with open(os.path.join(outdir, rel), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != want:
                    problems.append(f"{outdir}/{rel}: digest differs from manifest.json")
        return problems
    return verify


def _expect_classify(inp: Input):
    agent, task, pattern = CORPUS_PATTERNS[inp.corpus]

    def verify(code: int, out: str) -> list[str]:
        if code != 0 or f"{agent}.{task}: {pattern}" not in out.splitlines():
            return [f"classify {inp.name}: {agent}.{task} is not {pattern}"]
        return []
    return verify


def _expect_impact(inp: Input, seed: str):
    def verify(code: int, out: str) -> list[str]:
        got = {a["element"]: a["relation"] for a in json.loads(out)["affected"]}
        base = oracles.oracle_affected_set(inp.model, seed, "both")
        deco = oracles.oracle_decorations(inp.model, base)
        if code != 0 or set(got) != base | set(deco) or any(got[e] != r for e, r in deco.items()):
            return [f"impact {inp.name} --seed {seed}: differs from the oracle"]
        return []
    return verify


def _expect_fmt(inp: Input):
    def verify(code: int, out: str) -> list[str]:
        return [f"fmt {inp.name}: exit {code}"] if code else check_formatted(inp, out)
    return verify


def corpus_commands(wl: Workload, outdir: str) -> list[CliCommand]:
    """The corpus_cli command mix: every subcommand on every corpus model."""
    paths = [i.path for i in wl.inputs]
    cmds = [CliCommand("check", ["check"] + paths, _expect_empty),
            CliCommand("check", ["check", "--format", "json"] + paths, _expect_json_empty)]
    for inp in wl.inputs:
        render_dir = os.path.join(outdir, f"render-{inp.corpus}")
        docs_dir = os.path.join(outdir, f"docs-{inp.corpus}")
        seed = CORPUS_IMPACT_SEED[inp.corpus]
        cmds += [
            CliCommand("render", ["render", inp.path, "--out", render_dir],
                       _expect_manifest(render_dir)),
            CliCommand("docs", ["docs", inp.path, "--out", docs_dir], _expect_manifest(docs_dir)),
            CliCommand("classify", ["classify", inp.path], _expect_classify(inp)),
            CliCommand("impact", ["impact", inp.path, "--seed", seed, "--direction", "both",
                                  "--format", "json"], _expect_impact(inp, seed)),
            CliCommand("fmt", ["fmt", "--stdout", inp.path], _expect_fmt(inp)),
        ]
    return cmds


def inprocess_commands(wl: Workload, results: dict) -> list[CliCommand]:
    """For the in-process workloads: ``check`` on every input the CLI can
    finish, and, only to be checked, ``classify`` and ``fmt --stdout`` on
    the smallest model. The expected output is the library's, from the
    first round."""
    checked = [i for i in wl.inputs if i.kind != "overlimit"]
    smallest = min((i for i in wl.inputs if "analyze" in i.ops), key=lambda i: len(i.text))

    def verify_check(code: int, out: str) -> list[str]:
        want = sorted((d.span.file, d.span.start.line, d.span.start.column, d.code)
                      for i in checked for d in results[(i.name, "check")])
        got = sorted((f, int(line), int(col), c) for f, line, col, _s, c in
                     (g.groups() for g in map(_DIAG_LINE.match, out.splitlines()) if g))
        parse_failed = any(i.model is None for i in checked)
        has_error = any(d.severity is Severity.ERROR
                        for i in checked for d in results[(i.name, "check")])
        want_code = 2 if parse_failed else 1 if has_error else 0
        if got != want or code != want_code:
            return [f"check: CLI gave {len(got)} diagnostics and exit {code}, library"
                    f" {len(want)} and exit {want_code}"]
        return []

    def verify_classify(code: int, out: str) -> list[str]:
        patterns, _reports = results[(smallest.name, "analyze")]
        want = [f"{a}.{t}: {p.value}" for a, t, p in patterns]
        return [] if code == 0 and out.splitlines() == want else [
            f"classify {smallest.name}: CLI and library disagree"]

    def verify_fmt(code: int, out: str) -> list[str]:
        return [] if code == 0 and out == results[(smallest.name, "fmt")] else [
            f"fmt {smallest.name}: CLI and library disagree"]

    return [
        CliCommand("check", ["check"] + [i.path for i in checked], verify_check),
        CliCommand("classify", ["classify", smallest.path], verify_classify, timed=False),
        CliCommand("fmt", ["fmt", "--stdout", smallest.path], verify_fmt, timed=False),
    ]
