"""Acceptance gate: the eight shipping criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
"""
from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys

from a4c.analysis import Pattern, classify, impact, loop_facts, seed_table
from a4c.formatter import canonical_format
from a4c.model import fingerprint
from a4c.parser import parse
from a4c.resolver import resolve
from a4c.validate import check

import oracles
from conftest import CORPUS, child_env, corpus_path, corpus_text, find_task, load_resolved
from test_analysis import composite_patterns
from test_render import anchor_misses, anchor_union, read_tree
from test_validate import all_codes, mutations
from util import alpha_rename

GOLDEN = pathlib.Path(__file__).parent / "golden" / "render"


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_corpus_validity():
    failures = []
    for name in CORPUS:
        pr = parse(corpus_text(name), f"{name}.a4c")
        if pr.model is None:
            failures.append(f"{name}: parse failed")
            continue
        rr = resolve(pr.model)
        if rr.model is None:
            failures.append(f"{name}: resolve failed")
            continue
        diags = list(pr.diagnostics) + list(rr.diagnostics) + check(rr.model)
        errors = [d for d in diags if d.severity.value == "error"]
        if errors:
            failures.append(f"{name}: {[d.code for d in errors]}")
    report(1, "corpus validity", not failures,
           failures or f"{len(CORPUS)} fixtures parse, resolve, validate with 0 errors")


def test_criterion_2_mutation_suite(testgen_text, recovery_text):
    rows = mutations(testgen_text, recovery_text)
    failures = []
    for rule_id, text, expected in rows:
        got = all_codes(text)
        if got != expected:
            failures.append(f"{rule_id}: expected {sorted(expected)} got {sorted(got)}")
    covered = {rule_id for rule_id, _t, _e in rows}
    if covered != {f"V{i}" for i in range(1, 14)}:
        failures.append(f"rules covered: {sorted(covered)}")
    report(2, "mutation suite", not failures,
           failures or f"{len(rows)} seeded mutations, one per rule V1-V13, exact code sets")


def test_criterion_3_classification_fidelity(testgen_rm, recovery_rm, resell_rm):
    failures = []
    expect = [
        (testgen_rm, "GeneratorTeam", "generate", Pattern.PIPELINE_WITH_FEEDBACK),
        (resell_rm, "MarketSearchConductor", "estimate", Pattern.ORCHESTRATION),
        (recovery_rm, "AutomatedArchitectureRecoveryPipeline", "recover", Pattern.FAN_OUT),
    ]
    for rm, agent_name, task_name, want in expect:
        agent, task = find_task(rm, agent_name, task_name)
        got = classify(rm, agent, task).value
        if got is not want:
            failures.append(f"{agent_name}.{task_name}: {got}")
    for name in CORPUS:
        text = corpus_text(name)
        renamed, _ = alpha_rename(text)
        if composite_patterns(load_resolved(renamed)) != \
                composite_patterns(load_resolved(text)):
            failures.append(f"{name}: classification changed under alpha-renaming")
    report(3, "classification fidelity", not failures,
           failures or "three fixture patterns match and survive alpha-renaming")


def test_criterion_4_loop_facts(testgen_rm, testgen_text):
    failures = []
    _agent, task = find_task(testgen_rm, "GeneratorTeam", "generate")
    facts = loop_facts(task)
    if len(facts) != 1:
        failures.append(f"expected 1 cycle, got {len(facts)}")
    else:
        exits = facts[0].exits
        ok = (
            len(exits) == 1
            and exits[0].guard is not None
            and exits[0].guard.subject == "Report"
            and exits[0].guard.literal == "IO"
        )
        if not ok:
            failures.append(f"unexpected exits: {exits}")
    before = all_codes(testgen_text)
    after = all_codes(testgen_text.replace("chk -> end [Report == IO]", "chk -> end"))
    if "W113" in before or "W113" not in after:
        failures.append(f"W113 flip broken: before={sorted(before)} after={sorted(after)}")
    report(4, "loop facts", not failures,
           failures or "one cycle, one guarded exit [Report == IO]; removing it flips W113 on")


def test_criterion_5_impact_oracle_equivalence(model_pool):
    checked = 0
    failures = []
    for i, _text, rm in model_pool:
        model = rm.model
        edges = oracles.oracle_edges(model)
        names = sorted(seed_table(rm))
        if len(names) > 50:
            failures.append(f"model {i}: {len(names)} elements exceeds the 50-node bound")
            break
        rng = random.Random(i)
        for seed in rng.sample(names, min(20, len(names))):
            for direction in ("up", "down", "both"):
                got = {a.element: a.relation for a in impact(rm, seed, direction).affected}
                base = oracles.closure(edges, seed, direction)
                deco = oracles.oracle_decorations(model, base)
                if set(got) != base | set(deco) or any(
                    got[e] != r for e, r in deco.items()
                ):
                    failures.append(f"model {i} seed {seed} {direction}")
                checked += 1
        if failures:
            break
    report(5, "impact oracle equivalence", not failures,
           failures or f"{len(model_pool)} models, {checked} impact calls match the fixpoint oracle")


def test_criterion_6_formatter_laws(noisy_texts):
    failures = []
    cases = [(f"{name}.a4c", corpus_text(name)) for name in CORPUS]
    cases.append(("messy.a4c",
                  (pathlib.Path(__file__).parent / "fixtures" / "messy.a4c")
                  .read_text(encoding="utf-8")))
    cases.extend((f"noise-{k}.a4c", text) for k, text in enumerate(noisy_texts))
    for file, text in cases:
        formatted = canonical_format(text, file)
        if canonical_format(formatted, file) != formatted:
            failures.append(f"{file}: not idempotent")
            break
        if fingerprint(parse(formatted, file).model) != fingerprint(parse(text, file).model):
            failures.append(f"{file}: reparse changed structure")
            break
    report(6, "formatter laws", not failures,
           failures or f"idempotence and reparse identity on {len(cases)} inputs")


def test_criterion_7_rendering_determinism(tmp_path, testgen_rm, recovery_rm, resell_rm):
    script = tmp_path / "render_all.py"
    script.write_text(
        "import pathlib, sys\n"
        "from a4c.cli import main\n"
        "out = pathlib.Path(sys.argv[1])\n"
        "for spec in sys.argv[2:]:\n"
        "    name, path = spec.split('=', 1)\n"
        "    assert main(['render', path, '--out', str(out / name)]) == 0\n"
        "    assert main(['docs', path, '--out', str(out / name)]) == 0\n",
        encoding="utf-8",
    )
    specs = [f"{name}={corpus_path(name)}" for name in CORPUS]
    for run_dir in ("run1", "run2"):
        subprocess.run(
            [sys.executable, str(script), str(tmp_path / run_dir), *specs],
            check=True, capture_output=True, env=child_env(),
        )
    failures = []
    for name in CORPUS:
        first = read_tree(tmp_path / "run1" / name)
        second = read_tree(tmp_path / "run2" / name)
        golden = read_tree(GOLDEN / name)
        if not (first == second == golden):
            failures.append(f"{name}: trees differ")
    for rm in (testgen_rm, recovery_rm, resell_rm):
        missing = set(rm.model.source_map) - anchor_union(rm)
        if missing:
            failures.append(f"unanchored elements: {sorted(missing)[:5]}")
        misses = anchor_misses(rm)
        if misses:
            failures.append(f"anchors on pages that do not name them: {misses[:5]}")
    report(7, "rendering determinism", not failures,
           failures or "two process runs byte-identical to goldens; every element anchored"
           " to a page that names it")


def test_criterion_8_cli_contract(tmp_path, testgen_text):
    bad = tmp_path / "bad.a4c"
    bad.write_text(testgen_text.replace("invoke runj = JenkinsTool.run",
                                        "invoke runj = JenkinsToolX.run"),
                   encoding="utf-8")
    failures = []

    def run(args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "a4c.cli", *args],
                              capture_output=True, text=True, env=child_env())

    table = [
        (["check", corpus_path("testgen")], 0),
        (["check", str(bad)], 1),
        (["check", str(tmp_path / "absent.a4c")], 2),
        (["check", "--bogus"], 3),
    ]
    for args, want in table:
        got = run(args).returncode
        if got != want:
            failures.append(f"{' '.join(args)}: exit {got}, wanted {want}")

    proc = run(["check", "--format", "json", str(bad)])
    try:
        payload = json.loads(proc.stdout)
        fields = {"code", "severity", "message", "file", "start", "end", "related"}
        if not payload or set(payload[0]) != fields:
            failures.append("check JSON fields off")
    except json.JSONDecodeError:
        failures.append("check JSON did not parse")

    proc = run(["impact", corpus_path("testgen"), "--seed", "Report", "--format", "json"])
    try:
        payload = json.loads(proc.stdout)
        if set(payload) != {"seed", "direction", "affected", "levels"}:
            failures.append("impact JSON fields off")
    except json.JSONDecodeError:
        failures.append("impact JSON did not parse")

    proc = run(["classify", corpus_path("resell"), "--format", "json"])
    try:
        payload = json.loads(proc.stdout)
        if any(set(e) != {"agent", "task", "pattern", "evidence"} for e in payload):
            failures.append("classify JSON fields off")
    except json.JSONDecodeError:
        failures.append("classify JSON did not parse")

    report(8, "CLI contract", not failures,
           failures or "exit codes 0-3 exercised end to end; JSON shapes stable")
