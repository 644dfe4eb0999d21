"""Seeded mutants of valid models through the CLI and the library.

Each mutant is a corpus or generated model with one to three lines deleted,
duplicated or edited (``genmodels.mutate``). Through ``cli.main`` in
process, every command must end with a documented exit code other than 4
(an internal fault) and print no traceback, ``check --format json`` must
print JSON, and the formatter laws must hold wherever the mutant parses.
Through the library, no stage may leave a reference cycle behind: the
records hold no back references, so the cyclic collector has nothing to
free after any of them.
"""

from __future__ import annotations

import gc
import json
import random
import shutil

from a4c.formatter import FormatError, canonical_format
from a4c.model import fingerprint
from a4c.parser import parse
from a4c.render import docs_bundle
from a4c.resolver import resolve
from a4c.validate import check
from conftest import CORPUS, corpus_text, load_shapes, run_cli
from genmodels import generate_model, mutate

DOCUMENTED_EXITS = {0, 1, 2, 3}


def mutants(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    seeds = [corpus_text(name) for name in CORPUS]
    seeds += [generate_model(seed + i, noise=i % 2 == 1) for i in range(12)]
    return [mutate(rng.choice(seeds), rng) for _ in range(count)]


def run_checked(capsys, *argv: str) -> tuple[int, str, str]:
    rc, out, err = run_cli(capsys, *argv)
    assert rc in DOCUMENTED_EXITS, (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    return rc, out, err


def test_cli_survives_mutants(tmp_path, capsys):
    path = tmp_path / "mutant.a4c"
    out_dir = tmp_path / "out"
    formatted_count = 0
    for k, text in enumerate(mutants(4100, 250)):
        path.write_text(text, encoding="utf-8")
        file = str(path)
        run_checked(capsys, "check", file)
        _, out, _ = run_checked(capsys, "check", "--format", "json", file)
        assert isinstance(json.loads(out), list), k
        run_checked(capsys, "classify", file)
        run_checked(capsys, "docs", file, "--out", str(out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        rc, formatted, _ = run_checked(capsys, "fmt", "--stdout", file)
        if rc == 0:
            formatted_count += 1
            assert canonical_format(formatted, file) == formatted, k
            after = parse(formatted, file).model
            assert after is not None, k
            assert fingerprint(after) == fingerprint(parse(text, file).model), k
    assert formatted_count > 0


def cycle_inputs() -> list[str]:
    shapes = load_shapes()
    texts = [corpus_text(name) for name in CORPUS]
    texts += [shapes.chain(200, 5), shapes.ladder(6, 5)]
    return texts + mutants(4200, 100)


def test_no_stage_leaves_a_reference_cycle():
    """The collector finds nothing after parse, resolve and check, docs and
    the formatter. Automatic collection is off meanwhile, so every object a
    stage makes stays in the youngest generation until the count is taken
    there; a full collection at the end finds any cycle that spans stages."""
    texts = cycle_inputs()
    gc.collect()
    gc.disable()
    try:
        for k, text in enumerate(texts):
            parsed = parse(text, f"cycle-{k}.a4c")
            assert gc.collect(0) == 0, ("parse", k)
            resolved = resolve(parsed.model).model if parsed.model is not None else None
            if resolved is not None:
                diagnostics = check(resolved)
                assert gc.collect(0) == 0, ("check", k)
                bundle = docs_bundle(resolved)
                assert gc.collect(0) == 0, ("docs", k)
                del diagnostics, bundle
            try:
                canonical_format(text, f"cycle-{k}.a4c")
            except FormatError:
                pass
            assert gc.collect(0) == 0, ("fmt", k)
        del parsed, resolved
        assert gc.collect() == 0
    finally:
        gc.enable()
