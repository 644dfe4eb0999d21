"""Differential run: the working tree's ``src/a4c`` against a git revision's,
under this interpreter and others.

    python tests/differential.py REV [--count N] [--expect OBS ...] [--python PY ...]

It extracts ``git archive REV src/a4c`` to a temporary directory and builds
one fixed set of inputs: the corpus, ``messy.a4c``, a corpus model with
one unresolved reference, one with an unguarded loop, ``--count`` each of
clean, noisy and body models from ``genmodels`` (seeds 0 to N-1), the
benchmark's shapes (a chain and a fan of 200 agents among them, large
enough together for ``check`` to fork workers), a model of 300 agents with
one body each (``genmodels.many_bodies``), ``--count``
``mutate`` mutants of each corpus model, and each corpus model with one of
its tokens cut out (``make_goldens.token_deletions``). Then it runs one
observer per side in a subprocess with that side's ``PYTHONPATH``, so no
module is imported under two names, and compares each side's records with
the reference side's. The reference side is REV under the running
interpreter; the working tree under it is one side, and each
``--python PY`` adds the working tree under PY. Every side runs with
``PYTHONHASHSEED=0`` and no bytecode written; since 3.10 and 3.11 order
sets differently under the same seed, no observable digests an unsorted set.

An observer records, per input, the token columns and comments, the parse
diagnostics, the model's ``fingerprint``, ``Model.elements`` with spans, the
resolve and check diagnostics, ``classify`` of every composite task, one
digest of the impact reports of every seed in every direction, the
``docs_bundle`` files and anchors, each ``render_*`` text and
``canonical_format``; and the stdout and stderr bytes, exit code and
written files of a fixed table of CLI commands.

It prints, per side, how many inputs agree and differ per observable, the
first inputs that differ, and for the diagnostic observables the codes lost
and gained. It exits 1 on a difference in an observable that no
``--expect OBS`` names, and 2 when REV cannot be read or a side's observer
cannot run. It needs git and the standard library only; building the
inputs imports the working tree's lexer to cut tokens out. Pytest does
not collect it: its name has no ``test_`` prefix.
"""

from __future__ import annotations

import argparse
import collections
import enum
import hashlib
import io
import json
import os
import pathlib
import platform
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent

DIAGNOSTIC_OBSERVABLES = ("parse", "resolve", "check")
OBSERVABLES = ("tokens", "parse", "fingerprint", "elements", "resolve", "check", "classify",
               "impact", "docs", "anchors", "render", "fmt", "cli")

BROKEN = 'model "X" { context { bogus } artifact A widget W }\n'
# testgen with one E001: it parses but does not resolve
UNRESOLVED = ("testgen", "store codeStore : TestCode", "store codeStore : TestCodes")
# testgen with one W113: its feedback loop loses its guarded exit
WARNED = ("testgen", "chk -> end [Report == IO]", "chk -> end")
# enough model text for ``check`` to share the files among forked workers,
# with a file of each kind of failure among them
FORKED = ["large-chain.a4c", "missing.a4c", "warned.a4c", "latin1.a4c", "broken.a4c",
          "large-fan.a4c", "unresolved.a4c", "messy.a4c"]
CORPUS = ("testgen.a4c", "recovery.a4c", "resell.a4c")
# argv of each CLI command, run in a directory that holds the input files
# named here; ``out/`` is emptied before each command
CLI_TABLE = (
    ["check", *CORPUS],
    ["check", "--format", "json", *CORPUS],
    ["check", "--fail-on-warning", "messy.a4c"],
    ["check", "broken.a4c"],
    ["check", "--format", "json", "broken.a4c"],
    ["check", "latin1.a4c"],
    ["check", "missing.a4c"],
    ["check", *FORKED],
    ["check", "--format", "json", *FORKED],
    ["check", "--fail-on-warning", "large-chain.a4c", "warned.a4c", "large-fan.a4c"],
    *(["render", "--out", "out", file] for file in CORPUS),
    ["render", "--level", "c2", "--out", "out", "recovery.a4c"],
    *(["docs", "--out", "out", file] for file in CORPUS),
    ["docs", "--out", "out", "broken.a4c"],
    ["render", "--out", "out", "unresolved.a4c"],
    ["docs", "--out", "out", "unresolved.a4c"],
    ["classify", "unresolved.a4c"],
    ["impact", "--seed", "TestSpec", "unresolved.a4c"],
    *(["classify", file] for file in CORPUS),
    ["classify", "--format", "json", "resell.a4c"],
    ["impact", "--seed", "TestSpec", "testgen.a4c"],
    ["impact", "--seed", "TestCode", "--direction", "up", "--format", "json", "testgen.a4c"],
    ["impact", "--seed", "Nope", "testgen.a4c"],
    ["fmt", "--stdout", *CORPUS],
    ["fmt", "--stdout", "messy.a4c", "resell.a4c"],
    ["fmt", "--stdout", "broken.a4c"],
    ["--help"],
    ["bogus-command"],
)


# --- inputs (working tree only) ---------------------------------------------------

def build_inputs(count: int) -> dict[str, str]:
    sys.path[:0] = [str(HERE), str(REPO / "bench"), str(REPO / "src")]
    import shapes
    from genmodels import generate_body_model, generate_model, many_bodies, mutate
    from make_goldens import token_deletions

    corpus = {name: (REPO / "src" / "a4c" / "corpus" / f"{name}.a4c").read_text(encoding="utf-8")
              for name in ("testgen", "recovery", "resell")}
    inputs = {f"{name}.a4c": text for name, text in corpus.items()}
    inputs["messy.a4c"] = (HERE / "fixtures" / "messy.a4c").read_text(encoding="utf-8")
    inputs["broken.a4c"] = BROKEN
    for file, (name, old, new) in (("unresolved.a4c", UNRESOLVED), ("warned.a4c", WARNED)):
        inputs[file] = corpus[name].replace(old, new, 1)
    inputs["large-chain.a4c"] = shapes.chain(200, 0)
    inputs["large-fan.a4c"] = shapes.fan(200, 0)
    for i in range(count):
        inputs[f"clean-{i}"] = generate_model(i)
        inputs[f"noisy-{i}"] = generate_model(i, noise=True)
        inputs[f"body-{i}"] = generate_body_model(i)
    for shape, sizes in ((shapes.chain, (1, 30)), (shapes.fan, (1, 30)),
                         (shapes.ladder, (1, 6)), (shapes.feedback, (2, 40))):
        for n in sizes:
            inputs[f"{shape.__name__}-{n}"] = shape(n, 0)
    inputs["many_bodies-300"] = many_bodies(300)
    rng = random.Random(0)
    for name, text in corpus.items():
        for i in range(count):
            inputs[f"mutant-{name}-{i}"] = mutate(text, rng)
    for name, k, _cut, text in token_deletions():
        inputs[f"cut-{name}-{k}"] = text
    return inputs


# --- observer (runs under one side's PYTHONPATH) ------------------------------------

def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _where(span) -> tuple:
    return (span.file, span.start.line, span.start.column, span.end.line, span.end.column)


def _plain(value):
    """A record tree as nested tuples without spans, records of either
    kind (named tuples or dataclasses) named by their class."""
    from a4c.diagnostics import SourceSpan

    if isinstance(value, SourceSpan):
        return "<span>"
    fields = getattr(value, "_fields", None) or getattr(value, "__dataclass_fields__", None)
    if fields is not None and not isinstance(value, type):
        return (type(value).__name__,) + tuple(_plain(getattr(value, f)) for f in fields)
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _plain(v)) for k, v in value.items()))
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _diagnostics(diags) -> list[str]:
    return [json.dumps(d.to_json_obj(), sort_keys=True) for d in diags]


def _attempt(rec: dict, name: str, fn, show=_digest):
    """``fn()``, recorded under ``name`` as ``show`` of it; a side that
    raises is recorded as a difference, not a crash, and gets None."""
    try:
        value = fn()
    except Exception as exc:
        rec[name] = f"raised {type(exc).__name__}: {exc}"
        return None
    rec[name] = show(value)
    return value


def _token_record(lex) -> str:
    comments = [(c.text, _where(c.span)) for c in lex.comments]
    return _digest((lex.types, lex.values, lex.starts, lex.ends, comments,
                    _diagnostics(lex.diagnostics)))


def observe_text(text: str, file: str) -> dict:
    from a4c import analysis, formatter, model as m, parser, render, resolver, validate
    from a4c.lexer import tokenize

    rec: dict = {}
    _attempt(rec, "tokens", lambda: tokenize(text, file), _token_record)
    _attempt(rec, "fmt", lambda: formatter.canonical_format(text, file))
    parsed = _attempt(rec, "parse", lambda: parser.parse(text, file),
                      lambda r: _diagnostics(r.diagnostics))
    model = parsed.model if parsed is not None else None
    if model is None:
        return rec
    _attempt(rec, "fingerprint", lambda: _plain(m.fingerprint(model)))
    _attempt(rec, "elements", lambda: [(e.kind, e.display, e.id, e.level, _where(e.span))
                                       for e in model.elements])
    resolved = _attempt(rec, "resolve", lambda: resolver.resolve(model),
                        lambda r: _diagnostics(r.diagnostics))
    rm = resolved.model if resolved is not None else None
    if rm is None:
        return rec
    _attempt(rec, "check", lambda: validate.check(rm), _diagnostics)
    _attempt(rec, "classify", lambda: [(a.name, t.name, _plain(analysis.classify(rm, a, t)))
                                       for a, t in m.iter_tasks(model) if t.is_composite])
    _attempt(rec, "impact", lambda: _impact_digest(analysis, rm), str)
    bundle = _attempt(rec, "docs", lambda: render.docs_bundle(rm),
                      lambda b: _digest(sorted(b.files.items())))
    if bundle is not None:
        _attempt(rec, "anchors", lambda: sorted(bundle.anchors.items()))
    _attempt(rec, "render", lambda: _render_texts(render, m, model))
    return rec


def _impact_digest(analysis, rm) -> str:
    """The impact report of every seed in every direction, streamed into one
    sha256: per report its seed, direction and levels, then per entry its
    element, relation and path as one joined string."""
    sha = hashlib.sha256()
    for seed in sorted(analysis.seed_table(rm)):
        for d in ("down", "up", "both"):
            report = analysis.impact(rm, seed, d)
            sha.update("\0".join((report.seed, report.direction.value, *report.levels_touched,
                                  "\x1e")).encode())
            for a in report.affected:
                sha.update("\0".join((a.element, a.relation, *a.path, "\n")).encode())
    return sha.hexdigest()[:16]


def _render_texts(render, m, model) -> list:
    texts = [render.render_context(model).text]
    try:
        texts.append(render.render_deployment(model).text)
    except render.RenderError as exc:
        texts.append(exc.code)
    for agent, task in m.iter_tasks(model):
        if task.graph is not None:
            texts.append(render.render_activity(model, agent, task).text)
        if task.prompt is not None:
            texts.append(render.render_prompts(agent, task).text)
    return texts


def observe_cli(inputs: dict[str, str], workdir: pathlib.Path) -> dict:
    for name, text in inputs.items():
        if name.endswith(".a4c"):
            (workdir / name).write_text(text, encoding="utf-8")
    (workdir / "latin1.a4c").write_bytes('model "Café" {}\n'.encode("latin-1"))
    out = workdir / "out"
    records = {}
    for argv in CLI_TABLE:
        shutil.rmtree(out, ignore_errors=True)
        # bytes, not text: universal newlines would hide a ``\r\n``
        proc = subprocess.run([sys.executable, "-m", "a4c.cli", *argv], cwd=workdir,
                              capture_output=True, timeout=120,
                              env=dict(os.environ, A4C_COLOR="never"))
        written = sorted((str(p.relative_to(workdir)), _digest(p.read_bytes()))
                         for p in out.rglob("*") if p.is_file())
        records[" ".join(argv)] = [proc.returncode, _digest(proc.stdout), _digest(proc.stderr),
                                   written]
    return records


def observer_main(inputs_path: str, output_path: str, workdir: str | None = None) -> None:
    """Records of each input in ``inputs_path``, and of the CLI table when
    ``workdir`` is given, written to ``output_path``."""
    import a4c

    inputs = json.loads(pathlib.Path(inputs_path).read_text(encoding="utf-8"))
    records: dict[str, dict] = collections.defaultdict(dict)
    for name, text in inputs.items():
        for obs, value in observe_text(text, name).items():
            records[obs][name] = value
    if workdir is not None:
        records["cli"] = observe_cli(inputs, pathlib.Path(workdir))
    pathlib.Path(output_path).write_text(json.dumps({
        "a4c": a4c.__file__, "python": platform.python_version(), "records": records,
    }), encoding="utf-8")


# --- driver -------------------------------------------------------------------------

def extract(rev: str, dest: pathlib.Path) -> pathlib.Path:
    proc = subprocess.run(["git", "archive", "--format=tar", rev, "src/a4c"], cwd=REPO,
                          capture_output=True)
    if proc.returncode:
        print(f"differential: cannot read src/a4c at {rev!r}: "
              f"{proc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
        sys.exit(2)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest)
    return dest / "src"


def run_side(python: str, src: pathlib.Path, inputs_path: pathlib.Path, tmp: pathlib.Path,
             label: str, cli: bool = True) -> tuple[str, dict]:
    """The Python version and the records of ``src``'s observer under
    ``python``, with the CLI table when ``cli``; RuntimeError when the
    observer cannot run or imports another a4c."""
    output = tmp / f"{label}.json"
    argv = [python, __file__, "--observe", str(inputs_path), str(output)]
    if cli:
        (tmp / f"cli-{label}").mkdir()
        argv.append(str(tmp / f"cli-{label}"))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
    except OSError as exc:
        raise RuntimeError(f"cannot start {python}: {exc}") from None
    if proc.returncode:
        raise RuntimeError(f"the {label} observer under {python} exited {proc.returncode}:\n"
                           + proc.stderr.strip())
    result = json.loads(output.read_text(encoding="utf-8"))
    if not pathlib.Path(result["a4c"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"the {label} observer imported {result['a4c']}, not {src}")
    return result["python"], result["records"]


def _codes(diags) -> collections.Counter:
    return collections.Counter(json.loads(d)["code"] for d in diags)


def compare(old: dict, new: dict) -> dict[str, dict]:
    report = {}
    for obs in OBSERVABLES:
        a, b = old.get(obs, {}), new.get(obs, {})
        differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        lost, gained = collections.Counter(), collections.Counter()
        if obs in DIAGNOSTIC_OBSERVABLES:
            for k in differing:
                was, now = a.get(k, []), b.get(k, [])
                if isinstance(was, list) and isinstance(now, list):
                    was, now = collections.Counter(was), collections.Counter(now)
                    lost += _codes((was - now).elements())
                    gained += _codes((now - was).elements())
        same = len(a.keys() | b.keys()) - len(differing)
        report[obs] = {"same": same, "differ": differing, "lost": lost, "gained": gained}
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision whose src/a4c is the reference side")
    ap.add_argument("--count", type=int, default=100,
                    help="generated models of each kind, and mutants per corpus model")
    ap.add_argument("--expect", action="append", default=[], choices=OBSERVABLES,
                    metavar="OBS", help="an observable allowed to differ (repeatable)")
    ap.add_argument("--python", action="append", default=[], metavar="PY",
                    help="an interpreter to run the working tree under, as one more side "
                         "(repeatable)")
    args = ap.parse_args(argv)
    pythons = [sys.executable, *args.python]

    with tempfile.TemporaryDirectory(prefix="a4c-differential-") as name:
        tmp = pathlib.Path(name)
        old_src = extract(args.rev, tmp / "rev")
        inputs = build_inputs(args.count)
        inputs_path = tmp / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
        try:
            version, old = run_side(sys.executable, old_src, inputs_path, tmp, "rev")
            sides = [run_side(python, REPO / "src", inputs_path, tmp, f"tree{k}")
                     for k, python in enumerate(pythons)]
        except RuntimeError as exc:
            print(f"differential: {exc}", file=sys.stderr)
            return 2

    print(f"{len(inputs)} inputs and {len(CLI_TABLE)} CLI commands: {args.rev} under "
          f"Python {version} against the working tree")
    unexpected = []
    for python, (side_version, new) in zip(pythons, sides):
        print(f"\nunder Python {side_version} ({python})")
        print(f"{'observable':<12} {'same':>6} {'differ':>6}")
        for obs, row in compare(old, new).items():
            line = f"{obs:<12} {row['same']:>6} {len(row['differ']):>6}"
            if row["differ"]:
                line += "  e.g. " + ", ".join(row["differ"][:3])
                if obs not in args.expect:
                    unexpected.append(f"{obs} (Python {side_version})")
            print(line)
            for word in ("lost", "gained"):
                if row[word]:
                    print(f"{'':<12} {word} " + ", ".join(
                        f"{code}x{n}" for code, n in sorted(row[word].items())))
    if unexpected:
        print(f"unexpected differences: {', '.join(unexpected)}")
        return 1
    print("no unexpected difference")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--observe"]:
        observer_main(*sys.argv[2:])
    else:
        sys.exit(main())
