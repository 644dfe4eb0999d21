"""Command line front end.

Subcommands: check, render, impact, classify, docs, fmt.

Exit codes: 0 success, 1 semantic findings (validation errors, warnings
under --fail-on-warning, rendering a view the model lacks), 2 input
failures (unreadable files, parse errors, unformattable input), 3 usage
errors (bad flags, unknown seed or direction, classifying a leaf task), 4
internal errors (a fault in a4c itself, reported as one line on stderr,
never as a traceback).

Each command imports the modules it runs when it runs, so ``fmt`` never
loads the resolver and ``--help`` loads neither parser nor resolver.
``run`` is the process entry point.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from typing import TYPE_CHECKING, Optional

from .diagnostics import Diagnostic, Severity, has_errors, sort_diagnostics

if TYPE_CHECKING:
    from .resolver import ResolvedModel

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this tool reserves 2 for bad
    input files, so usage errors move to exit 3."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="a4c", description="architecture description toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[], help="parse, resolve, validate")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--fail-on-warning", action="store_true")

    p_render = sub.add_parser("render", help="write diagrams for a model")
    p_render.add_argument("file", metavar="FILE")
    p_render.add_argument("--out", required=True, metavar="DIR")
    p_render.add_argument(
        "--level", choices=("c1", "c2", "c3", "c4", "all"), default="all"
    )

    p_impact = sub.add_parser("impact", help="change impact closure for an element")
    p_impact.add_argument("file", metavar="FILE")
    p_impact.add_argument("--seed", required=True)
    p_impact.add_argument("--direction", choices=("up", "down", "both"), default="both")
    p_impact.add_argument("--format", choices=("text", "json"), default="text")

    p_classify = sub.add_parser("classify", help="interaction pattern per composite task")
    p_classify.add_argument("file", metavar="FILE")
    p_classify.add_argument("--format", choices=("text", "json"), default="text")

    p_docs = sub.add_parser("docs", help="write the documentation bundle")
    p_docs.add_argument("file", metavar="FILE")
    p_docs.add_argument("--out", required=True, metavar="DIR")

    p_fmt = sub.add_parser("fmt", help="rewrite a file in canonical form")
    p_fmt.add_argument("files", nargs="+", metavar="FILE")
    p_fmt.add_argument("--stdout", action="store_true",
                       help="print instead of rewriting in place")

    return parser


# --- diagnostics output ----------------------------------------------------------

def _use_color(stream) -> bool:
    mode = os.environ.get("A4C_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _severity_text(sev: Severity, color: bool) -> str:
    if not color:
        return str(sev)
    code = "31" if sev is Severity.ERROR else "33"
    return f"\x1b[{code}m{sev}\x1b[0m"


def _write_json(obj, stream) -> None:
    import json

    json.dump(obj, stream, indent=2)
    stream.write("\n")


def _print_diagnostics(diags: list[Diagnostic], fmt: str, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    if fmt == "json":
        _write_json([d.to_json_obj() for d in diags], stream)
        return
    color = _use_color(stream)
    for d in diags:
        pos = d.span.start
        sev = _severity_text(d.severity, color)
        stream.write(f"{d.span.file}:{pos.line}:{pos.column}: {sev}[{d.code}] {d.message}\n")
        for rel in d.related:
            rpos = rel.span.start
            stream.write(
                f"    related: {rel.message} ({rel.span.file}:{rpos.line}:{rpos.column})\n"
            )
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    warnings = len(diags) - errors
    if diags:
        stream.write(f"{errors} error(s), {warnings} warning(s)\n")


def _read(path: str) -> Optional[str]:
    """The text of one model file, without a leading byte-order mark, or None
    once the reason it cannot be read is printed on stderr."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not valid UTF-8"
    print(f"a4c: cannot read {path}: {reason}", file=sys.stderr)
    return None


def _load_resolved(path: str) -> tuple[Optional[ResolvedModel], list[Diagnostic], int]:
    """Parse and resolve one file: (resolved, diagnostics, failing exit code)."""
    from .parser import parse
    from .resolver import resolve

    text = _read(path)
    if text is None:
        return None, [], EXIT_INPUT
    presult = parse(text, path)
    if presult.model is None:
        return None, presult.diagnostics, EXIT_INPUT
    rresult = resolve(presult.model)
    diags = sort_diagnostics(presult.diagnostics + rresult.diagnostics)
    if rresult.model is None:
        return None, diags, EXIT_FINDINGS
    return rresult.model, diags, EXIT_OK


# --- commands (each imports what only it runs: `check` loads no renderer) --------

def _cmd_check(args) -> int:
    from .validate import check

    all_diags: list[Diagnostic] = []
    worst = EXIT_OK
    # results stay grouped by input file, in argument order
    for path in args.files:
        rm, diags, code = _load_resolved(path)
        file_diags = list(diags)
        if rm is not None:
            file_diags.extend(check(rm))
        all_diags.extend(sort_diagnostics(file_diags))
        worst = max(worst, code)
    _print_diagnostics(all_diags, args.format)
    if worst == EXIT_INPUT:
        return EXIT_INPUT
    if has_errors(all_diags):
        return EXIT_FINDINGS
    if args.fail_on_warning and all_diags:
        return EXIT_FINDINGS
    return EXIT_OK


def _write_file(path: str, content: str) -> None:
    """Write ``content`` to a temporary sibling of ``path`` and rename it over
    ``path``, so that ``path`` holds either its old or its new bytes. A file
    that exists keeps its permission bits; a new one gets the mode ``open``
    gives it. A symbolic link is followed, as ``open`` would."""
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    replaced = False
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(content)
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
        replaced = True
    finally:
        if not replaced and os.path.exists(tmp):
            os.remove(tmp)


def _manifest_entries(path: str) -> dict[str, str]:
    """The ``files`` table of an existing manifest; empty when there is none,
    it cannot be read, or it is not shaped ``{"files": {path: digest}}``."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            old = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return {}
    entries = old.get("files") if isinstance(old, dict) else None
    if not isinstance(entries, dict) or not all(isinstance(d, str) for d in entries.values()):
        return {}
    return entries


def _write_outputs(out_dir: str, files: dict[str, str]) -> None:
    """Write rendered files plus a sha256 manifest.

    An existing manifest is merged so render and docs invocations sharing an
    --out directory describe the combined tree; entries whose file vanished
    are dropped.
    """
    import hashlib
    import json

    for rel, content in files.items():
        path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(path) or out_dir, exist_ok=True)
        _write_file(path, content)
    manifest_path = os.path.join(out_dir, "manifest.json")
    entries = {rel: digest for rel, digest in _manifest_entries(manifest_path).items()
               if os.path.exists(os.path.join(out_dir, rel))}
    for rel, content in files.items():
        entries[rel] = hashlib.sha256(content.encode("utf-8")).hexdigest()
    manifest = {"files": {rel: entries[rel] for rel in sorted(entries)}}
    _write_file(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for rel in sorted(files):
        print(f"wrote {os.path.join(out_dir, rel)}")
    print(f"wrote {manifest_path}")


def _cmd_render(args) -> int:
    from . import model as m, render

    rm, diags, code = _load_resolved(args.file)
    if rm is None:
        _print_diagnostics(diags, "text", sys.stderr)
        return code
    model = rm.model
    files: dict[str, str] = {}
    level = args.level
    try:
        if level in ("c1", "all"):
            files["c1.puml"] = render.render_context(model).text
        if level == "c2" or (level == "all" and model.deployment is not None):
            files["c2.puml"] = render.render_deployment(model).text
        for agent, task in m.iter_tasks(model):
            stem = m.task_display(agent.name, task.name)
            if task.graph is not None and (
                level == "all"
                or (level == "c3" and task.is_composite)
                or (level == "c4" and task.is_leaf)
            ):
                files[f"activity/{stem}.dot"] = render.render_activity(model, agent, task).text
            if task.prompt is not None and level in ("c4", "all"):
                files[f"prompts/{stem}.md"] = render.render_prompts(agent, task).text
    except render.RenderError as exc:  # R001: --level c2 without a deployment section
        print(f"a4c: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    _write_outputs(args.out, files)
    return EXIT_OK


def _cmd_impact(args) -> int:
    from .analysis import AnalysisError, impact

    rm, diags, code = _load_resolved(args.file)
    if rm is None:
        _print_diagnostics(diags, "text", sys.stderr)
        return code
    try:
        report = impact(rm, args.seed, args.direction)
    except AnalysisError as exc:
        print(f"a4c: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        _write_json(report.to_json_obj(), sys.stdout)
        return EXIT_OK
    print(f"impact of {report.seed} ({report.direction}):")
    if not report.affected:
        print("  no affected elements")
    for entry in report.affected:
        path = " -> ".join(entry.path)
        print(f"  {entry.element} [{entry.relation}] via {path}")
    print("levels: " + (", ".join(report.levels_touched) or "none"))
    return EXIT_OK


def _cmd_classify(args) -> int:
    from . import model as m
    from .analysis import classify

    rm, diags, code = _load_resolved(args.file)
    if rm is None:
        _print_diagnostics(diags, "text", sys.stderr)
        return code
    rows = []
    for agent, task in m.iter_tasks(rm.model):
        if not task.is_composite:
            continue
        pattern = classify(rm, agent, task)
        rows.append((agent, task, pattern))
    if args.format == "json":
        payload = [
            {
                "agent": agent.name,
                "task": task.name,
                "pattern": str(pattern.value),
                "evidence": [
                    {"criterion": criterion, "elements": list(refs)}
                    for criterion, refs in pattern.evidence
                ],
            }
            for agent, task, pattern in rows
        ]
        _write_json(payload, sys.stdout)
        return EXIT_OK
    for agent, task, pattern in rows:
        print(f"{m.task_display(agent.name, task.name)}: {pattern.value}")
    return EXIT_OK


def _cmd_docs(args) -> int:
    from . import render

    rm, diags, code = _load_resolved(args.file)
    if rm is None:
        _print_diagnostics(diags, "text", sys.stderr)
        return code
    bundle = render.docs_bundle(rm)
    files = {f"docs/{rel}": content for rel, content in bundle.files.items()}
    _write_outputs(args.out, files)
    return EXIT_OK


def _cmd_fmt(args) -> int:
    from .formatter import FormatError, canonical_format

    # every file is formatted before any is written, so one that fails to
    # read or parse leaves them all untouched
    outputs: list[tuple[str, str]] = []
    for path in args.files:
        text = _read(path)
        if text is None:
            return EXIT_INPUT
        try:
            outputs.append((path, canonical_format(text, path)))
        except FormatError as exc:
            _print_diagnostics([exc.diagnostic] + exc.causes, "text", sys.stderr)
            return EXIT_INPUT
    for path, formatted in outputs:
        if args.stdout:
            sys.stdout.write(formatted)
        else:
            _write_file(path, formatted)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "render": _cmd_render,
    "impact": _cmd_impact,
    "classify": _cmd_classify,
    "docs": _cmd_docs,
    "fmt": _cmd_fmt,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"a4c: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault in a4c: one line and a code of its own
        message = " ".join(str(exc).split())
        print(f"a4c: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def run(argv: Optional[list[str]] = None) -> int:
    """``main`` for a process that ends with it (the ``a4c`` script and
    ``python -m a4c.cli``). Whatever ``main`` leaves alive lives until exit,
    so ``gc.freeze()`` moves it all into the permanent generation, which the
    interpreter's final collections skip; the ``finally`` covers argparse's
    ``SystemExit`` too. Callers that go on running call ``main``, which
    leaves the collector as it is."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
