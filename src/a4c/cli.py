"""Command line front end.

Subcommands: check, render, impact, classify, docs, fmt.

Exit codes: 0 success, 1 semantic findings (validation errors, warnings
under --fail-on-warning, rendering a view the model lacks), 2 input
failures (unreadable files, parse errors, unformattable input), 3 usage
errors (bad flags, unknown seed or direction, classifying a leaf task).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Optional

from . import model as m
from .analysis import AnalysisError, classify, impact
from .diagnostics import Diagnostic, Severity, sort_diagnostics
from .formatter import FormatError, canonical_format
from .parser import parse
from .render import (
    RenderError,
    docs_bundle,
    render_activity,
    render_context,
    render_deployment,
    render_prompts,
)
from .resolver import ResolvedModel, resolve

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_USAGE = 3


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


def _print_diagnostics(diags: list[Diagnostic], fmt: str, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    if fmt == "json":
        json.dump([d.to_json_obj() for d in diags], stream, indent=2)
        stream.write("\n")
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


# --- commands ---------------------------------------------------------------------

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
    has_error = any(d.severity is Severity.ERROR for d in all_diags)
    if has_error:
        return EXIT_FINDINGS
    if args.fail_on_warning and all_diags:
        return EXIT_FINDINGS
    return EXIT_OK


def _sha256(content: str) -> str:
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


def _write_outputs(out_dir: str, files: dict[str, str]) -> None:
    """Write rendered files plus a sha256 manifest.

    An existing manifest is merged so render and docs invocations sharing an
    --out directory describe the combined tree; entries whose file vanished
    are dropped.
    """
    for rel, content in files.items():
        path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(path) or out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    manifest_path = os.path.join(out_dir, "manifest.json")
    entries: dict[str, str] = {}
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                old = json.load(fh)
            for rel, digest in old.get("files", {}).items():
                if os.path.exists(os.path.join(out_dir, rel)):
                    entries[rel] = digest
        except (OSError, ValueError):
            entries = {}
    for rel, content in files.items():
        entries[rel] = _sha256(content)
    manifest = {"files": {rel: entries[rel] for rel in sorted(entries)}}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for rel in sorted(files):
        print(f"wrote {os.path.join(out_dir, rel)}")
    print(f"wrote {manifest_path}")


def _cmd_render(args) -> int:
    rm, diags, code = _load_resolved(args.file)
    if rm is None:
        _print_diagnostics(diags, "text", sys.stderr)
        return code
    model = rm.model
    files: dict[str, str] = {}
    level = args.level
    if level in ("c1", "all"):
        files["c1.puml"] = render_context(model).text
    if level in ("c2", "all"):
        if model.deployment is None:
            if level == "c2":
                print("a4c: R001: model has no deployment section", file=sys.stderr)
                return EXIT_FINDINGS
        else:
            files["c2.puml"] = render_deployment(model).text
    for agent, task in m.iter_tasks(model):
        stem = m.task_display(agent.name, task.name)
        if task.graph is not None and (
            level == "all"
            or (level == "c3" and task.is_composite)
            or (level == "c4" and task.is_leaf)
        ):
            files[f"activity/{stem}.dot"] = render_activity(model, agent, task).text
        if task.prompt is not None and level in ("c4", "all"):
            files[f"prompts/{stem}.md"] = render_prompts(agent, task).text
    _write_outputs(args.out, files)
    return EXIT_OK


def _cmd_impact(args) -> int:
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
        json.dump(report.to_json_obj(), sys.stdout, indent=2)
        sys.stdout.write("\n")
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
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK
    for agent, task, pattern in rows:
        print(f"{m.task_display(agent.name, task.name)}: {pattern.value}")
    return EXIT_OK


def _cmd_docs(args) -> int:
    rm, diags, code = _load_resolved(args.file)
    if rm is None:
        _print_diagnostics(diags, "text", sys.stderr)
        return code
    bundle = docs_bundle(rm)
    files = {f"docs/{rel}": content for rel, content in bundle.files.items()}
    _write_outputs(args.out, files)
    return EXIT_OK


def _cmd_fmt(args) -> int:
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
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(formatted)
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
    except RenderError as exc:
        print(f"a4c: {exc}", file=sys.stderr)
        return EXIT_FINDINGS if exc.code == "R001" else EXIT_USAGE
    except OSError as exc:
        print(f"a4c: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
