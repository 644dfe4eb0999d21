"""The commands other than ``check``: render, impact, classify, docs and fmt.

``cli`` imports this module only to run one of them, so ``check`` never
compiles their code, and each of them imports the modules it runs when it
runs. Each takes the parsed arguments and returns the exit code.
"""

from __future__ import annotations

import os
import stat
import sys
from typing import TYPE_CHECKING, Callable

from .cli import (EXIT_FINDINGS, EXIT_INPUT, EXIT_OK, EXIT_USAGE, _load_resolved,
                  _print_diagnostics, _read, _write_json)

if TYPE_CHECKING:
    from .resolver import ResolvedModel


def _on_resolved(command: Callable[..., int]) -> Callable[..., int]:
    """Run ``command(args, rm)`` on the resolved model of ``args.file``, or print
    on stderr why the file does not resolve and return the exit code. A model
    that resolves has no diagnostics to print: loading reports only errors."""
    def run(args) -> int:
        rm, diags, code, note = _load_resolved(args.file)
        if rm is None:
            if note:
                print(note, file=sys.stderr)
            _print_diagnostics(diags, "text", sys.stderr)
            return code
        return command(args, rm)

    return run


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


@_on_resolved
def render(args, rm: ResolvedModel) -> int:
    from . import model as m, render

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


@_on_resolved
def impact(args, rm: ResolvedModel) -> int:
    from .analysis import AnalysisError, impact

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


@_on_resolved
def classify(args, rm: ResolvedModel) -> int:
    from . import model as m
    from .analysis import classify

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


@_on_resolved
def docs(args, rm: ResolvedModel) -> int:
    from . import render

    bundle = render.docs_bundle(rm)
    files = {f"docs/{rel}": content for rel, content in bundle.files.items()}
    _write_outputs(args.out, files)
    return EXIT_OK


def fmt(args) -> int:
    from .formatter import FormatError, canonical_format

    # every file is formatted before any is written, so one that fails to
    # read or parse leaves them all untouched
    outputs: list[tuple[str, str]] = []
    for path in args.files:
        text, note = _read(path)
        if text is None:
            print(note, file=sys.stderr)
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
