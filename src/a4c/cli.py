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
``check`` lives here; the other commands live in ``commands``, which only
they import, so ``check`` never compiles them. ``run`` is the process
entry point, and only a ``check`` run that ``run`` owns forks workers.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, NoReturn, Optional

from .diagnostics import Diagnostic, Severity, has_errors, sort_diagnostics

if TYPE_CHECKING:
    from .resolver import ResolvedModel

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

# Model text that each process of a parallel ``check`` must be given for its
# fork to pay: below twice this in all, ``check`` stays in one process.
# Measured with paired runs on a 2-CPU host (see CHANGES.md).
FORK_MIN_BYTES = 32_768


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


def _read(path: str) -> tuple[Optional[str], str]:
    """The text of one model file, without a leading byte-order mark, and
    ""; or None and the line that says why it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read(), ""
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not valid UTF-8"
    return None, f"a4c: cannot read {path}: {reason}"


def _load_resolved(path: str) -> tuple[Optional[ResolvedModel], list[Diagnostic], int, str]:
    """Parse and resolve one file: (resolved, diagnostics, failing exit code,
    the line for stderr when the file cannot be read)."""
    from .parser import parse
    from .resolver import resolve

    text, note = _read(path)
    if text is None:
        return None, [], EXIT_INPUT, note
    presult = parse(text, path)
    if presult.model is None:
        return None, presult.diagnostics, EXIT_INPUT, ""
    rresult = resolve(presult.model)
    diags = sort_diagnostics(presult.diagnostics + rresult.diagnostics)
    if rresult.model is None:
        return None, diags, EXIT_FINDINGS, ""
    return rresult.model, diags, EXIT_OK, ""


# --- check: one process, or the files shared among forked workers ----------------

def _check_file(path: str) -> tuple[list[Diagnostic], int, str]:
    """``check`` on one file: (its sorted diagnostics, failing exit code, the
    line for stderr when it cannot be read)."""
    from .validate import check

    rm, diags, code, note = _load_resolved(path)
    if rm is not None:
        diags = diags + check(rm)
    return sort_diagnostics(diags), code, note


def _size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:  # the process that checks it says why it cannot be read
        return 0


def _shares(paths: list[str]) -> list[list[int]]:
    """The files of one ``check`` run shared among processes, each share the
    indices of its files in argument order; the first share is the parent's.
    There is one process per ``FORK_MIN_BYTES`` of model text, at most one
    per usable CPU and one per file, and only one where ``os.fork`` is
    missing. Files go largest first to the share with the least text."""
    if len(paths) < 2 or not hasattr(os, "fork"):
        return [list(range(len(paths)))]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    sizes = [_size(path) for path in paths]
    count = max(1, min(cpus, len(paths), sum(sizes) // FORK_MIN_BYTES))
    shares: list[list[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for i in sorted(range(len(paths)), key=sizes.__getitem__, reverse=True):
        lightest = loads.index(min(loads))
        shares[lightest].append(i)
        loads[lightest] += sizes[i]
    return [sorted(share) for share in shares if share]


def _check_share(paths: list[str], share: list[int]) -> tuple[list, Optional[Exception]]:
    """``_check_file`` on the files of ``share`` in argument order, up to the
    first that raises: (their results, that exception or None)."""
    done = []
    for i in share:
        try:
            done.append(_check_file(paths[i]))
        except Exception as exc:
            return done, exc
    return done, None


def _worker(paths: list[str], share: list[int], write_fd: int) -> NoReturn:
    """A forked worker: ``_check_share`` of ``share``, pickled down its pipe.
    It always ends in ``os._exit``, so nothing the parent registered runs
    twice, and with status 0 only once the whole pair is written."""
    status = 1
    try:
        import pickle

        with open(write_fd, "wb") as pipe:
            pickle.dump(_check_share(paths, share), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _fork(paths: list[str], share: list[int]):
    """A worker forked for ``share``: (its pid, the read end of its pipe), or
    None when the system has no process to spare."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        _worker(paths, share, write_fd)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _check_in_processes(paths: list[str], shares: list[list[int]]) -> list:
    """``_check_file`` of every path, the parent checking the first share
    (and any share it could not fork for) while a forked worker checks each
    other. The first fault in argument order is raised, as a serial run
    would raise it; a worker that ends without its results is a fault too.
    No worker outlives this call."""
    import pickle

    from . import parser, resolver, validate  # noqa: F401  compiled once, for every worker

    sys.stdout.flush()  # a worker must not inherit output to write twice
    sys.stderr.flush()
    gc.freeze()  # collections skip what exists now, so workers share its pages
    mine, workers = [shares[0]], []
    try:
        for share in shares[1:]:
            worker = _fork(paths, share)
            if worker is None:
                mine.append(share)
            else:
                workers.append((share, *worker))
        # (share, _check_share's pair) of every share
        outcomes = [(share, _check_share(paths, share)) for share in mine]
        while workers:
            share, pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            if status:
                how = f"was killed by signal {-status}" if status < 0 else f"exited with {status}"
                raise RuntimeError(f"a check worker {how} before sending its results")
            outcomes.append((share, pickle.loads(data)))
    finally:
        if workers:  # a fault or an interrupt came first: their results are not wanted
            import signal

            for _share, pid, pipe in workers:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results: list = [None] * len(paths)
    faults = []
    for share, (done, fault) in outcomes:
        for i, result in zip(share, done):
            results[i] = result
        if fault is not None:
            faults.append((share[len(done)], fault))
    if faults:
        raise min(faults, key=lambda f: f[0])[1]
    return results


def _cmd_check(args) -> int:
    shares = _shares(args.files) if args.may_fork else []
    if len(shares) > 1:
        results = _check_in_processes(args.files, shares)
    else:
        results = [_check_file(path) for path in args.files]
    # every note, then every diagnostic, in argument order, however the files were shared
    all_diags: list[Diagnostic] = []
    worst = EXIT_OK
    for diags, code, note in results:
        if note:
            print(note, file=sys.stderr)
        all_diags.extend(diags)
        worst = max(worst, code)
    _print_diagnostics(all_diags, args.format)
    if worst == EXIT_INPUT:
        return EXIT_INPUT
    if has_errors(all_diags):
        return EXIT_FINDINGS
    if args.fail_on_warning and all_diags:
        return EXIT_FINDINGS
    return EXIT_OK


# the other commands are in ``commands``, imported only to run one of them
_COMMANDS = {"check": _cmd_check}


def _main(argv: Optional[list[str]], may_fork: bool) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv, argparse.Namespace(may_fork=may_fork))
    try:
        command = _COMMANDS.get(args.command)
        if command is None:
            from . import commands

            command = getattr(commands, args.command)
        return command(args)
    except OSError as exc:
        print(f"a4c: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault in a4c: one line and a code of its own
        message = " ".join(str(exc).split())
        print(f"a4c: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv: Optional[list[str]] = None) -> int:
    """The CLI in the calling process, which it never forks: a process with
    threads, or a test runner, may not be safe to fork."""
    return _main(argv, may_fork=False)


def run(argv: Optional[list[str]] = None) -> int:
    """``main`` for a process that ends with it (the ``a4c`` script and
    ``python -m a4c.cli``), so ``check`` may fork workers. Whatever is left
    alive lives until exit, so ``gc.freeze()`` moves it all into the
    permanent generation, which the interpreter's final collections skip;
    the ``finally`` covers argparse's ``SystemExit`` too. Callers that go on
    running call ``main``, which leaves the collector as it is."""
    try:
        return _main(argv, may_fork=True)
    finally:
        gc.freeze()


if __name__ == "__main__":
    # ``python -m a4c.cli`` runs this file as ``__main__``; entered under its
    # own name too, it is the module that ``commands`` imports, not a copy
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(run())
