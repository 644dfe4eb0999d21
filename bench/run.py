#!/usr/bin/env python3
"""a4c benchmark: end-to-end and per-layer timings of the toolchain.

Run from the repository root; the package is used from ``src/`` and need
not be installed:

    python3 bench/run.py --workload scale --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --self-check

One run sets up the workload's inputs (three times; the median is
``setup_s``), then repeats whole rounds of the same operations until
``--seconds`` have passed, and prints one JSON object as the last line of
standard output. With ``--trace 0`` it holds the end-to-end metrics: the
first round runs a4c alone and its outputs are checked; every later round
pairs each operation with the same operation run by the frozen control
copy in ``bench/control``, and the metrics are times at control speed
(``pace.py``). With ``--trace 1`` every other round runs with the tracer
installed and the object holds the per-layer metrics, from raw times. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus_cli", "scale", "loops", "pool")
SETUP_REPEATS = 3
MIN_PAIRED = 2  # paired rounds per run, however short --seconds is
# each CLI check command runs this often per round: cli_check_ms rests on
# one or two commands, and a subprocess's time varies more than a call's
CLI_CHECK_REPEAT = 2
SCALED = (("parser.scale_4x", "parser.parse"), ("validate.scale_4x", "validate.check"),
          ("render.activity_scale_4x", "render.activity"))


def run_python(args: list[str], pythonpath: str = SRC,
               hashseed: int | None = None) -> tuple[int, str, str, float]:
    """One interpreter subprocess from the checkout root: (exit, stdout, stderr, wall s).
    The two commands of a pair get the same ``hashseed``: set and dict order,
    which the circuit search's work depends on, is then the same on both sides."""
    env = dict(os.environ, PYTHONPATH=pythonpath, A4C_COLOR="never")
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def _verified(cmd, code: int, out: str, err: str) -> list[str]:
    """The problems ``cmd.verify`` finds in one CLI command's output."""
    if "Traceback" in err:
        return [f"a4c {cmd.label} failed: {err.strip().splitlines()[-1]}"]
    try:
        return cmd.verify(code, out)
    except (KeyError, ValueError, OSError) as exc:  # output missing or malformed
        return [f"a4c {cmd.label}: output could not be checked: {exc!r}"]


class Bench:
    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
        self.outdir = os.path.join(self.workdir, "out")
        self.problems: list[str] = []
        self.reference: dict = {}  # first round: (input, op) -> digest; CLI label+argv -> digest
        self.cli = []
        self.control = ops.load_control()
        self.peak_rss_mb = 0.0
        self.commands = 0  # CLI commands (pairs) so far: each pair's hash seed

    # --- set-up ---------------------------------------------------------------

    def _start(self, pythonpath: str):
        run = run_python(["-m", "a4c.cli", "--help"], pythonpath, self.commands)
        return run, run[3]

    def setup(self, live_first: bool = True) -> tuple[float, float]:
        """Build the inputs and start the CLI once, each paired with the
        control doing the same: (seconds, the control's seconds)."""
        def build(a):
            return lambda: pace.timed(
                lambda: inputs.build(self.workload, self.seed, self.workdir, a, self.tiny))

        wl, build_s, build_control = pace.paired(build(a4c), build(self.control), live_first)
        if isinstance(wl, Exception):
            raise wl
        self.wl = wl
        (code, _out, err, _wall), start_s, start_control = pace.paired(
            lambda: self._start(SRC), lambda: self._start(ops.CONTROL_DIR), live_first)
        self.commands += 1
        if code != 0:
            raise RuntimeError(f"a4c CLI does not start: {err.strip()[-200:]}")
        return build_s + start_s, build_control + start_control

    # --- one round ------------------------------------------------------------

    def _op(self, a, op: str, inp):
        if op == "check":
            return ops.check(a, inp.path)
        if op == "analyze":
            return ops.analyze(a, inp.text, inp.path, inp.impact_seeds)
        if op == "docs":
            return ops.docs(a, inp.text, inp.path)
        return ops.fmt(a, inp.text, inp.path)

    def _cli_sample(self, cmd, pythonpath: str):
        """One CLI command in a fresh output directory: (run_python's tuple, wall s)."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        run = run_python(["-m", "a4c.cli"] + cmd.argv, pythonpath, self.commands)
        return run, run[3]

    def round(self, tracer=None, traced_run: bool = False, live_first: bool = True,
              paired: bool = False) -> dict:
        """One round. With ``paired``, every sample is paired with the
        control's, ``live_first`` saying which runs first.
        ``tracer`` is given for the traced rounds. The rounds of a traced run
        (``traced_run``) run each operation once, so that traced and plain
        rounds do the same work, and also time interpreter start and import
        alone."""
        first = len(tracer.spans) if tracer else 0
        counts_before = Counter(tracer.counts) if tracer else Counter()
        times: dict = {}  # (input, op) -> best raw seconds
        pairs: dict = {}  # (input, op) -> [(live s, control s)]
        results: dict = {}
        attempted = failed = 0
        repeat = 1 if traced_run else self.wl.repeat
        for inp, op in ((i, op) for i in self.wl.inputs for op in i.ops for _ in range(repeat)):
            attempted += 1
            key = (inp.name, op)
            span = tracer.open("op." + op, inp.name) if tracer else None
            live = lambda: pace.timed(lambda: self._op(a4c, op, inp))  # noqa: E731
            if not paired or not inp.timed:
                result, elapsed = live()
            else:
                result, elapsed, control_s = pace.paired(
                    live, lambda: pace.timed(lambda: self._op(self.control, op, inp)),
                    live_first)
                pairs.setdefault(key, []).append((elapsed, control_s))
            if tracer:
                tracer.close(span)
            if isinstance(result, Exception):  # counted, reported, and compared across rounds
                failed += 1
                if not self.reference:
                    print(f"{inp.name}: {op} failed: {type(result).__name__}: {result}",
                          file=sys.stderr)
            times[key] = min(elapsed, times.get(key, elapsed))
            results[key] = result
        if tracer:
            for inp in self.wl.inputs:
                if "fmt" in inp.ops and inp.model is not None:
                    span = tracer.open("probe.emit", inp.name)
                    ops.emit(a4c, inp.model)
                    tracer.close(span)
        out_bytes = sum(len(text.encode("utf-8")) for (_n, op), r in results.items()
                        if op == "docs" and isinstance(r, dict) for text in r.values())

        first_round = not self.reference
        if first_round:
            try:
                self.problems += checks.verify_results(self.wl, results)
            except (KeyError, ValueError, OSError) as exc:  # output missing or malformed
                self.problems.append(f"outputs could not be checked: {exc!r}")
            self.cli = (checks.corpus_commands(self.wl, self.outdir)
                        if self.workload == "corpus_cli"
                        else checks.inprocess_commands(self.wl, results))
        for key, result in results.items():
            failure = isinstance(result, BaseException)
            seen = type(result).__name__ if failure else checks.digest(result)
            if self.reference.setdefault(key, seen) != seen:
                self.problems.append(f"{key[0]}: {key[1]} gave a different result than in round 1")

        if first_round:  # commands that are only checked: neither timed nor counted
            for cmd in (c for c in self.cli if not c.timed):
                (code, out, err, _wall), _s = self._cli_sample(cmd, SRC)
                self.problems += _verified(cmd, code, out, err)
        walls = []  # (argv, label, raw seconds)
        cli_pairs: dict = {}  # argv -> [(live s, control s)]
        for cmd in (c for c in self.cli if c.timed
                    for _ in range(CLI_CHECK_REPEAT if c.label == "check" else 1)):
            attempted += 1
            live = lambda: self._cli_sample(cmd, SRC)  # noqa: E731
            if not paired:
                (code, out, err, wall), _wall = live()
            else:
                (code, out, err, wall), _wall, control_s = pace.paired(
                    live, lambda: self._cli_sample(cmd, ops.CONTROL_DIR), live_first)
                cli_pairs.setdefault(tuple(cmd.argv), []).append((wall, control_s))
            self.commands += 1
            walls.append((tuple(cmd.argv), cmd.label, wall))
            if "Traceback" in err:
                failed += 1
                print(f"a4c {cmd.label} failed: {err.strip().splitlines()[-1]}", file=sys.stderr)
                continue
            key = (cmd.label, tuple(cmd.argv))
            if first_round:
                self.problems += _verified(cmd, code, out, err)
            seen = checks.digest((code, out))
            if self.reference.setdefault(key, seen) != seen:
                self.problems.append(f"a4c {cmd.label}: output differs from round 1")
        # interpreter start and import alone, spread over the run like the commands
        startup = None
        if traced_run:  # three of each, since there are few traced rounds
            startup = (min(run_python(["-c", "pass"])[3] for _ in range(3)),
                       min(run_python(["-c", "import a4c.cli"])[3] for _ in range(3)))
        return {
            "times": times, "pairs": pairs, "cli": walls, "cli_pairs": cli_pairs,
            "attempted": attempted, "failed": failed,
            "spans": (first, len(tracer.spans)) if tracer else None,
            "counts": Counter(tracer.counts) - counts_before if tracer else None,
            "out_bytes": out_bytes, "startup": startup,
        }


# --- metrics ------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "corpus_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def best_times(rounds: list[dict]) -> dict:
    """Each in-process operation's fastest raw time over the rounds (traced runs)."""
    return {key: min(r["times"][key] for r in rounds) for key in rounds[0]["times"]}


def cli_best(rounds: list[dict]) -> float:
    """Median over the round's CLI commands of each command's best raw wall
    time, in seconds (traced runs)."""
    best: dict = {}
    for r in rounds:
        for argv, _label, wall in r["cli"]:
            best[argv] = min(wall, best.get(argv, wall))
    return statistics.median(best.values())


def _merged(rounds: list[dict], field: str) -> dict:
    samples: dict = {}
    for r in rounds:
        for key, pairs in r[field].items():
            samples.setdefault(key, []).extend(pairs)
    return samples


def end_to_end(bench: Bench, setups: list[tuple[float, float]], rounds: list[dict]) -> dict:
    """Times at control speed (``pace.py``), from the paired rounds."""
    inproc, cli = _merged(rounds, "pairs"), _merged(rounds, "cli_pairs")
    groups: dict = {"setup_s": {"setup": setups}}
    check_argvs = {argv for r in rounds for argv, label, _w in r["cli"] if label == "check"}
    groups["cli_check_ms"] = {k: v for k, v in cli.items() if k in check_argvs}
    groups["cli_cmd_ms"] = cli
    for op in inputs.ALL_OPS:
        groups[f"{op}_s"] = {k: v for k, v in inproc.items() if k[1] == op}
    # the control's own figures on this machine, as CONTROL holds them
    own = {name: (1000 * statistics.mean(statistics.median(c for _l, c in pairs)
                                         for pairs in group.values()) if name.startswith("cli")
                  else sum(statistics.median(c for _l, c in pairs) for pairs in group.values()))
           for name, group in groups.items()}
    print("control: " + json.dumps(own), file=sys.stderr)
    typical = pace.CONTROL[bench.workload]
    metrics = {}
    for name, group in groups.items():
        metrics[name] = _metric(typical[name] * pace.relative(group),
                                "ms" if name.startswith("cli") else "s")
    metrics["peak_rss_mb"] = _metric(bench.peak_rss_mb, "MB")
    return metrics


def _scale_ratios(tracer, first: int, last: int, pairs) -> dict[str, float]:
    by_tag = {tag: tracer.totals(first, last, tag)[0] for pair in pairs for tag in pair}
    ratios = {}
    for metric, span in SCALED:
        small = sum(by_tag[a][span] for a, _b in pairs)
        big = sum(by_tag[b][span] for _a, b in pairs)
        ratios[metric] = big / small if small else 0.0
    return ratios


def per_layer(bench: Bench, tracer, rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["spans"] is not None]
    plain = [r for r in rounds if r["spans"] is None]
    incl, own = zip(*(tracer.totals(*r["spans"]) for r in traced))
    counts = traced[0]["counts"]

    def best(table, name):  # best round, as for the end-to-end metrics
        return min(t[name] for t in table)

    metrics: dict = {}
    tokenize_s = best(incl, "lexer.tokenize")
    metrics["lexer.tokenize_s"] = _metric(tokenize_s, "s")
    metrics["lexer.tokens"] = _metric(counts["lexer.tokenize.items"], "count")
    metrics["lexer.tokens_per_s"] = _metric(counts["lexer.tokenize.items"] / tokenize_s, "1/s")
    metrics["parser.parse_s"] = _metric(best(incl, "parser.parse"), "s")
    metrics["parser.self_s"] = _metric(best(own, "parser.parse"), "s")
    metrics["resolver.resolve_s"] = _metric(best(incl, "resolver.resolve"), "s")
    metrics["validate.check_s"] = _metric(best(incl, "validate.check"), "s")
    for i in range(1, 14):
        metrics[f"validate.V{i}_s"] = _metric(best(incl, f"validate.V{i}"), "s")
    metrics["validate.reachable_calls"] = _metric(counts["analysis.reachable.calls"], "count")
    metrics["validate.diagnostics"] = _metric(counts["validate.check.items"], "count")
    metrics["analysis.elementary_circuits_s"] = _metric(
        best(incl, "analysis.elementary_circuits"), "s")
    metrics["analysis.elementary_circuits_calls"] = _metric(
        counts["analysis.elementary_circuits.calls"], "count")
    metrics["analysis.circuits"] = _metric(counts["analysis.elementary_circuits.items"], "count")
    metrics["analysis.control_adjacency_calls"] = _metric(
        counts["analysis.control_adjacency.calls"], "count")
    for name in ("loop_facts", "classify", "impact"):
        metrics[f"analysis.{name}_s"] = _metric(best(incl, f"analysis.{name}"), "s")
    metrics["analysis.impact_affected"] = _metric(counts["analysis.impact.items"], "count")
    for name in ("context", "activity", "prompts", "docs_bundle"):
        metrics[f"render.{name}_s"] = _metric(best(incl, f"render.{name}"), "s")
    metrics["render.output_bytes"] = _metric(traced[0]["out_bytes"], "bytes")
    metrics["formatter.format_s"] = _metric(best(incl, "formatter.format"), "s")
    metrics["formatter.emit_s"] = _metric(best(incl, "formatter.emit"), "s")

    # n -> 4n growth, on the workload's own pair or on the chain probe
    if bench.wl.probe:
        ratios = []
        for _ in range(3):
            first = len(tracer.spans)
            tracer.install()
            for inp in bench.wl.probe:
                for op in ("check", "docs", "fmt"):
                    span = tracer.open("op." + op, inp.name)
                    bench._op(a4c, op, inp)
                    tracer.close(span)
            tracer.uninstall()
            ratios.append(_scale_ratios(tracer, first, len(tracer.spans), bench.wl.pairs))
    else:
        ratios = [_scale_ratios(tracer, *r["spans"], bench.wl.pairs) for r in traced]
    for metric, _span in SCALED:
        metrics[metric] = _metric(statistics.median(r[metric] for r in ratios), "ratio")

    # interpreter start and import, apart from the command's own work
    interpreter = min(r["startup"][0] for r in rounds)
    importing = min(r["startup"][1] for r in rounds) - interpreter
    command = cli_best(rounds)
    metrics["cli.interpreter_ms"] = _metric(1000 * interpreter, "ms")
    metrics["cli.import_ms"] = _metric(1000 * importing, "ms")
    metrics["cli.run_ms"] = _metric(1000 * (command - interpreter - importing), "ms")

    parsed = [i.model for i in bench.wl.inputs if i.model is not None]
    graphs = [t.graph for model in parsed for _a, t in m.iter_tasks(model) if t.graph is not None]
    metrics["model.bytes"] = _metric(sum(len(i.text.encode("utf-8")) for i in bench.wl.inputs),
                                     "bytes")
    metrics["model.elements"] = _metric(sum(len(model.source_map) for model in parsed), "count")
    metrics["model.activity_nodes"] = _metric(sum(len(g.nodes) for g in graphs), "count")
    metrics["model.activity_edges"] = _metric(sum(len(g.edges) for g in graphs), "count")

    metrics["trace.overhead_s"] = _metric(
        sum(best_times(traced).values()) - sum(best_times(plain).values()), "s")
    return metrics


# --- entry points -----------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, seed)
    try:
        setups = [bench.setup(live_first=i % 2 == 0) for i in range(SETUP_REPEATS)]
        gc.collect()
        gc.freeze()  # set-up's objects stay out of the collections between samples
        tracer = Tracer() if trace else None
        rounds: list[dict] = []
        start = time.perf_counter()
        if trace:
            while True:
                traced = len(rounds) % 2 == 1
                if traced:
                    tracer.install()
                try:
                    rounds.append(bench.round(tracer if traced else None, traced_run=True))
                finally:
                    if traced:
                        tracer.uninstall()
                if time.perf_counter() - start >= seconds and len(rounds) >= 2:
                    break
        else:
            rounds.append(bench.round())  # a4c alone: its outputs are checked
            bench.peak_rss_mb = _peak_rss_mb(workload)  # before the control runs
            # whole rounds only, and none that would end past --seconds
            last = 0.0
            while len(rounds) <= MIN_PAIRED or time.perf_counter() - start + last <= seconds:
                began = time.perf_counter()
                rounds.append(bench.round(live_first=len(rounds) % 2 == 1, paired=True))
                last = time.perf_counter() - began
        if trace:
            metrics = per_layer(bench, tracer, rounds)
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            tracer.dump(os.path.join(ROOT, ".bench_out", f"trace-{workload}-{seed}.json"))
        else:
            metrics = end_to_end(bench, setups, rounds[1:])
        for problem in bench.problems:
            print(f"incorrect: {problem}", file=sys.stderr)
        return {
            "correct": not bench.problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)


def self_check() -> int:
    """Every workload at a tiny size, one plain, one traced and two paired
    rounds, all checks on. Only the over-limit loop's ``check`` may fail."""
    ok = True
    for workload in WORKLOADS:
        bench = Bench(workload, seed=1, tiny=True)
        try:
            setups = [bench.setup()]
            tracer = Tracer()
            plain = bench.round(traced_run=True)
            tracer.install()
            try:
                traced = bench.round(tracer, traced_run=True)
            finally:
                tracer.uninstall()
            per_layer(bench, tracer, [plain, traced])
            end_to_end(bench, setups, [bench.round(live_first=first, paired=True)
                                       for first in (True, False)])
        finally:
            shutil.rmtree(bench.workdir, ignore_errors=True)
        allowed = sum(1 for i in bench.wl.inputs if i.kind == "overlimit")
        if plain["failed"] > allowed:
            bench.problems.append(f"{plain['failed']} operations failed, at most {allowed} may")
        for problem in bench.problems:
            print(f"  {workload}: {problem}")
        print(f"self-check {workload}: {'ok' if not bench.problems else 'FAILED'}"
              f" ({plain['attempted']} operations, {plain['failed']} failed)")
        ok = ok and not bench.problems
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="run every workload at a tiny size with all checks")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    if args.self_check:
        return self_check()
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "a4c", "__init__.py")):
        print(f"bench: no a4c package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE, os.path.join(ROOT, "tests")]
    import checks
    import inputs
    import ops
    import pace
    import a4c
    from a4c import model as m
    from tracer import Tracer

    sys.exit(main())
