from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import stat
import subprocess
import sys

import pytest

from a4c import cli

from conftest import child_env, corpus_path, load_shapes, run_cli


@pytest.fixture()
def mutant(tmp_path, testgen_text):
    """Write a testgen variant to disk and return its path."""

    def write(name: str, old: str = "", new: str = "", text: str | None = None) -> str:
        content = text if text is not None else testgen_text.replace(old, new)
        assert content != testgen_text or text is not None
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


@pytest.fixture(autouse=True)
def plain_color(monkeypatch):
    monkeypatch.setenv("A4C_COLOR", "never")


# --- check ------------------------------------------------------------------------

def test_check_clean_text(capsys):
    rc, out, err = run_cli(capsys, "check", corpus_path("testgen"))
    assert (rc, out, err) == (0, "", "")


def test_check_clean_json(capsys):
    rc, out, _ = run_cli(capsys, "check", "--format", "json", corpus_path("testgen"))
    assert rc == 0
    assert json.loads(out) == []


def test_check_error_exit1(capsys, mutant):
    path = mutant("bad.a4c", "invoke runj = JenkinsTool.run",
                  "invoke runj = JenkinsToolX.run")
    rc, out, _ = run_cli(capsys, "check", path)
    assert rc == 1
    assert "error[E108]" in out
    assert out.strip().endswith("1 error(s), 0 warning(s)")


def test_check_json_field_set(capsys, mutant):
    path = mutant("bad.a4c", "invoke runj = JenkinsTool.run",
                  "invoke runj = JenkinsToolX.run")
    rc, out, _ = run_cli(capsys, "check", "--format", "json", path)
    assert rc == 1
    payload = json.loads(out)
    assert len(payload) == 1
    entry = payload[0]
    assert set(entry) == {"code", "severity", "message", "file", "start", "end", "related"}
    assert entry["code"] == "E108"
    assert entry["severity"] == "error"
    assert entry["file"] == path
    assert len(entry["start"]) == 2 and len(entry["end"]) == 2
    assert entry["related"] == []


def test_check_related_span_in_json(capsys, mutant):
    path = mutant("dup.a4c", "  artifact TestSpec",
                  "  artifact TestSpec\n  artifact TestSpec")
    rc, out, _ = run_cli(capsys, "check", "--format", "json", path)
    assert rc == 1
    entry = json.loads(out)[0]
    assert entry["code"] == "E002"
    assert entry["related"], "duplicate should point back at the first declaration"


def test_check_warning_is_exit0(capsys, mutant):
    path = mutant("warn.a4c", "chk -> end [Report == IO]", "chk -> end")
    rc, out, _ = run_cli(capsys, "check", path)
    assert rc == 0
    assert "warning[W113]" in out
    assert "0 error(s), 1 warning(s)" in out


def test_check_fail_on_warning(capsys, mutant):
    path = mutant("warn.a4c", "chk -> end [Report == IO]", "chk -> end")
    rc, _, _ = run_cli(capsys, "check", "--fail-on-warning", path)
    assert rc == 1


def test_check_missing_file_exit2(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "check", str(tmp_path / "absent.a4c"))
    assert rc == 2
    assert out == ""
    assert "cannot read" in err


def test_non_utf8_input_exit2(capsys, tmp_path):
    path = tmp_path / "latin1.a4c"
    path.write_bytes('model "Caf\u00e9" {\n}\n'.encode("latin-1"))
    for argv in (("check", str(path)), ("classify", str(path)), ("fmt", "--stdout", str(path))):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err == f"a4c: cannot read {path}: not valid UTF-8\n", argv


def test_check_parse_error_exit2(capsys, mutant):
    path = mutant("broken.a4c", text='model "X" {\n  artifact \n}\n')
    rc, out, _ = run_cli(capsys, "check", path)
    assert rc == 2
    assert "error[P001]" in out


def test_check_resolve_error_exit1(capsys, mutant):
    path = mutant("unres.a4c", "on Developer { in TestCode, Report out TestCode }",
                  "on Developr { in TestCode, Report out TestCode }")
    rc, out, _ = run_cli(capsys, "check", path)
    assert rc == 1
    assert "error[E001]" in out


def test_check_multiple_files_in_argument_order(capsys, mutant):
    warn = mutant("warn.a4c", "chk -> end [Report == IO]", "chk -> end")
    bad = mutant("bad.a4c", "invoke runj = JenkinsTool.run",
                 "invoke runj = JenkinsToolX.run")
    rc, out, _ = run_cli(capsys, "check", warn, bad)
    assert rc == 1
    lines = out.splitlines()
    assert lines[0].startswith(warn)
    assert lines[1].startswith(bad)
    assert lines[2] == "1 error(s), 1 warning(s)"


def test_color_codes_follow_env(capsys, monkeypatch, mutant):
    path = mutant("bad.a4c", "invoke runj = JenkinsTool.run",
                  "invoke runj = JenkinsToolX.run")
    monkeypatch.setenv("A4C_COLOR", "always")
    _, out, _ = run_cli(capsys, "check", path)
    assert "\x1b[31merror\x1b[0m" in out
    monkeypatch.setenv("A4C_COLOR", "never")
    _, out, _ = run_cli(capsys, "check", path)
    assert "\x1b[" not in out
    monkeypatch.setenv("A4C_COLOR", "auto")  # captured stream is not a tty
    _, out, _ = run_cli(capsys, "check", path)
    assert "\x1b[" not in out


# --- usage errors -------------------------------------------------------------------

def test_usage_exit3(capsys):
    assert run_cli(capsys, "check")[0] == 3
    assert run_cli(capsys, "render", corpus_path("testgen"))[0] == 3
    assert run_cli(capsys, "render", corpus_path("testgen"), "--out", "x",
                   "--level", "c9")[0] == 3
    assert run_cli(capsys, "impact", corpus_path("testgen"), "--seed", "Report",
                   "--direction", "sideways")[0] == 3
    assert run_cli(capsys, "frobnicate")[0] == 3


def test_impact_unknown_seed_exit3(capsys):
    rc, _, err = run_cli(capsys, "impact", corpus_path("testgen"), "--seed", "Nope")
    assert rc == 3
    assert "A001" in err


def test_internal_error_is_one_line_and_exit4(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "check", boom)
    rc, out, err = run_cli(capsys, "check", corpus_path("testgen"))
    assert (rc, out, err) == (4, "", "a4c: internal error: RuntimeError: boom\n")
    assert "Traceback" not in err


# --- process exit -------------------------------------------------------------------

@pytest.fixture()
def freezes(monkeypatch):
    """The calls to ``gc.freeze``, recorded instead of made."""
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(None))
    return calls


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "check", corpus_path("testgen"))[0] == 0
    assert run_cli(capsys, "--help")[0] == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code", [
    (["check", corpus_path("testgen")], 0),
    (["--help"], 0),
    (["check"], 3),
])
def test_run_freezes_once_and_keeps_the_exit_code(capsys, freezes, argv, code):
    try:
        rc = cli.run(argv)
    except SystemExit as exc:  # argparse ends --help and usage errors this way
        rc = exc.code
    capsys.readouterr()
    assert (rc, freezes) == (code, [None])


def test_python_dash_m_ends_through_run_and_keeps_atexit(tmp_path):
    script = ("import atexit, gc, runpy, sys\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
              f"sys.argv = ['a4c', 'check', {corpus_path('testgen')!r}]\n"
              "runpy.run_module('a4c.cli', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "frozen True\n", "")
    pyproject = pathlib.Path(cli.__file__).parents[2] / "pyproject.toml"
    assert 'a4c = "a4c.cli:run"' in pyproject.read_text(encoding="utf-8").splitlines()


def test_python_dash_m_compiles_the_cli_once():
    """``python -m a4c.cli`` runs cli.py as ``__main__``; a command in
    ``commands`` must use that module, not import cli.py a second time."""
    script = ("import atexit, runpy, sys\n"
              "atexit.register(lambda: print(sys.modules['a4c.cli'].__name__))\n"
              f"sys.argv = ['a4c', 'classify', {corpus_path('recovery')!r}]\n"
              "runpy.run_module('a4c.cli', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "__main__")


# --- check in forked workers --------------------------------------------------------

def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


forks_here = pytest.mark.skipif(not hasattr(os, "fork") or usable_cpus() < 2,
                                reason="check forks only where os.fork exists and two CPUs"
                                       " are usable")

# ``python -m a4c.cli`` in a child interpreter, with ``os.fork`` wrapped to
# count the workers; afterwards it adds a line to REPORT with the count and
# whether any child process is left. A worker that returned instead of
# ending in ``os._exit`` would add a line of its own. SETUP may replace a
# function to inject a fault.
CHILD_RUN = """\
import os, runpy, sys
forks, real_fork = [], os.fork
def fork():
    pid = real_fork()
    forks.append(pid)
    return pid
os.fork = fork
parent = os.getpid()
{setup}
sys.argv = ["a4c", *{argv!r}]
try:
    runpy.run_module("a4c.cli", run_name="__main__", alter_sys=True)
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        left = "a child is left"
    except ChildProcessError:
        left = "none left"
    with open({report!r}, "a") as fh:
        fh.write(f"{{len(forks)}} {{left}}\\n")
"""


def run_child(tmp_path, argv: list[str], setup: str = "") -> tuple[int, str, str, int]:
    """(exit code, stdout, stderr, workers forked) of ``a4c *argv`` run as
    ``python -m a4c.cli``; it fails if a child process outlives the run."""
    report = tmp_path / "report.txt"
    script = CHILD_RUN.format(setup=setup, argv=argv, report=str(report))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(A4C_COLOR="never"), timeout=120)
    [line] = report.read_text(encoding="utf-8").splitlines()
    forks, left = line.split(" ", 1)
    assert left == "none left"
    return proc.returncode, proc.stdout, proc.stderr, int(forks)


@pytest.fixture()
def large_mix(tmp_path, mutant):
    """Paths that make ``check`` fork: two large clean models, the second
    named twice, amid files with warnings, a missing file, a non-UTF-8 file, a
    parse failure, a resolve failure and a check error."""
    shapes = load_shapes()
    (tmp_path / "chain.a4c").write_text(shapes.chain(200, 1), encoding="utf-8")
    (tmp_path / "fan.a4c").write_text(shapes.fan(200, 2), encoding="utf-8")
    (tmp_path / "latin1.a4c").write_bytes('model "Café" {\n}\n'.encode("latin-1"))
    return [
        mutant("warn.a4c", "chk -> end [Report == IO]", "chk -> end"),
        str(tmp_path / "chain.a4c"),
        str(tmp_path / "missing.a4c"),
        str(tmp_path / "latin1.a4c"),
        mutant("broken.a4c", text='model "X" {\n  artifact \n}\n'),
        str(tmp_path / "fan.a4c"),
        mutant("unres.a4c", "on Developer { in TestCode, Report out TestCode }",
               "on Developr { in TestCode, Report out TestCode }"),
        mutant("bad.a4c", "invoke runj = JenkinsTool.run", "invoke runj = JenkinsToolX.run"),
        str(tmp_path / "fan.a4c"),
        mutant("warn2.a4c", "chk -> end [Report == IO]", "chk -> end"),
    ]


KEEP = {
    "all": None,
    "no input failure": ("warn", "chain", "fan", "unres", "bad", "warn2"),
    "clean and warnings": ("warn", "chain", "fan", "warn2"),
}


@forks_here
@pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--fail-on-warning"]])
@pytest.mark.parametrize("keep, code", [("all", 2), ("no input failure", 1),
                                        ("clean and warnings", 0)])
def test_forked_check_prints_what_main_prints(capsys, tmp_path, large_mix, flags, keep, code):
    names = KEEP[keep]
    paths = [p for p in large_mix if names is None or pathlib.Path(p).stem in names]
    rc, out, err, forks = run_child(tmp_path, ["check", *flags, *paths])
    assert forks == len(cli._shares(paths)) - 1 >= 1
    assert (rc, out, err) == run_cli(capsys, "check", *flags, *paths)
    assert rc == (1 if code == 0 and "--fail-on-warning" in flags else code)


@forks_here
def test_a_fault_in_a_worker_is_one_line_and_exit4(tmp_path, large_mix):
    setup = ("import a4c.validate as v\n"
             "def check(rm):\n"
             "    raise ValueError('worker\\n  fault' if os.getpid() != parent else 'parent')\n"
             "v.check = check\n")
    rc, out, err, forks = run_child(tmp_path, ["check", large_mix[1], large_mix[5]], setup)
    assert (rc, out, err, forks) == (4, "", "a4c: internal error: ValueError: worker fault\n", 1)


@forks_here
def test_the_first_fault_in_argument_order_wins(capsys, tmp_path, large_mix, monkeypatch):
    """Every file that parses raises, with its name as the message. The first
    such file is in the worker's share, so the parent's own fault must give
    way to it, as a run in one process would."""
    from a4c import parser

    def parse(text, path):
        raise KeyError(os.path.basename(path))

    setup = ("import a4c.parser as p\n"
             "def parse(text, path):\n"
             "    raise KeyError(os.path.basename(path))\n"
             "p.parse = parse\n")
    paths = [large_mix[0], large_mix[1], large_mix[5]]  # warn, chain, fan
    assert 0 not in cli._shares(paths)[0]
    rc, out, err, forks = run_child(tmp_path, ["check", *paths], setup)
    assert (rc, out, err, forks) == (4, "", "a4c: internal error: KeyError: 'warn.a4c'\n", 1)
    monkeypatch.setattr(parser, "parse", parse)
    assert run_cli(capsys, "check", *paths) == (rc, out, err)


@forks_here
@pytest.mark.parametrize("how, why", [("os._exit(3)", "exited with 3"),
                                      ("os.kill(os.getpid(), 9)", "was killed by signal 9")])
def test_a_worker_that_dies_is_one_line_and_exit4(tmp_path, large_mix, how, why):
    setup = ("import a4c.validate as v\n"
             "real = v.check\n"
             "def check(rm):\n"
             f"    if os.getpid() != parent: {how}\n"
             "    return real(rm)\n"
             "v.check = check\n")
    rc, out, err, forks = run_child(tmp_path, ["check", *large_mix], setup)
    assert (rc, out, forks) == (4, "", 1)
    assert err == (f"a4c: internal error: RuntimeError: a check worker {why} before sending"
                   " its results\n")


@forks_here
def test_check_without_a_process_to_spare_runs_alone(capsys, tmp_path, large_mix):
    setup = ("def fork():\n"
             "    raise BlockingIOError(11, 'Resource temporarily unavailable')\n"
             "os.fork = fork\n")
    rc, out, err, forks = run_child(tmp_path, ["check", *large_mix], setup)
    assert forks == 0
    assert (rc, out, err) == run_cli(capsys, "check", *large_mix)


def test_small_or_single_inputs_stay_in_one_process(tmp_path):
    corpus = [corpus_path(name) for name in ("testgen", "recovery", "resell")]
    assert cli._shares(corpus) == [[0, 1, 2]]
    big = tmp_path / "big.a4c"
    big.write_bytes(b" " * 4 * cli.FORK_MIN_BYTES)
    assert cli._shares([str(big)]) == [[0]]


def test_shares_are_balanced_by_size_largest_first(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "FORK_MIN_BYTES", 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    paths = []
    for k, size in enumerate([10, 70, 40, 0, 30, 60]):  # 0: a missing file
        path = tmp_path / f"{k}.a4c"
        if size:
            path.write_bytes(b" " * size)
        paths.append(str(path))
    # 70 -> A; 60 -> B; 40 -> C; 30 -> C (70); 10 -> B (70); 0 -> A, the first of three at 70
    assert cli._shares(paths) == [[1, 3], [0, 5], [2, 4]]
    monkeypatch.setattr(cli, "FORK_MIN_BYTES", 75)  # 210 bytes in all: two processes
    # 70 -> A; 60 -> B; 40 -> B (100); 30 -> A (100); 10 -> A (110); 0 -> B (100)
    assert cli._shares(paths) == [[0, 1, 4], [2, 3, 5]]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._shares(paths) == [[0, 1, 2, 3, 4, 5]]


def test_main_never_forks(capsys, monkeypatch, large_mix):
    def refuse():
        raise AssertionError("main forked")

    monkeypatch.setattr(os, "fork", refuse, raising=False)
    rc, out, _ = run_cli(capsys, "check", *large_mix)
    assert rc == 2 and "error[E108]" in out


# --- classify -----------------------------------------------------------------------

def test_classify_text(capsys):
    rc, out, _ = run_cli(capsys, "classify", corpus_path("testgen"))
    assert rc == 0
    assert out.splitlines() == [
        "GeneratorTeam.generate: PipelineWithFeedback",
        "TestPipeline.test: Pipeline",
    ]
    rc, out, _ = run_cli(capsys, "classify", corpus_path("resell"))
    assert rc == 0
    assert "MarketSearchConductor.estimate: Orchestration" in out.splitlines()


def test_classify_leaf_only_model(capsys, tmp_path):
    path = tmp_path / "leafy.a4c"
    path.write_text(
        'model "Leafy" {\n'
        "  artifact A\n"
        "  llm M default\n"
        "  agent G {\n"
        "    task t {\n"
        "      in A\n"
        "      out A\n"
        '      prompt { static role = "noop" }\n'
        "    }\n"
        "  }\n"
        "}\n",
        encoding="utf-8",
    )
    rc, out, _ = run_cli(capsys, "classify", str(path))
    assert rc == 0
    assert out == ""


def test_classify_json_shape(capsys):
    rc, out, _ = run_cli(capsys, "classify", "--format", "json", corpus_path("recovery"))
    assert rc == 0
    payload = json.loads(out)
    entry = next(e for e in payload if e["task"] == "recover")
    assert set(entry) == {"agent", "task", "pattern", "evidence"}
    assert entry["pattern"] == "FanOut"
    assert entry["evidence"] == [{"criterion": "element-wise-call", "elements": ["syc"]}]


# --- impact -------------------------------------------------------------------------

def test_impact_text(capsys, mutant):
    rc, out, _ = run_cli(capsys, "impact", corpus_path("testgen"),
                         "--seed", "Report", "--direction", "up")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "impact of Report (up):"
    assert any(line.startswith("  TestPipeline.test [Produces] via ") for line in lines)
    assert lines[-1].startswith("levels: ")
    orphan = mutant("orphan.a4c", "  artifact Report\n", "  artifact Report\n  artifact Orphan\n")
    assert run_cli(capsys, "impact", orphan, "--seed", "Orphan")[:2] == (
        0, "impact of Orphan (both):\n  no affected elements\nlevels: none\n")


def test_impact_json_shape(capsys):
    rc, out, _ = run_cli(capsys, "impact", corpus_path("testgen"),
                         "--seed", "Report", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"seed", "direction", "affected", "levels"}
    assert payload["seed"] == "Report"
    assert payload["direction"] == "both"
    for item in payload["affected"]:
        assert set(item) == {"element", "relation", "path"}
    assert payload["levels"] == ["C1", "C2", "C3", "C4"]


# --- render and docs ----------------------------------------------------------------

def expected_render_files(prompts: bool = True) -> set[str]:
    files = {
        "c1.puml", "c2.puml", "manifest.json",
        "activity/GeneratorTeam.generate.dot",
        "activity/TestPipeline.test.dot",
        "activity/TestPipeline.execute.dot",
        "activity/TestRetriever.retrieve.dot",
    }
    if prompts:
        files |= {
            "prompts/Developer.fix.md",
            "prompts/Developer.generate.md",
            "prompts/TestPipeline.summarize.md",
        }
    return files


def tree(root: pathlib.Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def test_render_all_tree_and_manifest(capsys, tmp_path):
    out_dir = tmp_path / "out"
    rc, out, _ = run_cli(capsys, "render", corpus_path("testgen"), "--out", str(out_dir))
    assert rc == 0
    assert tree(out_dir) == expected_render_files()
    wrote = [ln for ln in out.splitlines() if ln.startswith("wrote ")]
    assert wrote[-1].endswith("manifest.json")
    assert wrote[:-1] == sorted(wrote[:-1])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest) == {"files"}
    assert set(manifest["files"]) == expected_render_files() - {"manifest.json"}
    for rel, digest in manifest["files"].items():
        real = hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()
        assert real == digest, rel


def test_render_level_c1_only(capsys, tmp_path):
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(capsys, "render", corpus_path("testgen"),
                       "--out", str(out_dir), "--level", "c1")
    assert rc == 0
    assert tree(out_dir) == {"c1.puml", "manifest.json"}


def test_render_level_c3_picks_composites(capsys, tmp_path):
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(capsys, "render", corpus_path("testgen"),
                       "--out", str(out_dir), "--level", "c3")
    assert rc == 0
    assert tree(out_dir) == {
        "manifest.json",
        "activity/GeneratorTeam.generate.dot",
        "activity/TestPipeline.test.dot",
    }


def test_render_c2_without_deployment_exit1(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "render", corpus_path("recovery"),
                         "--out", str(tmp_path / "out"), "--level", "c2")
    assert rc == 1
    assert err == "a4c: R001: model has no deployment section\n"


def test_render_all_without_deployment_skips_c2(capsys, tmp_path):
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(capsys, "render", corpus_path("recovery"), "--out", str(out_dir))
    assert rc == 0
    assert "c2.puml" not in tree(out_dir)


def test_render_unwritable_out_exit2(capsys, tmp_path):
    block = tmp_path / "blockfile"
    block.write_text("x", encoding="utf-8")
    rc, _, err = run_cli(capsys, "render", corpus_path("testgen"),
                         "--out", str(block / "sub"))
    assert rc == 2
    assert err.startswith("a4c: ")


def test_docs_merges_into_render_manifest(capsys, tmp_path):
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "render", corpus_path("testgen"), "--out", str(out_dir))[0] == 0
    assert run_cli(capsys, "docs", corpus_path("testgen"), "--out", str(out_dir))[0] == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    files = set(manifest["files"])
    assert "c1.puml" in files
    assert "docs/index.md" in files
    assert "docs/agents/GeneratorTeam.md" in files
    assert files == tree(out_dir) - {"manifest.json"}


@pytest.mark.parametrize("command", ["render", "docs"])
@pytest.mark.parametrize("old_manifest", ["[1, 2]", '{"files": [1]}'])
def test_misshapen_manifest_is_replaced(capsys, tmp_path, command, old_manifest):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "manifest.json").write_text(old_manifest, encoding="utf-8")
    rc, _, err = run_cli(capsys, command, corpus_path("testgen"), "--out", str(out_dir))
    assert (rc, err) == (0, "")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["files"]) == tree(out_dir) - {"manifest.json"}


# --- fmt ----------------------------------------------------------------------------

def test_fmt_stdout_idempotent(capsys, tmp_path):
    messy = pathlib.Path(__file__).parent / "fixtures" / "messy.a4c"
    work = tmp_path / "work.a4c"
    work.write_text(messy.read_text(encoding="utf-8"), encoding="utf-8")
    rc1, out1, _ = run_cli(capsys, "fmt", "--stdout", str(work))
    rc2, out2, _ = run_cli(capsys, "fmt", "--stdout", str(work))
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_fmt_in_place(capsys, tmp_path, testgen_text):
    work = tmp_path / "work.a4c"
    work.write_text(testgen_text + "\n\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, "fmt", str(work))
    assert (rc, out, err) == (0, "", "")
    first = work.read_text(encoding="utf-8")
    rc, _, _ = run_cli(capsys, "fmt", str(work))
    assert rc == 0
    assert work.read_text(encoding="utf-8") == first


def test_fmt_parse_error_exit2(capsys, tmp_path):
    work = tmp_path / "broken.a4c"
    work.write_text('model "X" {\n  artifact \n}\n', encoding="utf-8")
    rc, _, err = run_cli(capsys, "fmt", str(work))
    assert rc == 2
    assert "error[F001]" in err
    assert "error[P001]" in err
    # the broken source is left untouched
    assert work.read_text(encoding="utf-8") == 'model "X" {\n  artifact \n}\n'


@pytest.mark.parametrize("bad", ["broken", "absent"])
def test_fmt_failure_leaves_every_file_untouched(capsys, tmp_path, testgen_text, bad):
    good = tmp_path / "good.a4c"
    good.write_text(testgen_text + "\n\n", encoding="utf-8")
    broken = tmp_path / "broken.a4c"
    if bad == "broken":
        broken.write_text('model "X" {\n  artifact \n}\n', encoding="utf-8")
    for argv in (("fmt", str(good), str(broken)), ("fmt", "--stdout", str(good), str(broken))):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err
        assert good.read_text(encoding="utf-8") == testgen_text + "\n\n"


def test_fmt_failed_rename_leaves_file_whole(capsys, tmp_path, monkeypatch):
    messy = pathlib.Path(__file__).parent / "fixtures" / "messy.a4c"
    work = tmp_path / "work.a4c"
    work.write_bytes(messy.read_bytes())

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    rc, out, err = run_cli(capsys, "fmt", str(work))
    assert (rc, out) == (2, "")
    assert "No space left on device" in err
    assert work.read_bytes() == messy.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["work.a4c"]


def test_fmt_keeps_permission_bits(capsys, tmp_path):
    messy = pathlib.Path(__file__).parent / "fixtures" / "messy.a4c"
    work = tmp_path / "work.a4c"
    work.write_bytes(messy.read_bytes())
    work.chmod(0o640)
    rc, _, _ = run_cli(capsys, "fmt", str(work))
    assert rc == 0
    assert work.read_bytes() != messy.read_bytes()
    assert stat.S_IMODE(work.stat().st_mode) == 0o640


def test_fmt_through_symlink_rewrites_its_target(capsys, tmp_path):
    messy = pathlib.Path(__file__).parent / "fixtures" / "messy.a4c"
    target = tmp_path / "model.a4c"
    target.write_bytes(messy.read_bytes())
    link = tmp_path / "link.a4c"
    link.symlink_to(target.name)
    rc, _, _ = run_cli(capsys, "fmt", str(link))
    assert rc == 0
    assert link.is_symlink()
    rc, expected, _ = run_cli(capsys, "fmt", "--stdout", str(messy))
    assert target.read_text(encoding="utf-8") == expected


def test_byte_order_mark_is_accepted(capsys, tmp_path, testgen_text):
    path = tmp_path / "bom.a4c"
    path.write_bytes(b"\xef\xbb\xbf" + testgen_text.encode("utf-8"))
    rc, out, err = run_cli(capsys, "check", str(path))
    assert (rc, out, err) == (0, "", "")
    rc, _, _ = run_cli(capsys, "fmt", str(path))
    assert rc == 0
    formatted = path.read_bytes()
    assert not formatted.startswith(b"\xef\xbb\xbf")
    rc, expected, _ = run_cli(capsys, "fmt", "--stdout", corpus_path("testgen"))
    assert formatted.decode("utf-8") == expected
