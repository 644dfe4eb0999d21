from __future__ import annotations

import hashlib
import importlib.resources as ir
import json
import os
import pathlib
import stat

import pytest

from a4c import cli

from conftest import corpus_text, run_cli


def corpus_path(name: str) -> str:
    return str(ir.files("a4c") / "corpus" / f"{name}.a4c")


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

def test_impact_text(capsys):
    rc, out, _ = run_cli(capsys, "impact", corpus_path("testgen"),
                         "--seed", "Report", "--direction", "up")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "impact of Report (up):"
    assert any(line.startswith("  TestPipeline.test [Produces] via ") for line in lines)
    assert lines[-1].startswith("levels: ")


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
