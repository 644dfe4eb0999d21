from __future__ import annotations

import pathlib
import re

import pytest

from a4c.diagnostics import Severity
from a4c.formatter import FormatError, canonical_format, parse_roundtrip
from a4c.model import fingerprint
from a4c.parser import parse

from conftest import CORPUS, corpus_text, run_cli
from test_parser import BLOCK_DIAGNOSTICS, TWO_MISTAKES, block_case

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def messy_text() -> str:
    return (FIXTURES / "messy.a4c").read_text(encoding="utf-8")


def assert_laws(text: str, file: str = "<fmt>") -> str:
    """Idempotence and reparse structural identity; returns canonical text."""
    formatted = canonical_format(text, file)
    assert canonical_format(formatted, file) == formatted
    before = parse(text, file).model
    after = parse(formatted, file).model
    assert after is not None
    assert fingerprint(after) == fingerprint(before)
    return formatted


def test_corpus_laws():
    for name in CORPUS:
        assert_laws(corpus_text(name), f"{name}.a4c")


def test_messy_laws_and_golden():
    formatted = assert_laws(messy_text(), "messy.a4c")
    assert formatted == (GOLDEN / "messy.formatted.a4c").read_text(encoding="utf-8")


def test_messy_layout_details():
    formatted = canonical_format(messy_text(), "messy.a4c")
    # squeezed constructs come out with canonical spacing
    assert "flow U -> Sys : QueryDoc, Batch" in formatted
    assert "call fan = step on Helper each Batch { in Batch out Item }" in formatted
    assert "gate -> fan [Item == Good]" in formatted
    assert "first -> gate [else]" in formatted
    assert "link Main -> Edge : \"HTTPS\" : QueryDoc" in formatted
    assert "artifact Batch collection of Item" in formatted
    # a one-line task body expands to one construct per line
    assert "    task step {\n      in QueryDoc\n      out Item\n" in formatted
    # indentation is always a multiple of two spaces
    for line in formatted.splitlines():
        indent = len(line) - len(line.lstrip(" "))
        assert indent % 2 == 0, line


def test_comments_survive_formatting():
    source = messy_text()
    formatted = canonical_format(source, "messy.a4c")
    wanted = [ln.split("//", 1)[1].strip() for ln in source.splitlines() if "//" in ln]
    assert len(wanted) == 12
    for comment in wanted:
        assert formatted.count(comment) == 1, comment


def test_trailing_comment_stays_on_its_line():
    formatted = canonical_format(messy_text(), "messy.a4c")
    assert "system Sys // trailing comment on a system" in formatted
    assert "store memory : Item // the planner remembers items" in formatted


def test_comment_only_lines_keep_position():
    formatted = canonical_format(messy_text(), "messy.a4c").splitlines()
    idx = formatted.index("        // a comment right before the body closes")
    assert formatted[idx + 1].strip() == "}"
    assert formatted[-1] == "// file tail comment"


def test_random_models_laws(noisy_texts):
    for k, text in enumerate(noisy_texts):
        formatted = canonical_format(text, f"noise-{k}.a4c")
        assert canonical_format(formatted, f"noise-{k}.a4c") == formatted, k
        before = parse(text, "a").model
        after = parse(formatted, "b").model
        assert after is not None, k
        assert fingerprint(after) == fingerprint(before), k


def broken_inputs() -> list[str]:
    """Inputs with syntax errors, among them every recovery case of the parser."""
    texts = ['model "Broken" {\n  artifact \n}\n', TWO_MISTAKES]
    return texts + [block_case(block, case) for block, case in BLOCK_DIAGNOSTICS]


def test_format_error_carries_parse_diagnostics(tmp_path, capsys):
    path = tmp_path / "broken.a4c"
    for text in broken_inputs():
        with pytest.raises(FormatError) as exc:
            canonical_format(text, "broken.a4c")
        err = exc.value
        assert err.diagnostic.code == "F001"
        assert err.diagnostic.severity is Severity.ERROR
        assert err.causes == parse(text, "broken.a4c").diagnostics, text
        assert err.causes
        assert all(d.code.startswith("P") for d in err.causes)
        assert err.diagnostic.span.file == "broken.a4c"
        path.write_bytes(text.encode("utf-8"))
        rc, _, _ = run_cli(capsys, "fmt", str(path))
        assert rc == 2, text
        assert path.read_bytes() == text.encode("utf-8")


def test_format_error_on_unterminated_string():
    with pytest.raises(FormatError) as exc:
        canonical_format('model "Broken {\n}\n', "b.a4c")
    assert any(d.code == "P002" for d in exc.value.causes)


def test_parse_roundtrip_drops_comments():
    model = parse(messy_text(), "messy.a4c").model
    text = parse_roundtrip(model)
    assert "//" not in text
    assert fingerprint(parse(text, "rt").model) == fingerprint(model)


def test_parse_roundtrip_matches_commentless_format():
    source = messy_text()
    stripped = re.sub(r"[ \t]*//[^\n]*", "", source)
    model = parse(source, "messy.a4c").model
    assert parse_roundtrip(model) == canonical_format(stripped, "messy.a4c")


def test_blank_line_runs_collapse():
    text = corpus_text("testgen").replace("\n\n", "\n\n\n\n", 1)
    formatted = canonical_format(text, "t.a4c")
    assert "\n\n\n" not in formatted
