"""Regenerate the golden files.

Run from the repository root after an intentional rendering, formatting or
parse-diagnostic change, then review the diff:

    python3 tests/make_goldens.py

``parse_deletions.txt`` pins the parser's error behaviour: for each token of
each corpus model, the diagnostics of that model with the one token cut out,
so every place the parser can report a wrong token, and the point where it
resumes after one, is covered.
"""
from __future__ import annotations

import importlib.resources as ir
import pathlib
import shutil
from collections.abc import Iterator

from a4c.cli import main
from a4c.formatter import canonical_format
from a4c.lexer import tokenize
from a4c.parser import parse

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden"
CORPUS = ("testgen", "recovery", "resell")


def corpus_path(name: str) -> str:
    return str(ir.files("a4c") / "corpus" / f"{name}.a4c")


def token_deletions() -> Iterator[tuple[str, int, str, str]]:
    """(corpus model, token index, the token's text, the model's text with
    that one token cut out), for every token but the end of file."""
    for name in CORPUS:
        text = pathlib.Path(corpus_path(name)).read_text(encoding="utf-8")
        lex = tokenize(text, name)
        for k, (start, end) in enumerate(zip(lex.starts[:-1], lex.ends[:-1])):
            yield name, k, text[start:end], text[:start] + text[end:]


def parse_deletions() -> str:
    """The text of ``parse_deletions.txt``: one header line per deletion,
    then its diagnostics as ``line:col code message``."""
    lines = []
    for name, k, cut, text in token_deletions():
        lines.append(f"{name}.a4c without token {k} {cut!r}")
        for d in parse(text, f"{name}.a4c").diagnostics:
            start = d.span.start
            lines.append(f"  {start.line}:{start.column} {d.code} {d.message}")
    return "\n".join(lines) + "\n"


def regenerate() -> None:
    for name in CORPUS:
        out = GOLDEN / "render" / name
        if out.exists():
            shutil.rmtree(out)
        rc = main(["render", corpus_path(name), "--out", str(out), "--level", "all"])
        assert rc == 0, (name, rc)
        rc = main(["docs", corpus_path(name), "--out", str(out)])
        assert rc == 0, (name, rc)

    messy = (HERE / "fixtures" / "messy.a4c").read_text(encoding="utf-8")
    target = GOLDEN / "messy.formatted.a4c"
    target.write_text(canonical_format(messy, "messy.a4c"), encoding="utf-8")
    (GOLDEN / "parse_deletions.txt").write_text(parse_deletions(), encoding="utf-8")
    print(f"regenerated goldens under {GOLDEN}")


if __name__ == "__main__":
    regenerate()
