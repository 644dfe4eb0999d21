"""The lexer against the character-by-character oracle.

Token types, values and line/column spans, comments and diagnostics must be
identical to ``oracles.oracle_tokenize`` on the corpus, the messy fixture,
generated models and bodies, the benchmark's synthetic shapes, random
strings, line mutants and inputs of about 10**5 characters, and every
token's value must be its text, which ``tokenize`` below checks on every
input lexed here. The traps of a one-pattern lexer are pinned one by one
below.
"""

from __future__ import annotations

import copy
import operator
import pathlib
import pickle
import random

import pytest

from a4c import lexer
from a4c.diagnostics import Position, SourceSpan
from a4c.lexer import EOF, IDENT, KEYWORDS, STRING, Token, string_value
from a4c.parser import parse
from conftest import CORPUS, corpus_text, load_shapes
from genmodels import generate_body_model, generate_model
from oracles import oracle_tokenize

HERE = pathlib.Path(__file__).parent
FILE = "lex.a4c"


def tokenize(text: str, file: str) -> lexer.LexResult:
    """``lexer.tokenize``, which every test here calls through this check:
    each token's value, a string's and the EOF entry's included, is its
    text, from its start to its end."""
    lex = lexer.tokenize(text, file)
    assert [text[start:end] for start, end in zip(lex.starts, lex.ends)] == lex.values, text[:200]
    return lex


def lexed(text: str) -> tuple[list, list, list]:
    """The lexer's result in the oracle's form."""
    lex = tokenize(text, FILE)
    return (
        [(t.type, t.value, lex.span(t.start, t.end)) for t in lex.tokens],
        [(c.text, c.span) for c in lex.comments],
        lex.diagnostics,
    )


def assert_same(texts) -> int:
    count = 0
    for text in texts:
        assert lexed(text) == oracle_tokenize(text, FILE), repr(text[:200])
        count += 1
    return count


def _mutants(text: str, rng: random.Random, count: int) -> list[str]:
    """Lines deleted, duplicated, swapped, cut or spliced with odd characters."""
    odd = ['"', "\\", "/", "-", "=", "\r", "\t", "²", "٣", "﻿", "é", "_", "1", "//"]
    out = []
    for _ in range(count):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        j = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[j])
        elif op == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        else:
            k = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:k] + rng.choice(odd) + lines[i][k:]
        out.append("\n".join(lines))
    return out


def test_corpus_and_messy_fixture():
    texts = [corpus_text(name) for name in CORPUS]
    texts.append((HERE / "fixtures" / "messy.a4c").read_text(encoding="utf-8"))
    assert assert_same(texts) == 4


def test_generated_models_and_bodies(noisy_texts):
    clean = [generate_model(i) for i in range(300)]
    bodies = [generate_body_model(i) for i in range(200)]
    assert assert_same(clean + noisy_texts[:300] + bodies) == 800


def test_benchmark_shapes():
    shapes = load_shapes()
    texts = [shapes.chain(n, 7) for n in (1, 30)] + [shapes.fan(n, 7) for n in (1, 30)]
    texts += [shapes.ladder(k, 7) for k in (1, 4)] + [shapes.feedback(n, 7) for n in (2, 40)]
    assert assert_same(texts) == 8


def test_random_strings():
    rng = random.Random(5)
    alphabet = (
        ["a", "Z", "_", "1", "²", "٣", "é", "﻿", "\x0b", " ", "\t", "\r", "\n", '"', "\\",
         "/", "-", ">", "=", "{", "}", "[", "]", ":", ",", ".", "#"]
        + ["call", "agent", "->", "//", '\\"', "\\\\", "\r\n"]
    )
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(40))) for _ in range(2000)]
    assert assert_same(texts) == 2000


def test_line_mutants():
    rng = random.Random(11)
    texts = []
    for name in CORPUS:
        texts += _mutants(corpus_text(name), rng, 200)
    assert assert_same(texts) == 600


# About 10**5 characters each: a run of whitespace that ends the text, and
# one input per path that settles a piece the scan cannot type by its text
# alone. A scan that retried at every character of the run, or rescanned the
# columns once per such piece, would take minutes here instead of
# milliseconds.
LONG_INPUTS = {
    "trailing_spaces": "a" + " " * 10**5,
    "unterminated_strings": "".join(f'"s{i % 7}\\"\n' if i % 3 else f'x "q{i % 10}\n'
                                    for i in range(10**4)),
    "comment_lines": "".join(f"// note {i % 10}\nn\n" for i in range(10**4)),
    "non_letter_words": " ".join(["²b", "_x", "1y", "²³model"] * 2500) + " \n",
    "stray_hashes": "a #\t" * 10**4 + "b",
    "accented_words": "\n".join(f"été{i % 10} {{" for i in range(10**4)),
}


@pytest.mark.parametrize("name", LONG_INPUTS)
def test_long_inputs(name):
    text = LONG_INPUTS[name]
    assert 4 * 10**4 <= len(text) <= 2 * 10**5
    assert assert_same([text]) == 1


# --- columns and spans ----------------------------------------------------------

def test_columns_are_parallel_and_end_with_one_eof():
    rng = random.Random(13)
    texts = [corpus_text(name) for name in CORPUS] + ["", "a", "a\r", 'x "a\\"\ny', "²x"]
    texts += _mutants(corpus_text("resell"), rng, 100)
    for text in texts:
        lex = tokenize(text, FILE)
        columns = (lex.types, lex.values, lex.starts, lex.ends)
        assert len({len(column) for column in columns}) == 1
        assert [column[-1] for column in columns] == [EOF, "", len(text), len(text)]
        assert lex.types.count(EOF) == 1
        assert lex.tokens == [Token(*entry) for entry in zip(*columns)]


def test_span_equals_its_two_positions():
    text = "ab\n\ncé\r\nf\rg²\n\n  h"  # \r\n, a lone \r, blank lines, no final newline
    lex = tokenize(text, FILE)
    again = tokenize(text, FILE)
    for start in range(len(text) + 1):
        for end in range(start, len(text) + 1):
            span = lex.span(start, end)
            made = SourceSpan(FILE, lex.position(start), lex.position(end))
            where = (start, end)
            assert span == made and made == span and not span != made, where
            assert span == again.span(start, end), where
            assert hash(span) == hash(made), where
            assert repr(span) == repr(made), where
            assert (span.file, span.start, span.end) == (made.file, made.start, made.end)
            assert span != (FILE, made.start, made.end), where
            assert span != (FILE, start, end), where
            assert copy.copy(span) == span, where
            assert pickle.loads(pickle.dumps(span)) == span, where
            with pytest.raises(AttributeError):
                span.file = "other.a4c"
            with pytest.raises(AttributeError):
                span.note = "x"
    assert lex.span(0, 1) != lex.span(0, 2) and lex.span(0, 1) != tokenize(text, "b").span(0, 1)
    with pytest.raises(ValueError, match="precedes start"):
        lex.span(4, 3)


def test_span_made_from_positions():
    span = SourceSpan(file=FILE, start=Position(1, 2), end=Position(3, 1))
    assert span == SourceSpan(FILE, Position(1, 2), Position(3, 1))
    assert (span.file, span.start, span.end) == (FILE, Position(1, 2), Position(3, 1))
    assert repr(span) == ("SourceSpan(file='lex.a4c', start=Position(line=1, column=2), "
                          "end=Position(line=3, column=1))")
    assert not span.is_synthetic and SourceSpan("<generated>", span.start, span.end).is_synthetic
    assert span != (FILE, Position(1, 2), Position(3, 1))
    assert copy.copy(span) == span and pickle.loads(pickle.dumps(span)) == span
    with pytest.raises(AttributeError):
        span.start = Position(1, 1)
    with pytest.raises(ValueError, match="precedes start"):
        SourceSpan(FILE, Position(2, 1), Position(1, 9))


def test_spans_are_not_ordered():
    made = SourceSpan(FILE, Position(1, 1), Position(1, 2))
    lexed = tokenize("ab", FILE).span(0, 1)
    pairs = [(made, made), (made, lexed), (lexed, made), (lexed, tokenize("ab", FILE).span(0, 1)),
             (lexed, (FILE, 0, 1, None)), ((FILE, 0, 1, None), lexed)]
    for a, b in pairs:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError, match="not ordered"):
                op(a, b)


# --- pinned traps ---------------------------------------------------------------

def codes(text: str) -> list[tuple[str, str, tuple[int, int], tuple[int, int]]]:
    return [
        (d.code, d.message, (d.span.start.line, d.span.start.column),
         (d.span.end.line, d.span.end.column))
        for d in tokenize(text, FILE).diagnostics
    ]


def kinds(text: str) -> list[tuple[str, str, int, int]]:
    return [(t.type, t.value, t.start, t.end) for t in tokenize(text, FILE).tokens]


def test_escaped_quote_at_end_of_line_is_unterminated():
    text = 'x "a\\"\ny'
    assert codes(text) == [("P002", "unterminated string literal", (1, 3), (1, 7))]
    assert kinds(text) == [(IDENT, "x", 0, 1), (IDENT, "y", 7, 8), (EOF, "", 8, 8)]
    assert lexed(text) == oracle_tokenize(text, FILE)


def test_escapes_inside_a_closed_string():
    text = '"q\\"r\\\\" "\\x"'
    assert kinds(text) == [(STRING, text[:8], 0, 8), (STRING, text[9:], 9, 13), (EOF, "", 13, 13)]
    assert [string_value(text[:8]), string_value(text[9:])] == ['q"r\\', "\\x"]


def test_a_string_that_ends_the_file_starts_at_its_quote():
    """A string's value is its text, so it starts at its end less its value's
    length, as every token does; here it also shares its end with the EOF entry."""
    text = 'model "M" { artifact _x "a\\"b\\\\"'
    quote = text.rindex(' "') + 1
    assert kinds(text)[-3:] == [(IDENT, "x", quote - 2, quote - 1),
                                (STRING, text[quote:], quote, len(text)),
                                (EOF, "", len(text), len(text))]
    assert lexed(text) == oracle_tokenize(text, FILE)
    found = [(d.code, d.span.start, d.span.end) for d in parse(text, FILE).diagnostics
             if "found string literal" in d.message]
    assert found == [("P001", Position(1, quote + 1), Position(1, len(text) + 1))]


@pytest.mark.parametrize("text", ["²x", "x ²y"])
def test_word_starting_with_a_non_letter(text):
    at = text.index("²")
    assert codes(text) == [("P001", "unexpected character '²'", (1, at + 1), (1, at + 2))]
    assert kinds(text)[-2] == (IDENT, text[at + 1:], at + 1, len(text))
    assert lexed(text) == oracle_tokenize(text, FILE)


def test_every_keyword_is_its_own_token_type():
    words = sorted(KEYWORDS)
    text = " ".join(words)
    lex = tokenize(text, FILE)
    assert lex.types == words + [EOF] and lex.values == words + [""]
    assert not lex.diagnostics
    assert lexed(text) == oracle_tokenize(text, FILE)


def test_keyword_after_stray_characters_keeps_its_type():
    text = "²³model"
    assert codes(text) == [("P001", "unexpected character '²'", (1, 1), (1, 2)),
                           ("P001", "unexpected character '³'", (1, 2), (1, 3))]
    assert kinds(text) == [("model", "model", 2, 7), (EOF, "", 7, 7)]
    assert lexed(text) == oracle_tokenize(text, FILE)


def test_decimal_digit_of_another_script_is_unexpected():
    assert codes("٣") == [("P001", "unexpected character '٣'", (1, 1), (1, 2))]
    assert kinds("٣") == [(EOF, "", 1, 1)]


def test_lone_carriage_return_is_whitespace_within_a_line():
    lex = tokenize("a\rb\r\nc", FILE)
    assert [(t.value, lex.position(t.start)) for t in lex.tokens] == [
        ("a", Position(1, 1)), ("b", Position(1, 3)), ("c", Position(2, 1)), ("", Position(2, 2))
    ]
    assert not lex.diagnostics


def test_byte_order_mark_inside_a_file_is_unexpected():
    assert codes("a\n﻿b") == [("P001", "unexpected character '\\ufeff'", (2, 1), (2, 2))]


@pytest.mark.parametrize("text, end", [
    ("", (1, 1)), ("model", (1, 6)), ("model\n", (2, 1)), ("model\n  ", (2, 3)),
    ("a // note", (1, 10)), ("a\r", (1, 3)),
])
def test_eof_sits_at_the_end_of_the_last_line(text, end):
    lex = tokenize(text, FILE)
    eof = lex.tokens[-1]
    assert eof.type == EOF and eof.start == eof.end == len(text)
    assert lex.span(eof.start, eof.end).start == Position(*end)
    assert lexed(text) == oracle_tokenize(text, FILE)
