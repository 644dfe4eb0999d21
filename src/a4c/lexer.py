"""Tokenizer for the description language.

One compiled pattern matches a run of whitespace and the token after it, as
in the ``re`` documentation's "Writing a Tokenizer". Tokens are stored as
columns: ``LexResult`` holds four parallel lists, ``types``, ``values``,
``starts`` and ``ends`` (the character offsets of a token's text), and token
``k`` is entry ``k`` of each. No object is built per token; the parser walks
the columns by index. ``LexResult.tokens`` zips them into ``Token`` records
for callers that want one value per token. ``LexResult`` also keeps the
offset at which each line starts. ``LexResult.span`` is the one place that
turns two offsets into a ``SourceSpan``: the span keeps the offsets and that
line table, and builds a ``Position`` only when its ``start`` or ``end`` is
read. The parser makes one span per element rather than one per token, and
a parse that reports nothing builds no position at all.

A position is a 1-based line and a 1-based column counted in code points.
Only ``\\n`` breaks a line; ``\\r`` is whitespace within one.

Comments (``//`` to end of line) are collected out of band so the formatter
can reattach them; they never reach the parser's token stream.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, Position, SourceSpan, error, position_at
from .records import record

KEYWORDS = frozenset(
    {
        "model", "context", "deployment", "artifact", "llm", "tool", "agent",
        "system", "user", "external", "flow", "collection", "of", "version",
        "default", "node", "hosts", "link", "store", "task", "in", "out",
        "body", "call", "on", "each", "invoke", "decision", "fork", "join",
        "merge", "start", "end", "prompt", "static", "dynamic", "else",
    }
)

# token types
KW = "KW"
IDENT = "IDENT"
STRING = "STRING"
ARROW = "ARROW"
LBRACE = "LBRACE"
RBRACE = "RBRACE"
LBRACKET = "LBRACKET"
RBRACKET = "RBRACKET"
COLON = "COLON"
COMMA = "COMMA"
EQ = "EQ"
EQEQ = "EQEQ"
DOT = "DOT"
EOF = "EOF"

# Group names are token types, so a match's ``lastgroup`` is its type. A word
# starts with a character of ``[^\W\d_]``, a wider class than ``str.isalpha``
# (it holds "²"), so ``tokenize`` checks the first character again. The
# closing quote of a string is optional: nothing after the string body can
# fail, so the engine never backtracks into it, and ``"a\"`` at the end of a
# line stays unterminated instead of closing at its escaped quote.
_TOKEN = re.compile(
    r"""
    [ \t\r\n]*
    (?:
        (?P<IDENT>[^\W\d_]\w*)
      | (?P<ARROW>->)
      | (?P<EQEQ>==)
      | (?P<EQ>=)
      | (?P<LBRACE>\{)
      | (?P<RBRACE>\})
      | (?P<LBRACKET>\[)
      | (?P<RBRACKET>\])
      | (?P<COLON>:)
      | (?P<COMMA>,)
      | (?P<DOT>\.)
      | (?P<STRING>"(?P<body>[^"\\\n]*(?:\\[^\n]?[^"\\\n]*)*)"?)
      | (?P<COMMENT>//[^\n]*)
      | (?P<BAD>.)
    )?
    """,
    re.VERBOSE | re.DOTALL,
)
_NEWLINE = re.compile("\n")
_ESCAPE = re.compile(r'\\(["\\])')


class Token(NamedTuple):
    type: str
    value: str
    start: int  # offset of the first character
    end: int  # offset past the last character


@record
class Comment:
    text: str  # without the leading //
    span: SourceSpan


@record
class LexResult:
    # token columns, each ending with the EOF entry at len(text)
    types: list[str]
    values: list[str]
    starts: list[int]
    ends: list[int]
    comments: list[Comment]
    diagnostics: list[Diagnostic]
    file: str
    line_starts: list[int]  # offset of the first character of each line

    @property
    def tokens(self) -> list[Token]:
        """The columns as one ``Token`` per token, built on each call."""
        return list(map(Token, self.types, self.values, self.starts, self.ends))

    def position(self, offset: int) -> Position:
        return position_at(self.line_starts, offset)

    def span(self, start: int, end: int) -> SourceSpan:
        """The span from offset ``start`` to offset ``end``, which works out
        its positions from this file's line table when they are read.
        ``end < start`` raises ``ValueError``, as ``SourceSpan`` does."""
        if end < start:
            raise ValueError(
                f"span end {self.position(end)} precedes start {self.position(start)}")
        return tuple.__new__(SourceSpan, (self.file, start, end, self.line_starts))


def tokenize(text: str, file: str) -> LexResult:
    line_starts = [0]
    line_starts += [m.end() for m in _NEWLINE.finditer(text)]
    types: list[str] = []
    values: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    comments: list[Comment] = []
    diags: list[Diagnostic] = []
    lex = LexResult(types, values, starts, ends, comments, diags, file, line_starts)

    add_type, add_value = types.append, values.append
    add_start, add_end = starts.append, ends.append
    keywords = KEYWORDS
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # trailing whitespace
            continue
        value = m[kind]
        end = m.end()
        start = end - len(value)
        if kind == IDENT:
            if value in keywords:
                kind = KW
            elif not value[0].isalpha():
                _split_word(lex, value, start)
                continue
        elif kind == STRING:
            if m.end("body") == end:
                diags.append(error("P002", "unterminated string literal", lex.span(start, end)))
                continue
            value = m["body"]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
        elif kind == "COMMENT":
            comments.append(Comment(value[2:].strip(), lex.span(start, end)))
            continue
        elif kind == "BAD":
            diags.append(_unexpected(lex, value, start))
            continue
        add_type(kind)
        add_value(value)
        add_start(start)
        add_end(end)
    _add(lex, EOF, "", len(text), len(text))
    return lex


def _add(lex: LexResult, kind: str, value: str, start: int, end: int) -> None:
    lex.types.append(kind)
    lex.values.append(value)
    lex.starts.append(start)
    lex.ends.append(end)


def _unexpected(lex: LexResult, ch: str, offset: int) -> Diagnostic:
    return error("P001", f"unexpected character {ch!r}", lex.span(offset, offset + 1))


def _split_word(lex: LexResult, word: str, start: int) -> None:
    """A word whose first character is not a letter: each leading non-letter
    is an unexpected character, and the rest from the first letter is a word."""
    k = 0
    while k < len(word) and not word[k].isalpha():
        lex.diagnostics.append(_unexpected(lex, word[k], start + k))
        k += 1
    if k < len(word):
        rest = word[k:]
        kind = KW if rest in KEYWORDS else IDENT
        _add(lex, kind, rest, start + k, start + len(word))


def escape_string(value: str) -> str:
    """Re-quote a string value for source emission."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
