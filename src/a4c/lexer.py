"""Tokenizer for the description language.

Tokens are stored as columns: ``LexResult`` holds three parallel lists,
``types``, ``values`` and ``ends`` (the character offset past a token's
text), and token ``k`` is entry ``k`` of each. No object is built per
token; the parser walks the columns by index. A token's value is its text
as written, a string's quotes and escapes included, so every token, the
EOF entry too, starts at its end less the length of its value
(``LexResult.start``). ``string_value`` turns a string's text into the
value it denotes, and the parser calls it where it reads one.
``LexResult.tokens`` zips the columns into ``Token`` records for callers
that want one value per token. ``LexResult.line_starts`` is the file's
line table: it starts empty, and ``diagnostics.line_of`` fills it on the
first position read, so a run that reads no position never scans for
newlines. ``LexResult.span`` turns two
offsets into a ``SourceSpan``: the span keeps the offsets and that line
table, and builds a ``Position`` only when its ``start`` or ``end`` is
read. The parser builds the same tuple in place, one span per element
rather than one per token, and a parse that reports nothing builds no
position at all.

The scan keeps its per-token work in C. One ``findall`` of a pattern with no
group cuts the text into pieces, each a run of whitespace and then one
token; the last piece, empty or whitespace only, is the EOF entry. The token
in the pattern is optional, so the pattern matches at every position and
the pieces tile the text. With a required token, a run of whitespace that
ends the text could match only by backtracking into it, and where that
failed, ``findall`` would retry at each of its characters, which is
quadratic in the run's length. The columns come from ``map``
and ``accumulate`` over the pieces: the ends from their lengths, the values
by stripping the whitespace, and the types through a table built once per
file for each distinct value, from one table of keywords and punctuation,
then one of first characters that maps an ASCII letter to IDENT and anything
else to SPECIAL. A keyword's type is its own text (``model``, ``call``), so a
token's kind lives in ``types`` alone; the other types are upper case and no
keyword is. One forward pass then settles each SPECIAL entry in file order,
so diagnostics come in file order: a string (typed STRING, or P002 when it
is unterminated), a comment, a stray character (P001), or a word
(``\\w+``) that does not start with an ASCII letter, such as ``é``,
``_x``, ``1y`` or ``²b`` (one P001 per leading character that is not
``str.isalpha``, and the rest of the word, if any, kept in place and typed
as any word is; its value is that rest, so its start still follows from
its end). The entries that leave the token stream
go in one ``compress`` per column.

A position is a 1-based line and a 1-based column counted in code points.
Only ``\\n`` breaks a line; ``\\r`` is whitespace within one.

Comments (``//`` to end of line) are collected out of band so the formatter
can reattach them; they never reach the parser's token stream.
"""

from __future__ import annotations

import re
from itertools import accumulate, compress, repeat

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

# token types; a keyword's type is the keyword itself
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

# The closing quote of a string is optional: nothing after the string body
# can fail, so the engine never backtracks into it, and ``"a\"`` at the end
# of a line stays unterminated instead of closing at its escaped quote.
_STRING_BODY = r'[^"\\\n]*(?:\\[^\n]?[^"\\\n]*)*'
_SCAN = re.compile(
    rf'[ \t\r\n]*(?:\w+|[{{}}\[\]:,.]|->|==?|"{_STRING_BODY}"?|//[^\n]*|.)?',
    re.DOTALL)
_STRING = re.compile(f'"{_STRING_BODY}')  # a string's opening quote and body
_WHITESPACE = " \t\r\n"
_ESCAPE = re.compile(r'\\(["\\])')

# A piece's type: keywords (as themselves) and punctuation by their whole
# text, the EOF entry by its empty text, other words that start with an
# ASCII letter by that letter, and everything else SPECIAL, which
# ``tokenize`` settles one by one in file order.
_SPECIAL = "SPECIAL"
_KIND = {word: word for word in KEYWORDS}
_KIND.update({"->": ARROW, "==": EQEQ, "=": EQ, "{": LBRACE, "}": RBRACE, "[": LBRACKET,
              "]": RBRACKET, ":": COLON, ",": COMMA, ".": DOT, "": EOF})
_LEAD = dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", IDENT)


@record
class Token:
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
    # token columns, each ending with the EOF entry at len(text); a token's
    # value is its text, so it starts at its end less the length of its value
    types: list[str]
    values: list[str]
    ends: list[int]
    comments: list[Comment]
    diagnostics: list[Diagnostic]
    file: str
    line_starts: list[int]  # offset at which each line starts; empty until a position is read

    def start(self, k):  # the offset of token k's first character
        return self.ends[k] - len(self.values[k])

    @property
    def starts(self) -> list[int]:
        """Each token's start offset, worked out on each call."""
        return list(map(self.start, range(len(self.ends))))

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


class _Lines(list):
    """A file's line table, empty until ``diagnostics.line_of`` first reads
    it and fills it from ``text``."""

    __slots__ = ("text",)


def tokenize(text: str, file: str) -> LexResult:
    pieces = _SCAN.findall(text)
    if len(pieces) > 1 and not pieces[-2].lstrip(_WHITESPACE):
        pieces.pop()  # the whitespace that ends the text is the EOF entry's piece
    ends = list(accumulate(map(len, pieces)))
    values = list(map(str.lstrip, pieces, repeat(_WHITESPACE)))
    del pieces  # freed before the other columns are built, to lower the memory peak
    kinds = {v: _KIND.get(v) or _LEAD.get(v[:1], _SPECIAL) for v in set(values)}
    types = list(map(kinds.get, values))
    comments = []
    diags = []
    lines = _Lines()
    lines.text = text
    lex = LexResult(types, values, ends, comments, diags, file, lines)

    keep = None
    i = -1
    for _ in range(types.count(_SPECIAL)):
        i = types.index(_SPECIAL, i + 1)
        value, end = values[i], ends[i]
        start = end - len(value)
        if value[0] == '"':
            if _STRING.match(value).end() < len(value):  # the closing quote is there
                types[i] = STRING
                continue
            diags.append(error("P002", "unterminated string literal", lex.span(start, end)))
        elif value.startswith("//"):
            comments.append(Comment(value[2:].strip(), lex.span(start, end)))
        else:  # a stray character, or a word that does not start with an ASCII letter
            k = 0
            while k < len(value) and not value[k].isalpha():
                diags.append(error("P001", f"unexpected character {value[k]!r}",
                                   lex.span(start + k, start + k + 1)))
                k += 1
            if k < len(value):  # the rest is a word; its start moves past the P001s
                values[i] = value = value[k:]
                types[i] = _KIND.get(value, IDENT)
                continue
        if keep is None:
            keep = [True] * len(types)
        keep[i] = False  # a comment, a P001 or a P002 leaves the token stream
    if keep is not None:
        for column in (types, values, ends):
            column[:] = compress(column, keep)
    return lex


def escape_string(value: str) -> str:
    """Re-quote a string value for source emission."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def string_value(text: str) -> str:
    """The value that a STRING token's text denotes: the text between its
    quotes, with ``\\"`` and ``\\\\`` unescaped; any other backslash stays."""
    body = text[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body
