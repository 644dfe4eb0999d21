"""Tokenizer for the description language.

Comments (``//`` to end of line) are collected out of band so the formatter
can reattach them; they never reach the parser's token stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Diagnostic, Position, SourceSpan, error

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

_PUNCT = {
    "{": LBRACE,
    "}": RBRACE,
    "[": LBRACKET,
    "]": RBRACKET,
    ":": COLON,
    ",": COMMA,
    ".": DOT,
}


@dataclass(frozen=True)
class Token:
    type: str
    value: str
    span: SourceSpan

    def is_kw(self, *names: str) -> bool:
        return self.type == KW and self.value in names


@dataclass(frozen=True)
class Comment:
    text: str  # without the leading //
    span: SourceSpan


@dataclass(frozen=True)
class LexResult:
    tokens: list[Token]
    comments: list[Comment]
    diagnostics: list[Diagnostic]


def tokenize(text: str, file: str) -> LexResult:
    tokens: list[Token] = []
    comments: list[Comment] = []
    diags: list[Diagnostic] = []

    line = 1
    col = 1
    i = 0
    n = len(text)
    ws = " \t\r\n"

    def pos() -> Position:
        return Position(line, col)

    def advance_to(j: int) -> None:
        # line/col bookkeeping in bulk instead of per character
        nonlocal i, line, col
        newlines = text.count("\n", i, j)
        if newlines:
            line += newlines
            col = j - text.rfind("\n", i, j)
        else:
            col += j - i
        i = j

    while i < n:
        ch = text[i]
        if ch in ws:
            j = i + 1
            while j < n and text[j] in ws:
                j += 1
            advance_to(j)
            continue
        start = pos()
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            body = text[i + 2 : j]
            advance_to(j)
            comments.append(Comment(body.strip(), SourceSpan(file, start, pos())))
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            advance_to(i + 2)
            tokens.append(Token(ARROW, "->", SourceSpan(file, start, pos())))
            continue
        if ch == "=":
            if i + 1 < n and text[i + 1] == "=":
                advance_to(i + 2)
                tokens.append(Token(EQEQ, "==", SourceSpan(file, start, pos())))
            else:
                advance_to(i + 1)
                tokens.append(Token(EQ, "=", SourceSpan(file, start, pos())))
            continue
        if ch in _PUNCT:
            advance_to(i + 1)
            tokens.append(Token(_PUNCT[ch], ch, SourceSpan(file, start, pos())))
            continue
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            closed = False
            while j < n:
                c = text[j]
                if c == "\n":
                    break
                if c == "\\" and j + 1 < n and text[j + 1] in '"\\':
                    buf.append(text[j + 1])
                    j += 2
                    continue
                if c == '"':
                    j += 1
                    closed = True
                    break
                buf.append(c)
                j += 1
            advance_to(j)
            if not closed:
                diags.append(
                    error("P002", "unterminated string literal", SourceSpan(file, start, pos()))
                )
                continue
            tokens.append(Token(STRING, "".join(buf), SourceSpan(file, start, pos())))
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance_to(j)
            span = SourceSpan(file, start, pos())
            if word in KEYWORDS:
                tokens.append(Token(KW, word, span))
            else:
                tokens.append(Token(IDENT, word, span))
            continue
        advance_to(i + 1)
        diags.append(error("P001", f"unexpected character {ch!r}", SourceSpan(file, start, pos())))

    eof_span = SourceSpan(file, pos(), pos())
    tokens.append(Token(EOF, "", eof_span))
    return LexResult(tokens, comments, diags)


def escape_string(value: str) -> str:
    """Re-quote a string value for source emission."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
