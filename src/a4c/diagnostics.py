"""Source spans and coded diagnostics shared by every pipeline stage.

A ``Position`` is a record: a 1-based line and column. A ``SourceSpan`` is
not a named-tuple record, since a span that the lexer makes holds two
offsets and its file's line table rather than two positions, but it is a
``Record`` and keeps a record's contract, except that spans are not
ordered. ``line_of`` is the one line lookup behind every position.

``CODES`` is the one catalogue of diagnostic codes: every code that a stage
emits or raises is a key there, with its severity and what it means.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from typing import Any

from .records import Record, record


@record
class Position:
    """1-based line/column pair; positions order by line, then column."""

    line: int
    column: int


def line_of(line_starts: list[int], offset: int) -> int:
    """The 1-based line that holds character ``offset``, given the offset at
    which each line starts: the one line lookup behind every position."""
    return bisect_right(line_starts, offset)


def position_at(line_starts: list[int], offset: int) -> Position:
    line = line_of(line_starts, offset)
    # tuple.__new__ skips the named tuple's argument handling
    return tuple.__new__(Position, (line, offset - line_starts[line - 1] + 1))


class SourceSpan(Record):
    """Half-open region of one source file; ``end`` points past the last character.

    ``SourceSpan(file, start, end)`` holds two positions. The lexer makes a
    span from two character offsets and its file's line table instead
    (``LexResult.span``), and ``start`` and ``end`` work out a position on
    each read, so a span that nothing reads never builds one. Either way a
    span equals and hashes as its ``(file, start, end)``, never equals a
    plain tuple, and refuses attribute assignment. Spans are not ordered:
    ``<`` and its kin raise ``TypeError``.
    """

    __slots__ = ()
    _compared = staticmethod(lambda s: (s[0], s.start, s.end))

    # stored as (file, start, end, line_starts): positions with line_starts
    # None, or offsets into the file whose lines start at line_starts
    def __new__(cls, file: str, start: Position, end: Position) -> SourceSpan:
        if end < start:
            raise ValueError(f"span end {end} precedes start {start}")
        return tuple.__new__(cls, (file, start, end, None))

    @property
    def file(self) -> str:
        return self[0]

    @property
    def start(self) -> Position:
        _, start, _, lines = self
        return start if lines is None else position_at(lines, start)

    @property
    def end(self) -> Position:
        _, _, end, lines = self
        return end if lines is None else position_at(lines, end)

    @property
    def is_synthetic(self) -> bool:
        return self[0] == "<generated>"

    def _unordered(self, other):
        raise TypeError("source spans are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self) -> str:
        return f"SourceSpan(file={self[0]!r}, start={self.start!r}, end={self.end!r})"

    def __reduce__(self):
        return SourceSpan, self._compared(self)


SYNTHETIC = SourceSpan("<generated>", Position(1, 1), Position(1, 1))


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


_E, _W = Severity.ERROR, Severity.WARNING

# code -> (severity, meaning); validate.RULES takes its rules' entries from here
CODES: dict[str, tuple[Severity, str]] = {
    "P001": (_E, "unexpected token or character"),
    "P002": (_E, "unterminated string literal"),
    "P003": (_E, "unknown keyword in a block"),
    "E001": (_E, "reference that binds to no declaration"),
    "E002": (_E, "duplicate declaration"),
    "E101": (_E, "TaskCall target task missing on callee agent"),
    "E102": (_E, "recursive task decomposition cycle"),
    "E103": (_E, "leaf task has neither tool call nor prompt"),
    "E104": (_E, "artifact consumed but not a task input, produced upstream,"
                 " or read from a datastore"),
    "W105": (_W, "declared output produced on no path to end"),
    "E106": (_E, "malformed decision, unbalanced fork/join, or unreachable body node"),
    "E107": (_E, "element-wise call without collection-typed input"),
    "E108": (_E, "tool call to undeclared tool"),
    "W109": (_W, "agent has no resolvable llm binding"),
    "E110": (_E, "agent unhosted or cross-node call without a link"),
    "W111": (_W, "context flow artifact missing from every root task signature"),
    "W112": (_W, "datastore never written or never read"),
    "W113": (_W, "control-flow cycle with no guarded exit"),
    "A001": (_E, "unknown impact seed element or direction"),
    "A002": (_E, "pattern classification of a leaf task"),
    "R001": (_E, "deployment view of a model with no deployment section"),
    "R002": (_E, "activity diagram of a task with no body"),
    "R003": (_E, "prompt table of a task with no prompt"),
    "F001": (_E, "input that does not parse cannot be formatted"),
}


@record
class Related:
    """Secondary location attached to a diagnostic (e.g. the first declaration)."""

    message: str
    span: SourceSpan


@record
class Diagnostic:
    code: str
    severity: Severity
    message: str
    span: SourceSpan
    related: tuple[Related, ...] = ()

    def __new__(cls, code: str, severity: Severity, message: str, span: SourceSpan,
                related: tuple[Related, ...] = ()) -> Diagnostic:
        if not message:
            raise ValueError("diagnostic message must be nonempty")
        return tuple.__new__(cls, (code, severity, message, span, related))

    def sort_key(self) -> tuple:
        start = self.span.start
        return (self.span.file, start.line, start.column, self.code)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            **_location(self.span),
            "related": [{"message": r.message, **_location(r.span)} for r in self.related],
        }


def _location(span: SourceSpan) -> dict[str, Any]:
    start, end = span.start, span.end
    return {"file": span.file, "start": [start.line, start.column],
            "end": [end.line, end.column]}


def error(code: str, message: str, span: SourceSpan, related: tuple[Related, ...] = ()) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, span, related)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Fixed output order: file, line, column, code."""
    return sorted(diags, key=Diagnostic.sort_key)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
