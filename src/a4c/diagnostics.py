"""Source spans and coded diagnostics shared by every pipeline stage.

Code classes: P### parse, E0## resolution, E1##/W1## validation rules,
R### rendering, A### analysis, F### formatting.
"""

from __future__ import annotations

from enum import Enum
from typing import Any

from .records import record


@record
class Position:
    """1-based line/column pair; positions order by line, then column."""

    line: int
    column: int


@record
class SourceSpan:
    """Half-open region of one source file; ``end`` points past the last character."""

    file: str
    start: Position
    end: Position

    def __new__(cls, file: str, start: Position, end: Position) -> SourceSpan:
        if end < start:
            raise ValueError(f"span end {end} precedes start {start}")
        return tuple.__new__(cls, (file, start, end))

    @property
    def is_synthetic(self) -> bool:
        return self.file == "<generated>"


SYNTHETIC = SourceSpan("<generated>", Position(1, 1), Position(1, 1))


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


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
        return (self.span.file, self.span.start.line, self.span.start.column, self.code)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "file": self.span.file,
            "start": [self.span.start.line, self.span.start.column],
            "end": [self.span.end.line, self.span.end.column],
            "related": [
                {
                    "message": r.message,
                    "file": r.span.file,
                    "start": [r.span.start.line, r.span.start.column],
                    "end": [r.span.end.line, r.span.end.column],
                }
                for r in self.related
            ],
        }


def error(code: str, message: str, span: SourceSpan, related: tuple[Related, ...] = ()) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, span, related)


def warning(code: str, message: str, span: SourceSpan, related: tuple[Related, ...] = ()) -> Diagnostic:
    return Diagnostic(code, Severity.WARNING, message, span, related)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Fixed output order: file, line, column, code."""
    return sorted(diags, key=Diagnostic.sort_key)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
