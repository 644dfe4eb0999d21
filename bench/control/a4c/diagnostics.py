"""Source spans and coded diagnostics shared by every pipeline stage.

Code classes: P### parse, E0## resolution, E1##/W1## validation rules,
R### rendering, A### analysis, F### formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any


@dataclass(frozen=True, order=True)
class Position:
    """1-based line/column pair."""

    line: int
    column: int


@dataclass(frozen=True)
class SourceSpan:
    """Half-open region of one source file; ``end`` points past the last character."""

    file: str
    start: Position
    end: Position

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span end {self.end} precedes start {self.start}")

    @staticmethod
    def synthetic(file: str = "<generated>") -> "SourceSpan":
        return SourceSpan(file, Position(1, 1), Position(1, 1))

    @property
    def is_synthetic(self) -> bool:
        return self.file == "<generated>"


SYNTHETIC = SourceSpan.synthetic()


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Related:
    """Secondary location attached to a diagnostic (e.g. the first declaration)."""

    message: str
    span: SourceSpan


@dataclass(frozen=True)
class Diagnostic:
    code: str
    severity: Severity
    message: str
    span: SourceSpan
    related: tuple[Related, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.message:
            raise ValueError("diagnostic message must be nonempty")

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
