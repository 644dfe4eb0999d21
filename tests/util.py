"""Test helpers: alpha-renaming of model source text.

Renaming rewrites every identifier consistently (declaration and use sites,
including `{Placeholder}` references inside prompt strings) while leaving
keywords, datastore accessors, and tool operation names alone. Analyses
whose results are claimed to be name-independent must be invariant under it.
"""

from __future__ import annotations

import re

from a4c.lexer import DOT, IDENT, STRING, tokenize

_PLACEHOLDER = re.compile(r"\{([A-Za-z][A-Za-z0-9_]*)\}")


def alpha_rename(text: str, prefix: str = "zq") -> tuple[str, dict[str, str]]:
    """Injectively rename all identifiers in ``text``; returns (text, mapping).

    Identifiers directly after a dot (datastore ``.read``/``.write`` access
    and tool operation names) keep their spelling.
    """
    lexed = tokenize(text, "<rename>")
    assert not lexed.diagnostics, lexed.diagnostics
    mapping: dict[str, str] = {}
    replacements: list[tuple[int, int, str]] = []
    prev_type = None
    for tok in lexed.tokens:
        if tok.type == IDENT and prev_type != DOT:
            new = mapping.setdefault(tok.value, prefix + tok.value)
            replacements.append((tok.start, tok.end, new))
        prev_type = tok.type

    for tok in lexed.tokens:
        if tok.type != STRING:
            continue
        raw = text[tok.start:tok.end]
        def swap(match: re.Match) -> str:
            name = match.group(1)
            return "{" + mapping.get(name, name) + "}"
        renamed = _PLACEHOLDER.sub(swap, raw)
        if renamed != raw:
            replacements.append((tok.start, tok.end, renamed))

    out = text
    for begin, end, new in sorted(replacements, reverse=True):
        out = out[:begin] + new + out[end:]
    return out, mapping
