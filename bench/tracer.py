"""Span and call-count recorder that wraps a4c functions from outside.

``Tracer.install()`` replaces module attributes with wrappers; nothing in the
package's source changes. A function is wrapped at every module that calls
it through its own namespace (``parser`` imports ``tokenize`` from
``lexer``, so both ``a4c.lexer.tokenize`` and ``a4c.parser.tokenize`` are
replaced). ``uninstall()`` puts the originals back, so untraced rounds run
the unmodified functions.

A span is ``(name, start, end, parent)``, with ``parent`` the index of the
enclosing span or -1. Spans and counts stay in memory; ``dump`` writes them
out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from typing import Callable, Optional


def _len(result) -> int:
    return len(result)


def _tokens(result) -> int:
    return len(result.tokens)


def _affected(result) -> int:
    return len(result.affected)


def _rule_sites() -> list[tuple[str, list[tuple[str, str]], bool, Optional[Callable]]]:
    """One span per validation rule: ``check`` calls ``_v<i>_*`` generators."""
    validate = importlib.import_module("a4c.validate")
    sites = []
    for i in range(1, 14):
        names = [n for n in vars(validate) if n.startswith(f"_v{i}_")]
        sites.append((f"validate.V{i}", [("a4c.validate", n) for n in names], True, None))
    return sites


# span name -> (module, attribute) sites, materialize generator?, result counter
SPAN_SITES: list[tuple[str, list[tuple[str, str]], bool, Optional[Callable]]] = [
    ("lexer.tokenize", [("a4c.lexer", "tokenize"), ("a4c.parser", "tokenize")], False, _tokens),
    ("parser.parse", [("a4c.parser", "parse"), ("a4c.formatter", "parse")], False, None),
    ("resolver.resolve", [("a4c.resolver", "resolve")], False, None),
    ("validate.check", [("a4c.validate", "check")], False, _len),
    ("analysis.elementary_circuits", [("a4c.analysis", "elementary_circuits")], False, _len),
    ("analysis.loop_facts", [("a4c.analysis", "loop_facts"), ("a4c.validate", "loop_facts"),
                             ("a4c.render", "loop_facts")], False, None),
    ("analysis.classify", [("a4c.analysis", "classify"), ("a4c.render", "classify")], False, None),
    ("analysis.impact", [("a4c.analysis", "impact")], False, _affected),
    ("render.context", [("a4c.render", "render_context")], False, None),
    ("render.activity", [("a4c.render", "render_activity")], False, None),
    ("render.prompts", [("a4c.render", "render_prompts")], False, None),
    ("render.docs_bundle", [("a4c.render", "docs_bundle")], False, None),
    ("formatter.format", [("a4c.formatter", "canonical_format")], False, None),
    ("formatter.emit", [("a4c.formatter", "parse_roundtrip")], False, None),
]

# functions called too often for a span each: counted only
COUNT_SITES: list[tuple[str, list[tuple[str, str]]]] = [
    ("analysis.reachable", [("a4c.validate", "reachable")]),
    ("analysis.control_adjacency", [("a4c.analysis", "control_adjacency"),
                                    ("a4c.validate", "control_adjacency")]),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.tags: dict[int, str] = {}  # root span index -> input name
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def open(self, name: str, tag: Optional[str] = None) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        if tag is not None:
            self.tags[idx] = tag
        return idx

    def close(self, idx: int) -> None:
        name, start, _end, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def _span_wrapper(self, name: str, fn, materialize: bool, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                self.close(idx)
            counts[name + ".calls"] += 1
            if counter is not None:
                counts[name + ".items"] += counter(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patching -----------------------------------------------------------

    def _patch(self, sites, make) -> None:
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))

    def install(self) -> None:
        if self._saved:
            return
        for name, sites, materialize, counter in SPAN_SITES + _rule_sites():
            self._patch(sites, lambda fn, n=name, mz=materialize, c=counter:
                        self._span_wrapper(n, fn, mz, c))
        for name, sites in COUNT_SITES:
            self._patch(sites, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # --- analysis -----------------------------------------------------------

    def roots(self, first: int, last: int) -> dict[int, int]:
        """Span index -> index of its root span, for spans in [first, last)."""
        root: dict[int, int] = {}
        for i in range(first, last):
            parent = self.spans[i][3]
            root[i] = i if parent < first else root.get(parent, parent)
        return root

    def totals(self, first: int, last: int, tag: Optional[str] = None) -> tuple[Counter, Counter]:
        """(inclusive seconds, self seconds) per span name over [first, last),
        restricted to spans under a root tagged ``tag`` when one is given."""
        root = self.roots(first, last)
        inclusive: Counter = Counter()
        child_time: Counter = Counter()
        for i in range(first, last):
            if tag is not None and self.tags.get(root[i]) != tag:
                continue
            name, start, end, parent = self.spans[i]
            inclusive[name] += end - start
            if parent >= first:
                child_time[parent] += end - start
        own: Counter = Counter()
        for i in range(first, last):
            if tag is not None and self.tags.get(root[i]) != tag:
                continue
            name, start, end, _parent = self.spans[i]
            own[name] += (end - start) - child_time[i]
        return inclusive, own

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, "input": self.tags.get(i)}
                        for i, (n, s, e, p) in enumerate(self.spans)
                    ],
                    "counts": dict(sorted(self.counts.items())),
                },
                fh,
            )
            fh.write("\n")
