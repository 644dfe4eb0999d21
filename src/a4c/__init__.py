"""Toolchain for a textual architecture description language for agentic
AI systems: parsing, name resolution, rule validation, change impact and
interaction pattern analysis, diagram and documentation rendering.

Typical use:

    from a4c import parse, resolve, check

    result = parse(text, "system.a4c")
    resolved = resolve(result.model)
    findings = check(resolved.model)

Importing the package loads none of its modules: each public name, and each
submodule as an attribute (``a4c.render``), loads its module on first use,
so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in {
    "analysis": ("AnalysisError", "Direction", "ImpactReport", "LoopFact", "Pattern",
                 "PatternClass", "classify", "impact", "loop_facts"),
    "diagnostics": ("Diagnostic", "Position", "Severity", "SourceSpan"),
    "formatter": ("FormatError", "canonical_format", "parse_roundtrip"),
    "model": ("Model", "fingerprint"),
    "parser": ("ParseResult", "parse"),
    "render": ("DiagramText", "DocsBundle", "RenderError", "docs_bundle", "render_activity",
               "render_context", "render_deployment", "render_prompts"),
    "resolver": ("ResolvedModel", "ResolveResult", "call_graph", "call_graph_roots", "resolve"),
    "validate": ("RULES", "check", "is_valid"),
}.items() for name in names}

_SUBMODULES = frozenset({"analysis", "cli", "commands", "diagnostics", "elements", "flow",
                         "formatter", "lexer", "model", "parallel", "parser", "records",
                         "render", "resolver", "validate"})

__all__ = sorted(_ORIGIN) + ["__version__"]


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
