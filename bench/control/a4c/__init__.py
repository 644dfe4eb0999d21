"""Toolchain for a textual architecture description language for agentic
AI systems: parsing, name resolution, rule validation, change impact and
interaction pattern analysis, diagram and documentation rendering.

Typical use:

    from a4c import parse, resolve, check

    result = parse(text, "system.a4c")
    resolved = resolve(result.model)
    findings = check(resolved.model)
"""

from .analysis import (
    AnalysisError,
    Direction,
    ImpactReport,
    LoopFact,
    Pattern,
    PatternClass,
    classify,
    impact,
    loop_facts,
)
from .diagnostics import Diagnostic, Position, Severity, SourceSpan
from .formatter import FormatError, canonical_format, parse_roundtrip
from .model import Model, fingerprint
from .parser import ParseResult, parse
from .render import (
    DiagramText,
    DocsBundle,
    RenderError,
    docs_bundle,
    render_activity,
    render_context,
    render_deployment,
    render_prompts,
)
from .resolver import ResolvedModel, ResolveResult, call_graph, call_graph_roots, resolve
from .validate import RULES, check, is_valid

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "Diagnostic",
    "DiagramText",
    "Direction",
    "DocsBundle",
    "FormatError",
    "ImpactReport",
    "LoopFact",
    "Model",
    "ParseResult",
    "Pattern",
    "PatternClass",
    "Position",
    "RULES",
    "RenderError",
    "ResolveResult",
    "ResolvedModel",
    "Severity",
    "SourceSpan",
    "call_graph",
    "call_graph_roots",
    "canonical_format",
    "check",
    "classify",
    "docs_bundle",
    "fingerprint",
    "impact",
    "is_valid",
    "loop_facts",
    "parse",
    "parse_roundtrip",
    "render_activity",
    "render_context",
    "render_deployment",
    "render_prompts",
    "resolve",
    "__version__",
]
