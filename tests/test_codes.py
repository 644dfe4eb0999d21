"""``diagnostics.CODES`` is the one catalogue of diagnostic codes: every
code-shaped string in ``src/a4c`` is a key there, every key is used, the
rules take their codes from it, and README's table lists exactly its entries."""

from __future__ import annotations

import ast
import pathlib
import re

import a4c
from a4c.diagnostics import CODES
from a4c.validate import RULES

CODE_RE = re.compile(r"^[PEWARF]\d{3}$")
SOURCES = sorted(pathlib.Path(a4c.__file__).parent.glob("*.py"))
README = pathlib.Path(__file__).parent.parent / "README.md"
ROW_RE = re.compile(r"^\| `([A-Z]\d{3})` \| (\w+) \| (?:V\d+: )?([^|]+?) \| [^|]+ \|$",
                    re.MULTILINE)


def _catalogue(tree: ast.Module) -> set[int]:
    """The ids of the nodes that make up ``CODES`` in ``tree``, if it holds it."""
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "CODES":
            return {id(n) for n in ast.walk(node)}
    return set()


def code_literals() -> list[tuple[str, str]]:
    """(module file name, code) for each code-shaped string constant outside
    ``CODES``, in file order."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = _catalogue(tree)
        found += [(path.name, node.value) for node in ast.walk(tree)
                  if id(node) not in skip and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and CODE_RE.match(node.value)]
    return found


def test_every_code_literal_is_catalogued_and_every_entry_is_used():
    used = {code for _file, code in code_literals()}
    assert used <= CODES.keys(), sorted(used - CODES.keys())
    assert CODES.keys() <= used, sorted(CODES.keys() - used)


def test_rule_codes_are_spelled_only_in_rules():
    literals = code_literals()
    for rule in RULES:
        assert [f for f, code in literals if code == rule.code] == ["validate.py"], rule
        assert (rule.severity, rule.description) == CODES[rule.code]


def test_readme_table_lists_every_code_with_its_severity_and_meaning():
    rows = ROW_RE.findall(README.read_text(encoding="utf-8"))
    assert [code for code, _sev, _meaning in rows] == list(CODES)
    for code, severity, meaning in rows:
        assert (severity, meaning) == (str(CODES[code][0]), CODES[code][1]), code
