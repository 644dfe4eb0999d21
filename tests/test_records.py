"""The record contract: how model elements, spans, diagnostics and results
construct, compare, hash and refuse mutation."""

from __future__ import annotations

import pytest

from a4c import model as m
from a4c.diagnostics import Diagnostic, Position, Related, Severity, SourceSpan, error
from a4c.parser import parse
from a4c.resolver import ResolveResult

HERE = SourceSpan("a.a4c", Position(1, 1), Position(1, 5))
THERE = SourceSpan("b.a4c", Position(7, 2), Position(9, 1))


def test_equality_tells_types_apart():
    assert m.InitialNode("x", HERE) != m.FinalNode("x", HERE)
    assert not m.InitialNode("x", HERE) == m.FinalNode("x", HERE)
    assert m.ForkNode("f", HERE) != m.JoinNode("f", HERE)
    assert m.Agent("a", None, (), HERE) != m.Task("a", (), (), None, None, HERE)
    assert Position(1, 1) != (1, 1)
    assert (1, 1) != Position(1, 1)
    assert not Position(1, 1) == (1, 1)
    assert m.ActivityNode("x", HERE) != m.InitialNode("x", HERE)


def test_model_elements_ignore_spans():
    pairs = [
        (m.Actor(m.ActorKind.USER, "u", HERE), m.Actor(m.ActorKind.USER, "u", THERE)),
        (m.ContextFlow("a", "b", ("X",), HERE, 0), m.ContextFlow("a", "b", ("X",), THERE, 0)),
        (m.Guard("s", "v", False, HERE), m.Guard("s", "v", False, THERE)),
        (m.CallNode("c", HERE, "t", None, None, (), ("X",)),
         m.CallNode("c", THERE, "t", None, None, (), ("X",))),
        (m.Model("M", "f.a4c", (), HERE), m.Model("M", "f.a4c", ())),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
    assert m.ContextFlow("a", "b", (), HERE, 0) != m.ContextFlow("a", "b", (), HERE, 1)
    assert m.CallNode("c", HERE, "t", None, None, (), ()) != m.CallNode("c", HERE, "u", None, None, (), ())


def test_elements_and_diagnostics_compare_spans():
    assert m.Element("actor", "u", "actor:u", "C1", HERE) != m.Element("actor", "u", "actor:u", "C1", THERE)
    assert error("E001", "x", HERE) != error("E001", "x", THERE)
    assert Related("first", HERE) != Related("first", THERE)
    assert HERE != THERE
    assert error("E001", "x", HERE) == error("E001", "x", HERE)
    assert hash(error("E001", "x", HERE)) == hash(error("E001", "x", HERE))


def test_hash_agrees_with_equality():
    values = [
        m.InitialNode("x", HERE), m.FinalNode("x", HERE), m.InitialNode("x", THERE),
        m.ArtifactType("A", None, HERE), m.ArtifactType("A", "B", HERE),
        Position(1, 1), Position(1, 2), HERE, THERE,
        m.ActivityEdge("a", "b", None, m.EdgeKind.CONTROL, HERE),
        m.ActivityEdge("a", "b", None, m.EdgeKind.CONTROL, THERE),
    ]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b)
    assert len(set(values)) == 9


@pytest.mark.parametrize("value, name", [
    (m.Actor(m.ActorKind.USER, "u", HERE), "name"),
    (m.Model("M", "f.a4c", ()), "name"),
    (Position(1, 1), "line"),
    (HERE, "file"),
    (error("E001", "x", HERE), "message"),
])
def test_setting_an_attribute_raises(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, "other")
    with pytest.raises(AttributeError):
        setattr(value, "extra", 1)


def test_keyword_and_positional_construction_agree():
    by_keyword = m.CallNode(id="c", span=HERE, task="t", agent="A", each=None,
                            inputs=("X",), outputs=())
    assert by_keyword == m.CallNode("c", HERE, "t", "A", None, ("X",), ())
    assert by_keyword.agent == "A"
    assert by_keyword.span is HERE
    assert SourceSpan(file="a.a4c", start=Position(1, 1), end=Position(1, 5)) == HERE
    assert Diagnostic(code="E001", severity=Severity.ERROR, message="x", span=HERE) == error("E001", "x", HERE)


def test_defaults():
    assert Diagnostic("E001", Severity.ERROR, "x", HERE).related == ()
    assert m.Model("M", "f.a4c", ()).span.is_synthetic
    with pytest.raises(TypeError):
        ResolveResult(None)  # no default, so no two instances share one


def test_position_order_and_validated_constructors():
    assert Position(1, 9) < Position(2, 1) < Position(2, 3)
    assert sorted([Position(3, 1), Position(1, 2), Position(1, 1)]) == [
        Position(1, 1), Position(1, 2), Position(3, 1)]
    assert max(Position(2, 1), Position(1, 80)) == Position(2, 1)
    with pytest.raises(ValueError):
        SourceSpan("a.a4c", Position(2, 1), Position(1, 9))
    assert SourceSpan("a.a4c", Position(1, 1), Position(1, 1)).start == Position(1, 1)
    with pytest.raises(ValueError):
        Diagnostic("E001", Severity.ERROR, "", HERE)


def test_model_caches_elements_per_instance(testgen_text):
    first = parse(testgen_text, "t.a4c").model
    second = parse(testgen_text, "t.a4c").model
    assert first.elements is first.elements
    assert first.source_map is first.source_map
    assert first.elements == second.elements
    assert first.elements is not second.elements
    assert first.source_map is not second.source_map
    assert first == second
