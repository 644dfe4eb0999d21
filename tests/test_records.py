"""The record contract: how model elements, spans, diagnostics and results
construct, compare, hash, print, copy, pickle and refuse mutation."""

from __future__ import annotations

import collections
import copy
import importlib
import pickle

import pytest

import a4c
from a4c import model as m
from a4c.diagnostics import Diagnostic, Position, Related, Severity, SourceSpan, error
from a4c.elements import Element
from a4c.lexer import Token
from a4c.parser import parse
from a4c.records import Record, record
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
    assert Element("actor", "u", "actor:u", "C1", HERE) != Element("actor", "u", "actor:u", "C1", THERE)
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


# --- every record class in the package ----------------------------------------------

def record_classes() -> list[type]:
    """Every class that ``@record`` built, in every submodule of the package."""
    found = {}
    for name in sorted(a4c._SUBMODULES):
        module = importlib.import_module(f"a4c.{name}")
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, Record)
                    and value.__module__ == module.__name__ and vars(value).get("_fields")):
                found[value.__qualname__, value.__module__] = value
    return list(found.values())


RECORDS = record_classes()


def sample(cls: type) -> Record:
    """An instance of ``cls`` with a distinct nonempty string in each field."""
    return cls(*(f"{field} of {cls.__name__}" for field in cls._fields))


def test_every_record_class_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Token", "Comment", "Position", "Diagnostic", "Model", "CallNode", "Element",
            "ResolveResult", "DocsBundle"} <= names
    assert "SourceSpan" not in names
    assert len(RECORDS) == len({cls.__name__ for cls in RECORDS}) >= 47


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__[4:]}.{cls.__name__}")
def test_repr_is_the_named_tuple_text(cls):
    value = sample(cls)
    named_tuple = collections.namedtuple(cls.__name__, cls._fields)
    assert repr(value) == repr(named_tuple(*value))
    assert repr(value).startswith(f"{cls.__name__}({cls._fields[0]}=")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__[4:]}.{cls.__name__}")
def test_copy_and_pickle_round_trips(cls):
    value = sample(cls)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        assert other == value and tuple(other) == tuple(value)
        assert [getattr(other, f) for f in cls._fields] == list(value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__[4:]}.{cls.__name__}")
def test_wrong_arguments_raise_type_error(cls):
    values = tuple(sample(cls))
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values[:1], **{cls._fields[0]: values[0]})  # the first field given twice
    if cls.__new__.__defaults__ is None or len(cls.__new__.__defaults__) < len(cls._fields):
        with pytest.raises(TypeError):
            cls()
    assert cls(**dict(zip(cls._fields, values))) == cls(*values)


def test_argument_errors_read_as_the_named_tuple_errors():
    for cls in (m.CallNode, Token, Position):
        named_tuple = collections.namedtuple(cls.__name__, cls._fields)
        values = tuple(sample(cls))
        for args, kwargs in ((values + (1,), {}), (values[:1], {}), (values, {"no_such_field": 1})):
            with pytest.raises(TypeError) as ours:
                cls(*args, **kwargs)
            with pytest.raises(TypeError) as theirs:
                named_tuple(*args, **kwargs)
            assert str(ours.value) == str(theirs.value)
            assert str(ours.value).startswith(f"{cls.__name__}.__new__() ")


def test_field_names_follow_the_named_tuple_rules():
    with pytest.raises(ValueError, match=r"Twice: fields \('id', 'span', 'id'\) repeat a name"):
        @record
        class Twice(m.ActivityNode):
            id: str
    with pytest.raises(ValueError, match=r"Hidden: fields \('_fields',\) repeat a name or start"):
        @record
        class Hidden:
            _fields: tuple


def test_subclass_fields_follow_the_base_fields():
    assert m.ActivityNode._fields == ("id", "span")
    for cls in (m.InitialNode, m.FinalNode, m.MergeNode, m.ForkNode, m.JoinNode):
        assert cls._fields == ("id", "span")
    assert m.CallNode._fields == ("id", "span", "task", "agent", "each", "inputs", "outputs")
    assert m.InvokeNode._fields == ("id", "span", "tool", "operation", "inputs", "outputs")
    assert m.DecisionNode._fields == ("id", "span", "subject")
    assert m.StoreNode._fields == ("id", "span", "store")
    call = m.CallNode("c", HERE, "t", "A", None, ("X",), ())
    assert (call.id, call.span, call.task, call.agent, call.inputs) == ("c", HERE, "t", "A", ("X",))
    assert repr(m.StoreNode("store:s", HERE, "s")).startswith("StoreNode(id='store:s', span=")


NEW_CALLS: list[tuple] = []  # the arguments of each call of ``Checked.__new__``


@record
class Checked:
    a: int
    b: int = 2

    def __new__(cls, a: int, b: int = 2):
        NEW_CALLS.append((a, b))
        return tuple.__new__(cls, (a, b))


@record
class CheckedSub(Checked):
    c: int = 3


def test_a_new_defined_on_the_class_still_runs():
    with pytest.raises(ValueError):
        Diagnostic("E001", Severity.ERROR, "", HERE)
    NEW_CALLS.clear()
    value = Checked(1)
    assert NEW_CALLS == [(1, 2)]
    assert pickle.loads(pickle.dumps(value)) == value == copy.copy(value)
    assert NEW_CALLS == [(1, 2)] * 3  # pickle and copy rebuild through ``__new__``
    assert CheckedSub(1, 2) == CheckedSub(1, 2, 3) and CheckedSub._fields == ("a", "b", "c")
    assert NEW_CALLS == [(1, 2)] * 3  # a subclass gets a ``__new__`` of its own fields


def test_a_parsed_model_and_its_diagnostics_survive_pickle(recovery_text):
    result = parse(recovery_text + "\n  bogus\n", "r.a4c")
    model = parse(recovery_text, "r.a4c").model
    assert model.elements and model.agents[0].tasks  # cached views join the pickle
    for value in (model, result.diagnostics, model.elements):
        for other in (pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL)),
                      copy.deepcopy(value)):
            assert other == value and repr(other) == repr(value)
    clone = pickle.loads(pickle.dumps(model))
    assert clone.agents == model.agents and clone.source_map == model.source_map


def test_tokens_are_records():
    token = Token("IDENT", "x", 0, 1)
    assert token != ("IDENT", "x", 0, 1)
    assert (token.type, token.value, token.start, token.end) == ("IDENT", "x", 0, 1)
    assert repr(token) == "Token(type='IDENT', value='x', start=0, end=1)"
