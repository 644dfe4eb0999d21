"""Immutable records, the one form of every model, diagnostic and result type.

``@record`` turns a class body of annotated fields, written as for a
dataclass, into one subclass of ``tuple`` with those fields, built without
generating code per class. Each field is read through the C descriptor that
``collections.namedtuple`` uses. ``__new__`` takes the fields by position
or keyword, with trailing defaults; its code is compiled once per number of
fields from one template and given each class's field names, so a record is
built by the same bytecode as a named tuple. ``repr`` is the named tuple's
text, and ``copy`` and ``pickle`` rebuild a record through ``__new__``.

Field names follow ``namedtuple``'s rules: none starts with an underscore,
so none can hide ``_fields``, and none is declared twice; a name that breaks
them raises ``ValueError``. A record equals only a record of its own class,
never a plain tuple; fields named in ``ignore`` take no part in equality or
hashing; setting an attribute raises ``AttributeError``. A class that
checks its arguments defines ``__new__``, and keeps it. No field defaults to
a mutable value, so no two instances can share one. A class that caches
values with ``functools.cached_property`` keeps an instance dictionary for
them.
"""

from __future__ import annotations

from collections import _tuplegetter
from functools import cached_property
from operator import itemgetter
from types import CodeType, FunctionType


class Record(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _ignored: frozenset[str] = frozenset()
    _compared: itemgetter  # picks the fields that equality and hashing see

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == other._compared(other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to '{name}' of immutable {type(self).__name__}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


# the globals of every generated ``__new__``, as ``namedtuple`` gives its own
_NEW_GLOBALS = {"_tuple_new": tuple.__new__, "__builtins__": {}}
_NEW_CODE: dict[int, CodeType] = {}  # number of fields -> the template's code


def _new(name: str, fields: tuple[str, ...], defaults: tuple) -> FunctionType:
    """``__new__`` of the record class ``name``: the template's code for
    ``len(fields)`` fields, its arguments renamed to ``fields``."""
    code = _NEW_CODE.get(len(fields))
    if code is None:
        args = "".join(f"_{i}, " for i in range(len(fields)))
        module = compile(f"lambda _cls, {args}: _tuple_new(_cls, ({args}))", "<record>", "eval")
        code = _NEW_CODE[len(fields)] = module.co_consts[0]
    code = code.replace(co_varnames=("_cls",) + fields, co_name="__new__")
    new = FunctionType(code, _NEW_GLOBALS, "__new__", defaults or None)
    new.__qualname__ = f"{name}.__new__"  # argument errors name it, as in ``namedtuple``
    return new


def record(cls=None, /, *, ignore: str = ""):
    """Class decorator, bare or as ``@record(ignore="span")``. A subclass of a
    record adds its fields after the base's and ignores what the base does."""

    def build(cls: type) -> type:
        base = next((b for b in cls.__bases__ if issubclass(b, Record)), Record)
        body = vars(cls)
        own = tuple(body.get("__annotations__", ()))
        defaults = tuple(body[f] for f in own if f in body)
        if any(f not in body for f in own[len(own) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        fields = base._fields + own
        if len(set(fields)) < len(fields) or any(f.startswith("_") for f in fields):
            raise ValueError(f"{cls.__name__}: fields {fields} repeat a name or start with '_'")
        ignored = base._ignored | frozenset(ignore.split())
        namespace = {k: v for k, v in body.items() if k not in own + ("__dict__", "__weakref__")}
        if not any(isinstance(v, cached_property) for v in namespace.values()):
            namespace["__slots__"] = ()
        for i, field in enumerate(own, len(base._fields)):
            namespace[field] = _tuplegetter(i, f"Alias for field number {i}")
        if "__new__" not in namespace:
            namespace["__new__"] = _new(cls.__qualname__, fields, defaults)
        namespace["_fields"] = fields
        namespace["_ignored"] = ignored
        namespace["_compared"] = itemgetter(*(i for i, f in enumerate(fields) if f not in ignored))
        return type(cls.__name__, (base,), namespace)

    return build if cls is None else build(cls)
