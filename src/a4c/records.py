"""Immutable records, the one form of every model, diagnostic and result type.

``@record`` turns a class body of annotated fields, written as for a
dataclass, into a subclass of a ``collections.namedtuple`` with those fields:
construction, trailing defaults, ``repr`` and field access are the named
tuple's, and no code is generated per class. A record equals only a record
of its own class, never a plain tuple; fields named in ``ignore`` take no
part in equality or hashing; setting an attribute raises ``AttributeError``.
A class that checks its arguments defines ``__new__``. No field defaults to
a mutable value, so no two instances can share one. A class that caches
values with ``functools.cached_property`` keeps an instance dictionary for
them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import itemgetter


class Record(tuple):
    __slots__ = ()
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


def record(cls=None, /, *, ignore: str = ""):
    """Class decorator, bare or as ``@record(ignore="span")``. A subclass of a
    record adds its fields after the base's and ignores what the base does."""

    def build(cls: type) -> type:
        base = next((b for b in cls.__bases__ if issubclass(b, Record)), Record)
        body = vars(cls)
        own = tuple(body.get("__annotations__", ()))
        defaults = [body[f] for f in own if f in body]
        if any(f not in body for f in own[len(own) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        fields = getattr(base, "_fields", ()) + own
        ignored = base._ignored | frozenset(ignore.split())
        namespace = {k: v for k, v in body.items() if k not in own + ("__dict__", "__weakref__")}
        if not any(isinstance(v, cached_property) for v in namespace.values()):
            namespace["__slots__"] = ()
        namespace["_ignored"] = ignored
        namespace["_compared"] = itemgetter(*(i for i, f in enumerate(fields) if f not in ignored))
        tuple_base = namedtuple(cls.__name__, fields, defaults=defaults, module=cls.__module__)
        return type(cls.__name__, (tuple_base, base), namespace)

    return build if cls is None else build(cls)
