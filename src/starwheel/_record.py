"""Plain bases for the library's result types, and ``Frozen`` for
``core.Graph`` too.

Each type lists its fields as ``__slots__`` and fills them in its own
``__init__``. The bases supply what ``dataclasses`` would generate:
equality by fields between instances of one class, a
``Name(field=value, ...)`` repr, pickling through the constructor, and
for ``Frozen`` types no assignment or deletion and a hash of the fields.
The library does not use ``dataclasses`` itself: importing it loads
``inspect``, ``ast``, ``dis`` and ``tokenize``, and each decorated class
compiles its generated methods in every fresh interpreter: together about
15 ms and 0.9 MB of peak memory on each ``import starwheel`` (CPython
3.11).
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # the fields can be reassigned

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __hash__(self):
        return hash(self._fields())
