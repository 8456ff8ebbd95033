"""Immutable records over ``__slots__``, written out rather than generated.

A subclass of :class:`Record` names its fields once, as
``__slots__ = _fields = (...)``, and writes an ``__init__`` that passes
them, in that order, to :meth:`Record._fill` (a wrong count raises
``ValueError``).  It then behaves like a frozen
dataclass: assigning or deleting a field raises ``AttributeError``,
``repr`` names every field, ``==`` and ``hash`` read the fields as one
tuple and never equal an instance of another class, and ``copy`` and
``pickle`` rebuild it through ``__init__``.  No method is compiled when the
class is made, and ``dataclasses`` (with ``inspect`` and ``ast``) is not
imported, which keeps it out of every cold start of the command line.
"""

from __future__ import annotations

__all__ = ["Record"]

_set = object.__setattr__


class Record:
    """Base of the immutable records; subclasses set ``_fields`` and ``__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        """The fields by name, in declaration order."""
        return {name: getattr(self, name) for name in self._fields}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        return type(self), self._astuple()
