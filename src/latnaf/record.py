"""Immutable value classes without ``dataclasses``.

A ``Record`` subclass annotates its fields in the class body, as a
dataclass would, and writes them once in its own ``__init__`` through
``vars(self)``. Equality (same class only), hash and repr read the
annotated fields in order; a field whose name starts with an underscore
is a cache kept out of all three. Assignment and deletion raise
``AttributeError``; ``functools.cached_property`` still fills the
instance dict.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__dict__.get("__annotations__")
        if names:
            cls._fields = tuple(k for k in names if not k.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
