"""Immutable tree nodes that are cheap to build.

`node` makes a class a frozen dataclass with slots whose `__init__` sets
each field through its slot descriptor.  A frozen dataclass's own calls
`object.__setattr__` per field, and builds a two-field node in about 1.6
times the time (CPython 3.11).  `==`, `repr`, `match`, `fields`, pickling and
`FrozenInstanceError` are the dataclass's.  A `KeepsHash` node works its
hash out on first use and keeps it, unpickled: string hashes differ between
processes.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from operator import attrgetter


class KeepsHash:
    __slots__ = ("_hash",)


_set_kept_hash = KeepsHash._hash.__set__


def node(cls=None, /, **options):
    """`dataclass(frozen=True, slots=True, **options)` with the faster
    `__init__`."""
    if cls is None:
        return lambda c: node(c, **options)
    names = list(cls.__annotations__)
    if issubclass(cls, KeepsHash):
        cls.__hash__ = _kept_hash(attrgetter(*names))
    # a docstring spares dataclass an `inspect.signature` of the class
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}({', '.join(names)})"
    cls = dataclass(frozen=True, slots=True, init=False, **options)(cls)
    setters = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    body = "".join(f"    _set_{n}(self, {n})\n" for n in names)
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", setters)
    init = setters["__init__"]
    init.__defaults__ = tuple(f.default for f in fields(cls)
                              if f.default is not MISSING) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


def _kept_hash(values):
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(values(self))
            _set_kept_hash(self, h)
            return h
    return __hash__
