"""Immutable tree nodes that are cheap to build and cheap to define.

`node` makes a class a slotted dataclass that behaves as a frozen one.
`dataclass(slots=True, init=False, repr=False, eq=False)` gives it
`fields`, `is_dataclass` and its `match` order, and generates no code: it
would compile each method it makes on its own, and every fresh tysem
process pays for that at import.

Each node class gets its own `__init__`, `__eq__` and, unless it keeps its
hash, `__hash__`: code compiled once per number of fields, copied with the
class's field names put in (`CodeType.replace`).  `__init__` sets each
field through its slot descriptor; a frozen dataclass's own calls
`object.__setattr__` per field, and builds a two-field node in about 1.6
times the time (CPython 3.11).  `__eq__` and `__hash__` read the fields as
the dataclass's do.  They are hot, and a version shared by every class,
reading the fields with an `attrgetter`, made `App == App` 2.1 times
slower and `hash` of a `Pred` about 1.6 times.

The rest is written once here and shared by every node class: `__repr__`,
`__setattr__`/`__delattr__` that raise `FrozenInstanceError`, and the
pickling state, the fields in order.  A method the class defines itself
stays.  A `KeepsHash` node works its hash out on first use and keeps it,
unpickled: string hashes differ between processes.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import cache
from operator import attrgetter
from types import CodeType, FunctionType


class KeepsHash:
    __slots__ = ("_hash",)


_set_kept_hash = KeepsHash._hash.__set__


def node(cls):
    """A frozen, slotted dataclass whose methods are built as above."""
    names = tuple(cls.__annotations__)
    # a docstring spares dataclass an `inspect.signature` of the class
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}({', '.join(names)})"
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    rename = {f"f{i}": n for i, n in enumerate(names)}
    setters = {f"_s{i}": getattr(cls, n).__set__ for i, n in enumerate(names)}
    defaults = tuple(f.default for f in fields(cls)
                     if f.default is not MISSING) or None
    methods = dict(_SHARED)
    for name, code in _compiled(len(names)).items():
        code = code.replace(
            co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
            co_names=tuple(rename.get(n, n) for n in code.co_names))
        methods[name] = FunctionType(code, setters, name)
        methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
    methods["__init__"].__defaults__ = defaults
    if issubclass(cls, KeepsHash):
        methods["__hash__"] = _kept_hash(attrgetter(*names))
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    return cls


@cache
def _compiled(k: int) -> dict[str, CodeType]:
    """`__init__`, `__eq__` and `__hash__` for the fields f0 .. f{k-1}, the
    first setting each through its slot descriptor _s0 .. _s{k-1}."""
    fs = [f"f{i}" for i in range(k)]
    mine, theirs = (",".join(f"{s}.{f}" for f in fs) + ","
                    for s in ("self", "other"))
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(fs)}):\n"
         + "".join(f"    _s{i}(self, {f})\n" for i, f in enumerate(fs))
         + "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         "    return NotImplemented\n"
         f"def __hash__(self):\n    return hash(({mine}))\n", namespace)
    return {name: namespace[name].__code__
            for name in ("__init__", "__eq__", "__hash__")}


def _repr(self):
    return (f"{type(self).__qualname__}("
            + ", ".join(f"{n}={getattr(self, n)!r}"
                        for n in self.__match_args__) + ")")


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self):
    return [getattr(self, n) for n in self.__match_args__]


def _setstate(self, state):
    self.__init__(*state)


def _kept_hash(values):
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(values(self))
            _set_kept_hash(self, h)
            return h
    return __hash__


_SHARED = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr,
           "__getstate__": _getstate, "__setstate__": _setstate}
