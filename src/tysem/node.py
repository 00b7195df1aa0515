"""Immutable tree nodes that are cheap to build and cheap to define, one
traversal over trees of them, and one printer.

`node` builds a class again as a slotted node class, without `dataclasses`
and the `inspect` it imports: its fields are its annotations, in order.
Each node class gets its own `__init__`, `__eq__` and `__hash__`: code
compiled once per number of fields, copied with the class's field names put
in (`CodeType.replace`).  `__init__` sets each field through its slot
descriptor; a frozen dataclass's own calls `object.__setattr__` per field,
and builds a two-field node in about 1.6 times the time (CPython 3.11).
`__eq__` and `__hash__` read the fields as a dataclass's do.  They are
hot, and a version shared by every class, reading the fields with an
`attrgetter`, made `App == App` 2.1 times slower and `hash` of a `Pred`
about 1.6 times.

The rest is written once here and shared by every node class: `__repr__`,
a frozen dataclass's, `__setattr__`/`__delattr__` that raise
`FrozenInstanceError`, and `__reduce__`, which copies and pickles a node
as its class called on its fields.  A method the class defines itself
stays.  A node holds its fields and nothing else: its hash is worked out
at each use.

`Tree` walks one kind of tree, kernel terms and types or formulas, from
a table of the fields holding each class's children, and `emit` prints
one from a table of layouts, one per class.  Each runs on an explicit
stack, so no shape of tree costs a Python frame per level, and no binder
copies the names in scope.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter, is_
from types import CodeType, FunctionType


class FrozenInstanceError(AttributeError):
    """A field of a node was assigned or deleted."""


def node(cls):
    """cls built again as a slotted node class, its fields its annotations;
    those given a value in its body, which come last, take it as their
    default.  Its methods are built as above."""
    body = vars(cls)
    names = tuple(body.get("__annotations__", ()))
    rename = {f"f{i}": n for i, n in enumerate(names)}
    setters = {}  # _s0 .. _s{k-1}, once the class has its slots
    methods = dict(_SHARED, __slots__=names, __match_args__=names,
                   __qualname__=cls.__qualname__)
    for name, code in _compiled(len(names)).items():
        code = code.replace(
            co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
            co_names=tuple(rename.get(n, n) for n in code.co_names))
        methods[name] = FunctionType(code, setters, name)
        methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
    methods["__init__"].__defaults__ = tuple(
        body[n] for n in names if n in body) or None
    methods.update((k, v) for k, v in body.items() if k not in names
                   and k not in ("__dict__", "__weakref__"))
    cls = type(cls)(cls.__name__, cls.__bases__, methods)
    setters.update((f"_s{i}", getattr(cls, n).__set__)
                   for i, n in enumerate(names))
    if cls.__repr__ is _repr:
        _REPRS[cls] = _fields_text
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
    return emit(self, _REPRS)


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(self):
    return type(self), tuple(getattr(self, n) for n in self.__match_args__)


_SHARED = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr,
           "__reduce__": _reduce}


# ---------------------------------------------------------------------------
# one traversal


def fresh_name(base: str, avoid) -> str:
    """The first of base1, base2, ... not in `avoid`, base's trailing
    digits and primes dropped."""
    base, i = base.rstrip("0123456789'") or "v", 1
    while (name := f"{base}{i}") in avoid:
        i += 1
    return name


def _getter(fields: list[str]):
    """A function from a node to the tuple of its `fields`."""
    if len(fields) != 1:
        return attrgetter(*fields) if fields else lambda n: ()
    return lambda n, get=attrgetter(*fields): (get(n),)


def _builder(cls, kept: list[str], kids: list[str], star: bool, name=None):
    """A function (n, [name,] *children) building a cls node with n's `kept`
    fields, one of them another name, and the children in `kids`: after
    the kept fields, or before one kept field."""
    if name is not None:
        i = kept.index(name)
        before, after = _getter(kept[:i]), _getter(kept[i + 1:])
        if not i:
            return lambda n, v, *k: cls(v, *after(n), *k)
        return lambda n, v, *k: cls(*before(n), v, *after(n), *k)
    if not kept:
        return lambda n, *k: cls(*k)
    get = attrgetter(*kept)
    if len(kept) > 1:
        return lambda n, *k: cls(*get(n), *k)
    if star:
        return lambda n, *k: cls(get(n), k)
    if kids[0] == cls.__match_args__[0]:  # children first
        return lambda n, *k: cls(*k, get(n))
    return lambda n, *k: cls(get(n), *k)


class Tree:
    """The walks over one kind of tree.  `kids[cls]` names the fields of
    cls holding its children, left to right (`*f`: a field holding a tuple
    of them), and `names[cls]` the field holding the name a node carries,
    a binder's or a variable's; a binder's body is its last child.  From
    them, `children[cls](n)` is n's children, `rebuild[cls](n, *kids)` n
    with others, and `names[cls]` (getter of n's name, `fn(n, name, *kids)`
    building n with another name too)."""

    def __init__(self, kids: dict[type, str], names: dict[type, str]):
        self.children, self.rebuild, self.names = {}, {}, {}
        for cls, spec in kids.items():
            star, fields = spec.startswith("*"), spec.lstrip("*").split()
            kept = [f for f in cls.__match_args__ if f not in fields]
            self.children[cls] = attrgetter(*fields) if star else \
                _getter(fields)
            if fields:
                self.rebuild[cls] = _builder(cls, kept, fields, star)
            if cls in names:
                self.names[cls] = (attrgetter(names[cls]), _builder(
                    cls, kept, fields, star, names[cls]))

    def nodes(self, root, into=None):
        """root and every node below it, in pre-order, left to right.  With
        `into`, only the children of nodes whose class is in it are
        visited."""
        children, stack = self.children, [root]
        while stack:
            n = stack.pop()
            yield n
            if into is None or type(n) in into:
                stack += children[type(n)](n)[::-1]

    def transform(self, root, visit, env=None, visited=None):
        """root with nodes replaced, top down.  `visit(n, env)`, called on
        each node reached in pre-order (with `visited`, on those whose class
        is in it), returns None to rebuild n from its children transformed
        under env; a pair (name, body_env) to build n carrying `name`, its
        body transformed under body_env and any other child under env; or
        the node that takes n's place.  A node whose children come back as
        they were, and that carries the name it carried, is kept: an
        unchanged tree is the very object."""
        children, rebuild, names = self.children, self.rebuild, self.names
        out, stack = [], [root]  # results; nodes to visit and frames to finish
        pop, push, emit = stack.pop, stack.append, out.append
        while stack:
            n = pop()
            t = type(n)
            if t is tuple:
                if len(n) == 1:  # the env of a binder's body, its last child
                    env = n[0]
                    continue
                n, kids, env, name = n  # a frame, whose children are done
                t, k = type(n), len(kids)
                if k == 1:
                    if name is not None:
                        n = names[t][1](n, name, out[-1])
                    elif out[-1] is not kids[0]:
                        n = rebuild[t](n, out[-1])
                elif name is None and k == 2:
                    b = out.pop()
                    if out[-1] is not kids[0] or b is not kids[1]:
                        n = rebuild[t](n, out[-1], b)
                else:
                    new = out[-k:]
                    del out[len(out) - k + 1:]
                    if name is not None:
                        n = names[t][1](n, name, *new)
                    elif not all(map(is_, new, kids)):
                        n = rebuild[t](n, *new)
                out[-1] = n
                continue
            m = visit(n, env) if visited is None or t in visited else None
            if m is None:
                name, body_env = None, env
            elif type(m) is tuple:
                name, body_env = m
                if name == names[t][0](n):
                    name = None
            else:
                emit(m)
                continue
            kids = children[t](n)
            if not kids:
                emit(n if name is None else names[t][1](n, name))
            elif body_env is env or len(kids) == 1:
                push((n, kids, env, name))
                env = body_env
                stack += kids[::-1]
            else:
                stack += ((n, kids, env, name), kids[-1], (body_env,),
                          *kids[-2::-1])
        return out[0]

    def fold(self, root, combine, into=None, enter=()):
        """`combine(m, results)` at every node m, bottom-up, left to right,
        where `results` holds the folds of m's children, and for a class in
        `enter`, `enter[cls](m)` as m is reached, before its children.  With
        `into`, the children of nodes whose class is not in it are skipped
        and their results are empty."""
        children = self.children
        out, stack = [], [root]  # results; nodes to visit and frames to finish
        pop, push, emit = stack.pop, stack.append, out.append
        while stack:
            n = pop()
            t = type(n)
            if t is tuple:  # a frame, whose children are done
                n, k = n
                out[-k:] = [combine(n, out[-k:])]
            elif into is not None and t not in into:
                emit(combine(n, ()))
            elif kids := children[t](n):
                if t in enter:
                    enter[t](n)
                push((n, len(kids)))
                stack += kids[::-1]
            else:
                emit(combine(n, []))
        return out[0]

    def free(self, root, leaf: type, binders, bodies=None) -> set[str]:
        """The names of the `leaf` nodes free in root: those no node of a
        class in `binders` above them binds.  `bodies`, when given,
        receives by id() the free names of each binder's body."""
        names = self.names
        if not self.children[type(root)](root):
            return {root.name} if type(root) is leaf else frozenset()

        def combine(n, kids):  # a set is shared up the tree, never changed
            t = type(n)
            if t is leaf:
                return {n.name}
            out = kids[0] if len(kids) == 1 else frozenset().union(*kids)
            if t in binders:
                if bodies is not None:
                    bodies[id(n)] = kids[-1]
                if (name := names[t][0](n)) in out:
                    out = out - {name}
            return out

        return self.fold(root, combine)

    def substitute(self, root, var: str, repl, leaf: type, binders,
                   renamed=None):
        """root with `repl` in place of each free `leaf` named var, a subtree
        in which nothing changes kept as it is.  A binder that would capture
        a free name of repl is renamed by `fresh_name`, avoiding the free
        names of repl and of its body, its variable `renamed(binder, name)`;
        with `renamed` None, it captures.  The renames run in the same pass:
        the env holds the substitutions pending below a node, (name,
        replacement, its free names), in the order substituting again in a
        renamed binder's body would apply them.  The free names of the
        bodies below a binder are worked out once, where a capture
        threatens."""
        if not self.children[type(root)](root):
            return repl if type(root) is leaf and root.name == var else root
        names, bodies = self.names, {}  # id(binder) -> free names of its body

        def visit(n, subs):
            if type(n) is leaf:
                for x, r, _ in subs:
                    if n.name == x:
                        n = r
                return n
            name, shadows, threat = names[type(n)][0](n), False, False
            for x, _, fv in subs:
                if x == name:
                    shadows = True
                elif name in fv:
                    threat = True
            if not (shadows or threat):
                return None
            body = None  # the free names of n's body, as substituted so far
            if threat:
                if (body := bodies.get(id(n))) is None:
                    self.free(n, leaf, binders, bodies)
                    body = bodies[id(n)]
            below = []
            for sub in subs:
                x, r, fv = sub
                if x == name or body is not None and x not in body:
                    continue  # bound here, or not free below
                if name in fv:
                    fresh = fresh_name(name, fv | body)
                    below.append((name, renamed(n, fresh), {fresh}))
                    if name in body:
                        body = body - {name} | {fresh}
                    name = fresh
                if body is not None and sub is not subs[-1]:
                    body = body - {x} | fv  # as the next ones see it
                below.append(sub)
            return (name, tuple(below)) if below else n

        fv = set() if renamed is None else self.free(repl, leaf, binders)
        return self.transform(root, visit, ((var, repl, fv),),
                              {leaf, *binders})

    def canonical(self, root, fresh, binders: dict):
        """root with the name each binder binds, and each variable bound
        to it, renamed `fresh(binder, depth)`, depth the number of binders
        whose bodies hold the binder; `binders[cls]` is the class of the
        variables cls binds.  Each variable name keeps a stack of its new
        names, and a binder's body is walked under the scope (enclosing
        scope, stacks, name, new name, depth)."""
        names, inner = self.names, [None]  # the innermost scope entered
        stacks = {cls: {} for cls in binders.values()}  # name -> new names

        def at(scope):  # leave the scopes walked out of; enter `scope`
            # again if an earlier child of its binder (an annotation) left it
            s = inner[0]
            while s is not scope and s is not (scope and scope[0]):
                s[1][s[2]].pop()
                s = s[0]
            if s is not scope:
                scope[1][scope[2]].append(scope[3])
            inner[0] = scope

        def visit(n, scope):
            t = type(n)
            if t in stacks:
                if inner[0] is not scope:
                    at(scope)
                bound = stacks[t].get(n.name)
                if bound and t not in self.rebuild:  # a leaf
                    return names[t][1](n, bound[-1])
                return (bound[-1], scope) if bound else None
            if inner[0] is not scope:
                at(scope)
            depth, name, renames = scope[4] if scope else 0, names[t][0](n), \
                stacks[binders[t]]
            new = fresh(n, depth)
            renames.setdefault(name, []).append(new)
            inner[0] = scope = (scope, renames, name, new, depth + 1)
            return new, scope

        return self.transform(root, visit, None, {*stacks, *binders})


# ---------------------------------------------------------------------------
# one printer


def emit(root, layouts) -> str:
    """The text of root, written from one stack of text and nodes.  A
    string popped is written out; a node n is replaced by its layout,
    `layouts[type(n)](n)`: its text, or its text and children, last first.
    A layout puts the parentheses a child needs around it, so a node's text
    never depends on where it stands.

    A pair (text, children) that a layout pushes prints each child after
    the text, and each once per call for each distinct object: the first
    time, the span of its text is marked on the stack, and then that text
    is written again.  A discourse conjoins each stored analysis's formula
    many times, so it prints a few distinct conjuncts however long it is,
    and pushes one pair for them all.  A root whose layout is its text (a
    leaf) is returned before the stack is built."""
    text = layouts[type(root)](root)
    if type(text) is str:
        return text
    out, stack, texts = [], [*text], {}  # id(child) -> its text, or its span
    pop, write = stack.pop, out.append
    while stack:
        n = pop()
        t = type(n)
        if t is str:
            write(n)
        elif t is tuple:  # (text, children)
            before, kids = n
            kids = iter(kids)
            for kid in kids:
                write(before)
                text = texts.get(id(kid))
                if text is None:  # printed here, then the children after
                    texts[id(kid)] = span = [len(out), None]
                    stack += ((before, kids), span, kid)
                    break
                if type(text) is list:
                    text = texts[id(kid)] = "".join(out[text[0]:text[1]])
                write(text)
        elif t is list:  # the end of a span
            n[1] = len(out)
        else:
            text = layouts[t](n)
            if type(text) is str:
                write(text)
            else:
                stack += text
    return "".join(out)


def enclose(opening: str, items, sep: str):
    """What `opening`, items separated by sep, and `)` print as, last
    first."""
    if len(items) < 2:
        return (")", *items, opening)
    out = [")"] + [sep] * (2 * len(items) - 1) + [opening]
    out[1::2] = items[::-1]
    return out


_REPRS = {}  # the layouts of the shared `__repr__`, a frozen dataclass's


def _repr_item(v):
    return v if type(v) in _REPRS else repr(v)


def _fields_text(n):
    """`Cls(name=value, ...)`, last first."""
    out = [")"]
    for name in reversed(n.__match_args__):
        v = getattr(n, name)
        if type(v) is not tuple:
            out.append(_repr_item(v))
        elif len(v) == 1:
            out += (",)", _repr_item(v[0]), "(")
        else:
            out += enclose("(", [_repr_item(x) for x in v], ", ")
        out.append(f", {name}=")
    out[-1] = f"{type(n).__qualname__}({out[-1][2:]}"
    return out
