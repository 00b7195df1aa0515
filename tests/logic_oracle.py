"""The recursive formula walkers that `tysem.logic.transform`, `fold` and
`canon_formula` replaced, kept as the oracle of their explicit-stack
versions, the kernel route to presuppositions that reading them off the
formula replaced, and the formula printers and `repr` that `tysem.node.emit`
replaced.

The walkers recurse once per node, except down a conjunction's left spine,
and a visit that binds a name transforms the binder's body itself, with a
new env.  The only change is that a node is rebuilt through the table of
`logic`'s traversal.  `old_substitute` renames a capturing binder as the
kernel's substitution did, by substituting its new name in its body first.
"""

import itertools
from operator import attrgetter, is_

from kernel_oracle import _fresh_name
from tysem import kernel
from tysem.kernel import (App, Const, TyApp, TypingContext, free_vars,
                          normalize)
from tysem.logic import (DEF, INDEF, UNIVERSAL, _CONST_OF_MODE, _TREE, And,
                         Eps, Eq, Exists, Forall, Implies, LApp, LConst, LVar,
                         Not, Or, Pred, TruthConst, _bound, canon_formula,
                         extract_formula)
from tysem.node import _repr


def old_transform(n, visit, env=None, rebuilt=None):
    """n with nodes replaced, from the top down: `visit(m, env)` returns the
    node that takes m's place, or None to rebuild m from its children
    transformed in turn.  A visit that binds a name transforms the body
    itself, with a new env.  `rebuilt`, when given, receives each node
    rebuilt, by the id() of the node it replaces."""
    spine = []
    while (out := visit(n, env)) is None:
        t = type(n)
        if t is not And:
            kids = _TREE.children[t](n)
            new = [old_transform(k, visit, env, rebuilt) for k in kids]
            if all(map(is_, new, kids)):
                out = n
            else:
                out = _TREE.rebuild[t](n, *new)
                if rebuilt is not None:
                    rebuilt[id(n)] = out
            break
        spine.append(n)
        n = n.left
    for node in reversed(spine):
        right = old_transform(node.right, visit, env, rebuilt)
        if out is node.left and right is node.right:
            out = node
        else:
            out = And(out, right)
            if rebuilt is not None:
                rebuilt[id(node)] = out
    return out


def old_fold(n, combine, into=None):
    """`combine(m, results)` at every node m, bottom-up, left to right, where
    `results` holds the folds of m's children.  With `into`, the children of
    nodes whose class is not in it are skipped and their results are
    empty."""
    spine = []
    while type(n) is And and (into is None or And in into):
        spine.append(n)
        n = n.left
    if into is None or type(n) in into:
        out = combine(n, [old_fold(k, combine, into)
                          for k in _TREE.children[type(n)](n)])
    else:
        out = combine(n, ())
    for node in reversed(spine):
        out = combine(node, [out, old_fold(node.right, combine, into)])
    return out


def old_canon_formula(f):
    """f with its bound variables renamed `!q0`, `!q1`, ... in pre-order, so
    that alpha-equivalent formulas have equal canonical forms."""
    fresh = (f"!q{i}" for i in itertools.count())

    def visit(n, env):
        t = type(n)
        if t is LVar:
            return LVar(env[n.name], n.sort) if n.name in env else n
        if t is Exists or t is Forall or t is Eps:
            name = next(fresh)
            body = old_transform(n.body, visit, {**env, _bound(n): name})
            if t is Eps:
                return Eps(n.mode, n.sort, name, body)
            return t(name, n.sort, body)
        return None

    return old_transform(f, visit, {})


def old_free_vars(f):
    """The variables free in a formula or a term."""
    def combine(n, kids):
        if type(n) is LVar:
            return {n.name}
        out = set().union(*kids)
        out.discard(_bound(n))
        return out

    return old_fold(f, combine)


def old_substitute(f, var, repl, rename=True):
    """f with `repl` in place of the free variable `var`.  A binder that
    would capture a variable of repl is renamed, its new name substituted
    in its body before repl is; with `rename` false it captures."""
    fv = old_free_vars(repl) if rename else set()

    def visit(n, _):
        t = type(n)
        if t is LVar:
            return repl if n.name == var else n
        if t is Exists or t is Forall or t is Eps:
            bound = _bound(n)
            if bound == var:
                return n
            if bound in fv and var in (inner := old_free_vars(n.body)):
                name = _fresh_name(bound, fv | inner)
                body = old_substitute(n.body, bound, LVar(name, n.sort))
                body = old_transform(body, visit)
                if t is Eps:
                    return Eps(n.mode, n.sort, name, body)
                return t(name, n.sort, body)
        return None

    return old_transform(f, visit)


def old_presuppositions(term, ctx=None):
    """The restriction of every indefinite and unresolved definite applied
    to its own choice term, on the kernel term: `App(pred, t)` is
    normalized, typed (`ctx` types the constants; the variables bound above
    the choice term are added to it) and extracted, and alpha-duplicates
    are emitted once."""
    found = {}  # canon_formula key -> first formula
    for t in kernel.nodes(term):
        match t:
            case App(TyApp(Const("eps" | "ieps", _), _), pred):
                body = normalize(App(pred, t))
                local = ctx
                if ctx is not None and (free := free_vars(body)):
                    local = TypingContext(ctx.sorts, ctx.consts,
                                          {**ctx.vars, **free})
                candidate = extract_formula(body, local)
                found.setdefault(canon_formula(candidate), candidate)
    return list(found.values())


# ---------------------------------------------------------------------------
# printing: recursive, with loops down a conjunction's left spine and a
# quantifier run


def _and_spine(f):
    """The formula at the bottom of f's left And spine, and the right
    operands met on the way down, innermost first: a discourse is one long
    left-nested conjunction, which the printers and `repr` loop down."""
    rights = []
    while isinstance(f, And):
        rights.append(f.right)
        f = f.left
    rights.reverse()
    return f, rights


_EPS_ASCII = {INDEF: "eps", DEF: "the", UNIVERSAL: "tau"}
_EPS_UNICODE = {INDEF: "ε", DEF: "ιε", UNIVERSAL: "τ"}
_QUANTIFIER = {Exists: ("exists ", "∃"), Forall: ("forall ", "∀")}  # [uni]

_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4, 5


def old_print_formula(f, style="ascii"):
    """Deterministic canonical rendering; parentheses are minimal under the
    precedence not < and < or < implies, with quantifier bodies
    parenthesized when they are binary connectives.  Each distinct conjunct
    object of a conjunction is printed once (`_each_once`)."""
    if style == "sexpr":
        return _sexpr(f)
    if style in ("ascii", "unicode"):
        return _infix_f(f, 0, style)
    raise ValueError(f"unknown style '{style}'")


def _infix_f(f, context, style):
    uni = style == "unicode"

    def binop(symbol_a, symbol_u, prec, left, right):
        sym = symbol_u if uni else symbol_a
        text = (f"{_infix_f(left, prec, style)} {sym} "
                f"{_infix_f(right, prec + 1, style)}")
        return f"({text})" if prec < context else text

    match f:
        case TruthConst(v):
            return "true" if v else "false"
        case Pred(name, args):
            if not args:
                return name
            return f"{name}({','.join(_infix_t(a, style) for a in args)})"
        case Eq(l, r):
            text = f"{_infix_t(l, style)} = {_infix_t(r, style)}"
            return f"({text})" if _PREC_ATOM - 1 < context else text
        case Not(op):
            sym = "¬" if uni else "not "
            text = sym + _infix_f(op, _PREC_NOT, style)
            return f"({text})" if _PREC_NOT < context else text
        case And():
            first, rights = _and_spine(f)
            sym = " ∧ " if uni else " & "
            text = sym.join([_infix_f(first, _PREC_AND, style)] + _each_once(
                lambda r: _infix_f(r, _PREC_AND + 1, style), rights))
            return f"({text})" if _PREC_AND < context else text
        case Or(l, r):
            return binop("|", "∨", _PREC_OR, l, r)
        case Implies(l, r):
            sym = "→" if uni else "->"
            text = (f"{_infix_f(l, _PREC_IMPLIES + 1, style)} {sym} "
                    f"{_infix_f(r, _PREC_IMPLIES, style)}")
            return f"({text})" if _PREC_IMPLIES < context else text
        case Exists() | Forall():
            heads = []  # a quantifier prefix: loop, do not recurse
            while isinstance(f, (Exists, Forall)):
                heads.append(f"{_QUANTIFIER[type(f)][uni]}{f.var}:{f.sort}. ")
                f = f.body
            inner = _infix_f(f, 0, style)
            if isinstance(f, (And, Or, Implies)):
                inner = f"({inner})"
            text = "".join(heads) + inner
            return f"({text})" if context > 0 else text
    raise AssertionError(f)


def _infix_t(t, style):
    match t:
        case LVar(name, _) | LConst(name, _):
            return name
        case LApp(fn, args):
            return f"{fn}({','.join(_infix_t(a, style) for a in args)})"
        case Eps(mode, sort, hole, body):
            head = (_EPS_UNICODE if style == "unicode" else _EPS_ASCII)[mode]
            return f"{head}[{sort}]({hole}. {_infix_f(body, 0, style)})"
    raise AssertionError(t)


_SEXPR_HEAD = {
    TruthConst: lambda n: "true" if n.value else "false",
    LVar: attrgetter("name"), LConst: attrgetter("name"),
    Pred: attrgetter("name"), LApp: attrgetter("fn"),
    Eps: lambda n: f"{_CONST_OF_MODE[n.mode]} {n.sort} {n.hole}",
    Exists: lambda n: f"exists ({n.var} {n.sort})",
    Forall: lambda n: f"forall ({n.var} {n.sort})",
    Not: lambda n: "not", Or: lambda n: "or", Implies: lambda n: "implies",
    Eq: lambda n: "=",
}


def _each_once(show, items):
    """show(x) for each of items, worked out once per distinct object: the
    sentences one stored analysis serves share its formula, so a discourse
    has a few distinct conjuncts however long it is."""
    ids = list(map(id, items))
    texts = {i: show(x) for i, x in dict(zip(ids, items)).items()}
    return list(map(texts.__getitem__, ids))


def _sexpr(n):
    if type(n) is And:
        first, rights = _and_spine(n)
        return "".join(["(and " * len(rights), _sexpr(first)] + _each_once(
            lambda r: f" {_sexpr(r)})", rights))
    prefix = []  # a quantifier prefix: loop, do not recurse
    while type(n) is Exists or type(n) is Forall:
        prefix.append(f"({_SEXPR_HEAD[type(n)](n)} ")
        n = n.body
    if prefix:
        return "".join(prefix) + _sexpr(n) + ")" * len(prefix)
    head = _SEXPR_HEAD[type(n)](n)
    kids = _TREE.children[type(n)](n)
    # `(f )` keeps its parentheses, or it would read back as a constant
    if not kids and type(n) is not LApp:
        return head
    return f"({head} {' '.join(map(_sexpr, kids))})"


def old_repr(v):
    """`repr` as the shared node `__repr__` and `And.__repr__` printed it,
    a node's fields, and the items of a tuple, printed by this function in
    turn."""
    if type(v) is And:
        first, rights = _and_spine(v)
        return "".join(["And(left=" * len(rights), old_repr(first)]
                       + [f", right={old_repr(r)})" for r in rights])
    if type(v) is tuple:
        return "(" + ", ".join(map(old_repr, v)) + \
            ("," if len(v) == 1 else "") + ")"
    if type(v).__repr__ is not _repr:
        return repr(v)
    return (f"{type(v).__qualname__}("
            + ", ".join(f"{n}={old_repr(getattr(v, n))}"
                        for n in v.__match_args__) + ")")
