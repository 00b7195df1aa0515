"""The recursive formula walkers that `tysem.logic.transform`, `fold` and
`canon_formula` replaced, kept as the oracle of their explicit-stack
versions, and the kernel route to presuppositions that reading them off
the formula replaced.

The walkers recurse once per node, except down a conjunction's left spine,
and a visit that binds a name transforms the binder's body itself, with a
new env.  The only change is that a node is rebuilt through the table of
`logic`'s traversal.  `old_substitute` renames a capturing binder as the
kernel's substitution did, by substituting its new name in its body first.
"""

import itertools
from operator import is_

from kernel_oracle import _fresh_name
from tysem import kernel
from tysem.kernel import (App, Const, TyApp, TypingContext, free_vars,
                          normalize)
from tysem.logic import (_TREE, And, Eps, Exists, Forall, LVar, _bound,
                         canon_formula, extract_formula)


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
