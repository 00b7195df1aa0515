"""The kernel's walkers as they were before they ran on one traversal
(`tysem.node.Tree`), kept as the oracle of theirs, a step-wise normalizer
built on them, and the term, type and tree printers that `tysem.node.emit`
replaced.

Each recurses once per node, copies the names in scope at a binder, and a
substitution renames a capturing binder by substituting again in its body.
`normalize` here fires the same redexes in the same order as
`kernel.normalize`, so the two must agree with `==`, bound names included.
The oracle imports only the node classes and the step budget from the
kernel; `free_vars`, `free_tyvars` and `_fresh_name` are its own.  Only
`old_print_term`, kept as it was, reads the children off the kernel's
traversal table.
"""

import itertools

from tysem import kernel
from tysem.composer import Leaf
from tysem.errors import (StepBudgetExceeded, TyLamEscape, TypeClash,
                          UnboundName, UnknownSort)
from tysem.kernel import (App, Arrow, BaseSort, Const, DEFAULT_STEP_BUDGET,
                          Lam, Pi, TyApp, TyLam, TypeVar, Var)


def _fresh_name(base, avoid):
    base = base.rstrip("0123456789'")
    if not base:
        base = "v"
    for i in itertools.count(1):
        cand = f"{base}{i}"
        if cand not in avoid:
            return cand
    raise AssertionError("unreachable")


def free_tyvars(n):
    """The type variables free in a type, or in a term's annotations."""
    match n:
        case BaseSort():
            return frozenset()
        case TypeVar(name):
            return frozenset({name})
        case Arrow(dom, cod):
            return free_tyvars(dom) | free_tyvars(cod)
        case Pi(var, body) | TyLam(var, body):
            return free_tyvars(body) - {var}
        case Var(_, ty) | Const(_, ty):
            return free_tyvars(ty)
        case App(fun, arg):
            return free_tyvars(fun) | free_tyvars(arg)
        case Lam(_, ty, body) | TyApp(body, ty):
            return free_tyvars(ty) | free_tyvars(body)
    raise AssertionError(n)


def free_vars(term):
    """Free term variables with their annotated types."""
    match term:
        case Var(name, ty):
            return {name: ty}
        case Const():
            return {}
        case App(fun, arg):
            return {**free_vars(fun), **free_vars(arg)}
        case Lam(var, _, body):
            fv = free_vars(body)
            fv.pop(var, None)
            return fv
        case TyApp(fun, _):
            return free_vars(fun)
        case TyLam(_, body):
            return free_vars(body)
    raise AssertionError(term)


def subst_type(ty, var, repl):
    """ty[repl/var], renaming Pi binders when capture threatens.  A subtype
    in which nothing changes is returned as it is."""
    match ty:
        case TypeVar(name):
            return repl if name == var else ty
        case Arrow(dom, cod):
            d, c = subst_type(dom, var, repl), subst_type(cod, var, repl)
            return ty if d is dom and c is cod else Arrow(d, c)
        case Pi(v, body):
            if v == var:
                return ty
            if v in free_tyvars(repl) and var in free_tyvars(body):
                fresh = _fresh_name(v, free_tyvars(repl) | free_tyvars(body))
                body = subst_type(body, v, TypeVar(fresh))
                return Pi(fresh, subst_type(body, var, repl))
            new = subst_type(body, var, repl)
            return ty if new is body else Pi(v, new)
        case _:
            return ty


def subst_term(term, var, repl):
    """Capture-avoiding term substitution term[repl/var].  A subterm in
    which nothing changes is returned as it is."""
    return _subst_term(term, var, repl, free_vars(repl))


def _subst_term(term, var, repl, repl_fv):
    match term:
        case Var(name, _):
            return repl if name == var else term
        case Const():
            return term
        case App(fun, arg):
            f = _subst_term(fun, var, repl, repl_fv)
            a = _subst_term(arg, var, repl, repl_fv)
            return term if f is fun and a is arg else App(f, a)
        case Lam(v, vty, body):
            if v == var:
                return term
            if v in repl_fv and var in free_vars(body):
                fresh = _fresh_name(v, set(repl_fv) | set(free_vars(body)))
                body = subst_term(body, v, Var(fresh, vty))
                return Lam(fresh, vty, _subst_term(body, var, repl, repl_fv))
            new = _subst_term(body, var, repl, repl_fv)
            return term if new is body else Lam(v, vty, new)
        case TyApp(fun, ty):
            new = _subst_term(fun, var, repl, repl_fv)
            return term if new is fun else TyApp(new, ty)
        case TyLam(a, body):
            new = _subst_term(body, var, repl, repl_fv)
            return term if new is body else TyLam(a, new)
    raise AssertionError(term)


def subst_type_in_term(term, var, repl):
    """Substitute a type for a type variable throughout a term's
    annotations, respecting tylam shadowing.  A subterm in which nothing
    changes is returned as it is."""
    match term:
        case Var(name, ty) | Const(name, ty):
            new = subst_type(ty, var, repl)
            return term if new is ty else type(term)(name, new)
        case App(fun, arg):
            f = subst_type_in_term(fun, var, repl)
            a = subst_type_in_term(arg, var, repl)
            return term if f is fun and a is arg else App(f, a)
        case Lam(v, vty, body):
            t = subst_type(vty, var, repl)
            new = subst_type_in_term(body, var, repl)
            return term if t is vty and new is body else Lam(v, t, new)
        case TyApp(fun, ty):
            f = subst_type_in_term(fun, var, repl)
            t = subst_type(ty, var, repl)
            return term if f is fun and t is ty else TyApp(f, t)
        case TyLam(a, body):
            if a == var:
                return term
            if a in free_tyvars(repl) and var in free_tyvars(body):
                fresh = _fresh_name(a, free_tyvars(repl) | free_tyvars(body))
                body = subst_type_in_term(body, a, TypeVar(fresh))
                return TyLam(fresh, subst_type_in_term(body, var, repl))
            new = subst_type_in_term(body, var, repl)
            return term if new is body else TyLam(a, new)
    raise AssertionError(term)


def spine(term):
    args = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fun
    args.reverse()
    return term, args


def print_term(n):
    """Render a type or a term in the s-expression grammar."""
    match n:
        case Var(name) | Const(name):
            return name
        case App():
            head, args = spine(n)
            return f"({' '.join(map(print_term, [head, *args]))})"
        case Lam(var, var_type, body):
            return f"(lam {var} {print_term(var_type)} {print_term(body)})"
        case TyApp(fun, ty):
            return f"(tyapp {print_term(fun)} {print_term(ty)})"
        case TyLam(tyvar, body):
            return f"(tylam {tyvar} {print_term(body)})"
        case BaseSort(name) | TypeVar(name):
            return name
        case Arrow(dom, cod):
            return f"(-> {print_term(dom)} {print_term(cod)})"
        case Pi(var, body):
            return f"(pi {var} {print_term(body)})"
    raise AssertionError(n)


def check_type(ty, ctx, tyvars=frozenset()):
    match ty:
        case BaseSort(name):
            if name not in ctx.sorts:
                raise UnknownSort(name)
        case TypeVar(name):
            if name not in tyvars:
                raise UnboundName(name)
        case Arrow(dom, cod):
            check_type(dom, ctx, tyvars)
            check_type(cod, ctx, tyvars)
        case Pi(var, body):
            check_type(body, ctx, tyvars | {var})


def type_of(ctx, term):
    return _type_of(term, ctx, frozenset())


def _type_of(term, ctx, tyvars):
    match term:
        case Var(name, ty):
            declared = ctx.vars.get(name)
            if declared is None:
                raise UnboundName(name)
            if declared != ty:
                raise TypeClash(declared, ty, where=name)
            return ty
        case Const(name, ty):
            declared = ctx.consts.get(name)
            if declared is None:
                raise UnboundName(name)
            if declared != ty:
                raise TypeClash(declared, ty, where=name)
            return ty
        case App(fun, arg):
            fun_ty = _type_of(fun, ctx, tyvars)
            arg_ty = _type_of(arg, ctx, tyvars)
            if not isinstance(fun_ty, Arrow):
                raise TypeClash("a function type", fun_ty,
                                where=print_term(fun))
            if fun_ty.dom != arg_ty:
                raise TypeClash(fun_ty.dom, arg_ty, where=print_term(term))
            return fun_ty.cod
        case Lam(var, var_type, body):
            check_type(var_type, ctx, tyvars)
            body_ty = _type_of(body, ctx.with_var(var, var_type), tyvars)
            return Arrow(var_type, body_ty)
        case TyApp(fun, ty):
            fun_ty = _type_of(fun, ctx, tyvars)
            if not isinstance(fun_ty, Pi):
                raise TypeClash("a pi type", fun_ty, where=print_term(fun))
            check_type(ty, ctx, tyvars)
            return subst_type(fun_ty.body, fun_ty.var, ty)
        case TyLam(a, body):
            for v, vty in free_vars(body).items():
                if a in free_tyvars(vty):
                    raise TyLamEscape(a, v)
            body_ty = _type_of(body, ctx, tyvars | {a})
            return Pi(a, body_ty)
    raise AssertionError(term)


def canon(n):
    """Bound variables named after their binder depth: `!v<depth>` for a
    term variable, `!a<depth>` for a type variable."""
    return _canon(n, {}, {}, 0)


def _canon(n, vmap, tmap, depth):
    match n:
        case BaseSort():
            return n
        case TypeVar(name):
            return TypeVar(tmap.get(name, name))
        case Arrow(fun, arg) | App(fun, arg):
            return type(n)(_canon(fun, vmap, tmap, depth),
                           _canon(arg, vmap, tmap, depth))
        case Pi(var, body) | TyLam(var, body):
            fresh = f"!a{depth}"
            return type(n)(fresh, _canon(body, vmap, {**tmap, var: fresh},
                                         depth + 1))
        case Var(name, ty):
            return Var(vmap.get(name, name), _canon(ty, vmap, tmap, depth))
        case Const(name, ty):
            return Const(name, _canon(ty, vmap, tmap, depth))
        case Lam(var, var_type, body):
            fresh = f"!v{depth}"
            return Lam(fresh, _canon(var_type, vmap, tmap, depth),
                       _canon(body, {**vmap, var: fresh}, tmap, depth + 1))
        case TyApp(fun, ty):
            return TyApp(_canon(fun, vmap, tmap, depth),
                         _canon(ty, vmap, tmap, depth))
    raise AssertionError(n)


def _contract(term):
    if type(term) is App and type(term.fun) is Lam:
        return subst_term(term.fun.body, term.fun.var, term.arg)
    if type(term) is TyApp and type(term.fun) is TyLam:
        return subst_type_in_term(term.fun.body, term.fun.tyvar, term.ty)
    return None


def _children(term):
    match term:
        case App(fun, arg):
            return (fun, arg)
        case Lam(_, _, body) | TyLam(_, body) | TyApp(body, _):
            return (body,)
    return ()


def _rebuild(term, kids):
    match term:
        case App():
            return App(*kids)
        case Lam(var, var_type, _):
            return Lam(var, var_type, *kids)
        case TyApp(_, ty):
            return TyApp(*kids, ty)
        case TyLam(tyvar, _):
            return TyLam(tyvar, *kids)
    raise AssertionError(term)


def _find_redex(term, lo):
    """The term with one redex fired, leftmost-outermost with `lo`, else
    rightmost-innermost; None if it is normal."""
    kids = _children(term)
    if not kids:
        return None
    if lo and (red := _contract(term)) is not None:
        return red
    for i in (range(len(kids)) if lo else reversed(range(len(kids)))):
        red = _find_redex(kids[i], lo)
        if red is not None:
            return _rebuild(term, (*kids[:i], red, *kids[i + 1:]))
    return None if lo else _contract(term)


def is_normal(term):
    return _find_redex(term, True) is None


def reduction_steps(term, strategy="lo"):
    lo = {"lo": True, "ri": False}[strategy]
    fired = 0
    while (term := _find_redex(term, lo)) is not None:
        fired += 1
        if fired > DEFAULT_STEP_BUDGET:
            raise StepBudgetExceeded(DEFAULT_STEP_BUDGET)
        yield term


def normalize(term, strategy="lo"):
    for term in reduction_steps(term, strategy):
        pass
    return term


# ---------------------------------------------------------------------------
# the printers as they were: print_term on a stack of its own, str of a
# type and print_tree by recursion


def old_print_term(n):
    """Render a type or a term back into the s-expression grammar that
    parse_type and parse_term read.  Application spines are flattened:
    ((f a) b) prints as (f a b).  One pass, in pre-order, over a stack of
    nodes and the text between and after their children."""
    out, stack = [], [n]
    while stack:
        m = stack.pop()
        t = type(m)
        if t is str:
            out.append(m)
        elif t not in _HEADS:  # a name, printed without its type
            out.append(m.name)
        else:
            out.append(_HEADS[t])
            if t is App:
                head, kids = spine(m)
                kids.insert(0, head)
            else:
                kids = kernel._WITH_TYPES.children[t](m)
                if t in kernel._NAMES:
                    out += (getattr(m, kernel._NAMES[t]), " ")
            stack.append(")")
            for k in kids[:0:-1]:
                stack += (k, " ")
            stack.append(kids[0])
    return "".join(out)


_HEADS = {App: "(", Lam: "(lam ", TyApp: "(tyapp ", TyLam: "(tylam ",
          Arrow: "(-> ", Pi: "(pi "}


def old_type_str(ty):
    """str(ty) as `Type.__str__`, `Arrow.__str__` and `Pi.__str__` printed
    it."""
    if type(ty) is Arrow:
        d = f"({old_type_str(ty.dom)})" if isinstance(ty.dom, (Arrow, Pi)) \
            else old_type_str(ty.dom)
        return f"{d} -> {old_type_str(ty.cod)}"
    if type(ty) is Pi:
        return f"pi {ty.var}. {old_type_str(ty.body)}"
    return ty.name


def old_print_tree(tree):
    if isinstance(tree, Leaf):
        return tree.word
    return f"({old_print_tree(tree.fun)} {old_print_tree(tree.arg)})"
