"""The substitutions as they were before they shared unchanged subterms,
kept verbatim as the oracle of `tysem.kernel`'s, and a step-wise normalizer
built on them.

Each of these rebuilds every node it passes.  `normalize` here fires the
same redexes in the same order as `kernel.normalize`, so the two must agree
with `==`, bound names included.
"""

from tysem.errors import StepBudgetExceeded
from tysem.kernel import (App, Arrow, Const, DEFAULT_STEP_BUDGET, Lam, Pi,
                          TyApp, TyLam, TypeVar, Var, _CHILDREN, _REBUILD,
                          _fresh_name, free_tyvars, free_vars)


def subst_type(ty, var, repl):
    """ty[repl/var], renaming Pi binders when capture threatens."""
    match ty:
        case TypeVar(name):
            return repl if name == var else ty
        case Arrow(dom, cod):
            return Arrow(subst_type(dom, var, repl), subst_type(cod, var, repl))
        case Pi(v, body):
            if v == var:
                return ty
            if v in free_tyvars(repl) and var in free_tyvars(body):
                fresh = _fresh_name(v, free_tyvars(repl) | free_tyvars(body))
                body = subst_type(body, v, TypeVar(fresh))
                v = fresh
            return Pi(v, subst_type(body, var, repl))
        case _:
            return ty


def subst_term(term, var, repl):
    """Capture-avoiding term substitution term[repl/var]."""
    match term:
        case Var(name, _):
            return repl if name == var else term
        case Const():
            return term
        case App(fun, arg):
            return App(subst_term(fun, var, repl), subst_term(arg, var, repl))
        case Lam(v, vty, body):
            if v == var:
                return term
            repl_fv = free_vars(repl)
            if v in repl_fv and var in free_vars(body):
                fresh = _fresh_name(v, set(repl_fv) | set(free_vars(body)))
                body = subst_term(body, v, Var(fresh, vty))
                v = fresh
            return Lam(v, vty, subst_term(body, var, repl))
        case TyApp(fun, ty):
            return TyApp(subst_term(fun, var, repl), ty)
        case TyLam(a, body):
            return TyLam(a, subst_term(body, var, repl))
    raise AssertionError(term)


def subst_type_in_term(term, var, repl):
    """Substitute a type for a type variable throughout a term's
    annotations, respecting tylam shadowing."""
    match term:
        case Var(name, ty):
            return Var(name, subst_type(ty, var, repl))
        case Const(name, ty):
            return Const(name, subst_type(ty, var, repl))
        case App(fun, arg):
            return App(subst_type_in_term(fun, var, repl),
                       subst_type_in_term(arg, var, repl))
        case Lam(v, vty, body):
            return Lam(v, subst_type(vty, var, repl),
                       subst_type_in_term(body, var, repl))
        case TyApp(fun, ty):
            return TyApp(subst_type_in_term(fun, var, repl),
                         subst_type(ty, var, repl))
        case TyLam(a, body):
            if a == var:
                return term
            if a in free_tyvars(repl) and var in free_tyvars(body):
                fresh = _fresh_name(a, free_tyvars(repl) | free_tyvars(body))
                body = subst_type_in_term(body, a, TypeVar(fresh))
                a = fresh
            return TyLam(a, subst_type_in_term(body, var, repl))
    raise AssertionError(term)


def _contract(term):
    if type(term) is App and type(term.fun) is Lam:
        return subst_term(term.fun.body, term.fun.var, term.arg)
    if type(term) is TyApp and type(term.fun) is TyLam:
        return subst_type_in_term(term.fun.body, term.fun.tyvar, term.ty)
    return None


def _find_redex(term, lo):
    """`kernel._find_redex` over the oracle's substitutions."""
    kids = _CHILDREN[type(term)](term)
    if not kids:
        return None
    if lo and (red := _contract(term)) is not None:
        return red
    for i in (range(len(kids)) if lo else reversed(range(len(kids)))):
        red = _find_redex(kids[i], lo)
        if red is not None:
            return _REBUILD[type(term)](term, (*kids[:i], red, *kids[i + 1:]))
    return None if lo else _contract(term)


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
