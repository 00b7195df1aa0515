"""Core calculus: second-order typed lambda terms over declared sorts.

Types are base sorts, type variables, arrows and Pi quantification; terms add
type abstraction and type application to the simply typed core.  The built-in
constants make the calculus a glue language for a multisorted logic: `eps`,
`ieps` and `tau` are the polymorphic choice operators used as determiners,
`exists`/`forall` the classical quantifiers, plus the connectives.

Types occur inside terms, as annotations: `free_tyvars`, `print_term` and
`canon` each take a type or a term, in one `match`.  The substitutions,
`free_vars` and the type checker stay hand-written: each treats binders in
its own way, and they are the normalizer's and the checker's hot paths.

Types and terms are slotted, immutable nodes (see `node`), each keeping its
hash once worked out.  The substitutions return a subterm in which nothing
changes as it is, so a beta step allocates only along the paths to the
variable's occurrences and shares the rest with its input; a normal term
normalizes to itself.  Everything here is immutable and pure; the
operations are safe to share across threads.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

from .errors import (StepBudgetExceeded, ParseError, TyLamEscape, TypeClash,
                     UnboundName, UnknownSort)
from .node import KeepsHash, node
from .sexpr import Atom, SExpr, expect_atom, read_one

# ---------------------------------------------------------------------------
# types


class Type(KeepsHash):
    __slots__ = ()


@node
class BaseSort(Type):
    name: str

    def __str__(self):
        return self.name


@node
class TypeVar(Type):
    name: str

    def __str__(self):
        return self.name


@node
class Arrow(Type):
    dom: Type
    cod: Type

    def __str__(self):
        d = f"({self.dom})" if isinstance(self.dom, (Arrow, Pi)) else str(self.dom)
        return f"{d} -> {self.cod}"


@node
class Pi(Type):
    var: str
    body: Type

    def __str__(self):
        return f"pi {self.var}. {self.body}"


T = BaseSort("t")
E = BaseSort("e")

BUILTIN_SORTS = frozenset({"t", "e", "event"})


def arrow(*types: Type) -> Type:
    """Right-fold a chain of types into nested arrows."""
    out = types[-1]
    for ty in reversed(types[:-1]):
        out = Arrow(ty, out)
    return out


def free_tyvars(n: Type | Term) -> frozenset[str]:
    """The type variables free in a type, or in a term's annotations: those
    no enclosing `pi` or `tylam` binds."""
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


def subst_type(ty: Type, var: str, repl: Type) -> Type:
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


def _fresh_name(base: str, avoid) -> str:
    base = base.rstrip("0123456789'")
    if not base:
        base = "v"
    for i in itertools.count(1):
        cand = f"{base}{i}"
        if cand not in avoid:
            return cand
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# terms


class Term(KeepsHash):
    __slots__ = ()


@node
class Var(Term):
    name: str
    type: Type

    def __str__(self):
        return self.name


@node
class Const(Term):
    name: str
    type: Type

    def __str__(self):
        return self.name


@node
class App(Term):
    fun: Term
    arg: Term

    def __str__(self):
        return print_term(self)


@node
class Lam(Term):
    var: str
    var_type: Type
    body: Term

    def __str__(self):
        return print_term(self)


@node
class TyApp(Term):
    fun: Term
    ty: Type

    def __str__(self):
        return print_term(self)


@node
class TyLam(Term):
    tyvar: str
    body: Term

    def __str__(self):
        return print_term(self)


CHOICE_TYPE = Pi("a", Arrow(Arrow(TypeVar("a"), T), TypeVar("a")))
QUANT_TYPE = Pi("a", Arrow(Arrow(TypeVar("a"), T), T))

BUILTIN_CONSTANTS: dict[str, Type] = {
    "eps": CHOICE_TYPE,
    "ieps": CHOICE_TYPE,
    "tau": CHOICE_TYPE,
    "exists": QUANT_TYPE,
    "forall": QUANT_TYPE,
    "and": arrow(T, T, T),
    "or": arrow(T, T, T),
    "implies": arrow(T, T, T),
    "not": arrow(T, T),
}

CHOICE_CONSTANTS = frozenset({"eps", "ieps", "tau"})


# ---------------------------------------------------------------------------
# typing context


class TypingContext:
    """Declared sorts plus typed names.  Constants and variables live in
    separate maps so the parser can tell them apart; both feed type_of."""

    def __init__(self, sorts: frozenset[str] = BUILTIN_SORTS,
                 consts: dict[str, Type] | None = None,
                 vars: dict[str, Type] | None = None):
        self.sorts = sorts
        self.consts = {} if consts is None else consts
        self.vars = {} if vars is None else vars

    @staticmethod
    def default() -> TypingContext:
        return TypingContext(consts=dict(BUILTIN_CONSTANTS))

    def with_sorts(self, names) -> TypingContext:
        return TypingContext(self.sorts | frozenset(names), self.consts,
                             self.vars)

    def with_const(self, name: str, ty: Type) -> TypingContext:
        return TypingContext(self.sorts, {**self.consts, name: ty}, self.vars)

    def with_var(self, name: str, ty: Type) -> TypingContext:
        return TypingContext(self.sorts, self.consts, {**self.vars, name: ty})


# ---------------------------------------------------------------------------
# parsing

_TERM_KEYWORDS = frozenset({"lam", "tylam", "tyapp"})


def parse_type(e: SExpr, sorts: frozenset[str], tyvars: frozenset[str]) -> Type:
    if isinstance(e, Atom):
        if e.text in tyvars:
            return TypeVar(e.text)
        if e.text in sorts:
            return BaseSort(e.text)
        raise UnknownSort(e.text, e.line, e.col)
    if len(e) == 3 and isinstance(e[0], Atom) and e[0].text == "->":
        return Arrow(parse_type(e[1], sorts, tyvars),
                     parse_type(e[2], sorts, tyvars))
    if len(e) == 3 and isinstance(e[0], Atom) and e[0].text == "pi":
        v = expect_atom(e[1], "type variable").text
        return Pi(v, parse_type(e[2], sorts, tyvars | {v}))
    raise ParseError("malformed type", e.line, e.col)


def parse_term(text: str, ctx: TypingContext | None = None) -> Term:
    """Parse the s-expression term grammar.

    `(lam x TYPE BODY)` binds a term variable, `(tylam a BODY)` a type
    variable, `(tyapp F TYPE)` instantiates, and `(F A B ...)` is
    application, associated to the left.  Free symbols resolve against
    `ctx`; constants win over variables of the same name.
    """
    ctx = ctx or TypingContext.default()
    return _term_of(read_one(text), ctx, {}, frozenset())


def term_of_sexpr(e: SExpr, ctx: TypingContext) -> Term:
    return _term_of(e, ctx, {}, frozenset())


def _term_of(e: SExpr, ctx: TypingContext, bound: dict[str, Type],
             tyvars: frozenset[str]) -> Term:
    if isinstance(e, Atom):
        name = e.text
        if name in bound:
            return Var(name, bound[name])
        if name in ctx.consts:
            return Const(name, ctx.consts[name])
        if name in ctx.vars:
            return Var(name, ctx.vars[name])
        raise UnboundName(name, e.line, e.col)
    if len(e) == 0:
        raise ParseError("empty application", e.line, e.col)
    head = e[0]
    if isinstance(head, Atom) and head.text == "lam":
        if len(e) != 4:
            raise ParseError("lam needs a variable, a type and a body",
                               e.line, e.col)
        v = expect_atom(e[1], "variable name").text
        ty = parse_type(e[2], ctx.sorts, tyvars)
        body = _term_of(e[3], ctx, {**bound, v: ty}, tyvars)
        return Lam(v, ty, body)
    if isinstance(head, Atom) and head.text == "tylam":
        if len(e) != 3:
            raise ParseError("tylam needs a type variable and a body",
                               e.line, e.col)
        v = expect_atom(e[1], "type variable").text
        return TyLam(v, _term_of(e[2], ctx, bound, tyvars | {v}))
    if isinstance(head, Atom) and head.text == "tyapp":
        if len(e) != 3:
            raise ParseError("tyapp needs a term and a type", e.line, e.col)
        return TyApp(_term_of(e[1], ctx, bound, tyvars),
                     parse_type(e[2], ctx.sorts, tyvars))
    if len(e) < 2:
        raise ParseError("application needs at least one argument",
                           e.line, e.col)
    out = _term_of(e[0], ctx, bound, tyvars)
    for sub in e.items[1:]:
        out = App(out, _term_of(sub, ctx, bound, tyvars))
    return out


# ---------------------------------------------------------------------------
# printing


def print_term(n: Type | Term) -> str:
    """Render a type or a term back into the s-expression grammar that
    parse_type and parse_term read.  Application spines are flattened:
    ((f a) b) prints as (f a b).  The term cases come first: a type is
    reached only at a `lam` or `tyapp` annotation."""
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


def spine(term: Term) -> tuple[Term, list[Term]]:
    """The head of an application spine and its arguments, left to right:
    ((f a) b) gives f and [a, b]."""
    args = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fun
    args.reverse()
    return term, args


# ---------------------------------------------------------------------------
# traversal

_CHILDREN = {
    BaseSort: lambda n: (), TypeVar: lambda n: (), Var: lambda n: (),
    Const: lambda n: (), Arrow: attrgetter("dom", "cod"),
    Pi: lambda n: (n.body,), App: attrgetter("fun", "arg"),
    Lam: lambda n: (n.body,), TyLam: lambda n: (n.body,),
    TyApp: lambda n: (n.fun,),
}

# a term node rebuilt with other subterms in place of _CHILDREN's
_REBUILD = {
    App: lambda n, kids: App(*kids),
    Lam: lambda n, kids: Lam(n.var, n.var_type, *kids),
    TyApp: lambda n, kids: TyApp(*kids, n.ty),
    TyLam: lambda n, kids: TyLam(n.tyvar, *kids),
}


def nodes(root: Term | Type):
    """A term's subterms, or a type's subtypes, from root down in pre-order,
    left to right, on an explicit stack.  The types annotating a term are
    not among its subterms."""
    stack = [root]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(_CHILDREN[type(n)](n)))


# ---------------------------------------------------------------------------
# free variables and substitution


def free_vars(term: Term) -> dict[str, Type]:
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


def subst_term(term: Term, var: str, repl: Term) -> Term:
    """Capture-avoiding term substitution term[repl/var].  A subterm in
    which nothing changes is returned as it is."""
    return _subst_term(term, var, repl, free_vars(repl))


def _subst_term(term: Term, var: str, repl: Term, repl_fv: dict) -> Term:
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


def subst_type_in_term(term: Term, var: str, repl: Type) -> Term:
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


# ---------------------------------------------------------------------------
# type checking


def check_type(ty: Type, ctx: TypingContext, tyvars: frozenset[str] = frozenset()):
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


def type_of(ctx: TypingContext, term: Term) -> Type:
    """Derive the unique type of a term, or raise.

    Application demands an exact match between the function domain and the
    argument type; a mismatch on base sorts is the selectional-restriction
    clash surfaced to users.  Type application instantiates a Pi type;
    type abstraction checks that the bound variable does not occur in the
    type of any free term variable.
    """
    return _type_of(term, ctx, frozenset())


def _type_of(term: Term, ctx: TypingContext, tyvars: frozenset[str]) -> Type:
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


# ---------------------------------------------------------------------------
# alpha equivalence


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound term and type variables,
    via conversion to a canonical indexed form."""
    return canon(a) == canon(b)


def canon(n: Type | Term) -> Type | Term:
    """The representative of an alpha-equivalence class: each bound
    variable is named after its binder depth (a de Bruijn level), a term
    variable `!v<depth>`, a type variable bound by `tylam` or by `pi` in an
    annotation `!a<depth>`.  Free names are kept."""
    return _canon(n, {}, {}, 0)


def _canon(n: Type | Term, vmap: dict[str, str], tmap: dict[str, str],
           depth: int) -> Type | Term:
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


# ---------------------------------------------------------------------------
# normalization

DEFAULT_STEP_BUDGET = 100_000


def _contract(term: Term) -> Term | None:
    """The contractum of a redex at the root, or None."""
    fun = getattr(term, "fun", None)
    if type(fun) is Lam and type(term) is App:
        return subst_term(fun.body, fun.var, term.arg)
    if type(fun) is TyLam and type(term) is TyApp:
        return subst_type_in_term(fun.body, fun.tyvar, term.ty)
    return None


_LEFT_FIRST = ((), (0,), (0, 1))  # child indices by number of children
_RIGHT_FIRST = ((), (0,), (1, 0))


def _find_redex(term: Term, lo: bool) -> Term | None:
    """The term with one redex fired, or None if it is normal.  With `lo`
    the leftmost-outermost redex: the root before its children, children
    left to right.  Otherwise the rightmost-innermost one, the dual
    strategy used by the confluence checks: children right to left, then
    the root."""
    kids = _CHILDREN[type(term)](term)
    if not kids:
        return None
    if lo and (red := _contract(term)) is not None:
        return red
    for i in (_LEFT_FIRST if lo else _RIGHT_FIRST)[len(kids)]:
        red = _find_redex(kids[i], lo)
        if red is not None:
            return _REBUILD[type(term)](term, (*kids[:i], red, *kids[i + 1:]))
    return None if lo else _contract(term)


def reduction_steps(term: Term, strategy: str = "lo"):
    """Yield each successive term after firing one beta or type-beta redex.

    The calculus is strongly normalizing, so firing more than
    `DEFAULT_STEP_BUDGET` redexes means a bug; we raise rather than loop.
    """
    lo = {"lo": True, "ri": False}[strategy]
    fired = 0
    while True:
        nxt = _find_redex(term, lo)
        if nxt is None:
            return
        fired += 1
        if fired > DEFAULT_STEP_BUDGET:
            raise StepBudgetExceeded(DEFAULT_STEP_BUDGET)
        term = nxt
        yield term


def normalize(term: Term, strategy: str = "lo") -> Term:
    """Reduce to beta/type-beta normal form."""
    for term in reduction_steps(term, strategy):
        pass
    return term


def is_normal(term: Term) -> bool:
    return _find_redex(term, True) is None
