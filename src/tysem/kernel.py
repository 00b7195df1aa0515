"""Core calculus: second-order typed lambda terms over declared sorts.

Types are base sorts, type variables, arrows and Pi quantification; terms add
type abstraction and type application to the simply typed core.  The built-in
constants make the calculus a glue language for a multisorted logic: `eps`,
`ieps` and `tau` are the polymorphic choice operators used as determiners,
`exists`/`forall` the classical quantifiers, plus the connectives.

Every walk runs on one traversal, `node.Tree`, over `_TERMS`, a term's
subterms or a type's subtypes, or `_WITH_TYPES`, which adds the types
annotating a term: `free_tyvars`, `subst_type` and `canon` take a type or
a term alike.  `_find_redex`, which stops at the first redex, loops over
the same tables on a stack of its own.  `print_term` and the infix `str` of
a type are tables of layouts on one printer, `node.emit`.  No walk
recurses, so a term thousands of binders deep is walked within the
default recursion limit.

Types and terms are slotted, immutable nodes (see `node`), holding their
fields and nothing else.  The substitutions return a subterm in which
nothing changes as it is, so a beta step allocates only along the paths to
the variable's occurrences and shares the rest with its input; a normal
term normalizes to itself.  Everything here is immutable and pure; the
operations are safe to share across threads.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import (StepBudgetExceeded, ParseError, TyLamEscape, TypeClash,
                     UnboundName, UnknownSort)
from .node import Tree, emit, node
from .sexpr import Atom, SExpr, expect_atom, expect_len, read_one

# ---------------------------------------------------------------------------
# types


class Type:
    __slots__ = ()

    def __str__(self):
        """The infix text of a type: `pi a. (a -> t) -> a`."""
        return emit(self, _TYPE_TEXT)


@node
class BaseSort(Type):
    name: str


@node
class TypeVar(Type):
    name: str


@node
class Arrow(Type):
    dom: Type
    cod: Type


@node
class Pi(Type):
    var: str
    body: Type


T = BaseSort("t")
E = BaseSort("e")

BUILTIN_SORTS = frozenset({"t", "e", "event"})


def arrow(*types: Type) -> Type:
    """Right-fold a chain of types into nested arrows."""
    out = types[-1]
    for ty in reversed(types[:-1]):
        out = Arrow(ty, out)
    return out


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()

    def __str__(self):
        return print_term(self)


@node
class Var(Term):
    name: str
    type: Type


@node
class Const(Term):
    name: str
    type: Type


@node
class App(Term):
    fun: Term
    arg: Term


@node
class Lam(Term):
    var: str
    var_type: Type
    body: Term


@node
class TyApp(Term):
    fun: Term
    ty: Type


@node
class TyLam(Term):
    tyvar: str
    body: Term


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
    expect_len(e, 1, None, "empty application")
    head = e[0]
    if isinstance(head, Atom) and head.text == "lam":
        expect_len(e, 4, 4, "lam needs a variable, a type and a body")
        v = expect_atom(e[1], "variable name").text
        ty = parse_type(e[2], ctx.sorts, tyvars)
        body = _term_of(e[3], ctx, {**bound, v: ty}, tyvars)
        return Lam(v, ty, body)
    if isinstance(head, Atom) and head.text == "tylam":
        expect_len(e, 3, 3, "tylam needs a type variable and a body")
        v = expect_atom(e[1], "type variable").text
        return TyLam(v, _term_of(e[2], ctx, bound, tyvars | {v}))
    if isinstance(head, Atom) and head.text == "tyapp":
        expect_len(e, 3, 3, "tyapp needs a term and a type")
        return TyApp(_term_of(e[1], ctx, bound, tyvars),
                     parse_type(e[2], ctx.sorts, tyvars))
    expect_len(e, 2, None, "application needs at least one argument")
    out = _term_of(e[0], ctx, bound, tyvars)
    for sub in e.items[1:]:
        out = App(out, _term_of(sub, ctx, bound, tyvars))
    return out


# ---------------------------------------------------------------------------
# printing


def print_term(n: Type | Term) -> str:
    """Render a type or a term back into the s-expression grammar that
    parse_type and parse_term read.  Application spines are flattened:
    ((f a) b) prints as (f a b)."""
    return emit(n, _TERM_TEXT)


def _app_text(n: App) -> list:
    """`(f a b)`: the application spine, the arguments last first."""
    out = [")"]
    while type(n) is App:
        out += (n.arg, " ")
        n = n.fun
    out += (n, "(")
    return out


_name = attrgetter("name")
_TERM_TEXT = {  # what each node prints as, last first
    BaseSort: _name, TypeVar: _name, Var: _name, Const: _name, App: _app_text,
    Lam: lambda n: (")", n.body, " ", n.var_type, f"(lam {n.var} "),
    TyApp: lambda n: (")", n.ty, " ", n.fun, "(tyapp "),
    TyLam: lambda n: (")", n.body, f"(tylam {n.tyvar} "),
    Arrow: lambda n: (")", n.cod, " ", n.dom, "(-> "),
    Pi: lambda n: (")", n.body, f"(pi {n.var} ")}
_TYPE_TEXT = {  # the infix text of a type, a domain that quantifies or is
    # a function in parentheses
    BaseSort: _name, TypeVar: _name, Pi: lambda n: (n.body, f"pi {n.var}. "),
    Arrow: lambda n: (n.cod, ") -> ", n.dom, "(")
    if type(n.dom) is Arrow or type(n.dom) is Pi else (n.cod, " -> ", n.dom)}


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


_TYPES = {BaseSort: "", TypeVar: "", Arrow: "dom cod", Pi: "body"}
_NAMES = {Lam: "var", TyLam: "tyvar", Pi: "var"}
_TYPE_BINDERS = (TyLam, Pi)
_BOUND = {Lam: Var, TyLam: TypeVar, Pi: TypeVar}  # what a binder binds

# a term's subterms, or a type's subtypes: not the types annotating a term
_TERMS = Tree({**_TYPES, Var: "", Const: "", App: "fun arg", Lam: "body",
               TyApp: "fun", TyLam: "body"}, _NAMES)
# a term's subterms and the types annotating them, or a type's subtypes
_WITH_TYPES = Tree({**_TYPES, Var: "type", Const: "type", App: "fun arg",
                    Lam: "var_type body", TyApp: "fun ty", TyLam: "body"},
                   {**_NAMES, Var: "name", TypeVar: "name"})

nodes = _TERMS.nodes


# ---------------------------------------------------------------------------
# free variables and substitution


def free_vars(term: Term, bodies: dict | None = None) -> dict[str, Type]:
    """Free term variables with their annotated types.  `bodies`, when
    given, receives by id() the free variables of each tylam's body."""
    def combine(n, kids):
        t = type(n)
        if t is Var:
            return {n.name: n.type}
        if not kids:
            return {}
        out = kids[0]
        if t is App:
            out.update(kids[1])
        elif t is Lam:
            out.pop(n.var, None)
        elif t is TyLam and bodies is not None:
            bodies[id(n)] = dict(out)
        return out

    return _TERMS.fold(term, combine)


def free_tyvars(n: Type | Term) -> frozenset[str]:
    """The type variables free in a type, or in a term's annotations: those
    no enclosing `pi` or `tylam` binds."""
    return frozenset(_WITH_TYPES.free(n, TypeVar, _TYPE_BINDERS))


def subst_term(term: Term, var: str, repl: Term) -> Term:
    """Capture-avoiding term substitution term[repl/var].  A subterm in
    which nothing changes is returned as it is."""
    return _TERMS.substitute(term, var, repl, Var, (Lam,),
                             lambda lam, v: Var(v, lam.var_type))


def subst_type(n: Type | Term, var: str, repl: Type) -> Type | Term:
    """n[repl/var] for a type, or throughout a term's annotations, renaming
    a `pi` or `tylam` binder when capture threatens.  A subtree in which
    nothing changes is returned as it is."""
    return _WITH_TYPES.substitute(n, var, repl, TypeVar, _TYPE_BINDERS,
                                  lambda binder, v: TypeVar(v))


# ---------------------------------------------------------------------------
# type checking


def check_type(ty: Type, ctx: TypingContext, tyvars=frozenset()):
    """Raise unless each sort in ty is declared in ctx and each type
    variable is bound, by a `pi` in ty or in `tyvars`."""
    if type(ty) is BaseSort and ty.name in ctx.sorts:
        return
    pis: dict[str, int] = {}  # the variables the pis above bind

    def enter(n):
        pis[n.var] = pis.get(n.var, 0) + 1

    def combine(n, kids):
        if type(n) is BaseSort and n.name not in ctx.sorts:
            raise UnknownSort(n.name)
        if type(n) is TypeVar and n.name not in tyvars \
                and not pis.get(n.name):
            raise UnboundName(n.name)
        if type(n) is Pi:
            pis[n.var] -= 1

    _TERMS.fold(ty, combine, enter={Pi: enter})


def type_of(ctx: TypingContext, term: Term) -> Type:
    """Derive the unique type of a term, or raise.

    Application demands an exact match between the function domain and the
    argument type; a mismatch on base sorts is the selectional-restriction
    clash surfaced to users.  Type application instantiates a Pi type;
    type abstraction checks that the bound variable does not occur in the
    type of any free term variable.  A binder is checked as it is reached
    and a node typed once its children are, as a recursive checker would.
    """
    lams: dict[str, list[Type]] = {}  # the types the lams above give
    tyvars: dict[str, int] = {}  # the tylams above binding each
    escapes: dict[int, dict] = {}  # id(tylam) -> free vars of its body

    def lam(n):
        check_type(n.var_type, ctx, tyvars)
        lams.setdefault(n.var, []).append(n.var_type)

    def tylam(n):
        if id(n) not in escapes:
            free_vars(n, escapes)
        for v, vty in escapes[id(n)].items():
            if n.tyvar in free_tyvars(vty):
                raise TyLamEscape(n.tyvar, v)
        tyvars[n.tyvar] = tyvars.get(n.tyvar, 0) + 1

    def combine(n, kids):
        t = type(n)
        if t is Var or t is Const:
            bound = lams.get(n.name) if t is Var else None
            declared = (bound[-1] if bound else
                        (ctx.vars if t is Var else ctx.consts).get(n.name))
            if declared is None:
                raise UnboundName(n.name)
            if declared != n.type:
                raise TypeClash(declared, n.type, where=n.name)
            return n.type
        if t is Lam:
            lams[n.var].pop()
            return Arrow(n.var_type, kids[0])
        if t is TyLam:
            tyvars[n.tyvar] -= 1
            if not tyvars[n.tyvar]:
                del tyvars[n.tyvar]
            return Pi(n.tyvar, kids[0])
        fun_ty = kids[0]
        if t is TyApp:
            if type(fun_ty) is not Pi:
                raise TypeClash("a pi type", fun_ty, where=print_term(n.fun))
            check_type(n.ty, ctx, tyvars)
            return subst_type(fun_ty.body, fun_ty.var, n.ty)
        if type(fun_ty) is not Arrow:
            raise TypeClash("a function type", fun_ty, where=print_term(n.fun))
        if fun_ty.dom != kids[1]:
            raise TypeClash(fun_ty.dom, kids[1], where=print_term(n))
        return fun_ty.cod

    return _TERMS.fold(term, combine, enter={Lam: lam, TyLam: tylam})


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
    return _WITH_TYPES.canonical(
        n, lambda binder, d: f"!v{d}" if type(binder) is Lam else f"!a{d}",
        _BOUND)


# ---------------------------------------------------------------------------
# normalization

DEFAULT_STEP_BUDGET = 100_000


def _contract(term: Term) -> Term | None:
    """The contractum of a redex at the root, or None."""
    fun = getattr(term, "fun", None)
    if type(fun) is Lam and type(term) is App:
        return subst_term(fun.body, fun.var, term.arg)
    if type(fun) is TyLam and type(term) is TyApp:
        return subst_type(fun.body, fun.tyvar, term.ty)
    return None


def _find_redex(term: Term, lo: bool) -> Term | None:
    """The term with one redex fired, or None if it is normal.  With `lo`
    the leftmost-outermost redex: the root before its children, children
    left to right.  Otherwise the rightmost-innermost one, the dual
    strategy used by the confluence checks: children right to left, then
    the root.  One loop, down to the redex and back up the path to it."""
    children, step = _TERMS.children, 1 if lo else -1
    path, n, red = [], term, None  # [node, its children, the one searched]
    while True:
        kids = children[type(n)](n)
        if kids and not (lo and (red := _contract(n)) is not None):
            path.append([n, kids, 0 if lo else len(kids) - 1])
            n = path[-1][1][path[-1][2]]
            continue
        while red is None and path:  # n holds no redex: its next sibling
            frame = path[-1]
            frame[2] += step
            if 0 <= frame[2] < len(frame[1]):
                n = frame[1][frame[2]]
                break
            path.pop()
            if not lo:
                red = _contract(frame[0])
        else:
            break
    for m, kids, i in reversed(path if red is not None else ()):
        red = _TERMS.rebuild[type(m)](m, *kids[:i], red, *kids[i + 1:])
    return red


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
