"""Multisorted formulas extracted from normal terms of truth type.

A normal term whose constants belong to the logical signature reads off
directly as a formula: application spines become predicates, the connective
constants become connectives, instantiated `exists`/`forall` become sorted
quantifiers, and instantiated choice operators become choice terms carrying
their restriction as a formula with one designated hole variable.

The module also generates the presuppositions of choice terms (the
restriction applied to the term itself), rewrites the classical patterns
`B(choice_x B)` into sorted quantifiers, and prints formulas canonically in
ascii, unicode or s-expression style.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import kernel
from .errors import (ExtractionError, NotNormal, NotTruthType, ResidualLambda,
                     ParseError)
from .kernel import (App, Arrow, BaseSort, Const, Lam, Pi, Term, TyApp, TyLam,
                     TypingContext, Var, free_vars, is_normal, normalize,
                     type_of)
from .sexpr import Atom, SExpr, expect_atom, expect_list, read_one

# ---------------------------------------------------------------------------
# formula syntax

INDEF = "indef"
DEF = "def"
UNIVERSAL = "universal"

_MODE_OF_CONST = {"eps": INDEF, "ieps": DEF, "tau": UNIVERSAL}
_CONST_OF_MODE = {v: k for k, v in _MODE_OF_CONST.items()}


class LTerm:
    __slots__ = ()


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class LVar(LTerm):
    name: str
    sort: str


@dataclass(frozen=True)
class LConst(LTerm):
    name: str
    sort: str


@dataclass(frozen=True)
class LApp(LTerm):
    fn: str
    args: tuple[LTerm, ...]


@dataclass(frozen=True)
class Eps(LTerm):
    """A choice term: its body is a formula with one designated hole
    variable of the term's sort."""
    mode: str  # INDEF, DEF or UNIVERSAL
    sort: str
    hole: str
    body: Formula


@dataclass(frozen=True)
class Pred(Formula):
    name: str
    args: tuple[LTerm, ...]


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sort: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sort: str
    body: Formula


@dataclass(frozen=True)
class Eq(Formula):
    left: LTerm
    right: LTerm


@dataclass(frozen=True)
class TruthConst(Formula):
    value: bool


def conjoin(formulas) -> Formula:
    """Left-fold a non-empty sequence into nested conjunctions."""
    formulas = list(formulas)
    if not formulas:
        return TruthConst(True)
    out = formulas[0]
    for f in formulas[1:]:
        out = And(out, f)
    return out


def flatten_and(f: Formula) -> list[Formula]:
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.right, g.left)
        else:
            out.append(g)
    return out


def _and_spine(f: And) -> tuple[Formula, list[Formula]]:
    """The formula at the bottom of f's left And spine, and the right
    operands met on the way down, innermost first.  A discourse is one long
    left-nested conjunction, so walkers follow the spine with this loop
    rather than with one recursive call per sentence."""
    rights = []
    while isinstance(f, And):
        rights.append(f.right)
        f = f.left
    rights.reverse()
    return f, rights


def _map_formula(f: Formula, walk) -> Formula:
    """f rebuilt with `walk` applied to each immediate subformula, and to
    every right operand of a conjunction's left spine."""
    match f:
        case And():
            first, rights = _and_spine(f)
            out = walk(first)
            for r in rights:
                out = And(out, walk(r))
            return out
        case Or(l, r):
            return Or(walk(l), walk(r))
        case Implies(l, r):
            return Implies(walk(l), walk(r))
        case Not(op):
            return Not(walk(op))
        case Exists(var, sort, body):
            return Exists(var, sort, walk(body))
        case Forall(var, sort, body):
            return Forall(var, sort, walk(body))
    return f


# ---------------------------------------------------------------------------
# extraction


def extract_formula(term: Term, ctx: TypingContext | None = None) -> Formula:
    """Structural translation of a normal term of type t into a formula.

    The term must be normal and closed except for constants; a lambda or a
    predicate variable surviving in formula position is higher-order residue
    and is rejected rather than reified.
    """
    if not is_normal(term):
        raise NotNormal(f"term has a redex: {kernel.print_term(term)}")
    ty = _term_type(term, ctx)
    if ty != kernel.T:
        raise NotTruthType(f"term has type {ty}, not t")
    return _to_formula(term)


def _term_type(term: Term, ctx: TypingContext | None):
    if ctx is None:
        consts = {}
        _collect_consts(term, consts)
        sorts = set()
        for t in consts.values():
            _collect_sorts(t, sorts)
        ctx = TypingContext(
            sorts=kernel.BUILTIN_SORTS | frozenset(sorts),
            consts={**kernel.BUILTIN_CONSTANTS, **consts},
            vars=dict(free_vars(term)))
    return type_of(ctx, term)


def _collect_consts(term: Term, out: dict):
    match term:
        case Const(name, ty):
            out[name] = ty
        case App(fun, arg):
            _collect_consts(fun, out)
            _collect_consts(arg, out)
        case Lam(_, _, body) | TyLam(_, body):
            _collect_consts(body, out)
        case TyApp(fun, _):
            _collect_consts(fun, out)


def _collect_sorts(ty, out: set):
    match ty:
        case BaseSort(name):
            out.add(name)
        case Arrow(dom, cod):
            _collect_sorts(dom, out)
            _collect_sorts(cod, out)
        case Pi(_, body):
            _collect_sorts(body, out)


def _spine(term: Term):
    args = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fun
    return term, list(reversed(args))


def _sort_of(ty) -> str:
    if not isinstance(ty, BaseSort):
        raise ResidualLambda(f"expected an entity sort, found {ty}")
    return ty.name


def _to_formula(term: Term) -> Formula:
    head, args = _spine(term)
    match head:
        case Const("and" | "or" | "implies" as name, _) if len(args) == 2:
            cls = {"and": And, "or": Or, "implies": Implies}[name]
            return cls(_to_formula(args[0]), _to_formula(args[1]))
        case Const("not", _) if len(args) == 1:
            return Not(_to_formula(args[0]))
        case Const(name, ty) if not args and ty == kernel.T:
            return Pred(name, ())
        case Const(name, _) if args:
            return Pred(name, tuple(_to_lterm(a) for a in args))
        case TyApp(Const("exists" | "forall" as name, _), sort_ty) \
                if len(args) == 1:
            sort = _sort_of(sort_ty)
            cls = Exists if name == "exists" else Forall
            hole, body = _predicate_body(args[0], sort_ty)
            return cls(hole, sort, body)
        case Lam():
            raise ResidualLambda(
                "a lambda survives where a formula is required: "
                + kernel.print_term(term))
        case Var(name, _):
            raise ResidualLambda(
                f"predicate variable '{name}' survives in formula position")
    raise ExtractionError(
        f"cannot read '{kernel.print_term(term)}' as a formula")


def _predicate_body(pred: Term, sort_ty) -> tuple[str, Formula]:
    """Read a one-place predicate term as a formula over a hole variable,
    beta-expanding on the hole when the predicate is not an abstraction."""
    if isinstance(pred, Lam):
        return pred.var, _to_formula(pred.body)
    hole = _fresh_var(free_vars(pred))
    return hole, _to_formula(App(pred, Var(hole, sort_ty)))


def _fresh_var(avoid) -> str:
    for name in itertools.chain("xyzw", (f"x{i}" for i in itertools.count(1))):
        if name not in avoid:
            return name
    raise AssertionError("unreachable")


def _to_lterm(term: Term) -> LTerm:
    match term:
        case Var(name, ty):
            return LVar(name, _sort_of(ty))
        case Const(name, ty):
            return LConst(name, _sort_of(ty))
        case App(TyApp(Const(cname, _), sort_ty), pred) \
                if cname in _MODE_OF_CONST:
            hole, body = _predicate_body(pred, sort_ty)
            return Eps(_MODE_OF_CONST[cname], _sort_of(sort_ty), hole, body)
        case App():
            head, args = _spine(term)
            if isinstance(head, Const):
                return LApp(head.name, tuple(_to_lterm(a) for a in args))
            raise ResidualLambda(
                f"cannot read '{kernel.print_term(term)}' as an entity term")
        case Lam():
            raise ResidualLambda(
                "a lambda survives in argument position: "
                + kernel.print_term(term))
    raise ResidualLambda(
        f"cannot read '{kernel.print_term(term)}' as an entity term")


# ---------------------------------------------------------------------------
# presuppositions


def presuppositions(term: Term) -> list[Formula]:
    """The restriction of every indefinite (and every definite left
    unresolved, which behaves the same) applied to its own choice term.

    Formulas are collected left-to-right and alpha-duplicates emitted once.
    """
    found: list[Formula] = []
    seen: set[Formula] = set()  # canon_formula of each formula in found

    def walk(t: Term):
        match t:
            case App(TyApp(Const("eps" | "ieps", _), _), pred):
                candidate = extract_formula(normalize(App(pred, t)))
                key = canon_formula(candidate)
                if key not in seen:
                    seen.add(key)
                    found.append(candidate)
                walk(pred)
            case App(fun, arg):
                walk(fun)
                walk(arg)
            case Lam(_, _, body) | TyLam(_, body):
                walk(body)
            case TyApp(fun, _):
                walk(fun)

    walk(term)
    return found


# ---------------------------------------------------------------------------
# alpha equivalence of formulas


def formula_alpha_eq(a: Formula, b: Formula) -> bool:
    return canon_formula(a) == canon_formula(b)


def canon_formula(f: Formula) -> Formula:
    return _canon_f(f, {}, [0])


def _canon_f(f: Formula, env: dict[str, str], counter: list[int]) -> Formula:
    match f:
        case Pred(name, args):
            return Pred(name, tuple(_canon_t(a, env, counter) for a in args))
        case And(l, r):
            return And(_canon_f(l, env, counter), _canon_f(r, env, counter))
        case Or(l, r):
            return Or(_canon_f(l, env, counter), _canon_f(r, env, counter))
        case Implies(l, r):
            return Implies(_canon_f(l, env, counter),
                           _canon_f(r, env, counter))
        case Not(op):
            return Not(_canon_f(op, env, counter))
        case Exists(var, sort, body) | Forall(var, sort, body):
            fresh = f"!q{counter[0]}"
            counter[0] += 1
            cls = Exists if isinstance(f, Exists) else Forall
            return cls(fresh, sort, _canon_f(body, {**env, var: fresh},
                                             counter))
        case Eq(l, r):
            return Eq(_canon_t(l, env, counter), _canon_t(r, env, counter))
        case TruthConst(_):
            return f
    raise AssertionError(f)


def _canon_t(t: LTerm, env: dict[str, str], counter: list[int]) -> LTerm:
    match t:
        case LVar(name, sort):
            return LVar(env.get(name, name), sort)
        case LConst(_, _):
            return t
        case LApp(fn, args):
            return LApp(fn, tuple(_canon_t(a, env, counter) for a in args))
        case Eps(mode, sort, hole, body):
            fresh = f"!q{counter[0]}"
            counter[0] += 1
            return Eps(mode, sort, fresh,
                       _canon_f(body, {**env, hole: fresh}, counter))
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# rewriting choice patterns into quantifiers


def rewrite_hilbert(f: Formula) -> Formula:
    """Replace each subformula of shape Body[choice_x Body] by the
    corresponding sorted quantifier, outside-in, to a fixed point.

    The match also fires when the choice term's restriction is one conjunct
    of the abstracted subformula, which is the shape a sentence takes once
    its presuppositions are conjoined in.  Choice terms that fit no pattern
    are left intact: they are strictly more expressive than quantifiers.

    A subformula with no choice term in a term position cannot match and is
    returned as it is.  Pivots are collected once per tree, bottom-up, into
    a memo that lives for this call, so rewriting a discourse costs time
    linear in its number of sentences.
    """
    memo: dict[int, tuple[Formula, tuple[Eps, ...]]] = {}

    def rewrite(g: Formula) -> Formula:
        rights = []
        while True:
            if not _eps_pivots(g, memo):
                out = g
                break
            rewritten = _rewrite_here(g, memo)
            if rewritten is not None:
                out = rewrite(rewritten)
                break
            if not isinstance(g, And):
                out = _map_formula(g, rewrite)
                break
            rights.append(g.right)
            g = g.left
        for r in reversed(rights):
            out = And(out, rewrite(r))
        return out

    return rewrite(f)


def _rewrite_here(g: Formula, memo: dict) -> Formula | None:
    for pivot in _eps_pivots(g, memo):
        sentinel = LVar("!pivot", pivot.sort)
        abstracted = _abstract(g, pivot, sentinel)
        names = _formula_names(abstracted) - {sentinel.name}
        var = pivot.hole if pivot.hole not in names else _fresh_var(names)
        abstracted = _abstract_var(abstracted, sentinel.name,
                                   LVar(var, pivot.sort))
        body_key = canon_formula(_rename_hole(pivot, var))
        if any(canon_formula(c) == body_key
               for c in flatten_and(abstracted)):
            cls = Forall if pivot.mode == UNIVERSAL else Exists
            return cls(var, pivot.sort, abstracted)
    return None


def _eps_pivots(g: Formula, memo: dict) -> tuple[Eps, ...]:
    """Choice terms occurring in term positions of g, in occurrence order,
    without descending into other choice terms' bodies.

    `memo` maps the id() of every subformula already seen to the subformula
    (which keeps the id from being reused) and its pivots."""
    hit = memo.get(id(g))
    if hit is not None:
        return hit[1]
    match g:
        case And():
            spine = []
            while isinstance(g, And) and id(g) not in memo:
                spine.append(g)
                g = g.left
            out = _eps_pivots(g, memo)
            for node in reversed(spine):
                out = _merge_pivots(out, _eps_pivots(node.right, memo))
                memo[id(node)] = (node, out)
            return out
        case Or(l, r) | Implies(l, r):
            out = _merge_pivots(_eps_pivots(l, memo), _eps_pivots(r, memo))
        case Not(op) | Exists(_, _, op) | Forall(_, _, op):
            out = _eps_pivots(op, memo)
        case Pred(_, args):
            out = _term_pivots(args)
        case Eq(l, r):
            out = _term_pivots((l, r))
        case _:
            out = ()
    memo[id(g)] = (g, out)
    return out


def _merge_pivots(first: tuple[Eps, ...],
                  second: tuple[Eps, ...]) -> tuple[Eps, ...]:
    return first + tuple(p for p in second if p not in first)


def _term_pivots(terms) -> tuple[Eps, ...]:
    out: list[Eps] = []

    def from_term(t: LTerm):
        if isinstance(t, Eps):
            if t not in out:
                out.append(t)
        elif isinstance(t, LApp):
            for a in t.args:
                from_term(a)

    for t in terms:
        from_term(t)
    return tuple(out)


def _abstract(f: Formula, pivot: Eps, var: LVar) -> Formula:
    def in_term(t: LTerm) -> LTerm:
        if t == pivot:
            return var
        if isinstance(t, LApp):
            return LApp(t.fn, tuple(in_term(a) for a in t.args))
        return t

    def walk(g: Formula) -> Formula:
        match g:
            case Pred(name, args):
                return Pred(name, tuple(in_term(a) for a in args))
            case Eq(l, r):
                return Eq(in_term(l), in_term(r))
        return _map_formula(g, walk)

    return walk(f)


def _rename_hole(pivot: Eps, var: str) -> Formula:
    return _abstract_var(pivot.body, pivot.hole, LVar(var, pivot.sort))


def _abstract_var(f: Formula, name: str, var: LVar) -> Formula:
    def in_term(t: LTerm) -> LTerm:
        match t:
            case LVar(n, _) if n == name:
                return var
            case LApp(fn, args):
                return LApp(fn, tuple(in_term(a) for a in args))
            case Eps(mode, sort, hole, body) if hole != name:
                return Eps(mode, sort, hole, walk(body))
            case _:
                return t

    def walk(g: Formula) -> Formula:
        match g:
            case Pred(pname, args):
                return Pred(pname, tuple(in_term(a) for a in args))
            case Eq(l, r):
                return Eq(in_term(l), in_term(r))
            case Exists(v, _, _) | Forall(v, _, _) if v == name:
                return g
        return _map_formula(g, walk)

    return walk(f)


def _formula_names(f: Formula) -> set[str]:
    """All variable names occurring in f, bound or free."""
    out: set[str] = set()
    stack: list[Formula | LTerm] = [f]
    while stack:
        match stack.pop():
            case LVar(name, _):
                out.add(name)
            case LApp(_, args) | Pred(_, args):
                stack.extend(args)
            case Eps(_, _, var, body) | Exists(var, _, body) \
                    | Forall(var, _, body):
                out.add(var)
                stack.append(body)
            case And(l, r) | Or(l, r) | Implies(l, r) | Eq(l, r):
                stack += (l, r)
            case Not(op):
                stack.append(op)
    return out


def free_formula_vars(f: Formula) -> set[str]:
    match f:
        case Pred(_, args):
            return set().union(*(free_lterm_vars(a) for a in args)) \
                if args else set()
        case And(l, r) | Or(l, r) | Implies(l, r):
            return free_formula_vars(l) | free_formula_vars(r)
        case Not(op):
            return free_formula_vars(op)
        case Exists(v, _, body) | Forall(v, _, body):
            return free_formula_vars(body) - {v}
        case Eq(l, r):
            return free_lterm_vars(l) | free_lterm_vars(r)
        case _:
            return set()


def free_lterm_vars(t: LTerm) -> set[str]:
    match t:
        case LVar(name, _):
            return {name}
        case LApp(_, args):
            return set().union(*(free_lterm_vars(a) for a in args)) \
                if args else set()
        case Eps(_, _, hole, body):
            return free_formula_vars(body) - {hole}
        case _:
            return set()


# ---------------------------------------------------------------------------
# printing

_EPS_ASCII = {INDEF: "eps", DEF: "the", UNIVERSAL: "tau"}
_EPS_UNICODE = {INDEF: "ε", DEF: "ιε", UNIVERSAL: "τ"}

_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4, 5


def print_formula(f: Formula, style: str = "ascii") -> str:
    """Deterministic canonical rendering; parentheses are minimal under the
    precedence not < and < or < implies, with quantifier bodies
    parenthesized when they are binary connectives."""
    if style == "sexpr":
        return _sexpr_f(f)
    if style in ("ascii", "unicode"):
        return _infix_f(f, 0, style)
    raise ValueError(f"unknown style '{style}'")


def _infix_f(f: Formula, context: int, style: str) -> str:
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
            text = sym.join([_infix_f(first, _PREC_AND, style)]
                            + [_infix_f(r, _PREC_AND + 1, style)
                               for r in rights])
            return f"({text})" if _PREC_AND < context else text
        case Or(l, r):
            return binop("|", "∨", _PREC_OR, l, r)
        case Implies(l, r):
            sym = "→" if uni else "->"
            text = (f"{_infix_f(l, _PREC_IMPLIES + 1, style)} {sym} "
                    f"{_infix_f(r, _PREC_IMPLIES, style)}")
            return f"({text})" if _PREC_IMPLIES < context else text
        case Exists(var, sort, body) | Forall(var, sort, body):
            if isinstance(f, Exists):
                head = "∃" if uni else "exists "
            else:
                head = "∀" if uni else "forall "
            inner = _infix_f(body, 0, style)
            if isinstance(body, (And, Or, Implies)):
                inner = f"({inner})"
            text = f"{head}{var}:{sort}. {inner}"
            return f"({text})" if context > 0 else text
    raise AssertionError(f)


def _infix_t(t: LTerm, style: str) -> str:
    match t:
        case LVar(name, _) | LConst(name, _):
            return name
        case LApp(fn, args):
            return f"{fn}({','.join(_infix_t(a, style) for a in args)})"
        case Eps(mode, sort, hole, body):
            head = (_EPS_UNICODE if style == "unicode" else _EPS_ASCII)[mode]
            return f"{head}[{sort}]({hole}. {_infix_f(body, 0, style)})"
    raise AssertionError(t)


def _sexpr_f(f: Formula) -> str:
    match f:
        case TruthConst(v):
            return "true" if v else "false"
        case Pred(name, args):
            if not args:
                return name
            return f"({name} {' '.join(_sexpr_t(a) for a in args)})"
        case And():
            first, rights = _and_spine(f)
            return "".join(["(and " * len(rights), _sexpr_f(first)]
                           + [f" {_sexpr_f(r)})" for r in rights])
        case Or(l, r):
            return f"(or {_sexpr_f(l)} {_sexpr_f(r)})"
        case Implies(l, r):
            return f"(implies {_sexpr_f(l)} {_sexpr_f(r)})"
        case Not(op):
            return f"(not {_sexpr_f(op)})"
        case Exists(var, sort, body):
            return f"(exists ({var} {sort}) {_sexpr_f(body)})"
        case Forall(var, sort, body):
            return f"(forall ({var} {sort}) {_sexpr_f(body)})"
        case Eq(l, r):
            return f"(= {_sexpr_t(l)} {_sexpr_t(r)})"
    raise AssertionError(f)


def _sexpr_t(t: LTerm) -> str:
    match t:
        case LVar(name, _) | LConst(name, _):
            return name
        case LApp(fn, args):
            return f"({fn} {' '.join(_sexpr_t(a) for a in args)})"
        case Eps(mode, sort, hole, body):
            return f"({_CONST_OF_MODE[mode]} {sort} {hole} {_sexpr_f(body)})"
    raise AssertionError(t)


def formula_to_json(f: Formula) -> dict:
    """JSON-friendly tree with node-type tags, for downstream tools."""
    match f:
        case TruthConst(v):
            return {"node": "truth", "value": v}
        case Pred(name, args):
            return {"node": "pred", "name": name,
                    "args": [_lterm_to_json(a) for a in args]}
        case And(l, r) | Or(l, r) | Implies(l, r):
            tag = {And: "and", Or: "or", Implies: "implies"}[type(f)]
            return {"node": tag, "left": formula_to_json(l),
                    "right": formula_to_json(r)}
        case Not(op):
            return {"node": "not", "operand": formula_to_json(op)}
        case Exists(var, sort, body) | Forall(var, sort, body):
            tag = "exists" if isinstance(f, Exists) else "forall"
            return {"node": tag, "var": var, "sort": sort,
                    "body": formula_to_json(body)}
        case Eq(l, r):
            return {"node": "eq", "left": _lterm_to_json(l),
                    "right": _lterm_to_json(r)}
    raise AssertionError(f)


def _lterm_to_json(t: LTerm) -> dict:
    match t:
        case LVar(name, sort):
            return {"term": "var", "name": name, "sort": sort}
        case LConst(name, sort):
            return {"term": "const", "name": name, "sort": sort}
        case LApp(fn, args):
            return {"term": "app", "fn": fn,
                    "args": [_lterm_to_json(a) for a in args]}
        case Eps(mode, sort, hole, body):
            return {"term": "choice", "mode": mode, "sort": sort,
                    "hole": hole, "body": formula_to_json(body)}
    raise AssertionError(t)


def formula_to_json_text(f: Formula) -> str:
    return json.dumps(formula_to_json(f), ensure_ascii=False)


# ---------------------------------------------------------------------------
# parsing (the s-expression style)

_CONNECTIVE_HEADS = frozenset({"and", "or", "implies", "not", "exists",
                               "forall", "=", "eps", "ieps", "tau"})


def parse_formula(text: str,
                  constants: dict[str, str] | None = None) -> Formula:
    """Parse the s-expression formula style printed by print_formula.

    `constants` maps free constant names to their sorts; unknown free atoms
    default to sort e.  Binders carry their own sorts.
    """
    return _formula_of(read_one(text), constants or {}, {})


def _formula_of(e: SExpr, consts: dict[str, str],
                scope: dict[str, str]) -> Formula:
    if isinstance(e, Atom):
        if e.text == "true":
            return TruthConst(True)
        if e.text == "false":
            return TruthConst(False)
        return Pred(e.text, ())
    if len(e) == 0:
        raise ParseError("empty formula", e.line, e.col)
    head = expect_atom(e[0], "formula head").text
    if head in ("and", "or", "implies"):
        if len(e) != 3:
            raise ParseError(f"({head} F F)", e.line, e.col)
        cls = {"and": And, "or": Or, "implies": Implies}[head]
        return cls(_formula_of(e[1], consts, scope),
                   _formula_of(e[2], consts, scope))
    if head == "not":
        if len(e) != 2:
            raise ParseError("(not F)", e.line, e.col)
        return Not(_formula_of(e[1], consts, scope))
    if head in ("exists", "forall"):
        if len(e) != 3:
            raise ParseError(f"({head} (VAR SORT) F)", e.line, e.col)
        binder = expect_list(e[1], "(VAR SORT)")
        if len(binder) != 2:
            raise ParseError("(VAR SORT)", binder.line, binder.col)
        var = expect_atom(binder[0], "variable").text
        sort = expect_atom(binder[1], "sort").text
        body = _formula_of(e[2], consts, {**scope, var: sort})
        return (Exists if head == "exists" else Forall)(var, sort, body)
    if head == "=":
        if len(e) != 3:
            raise ParseError("(= T T)", e.line, e.col)
        return Eq(_lterm_of(e[1], consts, scope),
                  _lterm_of(e[2], consts, scope))
    return Pred(head, tuple(_lterm_of(a, consts, scope)
                            for a in e.items[1:]))


def _lterm_of(e: SExpr, consts: dict[str, str],
              scope: dict[str, str]) -> LTerm:
    if isinstance(e, Atom):
        if e.text in scope:
            return LVar(e.text, scope[e.text])
        return LConst(e.text, consts.get(e.text, "e"))
    if len(e) == 0:
        raise ParseError("empty term", e.line, e.col)
    head = expect_atom(e[0], "term head").text
    if head in _CONST_OF_MODE.values():
        if len(e) != 4:
            raise ParseError(f"({head} SORT HOLE F)", e.line, e.col)
        sort = expect_atom(e[1], "sort").text
        hole = expect_atom(e[2], "hole variable").text
        body = _formula_of(e[3], consts, {**scope, hole: sort})
        return Eps(_MODE_OF_CONST[head], sort, hole, body)
    return LApp(head, tuple(_lterm_of(a, consts, scope)
                            for a in e.items[1:]))
