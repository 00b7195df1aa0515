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

Formulas and their terms are walked through one core.  `children` gives a
node's subformulas and subterms left to right and `rebuild` puts others in
their place, both by a table on the node's class.  `nodes` iterates in
pre-order on an explicit stack, `transform` rebuilds a formula with some
nodes replaced and `fold` combines results bottom-up.  The last two recurse
once per node but loop down a conjunction's left spine, the one dimension
that grows with a discourse; every other path is bounded by the reader's
`sexpr.MAX_DEPTH`.  The extraction, the parser and the infix printer, which
threads precedence, keep their own recursion.
"""

from __future__ import annotations

import itertools
from operator import attrgetter, is_

from . import kernel
from .errors import (ExtractionError, NotNormal, NotTruthType, ResidualLambda,
                     ParseError)
from .kernel import (App, BaseSort, Const, Lam, Term, TyApp, Type,
                     TypingContext, Var, free_vars, is_normal, normalize,
                     spine, type_of)
from .node import node
from .sexpr import Atom, SExpr, SList, expect_atom, expect_list, read_one

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


@node
class LVar(LTerm):
    name: str
    sort: str


@node
class LConst(LTerm):
    name: str
    sort: str


@node
class LApp(LTerm):
    fn: str
    args: tuple[LTerm, ...]


@node
class Eps(LTerm):
    """A choice term: its body is a formula with one designated hole
    variable of the term's sort."""
    mode: str  # INDEF, DEF or UNIVERSAL
    sort: str
    hole: str
    body: Formula


@node
class Pred(Formula):
    name: str
    args: tuple[LTerm, ...]


@node
class And(Formula):
    left: Formula
    right: Formula

    # `==`, `hash` and `repr` loop down the left spine, which grows with a
    # discourse; generated ones would recurse along it
    def __eq__(self, other):
        if type(other) is not And:
            return NotImplemented
        a, b = self, other
        while a.right == b.right:
            a, b = a.left, b.left
            if a is b:
                return True
            if type(a) is not And or type(b) is not And:
                return a == b
        return False

    def __hash__(self):
        f, h = self, 0
        while type(f.left) is And:
            h = hash((h, f.right))
            f = f.left
        return hash((h, f.left, f.right))

    def __repr__(self):
        first, rights = _and_spine(self)
        return "".join(["And(left=" * len(rights), repr(first)]
                       + [f", right={r!r})" for r in rights])


@node
class Or(Formula):
    left: Formula
    right: Formula


@node
class Implies(Formula):
    left: Formula
    right: Formula


@node
class Not(Formula):
    operand: Formula


@node
class Exists(Formula):
    var: str
    sort: str
    body: Formula


@node
class Forall(Formula):
    var: str
    sort: str
    body: Formula


@node
class Eq(Formula):
    left: LTerm
    right: LTerm


@node
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
    """The conjuncts of f, left to right."""
    return [g for g in nodes(f, into=(And,)) if type(g) is not And]


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


# ---------------------------------------------------------------------------
# traversal core

_PAIR = attrgetter("left", "right")
_CHILDREN = {
    LVar: lambda n: (), LConst: lambda n: (), TruthConst: lambda n: (),
    LApp: attrgetter("args"), Pred: attrgetter("args"),
    Eps: lambda n: (n.body,), Exists: lambda n: (n.body,),
    Forall: lambda n: (n.body,), Not: lambda n: (n.operand,),
    And: _PAIR, Or: _PAIR, Implies: _PAIR, Eq: _PAIR,
}
_REBUILD = {
    LApp: lambda n, k: LApp(n.fn, tuple(k)),
    Pred: lambda n, k: Pred(n.name, tuple(k)),
    Eps: lambda n, k: Eps(n.mode, n.sort, n.hole, k[0]),
    Exists: lambda n, k: Exists(n.var, n.sort, k[0]),
    Forall: lambda n, k: Forall(n.var, n.sort, k[0]),
    Not: lambda n, k: Not(k[0]), And: lambda n, k: And(*k),
    Or: lambda n, k: Or(*k), Implies: lambda n, k: Implies(*k),
    Eq: lambda n, k: Eq(*k),
}


def children(n: Formula | LTerm) -> tuple:
    """n's subformulas and subterms, left to right."""
    return _CHILDREN[type(n)](n)


def rebuild(n: Formula | LTerm, kids) -> Formula | LTerm:
    """n with `kids` in place of its children, in the order of `children`."""
    return _REBUILD[type(n)](n, kids) if kids else n


def _bound(n: Formula | LTerm) -> str | None:
    """The variable n binds, if it is a quantifier or a choice term."""
    t = type(n)
    if t is Exists or t is Forall:
        return n.var
    return n.hole if t is Eps else None


def nodes(root: Formula | LTerm, into=None):
    """root and every node below it, in pre-order, left to right, on an
    explicit stack.  With `into`, only the children of nodes whose class is
    in it are visited."""
    stack = [root]
    while stack:
        n = stack.pop()
        yield n
        if into is None or type(n) in into:
            stack.extend(reversed(_CHILDREN[type(n)](n)))


def transform(n: Formula | LTerm, visit, env=None,
              rebuilt: dict | None = None) -> Formula | LTerm:
    """n with nodes replaced, from the top down: `visit(m, env)` returns the
    node that takes m's place, or None to rebuild m from its children
    transformed in turn.  A visit that binds a name transforms the body
    itself, with a new env.  `rebuilt`, when given, receives each node
    rebuilt, by the id() of the node it replaces."""
    spine = []
    while (out := visit(n, env)) is None:
        t = type(n)
        if t is not And:
            kids = _CHILDREN[t](n)
            new = [transform(k, visit, env, rebuilt) for k in kids]
            if all(map(is_, new, kids)):
                out = n
            else:
                out = _REBUILD[t](n, new)
                if rebuilt is not None:
                    rebuilt[id(n)] = out
            break
        spine.append(n)
        n = n.left
    for node in reversed(spine):
        right = transform(node.right, visit, env, rebuilt)
        if out is node.left and right is node.right:
            out = node
        else:
            out = And(out, right)
            if rebuilt is not None:
                rebuilt[id(node)] = out
    return out


def fold(n: Formula | LTerm, combine, into=None):
    """`combine(m, results)` at every node m, bottom-up, left to right, where
    `results` holds the folds of m's children.  With `into`, the children of
    nodes whose class is not in it are skipped and their results are
    empty."""
    spine = []
    while type(n) is And and (into is None or And in into):
        spine.append(n)
        n = n.left
    if into is None or type(n) in into:
        out = combine(n, [fold(k, combine, into)
                          for k in _CHILDREN[type(n)](n)])
    else:
        out = combine(n, ())
    for node in reversed(spine):
        out = combine(node, [out, fold(node.right, combine, into)])
    return out


# ---------------------------------------------------------------------------
# extraction


def extract_formula(term: Term, ctx: TypingContext | None = None,
                    ty: Type | None = None) -> Formula:
    """Structural translation of a normal term of type t into a formula.

    The term must be normal and closed except for constants; a lambda or a
    predicate variable surviving in formula position is higher-order residue
    and is rejected rather than reified.  `ty`, when given, is the term's
    type, already checked (normalization keeps it); else it is worked out.
    """
    if not is_normal(term):
        raise NotNormal(f"term has a redex: {kernel.print_term(term)}")
    if ty is None:
        ty = _term_type(term, ctx)
    if ty != kernel.T:
        raise NotTruthType(f"term has type {ty}, not t")
    return _to_formula(term)


def _term_type(term: Term, ctx: TypingContext | None):
    if ctx is None:
        consts = {n.name: n.type for n in kernel.nodes(term)
                  if type(n) is Const}
        sorts = {s.name for ty in consts.values() for s in kernel.nodes(ty)
                 if type(s) is BaseSort}
        ctx = TypingContext(
            sorts=kernel.BUILTIN_SORTS | frozenset(sorts),
            consts={**kernel.BUILTIN_CONSTANTS, **consts},
            vars=dict(free_vars(term)))
    return type_of(ctx, term)


def _sort_of(ty) -> str:
    if not isinstance(ty, BaseSort):
        raise ResidualLambda(f"expected an entity sort, found {ty}")
    return ty.name


def _to_formula(term: Term) -> Formula:
    head, args = spine(term)
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


def _fresh_names():
    return itertools.chain("xyzw", (f"x{i}" for i in itertools.count(1)))


def _fresh_var(avoid) -> str:
    return next(name for name in _fresh_names() if name not in avoid)


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
            head, args = spine(term)
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


def presuppositions(term: Term, ctx: TypingContext | None = None
                    ) -> list[Formula]:
    """The restriction of every indefinite (and every definite left
    unresolved, which behaves the same) applied to its own choice term.

    Formulas are collected left-to-right and alpha-duplicates emitted once.
    `ctx` types the term's constants; each candidate's free variables, bound
    above the choice term, are added to it.  A session works this out once
    per distinct composed term (see `cli.analyze_tree`).
    """
    found: list[Formula] = []
    seen: set[Formula] = set()  # canon_formula of each formula in found

    for t in kernel.nodes(term):
        match t:
            case App(TyApp(Const("eps" | "ieps", _), _), pred):
                body = normalize(App(pred, t))
                local = ctx
                if ctx is not None and (free := free_vars(body)):
                    local = TypingContext(ctx.sorts, ctx.consts,
                                          {**ctx.vars, **free})
                candidate = extract_formula(body, local)
                key = canon_formula(candidate)
                if key not in seen:
                    seen.add(key)
                    found.append(candidate)
    return found


# ---------------------------------------------------------------------------
# alpha equivalence of formulas


def formula_alpha_eq(a: Formula, b: Formula) -> bool:
    return canon_formula(a) == canon_formula(b)


def canon_formula(f: Formula) -> Formula:
    """f with its bound variables renamed `!q0`, `!q1`, ... in pre-order, so
    that alpha-equivalent formulas have equal canonical forms."""
    fresh = (f"!q{i}" for i in itertools.count())

    def visit(n, env):
        t = type(n)
        if t is LVar:
            return LVar(env[n.name], n.sort) if n.name in env else n
        if t is Exists or t is Forall or t is Eps:
            name = next(fresh)
            body = transform(n.body, visit, {**env, _bound(n): name})
            if t is Eps:
                return Eps(n.mode, n.sort, name, body)
            return t(name, n.sort, body)
        return None

    return transform(f, visit, {})


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
    a memo that lives for this call.  The left operand of a conjunction has
    a subset of its conjuncts, so a pivot ruled out at a conjunction is not
    tried again down its left spine.  A pivot is ruled out before any
    abstraction when no conjunct has the head of its restriction (`_head`),
    and after a failed try that would fail the same way below
    (`_fails_below`).  Rewriting a discourse therefore costs time linear in
    its number of sentences in every presupposition mode, `off` included,
    where no sentence carries its choice term's restriction.

    Pivots, and the conjuncts grouped by `_head`, come from one walk down a
    conjunction's left spine (`_spine_pivots`).  A try makes one pass over
    the subformula (`_abstract`), or two when the pivot's hole name occurs
    outside the pivot and a fresh name must be bound instead.  The renamed
    restriction is compared only with the conjuncts that share its head,
    and an unchanged conjunct's `canon_formula` key is worked out once per
    call.  When a try fires, the pivots of the new body are those of the
    subformula less this one; they enter the memo, so the result is not
    walked again when nothing is left to bind.

    Each distinct subformula object is rewritten once per call, and a node
    is rebuilt only when an operand changed, so a formula in which nothing
    fires comes back as the very object.
    """
    memo: dict[int, tuple[Formula, tuple[Eps, ...]]] = {}
    keys: dict[int, tuple[Formula, Formula]] = {}  # id -> (conjunct, key)
    done: dict[int, tuple[Formula, Formula]] = {}  # id -> (g, rewrite(g))

    def key(c: Formula, rebuilt: dict) -> Formula:
        """The canon_formula key of conjunct c after a try's pass."""
        new = rebuilt.get(id(c))
        if new is not None:
            return canon_formula(new)
        hit = keys.get(id(c))
        if hit is None:
            hit = keys[id(c)] = c, canon_formula(c)
        return hit[1]

    def rewrite_here(g: Formula, pivots: tuple[Eps, ...], ruled_out: set[int],
                     by_head: dict) -> Formula | None:
        for pivot in pivots:
            if id(pivot) in ruled_out:
                continue
            candidates = by_head[_head(pivot.body)]
            if not candidates:  # nor has any conjunction below
                ruled_out.add(id(pivot))
                continue
            var = pivot.hole
            out, names, rebuilt = _abstract(g, pivot, LVar(var, pivot.sort))
            if var in names:
                var = _fresh_var(names)
                out, _, rebuilt = _abstract(g, pivot, LVar(var, pivot.sort))
            body_key = canon_formula(_rename_hole(pivot, var))
            if any(key(c, rebuilt) == body_key for c in candidates):
                # no two pivots are equal, so only this one is gone
                memo[id(out)] = out, tuple(p for p in pivots if p is not pivot)
                cls = Forall if pivot.mode == UNIVERSAL else Exists
                return cls(var, pivot.sort, out)
            if _fails_below(pivot, var):
                ruled_out.add(id(pivot))
        return None

    def rewrite(g: Formula) -> Formula:
        hit = done.get(id(g))
        if hit is not None:
            return hit[1]
        top, ands = g, []
        by_head: dict = {}  # the distinct conjuncts of g, by _head
        added: dict = {}  # see _spine_pivots
        if type(g) is And:
            pivots = _spine_pivots(g, memo, by_head, added)
        else:
            pivots = _eps_pivots(g, memo)
            by_head[_head(g)] = [g]
        # pivots below g are some of g's, the very objects: ids identify them
        ruled_out = {id(p) for p in pivots if _head(p.body) not in by_head}
        out = g
        while pivots:
            live = not ruled_out.issuperset(map(id, pivots))
            if live and (new := rewrite_here(g, pivots, ruled_out,
                                             by_head)) is not None:
                out = rewrite(new)
                break
            if type(g) is not And:
                if not isinstance(g, (Pred, Eq)):
                    kids = [rewrite(k) for k in children(g)]
                    if not all(map(is_, kids, children(g))):
                        out = rebuild(g, kids)
                break
            ands.append(g)
            if live:  # by_head is read for pivots not ruled out only
                # the conjuncts first met in the right operand are the last
                # of their heads
                for h in added.get(id(g), ()):
                    by_head[h].pop()
            g = out = g.left
            pivots = _eps_pivots(g, memo)
        for a in reversed(ands):
            right = rewrite(a.right)
            out = a if out is a.left and right is a.right else And(out, right)
        done[id(top)] = top, out
        return out

    return rewrite(f)


def _head(f: Formula):
    """What canon_formula keeps of a formula's top node: its class, and for
    a predicate its name and arity."""
    if isinstance(f, Pred):
        return f.name, len(f.args)
    return type(f)


def _fails_below(pivot: Eps, var: str) -> bool:
    """Whether a pivot whose try bound `var` and failed at a conjunction
    fails at the conjunction's left operand too.

    The operand has a subset of the conjunction's conjuncts and names, so
    its try binds the hole again, or a name `_fresh_var` picks no later
    than `var`.  Each of them is new to every conjunct, and the outcome is
    the same for all of them unless one other than the hole occurs in the
    restriction, where the renamed hole can be captured."""
    if var == pivot.hole:
        return True
    names = _formula_names(pivot.body) - {pivot.hole}
    for name in _fresh_names():
        if name in names:
            return False
        if name == var:
            return True


def _eps_pivots(g: Formula, memo: dict) -> tuple[Eps, ...]:
    """Choice terms occurring in term positions of g, in occurrence order,
    without descending into other choice terms' bodies.  No two of them are
    equal.

    `memo` maps the id() of every subformula already seen to the subformula
    (which keeps the id from being reused) and its pivots."""
    hit = memo.get(id(g))
    if hit is not None:
        return hit[1]
    match g:
        case And():
            return _spine_pivots(g, memo)
        case Pred() | Eq():
            out = _term_pivots(children(g))
        case _:
            out = ()
            for k in children(g):
                out = _merge_pivots(out, _eps_pivots(k, memo))
    memo[id(g)] = (g, out)
    return out


def _spine_pivots(g: And, memo: dict, by_head: dict | None = None,
                  added: dict | None = None) -> tuple[Eps, ...]:
    """_eps_pivots of a conjunction, from one walk down its left spine that
    enters each conjunction on it into `memo`.  An operand met again adds
    nothing, nor does a pivot tuple: the sentences one stored analysis
    serves share its formula, and so its pivots, and merging compares
    distinct equal choice terms field by field.  With `by_head`, the walk
    also enters each distinct conjunct of g in it, grouped by `_head` in
    the order first met from the bottom, and `added` maps the id() of a
    conjunction on the spine to the heads of the conjuncts first met in its
    right operand."""
    spine = []
    while type(g) is And and (by_head is not None or id(g) not in memo):
        spine.append(g)
        g = g.left
    out = _eps_pivots(g, memo)
    if by_head is not None:
        by_head[_head(g)] = [g]
    seen, merged = {id(g)}, {id(out)}
    for node in reversed(spine):
        right = node.right
        if id(right) not in seen:
            pivots = _eps_pivots(right, memo)
            if id(pivots) not in merged:
                merged.add(id(pivots))
                out = _merge_pivots(out, pivots)
            if by_head is not None:
                added[id(node)] = heads = []
                for c in (flatten_and(right) if type(right) is And
                          else (right,)):
                    if id(c) not in seen:
                        seen.add(id(c))
                        by_head.setdefault(h := _head(c), []).append(c)
                        heads.append(h)
            seen.add(id(right))
        memo[id(node)] = node, out
    return out


def _merge_pivots(first: tuple[Eps, ...],
                  second: tuple[Eps, ...]) -> tuple[Eps, ...]:
    out = first
    for p in second:
        if p not in out:
            out += (p,)
    return out


def _term_pivots(terms) -> tuple[Eps, ...]:
    out: list[Eps] = []
    for t in terms:
        for n in nodes(t, into=(LApp,)):
            if type(n) is Eps and n not in out:
                out.append(n)
    return tuple(out)


def _abstract(g: Formula, pivot: Eps, var: LVar
              ) -> tuple[Formula, set[str], dict[int, Formula | LTerm]]:
    """g with `var` in place of each occurrence of `pivot` in a term
    position, in one pass.  Also returns the variable names met outside
    those occurrences, other choice terms' bodies included, and the nodes
    rebuilt, by the id() of the node each replaces."""
    names: set[str] = set()
    rebuilt: dict[int, Formula | LTerm] = {}

    def visit(n, _):
        t = type(n)
        if t is Eps:
            if n is pivot or n == pivot:
                return var
            names.update(_formula_names(n))
            return n
        if t is LVar:
            names.add(n.name)
            return n
        if t is Exists or t is Forall:
            names.add(n.var)
        return rebuilt.get(id(n))  # a shared subtree met before

    return transform(g, visit, rebuilt=rebuilt), names, rebuilt


def _rename_hole(pivot: Eps, var: str) -> Formula:
    """The pivot's restriction with `var` in place of its hole."""
    new = LVar(var, pivot.sort)

    def visit(n, _):
        if type(n) is LVar:
            return new if n.name == pivot.hole else n
        return n if _bound(n) == pivot.hole else None

    return transform(pivot.body, visit)


def _formula_names(f: Formula) -> set[str]:
    """All variable names occurring in f, bound or free."""
    names = {n.name if type(n) is LVar else _bound(n) for n in nodes(f)}
    names.discard(None)
    return names


def free_formula_vars(f: Formula | LTerm) -> set[str]:
    """The variables free in a formula or a term."""
    def combine(n, kids):
        if type(n) is LVar:
            return {n.name}
        out = set().union(*kids)
        out.discard(_bound(n))
        return out

    return fold(f, combine)


# ---------------------------------------------------------------------------
# printing

_EPS_ASCII = {INDEF: "eps", DEF: "the", UNIVERSAL: "tau"}
_EPS_UNICODE = {INDEF: "ε", DEF: "ιε", UNIVERSAL: "τ"}

_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4, 5


def print_formula(f: Formula, style: str = "ascii") -> str:
    """Deterministic canonical rendering; parentheses are minimal under the
    precedence not < and < or < implies, with quantifier bodies
    parenthesized when they are binary connectives.  Each distinct conjunct
    object of a conjunction is printed once (`_each_once`)."""
    if style == "sexpr":
        return _sexpr(f)
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


def _each_once(show, items) -> list[str]:
    """show(x) for each of items, worked out once per distinct object: the
    sentences one stored analysis serves share its formula, so a discourse
    has a few distinct conjuncts however long it is."""
    ids = list(map(id, items))
    texts = {i: show(x) for i, x in dict(zip(ids, items)).items()}
    return list(map(texts.__getitem__, ids))


def _sexpr(n: Formula | LTerm) -> str:
    if type(n) is And:
        first, rights = _and_spine(n)
        return "".join(["(and " * len(rights), _sexpr(first)] + _each_once(
            lambda r: f" {_sexpr(r)})", rights))
    head = _SEXPR_HEAD[type(n)](n)
    kids = children(n)
    # `(f )` keeps its parentheses, or it would read back as a constant
    if not kids and type(n) is not LApp:
        return head
    return f"({head} {' '.join(map(_sexpr, kids))})"


def _json_pair(tag):
    return lambda n, k: {"node": tag, "left": k[0], "right": k[1]}


def _json_quantifier(tag):
    return lambda n, k: {"node": tag, "var": n.var, "sort": n.sort,
                         "body": k[0]}


_JSON = {
    TruthConst: lambda n, k: {"node": "truth", "value": n.value},
    Pred: lambda n, k: {"node": "pred", "name": n.name, "args": k},
    And: _json_pair("and"), Or: _json_pair("or"),
    Implies: _json_pair("implies"), Eq: _json_pair("eq"),
    Not: lambda n, k: {"node": "not", "operand": k[0]},
    Exists: _json_quantifier("exists"), Forall: _json_quantifier("forall"),
    LVar: lambda n, k: {"term": "var", "name": n.name, "sort": n.sort},
    LConst: lambda n, k: {"term": "const", "name": n.name, "sort": n.sort},
    LApp: lambda n, k: {"term": "app", "fn": n.fn, "args": k},
    Eps: lambda n, k: {"term": "choice", "mode": n.mode, "sort": n.sort,
                       "hole": n.hole, "body": k[0]},
}


def formula_to_json(f: Formula) -> dict:
    """JSON-friendly tree with node-type tags, for downstream tools."""
    return fold(f, lambda n, kids: _JSON[type(n)](n, kids))


# ---------------------------------------------------------------------------
# parsing (the s-expression style)

def parse_formula(text: str,
                  constants: dict[str, str] | None = None) -> Formula:
    """Parse the s-expression formula style printed by print_formula.

    `constants` maps free constant names to their sorts; unknown free atoms
    default to sort e.  Binders carry their own sorts.
    """
    return _formula_of(read_one(text, and_spine=True), constants or {}, {})


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
        if head == "and":
            return _conjunction_of(e, consts, scope)
        cls = {"or": Or, "implies": Implies}[head]
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


def _conjunction_of(e: SList, consts: dict[str, str],
                    scope: dict[str, str]) -> Formula:
    """An `(and F F)` list, looping down the spine of its left operands."""
    rights = []
    while (type(e) is SList and len(e) and type(e[0]) is Atom
           and e[0].text == "and"):
        if len(e) != 3:
            raise ParseError("(and F F)", e.line, e.col)
        rights.append(e[2])
        e = e[1]
    out = _formula_of(e, consts, scope)
    for right in reversed(rights):
        out = And(out, _formula_of(right, consts, scope))
    return out


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
