"""Multisorted formulas extracted from normal terms of truth type.

A normal term whose constants belong to the logical signature reads off
directly as a formula: application spines become predicates, the connective
constants become connectives, instantiated `exists`/`forall` become sorted
quantifiers, and instantiated choice operators become choice terms carrying
their restriction as a formula with one designated hole variable.

The module also reads off the presuppositions of choice terms (the
restriction applied to the term itself), rewrites the classical patterns
`B(choice_x B)` into sorted quantifiers, and prints formulas canonically in
ascii, unicode or s-expression style.  The rewrite makes one pass over a
conjunction: it tries each choice term once, in occurrence order, and puts
the quantifiers of those that fire around it last.  It takes a conjunction
as its list of parts, so a discourse hands it the parts it holds and the
conjunction is built once, rewritten (`rewrite_conjunction`).

Formulas and their terms are walked through the traversal kernel terms
are (`node.Tree`): `nodes` iterates in pre-order, `transform` rebuilds a
formula with some nodes replaced and binder scope carried down, and `fold`
combines results bottom-up, each on an explicit stack, so no shape of
formula costs a Python frame per level.  The printers are tables of
layouts on the printer kernel terms and `repr` run on (`node.emit`), so
they take any shape too.  `==`, `hash`, `rewrite_hilbert`, the extraction
and the parser keep their own recursion; the first two loop down a
conjunction's left spine.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import reduce
from operator import attrgetter, is_

from . import kernel
from .errors import ExtractionError, NotNormal, NotTruthType, ResidualLambda
from .kernel import (App, BaseSort, Const, Lam, Term, TyApp, Type,
                     TypingContext, Var, free_vars, is_normal, spine, type_of)
from .node import Tree, emit, enclose, node
from .sexpr import (Atom, SExpr, SList, expect_atom, expect_len, expect_list,
                    read_one)

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

    # `==` and `hash` loop down the left spine, which grows with a
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
    """Left-fold a sequence into nested conjunctions; `true` if empty."""
    formulas = list(formulas)
    return reduce(And, formulas) if formulas else TruthConst(True)


def flatten_and(f: Formula) -> list[Formula]:
    """The conjuncts of f, left to right, looping down the left spine, which
    grows with a discourse."""
    rights = []
    while type(f) is And:
        rights.append(f.right)
        f = f.left
    out = [f]
    for r in reversed(rights):
        if type(r) is And:
            out += [g for g in nodes(r, into=(And,)) if type(g) is not And]
        else:
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# traversal core

_TREE = Tree({LVar: "", LConst: "", TruthConst: "", LApp: "*args",
              Pred: "*args", Eps: "body", Exists: "body", Forall: "body",
              Not: "operand", And: "left right", Or: "left right",
              Implies: "left right", Eq: "left right"},
             {Exists: "var", Forall: "var", Eps: "hole", LVar: "name"})
_BINDERS = (Exists, Forall, Eps)
_BOUND = dict.fromkeys(_BINDERS, LVar)  # the variables a binder binds
nodes, transform, fold = _TREE.nodes, _TREE.transform, _TREE.fold


def _bound(n: Formula | LTerm) -> str | None:
    """The variable n binds, if it is a quantifier or a choice term."""
    return _TREE.names[type(n)][0](n) if type(n) in _BINDERS else None


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


def presuppositions(f: Formula | Term, ctx: TypingContext | None = None
                    ) -> list[Formula]:
    """The restriction of every indefinite (and every definite left
    unresolved, which behaves the same) applied to its own choice term: its
    body with the term in place of its hole, in pre-order, alpha-duplicates
    emitted once.  A binder keeps the name the formula gives it unless it
    would capture a variable of the term.  A term is extracted first (`ctx`
    types its constants), so it must be a normal term of type t."""
    if isinstance(f, Term):
        f = extract_formula(f, ctx)
    found: dict[Formula, Formula] = {}  # canon_formula key -> first formula
    for e in nodes(f):
        if type(e) is Eps and e.mode != UNIVERSAL:
            p = _substitute(e.body, e.hole, e)
            found.setdefault(canon_formula(p), p)
    return list(found.values())


def _substitute(f: Formula, var: str, repl: LTerm,
                rename: bool = True) -> Formula:
    """f with `repl` in place of the free variable `var`, renaming a binder
    that would capture a variable of repl as the kernel renames one, in
    the same pass.  With `rename` false it captures, as a rewrite's try
    allows (`_fails_below`)."""
    return _TREE.substitute(f, var, repl, LVar, _BINDERS, (
        lambda binder, v: LVar(v, binder.sort)) if rename else None)


# ---------------------------------------------------------------------------
# alpha equivalence of formulas


def canon_formula(f: Formula) -> Formula:
    """f with its bound variables renamed `!q0`, `!q1`, ... in pre-order, so
    that alpha-equivalent formulas have equal canonical forms."""
    fresh = (f"!q{i}" for i in itertools.count())
    return _TREE.canonical(f, lambda binder, depth: next(fresh), _BOUND)


# ---------------------------------------------------------------------------
# rewriting choice patterns into quantifiers


def rewrite_hilbert(f: Formula) -> Formula:
    """Replace each subformula of shape Body[choice_x Body] by the
    corresponding sorted quantifier, outside-in.

    The match also fires when the choice term's restriction is one conjunct
    of the abstracted subformula, which is the shape a sentence takes once
    its presuppositions are conjoined in.  Choice terms that fit no pattern
    are left intact: they are strictly more expressive than quantifiers.

    f goes to the core `rewrite_conjunction` runs as the operands of its
    left spine.  A node is rebuilt only when an operand changed, so a
    formula in which nothing fires comes back as the very object.
    """
    return _rewrite(*_operands(f))


def rewrite_conjunction(parts) -> Formula:
    """`rewrite_hilbert(conjoin(parts))`, without the conjunction: a
    discourse hands its presuppositions and sentence formulas as it holds
    them, each distinct part is keyed once, and the left-nested conjunction
    of their rewritten versions is built once.  `true` if empty."""
    parts = list(parts)
    return _rewrite(parts, None) if parts else TruthConst(True)


def _operands(g: Formula) -> tuple[list[Formula], list[And]]:
    """The operands of g's left spine, leftmost first (g alone when it is
    no conjunction), and the `And` above each operand after the first."""
    spine = []
    while type(g) is And:
        spine.append(g)
        g = g.left
    spine.reverse()
    return [g, *(a.right for a in spine)], spine


def _rewrite(parts: list[Formula], spine: list[And] | None) -> Formula:
    """The conjunction of `parts`, left-nested, rewritten, keeping each
    `And` of `spine`, when given, whose operands come back as they were.

    The conjunction is rewritten at its top in one pass (`_Pass`) that
    tries each of its pivots once, and each distinct subformula object is
    then rewritten inside once.  A pivot that did not fire at a conjunction
    fails at every conjunction below it too, which has a subset of its
    conjuncts and names, unless its renamed hole can be captured there
    (`_fails_below`).  Only such pivots are tried again, down the left
    spine and in the right operands.  A restriction that binds no variable,
    as a noun's does, leaves none, so a discourse's rewrite costs time
    linear in its length, and no call recurses per sentence or per fire.
    """
    done: dict[int, tuple[Formula, Formula]] = {}  # id -> (g, rewrite(g))

    def inside(c: Formula) -> Formula:
        """c with its subformulas rewritten."""
        if type(c) is Pred or type(c) is Eq:
            return c
        kids = _TREE.children[type(c)](c)
        new = [rewrite(k) for k in kids]
        return c if all(map(is_, new, kids)) else _TREE.rebuild[type(c)](
            c, *new)

    def rewrite(g: Formula, live: set[Eps] | None = None) -> Formula:
        """g rewritten, where only the pivots in `live`, or any when it is
        None, can fire at g's conjunction."""
        if live is None and (hit := done.get(id(g))) is not None:
            return hit[1]
        out = rewrite_parts(*_operands(g), live)
        if live is None:
            done[id(g)] = g, out
        return out

    def rewrite_parts(parts, spine, live) -> Formula:
        levels = []
        while True:
            now = _Pass(parts, live)
            if not now.live or len(parts) == 1 and type(parts[0]) is not And:
                final = {i: inside(c) for i, c in now.conjuncts.items()}
                out = now.wrap(now.conjoined(spine, final))
                break
            # a pivot that did not fire may fire at a conjunction below
            body = now.conjoined(spine, now.conjuncts)
            levels.append((now, body))
            (parts, spine), live = _operands(body.left), now.live
        for now, a in reversed(levels):
            right = rewrite(a.right, now.live)
            out = now.wrap(a if out is a.left and right is a.right
                           else And(out, right))
        return out

    return rewrite_parts(parts, spine, None)


_OUTSIDE_CHOICE = frozenset(_TREE.children) - {Eps}


class _Pass:
    """One pass of the rewrite at the top of the conjunction of `parts`.

    Each pivot, a choice term in a term position of the conjunction, is
    tried once, in occurrence order, against the `canon_formula` keys of
    its distinct conjuncts: the distinct parts, each `And` among them
    flattened (`flatten_and`).  Its hole is renamed to a name used nowhere
    outside the pivot, read off `free`, the names met outside every pivot,
    and `held`, the number of pivots each name occurs in.  Only the
    conjuncts that hold the pivot are abstracted and keyed (`_matches`).  A
    fire puts the conjunction under a new quantifier, a formula of its own,
    and a pivot whose restriction is a quantifier of that kind is tried
    there.

    `distinct` maps the id() of each distinct part to it, `conjuncts` the
    id() of each distinct conjunct to its version with the fired pivots
    replaced, `fired` holds the fired pivots with their variables,
    outermost first, and `live` the pivots that did not fire and may fire
    at a conjunction below this one.  Only the pivots in the `live` given,
    or all when it is None, are tried.
    """

    def __init__(self, parts: list[Formula], live: set[Eps] | None):
        self.parts, self.ids = parts, list(map(id, parts))
        self.distinct = dict(zip(self.ids, parts))
        self.nested = And in map(type, self.distinct.values())
        self.conjuncts: dict[int, Formula] = {  # each part's in its place
            id(c): c for p in self.distinct.values() for c in flatten_and(p)
        } if self.nested else dict(self.distinct)
        self.fired: list[tuple[Eps, str]] = []
        self.live: set[Eps] = set()
        self.holders: dict[Eps, list[int]] = {}  # pivot -> its conjuncts
        self.free: set[str] = set()
        for i, c in self.conjuncts.items():
            for n in nodes(c, into=_OUTSIDE_CHOICE):
                t = type(n)
                if t is Eps:
                    at = self.holders.setdefault(n, [])
                    if not at or at[-1] != i:
                        at.append(i)
                elif t is LVar:
                    self.free.add(n.name)
                elif t is Exists or t is Forall:
                    self.free.add(n.var)
        # abstraction keeps a conjunct's top node, so a pivot whose
        # restriction has another one fails here and below
        heads = {_head(c) for c in self.conjuncts.values()}
        tried = [p for p in self.holders if (live is None or p in live)
                 and _head(p.body) in heads]
        if not tried:
            return
        self.names = {p: _formula_names(p) for p in self.holders}
        self.held = Counter(n for names in self.names.values() for n in names)
        self.fresh, self.unbound = _fresh_names(), []  # fresh, not in free
        quantified = [p for p in self.holders
                      if type(p.body) is Exists or type(p.body) is Forall]
        for p in tried:
            if p not in self.holders:  # it fired at a quantifier
                continue
            var, new, want = self._try(p)
            if self._matches(new, var, want):
                at = len(self.fired)
                self._fire(p, var, new, at)
                while self._fires_at_quantifier(at, quantified):
                    pass
            elif not _fails_below(p, var):
                self.live.add(p)

    def conjoined(self, spine: list[And] | None,
                  versions: dict[int, Formula]) -> Formula:
        """The left-nested conjunction of the parts with each conjunct c
        replaced by versions[id(c)], built once; an `And` of `spine` whose
        operands come back as they were is kept."""
        def visit(n, _):
            return None if type(n) is And else versions[id(n)]

        new = versions if not self.nested else {
            i: transform(p, visit) if type(p) is And else versions[i]
            for i, p in self.distinct.items()}
        if spine is None:
            return reduce(And, map(new.__getitem__, self.ids))
        out = new[id(self.parts[0])]
        for a in spine:
            right = new[id(a.right)]
            out = a if out is a.left and right is a.right else And(out, right)
        return out

    def _fires_at_quantifier(self, at: int, quantified: list[Eps]) -> bool:
        """Whether a pivot fires at the conjunction under the quantifiers of
        the pivots fired from `at` on, and fires there, bound outside
        them."""
        cls = _quantifier(self.fired[at][0])
        tried = [q for q in quantified
                 if q in self.holders and type(q.body) is cls]
        if tried:
            top = self.wrap(self.conjoined(None, self.conjuncts), at)
        for q in tried:
            var, new, want = self._try(q)
            if canon_formula(_abstract(top, q, LVar(var, q.sort))) == want:
                self._fire(q, var, new, at)
                self.live.discard(q)
                return True
        return False

    def _try(self, p: Eps):
        """p's variable, the conjuncts that hold p with it in p's place, and
        the key of p's restriction of it."""
        mine = self.names[p]

        def in_use(name):
            return name in self.free or self.held[name] > (name in mine)

        var = p.hole if not in_use(p.hole) else self._fresh(in_use)
        lvar = LVar(var, p.sort)
        new = {i: _abstract(self.conjuncts[i], p, lvar)
               for i in self.holders[p]}
        want = _substitute(p.body, p.hole, lvar, rename=False)
        return var, new, canon_formula(want)

    def _fresh(self, in_use) -> str:
        """The first fresh name not in use.  A name in `free` stays in use,
        so it is dropped from the names scanned."""
        names, i = self.unbound, 0
        while True:
            if i == len(names):
                names.append(next(self.fresh))
            if names[i] in self.free:
                del names[i]
            elif in_use(names[i]):
                i += 1
            else:
                return names[i]

    def _matches(self, new: dict[int, Formula], var: str, want: Formula):
        """Whether `want` is the key of a conjunct: of one that held the
        pivot, in its `new` version, or of another.  `var` occurs in no
        other conjunct, so those are keyed only when `var` is not free in
        `want`.  A conjunct that holds the pivot is larger than its
        restriction, so its old version never matches."""
        if any(canon_formula(c) == want for c in new.values()):
            return True
        return var not in free_formula_vars(want) and any(
            canon_formula(c) == want for c in self.conjuncts.values())

    def _fire(self, p: Eps, var: str, new: dict[int, Formula], at: int):
        self.conjuncts.update(new)
        self.free.add(var)
        self.held.subtract(self.names[p])
        del self.holders[p]
        self.fired.insert(at, (p, var))

    def wrap(self, f: Formula, at: int = 0) -> Formula:
        """f under the quantifiers of the pivots fired from `at` on."""
        for p, var in reversed(self.fired[at:]):
            f = _quantifier(p)(var, p.sort, f)
        return f


def _quantifier(pivot: Eps) -> type:
    return Forall if pivot.mode == UNIVERSAL else Exists


def _head(f: Formula):
    """What canon_formula keeps of a formula's top node: its class, and for
    a predicate its name and arity."""
    if type(f) is Pred:
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


def _abstract(g: Formula, pivot: Eps, var: LVar) -> Formula:
    """g with `var` in place of each occurrence of `pivot` in a term
    position."""
    def visit(n, _):
        if type(n) is Eps:
            return var if n is pivot or n == pivot else n
        return None

    return transform(g, visit)


def _formula_names(f: Formula) -> set[str]:
    """All variable names occurring in f, bound or free."""
    names = {n.name if type(n) is LVar else _bound(n) for n in nodes(f)}
    names.discard(None)
    return names


def free_formula_vars(f: Formula | LTerm) -> set[str]:
    """The variables free in a formula or a term."""
    return _TREE.free(f, LVar, _BINDERS)


# ---------------------------------------------------------------------------
# printing

# the infix precedences: an operand whose precedence is below the one its
# place asks for is parenthesized; quantifiers bind loosest
_PREC = {Exists: 0, Forall: 0, Implies: 1, Or: 2, And: 3, Not: 4, Eq: 4,
         Pred: 5, TruthConst: 5}


def print_formula(f: Formula, style: str = "ascii") -> str:
    """Deterministic canonical rendering; parentheses are minimal under the
    precedence not < and < or < implies, with quantifier bodies
    parenthesized when they are binary connectives.  Each distinct right
    operand of a connective, as a discourse's conjunct, is printed once."""
    layouts = _STYLES.get(style)
    if layouts is None:
        raise ValueError(f"unknown style '{style}'")
    return emit(f, layouts)


def _infix(uni: bool) -> dict:
    """What each node prints as in the ascii or the unicode style, last
    first, with the parentheses an operand needs around it (`_PREC`)."""
    eps = {INDEF: "ε", DEF: "ιε", UNIVERSAL: "τ"} if uni else \
        {INDEF: "eps", DEF: "the", UNIVERSAL: "tau"}
    quantifier = {Exists: "∃" if uni else "exists ",
                  Forall: "∀" if uni else "forall "}
    neg = "¬" if uni else "not "
    and_sym, and_opened = (" ∧ ", " ∧ (") if uni else (" & ", " & (")

    def binary(sym: str, left: int, right: int):  # the precedences l, r need
        sym, opened = f" {sym} ", f" {sym} ("

        def layout(n):  # the right operand printed once (`node.emit`)
            r, l = n.right, n.left
            out = [")", (opened, (r,))] if _PREC[type(r)] < right else \
                [(sym, (r,))]
            out += (")", l, "(") if _PREC[type(l)] < left else (l,)
            return out
        return layout

    # the classes a right conjunct is parenthesized for
    opens = {cls for cls, prec in _PREC.items() if prec <= _PREC[And]}

    def conjunction(n):  # the left spine, flat: a & b & c, each distinct
        rights = []      # conjunct printed once (`node.emit`)
        while type(n) is And:
            rights.append(n.right)
            n = n.left
        if opens.isdisjoint(map(type, rights)):
            out = [(and_sym, reversed(rights))]
        else:  # runs of conjuncts, and each one parenthesized alone
            out, run = [], []
            for r in rights:
                if type(r) in opens:
                    if run:
                        out.append((and_sym, reversed(run)))
                        run = []
                    out += (")", (and_opened, (r,)))
                else:
                    run.append(r)
            if run:
                out.append((and_sym, reversed(run)))
        out += (")", n, "(") if _PREC[type(n)] < _PREC[And] else (n,)
        return out

    def quantified(n):
        head = f"{quantifier[type(n)]}{n.var}:{n.sort}. "
        if type(n.body) in (And, Or, Implies):
            return ")", n.body, head + "("
        return n.body, head

    return {
        TruthConst: _truth, LVar: _name, LConst: _name,
        Pred: lambda n: enclose(f"{n.name}(", n.args, ",") if n.args
        else n.name,
        LApp: lambda n: enclose(f"{n.fn}(", n.args, ","),
        Eps: lambda n: (")", n.body, f"{eps[n.mode]}[{n.sort}]({n.hole}. "),
        Eq: lambda n: (n.right, " = ", n.left),
        Not: lambda n: (")", n.operand, neg + "(")
        if _PREC[type(n.operand)] < _PREC[Not] else (n.operand, neg),
        Exists: quantified, Forall: quantified,
        And: conjunction,
        Or: binary("∨" if uni else "|", _PREC[Or], _PREC[Or] + 1),
        Implies: binary("→" if uni else "->", _PREC[Implies] + 1,
                        _PREC[Implies])}


_name = attrgetter("name")


def _truth(n: TruthConst) -> str:
    return "true" if n.value else "false"


def _spine_sexpr(cls: type, head: str):
    """`(head (head a b) c)` down the left spine of cls nodes, each
    distinct right operand printed once."""
    def layout(n):  # `(head (head a b` then `) c)`
        rights = []
        while type(n) is cls:
            rights.append(n.right)
            n = n.left
        first = rights.pop()
        return [")", (") ", reversed(rights)), (" ", (first,)), n,
                f"({head} " * (len(rights) + 1)]
    return layout


_STYLES = {"ascii": _infix(False), "unicode": _infix(True), "sexpr": {
    TruthConst: _truth, LVar: _name, LConst: _name,
    Pred: lambda n: enclose(f"({n.name} ", n.args, " ") if n.args
    else n.name,
    # `(f )` keeps its parentheses, or it would read back as a constant
    LApp: lambda n: enclose(f"({n.fn} ", n.args, " "),
    Eps: lambda n: (")", n.body,
                    f"({_CONST_OF_MODE[n.mode]} {n.sort} {n.hole} "),
    Exists: lambda n: (")", n.body, f"(exists ({n.var} {n.sort}) "),
    Forall: lambda n: (")", n.body, f"(forall ({n.var} {n.sort}) "),
    Not: lambda n: (")", n.operand, "(not "),
    Eq: lambda n: (")", n.right, " ", n.left, "(= "),
    And: _spine_sexpr(And, "and"), Or: _spine_sexpr(Or, "or"),
    Implies: _spine_sexpr(Implies, "implies")}}


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
    expect_len(e, 1, None, "empty formula")
    head = expect_atom(e[0], "formula head").text
    if head in ("and", "or", "implies"):
        expect_len(e, 3, 3, f"({head} F F)")
        if head == "and":
            return _conjunction_of(e, consts, scope)
        cls = {"or": Or, "implies": Implies}[head]
        return cls(_formula_of(e[1], consts, scope),
                   _formula_of(e[2], consts, scope))
    if head == "not":
        expect_len(e, 2, 2, "(not F)")
        return Not(_formula_of(e[1], consts, scope))
    if head in ("exists", "forall"):
        expect_len(e, 3, 3, f"({head} (VAR SORT) F)")
        binder = expect_list(e[1], "(VAR SORT)")
        expect_len(binder, 2, 2, "(VAR SORT)")
        var = expect_atom(binder[0], "variable").text
        sort = expect_atom(binder[1], "sort").text
        body = _formula_of(e[2], consts, {**scope, var: sort})
        return (Exists if head == "exists" else Forall)(var, sort, body)
    if head == "=":
        expect_len(e, 3, 3, "(= T T)")
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
        expect_len(e, 3, 3, "(and F F)")
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
    expect_len(e, 1, None, "empty term")
    head = expect_atom(e[0], "term head").text
    if head in _CONST_OF_MODE.values():
        expect_len(e, 4, 4, f"({head} SORT HOLE F)")
        sort = expect_atom(e[1], "sort").text
        hole = expect_atom(e[2], "hole variable").text
        body = _formula_of(e[3], consts, {**scope, hole: sort})
        return Eps(_MODE_OF_CONST[head], sort, hole, body)
    return LApp(head, tuple(_lterm_of(a, consts, scope)
                            for a in e.items[1:]))
