"""Finite multisorted models with choice-function semantics.

A model lists one finite carrier per sort — the listing order doubles as
the choice and salience order — and interprets constants as elements,
predicate extensions, or function tables (tuples whose last component is
the result).  Indefinite and definite choice terms denote the first carrier
element satisfying their restriction, falling back to the first element;
the universal choice term denotes the first element falsifying it.  With
this semantics `B(choice_x B)` agrees with the corresponding quantifier on
every finite model, which the brute-force equivalence checker verifies by
enumerating all small models.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import (EmptyCarrier, EvalError, FreeSymbol, ModelError,
                     ParseError, UninterpretedConstant)
from .logic import (And, Eps, Eq, Exists, Forall, Formula, Implies, LApp,
                    LConst, LTerm, LVar, Not, Or, Pred, TruthConst, UNIVERSAL,
                    free_formula_vars)
from .sexpr import expect_atom, expect_list, read_one

Interp = str | frozenset[tuple[str, ...]]


@dataclass(frozen=True)
class Model:
    """Carriers in choice order plus interpretations.

    carrier(e) defaults to the ordered union of all declared carriers;
    `hat_<sort>` is always interpreted as membership in that sort's carrier.
    """
    carriers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    interps: dict[str, Interp] = field(default_factory=dict)

    def carrier(self, sort: str) -> tuple[str, ...]:
        if sort in self.carriers:
            return self.carriers[sort]
        if sort == "e":
            union = tuple(dict.fromkeys(
                el for elems in self.carriers.values() for el in elems))
            if not union:
                raise EmptyCarrier("e")
            return union
        raise _no_carrier(sort)


@dataclass(frozen=True)
class InterpPredicate:
    """A one-place predicate with its domain sort and extension."""
    name: str
    domain: str
    extension: frozenset[str]


# ---------------------------------------------------------------------------
# model files


def load_model(text: str) -> Model:
    """`(model (carrier SYM (ID+))+ (interp SYM ((ID*)+))*)`; the carrier
    listing order is the choice order."""
    form = expect_list(read_one(text), "(model ...)")
    if len(form) == 0 or expect_atom(form[0], "model").text != "model":
        raise ParseError("expected (model ...)", form.line, form.col)
    carriers: dict[str, tuple[str, ...]] = {}
    interps: dict[str, Interp] = {}
    for decl in form.items[1:]:
        decl = expect_list(decl, "(carrier ...) or (interp ...)")
        head = expect_atom(decl[0], "carrier or interp").text
        if head == "carrier":
            if len(decl) != 3:
                raise ParseError("(carrier SYM (ID+))", decl.line, decl.col)
            sort = expect_atom(decl[1], "sort").text
            elems = tuple(expect_atom(el, "element id").text
                          for el in expect_list(decl[2], "(ID+)"))
            if not elems:
                raise ModelError(f"carrier for '{sort}' is empty")
            if sort in carriers:
                raise ModelError(f"duplicate carrier for '{sort}'")
            carriers[sort] = elems
        elif head == "interp":
            if len(decl) != 3:
                raise ParseError("(interp SYM ((ID*)+))", decl.line, decl.col)
            name = expect_atom(decl[1], "constant").text
            rows = expect_list(decl[2], "tuple list")
            tuples = frozenset(
                tuple(expect_atom(el, "element id").text
                      for el in expect_list(row, "tuple"))
                for row in rows)
            interps[name] = tuples
        else:
            raise ParseError(f"unknown model clause '{head}'",
                               decl.line, decl.col)
    known = {el for elems in carriers.values() for el in elems}
    for name, tuples in interps.items():
        for row in tuples:
            for el in row:
                if el not in known:
                    raise ModelError(
                        f"interp of '{name}' uses unknown element '{el}'")
    return Model(carriers, interps)


def print_model(m: Model) -> str:
    parts = ["(model"]
    for sort, elems in m.carriers.items():
        parts.append(f"  (carrier {sort} ({' '.join(elems)}))")
    for name, interp in m.interps.items():
        if isinstance(interp, str):
            parts.append(f"  (interp {name} (({interp})))")
        else:
            rows = " ".join(f"({' '.join(row)})" for row in sorted(interp))
            parts.append(f"  (interp {name} ({rows}))")
    return "\n".join(parts) + ")"


# ---------------------------------------------------------------------------
# evaluation


def eval_formula(m: Model, f: Formula) -> bool:
    """Tarskian evaluation with choice semantics for choice terms."""
    return _eval(f, m, {})


def _eval(f: Formula, m: Model, env: dict[str, str]) -> bool:
    match f:
        case TruthConst(v):
            return v
        case Pred(name, args):
            elems = tuple(_resolve(a, m, env) for a in args)
            return _pred_holds(m, name, elems)
        case And(l, r):
            return _eval(l, m, env) and _eval(r, m, env)
        case Or(l, r):
            return _eval(l, m, env) or _eval(r, m, env)
        case Implies(l, r):
            return (not _eval(l, m, env)) or _eval(r, m, env)
        case Not(op):
            return not _eval(op, m, env)
        case Eq(l, r):
            return _resolve(l, m, env) == _resolve(r, m, env)
        case Exists(var, sort, body):
            carrier = _nonempty_carrier(m, sort)
            return any(_eval(body, m, {**env, var: el}) for el in carrier)
        case Forall(var, sort, body):
            carrier = _nonempty_carrier(m, sort)
            return all(_eval(body, m, {**env, var: el}) for el in carrier)
    raise AssertionError(f)


def _nonempty_carrier(m: Model, sort: str) -> tuple[str, ...]:
    carrier = m.carrier(sort)
    if not carrier:
        raise EmptyCarrier(sort)
    return carrier


def _pred_holds(m: Model, name: str, elems: tuple[str, ...]) -> bool:
    interp = m.interps.get(name)
    if interp is None:
        if name.startswith("hat_"):
            sort = name[4:]
            if sort in m.carriers or sort == "e":
                return len(elems) == 1 and elems[0] in m.carrier(sort)
        raise UninterpretedConstant(name)
    if isinstance(interp, str):
        raise EvalError(f"'{name}' is an individual, not a predicate")
    return elems in interp


def _resolve(t: LTerm, m: Model, env: dict[str, str]) -> str:
    match t:
        case LVar(name, _):
            if name not in env:
                raise _unbound(name)
            return env[name]
        case LConst(name, _):
            interp = m.interps.get(name)
            if interp is None:
                raise UninterpretedConstant(name)
            if isinstance(interp, str):
                return interp
            rows = list(interp)
            if len(rows) == 1 and len(rows[0]) == 1:
                return rows[0][0]
            raise EvalError(f"'{name}' is not interpreted as an individual")
        case LApp(fn, args):
            interp = m.interps.get(fn)
            if interp is None:
                raise UninterpretedConstant(fn)
            if isinstance(interp, str):
                raise EvalError(f"'{fn}' is an individual, not a function")
            elems = tuple(_resolve(a, m, env) for a in args)
            values = sorted(row[-1] for row in interp
                            if len(row) == len(elems) + 1
                            and row[:-1] == elems)
            if len(values) > 1:
                raise EvalError(
                    f"function '{fn}' has more than one value at "
                    f"({', '.join(elems)}): {', '.join(values)}")
            if not values:
                raise EvalError(
                    f"function '{fn}' undefined at ({', '.join(elems)})")
            return values[0]
        case Eps(mode, sort, hole, body):
            outer = free_formula_vars(body) - {hole}
            if outer:
                raise _henkin(outer)
            carrier = _nonempty_carrier(m, sort)
            want = mode != UNIVERSAL
            for el in carrier:
                if _eval(body, m, {**env, hole: el}) == want:
                    return el
            return carrier[0]
    raise AssertionError(t)


def _no_carrier(sort: str) -> ModelError:
    return ModelError(f"no carrier declared for sort '{sort}'")


def _unbound(name: str) -> EvalError:
    return EvalError(f"unbound variable '{name}'")


def _henkin(outer: set[str]) -> EvalError:
    return EvalError("choice term depends on enclosing binders "
                     f"({', '.join(sorted(outer))}); such Henkin-style "
                     "dependencies are not evaluated")


# ---------------------------------------------------------------------------
# brute-force equivalence


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    counter_model: Model | None
    models_checked: int

    def __bool__(self):
        return self.equivalent


PredicateSig = tuple[str, tuple[str, ...]]  # name, argument sorts


class _ModelSpace:
    """The models over `sorts` with carrier sizes 1..max_carrier and every
    extension of `predicates`, encoded as ints.

    Element i of sort s is named `s<i+1>` and gets an integer id; equal
    names share one id, so comparing ids compares elements across sorts
    too.  An extension is a mask with one bit per tuple, at the tuple's
    row-major position over the ids."""

    def __init__(self, sorts: list[str], max_carrier: int,
                 predicates: list[PredicateSig]):
        self.sorts, self.max_carrier = sorts, max_carrier
        self.predicates = predicates
        ids: dict[str, int] = {}
        self.ids = {s: tuple(ids.setdefault(f"{s}{i + 1}", len(ids))
                             for i in range(max_carrier))
                    for s in sorts}
        self.names = list(ids)
        self.stride = len(self.names)

    def position(self, row: Iterable[int]) -> int:
        pos = 0
        for el in row:
            pos = pos * self.stride + el
        return pos

    def steps(self):
        """The enumeration order.  Per combination of carrier sizes, in
        `itertools.product` order, yield the carriers (sort -> ids) and per
        predicate its extensions, by cardinality and then in
        `itertools.combinations` order; the models of a step are the
        `itertools.product` of those lists."""
        for sizes in itertools.product(range(1, self.max_carrier + 1),
                                       repeat=len(self.sorts)):
            carriers = {s: self.ids[s][:n] for s, n in zip(self.sorts, sizes)}
            extensions = []
            for _, arg_sorts in self.predicates:
                bits = [1 << self.position(row) for row in itertools.product(
                    *(carriers[s] for s in arg_sorts))]
                extensions.append([sum(rows) for k in range(len(bits) + 1)
                                   for rows in itertools.combinations(bits, k)])
            yield carriers, extensions

    def decode(self, carriers: dict[str, tuple[int, ...]],
               masks: tuple[int, ...]) -> Model:
        names = self.names
        interps: dict[str, Interp] = {}
        for (name, arg_sorts), mask in zip(self.predicates, masks):
            rows = itertools.product(*(carriers[s] for s in arg_sorts))
            interps[name] = frozenset(
                tuple(names[el] for el in row) for row in rows
                if mask >> self.position(row) & 1)
        return Model({s: tuple(names[el] for el in elems)
                      for s, elems in carriers.items()}, interps)


def enumerate_models(sorts: list[str], max_carrier: int,
                     predicates: list[PredicateSig]):
    """All models over the given sorts with carrier sizes 1..max_carrier
    and every extension of the given predicates, in the order
    `check_equivalence` checks them."""
    space = _ModelSpace(sorts, max_carrier, predicates)
    for carriers, extensions in space.steps():
        for masks in itertools.product(*extensions):
            yield space.decode(carriers, masks)


def check_equivalence(f1: Formula, f2: Formula, sorts: list[str],
                      max_carrier: int,
                      predicates: list[PredicateSig]) -> Verdict:
    """Brute force: evaluate both formulas on every enumerated model and
    return the first counter-model, or `equivalent`.

    Both formulas are compiled once and run on the encoded models; only
    the counter-model is decoded.  A free constant or function symbol is
    rejected before enumeration, since no enumerated model interprets it."""
    if max_carrier < 1:
        raise ValueError("max_carrier must be at least 1")
    space = _ModelSpace(sorts, max_carrier, predicates)
    compiler = _Compiler(space)
    test1, test2 = compiler.formula(f1, {}), compiler.formula(f2, {})
    frame: list = [None] * (compiler.size + compiler.cached)
    no_choices = [None] * compiler.cached
    n, checked = len(predicates), 0
    for carriers, extensions in space.steps():
        compiler.load(frame, carriers)
        for masks in itertools.product(*extensions):
            checked += 1
            frame[:n] = masks
            frame[compiler.size:] = no_choices
            if test1(frame) != test2(frame):
                return Verdict(False, space.decode(carriers, masks), checked)
    return Verdict(True, None, checked)


Frame = list  # masks, carriers, variables and cached choices; see _Compiler
Test = Callable[[Frame], object]  # a bool or 0/1
Value = Callable[[Frame], int]  # an element id


class _Compiler:
    """Compiles formulas into closures over a frame holding one encoded
    model: each predicate's mask at the predicate's index, then carriers
    and bound variables at slots allocated here, then, at negative indices,
    one cache slot per closed choice term.

    A closure evaluates as `eval_formula` does on the decoded model: in the
    same order, with the same short circuits, raising the same errors."""

    def __init__(self, space: _ModelSpace):
        self.space = space
        self.masks = {name: i for i, (name, _) in enumerate(space.predicates)}
        self.arity = {name: len(sorts) for name, sorts in space.predicates}
        self.size = len(space.predicates)
        self.cached = 0
        self.carriers: dict[str, int] = {}
        self.choices: dict[Eps, Value] = {}

    def slot(self) -> int:
        self.size += 1
        return self.size - 1

    def load(self, frame: Frame, carriers: dict[str, tuple[int, ...]]):
        """Store the carriers of one step of `_ModelSpace.steps`."""
        by_id = Model(carriers)  # ids in place of names
        for sort, slot in self.carriers.items():
            frame[slot] = by_id.carrier(sort)

    def carrier(self, sort: str) -> Callable[[Frame], tuple[int, ...]]:
        if sort in self.space.ids or (sort == "e" and self.space.ids):
            if sort not in self.carriers:
                self.carriers[sort] = self.slot()
            return itemgetter(self.carriers[sort])
        # Model.carrier raises on every model: no sorts or no such sort
        return _raiser(lambda: EmptyCarrier(sort) if sort == "e"
                       else _no_carrier(sort))

    def formula(self, f: Formula, scope: dict[str, int]) -> Test:
        match f:
            case TruthConst(v):
                return lambda M: v
            case Pred(name, args):
                return self.pred(name, [self.term(a, scope) for a in args])
            case And(l, r):
                l, r = self.formula(l, scope), self.formula(r, scope)
                return lambda M: l(M) and r(M)
            case Or(l, r):
                l, r = self.formula(l, scope), self.formula(r, scope)
                return lambda M: l(M) or r(M)
            case Implies(l, r):
                l, r = self.formula(l, scope), self.formula(r, scope)
                return lambda M: not l(M) or r(M)
            case Not(op):
                op = self.formula(op, scope)
                return lambda M: not op(M)
            case Eq(l, r):
                l, r = self.term(l, scope), self.term(r, scope)
                return lambda M: l(M) == r(M)
            case Exists(var, sort, body):
                carrier, v = self.carrier(sort), self.slot()
                body = self.formula(body, {**scope, var: v})

                def exists(M):
                    for el in carrier(M):
                        M[v] = el
                        if body(M):
                            return True
                    return False
                return exists
            case Forall(var, sort, body):
                carrier, v = self.carrier(sort), self.slot()
                body = self.formula(body, {**scope, var: v})

                def forall(M):
                    for el in carrier(M):
                        M[v] = el
                        if not body(M):
                            return False
                    return True
                return forall
        raise AssertionError(f)

    def pred(self, name: str, args: list[Value]) -> Test:
        """`_pred_holds` after resolving the arguments."""
        if name in self.masks:
            if len(args) != self.arity[name]:
                return _after(args, lambda: False)
            p, n = self.masks[name], self.space.stride
            if len(args) == 1:
                a, = args
                return lambda M: M[p] >> a(M) & 1
            if len(args) == 2:
                a, b = args
                return lambda M: M[p] >> (a(M) * n + b(M)) & 1
            position = self.space.position
            return lambda M: M[p] >> position([a(M) for a in args]) & 1
        sort = name[4:]
        if name.startswith("hat_") and (sort in self.space.ids
                                        or sort == "e"):
            if len(args) != 1:
                return _after(args, lambda: False)
            a, carrier = args[0], self.carrier(sort)
            return lambda M: a(M) in carrier(M)
        return _after(args, _raiser(lambda: UninterpretedConstant(name)))

    def term(self, t: LTerm, scope: dict[str, int]) -> Value:
        match t:
            case LVar(name, _):
                if name in scope:
                    return itemgetter(scope[name])
                return _raiser(lambda: _unbound(name))
            case Eps():
                return self.choice(t, scope)
            case LConst(name, _) | LApp(name, _):
                raise FreeSymbol(name)
        raise AssertionError(t)

    def choice(self, eps: Eps, scope: dict[str, int]) -> Value:
        """The chosen element, computed at the first use in a model and
        cached there; equal choice terms share the cache slot."""
        if eps in self.choices:
            return self.choices[eps]
        hole = self.slot()
        body = self.formula(eps.body, {**scope, eps.hole: hole})
        outer = free_formula_vars(eps.body) - {eps.hole}
        if outer:
            value = _raiser(lambda: _henkin(outer))
        else:
            carrier = self.carrier(eps.sort)
            self.cached += 1
            cache, want = -self.cached, eps.mode != UNIVERSAL

            def value(M):
                el = M[cache]
                if el is None:
                    elems = carrier(M)
                    for el in elems:
                        M[hole] = el
                        if (not body(M)) != want:  # body(M) == want
                            break
                    else:
                        el = elems[0]
                    M[cache] = el
                return el
        self.choices[eps] = value
        return value


def _after(args: list[Value], outcome: Callable[[], bool]) -> Test:
    """Resolve the arguments, for their errors only, then give `outcome`."""
    def test(M):
        for a in args:
            a(M)
        return outcome()
    return test


def _raiser(error: Callable[[], Exception]):
    def fail(*_):
        raise error()
    return fail


# ---------------------------------------------------------------------------
# predicate extension and restriction


def extend_interp(m: Model, p: InterpPredicate,
                  to_sort: str) -> InterpPredicate:
    """Extend a predicate to a larger sort: same satisfying set, false
    outside the original domain."""
    dom, target = set(m.carrier(p.domain)), set(m.carrier(to_sort))
    if not dom <= target:
        raise ModelError(
            f"carrier of '{p.domain}' is not contained in '{to_sort}'")
    return InterpPredicate(p.name, to_sort, p.extension)


def restrict_interp(m: Model, p: InterpPredicate,
                    to_sort: str) -> InterpPredicate:
    """Restrict a predicate to a smaller sort: intersect the extension
    with the smaller carrier."""
    dom, target = set(m.carrier(p.domain)), set(m.carrier(to_sort))
    if not target <= dom:
        raise ModelError(
            f"carrier of '{to_sort}' is not contained in '{p.domain}'")
    return InterpPredicate(p.name, to_sort,
                           p.extension & frozenset(m.carrier(to_sort)))
