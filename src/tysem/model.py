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

`eval_formula` evaluates a formula on one model.  The equivalence checker
compiles each formula once per check into nested closures and runs them on
up to 2^16 models at once: each subformula gives an int with one bit per
model, connectives become bitwise operations, quantifiers combine their
body over the carrier, and a choice term gives the set of models on which
it denotes each element.  Where the formulas' structure lets `eval_formula`
raise (a Henkin choice term, say), the checker walks `enumerate_models`
with `eval_formula` instead, so the interpreter owns every error; both stay
as the reference the closures are tested against.  `_signature_of` reads
the sorts and predicates that `eval --equiv` enumerates models over off its
formulas.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property

from .errors import (EmptyCarrier, EvalError, FreeSymbol, ModelError,
                     ParseError, UninterpretedConstant)
from .logic import (And, Eps, Eq, Exists, Forall, Formula, Implies, LApp,
                    LConst, LTerm, LVar, Not, Or, Pred, TruthConst, UNIVERSAL,
                    flatten_and, fold, free_formula_vars, nodes)
from .sexpr import expect_atom, expect_len, expect_list, read_one

Interp = str | frozenset[tuple[str, ...]]


class Model:
    """Carriers in choice order plus interpretations.

    carrier(e) defaults to the ordered union of all declared carriers;
    `hat_<sort>` is always interpreted as membership in that sort's carrier.
    """

    def __init__(self, carriers: dict[str, tuple[str, ...]] | None = None,
                 interps: dict[str, Interp] | None = None):
        self.carriers = {} if carriers is None else carriers
        self.interps = {} if interps is None else interps

    def __eq__(self, other):  # equal when their fields are
        same = type(other) is Model
        return vars(self) == vars(other) if same else NotImplemented

    def carrier(self, sort: str) -> tuple[str, ...]:
        if sort in self.carriers:
            return self.carriers[sort]
        if sort == "e":
            union = tuple(dict.fromkeys(
                el for elems in self.carriers.values() for el in elems))
            if not union:
                raise EmptyCarrier("e")
            return union
        raise ModelError(f"no carrier declared for sort '{sort}'")


class InterpPredicate:
    """A one-place predicate with its domain sort and extension."""

    def __init__(self, name: str, domain: str, extension: frozenset[str]):
        self.name, self.domain, self.extension = name, domain, extension


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
        expect_len(decl, 1, None,
                   "empty clause: expected (carrier ...) or (interp ...)")
        head = expect_atom(decl[0], "carrier or interp").text
        if head == "carrier":
            expect_len(decl, 3, 3, "(carrier SYM (ID+))")
            sort = expect_atom(decl[1], "sort").text
            elems = tuple(expect_atom(el, "element id").text
                          for el in expect_list(decl[2], "(ID+)"))
            if not elems:
                raise ModelError(f"carrier for '{sort}' is empty")
            if sort in carriers:
                raise ModelError(f"duplicate carrier for '{sort}'")
            carriers[sort] = elems
        elif head == "interp":
            expect_len(decl, 3, 3, "(interp SYM ((ID*)+))")
            name = expect_atom(decl[1], "constant").text
            rows = expect_list(decl[2], "tuple list")
            tuples = frozenset(
                tuple(expect_atom(el, "element id").text
                      for el in expect_list(row, "tuple"))
                for row in rows)
            if name in interps:
                raise ModelError(f"duplicate interp for '{name}'")
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
            if type(l) is And:  # a discourse's spine: loop, do not recurse
                return all(_eval(c, m, env) for c in flatten_and(f))
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
                raise EvalError(f"unbound variable '{name}'")
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
                raise EvalError(
                    "choice term depends on enclosing binders "
                    f"({', '.join(sorted(outer))}); such Henkin-style "
                    "dependencies are not evaluated")
            carrier = _nonempty_carrier(m, sort)
            want = mode != UNIVERSAL
            for el in carrier:
                if _eval(body, m, {**env, hole: el}) == want:
                    return el
            return carrier[0]
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# brute-force equivalence


class Verdict:
    """What `check_equivalence` found; true when the formulas agree."""

    def __init__(self, equivalent: bool, counter_model: Model | None,
                 models_checked: int):
        self.equivalent, self.counter_model = equivalent, counter_model
        self.models_checked = models_checked

    def __eq__(self, other):  # equal when their fields are
        same = type(other) is Verdict
        return vars(self) == vars(other) if same else NotImplemented

    def __bool__(self):
        return self.equivalent


PredicateSig = tuple[str, tuple[str, ...]]  # name, argument sorts

# A word holds the models of one step, at most 2**WORD_BITS of them; a
# larger step runs in chunks over its high bits.
WORD_BITS = 16


class _ModelSpace:
    """The models over `sorts` with carrier sizes 1..max_carrier and every
    extension of `predicates`.

    Element i of sort s is named `s<i+1>` and gets an integer id; equal
    names share one id, so comparing ids compares elements across sorts
    too."""

    def __init__(self, sorts: list[str], max_carrier: int,
                 predicates: list[PredicateSig]):
        self.sorts, self.max_carrier = sorts, max_carrier
        self.predicates = predicates
        ids: dict[str, int] = {}
        self.ids = {s: tuple(ids.setdefault(f"{s}{i + 1}", len(ids))
                             for i in range(max_carrier))
                    for s in sorts}
        self.names = list(ids)

    def steps(self):
        """The enumeration order: one `_Step` per combination of carrier
        sizes, in `itertools.product` order."""
        for sizes in itertools.product(range(1, self.max_carrier + 1),
                                       repeat=len(self.sorts)):
            yield _Step(self, {s: self.ids[s][:n]
                               for s, n in zip(self.sorts, sizes)})


class _Step:
    """The models of one combination of carrier sizes (sort -> ids).

    Predicate i has `rows[i]`, its argument tuples in `itertools.product`
    order, and an extension is a mask over those rows.  Extensions come by
    cardinality and then in `itertools.combinations` order, and the models
    in the `itertools.product` order of the predicates' extensions.  A
    model is numbered by its extensions' bits, predicate i's at
    `offsets[i]` and the first predicate highest, so numbers run over
    `2**bits`; `rank` gives a number's place in the enumeration order."""

    def __init__(self, space: _ModelSpace,
                 carriers: dict[str, tuple[int, ...]]):
        self.space, self.carriers = space, carriers
        self.rows = [tuple(itertools.product(*(carriers[s] for s in sorts)))
                     for _, sorts in space.predicates]
        self.offsets = [sum(map(len, self.rows[i + 1:]))
                        for i in range(len(self.rows))]
        self.bits = sum(map(len, self.rows))
        self.by_sort: dict[str, tuple[int, ...]] = {}

    def carrier(self, sort: str) -> tuple[int, ...]:
        """`Model.carrier` over ids."""
        if sort not in self.by_sort:
            self.by_sort[sort] = Model(self.carriers).carrier(sort)
        return self.by_sort[sort]

    def models(self):
        """The model numbers in enumeration order."""
        extensions = [[sum(1 << j for j in subset)
                       for k in range(len(rows) + 1)
                       for subset in itertools.combinations(range(len(rows)),
                                                            k)]
                      for rows in self.rows]
        widths = list(map(len, self.rows))
        for masks in itertools.product(*extensions):
            number = 0
            for mask, width in zip(masks, widths):
                number = number << width | mask
            yield number

    def rank(self, number: int) -> int:
        """The place of model `number` in the enumeration order."""
        index = 0
        for rows, offset in zip(self.rows, self.offsets):
            n = len(rows)
            mask = number >> offset & ((1 << n) - 1)
            left = mask.bit_count()
            # the smaller extensions, then the subsets before this one
            place = sum(math.comb(n, k) for k in range(left))
            previous = -1
            for j in range(n):
                if mask >> j & 1:
                    place += sum(math.comb(n - 1 - x, left - 1)
                                 for x in range(previous + 1, j))
                    previous, left = j, left - 1
            index = index << n | place
        return index

    @cached_property
    def named(self) -> tuple[dict[str, tuple[str, ...]], list[tuple]]:
        """The carriers and every predicate's rows by element name."""
        names = self.space.names
        return ({s: tuple(names[el] for el in elems)
                 for s, elems in self.carriers.items()},
                [tuple(tuple(names[el] for el in row) for row in rows)
                 for rows in self.rows])

    def decode(self, number: int) -> Model:
        carriers, tables = self.named
        interps: dict[str, Interp] = {}
        for (name, _), table, offset in zip(self.space.predicates, tables,
                                            self.offsets):
            mask, rows = number >> offset & ((1 << len(table)) - 1), []
            while mask:
                low = mask & -mask
                rows.append(table[low.bit_length() - 1])
                mask ^= low
            interps[name] = frozenset(rows)
        return Model(dict(carriers), interps)


def enumerate_models(sorts: list[str], max_carrier: int,
                     predicates: list[PredicateSig]):
    """All models over the given sorts with carrier sizes 1..max_carrier
    and every extension of the given predicates, in the order
    `check_equivalence` checks them."""
    for step in _ModelSpace(sorts, max_carrier, predicates).steps():
        for number in step.models():
            yield step.decode(number)


def check_equivalence(f1: Formula, f2: Formula, sorts: list[str],
                      max_carrier: int,
                      predicates: list[PredicateSig]) -> Verdict:
    """Brute force: evaluate both formulas on every enumerated model and
    return the first counter-model, or `equivalent`.

    Each formula is compiled once (`_compile`).  Where `eval_formula` can
    raise on some model, the enumerated models are evaluated one by one,
    and the first on which the formulas differ or either raises decides.
    Otherwise each formula runs once per word of models, one bit per model
    (`_Word`), and the first model in enumeration order on which they
    differ is decoded and evaluated again by `eval_formula`, which must
    agree.  A free constant or function symbol is rejected while
    compiling, since no enumerated model interprets it."""
    if max_carrier < 1:
        raise ValueError("max_carrier must be at least 1")
    runs = _compile((f1, f2), sorts, predicates)
    checked = 0
    if runs is None:  # the interpreter owns every error
        for m in enumerate_models(sorts, max_carrier, predicates):
            checked += 1
            if eval_formula(m, f1) != eval_formula(m, f2):
                return Verdict(False, m, checked)
        return Verdict(True, None, checked)
    run1, run2 = runs
    for step in _ModelSpace(sorts, max_carrier, predicates).steps():
        width = min(step.bits, WORD_BITS)
        candidates = []  # the first bad model of each word
        for chunk in range(1 << step.bits - width):
            word = _Word(step, chunk, width)
            bad = run1(word, {}) ^ run2(word, {})
            if bad:
                candidates.append(chunk << width | word.first(bad))
        if candidates:
            number = min(candidates, key=step.rank)
            m = step.decode(number)
            if eval_formula(m, f1) == eval_formula(m, f2):
                raise AssertionError(
                    "bit-parallel evaluation disagrees with eval_formula")
            return Verdict(False, m, checked + step.rank(number) + 1)
        checked += 1 << step.bits
    return Verdict(True, None, checked)


# every class but LApp: a function symbol is rejected before its arguments
_SIGNATURE_INTO = frozenset({Pred, Eq, And, Or, Implies, Not, Exists, Forall,
                             Eps})


def _signature_of(*formulas: Formula):
    """Sorts and predicate signatures mentioned by the formulas, for the
    model enumeration of an equivalence check.  Rejects a free constant or
    function symbol, and a predicate used with two signatures, whichever a
    left-to-right walk meets first: a symbol on sight, a predicate after its
    arguments.  `hat_<sort>` is left out when its sort is enumerated or is
    `e`: it then denotes carrier membership on every model."""
    sorts = list(dict.fromkeys(n.sort for f in formulas for n in nodes(f)
                               if type(n) in (Exists, Forall, Eps)))
    predicates: dict[str, tuple[str, ...]] = {}

    def check(n, _):
        match n:
            case LConst(name, _) | LApp(name, _):
                raise FreeSymbol(name)
            case Pred(name, args):
                sig = tuple(a.sort for a in args)  # variables, choice terms
                if predicates.setdefault(name, sig) != sig:
                    raise ModelError(
                        f"predicate '{name}' is used with argument sorts "
                        f"({', '.join(predicates[name])}) and "
                        f"({', '.join(sig)})")

    for f in formulas:
        fold(f, check, into=_SIGNATURE_INTO)
    return sorts, sorted(
        (name, sig) for name, sig in predicates.items()
        if not (name.startswith("hat_") and name[4:] in (*sorts, "e")))


@cache
def _row_masks(width: int) -> list[int]:
    """Mask q holds the models of a 2**width-model word whose bit q is set:
    2**q clear bits, 2**q set bits, repeated.  Built by doubling with
    shifts; big-int division is slow at these sizes."""
    masks = []
    for q in range(width):
        span = 2 << q
        mask = ((1 << (1 << q)) - 1) << (1 << q)
        while span < 1 << width:
            mask |= mask << span
            span <<= 1
        masks.append(mask)
    return masks


def _compile(formulas, sorts: list[str],
             predicates: list[PredicateSig]) -> list | None:
    """Each formula as a function of a `_Word` and an environment (variable
    -> element id) that gives the mask of the word's models on which
    `eval_formula` holds; or None where it can raise on some enumerated
    model, as the formulas' structure decides: a free variable, a choice
    term whose body has free variables other than its hole (a Henkin
    dependency), a predicate neither listed nor `hat_<sort>` of a sort with
    a carrier, or a binder or choice term over a sort with none (`e` has
    none when `sorts` is empty).  Every formula is compiled in full even
    then, so that a free constant or function symbol raises `FreeSymbol`.
    What does not depend on the word is decided here, once per check."""
    choices: dict[Eps, object] = {}  # equal choice terms share one function
    names = {name for name, _ in predicates}
    carried = {*sorts, "e"} if sorts else set()
    sites = []  # where eval_formula can raise

    def formula(f: Formula):
        t = type(f)
        if t is TruthConst:
            value = f.value
            return lambda w, env: w.all if value else 0
        if t is Pred:
            return pred(f.name, f.args)
        if t is And:  # a discourse's spine: loop, do not recurse
            first, *rest = map(formula, flatten_and(f))

            def conjunction(w, env):
                holds = first(w, env)
                for part in rest:
                    if not holds:
                        break
                    holds &= part(w, env)
                return holds
            return conjunction
        if t is Not:
            return negation(formula(f.operand))
        if t is Eq:
            left, right = term(f.left), term(f.right)

            def equal(w, env):
                ls, rs = left(w, env), right(w, env)
                return sum(models & rs[el] for el, models in ls.items()
                           if el in rs)
            return equal
        if t is Exists or t is Forall:
            var, sort, every, body = f.var, f.sort, t is Forall, formula(f.body)
            if sort not in carried:
                sites.append(f)

            def quantifier(w, env):
                env = {**env}  # one per call, rebound to each element
                undecided = w.all  # the models the body has not decided
                for el in w.step.carrier(sort):
                    env[var] = el
                    undecided &= body(w, env) if every else ~body(w, env)
                    if not undecided:
                        break
                return undecided if every else w.all ^ undecided
            return quantifier
        if t is Or:
            return disjunction(formula(f.left), formula(f.right))
        if t is Implies:  # as `not l or r`
            return disjunction(negation(formula(f.left)), formula(f.right))
        raise AssertionError(f)

    def negation(op):
        return lambda w, env: w.all ^ op(w, env)

    def disjunction(left, right):
        def run(w, env):
            holds = left(w, env)
            return holds if holds == w.all else holds | right(w, env)
        return run

    def pred(name: str, args):  # `_pred_holds` after resolving the args
        if name in names and all(type(a) is LVar for a in args):
            variables = [a.name for a in args]
            # no row matches arguments off the predicate's signature
            return lambda w, env: w.atoms[name].get(
                tuple([env[v] for v in variables]), 0)
        terms = list(map(term, args))

        def rows(w, env):  # argument tuples and their (disjoint) models
            out = [((), w.all)]
            for value in terms:
                out = [(row + (el,), models & m) for row, models in out
                       for el, m in value(w, env).items() if models & m]
            return out
        if name in names:
            def product(w, env):
                atoms = w.atoms[name]
                return sum(atoms.get(row, 0) & m for row, m in rows(w, env))
            return product
        sort = name[4:]
        if not name.startswith("hat_") or sort not in carried:
            sites.append(name)  # uninterpreted

        def member(w, env):
            carrier = w.step.carrier(sort)
            return sum(m for row, m in rows(w, env)
                       if len(row) == 1 and row[0] in carrier)
        return member

    def term(t: LTerm):
        if type(t) is LVar:
            name = t.name
            return lambda w, env: {env[name]: w.all}
        if type(t) is not Eps:  # no enumerated model interprets it
            raise FreeSymbol(t.fn if type(t) is LApp else t.name)
        if t not in choices:
            choices[t] = choose(t)
        return choices[t]

    def choose(eps: Eps):
        """The element a closed choice term denotes on each model: the
        first in carrier order whose body has the wanted value, else the
        first element.  Worked out once per word."""
        sort, hole, body = eps.sort, eps.hole, formula(eps.body)
        if free_formula_vars(eps.body) - {hole} or sort not in carried:
            sites.append(eps)  # a Henkin dependency, or no carrier
        want = eps.mode != UNIVERSAL
        last: list = [None, None]  # the last word and its result

        def run(w, env):
            if last[0] is w:
                return last[1]
            carrier = w.step.carrier(sort)
            chosen, undecided, env = {}, w.all, {}
            for el in carrier:
                env[hole] = el
                holds = body(w, env)
                hit = undecided & (holds if want else ~holds)
                if hit:
                    chosen[el] = hit
                    undecided ^= hit
                    if not undecided:
                        break
            if undecided:
                chosen[carrier[0]] = chosen.get(carrier[0], 0) | undecided
            last[:] = w, chosen
            return chosen
        return run

    runs = [formula(f) for f in formulas]
    if sites or any(map(free_formula_vars, formulas)):
        return None
    return runs


class _Word:
    """The models `chunk << width | w`, w < 2**width, of one step, as the
    bits of an int, on which the formulas compiled once per check run:
    `bit[i]` holds the models that set row bit i, and `atoms[name][row]`
    the models on which predicate `name` holds of `row`."""

    def __init__(self, step: _Step, chunk: int, width: int):
        self.step = step
        self.all = (1 << (1 << width)) - 1
        self.bit = _row_masks(width) + [
            self.all if chunk >> q - width & 1 else 0
            for q in range(width, step.bits)]
        self.width = width
        # later duplicates win, as in the decoded model's dict
        self.atoms = {name: {row: self.bit[offset + j]
                             for j, row in enumerate(rows)}
                      for (name, _), rows, offset
                      in zip(step.space.predicates, step.rows, step.offsets)}

    def first(self, models: int) -> int:
        """The number within the word of the first of `models` in
        enumeration order: predicate by predicate, the fewest rows set,
        then the rows set earliest.  Rows in the high bits are fixed."""
        for offset, rows in zip(self.step.offsets, self.step.rows):
            low = self.bit[offset:min(offset + len(rows), self.width)]
            if not low:
                continue
            # by_count[k]: the models that set k of the low rows
            by_count = [self.all]
            for m in low:
                by_count = [fewer & ~m | more & m for fewer, more
                            in zip(by_count + [0], [0] + by_count)]
            models &= next(c for c in by_count if models & c)
            for m in low:
                if models & m:
                    models &= m
        return models.bit_length() - 1


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
