"""The bit-parallel equivalence checker against the interpretive evaluator.

`check_equivalence` compiles each formula once.  Where evaluation cannot
raise, it runs each once per word of up to 2^16 models, one bit per model,
and decodes only the first model on which the formulas differ; elsewhere it
walks the models with `eval_formula`.  The reference below walks the decoded
models of `enumerate_models` with `eval_formula`; the two must give the same
verdict (equivalence, models checked and counter-model) or raise the same
error.  Which formulas
`_compile` leaves to the interpreter is pinned by a table, and the compiled
formulas are checked model by model: on every word, `eval_formula` raises on
no model and holds exactly where the compiled mask does.  Monadic pairs,
which the checker enumerates only up to each sort's cap, give the verdict of
`reference` and of the uncapped walk, and every other pair is enumerated in
full.
"""

import itertools
import math
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import FormulaGen, MonadicFormulaGen
from tysem import model
from tysem.cli import _signature_of, main
from tysem.errors import EvalError, FreeSymbol, ModelError, TysemError
from tysem.logic import (DEF, INDEF, UNIVERSAL, And, Eps, Eq, Exists, Forall,
                         Implies, LVar, Not, Or, Pred, TruthConst,
                         parse_formula, print_formula, rewrite_hilbert)
from tysem.model import (WORD_BITS, Model, Verdict, _caps, _compile,
                         _ModelSpace, _Word, check_equivalence,
                         enumerate_models, eval_formula, print_model)


def reference(f1, f2, sorts, max_carrier, predicates) -> Verdict:
    checked = 0
    for m in enumerate_models(sorts, max_carrier, predicates):
        checked += 1
        if eval_formula(m, f1) != eval_formula(m, f2):
            return Verdict(False, m, checked)
    return Verdict(True, None, checked)


def outcome(check, *args):
    try:
        return check(*args)
    except TysemError as exc:
        return type(exc), str(exc)


def assert_agrees(f1, f2, sorts, max_carrier, predicates):
    args = (f1, f2, sorts, max_carrier, predicates)
    expected = outcome(reference, *args)
    assert outcome(check_equivalence, *args) == expected, \
        (print_formula(f1, "sexpr"), print_formula(f2, "sexpr"), max_carrier)
    return expected


def model_count(sorts, max_carrier, predicates) -> int:
    return sum(
        math.prod(2 ** math.prod(dict(zip(sorts, sizes))[s] for s in args)
                  for _, args in predicates)
        for sizes in itertools.product(range(1, max_carrier + 1),
                                       repeat=len(sorts)))


# ---------------------------------------------------------------------------
# seeded random formulas

# FormulaGen draws free constants, which no enumerated model interprets:
# each is either bound by a quantifier or replaced by a closed choice term.
_CONSTANTS = {"fido": ("ani", "(eps ani c (chat c))"),
              "bob": ("ani", "(tau ani c (dort c))"),
              "b1": ("obj", "(ieps obj c (rouge c))")}


def _close(f, rng: random.Random):
    text = print_formula(f, "sexpr")
    for name, (sort, choice) in _CONSTANTS.items():
        if rng.random() < 0.5:
            text = f"({rng.choice(('exists', 'forall'))} ({name} {sort}) " \
                   f"{text})"
        else:
            text = re.sub(rf"\b{name}\b", choice, text)
    return parse_formula(text)


def test_random_formulas_agree_with_interpreter():
    gen, rng = FormulaGen(seed=7), random.Random(7)
    formulas = [_close(gen.random_formula(4), rng) for _ in range(60)]
    pairs = [(f, rewrite_hilbert(f)) for f in formulas]
    pairs += list(zip(formulas, formulas[1:]))
    seen = Counter()
    for f1, f2 in pairs:
        try:
            sorts, predicates = _signature_of(f1, f2)
        except FreeSymbol:  # a function symbol: mere or boite
            with pytest.raises(FreeSymbol):
                check_equivalence(f1, f2, ["ani", "obj"], 1, [])
            seen["rejected"] += 1
            continue
        k = max(k for k in (1, 2, 3)
                if k == 1 or model_count(sorts, k, predicates) <= 3000)
        result = assert_agrees(f1, f2, sorts, k, predicates)
        seen[result.equivalent if isinstance(result, Verdict)
             else "error"] += 1
    # the draw holds every kind of outcome
    assert min(seen[kind] for kind in (True, False, "error", "rejected")) >= 5


# ---------------------------------------------------------------------------
# the paper's pairs

PAPER_PAIRS = [
    ("(P (eps s x (P x)))", "(exists (x s) (P x))"),
    ("(P (tau s x (P x)))", "(forall (x s) (P x))"),
    ("(and (P (eps s x (and (P x) (Q x)))) (Q (eps s x (and (P x) (Q x)))))",
     "(exists (x s) (and (P x) (Q x)))"),
    ("(R (eps s x (R x x)) (eps s x (R x x)))", "(exists (x s) (R x x))"),
    ("(R (eps s x (exists (y s) (R x y))) "
     "(eps s y (R (eps s x (exists (y s) (R x y))) y)))",
     "(exists (x s) (exists (y s) (R x y)))"),
]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("f1, f2", PAPER_PAIRS)
def test_paper_pairs_agree_with_interpreter(f1, f2, k):
    f1, f2 = parse_formula(f1), parse_formula(f2)
    sorts, predicates = _signature_of(f1, f2)
    verdict = assert_agrees(f1, f2, sorts, k, predicates)
    assert verdict == Verdict(True, None, model_count(sorts, k, predicates))


@pytest.mark.parametrize("f1, f2", [
    # with no witness a choice term falls back to the first element
    ("(G (eps s x false))", "(G (eps s x true))"),
    ("(G (ieps s x false))", "(G (tau s x false))"),
    ("(G (tau s x true))", "(G (eps s x true))"),
    ("(G (eps s x (F x)))", "(exists (x s) (G x))"),
])
def test_choice_fallback_agrees_with_interpreter(f1, f2):
    f1, f2 = parse_formula(f1), parse_formula(f2)
    sorts, predicates = _signature_of(f1, f2)
    assert_agrees(f1, f2, sorts, 3, predicates)


def test_referential_counter_model_after_19_models():
    f1 = parse_formula("(and (P (eps s x (P x))) (Q (eps s x (P x))))")
    f2 = parse_formula("(exists (x s) (and (P x) (Q x)))")
    verdict = assert_agrees(f1, f2, ["s"], 4, [("P", ("s",)), ("Q", ("s",))])
    assert verdict.models_checked == 19
    assert print_model(verdict.counter_model) == (
        "(model\n  (carrier s (s1 s2))\n  (interp P ((s1) (s2)))\n"
        "  (interp Q ((s2))))")


# ---------------------------------------------------------------------------
# inputs only the library API can build

x_s, x_e = LVar("x", "s"), LVar("x", "e")


@pytest.mark.parametrize("f1, sorts, predicates", [
    # hat_ predicates outside the list are carrier membership
    (Exists("x", "s", Pred("hat_s", (x_s,))), ["s", "t"], []),
    (Exists("x", "s", Pred("hat_t", (x_s,))), ["s", "t"], []),
    (Exists("x", "s", Pred("hat_e", (x_s,))), ["s"], []),
    (Exists("x", "s", Pred("hat_s", (x_s, x_s))), ["s"], []),
    (Exists("x", "s", Pred("hat_u", (x_s,))), ["s"], []),
    # sort e without its own carrier is the union of the others
    (Forall("x", "e", Exists("y", "s", Eq(x_e, LVar("y", "s")))),
     ["s", "t"], []),
    (Exists("x", "e", Pred("F", (x_e,))), ["s"], [("F", ("s",))]),
    (Exists("x", "e", TruthConst(True)), [], []),
    # carriers the enumeration lacks, names it cannot resolve
    (Exists("x", "u", TruthConst(True)), ["s"], []),
    (Pred("F", (x_s,)), ["s"], [("F", ("s",))]),
    (Exists("x", "s", Pred("G", (x_s,))), ["s"], [("F", ("s",))]),
    # arguments off the listed signature
    (Exists("x", "s", Pred("F", (x_s, x_s))), ["s"], [("F", ("s",))]),
    (Exists("x", "s", Exists("y", "t", Pred("F", (LVar("y", "t"),)))),
     ["s", "t"], [("F", ("s",))]),
    # arities without a closure of their own
    (Exists("x", "s", Pred("T", (x_s, x_s, x_s))), ["s"],
     [("T", ("s", "s", "s"))]),
    (Pred("Z", ()), ["s"], [("Z", ())]),
    # later duplicates win, as in the decoded model's dicts
    (Exists("x", "s", Pred("F", (x_s,))), ["s"],
     [("F", ("s",)), ("F", ("s",))]),
])
def test_api_edge_cases_agree_with_interpreter(f1, sorts, predicates):
    for f2 in (TruthConst(True), TruthConst(False)):
        assert_agrees(f1, f2, sorts, 2, predicates)


def test_elements_with_equal_names_are_equal():
    # element 11 of sort a and element 1 of sort a1 are both named a11
    f = Exists("x", "a", Exists("y", "a1", Eq(LVar("x", "a"),
                                              LVar("y", "a1"))))
    verdict = assert_agrees(f, TruthConst(False), ["a", "a1"], 11, [])
    assert verdict.models_checked == 10 * 11 + 1


def test_free_symbols_rejected_before_enumeration():
    f = parse_formula("(forall (x s) (F (mere x)))")
    with pytest.raises(FreeSymbol, match="'mere'"):
        check_equivalence(f, f, ["s"], 2, [("F", ("s",))])


# ---------------------------------------------------------------------------
# enumeration order


def _frozenset_enumeration(sorts, max_carrier, predicates):
    """The enumeration as first written, over frozensets of name tuples."""
    for sizes in itertools.product(range(1, max_carrier + 1),
                                   repeat=len(sorts)):
        carriers = {s: tuple(f"{s}{i + 1}" for i in range(n))
                    for s, n in zip(sorts, sizes)}
        spaces = []
        for name, arg_sorts in predicates:
            space = list(itertools.product(
                *(carriers[s] for s in arg_sorts)))
            subsets = [frozenset(rows)
                       for k in range(len(space) + 1)
                       for rows in itertools.combinations(space, k)]
            spaces.append((name, subsets))
        for choice in itertools.product(*(subs for _, subs in spaces)):
            yield Model(carriers, {name: ext
                                   for (name, _), ext in zip(spaces, choice)})


@pytest.mark.parametrize("sorts, max_carrier, predicates", [
    (["s"], 3, [("F", ("s",)), ("G", ("s",))]),
    (["s", "t"], 2, [("R", ("s", "t")), ("P", ("t",))]),
    (["s"], 2, [("R", ("s", "s", "s")), ("Z", ())]),
    ([], 3, [("Z", ())]),
])
def test_enumeration_order_is_unchanged(sorts, max_carrier, predicates):
    assert list(enumerate_models(sorts, max_carrier, predicates)) == \
        list(_frozenset_enumeration(sorts, max_carrier, predicates))


# ---------------------------------------------------------------------------
# random pairs drawn by hypothesis

SIGNATURES = [
    (["s"], [("P", ("s",)), ("R", ("s", "s"))]),
    (["s", "t"], [("P", ("s",)), ("Q", ("t",)), ("R", ("s", "t"))]),
]


@st.composite
def formula_pairs(draw):
    sorts, predicates = draw(st.sampled_from(SIGNATURES))
    names = iter(f"v{i}" for i in itertools.count())

    def term(sort, env, depth):
        bound = [LVar(v, s) for v, s in env.items() if s == sort]
        kind = draw(st.sampled_from(
            ["var", "var", "choice"] if bound
            else ["choice"] * 8 + ["unbound"] * (depth >= 0)))
        if kind == "var":
            return draw(st.sampled_from(bound))
        if kind == "unbound":
            return LVar("free", sort)
        hole = next(names)
        if depth < 0:
            body = TruthConst(draw(st.booleans()))
        else:
            # a body that sees the enclosing binders is a Henkin dependency
            outer = env if draw(st.integers(0, 3)) == 0 else {}
            body = formula({**outer, hole: sort}, depth - 1)
        return Eps(draw(st.sampled_from((INDEF, DEF, UNIVERSAL))), sort, hole,
                   body)

    def formula(env, depth):
        kind = draw(st.sampled_from(
            ["pred", "pred", "eq", "const"]
            + ["not", "and", "or", "implies", "exists", "forall"]
            * (depth > 0)))
        if kind == "const":
            return TruthConst(draw(st.booleans()))
        if kind == "pred":
            name, arg_sorts = draw(st.sampled_from(predicates))
            return Pred(name, tuple(term(s, env, depth)
                                    for s in arg_sorts))
        if kind == "eq":
            sort = draw(st.sampled_from(sorts))
            return Eq(term(sort, env, depth), term(sort, env, depth))
        if kind == "not":
            return Not(formula(env, depth - 1))
        if kind in ("and", "or", "implies"):
            cls = {"and": And, "or": Or, "implies": Implies}[kind]
            return cls(formula(env, depth - 1), formula(env, depth - 1))
        var, sort = next(names), draw(st.sampled_from(sorts + ["e"]))
        cls = Exists if kind == "exists" else Forall
        return cls(var, sort, formula({**env, var: sort}, depth - 1))

    f1 = formula({}, 3)
    kind = draw(st.sampled_from(("random", "rewrite", "or", "and")))
    if kind == "random":
        f2 = formula({}, 3)
    elif kind == "rewrite":
        f2 = rewrite_hilbert(f1)
    else:  # differs from f1 on some models only
        f2 = (Or if kind == "or" else And)(f1, formula({}, 2))
    return f1, f2, sorts, predicates


@given(formula_pairs())
def test_random_pairs_agree_with_interpreter(pair):
    f1, f2, sorts, predicates = pair
    k = max(k for k in (1, 2, 3)
            if k == 1 or model_count(sorts, k, predicates) <= 600)
    assert_agrees(f1, f2, sorts, k, predicates)


# ---------------------------------------------------------------------------
# errors behind short circuits

HENKIN = "(forall (y s) (or (not (P y)) (Q (eps s x (and (P x) (P y))))))"
FIRST = "(eps s y true)"  # the first element


def test_error_behind_a_short_circuit_is_reached_on_model_3():
    f1 = parse_formula(HENKIN)
    f2 = parse_formula("(forall (y s) (not (P y)))")
    sorts, predicates = _signature_of(f1, f2)
    error = assert_agrees(f1, f2, sorts, 3, predicates)
    assert error[0] is EvalError and "Henkin" in error[1]
    first = list(itertools.islice(enumerate_models(sorts, 3, predicates), 3))
    assert [eval_formula(m, f1) == eval_formula(m, f2)
            for m in first[:2]] == [True, True]
    with pytest.raises(EvalError, match="Henkin"):
        eval_formula(first[2], f1)


@pytest.mark.parametrize("f2", [
    "(exists (y s) (Q y))",  # differs on model 1
    "(and (forall (y s) (not (P y))) (forall (y s) (not (Q y))))",  # model 2
])
def test_counter_model_before_first_error(f2):
    f1, f2 = parse_formula(HENKIN), parse_formula(f2)
    sorts, predicates = _signature_of(f1, f2)
    verdict = assert_agrees(f1, f2, sorts, 3, predicates)
    assert not verdict.equivalent and verdict.models_checked < 3


@pytest.mark.parametrize("f", [
    "(and (exists (y s) (P y)) (forall (y s) (Q (eps s x (P y)))))",
    "(implies (forall (y s) (P y)) (forall (y s) (Q (tau s x (P y)))))",
    "(exists (y s) (or (not (P y)) (= y (eps s x (Q y)))))",
    "(forall (z s) (and (Q z) (P (ieps s x (and (Q x) (P z))))))",
    # decided at the first element on some models; where undecided, the
    # second element raises
    f"(forall (y s) (or (and (= y {FIRST}) (Q y)) (and (not (= y {FIRST}))"
    f" (or (not (P y)) (Q (eps s x (P y)))))))",
    f"(exists (y s) (or (and (= y {FIRST}) (not (Q y))) (and (not (= y"
    f" {FIRST})) (and (P y) (Q (eps s x (P y)))))))",
    f"(Q (eps s x (or (not (P x)) (and (not (= x {FIRST}))"
    f" (and (Q x) (Q (eps s w (P x))))))))",
])
def test_first_error_comes_after_the_first_model(f):
    """A formula against itself: the first model on which it raises."""
    f = parse_formula(f)
    sorts, predicates = _signature_of(f)
    error = assert_agrees(f, f, sorts, 3, predicates)
    assert error[0] is EvalError and "Henkin" in error[1]
    eval_formula(next(enumerate_models(sorts, 3, predicates)), f)


# ---------------------------------------------------------------------------
# where `_compile` leaves the check to the interpreter


@pytest.mark.parametrize("f, sorts, predicates, refused", [
    (Exists("x", "s", Pred("P", (LVar("y", "s"),))), ["s"],
     [("P", ("s",))], True),  # a free variable
    (parse_formula(HENKIN), ["s"], [("P", ("s",)), ("Q", ("s",))], True),
    (Exists("x", "s", Pred("G", (x_s,))), ["s"], [("P", ("s",))],
     True),  # a predicate no model interprets
    (Exists("x", "u", TruthConst(True)), ["s"], [], True),  # no carrier
    # no carrier for hat_e's membership: refused whatever its arity
    (Pred("hat_e", ()), [], [], True),
    (parse_formula(PAPER_PAIRS[0][0]), ["s"], [("P", ("s",))],
     False),  # accepted: closed, every name interpreted
])
def test_compile_refuses_formulas_that_can_raise(f, sorts, predicates,
                                                 refused):
    assert (_compile([f], sorts, predicates) is None) == refused
    for f2 in (TruthConst(True), TruthConst(False)):
        assert_agrees(f, f2, sorts, 2, predicates)


def test_error_site_never_reached_checks_every_model():
    f = Or(TruthConst(True), Pred("P", (LVar("y", "s"),)))
    sorts, predicates = ["s"], [("P", ("s",))]
    assert _compile([f], sorts, predicates) is None
    verdict = assert_agrees(f, TruthConst(True), sorts, 3, predicates)
    assert verdict == Verdict(True, None, model_count(sorts, 3, predicates))


# ---------------------------------------------------------------------------
# steps of more than one word


SECOND = f"(eps s y (not (= y {FIRST})))"  # the first element at size 1


def test_first_counter_model_outside_the_first_word():
    """Two binary predicates at carrier size 3 give a step of 2**18
    models.  The pair differs when R holds of the third element and itself
    (a model numbered past the first word), or of that element and the
    second together with R(s1, s1) (a word numbered before it, whose
    models come later in enumeration order)."""
    f1 = parse_formula(
        f"(exists (x s) (and (and (not (= x {FIRST})) (not (= x {SECOND})))"
        f" (and (or (R x x) (and (R x {SECOND}) (R {FIRST} {FIRST})))"
        f" (or (S x x) (not (S x x))))))")
    f2 = parse_formula("false")
    sorts, predicates = _signature_of(f1, f2)
    verdict = assert_agrees(f1, f2, sorts, 3, predicates)
    assert verdict.models_checked == 4 + 2 ** 8 + 9 * 2 ** 9 + 1
    assert print_model(verdict.counter_model) == (
        "(model\n  (carrier s (s1 s2 s3))\n  (interp R ((s3 s3)))\n"
        "  (interp S ()))")


# ---------------------------------------------------------------------------
# the compiled masks, model by model


def assert_masks_match(f, sorts, max_carrier, predicates, width=WORD_BITS,
                       sample=None):
    """Where `_compile` accepts the formula, `eval_formula` raises on no
    model of any word, and the compiled mask holds exactly where it returns
    True.  With `sample`, only that many models of each word are decoded,
    drawn by a seeded generator.  A formula `_compile` refuses counts as
    one "refused"."""
    runs = _compile([f], sorts, predicates)
    if runs is None:
        return Counter(["refused"])
    [run], _ = runs
    rng, seen = random.Random(0), Counter()
    for step in _ModelSpace(sorts, max_carrier, predicates).steps():
        w = min(step.bits, width)
        for chunk in range(1 << step.bits - w):
            word = _Word(step, chunk, w)
            holds = run(word, {})
            bits = range(1 << w)
            if sample is not None and sample < len(bits):
                bits = rng.sample(bits, sample)
            for bit in bits:
                m = step.decode(chunk << w | bit)
                value = eval_formula(m, f)  # accepted: must not raise
                assert holds >> bit & 1 == value, (print_model(m), value)
                seen[value] += 1
    return seen


def test_compiled_masks_match_eval_formula_on_random_formulas():
    gen, rng = FormulaGen(seed=7), random.Random(7)
    seen, compiled = Counter(), 0
    for _ in range(60):
        f = _close(gen.random_formula(4), rng)
        try:
            sorts, predicates = _signature_of(f)
        except FreeSymbol:  # a function symbol: mere or boite
            continue
        k = max(k for k in (1, 2, 3)
                if k == 1 or model_count(sorts, k, predicates) <= 300)
        counts = assert_masks_match(f, sorts, k, predicates)
        compiled += not counts["refused"]
        seen += counts
    # both values occur in the draw, and formulas that can raise
    assert min(seen[True], seen[False]) >= 100 and seen["refused"]
    # the compiled path checks most of the draw: 38 of the 42 formulas
    # with no function symbol compile, 4 are refused
    assert compiled >= 38


P_s = Pred("P", (x_s,))
EPS_P = Eps(INDEF, "s", "x", P_s)
MASK_EDGE_CASES = [
    # hat_ predicates: declared sorts, sort e, two arguments, no carrier
    (Forall("x", "e", Implies(Pred("hat_s", (x_e,)), Pred("P", (x_e,)))),
     ["s", "t"], [("P", ("s",))]),
    (Forall("x", "e", Or(Pred("hat_s", (x_e,)), Pred("hat_t", (x_e,)))),
     ["s", "t"], []),
    (Exists("x", "s", And(Pred("hat_s", (x_s, x_s)), P_s)), ["s"],
     [("P", ("s",))]),
    (And(Pred("hat_s", (EPS_P,)), Pred("P", (EPS_P,))), ["s"],
     [("P", ("s",))]),
    (Implies(Exists("x", "s", P_s), Exists("x", "s", Pred("hat_u", (x_s,)))),
     ["s"], [("P", ("s",))]),
    (Exists("x", "e", TruthConst(True)), [], []),
    # = between variables and choice terms, an unbound variable
    (Exists("x", "s", And(Not(P_s), Eq(x_s, Eps(UNIVERSAL, "s", "x", P_s)))),
     ["s"], [("P", ("s",))]),
    (Or(Exists("x", "s", P_s), Eq(LVar("free", "s"), LVar("free", "s"))),
     ["s"], [("P", ("s",))]),
    (Or(Forall("x", "s", P_s), Pred("P", (LVar("free", "s"),))), ["s"],
     [("P", ("s",))]),
    # a Henkin choice term behind a short circuit, an uninterpreted one
    (parse_formula(HENKIN), ["s"], [("P", ("s",)), ("Q", ("s",))]),
    # bodies that raise only past the element that decides
    (parse_formula(f"(forall (y s) (or (and (= y {FIRST}) (Q y)) (and (not"
                   f" (= y {FIRST})) (or (not (P y)) (Q (eps s x (P y)))))))"),
     ["s"], [("P", ("s",)), ("Q", ("s",))]),
    (parse_formula(f"(exists (y s) (or (and (= y {FIRST}) (not (Q y))) (and"
                   f" (not (= y {FIRST})) (and (P y) (Q (eps s x (P y)))))))"),
     ["s"], [("P", ("s",)), ("Q", ("s",))]),
    (parse_formula(f"(Q (eps s x (or (not (P x)) (and (not (= x {FIRST}))"
                   f" (and (Q x) (Q (eps s w (P x))))))))"), ["s"],
     [("P", ("s",)), ("Q", ("s",))]),
    (Forall("x", "s", Implies(P_s, Pred("G", (x_s,)))), ["s"],
     [("P", ("s",))]),
    # choice terms as arguments, and a nested one
    (parse_formula(PAPER_PAIRS[4][0]), ["s"], [("R", ("s", "s"))]),
    # closed variants of the rows above that `_compile` refuses, which it
    # compiles: a hat_ predicate over a sort with a carrier, sort e over a
    # declared sort, the variable bound, no Henkin dependency, G listed
    (Implies(Exists("x", "s", P_s), Exists("x", "s", Pred("hat_s", (x_s,)))),
     ["s"], [("P", ("s",))]),
    (Exists("x", "e", TruthConst(True)), ["s"], []),
    (Exists("free", "s", Or(Exists("x", "s", P_s),
                            Eq(LVar("free", "s"), LVar("free", "s")))),
     ["s"], [("P", ("s",))]),
    (Forall("free", "s", Or(Forall("x", "s", P_s),
                            Pred("P", (LVar("free", "s"),)))),
     ["s"], [("P", ("s",))]),
    (parse_formula("(forall (y s) (or (not (P y)) (Q (eps s x (P x)))))"),
     ["s"], [("P", ("s",)), ("Q", ("s",))]),
    (parse_formula(f"(forall (y s) (or (and (= y {FIRST}) (Q y)) (and (not"
                   f" (= y {FIRST})) (or (not (P y)) (Q (eps s x (P x)))))))"),
     ["s"], [("P", ("s",)), ("Q", ("s",))]),
    (parse_formula(f"(exists (y s) (or (and (= y {FIRST}) (not (Q y))) (and"
                   f" (not (= y {FIRST})) (and (P y) (Q (eps s x (P x)))))))"),
     ["s"], [("P", ("s",)), ("Q", ("s",))]),
    (parse_formula(f"(Q (eps s x (or (not (P x)) (and (not (= x {FIRST}))"
                   f" (and (Q x) (Q (eps s w (P w))))))))"), ["s"],
     [("P", ("s",)), ("Q", ("s",))]),
    (Forall("x", "s", Implies(P_s, Pred("G", (x_s,)))), ["s"],
     [("P", ("s",)), ("G", ("s",))]),
]


@pytest.mark.parametrize("width", [WORD_BITS, 2])
@pytest.mark.parametrize("f, sorts, predicates", MASK_EDGE_CASES)
def test_compiled_masks_match_eval_formula_on_edge_cases(f, sorts,
                                                         predicates, width):
    """Also with words of 4 models, so that most steps span several."""
    assert_masks_match(f, sorts, 3, predicates, width)


def test_compiled_masks_match_eval_formula_past_one_word():
    """Two binary predicates at carrier size 3: a step of 2**18 models, four
    words, 200 models of each decoded."""
    f = parse_formula(f"(exists (x s) (and (R x {SECOND}) (or (S x x)"
                      f" (= (eps s y (R y y)) {FIRST}))))")
    sorts, predicates = _signature_of(f)
    assert 3 ** 2 * 2 > WORD_BITS
    seen = assert_masks_match(f, sorts, 3, predicates, sample=200)
    assert seen[True] and seen[False]


# ---------------------------------------------------------------------------
# the small-model bound of monadic formulas


def uncapped(*args):
    """`check_equivalence` on every step up to max_carrier: the compiled
    walk with no cap."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(model, "_caps", lambda *_: None)
        return check_equivalence(*args)


def monadic_pair(seed):
    """A formula of `MonadicFormulaGen` and, by the seed, its rewrite (an
    equivalent), another formula, a disjunction or conjunction with one,
    which differs from it on some models only, or a disjunction with one
    that holds only where the first sort with a predicate has elements of
    two profiles, which differs from it on larger models of that sort."""
    gen = MonadicFormulaGen(seed)
    f1 = gen.random_formula(4)
    kind = seed % 5
    if kind == 0:
        return f1, rewrite_hilbert(f1)
    if kind == 1:
        return f1, gen.random_formula(4)
    if kind < 4:
        return (Or if kind == 2 else And)(f1, gen.random_formula(3)), f1
    sorts, _ = _signature_of(f1)
    own = [(p, s) for s in sorts + list(gen.sorts)
           for p, t in sorted(gen.preds.items()) if t == s]
    if not own:
        return f1, Not(Not(f1))
    p, s = own[0]
    x, y = LVar("x", s), LVar("y", s)
    two = Exists("x", s, Exists("y", s, And(Pred(p, (x,)),
                                            Not(Pred(p, (y,))))))
    return f1, Or(f1, And(two, gen.random_formula(3)))


def skipped_before(sorts, caps, max_carrier, verdict) -> bool:
    """Whether a step past the caps comes before the counter-model's."""
    sizes = tuple(len(verdict.counter_model.carriers[s]) for s in sorts)
    return any(step < sizes and any(n > c for n, c in zip(step, caps))
               for step in itertools.product(range(1, max_carrier + 1),
                                             repeat=len(sorts)))


def test_capped_verdicts_match_the_whole_enumeration():
    """Generated monadic pairs at every max_carrier from 1 to the largest
    cap + 2, against `reference` where it walks at most 1,500 models and
    against the uncapped walk where that walks at most 2**13; a larger
    walk is left out, and the draw checks most settings past a cap."""
    seen = Counter()
    for seed in range(60):
        f1, f2 = monadic_pair(seed)
        sorts, predicates = _signature_of(f1, f2)
        caps = _caps(sorts, 10 ** 6, predicates)
        assert _compile([f1, f2], sorts, predicates)[1]
        for k in range(1, max(caps, default=1) + 3):
            args = (f1, f2, sorts, k, predicates)
            verdict = check_equivalence(*args)
            if verdict.models_checked <= 1500:
                assert verdict == reference(*args), (seed, k)
            elif verdict.models_checked <= 2 ** 13:
                assert verdict == uncapped(*args), (seed, k)
            else:
                seen["left out"] += 1
                continue
            past = any(k > c for c in caps)
            seen["past a cap"] += past
            seen["within the caps"] += not past
            seen[verdict.equivalent] += 1
            if not verdict.equivalent and skipped_before(sorts, caps, k,
                                                          verdict):
                seen["counter-model after a skipped step"] += 1
    # 188 past a cap and 145 within; 121 equivalent, 212 not, 15 of them
    # after a skipped step; 28 left out
    assert seen["past a cap"] >= 150 and seen["within the caps"] >= 100
    assert min(seen[True], seen[False]) >= 100
    assert seen["counter-model after a skipped step"] >= 12
    assert seen["left out"] <= 40


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), past=st.integers(1, 2))
def test_capped_verdicts_match_the_uncapped_walk(seed, past):
    """At `past` sizes beyond the largest cap, or at the largest size where
    the uncapped walk checks at most 2**14 models."""
    f1, f2 = monadic_pair(seed)
    sorts, predicates = _signature_of(f1, f2)
    top = max(_caps(sorts, 10 ** 6, predicates), default=1) + past
    k = max(k for k in range(1, top + 1)
            if k == 1 or model_count(sorts, k, predicates) <= 2 ** 14)
    args = (f1, f2, sorts, k, predicates)
    assert check_equivalence(*args) == uncapped(*args)


# (P s-element 1 and not P of the second) and a t-element: the first
# counter-model has two s-elements, after every step with one, (1, n) for
# n up to max_carrier; t has no predicate, so only (1, 1) is checked
SKIPPED_FIRST = ("(and (exists (x s) (exists (y s) (and (P x) (not (P y)))))"
                 " (exists (z t) true))")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 100, 10 ** 6])
def test_first_counter_model_after_skipped_steps(k):
    f1, f2 = parse_formula(SKIPPED_FIRST), TruthConst(False)
    sorts, predicates = _signature_of(f1, f2)
    assert (sorts, _caps(sorts, k, predicates)) == (["s", "t"], [min(k, 2), 1])
    args = (f1, f2, sorts, k, predicates)
    verdict = check_equivalence(*args)
    if k == 1:
        assert verdict == Verdict(True, None, 2)
        return
    # (1, n): 2 models each; then at (2, 1) P runs [], {s1}
    assert verdict.models_checked == 2 * k + 2
    assert print_model(verdict.counter_model) == (
        "(model\n  (carrier s (s1 s2))\n  (carrier t (t1))\n"
        "  (interp P ((s1))))")
    if k <= 100:  # the uncapped walk takes a step per size of t
        assert verdict == (reference(*args) if k <= 4
                           else uncapped(*args))


def test_readme_pair_at_carrier_40_is_answered_at_once(capsys):
    start = time.perf_counter()
    code = main(["eval", "--model", "models/chat.model",
                 "--formula", "(chat (eps ani x (chat x)))",
                 "--equiv", "(exists (x ani) (chat x))",
                 "--max-carrier", "40"])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr().out) == \
        (0, "equivalent (2199023255550 models)\n")
    assert 2199023255550 == 2 ** 41 - 2 and elapsed < 0.2


def test_a_count_too_long_to_print_is_an_error(capsys):
    """At 10**12 elements the count has about 3 * 10**11 digits: refused
    before it is built."""
    start = time.perf_counter()
    code = main(["eval", "--model", "models/chat.model",
                 "--formula", "(chat (eps ani x (chat x)))",
                 "--equiv", "(exists (x ani) (chat x))",
                 "--max-carrier", "1000000000000"])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr()) == (1, (
        "", "error: the count of models up to carrier size 1000000000000 "
        "has over 4300 digits\n"))
    assert elapsed < 1


def test_the_longest_count_that_prints():
    """sum(2**n for n in 1..k) = 2**(k+1) - 2 has 4,300 digits at k =
    14283, the most Python prints by default, and 4,301 at 14284."""
    f1 = parse_formula("(P (eps s x (P x)))")
    f2 = parse_formula("(exists (x s) (P x))")
    assert 10 ** 4299 <= 2 ** 14284 - 2 < 10 ** 4300 <= 2 ** 14285 - 2
    verdict = check_equivalence(f1, f2, ["s"], 14283, [("P", ("s",))])
    assert verdict == Verdict(True, None, 2 ** 14284 - 2)
    assert len(str(verdict.models_checked)) == 4300
    with pytest.raises(ModelError, match="size 14284 has over 4300 digits"):
        check_equivalence(f1, f2, ["s"], 14284, [("P", ("s",))])


# where the argument is not made, every step up to max_carrier is checked


def bounded(f1, f2, sorts, max_carrier, predicates) -> bool:
    runs = _compile([f1, f2], sorts, predicates)
    return bool(runs and runs[1] and _caps(sorts, max_carrier, predicates))


@pytest.mark.parametrize("f1, k, checked", [
    # three distinct elements: a counter-model at size 3, past 2**0
    ("(exists (x s) (exists (y s) (exists (z s) (and (not (= x y))"
     " (and (not (= x z)) (not (= y z)))))))", 3, 1 + 1 + 1),
    # R(x, y) without R(x, x): at size 2, R = {(s1, s2)} is third
    ("(exists (x s) (exists (y s) (and (R x y) (not (R x x)))))", 2, 2 + 3),
])
def test_no_cap_where_it_would_miss_the_counter_model(f1, k, checked):
    f1, f2 = parse_formula(f1), TruthConst(False)
    sorts, predicates = _signature_of(f1, f2)
    assert not bounded(f1, f2, sorts, k, predicates)
    verdict = assert_agrees(f1, f2, sorts, k, predicates)
    assert not verdict.equivalent and verdict.models_checked == checked
    assert len(verdict.counter_model.carriers["s"]) == k


@pytest.mark.parametrize("f1, sorts, predicates", [
    # hat_ of a sort with a carrier
    (Exists("x", "s", And(Pred("hat_s", (x_s,)), P_s)), ["s"],
     [("P", ("s",))]),
    # a binder over e, with its own carrier or over the union of the sorts
    (parse_formula("(exists (x e) (exists (y e) (and (P x) (not (P y)))))"),
     ["e"], [("P", ("e",))]),
    (Exists("x", "e", Exists("y", "s", Pred("P", (x_e,)))), ["s"],
     [("P", ("s",))]),
    (Forall("x", "s", Pred("P", (Eps(INDEF, "e", "y", Pred("P", (LVar(
        "y", "e"),))),))), ["s"], [("P", ("s",))]),
    # a Henkin choice term
    (parse_formula(HENKIN), ["s"], [("P", ("s",)), ("Q", ("s",))]),
])
def test_no_cap_where_the_argument_is_not_made(f1, sorts, predicates):
    for f2 in (TruthConst(True), TruthConst(False)):
        assert not bounded(f1, f2, sorts, 4, predicates)
        assert_agrees(f1, f2, sorts, 4, predicates)


def test_no_cap_where_elements_of_two_sorts_share_a_name():
    """An F over sort a1 holds of a variable over sort a only at a's
    eleventh element, `a11`, which is also a1's first: the counter-model
    comes at sizes (11, 1), past any cap on a."""
    f = Exists("x", "a", Pred("F", (LVar("x", "a1"),)))
    sorts, predicates = ["a", "a1"], [("F", ("a1",))]
    assert _compile([f], sorts, predicates)[1]
    assert not bounded(f, TruthConst(False), sorts, 11, predicates)
    verdict = check_equivalence(f, TruthConst(False), sorts, 11, predicates)
    assert verdict.models_checked == 10 * (2 ** 12 - 2) + 2
    assert print_model(verdict.counter_model) == (
        "(model\n  (carrier a (a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11))\n"
        "  (carrier a1 (a11))\n  (interp F ((a11))))")
