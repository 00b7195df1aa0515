"""The compiled equivalence checker against the interpretive evaluator.

`check_equivalence` compiles both formulas and runs them on models encoded
as masks.  The reference below walks the decoded models of
`enumerate_models` with `eval_formula`; the two must give the same verdict
(equivalence, models checked and counter-model) or raise the same error.
"""

import itertools
import math
import random
import re
from collections import Counter

import pytest

from generators import FormulaGen
from tysem.cli import _signature_of
from tysem.errors import FreeSymbol, TysemError
from tysem.logic import (Eq, Exists, Forall, LVar, Pred, TruthConst,
                         parse_formula, print_formula, rewrite_hilbert)
from tysem.model import (Model, Verdict, check_equivalence, enumerate_models,
                         eval_formula, print_model)


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
