"""Acceptance gate: one test per committed criterion, each printing a
PASS/FAIL line and enforcing its time budget.  Run with `pytest -s
tests/test_acceptance.py` to see the lines.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from generators import FORMULA_CONSTANTS, FormulaGen, TermGen, \
    generator_context
from tysem.cli import AnalysisOptions, analyze_session, discourse_formula
from tysem.composer import compose, parse_tree
from tysem.errors import RigidityViolation
from tysem.kernel import (BaseSort, TyApp, alpha_eq, normalize,
                          parse_term, type_of)
from tysem.lexicon import load_lexicon
from tysem.logic import (And, Eps, Exists, Forall, Formula, Implies, Not,
                         Or, Pred, LVar, conjoin, extract_formula,
                         parse_formula, presuppositions, print_formula,
                         rewrite_hilbert)
from tysem.model import (InterpPredicate, Model, check_equivalence,
                         enumerate_models, eval_formula, extend_interp,
                         restrict_interp)

REPO = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(number: int, description: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(f"ACCEPTANCE {number} FAIL: {description} "
              f"[{elapsed:.2f}s, budget {budget}s]")
        pytest.fail(f"criterion {number} exceeded its {budget}s budget")
    print(f"ACCEPTANCE {number} PASS: {description} "
          f"[{elapsed:.3f}s < {budget}s]")


def _load(name: str):
    return load_lexicon((REPO / "lexica" / name).read_text())


def test_criterion_1_figure_one_pipeline():
    with criterion(1, "classical indefinite pipeline reproduces the "
                      "existential formula", 1.0):
        lex = _load("fig1.lex")
        result = compose(parse_tree("((un club) (a_battu Leeds))"), lex)
        normal = normalize(result.term)
        formula = rewrite_hilbert(extract_formula(normal,
                                                  lex.typing_context()))
        assert print_formula(formula) == \
            "exists x:e. (club(x) & a_battu(x,Leeds))"


def test_criterion_2_copredication():
    with criterion(2, "flexible copredication reduces to both aspects; "
                      "rigid coercion is rejected naming t1", 1.0):
        lex = _load("fig2.lex")
        ctx = lex.typing_context()
        result = compose(parse_tree("((et est_vaste a_vote) Liverpool)"), lex)
        normal = normalize(result.term)
        expected = parse_term(
            "(and (est_vaste (t3 Liverpool)) (a_vote (t2 Liverpool)))", ctx)
        assert alpha_eq(normal, expected)

        with pytest.raises(RigidityViolation) as err:
            compose(parse_tree("((et a_gagne a_vote) Liverpool)"), lex)
        assert "t1" in err.value.rigid_labels


def test_criterion_3_typed_choice_determiner():
    with criterion(3, "typed choice determiner: instantiation, "
                      "presupposition, conjoined classical reading", 1.0):
        lex = _load("chat.lex")
        ctx = lex.typing_context()
        result = compose(parse_tree("(dort (un chat))"), lex)
        normal = normalize(result.term)
        assert alpha_eq(normal,
                        parse_term("(dort ((tyapp eps ani) chat))", ctx))
        # the determiner instantiated at the animal sort
        assert isinstance(normal.arg.fun, TyApp)
        assert normal.arg.fun.ty == BaseSort("ani")

        ps = presuppositions(normal)
        assert [print_formula(p) for p in ps] == \
            ["chat(eps[ani](x. chat(x)))"]

        conjoined = rewrite_hilbert(
            conjoin(ps + [extract_formula(normal, ctx)]))
        assert print_formula(conjoined) == "exists x:ani. (chat(x) & dort(x))"


def test_criterion_4_hilbert_equivalences_brute_force():
    with criterion(4, "choice/quantifier equivalences over all 60 small "
                      "models, counter-model for the false variant", 5.0):
        f_eps = parse_formula("(F (eps s x (F x)))")
        f_ex = parse_formula("(exists (x s) (F x))")
        v1 = check_equivalence(f_eps, f_ex, ["s"], 4, [("F", ("s",))])
        assert v1.equivalent

        f_tau = parse_formula("(F (tau s x (F x)))")
        f_all = parse_formula("(forall (x s) (F x))")
        v2 = check_equivalence(f_tau, f_all, ["s"], 4, [("F", ("s",))])
        assert v2.equivalent
        assert v1.models_checked + v2.models_checked == 60

        g_eps = parse_formula("(G (eps s x (F x)))")
        g_ex = parse_formula("(exists (x s) (G x))")
        v3 = check_equivalence(g_eps, g_ex, ["s"], 4,
                               [("F", ("s",)), ("G", ("s",))])
        assert not v3.equivalent
        counter = v3.counter_model
        assert eval_formula(counter, g_eps) != eval_formula(counter, g_ex)


def test_criterion_5_restriction_non_recovery():
    with criterion(5, "restrict below the extension, extend, restrict "
                      "back: the original is not recovered", 1.0):
        m = Model(carriers={"e": ("a", "b", "c"), "ani": ("a", "b"),
                            "siamois": ("a",)})
        chat = InterpPredicate("chat", "ani", frozenset({"a", "b"}))
        narrowed = restrict_interp(m, chat, "siamois")
        assert narrowed.extension < chat.extension  # strict subset
        back = restrict_interp(m, extend_interp(m, narrowed, "e"), "ani")
        assert back.extension != chat.extension


def test_criterion_6_property_suites():
    with criterion(6, "randomized suites: subject reduction, confluence, "
                      "termination (1000 terms), 500 formula round-trips, "
                      "choice-witness soundness", 60.0):
        ctx = generator_context()
        gen = TermGen(seed=20240)
        for _ in range(1000):
            term = gen.random_term(7)
            before = type_of(ctx, term)
            lo = normalize(term, "lo")      # termination: raises on budget
            ri = normalize(term, "ri")
            assert type_of(ctx, lo) == before   # subject reduction
            assert alpha_eq(lo, ri)             # strategy confluence

        fgen = FormulaGen(seed=4)
        for _ in range(500):
            f = fgen.random_formula(4)
            assert parse_formula(print_formula(f, "sexpr"),
                                 FORMULA_CONSTANTS) == f

        witness = Pred("B", (Eps("indef", "s", "x",
                                 Pred("B", (LVar("x", "s"),))),))
        some = Exists("x", "s", Pred("B", (LVar("x", "s"),)))
        for m in enumerate_models(["s"], 4, [("B", ("s",))]):
            if eval_formula(m, some):
                assert eval_formula(m, witness)


def test_criterion_7_discourse_session():
    with criterion(7, "pronoun copies the registered choice term; one "
                      "existential binds both occurrences", 1.0):
        lex = _load("homme.lex")
        options = AnalysisOptions(rewrite=True)
        results, state = analyze_session(
            lex, ["(est_entre (un homme))", "(a_hurle il)"], options)

        # the pronoun's term is the registered referent's term
        registered = state.referents[0].term
        assert alpha_eq(results[1].term.arg, registered)

        rewritten = discourse_formula(results, options)
        assert isinstance(rewritten, Exists)
        assert _count_existentials(rewritten) == 1
        names = _predicate_names(rewritten.body)
        assert {"homme", "est_entre", "a_hurle"} <= names
        # both verb occurrences apply to the one bound variable
        for pred in _predicates(rewritten.body):
            assert pred.args == (LVar(rewritten.var, "humain"),)


def _count_existentials(f: Formula) -> int:
    match f:
        case Exists(_, _, body):
            return 1 + _count_existentials(body)
        case Forall(_, _, body) | Not(body):
            return _count_existentials(body)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return _count_existentials(l) + _count_existentials(r)
        case _:
            return 0


def _predicates(f: Formula):
    match f:
        case Pred():
            return [f]
        case And(l, r) | Or(l, r) | Implies(l, r):
            return _predicates(l) + _predicates(r)
        case Not(op):
            return _predicates(op)
        case Exists(_, _, body) | Forall(_, _, body):
            return _predicates(body)
        case _:
            return []


def _predicate_names(f: Formula) -> set:
    return {p.name for p in _predicates(f)}
