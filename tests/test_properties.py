"""Randomized property suites over the generators in generators.py.

The acceptance module runs the same properties at the sizes the project
commits to; these use different seeds for extra coverage.
"""

from generators import FORMULA_CONSTANTS, FormulaGen, TermGen, \
    generator_context
from tysem.kernel import T, alpha_eq, normalize, type_of
from tysem.logic import extract_formula, parse_formula, print_formula


def test_subject_reduction_random_terms():
    ctx = generator_context()
    gen = TermGen(seed=99)
    for _ in range(300):
        term = gen.random_term(7)
        before = type_of(ctx, term)
        after = normalize(term)
        assert type_of(ctx, after) == before


def test_strategy_confluence_random_terms():
    gen = TermGen(seed=7)
    for _ in range(300):
        term = gen.random_term(7)
        assert alpha_eq(normalize(term, "lo"), normalize(term, "ri"))


def test_termination_within_budget():
    gen = TermGen(seed=13)
    for _ in range(300):
        normalize(gen.random_term(7))


def test_formula_readiness():
    """Every normal term of truth type over the logical signature converts
    to a formula without error."""
    ctx = generator_context()
    gen = TermGen(seed=5)
    converted = 0
    for _ in range(300):
        term = gen.random_term(7)
        if type_of(ctx, term) == T:
            extract_formula(normalize(term), ctx)
            converted += 1
    assert converted > 50


def test_formula_print_parse_round_trip():
    gen = FormulaGen(seed=21)
    for _ in range(200):
        f = gen.random_formula(4)
        assert parse_formula(print_formula(f, "sexpr"),
                             FORMULA_CONSTANTS) == f


def test_printing_is_injective_on_distinct_formulas():
    gen = FormulaGen(seed=42)
    seen: dict[str, object] = {}
    for _ in range(200):
        f = gen.random_formula(3)
        text = print_formula(f, "sexpr")
        if text in seen:
            assert seen[text] == f
        seen[text] = f
