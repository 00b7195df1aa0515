"""Randomized property suites over the generators in generators.py.

The acceptance module runs the same properties at the sizes the project
commits to; these use different seeds for extra coverage.
"""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from generators import FORMULA_CONSTANTS, FormulaGen, TermGen, \
    generator_context
from tysem.kernel import (App, Arrow, BaseSort, Const, Lam, Pi, T, TyApp,
                          TyLam, TypeVar, Var, alpha_eq, canon, free_tyvars,
                          nodes, normalize, parse_type, print_term, type_of)
from tysem.logic import extract_formula, parse_formula, print_formula
from tysem.sexpr import read_one


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


def renamed(n, fresh, vmap, tmap):
    """`n` with every bound term and type variable, `pi` binders in
    annotations included, renamed to the next name of `fresh`."""
    match n:
        case TypeVar(name):
            return TypeVar(tmap.get(name, name))
        case Arrow(dom, cod):
            return Arrow(renamed(dom, fresh, vmap, tmap),
                         renamed(cod, fresh, vmap, tmap))
        case Pi(var, body):
            new = next(fresh)
            return Pi(new, renamed(body, fresh, vmap, {**tmap, var: new}))
        case BaseSort():
            return n
        case Var(name, ty):
            return Var(vmap.get(name, name), renamed(ty, fresh, vmap, tmap))
        case Const(name, ty):
            return Const(name, renamed(ty, fresh, vmap, tmap))
        case App(fun, arg):
            return App(renamed(fun, fresh, vmap, tmap),
                       renamed(arg, fresh, vmap, tmap))
        case Lam(var, ty, body):
            new = next(fresh)
            return Lam(new, renamed(ty, fresh, vmap, tmap),
                       renamed(body, fresh, {**vmap, var: new}, tmap))
        case TyApp(fun, ty):
            return TyApp(renamed(fun, fresh, vmap, tmap),
                         renamed(ty, fresh, vmap, tmap))
        case TyLam(var, body):
            new = next(fresh)
            return TyLam(new, renamed(body, fresh, vmap, {**tmap, var: new}))
    raise AssertionError(n)


def annotations(term):
    for n in nodes(term):
        match n:
            case Var(_, ty) | Const(_, ty) | Lam(_, ty, _) | TyApp(_, ty):
                yield ty


seeds = st.integers(0, 2**32 - 1)


@given(seeds)
def test_canon_is_idempotent_and_ignores_bound_names(seed):
    term = TermGen(seed).random_term(7)
    once = canon(term)
    assert canon(once) == once
    for prefix in ("r", "v"):  # "v" puts the generator's names elsewhere
        fresh = (f"{prefix}{i}" for i in itertools.count())
        other = renamed(term, fresh, {}, {})
        assert canon(other) == once
        assert alpha_eq(normalize(other), normalize(term))


@given(seeds)
def test_annotation_types_read_back(seed):
    sorts = generator_context().sorts
    for ty in annotations(TermGen(seed).random_term(7)):
        text = print_term(ty)
        assert parse_type(read_one(text), sorts, free_tyvars(ty)) == ty
