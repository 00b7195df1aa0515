import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernel_oracle as oracle
from generators import TermGen
from tysem import kernel
from tysem.errors import (StepBudgetExceeded, ParseError, TyLamEscape,
                          TypeClash, UnboundName, UnknownSort)
from tysem.kernel import (App, Arrow, BaseSort, Const, E, Lam, Pi, T, TyApp,
                          TyLam, TypeVar, TypingContext, Var, alpha_eq, arrow,
                          canon, free_tyvars, free_vars, is_normal, nodes,
                          normalize, parse_term, print_term, reduction_steps,
                          subst_term, subst_type, subst_type_in_term, type_of)

REPO = Path(__file__).resolve().parent.parent
ANI = BaseSort("ani")
FURN = BaseSort("furniture")


@pytest.fixture
def ctx():
    return (TypingContext.default()
            .with_sorts({"ani", "furniture"})
            .with_const("chat", Arrow(ANI, T))
            .with_const("dort", Arrow(ANI, T))
            .with_const("aboie", Arrow(ANI, T))
            .with_const("fido", ANI)
            .with_const("chaise1", FURN))


# ---------------------------------------------------------------------------
# parsing


def test_parse_lambda(ctx):
    term = parse_term("(lam x ani (chat x))", ctx)
    assert term == Lam("x", ANI, App(Const("chat", Arrow(ANI, T)),
                                     Var("x", ANI)))


def test_parse_free_variable_from_context(ctx):
    term = parse_term("x", ctx.with_var("x", E))
    assert term == Var("x", E)


def test_parse_unbalanced():
    with pytest.raises(ParseError) as err:
        parse_term("(lam x")
    assert err.value.line == 1


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_term("(lam x ani\n  (chat x)))")
    assert err.value.line == 2


def test_parse_unknown_sort_annotation(ctx):
    with pytest.raises(UnknownSort):
        parse_term("(lam x zebra x)", ctx)


def test_parse_unknown_symbol(ctx):
    with pytest.raises(UnboundName):
        parse_term("(chat zzz)", ctx)


def test_application_left_associates(ctx):
    ctx = ctx.with_const("aime", Arrow(ANI, Arrow(ANI, T)))
    assert parse_term("(aime fido fido)", ctx) == \
        parse_term("((aime fido) fido)", ctx)


def test_print_parse_round_trip(ctx):
    text = "(lam x ani (lam f (-> ani t) (f x)))"
    term = parse_term(text, ctx)
    assert parse_term(print_term(term), ctx) == term


# ---------------------------------------------------------------------------
# typing


def test_builtin_choice_type(ctx):
    term = parse_term("eps", ctx)
    assert type_of(ctx, term) == Pi("a", Arrow(Arrow(TypeVar("a"), T),
                                               TypeVar("a")))


def test_choice_application_types_at_sort(ctx):
    term = parse_term("(dort ((tyapp eps ani) chat))", ctx)
    assert type_of(ctx, term) == T


def test_selectional_restriction_clash(ctx):
    term = parse_term("(dort chaise1)", ctx)
    with pytest.raises(TypeClash) as err:
        type_of(ctx, term)
    assert err.value.expected == ANI
    assert err.value.found == FURN


def test_tyapp_requires_pi(ctx):
    with pytest.raises(TypeClash):
        type_of(ctx, parse_term("(tyapp chat ani)", ctx))


def test_tylam_side_condition(ctx):
    # abstracting over a type variable that occurs in a free variable's type
    body = App(Var("p", Arrow(TypeVar("a"), T)), Var("x", TypeVar("a")))
    with pytest.raises(TyLamEscape):
        type_of(ctx.with_var("p", Arrow(TypeVar("a"), T))
                   .with_var("x", TypeVar("a")),
                TyLam("a", body))


def test_tylam_types_as_pi(ctx):
    term = parse_term("(tylam a (lam p (-> a t) p))", ctx)
    assert type_of(ctx, term) == Pi("a", Arrow(Arrow(TypeVar("a"), T),
                                               Arrow(TypeVar("a"), T)))


def test_unbound_variable_rejected(ctx):
    with pytest.raises(UnboundName):
        type_of(ctx, Var("ghost", ANI))


# ---------------------------------------------------------------------------
# alpha equivalence


def test_alpha_renaming():
    a = parse_term("(lam x e x)")
    b = parse_term("(lam y e y)")
    assert alpha_eq(a, b)


def test_alpha_annotation_differs():
    assert not alpha_eq(parse_term("(lam x e x)"), parse_term("(lam x t x)"))


def test_alpha_type_binders():
    a = parse_term("(tylam a (lam p (-> a t) p))")
    b = parse_term("(tylam b (lam q (-> b t) q))")
    assert alpha_eq(a, b)
    assert not alpha_eq(a, parse_term("(tylam b (lam q (-> b b) q))"))


def test_nodes_walks_terms_and_types_in_pre_order(ctx):
    term = parse_term("((tyapp (tylam a (lam p (-> a t) p)) ani) chat)", ctx)
    # the types annotating a term are not among its subterms
    assert [type(n).__name__ for n in nodes(term)] == [
        "App", "TyApp", "TyLam", "Lam", "Var", "Const"]
    ty = Arrow(Arrow(ANI, T), Pi("a", TypeVar("a")))
    assert list(nodes(ty)) == [ty, ty.dom, ANI, T, ty.cod, TypeVar("a")]


def test_alpha_distinguishes_free_variables(ctx):
    assert not alpha_eq(Var("x", ANI), Var("y", ANI))


# ---------------------------------------------------------------------------
# normalization


def test_normal_terms_are_fixed_points(ctx):
    v = Var("x", ANI)
    assert normalize(v) == v


def test_beta_step(ctx):
    term = parse_term("((lam x ani (chat x)) fido)", ctx)
    assert normalize(term) == parse_term("(chat fido)", ctx)


def test_type_beta_step(ctx):
    term = parse_term("((tyapp (tylam a (lam p (-> a t) p)) ani) chat)", ctx)
    assert normalize(term) == Const("chat", Arrow(ANI, T))


def test_capture_avoiding_substitution(ctx):
    # normalize((lam x (lam y x)) y) must rename the inner binder
    outer = parse_term("(lam x e (lam y e x))", ctx)
    term = App(outer, Var("y", E))
    result = normalize(term)
    assert isinstance(result, Lam)
    assert result.var != "y"
    assert result.body == Var("y", E)


def test_subst_term_shadowing(ctx):
    lam = parse_term("(lam x ani (chat x))", ctx)
    assert subst_term(lam, "x", Const("fido", ANI)) == lam


def test_step_budget(ctx, monkeypatch):
    term = parse_term("((lam x ani (chat x)) fido)", ctx)
    monkeypatch.setattr(kernel, "DEFAULT_STEP_BUDGET", 0)
    with pytest.raises(StepBudgetExceeded):
        list(reduction_steps(term))


def test_subject_reduction_figure_one_pipeline(fig1):
    ctx = fig1.typing_context()
    text = """
    (((lam p (-> e t) (lam q (-> e t)
        ((tyapp exists e) (lam x e (and (p x) (q x))))))
      (lam x e (club x)))
     ((lam y e (lam x e ((a_battu x) y))) Leeds))
    """
    term = parse_term(text, ctx)
    assert type_of(ctx, term) == T
    normal = normalize(term)
    expected = parse_term(
        "((tyapp exists e) (lam x e (and (club x) (a_battu x Leeds))))", ctx)
    assert alpha_eq(normal, expected)
    assert type_of(ctx, normal) == T


def test_trace_counts_redexes(fig1):
    ctx = fig1.typing_context()
    term = parse_term("((lam x e (club x)) ((lam y e y) Leeds))", ctx)
    steps = list(reduction_steps(term))
    assert len(steps) == 2
    assert steps[-1] == normalize(term)
    assert is_normal(steps[-1])


def test_reduction_orders(ctx):
    # a root redex whose function and argument both hold redexes, one of
    # them a type redex: lo fires the root first, ri the argument's
    # innermost redex first
    term = parse_term(
        "((lam p (-> ani t) ((lam y ani (p y)) fido))"
        " (tyapp (tylam a (lam x ani ((lam z ani (chat z)) x))) ani))", ctx)
    lo = [print_term(t) for t in reduction_steps(term, "lo")]
    ri = [print_term(t) for t in reduction_steps(term, "ri")]
    assert lo == [
        "((lam y ani ((tyapp (tylam a (lam x ani ((lam z ani (chat z)) x)))"
        " ani) y)) fido)",
        "((tyapp (tylam a (lam x ani ((lam z ani (chat z)) x))) ani) fido)",
        "((lam x ani ((lam z ani (chat z)) x)) fido)",
        "((lam z ani (chat z)) fido)",
        "(chat fido)"]
    assert ri == [
        "((lam p (-> ani t) ((lam y ani (p y)) fido))"
        " (tyapp (tylam a (lam x ani (chat x))) ani))",
        "((lam p (-> ani t) ((lam y ani (p y)) fido)) (lam x ani (chat x)))",
        "((lam p (-> ani t) (p fido)) (lam x ani (chat x)))",
        "((lam x ani (chat x)) fido)",
        "(chat fido)"]


def test_strategies_agree_on_copredication(fig2):
    from tysem.composer import compose, parse_tree
    term = compose(parse_tree("((et est_vaste a_vote) Liverpool)"),
                   fig2).term
    assert alpha_eq(normalize(term, "lo"), normalize(term, "ri"))


def test_free_vars(ctx):
    term = parse_term("(lam x ani (chat x))", ctx)
    assert free_vars(term) == {}
    assert free_vars(App(term, Var("y", ANI))) == {"y": ANI}


def test_type_substitution_avoids_capture(ctx):
    # instantiating the inner abstraction at the outer binder's variable
    # must rename the inner type binder
    from tysem.kernel import TyApp, TyLam

    inner = TyLam("a", TyLam("b", Lam("x", TypeVar("a"),
                                      Var("x", TypeVar("a")))))
    term = TyLam("b", TyApp(inner, TypeVar("b")))
    ty = type_of(ctx, term)
    assert isinstance(ty, Pi) and isinstance(ty.body, Pi)
    assert ty.body.var != "b"  # renamed inner binder
    normal = normalize(term)
    assert type_of(ctx, normal) == ty


# ---------------------------------------------------------------------------
# the walkers over types inside terms


def test_type_substitution_renames_past_free_annotation_variables():
    # b := a under (tylam a ...) renames the binder; a1 is free in the
    # body's annotations, so the fresh name must skip it
    a, a1, b = TypeVar("a"), TypeVar("a1"), TypeVar("b")
    term = TyLam("a", Var("x", arrow(a1, a, b)))
    assert subst_type_in_term(term, "b", a) == \
        TyLam("a2", Var("x", arrow(a1, TypeVar("a2"), a)))


def test_free_tyvars_of_types():
    a, b = TypeVar("a"), TypeVar("b")
    assert free_tyvars(T) == frozenset()
    assert free_tyvars(arrow(a, b, T)) == {"a", "b"}
    assert free_tyvars(Pi("a", Arrow(a, b))) == {"b"}
    assert free_tyvars(Pi("a", Pi("b", Arrow(a, b)))) == frozenset()


def test_alpha_eq_renames_pi_binders_in_annotations():
    a = parse_term("(lam x (pi a (-> a a)) x)")
    assert alpha_eq(a, parse_term("(lam y (pi b (-> b b)) y)"))
    assert not alpha_eq(a, parse_term("(lam x (pi b (-> b t)) x)"))
    poly = Var("f", Pi("a", Arrow(TypeVar("a"), T)))
    assert alpha_eq(poly, Var("f", Pi("c", Arrow(TypeVar("c"), T))))
    assert canon(TyLam("b", poly)) == canon(TyLam("a", Var(
        "f", Pi("b", Arrow(TypeVar("b"), T)))))


def test_print_term_every_form(ctx):
    a = TypeVar("a")
    cases = {
        Var("x", ANI): "x",
        Const("fido", ANI): "fido",
        App(App(Var("f", arrow(ANI, ANI, T)), Var("x", ANI)),
            Const("fido", ANI)): "(f x fido)",
        App(Var("g", Arrow(ANI, T)), App(Var("h", Arrow(ANI, ANI)),
                                         Var("x", ANI))): "(g (h x))",
        Lam("x", ANI, Var("x", ANI)): "(lam x ani x)",
        Lam("x", a, Var("x", a)): "(lam x a x)",
        Lam("p", arrow(ANI, ANI, T), Var("p", arrow(ANI, ANI, T))):
            "(lam p (-> ani (-> ani t)) p)",
        Lam("p", Arrow(Arrow(ANI, ANI), T), Var("p", ANI)):
            "(lam p (-> (-> ani ani) t) p)",
        Lam("f", Pi("a", Arrow(a, a)), Var("f", T)):
            "(lam f (pi a (-> a a)) f)",
        TyLam("a", Lam("x", a, Var("x", a))): "(tylam a (lam x a x))",
        TyApp(Const("eps", kernel.CHOICE_TYPE), ANI): "(tyapp eps ani)",
        TyApp(Var("k", Pi("a", a)), Pi("b", Arrow(TypeVar("b"), T))):
            "(tyapp k (pi b (-> b t)))",
    }
    assert [print_term(term) for term in cases] == list(cases.values())


def test_walkers_take_a_type_or_a_term():
    a, b, c = TypeVar("a"), TypeVar("b"), TypeVar("c")
    poly = Pi("a", Arrow(a, b))
    term = TyLam("a", Lam("f", poly, TyApp(Var("g", Pi("c", c)),
                                          Arrow(a, TypeVar("d")))))
    assert free_tyvars(term) == {"b", "d"}
    assert free_tyvars(App(Const("k", Arrow(a, T)), Var("y", c))) == \
        {"a", "c"}
    assert print_term(poly) == "(pi a (-> a b))"
    assert print_term(Arrow(Arrow(a, T), Pi("c", c))) == \
        "(-> (-> a t) (pi c c))"
    assert canon(poly) == Pi("!a0", Arrow(TypeVar("!a0"), b))
    assert canon(term) == TyLam("!a0", Lam(
        "!v1", Pi("!a1", Arrow(TypeVar("!a1"), b)),
        TyApp(Var("g", Pi("!a2", TypeVar("!a2"))),
              Arrow(TypeVar("!a0"), TypeVar("d")))))


def test_canon_names_binders_by_depth_under_shadowing():
    # the innermost a and b are distinct binders at depths 1 and 2 in both
    a, b, c = TypeVar("a"), TypeVar("b"), TypeVar("c")
    shadowed = TyLam("a", TyLam("a", TyLam("b", Var("x", Arrow(a, b)))))
    distinct = TyLam("a", TyLam("c", TyLam("b", Var("x", Arrow(c, b)))))
    assert alpha_eq(shadowed, distinct)
    assert not alpha_eq(shadowed, TyLam("a", TyLam("c", TyLam(
        "b", Var("x", Arrow(a, b))))))


def test_type_substitution_renames_a_binder_only_when_needed():
    # (tyapp (tylam a1 (tylam a (lam x a x))) a): a1 does not occur, so the
    # inner binder needs no renaming, and renaming it to a1 would capture
    a = TypeVar("a")
    inner = TyLam("a", Lam("x", a, Var("x", a)))
    assert subst_type_in_term(inner, "a1", a) == inner
    term = TyLam("a", TyApp(TyLam("a1", inner), a))
    ctx = TypingContext.default()
    assert type_of(ctx, normalize(term)) == type_of(ctx, term)


# ---------------------------------------------------------------------------
# substitutions share what they leave unchanged, and the normal forms are
# those of the substitutions that rebuilt every node (`kernel_oracle`)


def test_substitution_returns_a_term_without_the_variable_as_it_is(ctx):
    term = parse_term("(lam x ani (and (chat x) (dort fido)))", ctx)
    assert subst_term(term, "y", Var("z", ANI)) is term
    assert subst_term(term, "x", Var("z", ANI)) is term  # x is bound
    a, b = TypeVar("a"), TypeVar("b")
    poly = TyLam("b", Lam("x", Arrow(b, T), Var("x", Arrow(b, T))))
    assert subst_type_in_term(poly, "a", ANI) is poly
    assert subst_type_in_term(poly, "b", ANI) is poly  # b is bound
    pi = Pi("b", Arrow(b, Arrow(ANI, a)))
    assert subst_type(pi, "c", ANI) is pi
    assert subst_type(pi, "a", T).body.dom is pi.body.dom


def test_substitution_shares_the_subterms_it_leaves(ctx):
    left = parse_term("(chat fido)", ctx)
    right = parse_term("(dort y)", ctx.with_var("y", ANI))
    body = App(App(Const("and", arrow(T, T, T)), left), right)
    out = subst_term(body, "y", Const("fido", ANI))
    assert out == parse_term("(and (chat fido) (dort fido))", ctx)
    assert out.fun.arg is left and out.arg.fun is right.fun


def test_normalize_returns_a_normal_term_as_it_is(ctx):
    for text in ("(lam x ani (chat x))", "(chat fido)",
                 "(tyapp eps ani)", "(lam p (-> ani t) (p fido))"):
        term = parse_term(text, ctx)
        assert normalize(term) is term
        assert normalize(term, "ri") is term


def _assert_as_oracle(term):
    steps = list(reduction_steps(term))
    assert steps == list(oracle.reduction_steps(term))
    assert normalize(term, "ri") == oracle.normalize(term, "ri")
    return len(steps)


def _golden_terms():
    """The composed term of each sentence the golden commands analyze over
    the shipped lexica, a session's against its evolving discourse."""
    from test_golden import (MISS_SESSIONS, fig2_tree_commands,
                             oneshot_commands, session_lines)
    from tysem.composer import compose, parse_tree
    from tysem.discourse import DiscourseState
    from tysem.errors import TysemError
    from tysem.lexicon import load_lexicon

    singles = dict.fromkeys((argv[2], argv[4]) for argv in
                            oneshot_commands() + fig2_tree_commands())
    sessions = [(f, session_lines(f)) for f in ("homme", "chat")]
    sessions += [(name[:-4], lines) for name, lines in MISS_SESSIONS.items()]
    runs = [[sentence] for sentence in singles]
    runs += [[(f"lexica/{family}.lex", line) for line in lines]
             for family, lines in sessions]
    lexica = {path: load_lexicon((REPO / path).read_text(encoding="utf-8"))
              for path in {path for run in runs for path, _ in run}}
    for run in runs:
        state = DiscourseState()
        for path, text in run:
            try:
                result = compose(parse_tree(text), lexica[path], state)
            except TysemError:
                continue
            state = result.state
            yield result.term


def test_normalize_matches_oracle_on_every_golden_sentence():
    terms = list(_golden_terms())
    assert len(terms) > 100
    assert sum(map(_assert_as_oracle, terms)) >= 50


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_normalize_matches_oracle_on_generated_terms(seed):
    gen = TermGen(seed)
    for _ in range(60):
        _assert_as_oracle(gen.random_term(8))


def test_type_substitution_matches_oracle_where_it_renames():
    a, a1, b = TypeVar("a"), TypeVar("a1"), TypeVar("b")
    inner = TyLam("a", TyLam("b", Lam("x", a, Var("x", a))))
    identity = TyLam("a", Lam("x", a, Var("x", a)))
    for term in (TyLam("b", TyApp(inner, b)),
                 TyLam("a", TyApp(TyLam("a1", identity), a)),
                 TyApp(TyLam("b", TyLam("a", Var("x", arrow(a1, a, b)))), a)):
        _assert_as_oracle(term)
    term = TyLam("a", Var("x", arrow(a1, a, b)))
    assert subst_type_in_term(term, "b", a) == \
        oracle.subst_type_in_term(term, "b", a)


F = Arrow(ANI, ANI)


def _open_term(rng: random.Random, ty, scope: dict, depth: int):
    """A simply typed term over ani and ani -> ani whose binders are all
    named x, y or x1, below free variables of those names: a redex's
    argument often mentions a name that a binder in its body rebinds, so
    substitution must rename to avoid capture, and x1, the first name it
    tries for x, is sometimes taken."""
    names = [v for v, t in scope.items() if t == ty]
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        if names and rng.random() < 0.7:
            return Var(rng.choice(names), ty)
        return Const("fido", ANI) if ty == ANI else Const("mere", F)
    name = rng.choice(("x", "y", "x1"))
    if roll < 0.5:
        a = rng.choice((ANI, F))
        body = _open_term(rng, ty, {**scope, name: a}, depth - 1)
        return App(Lam(name, a, body), _open_term(rng, a, scope, depth - 1))
    if roll < 0.6:  # the polymorphic identity, instantiated and applied
        ident = TyLam("a", Lam(name, TypeVar("a"), Var(name, TypeVar("a"))))
        return App(TyApp(ident, ty), _open_term(rng, ty, scope, depth - 1))
    if ty == F:
        return Lam(name, ANI, _open_term(rng, ANI, {**scope, name: ANI},
                                         depth - 1))
    return App(_open_term(rng, F, scope, depth - 1),
               _open_term(rng, ANI, scope, depth - 1))


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
def test_normalize_matches_oracle_where_substitution_renames(seed, depth):
    rng = random.Random(seed)
    free = {"x": ANI, "y": rng.choice((ANI, F)), "x1": rng.choice((ANI, F))}
    _assert_as_oracle(_open_term(rng, rng.choice((ANI, F)), free, depth))
