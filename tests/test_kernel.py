import pytest

from tysem import kernel
from tysem.errors import (StepBudgetExceeded, ParseError, TyLamEscape,
                          TypeClash, UnboundName, UnknownSort)
from tysem.kernel import (App, Arrow, BaseSort, Const, E, Lam, Pi, T, TyApp,
                          TyLam, TypeVar, TypingContext, Var, alpha_eq,
                          free_vars, is_normal, nodes, normalize, parse_term,
                          print_term, reduction_steps, subst_term, type_of)

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
