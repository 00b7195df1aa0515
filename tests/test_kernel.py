import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernel_oracle as oracle
from generators import TermGen, generator_context
from tysem import kernel
from tysem.errors import (StepBudgetExceeded, ParseError, TyLamEscape,
                          TypeClash, TysemError, UnboundName, UnknownSort)
from tysem.kernel import (App, Arrow, BaseSort, Const, E, Lam, Pi, T, TyApp,
                          TyLam, TypeVar, TypingContext, Var, alpha_eq, arrow,
                          canon, check_type, free_tyvars, free_vars,
                          is_normal, nodes, normalize, parse_term, print_term,
                          reduction_steps, subst_term, subst_type, type_of)

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
    assert subst_type(term, "b", a) == \
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
    assert subst_type(inner, "a1", a) == inner
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
    assert subst_type(poly, "a", ANI) is poly
    assert subst_type(poly, "b", ANI) is poly  # b is bound
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
    assert subst_type(term, "b", a) == \
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


# ---------------------------------------------------------------------------
# every walker gives the recursive oracle's results (`kernel_oracle`),
# keeping the same subterms as the very objects


def _outcome(fn, *args):
    """fn's result, or the class and text of the error it raised."""
    try:
        return fn(*args)
    except TysemError as err:
        return type(err), str(err)


def _kept(result, n) -> list[bool]:
    """For each node of result, annotations included, in pre-order,
    whether it is a node of n."""
    ids = {id(m) for m in kernel._WITH_TYPES.nodes(n)}
    return [id(m) in ids for m in kernel._WITH_TYPES.nodes(result)]


def _assert_same_subst(new, old, n):
    assert new == old
    assert _kept(new, n) == _kept(old, n)


def _bound_names(n, classes) -> list[str]:
    return sorted({_bound(m) for m in kernel._WITH_TYPES.nodes(n)
                   if type(m) in classes})


def _context_of(term) -> TypingContext:
    """A context that declares the term's constants, sorts and free
    variables as the term annotates them."""
    everything = list(kernel._WITH_TYPES.nodes(term))
    return TypingContext(
        sorts=kernel.BUILTIN_SORTS | {n.name for n in everything
                                      if type(n) is BaseSort},
        consts={**kernel.BUILTIN_CONSTANTS,
                **{n.name: n.type for n in everything if type(n) is Const}},
        vars=oracle.free_vars(term))


def _assert_walkers_as_oracle(term, ctx=None):
    assert list(free_vars(term).items()) == \
        list(oracle.free_vars(term).items())
    assert free_tyvars(term) == oracle.free_tyvars(term)
    assert print_term(term) == oracle.print_term(term)
    assert canon(term) == oracle.canon(term)
    assert is_normal(term) == oracle.is_normal(term)
    for lo in (True, False):
        assert kernel._find_redex(term, lo) == oracle._find_redex(term, lo)
    # well typed, and missing what the default context lacks
    for c in (ctx or _context_of(term), TypingContext.default()):
        assert _outcome(type_of, c, term) == _outcome(oracle.type_of, c, term)
    # each binder's body with its variable replaced by a name bound below
    # it, so that binders capture, or by a constant
    for n in nodes(term):
        if type(n) is Lam:
            repls = [Var(v, n.var_type) for v in _bound_names(n, (Lam,))]
            for repl in repls + [Const("k", n.var_type)]:
                _assert_same_subst(subst_term(n.body, n.var, repl),
                                   oracle.subst_term(n.body, n.var, repl),
                                   n.body)
        elif type(n) is TyLam:
            for v in _bound_names(n, (TyLam, Pi)) + ["b"]:
                _assert_same_subst(
                    subst_type(n.body, n.tyvar, TypeVar(v)),
                    oracle.subst_type_in_term(n.body, n.tyvar, TypeVar(v)),
                    n.body)
    for n in kernel._WITH_TYPES.nodes(term):
        if type(n) is Pi:
            for v in _bound_names(n, (Pi,)) + ["b"]:
                _assert_same_subst(subst_type(n.body, n.var, TypeVar(v)),
                                   oracle.subst_type(n.body, n.var,
                                                     TypeVar(v)), n.body)
        if type(n) is Lam or type(n) is TyApp:
            ty = n.var_type if type(n) is Lam else n.ty
            for c, tyvars in ((ctx or _context_of(term), {"a", "b"}),
                              (TypingContext.default(), frozenset())):
                assert _outcome(check_type, ty, c, tyvars) == \
                    _outcome(oracle.check_type, ty, c, tyvars)


def test_walkers_match_oracle_on_every_golden_term():
    terms = list(_golden_terms())
    assert len(terms) > 100
    for term in terms:
        _assert_walkers_as_oracle(term)
        for step in reduction_steps(term):
            _assert_walkers_as_oracle(step)


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_walkers_match_oracle_on_generated_terms(seed):
    gen, ctx = TermGen(seed), generator_context()
    for _ in range(60):
        _assert_walkers_as_oracle(gen.random_term(8), ctx)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
def test_walkers_match_oracle_where_binders_capture(seed, depth):
    rng = random.Random(seed)
    free = {"x": ANI, "y": rng.choice((ANI, F)), "x1": rng.choice((ANI, F))}
    term = _open_term(rng, rng.choice((ANI, F)), free, depth)
    ctx = _context_of(term)
    _assert_walkers_as_oracle(term, ctx)
    for step in reduction_steps(term):
        _assert_walkers_as_oracle(step, ctx)


def test_type_of_raises_what_the_oracle_raises_first():
    a, b = TypeVar("a"), TypeVar("b")
    p, x = Var("p", Arrow(a, T)), Var("x", a)
    ctx = (TypingContext.default().with_sorts({"ani"})
           .with_var("p", Arrow(a, T)).with_var("x", a))
    chat = Const("chat", Arrow(ANI, T))
    terms = [
        TyLam("a", App(p, x)),  # escape, p first
        TyLam("a", App(x, p)),  # escape, x first
        Lam("p", Arrow(b, T), TyLam("b", App(p, x))),  # escape under a lam
        TyLam("a", TyLam("a", App(p, x))),  # the outer one escapes first
        App(Lam("y", BaseSort("zebra"), Var("y", ANI)), x),  # unknown sort
        Lam("y", Arrow(b, T), Var("y", Arrow(b, T))),  # unbound type var
        App(App(chat, x), Var("ghost", ANI)),  # unbound before the clash
        App(chat, Var("ghost", ANI)),
        App(Var("x", ANI), x),  # annotation clash before anything else
        TyApp(chat, ANI),  # not a pi type
        TyApp(TyLam("a", x), BaseSort("zebra")),
        App(chat, App(chat, x)),  # argument clash inside, then outside
        TyLam("c", Lam("y", Pi("d", Arrow(TypeVar("c"), TypeVar("d"))),
                       Var("y", Pi("d", Arrow(TypeVar("c"),
                                               TypeVar("d")))))),  # typed
    ]
    for term in terms:
        assert _outcome(type_of, ctx, term) == \
            _outcome(oracle.type_of, ctx, term)
    raised = {_outcome(type_of, ctx, term)[0] for term in terms[:-1]}
    assert raised == {TyLamEscape, UnknownSort, UnboundName, TypeClash}


def test_type_substitution_renames_as_the_oracle_in_one_pass():
    """Renames within renames: each binder that captures is renamed as
    substituting again in its body would rename it."""
    a, a1, b = TypeVar("a"), TypeVar("a1"), TypeVar("b")
    inner = Pi("a1", Arrow(a, Arrow(a1, b)))  # a1 binds, a is free
    ty = Pi("a", Arrow(inner, Pi("a2", Arrow(a, Arrow(TypeVar("a2"), b)))))
    for repl in (a, a1, Arrow(a, a1), TypeVar("a2")):
        _assert_same_subst(subst_type(ty, "b", repl),
                           oracle.subst_type(ty, "b", repl), ty)
    x = Var("x", arrow(a1, a, b))
    for term in (TyLam("a", TyLam("a1", x)), TyLam("a", Lam("y", inner, x))):
        for repl in (a, Arrow(a, a1)):
            _assert_same_subst(subst_type(term, "b", repl),
                               oracle.subst_type_in_term(term, "b", repl),
                               term)


# ---------------------------------------------------------------------------
# deep nests, each walker at the default recursion limit; results are
# checked with loops, since `==`, `hash` and `repr` of such nests recurse

DEEP = 10_000
CHAT = Const("chat", Arrow(ANI, T))
AIME = Const("aime", arrow(ANI, ANI, T))


def _lams(n: int, names=None):
    """lam x0 .. lam x{n-1}. aime x0 y, y free, x{i} of sort ani."""
    term = App(App(AIME, Var("x0", ANI)), Var("y", ANI))
    for name in reversed(names or [f"x{i}" for i in range(n)]):
        term = Lam(name, ANI, term)
    return term


def _pis(n: int):
    """pi a0 .. pi a{n-1}. a0 -> b, b free."""
    ty = Arrow(TypeVar("a0"), TypeVar("b"))
    for i in reversed(range(n)):
        ty = Pi(f"a{i}", ty)
    return ty


def _tylams(n: int):
    """tylam a0 .. tylam a{n-1}. lam x (a0 -> b). x, b free."""
    ty = Arrow(TypeVar("a0"), TypeVar("b"))
    term = Lam("x", ty, Var("x", ty))
    for i in reversed(range(n)):
        term = TyLam(f"a{i}", term)
    return term


def _balanced_and(atoms):
    if len(atoms) == 1:
        return atoms[0]
    mid = len(atoms) // 2
    return App(App(Const("and", arrow(T, T, T)), _balanced_and(atoms[:mid])),
               _balanced_and(atoms[mid:]))


def _redex_chain(n: int):
    """((lam x1 .. (lam xn B)) a1 .. an), B a balanced conjunction of
    chat(xi): n beta redexes on one spine, as the benchmark builds them."""
    names = [f"x{i}" for i in range(1, n + 1)]
    term = _balanced_and([App(CHAT, Var(x, ANI)) for x in names])
    for x in reversed(names):
        term = Lam(x, ANI, term)
    for i in range(n):
        term = App(term, Const("fido" if i % 2 else "rex", ANI))
    return term


def _down(n, count: int):
    """The node `count` binders or arguments down a nest's spine."""
    for _ in range(count):
        n = n.fun if type(n) in (App, TyApp) else n.body
    return n


def _bound(binder) -> str:
    return binder.tyvar if type(binder) is TyLam else binder.var


def _binders(n) -> list:
    out = []
    while type(n) in (Lam, TyLam, Pi):
        out.append(n)
        n = n.body
    return out


def test_kernel_walkers_take_deep_nests():
    assert sys.getrecursionlimit() <= 1000
    ctx = TypingContext.default().with_sorts({"ani"}).with_const(
        "chat", CHAT.type).with_const("aime", AIME.type).with_const(
        "fido", ANI).with_const("rex", ANI).with_var("y", ANI)
    lams, pis, tylams = _lams(DEEP), _pis(DEEP), _tylams(DEEP)
    poly = Lam("f", pis, Var("f", pis))  # the pi type as an annotation
    chain = _redex_chain(1_600)

    # the free names, and the printed text
    assert free_vars(lams) == {"y": ANI}
    assert free_vars(chain) == free_vars(tylams) == free_vars(poly) == {}
    assert free_tyvars(lams) == free_tyvars(chain) == frozenset()
    assert free_tyvars(pis) == free_tyvars(tylams) == free_tyvars(poly) \
        == {"b"}
    text = print_term(lams)
    assert text.startswith("(lam x0 ani (lam x1 ani (lam x2 ani ")
    assert text.endswith(" (aime x0 y)" + ")" * DEEP)
    assert print_term(pis).startswith("(pi a0 (pi a1 ")
    assert print_term(tylams).count("(tylam ") == DEEP
    text = print_term(chain)
    assert text.startswith("((lam x1 ani (lam x2 ani ")
    assert text.endswith(" rex fido)") and text.count(" fido") == 800

    # str and repr of deep types, left and right arrow nests and a pi nest,
    # and repr of deep terms
    a, b = TypeVar("a"), TypeVar("b")
    right, left = arrow(*[a] * DEEP, b), b
    for _ in range(DEEP):
        left = Arrow(left, a)
    assert str(right) == " -> ".join(["a"] * DEEP + ["b"])
    assert str(left) == "(" * (DEEP - 1) + "b" + " -> a)" * (DEEP - 1) + \
        " -> a"
    assert str(pis) == "".join(f"pi a{i}. " for i in range(DEEP)) + "a0 -> b"
    tyvar = {v: f"TypeVar(name='{v}')" for v in ("a", "b", "a0")}
    assert repr(right) == f"Arrow(dom={tyvar['a']}, cod=" * DEEP + \
        tyvar["b"] + ")" * DEEP
    assert repr(left) == "Arrow(dom=" * DEEP + tyvar["b"] + \
        f", cod={tyvar['a']})" * DEEP
    assert repr(pis) == "".join(
        f"Pi(var='a{i}', body=" for i in range(DEEP)) + \
        f"Arrow(dom={tyvar['a0']}, cod={tyvar['b']})" + ")" * DEEP
    ani = "BaseSort(name='ani')"
    text = repr(lams)
    assert text.startswith(f"Lam(var='x0', var_type={ani}, body=Lam("
                           f"var='x1', var_type={ani}, body=")
    assert text.endswith(f"arg=Var(name='y', type={ani}))" + ")" * DEEP)
    assert text.count("Lam(") == DEEP
    text = repr(tylams)
    assert text.startswith("TyLam(tyvar='a0', body=TyLam(tyvar='a1', ")
    assert text.count("TyLam(") == DEEP and text.endswith(")" * (DEEP + 3))
    text = repr(chain)
    assert text.startswith("App(fun=" * 1_600 + "Lam(var='x1', ")
    assert text.count("Const(name='fido'") == 800

    # canonical names: a binder at depth d binds !v<d> or !a<d>
    for n, down in ((lams, 0), (pis, 0), (tylams, 0), (chain, 1_600)):
        binders = _binders(_down(n, down))
        assert [_bound(b) for b in _binders(_down(canon(n), down))] == [
            f"!{'v' if type(b) is Lam else 'a'}{d}"
            for d, b in enumerate(binders)]
    assert [_bound(b) for b in _binders(canon(poly).var_type)] == \
        [f"!a{d}" for d in range(DEEP)]
    body = _down(canon(lams), DEEP)
    assert body.fun.arg == Var("!v0", ANI) and body.arg == Var("y", ANI)
    assert _down(canon(pis), DEEP) == Arrow(TypeVar("!a0"), TypeVar("b"))

    # substitution, with a capture deep down each nest
    for term in (lams, chain, tylams, poly):
        assert subst_term(term, "z", Var("x1", ANI)) is term
        assert subst_type(term, "c", TypeVar("a1")) is term
    assert subst_type(pis, "c", TypeVar("a1")) is pis
    out = subst_term(lams, "y", Var("x5000", ANI))
    assert [b.var for b in _binders(out)] == \
        [f"x{i}" for i in range(5000)] + ["x1"] + \
        [f"x{i}" for i in range(5001, DEEP)]
    assert _down(out, DEEP).arg == Var("x5000", ANI)
    for n in (pis, tylams):
        out = subst_type(n, "b", TypeVar("a5000"))
        names = [_bound(b) for b in _binders(out)]
        assert names[4999:5002] == ["a4999", "a1", "a5001"]
        inner = _down(out, DEEP)
        ty = inner.var_type if type(inner) is Lam else inner
        assert ty == Arrow(TypeVar("a0"), TypeVar("a5000"))

    # checking: types, then terms
    check_type(pis, ctx, {"b"})
    with pytest.raises(UnboundName):
        check_type(pis, ctx)
    ty = type_of(ctx, lams)
    arrows = 0
    while type(ty) is Arrow:
        assert ty.dom == ANI
        ty, arrows = ty.cod, arrows + 1
    assert (arrows, ty) == (DEEP, T)
    assert type_of(ctx, chain) == T
    ty = type_of(ctx, TyLam("b", poly))
    assert ty.body.dom is pis and ty.body.cod is pis
    pi = type_of(ctx, TyLam("b", tylams))
    assert [b.var for b in _binders(pi)] == \
        ["b"] + [f"a{i}" for i in range(DEEP)]

    # redexes: none in a nest, one fired down the chain
    assert is_normal(lams) and is_normal(tylams) and is_normal(poly)
    assert not is_normal(chain)
    for lo in (True, False):
        assert kernel._find_redex(lams, lo) is None
        step = kernel._find_redex(chain, lo)
        assert type(_down(step, 1599)) is Lam
        assert _down(step, 1599).var == "x2"
    bottom = App(Lam("z", ANI, App(CHAT, Var("z", ANI))), Var("x0", ANI))
    for i in reversed(range(DEEP)):
        bottom = Lam(f"x{i}", ANI, bottom)
    for strategy in ("lo", "ri"):
        normal = normalize(bottom, strategy)
        assert [b.var for b in _binders(normal)] == \
            [f"x{i}" for i in range(DEEP)]
        assert _down(normal, DEEP) == App(CHAT, Var("x0", ANI))


def _best_in_turn(*fns, rounds: int = 11) -> list[float]:
    """The best time of each function over `rounds` rounds that run each
    once, in turn, so that a slow stretch of the machine falls on all of
    them alike."""
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_substitution_is_linear_in_nested_captures():
    """Substituting y for x under 1,000 nested binders of y renames every
    one of them in one pass: within 12x of an identity transform of the
    same nest (best of eleven runs each, the two timed in turn).  Renaming
    each binder and working out the free names of the bodies once cost
    about 8x; a second pass per capture, as the recursive substitutions
    made, about 1,000x."""
    term = App(CHAT, Var("x", ANI))
    ty = Arrow(TypeVar("x"), T)
    for _ in range(1_000):
        term = Lam("y", ANI, term)
        ty = Pi("y", ty)
    out = subst_term(term, "x", Var("y", ANI))
    assert {b.var for b in _binders(out)} == {"y1"}
    assert _down(out, 1_000).arg == Var("y", ANI)
    assert {b.var for b in _binders(subst_type(ty, "x", TypeVar("y")))} \
        == {"y1"}
    for walk, n, var, repl in (
            (kernel._TERMS, term, "x", Var("y", ANI)),
            (kernel._WITH_TYPES, ty, "x", TypeVar("y"))):
        subst = subst_term if walk is kernel._TERMS else subst_type
        renaming, identity = _best_in_turn(
            lambda: subst(n, var, repl),
            lambda: walk.transform(n, lambda m, e: None))
        assert renaming < 12 * identity, (renaming, identity)
