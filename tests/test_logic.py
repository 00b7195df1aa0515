import itertools
import json
import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from generators import FORMULA_CONSTANTS, FormulaGen, TermGen, \
    generator_context
from logic_oracle import old_presuppositions, old_repr
from tysem import node
from tysem.cli import (AnalysisOptions, _signature_of, analyze_session,
                       discourse_formula)
from tysem.composer import compose, parse_tree
from tysem.errors import (ExtractionError, NotNormal, NotTruthType,
                          ResidualLambda, TysemError)
from tysem.kernel import (App, Arrow, BaseSort, Const, Lam, T, TyApp,
                          TypingContext, Var, normalize, parse_term, type_of)
from tysem.lexicon import load_lexicon
from tysem.logic import (INDEF, UNIVERSAL, And, Eps, Eq, Exists, Forall,
                         Formula, Implies, LApp, LConst, LTerm, LVar, Not, Or,
                         Pred, TruthConst, _TREE, canon_formula, conjoin,
                         extract_formula, flatten_and, formula_to_json,
                         free_formula_vars, nodes, parse_formula,
                         presuppositions, print_formula, rewrite_hilbert)

ANI = BaseSort("ani")


def formula_alpha_eq(a: Formula, b: Formula) -> bool:
    return canon_formula(a) == canon_formula(b)


@pytest.fixture
def ctx():
    return (TypingContext.default()
            .with_sorts({"ani"})
            .with_const("chat", Arrow(ANI, T))
            .with_const("dort", Arrow(ANI, T))
            .with_const("p", T)
            .with_const("q", T))


# ---------------------------------------------------------------------------
# extraction


def test_extract_figure_one(fig1):
    ctx = fig1.typing_context()
    term = normalize(compose(parse_tree("((un club) (a_battu Leeds))"),
                             fig1).term)
    f = extract_formula(term, ctx)
    assert f == Exists("x", "e", And(
        Pred("club", (LVar("x", "e"),)),
        Pred("a_battu", (LVar("x", "e"), LConst("Leeds", "e")))))


def test_extract_choice_argument(chat_lex):
    ctx = chat_lex.typing_context()
    term = parse_term("(dort ((tyapp eps ani) chat))", ctx)
    f = extract_formula(term, ctx)
    assert f == Pred("dort", (Eps("indef", "ani", "x",
                                  Pred("chat", (LVar("x", "ani"),))),))


def test_extract_connective_constants(ctx):
    f = extract_formula(parse_term("(and p q)", ctx), ctx)
    assert f == And(Pred("p", ()), Pred("q", ()))


def test_extract_rejects_redex(ctx):
    term = parse_term("((lam x ani (chat x)) ((tyapp eps ani) chat))", ctx)
    with pytest.raises(NotNormal):
        extract_formula(term, ctx)


def test_extract_rejects_non_truth(ctx):
    with pytest.raises(NotTruthType):
        extract_formula(parse_term("chat", ctx), ctx)


def test_extract_rejects_residual_lambda(ctx):
    term = Lam("x", ANI, App(Const("chat", Arrow(ANI, T)), Var("x", ANI)))
    with pytest.raises((NotTruthType, ResidualLambda)):
        extract_formula(term, ctx)


def test_extract_rejects_predicate_variable(ctx):
    term = App(Var("P", Arrow(ANI, T)), Const("fido", ANI))
    with pytest.raises(ResidualLambda):
        extract_formula(term, ctx.with_var("P", Arrow(ANI, T))
                              .with_const("fido", ANI))


def test_extract_eta_reduced_quantifier(ctx):
    # exists applied to a bare predicate constant, not an abstraction
    f = extract_formula(parse_term("((tyapp exists ani) chat)", ctx), ctx)
    assert f == Exists("x", "ani", Pred("chat", (LVar("x", "ani"),)))


def test_extract_coerced_arguments(fig2):
    ctx = fig2.typing_context()
    term = parse_term(
        "(and (est_vaste (t3 Liverpool)) (a_vote (t2 Liverpool)))", ctx)
    f = extract_formula(term, ctx)
    assert f == And(
        Pred("est_vaste", (LApp("t3", (LConst("Liverpool", "T"),)),)),
        Pred("a_vote", (LApp("t2", (LConst("Liverpool", "T"),)),)))


# ---------------------------------------------------------------------------
# presuppositions


def test_presupposition_of_indefinite(chat_lex):
    ctx = chat_lex.typing_context()
    term = parse_term("(dort ((tyapp eps ani) chat))", ctx)
    ps = presuppositions(term)
    assert len(ps) == 1
    assert print_formula(ps[0]) == "chat(eps[ani](x. chat(x)))"


def test_presupposition_under_a_binder_types_in_the_lexicon_context(
        chat_lex):
    ctx = chat_lex.typing_context()
    ctx = ctx.with_const("voit", Arrow(ANI, Arrow(ANI, T)))
    term = parse_term(
        "((tyapp forall ani) (lam y ani (dort ((tyapp eps ani)"
        " (lam x ani (and (chat x) ((voit y) x)))))))", ctx)
    ps = presuppositions(term, ctx)
    assert ps == presuppositions(term)
    assert [print_formula(p) for p in ps] == [
        "chat(eps[ani](x. chat(x) & voit(y,x)))"
        " & voit(y,eps[ani](x. chat(x) & voit(y,x)))"]


def test_no_choice_no_presupposition(fig1):
    term = normalize(compose(parse_tree("((un club) (a_battu Leeds))"),
                             fig1).term)
    assert presuppositions(term) == []


def test_two_choice_terms_two_presuppositions(chat_lex):
    ctx = chat_lex.typing_context()
    ctx = ctx.with_const("voit", Arrow(ANI, Arrow(ANI, T)))
    term = parse_term(
        "((voit ((tyapp eps ani) chat)) ((tyapp eps ani) chien))", ctx)
    ps = presuppositions(term)
    assert len(ps) == 2
    texts = {print_formula(p) for p in ps}
    assert texts == {"chat(eps[ani](x. chat(x)))",
                     "chien(eps[ani](x. chien(x)))"}


def test_duplicate_presuppositions_emitted_once(chat_lex):
    ctx = chat_lex.typing_context()
    term = parse_term(
        "(and (dort ((tyapp eps ani) chat)) (aboie ((tyapp eps ani) chat)))",
        ctx)
    assert len(presuppositions(term)) == 1


def test_universal_has_no_presupposition(chat_lex):
    ctx = chat_lex.typing_context()
    term = parse_term("(dort ((tyapp tau ani) chat))", ctx)
    assert presuppositions(term) == []


def test_unresolved_definite_presupposes(chat_lex):
    ctx = chat_lex.typing_context()
    term = parse_term("(dort ((tyapp ieps ani) chat))", ctx)
    ps = presuppositions(term)
    assert len(ps) == 1
    assert print_formula(ps[0]) == "chat(the[ani](x. chat(x)))"


def test_presuppositions_of_nested_and_henkin_choice_terms(chat_lex):
    # a closed choice term with a nested one in its restriction, and a
    # Henkin choice term that depends on the universal above it
    ctx = chat_lex.typing_context()
    ctx = ctx.with_const("voit", Arrow(ANI, Arrow(ANI, T)))
    closed = ("((tyapp eps ani) (lam x ani (and (chat x)"
              " ((voit x) ((tyapp eps ani) chien)))))")
    term = parse_term(
        f"((tyapp forall ani) (lam y ani (and (dort {closed})"
        " (dort ((tyapp eps ani) (lam x ani (and (chat x) ((voit y) x))))))))",
        ctx)
    ps = presuppositions(term, ctx)
    assert ps == presuppositions(term)
    assert [print_formula(p) for p in ps] == [
        "chat(eps[ani](x. chat(x) & voit(x,eps[ani](x. chien(x)))))"
        " & voit(eps[ani](x. chat(x) & voit(x,eps[ani](x. chien(x)))),"
        "eps[ani](x. chien(x)))",
        "chien(eps[ani](x. chien(x)))",
        "chat(eps[ani](x. chat(x) & voit(y,x)))"
        " & voit(y,eps[ani](x. chat(x) & voit(y,x)))"]


def test_presupposition_renames_a_binder_that_would_capture(chat_lex):
    """The choice term has y free, so the y bound in its restriction is
    renamed where the term goes under it, as kernel substitution does."""
    ctx = chat_lex.typing_context()
    ctx = ctx.with_const("voit", Arrow(ANI, Arrow(ANI, T)))
    term = parse_term(
        "((tyapp forall ani) (lam y ani (dort ((tyapp eps ani) (lam x ani"
        " (and ((voit y) x) ((tyapp exists ani) (lam y ani ((voit x) y)))))))))",
        ctx)
    eps = "eps[ani](x. voit(y,x) & (exists y:ani. voit(x,y)))"
    ps = presuppositions(term, ctx)
    assert ps == presuppositions(extract_formula(term, ctx))
    assert ps == old_presuppositions(term, ctx)
    assert [print_formula(p) for p in ps] == [
        f"voit(y,{eps}) & (exists y1:ani. voit({eps},y1))"]


def test_presupposition_keeps_the_name_of_a_binder_read_off_a_constant(
        chat_lex):
    """`exists (voit x)` reads off as `exists y. voit(x,y)`, its variable
    picked against `voit x`.  The presupposition keeps y; the kernel route
    picked it again against `voit` of the choice term, and got x.  The two
    are alpha-equivalent."""
    ctx = chat_lex.typing_context()
    ctx = ctx.with_const("voit", Arrow(ANI, Arrow(ANI, T)))
    term = parse_term(
        "(dort ((tyapp eps ani) (lam x ani (and (chat x)"
        " ((tyapp exists ani) (voit x))))))", ctx)
    eps = "eps[ani](x. chat(x) & (exists y:ani. voit(x,y)))"
    (p,), (old,) = presuppositions(term), old_presuppositions(term)
    assert print_formula(p) == f"chat({eps}) & (exists y:ani. voit({eps},y))"
    assert print_formula(old) == \
        f"chat({eps}) & (exists x:ani. voit({eps},x))"
    assert formula_alpha_eq(p, old)


@given(st.integers(0, 2**32 - 1))
def test_presuppositions_match_the_kernel_route_on_random_terms(seed):
    """Normal type-t TermGen terms: reading the presuppositions off the
    formula gives the kernel route's, formula for formula."""
    ctx = generator_context()
    gen = TermGen(seed)
    for _ in range(20):
        term = gen.random_term(7)
        if type_of(ctx, term) != T:
            continue
        normal = normalize(term)
        try:
            f = extract_formula(normal, ctx)
        except ExtractionError:
            continue
        want = old_presuppositions(normal, ctx)
        assert presuppositions(f) == want
        assert presuppositions(normal, ctx) == want


# binders over three names, so that a choice term's restriction often
# binds again a name free in the term; every predicate read off is an
# abstraction or a closed constant, whose hole names both routes pick alike
_NAMES = ("x", "y", "z")
_CONSTS = generator_context().consts


def _const(name):
    return Const(name, _CONSTS[name])


def _abstraction(rng, env, depth):
    v = rng.choice(_NAMES)
    return Lam(v, ANI, _capture_prop(rng, env | {v}, depth))


def _capture_prop(rng, env, depth):
    """One or two conjuncts: quantifiers while depth lasts, else atoms."""
    parts = []
    for _ in range(rng.randint(1, 2)):
        if depth and rng.random() < 0.5:
            quantifier = _const(rng.choice(("exists", "forall")))
            parts.append(App(TyApp(quantifier, ANI),
                             _abstraction(rng, env, depth - 1)))
        elif rng.random() < 0.5:
            parts.append(App(App(_const("aime"), _capture_ent(rng, env, depth)),
                             _capture_ent(rng, env, depth)))
        else:
            parts.append(App(_const(rng.choice(("chat", "dort"))),
                             _capture_ent(rng, env, depth)))
    return reduce(lambda a, b: App(App(_const("and"), a), b), parts)


def _capture_ent(rng, env, depth):
    roll = rng.random()
    if depth and roll < 0.4:
        pred = (_const("chat") if roll < 0.05
                else _abstraction(rng, env, depth - 1))
        choice = _const(rng.choice(("eps", "ieps", "tau")))
        return App(TyApp(choice, ANI), pred)
    if env and roll < 0.95:
        return Var(rng.choice(sorted(env)), ANI)
    return _const(rng.choice(("fido", "rex")))


@given(st.randoms(use_true_random=False))
def test_presuppositions_match_the_kernel_route_where_binders_capture(rng):
    """Normal terms whose choice terms often sit under a binder of a name
    their restriction binds again: a binder that would capture is renamed
    as the kernel renames the abstraction."""
    ctx = generator_context()
    for _ in range(5):
        term = _capture_prop(rng, frozenset(), 4)
        assert presuppositions(extract_formula(term, ctx)) == \
            old_presuppositions(term, ctx)


def test_the_capture_terms_capture(monkeypatch):
    """The terms above do make presuppositions rename binders."""
    renamed, fresh_name = [], node.fresh_name

    def counted(*args):
        renamed.append(args)
        return fresh_name(*args)

    monkeypatch.setattr(node, "fresh_name", counted)
    ctx = generator_context()
    rng = random.Random(3)
    for _ in range(300):
        presuppositions(_capture_prop(rng, frozenset(), 4), ctx)
    assert len(renamed) >= 5


def _golden_sessions():
    """The analyze commands of the golden outputs over files in lexica/,
    as (lexicon, sentences): each tree alone, and each session."""
    from test_golden import (MISS_SESSIONS, fig2_tree_commands,
                             oneshot_commands, session_lines)
    out = {(c[2], c[4]) for c in oneshot_commands() + fig2_tree_commands()}
    out = [(lex, [tree]) for lex, tree in sorted(out)]
    out += [(f"lexica/{family}.lex", session_lines(family))
            for family in ("homme", "chat")]
    out += [(f"lexica/{name[:-4]}.lex", lines)
            for name, lines in MISS_SESSIONS.items()]
    return out


def test_presuppositions_match_the_kernel_route_on_shipped_lexica():
    lexica, checked = {}, 0
    for path, lines in _golden_sessions():
        if path not in lexica:
            with open(path, encoding="utf-8") as fh:
                lexica[path] = load_lexicon(fh.read())
        try:  # only sessions of one sentence fail
            results, _ = analyze_session(lexica[path], lines,
                                         AnalysisOptions())
        except TysemError:
            continue
        for r in results:
            assert r.presupposition_list == \
                old_presuppositions(r.normal, lexica[path].typing_context())
            checked += bool(r.presupposition_list)
    assert checked > 50


# indefinites, pronouns, definites that resolve and one that never matches
# its restriction, universals; `(est_entre (un homme))` and `(a_hurle il)`
# compose to distinct terms that share a choice term
SESSION_SENTENCES = {
    "homme": ("(est_entre (un homme))", "(a_hurle il)", "(a_hurle (le homme))",
              "(est_entre il)"),
    "chat": ("(dort (un chat))", "(aboie (le chien))", "(dort (le chat))",
             "(aboie (un chien))", "(dort (tout chat))",
             "(aboie (tout chien))"),
}


@pytest.mark.parametrize("family", ["homme", "chat"])
@pytest.mark.parametrize("mode", ["separate", "conjoin", "off"])
def test_session_presuppositions_match_fresh_calls(family, mode, homme_lex,
                                                   chat_lex):
    lex = homme_lex if family == "homme" else chat_lex
    ctx = lex.typing_context()
    first, *rest = SESSION_SENTENCES[family]
    rng = random.Random(9)
    options = AnalysisOptions(mode, rewrite=True)
    lines = [first] + [rng.choice((first, *rest)) for _ in range(60)]
    results, _ = analyze_session(lex, lines, options)
    for r in results:
        assert r.presupposition_list == old_presuppositions(r.normal, ctx)
    # the session keeps the first of each alpha-class of presuppositions,
    # found here by pairwise comparison instead of canon_formula keys
    parts = []
    if mode != "off":
        for r in results:
            for p in r.presupposition_list:
                if not any(formula_alpha_eq(p, q) for q in parts):
                    parts.append(p)
        assert len(parts) < sum(len(r.presupposition_list) for r in results)
    parts.extend(r.formula for r in results)
    assert discourse_formula(results, options) == \
        rewrite_hilbert(conjoin(parts))


# ---------------------------------------------------------------------------
# hilbert rewriting


def _eps_chat():
    return Eps("indef", "ani", "x", Pred("chat", (LVar("x", "ani"),)))


def test_rewrite_exact_pattern():
    f = Pred("chat", (_eps_chat(),))
    assert rewrite_hilbert(f) == \
        Exists("x", "ani", Pred("chat", (LVar("x", "ani"),)))


def test_rewrite_universal_pattern():
    e = Eps("universal", "ani", "x", Pred("dort", (LVar("x", "ani"),)))
    f = Pred("dort", (e,))
    assert rewrite_hilbert(f) == \
        Forall("x", "ani", Pred("dort", (LVar("x", "ani"),)))


def test_rewrite_mismatch_left_intact():
    f = Pred("dort", (_eps_chat(),))
    assert rewrite_hilbert(f) == f


def test_rewrite_conjoined_presupposition():
    e = _eps_chat()
    f = And(Pred("chat", (e,)), Pred("dort", (e,)))
    assert rewrite_hilbert(f) == Exists("x", "ani", And(
        Pred("chat", (LVar("x", "ani"),)),
        Pred("dort", (LVar("x", "ani"),))))


def test_rewrite_two_independent_choices():
    e1 = _eps_chat()
    e2 = Eps("indef", "ani", "y", Pred("chien", (LVar("y", "ani"),)))
    f = And(And(Pred("chat", (e1,)), Pred("chien", (e2,))),
            And(Pred("dort", (e1,)), Pred("court", (e2,))))
    out = rewrite_hilbert(f)
    assert isinstance(out, Exists)
    assert isinstance(out.body, Exists)
    assert "eps" not in print_formula(out)


def test_rewrite_definite_becomes_existential():
    e = Eps("def", "ani", "x", Pred("chat", (LVar("x", "ani"),)))
    f = Pred("chat", (e,))
    assert isinstance(rewrite_hilbert(f), Exists)


def test_rewrite_inside_connectives():
    f = Or(Pred("chat", (_eps_chat(),)), TruthConst(False))
    out = rewrite_hilbert(f)
    assert out == Or(Exists("x", "ani", Pred("chat", (LVar("x", "ani"),))),
                     TruthConst(False))


def test_rewrite_avoids_capture():
    # an outer quantifier already uses the hole name; the conjunct match
    # fires at the conjunction and must pick a fresh variable
    inner = Pred("chat", (_eps_chat(),))
    f = Exists("x", "ani", And(Pred("dort", (LVar("x", "ani"),)), inner))
    out = rewrite_hilbert(f)
    assert isinstance(out.body, Exists)
    fresh = out.body.var
    assert fresh != "x"
    assert out.body.body == And(Pred("dort", (LVar("x", "ani"),)),
                                Pred("chat", (LVar(fresh, "ani"),)))


# ---------------------------------------------------------------------------
# printing and parsing


def test_print_ascii_strings():
    f = Exists("x", "e", And(Pred("club", (LVar("x", "e"),)),
                             Pred("a_battu", (LVar("x", "e"),
                                              LConst("Leeds", "e")))))
    assert print_formula(f) == "exists x:e. (club(x) & a_battu(x,Leeds))"
    assert print_formula(Pred("chat", (_eps_chat(),))) == \
        "chat(eps[ani](x. chat(x)))"


def test_print_unicode():
    f = Forall("x", "ani", Not(Pred("chat", (LVar("x", "ani"),))))
    assert print_formula(f, "unicode") == "∀x:ani. ¬chat(x)"


def test_print_sexpr_interface():
    f = Exists("x", "ani", And(Pred("chat", (LVar("x", "ani"),)),
                               Pred("dort", (LVar("x", "ani"),))))
    assert print_formula(f, "sexpr") == \
        "(exists (x ani) (and (chat x) (dort x)))"


def test_precedence_minimal_parens():
    a, b, c = Pred("a", ()), Pred("b", ()), Pred("c", ())
    assert print_formula(Implies(And(a, b), c)) == "a & b -> c"
    assert print_formula(And(a, Or(b, c))) == "a & (b | c)"
    assert print_formula(Or(And(a, b), c)) == "a & b | c"
    assert print_formula(Not(And(a, b))) == "not (a & b)"
    assert print_formula(And(And(a, b), c)) == "a & b & c"
    assert print_formula(And(a, And(b, c))) == "a & (b & c)"
    assert print_formula(Implies(a, Implies(b, c))) == "a -> b -> c"


def test_parse_round_trip_simple():
    f = Exists("x", "ani", Implies(Pred("chat", (LVar("x", "ani"),)),
                                   Not(TruthConst(False))))
    assert parse_formula(print_formula(f, "sexpr")) == f
    # a function symbol with no arguments keeps its parentheses
    g = Pred("chat", (LApp("f", ()),))
    assert parse_formula(print_formula(g, "sexpr")) == g


def test_parse_eps_round_trip():
    f = Pred("dort", (_eps_chat(),))
    text = print_formula(f, "sexpr")
    assert text == "(dort (eps ani x (chat x)))"
    assert parse_formula(text) == f


def test_parse_with_constant_sorts():
    f = parse_formula("(chat fido)", constants={"fido": "ani"})
    assert f == Pred("chat", (LConst("fido", "ani"),))


def test_json_rendering():
    doc = formula_to_json(Pred("chat", (_eps_chat(),)))
    assert doc["node"] == "pred"
    assert doc["args"][0]["term"] == "choice"
    assert doc["args"][0]["mode"] == "indef"


def test_extraction_total_on_golden_sentences(fig1, fig2, chat_lex,
                                              homme_lex):
    """extract_formula after normalize succeeds on every sentence the
    golden lexica compose."""
    battery = [
        (fig1, "((un club) (a_battu Leeds))"),
        (fig2, "((et est_vaste a_vote) Liverpool)"),
        (fig2, "(est_vaste Liverpool)"),
        (fig2, "(a_vote Liverpool)"),
        (chat_lex, "(dort (un chat))"),
        (chat_lex, "(dort (le chat))"),
        (chat_lex, "(dort (tout chat))"),
        (chat_lex, "(aboie (un chien))"),
        (homme_lex, "(est_entre (un homme))"),
        (homme_lex, "(a_hurle (le homme))"),
    ]
    for lex, text in battery:
        term = normalize(compose(parse_tree(text), lex).term)
        extract_formula(term, lex.typing_context())


def test_conjoin_and_alpha_eq():
    f1 = Exists("x", "ani", Pred("chat", (LVar("x", "ani"),)))
    f2 = Exists("y", "ani", Pred("chat", (LVar("y", "ani"),)))
    assert formula_alpha_eq(f1, f2)
    assert conjoin([f1]) == f1
    assert conjoin([f1, f2]) == And(f1, f2)
    assert conjoin([]) == TruthConst(True)


# ---------------------------------------------------------------------------
# the traversal core

formulas = st.integers(0, 2 ** 32).map(
    lambda seed: FormulaGen(seed).random_formula(5))


def field_children(n) -> tuple:
    """The children of a node read off its fields."""
    out = []
    for name in type(n).__match_args__:
        value = getattr(n, name)
        if isinstance(value, tuple):
            out.extend(value)
        elif isinstance(value, (Formula, LTerm)):
            out.append(value)
    return tuple(out)


def field_preorder(n) -> list:
    return [n] + [m for k in field_children(n) for m in field_preorder(k)]


def rename_bound(f):
    """f with every bound variable renamed to a new name, written without
    the traversal core."""
    fresh = (f"r{i}" for i in itertools.count())

    def term(t, env):
        match t:
            case LVar(name, sort):
                return LVar(env.get(name, name), sort)
            case LApp(fn, args):
                return LApp(fn, tuple(term(a, env) for a in args))
            case Eps(mode, sort, hole, body):
                new = next(fresh)
                return Eps(mode, sort, new, form(body, {**env, hole: new}))
        return t

    def form(g, env):
        match g:
            case Pred(name, args):
                return Pred(name, tuple(term(a, env) for a in args))
            case Eq(l, r):
                return Eq(term(l, env), term(r, env))
            case And(l, r) | Or(l, r) | Implies(l, r):
                return type(g)(form(l, env), form(r, env))
            case Not(op):
                return Not(form(op, env))
            case Exists(var, sort, body) | Forall(var, sort, body):
                new = next(fresh)
                return type(g)(new, sort, form(body, {**env, var: new}))
        return g

    return term(f, {}) if isinstance(f, LTerm) else form(f, {})


@given(formulas)
def test_children_rebuild_and_nodes_agree_with_the_fields(f):
    seen = list(nodes(f))
    assert [id(n) for n in seen] == [id(n) for n in field_preorder(f)]
    children, rebuild = _TREE.children, _TREE.rebuild
    for n in seen:
        kids = children[type(n)](n)
        assert kids == field_children(n)
        if kids:
            assert rebuild[type(n)](n, *kids) == n
            marks = tuple(Pred(f"m{i}", ()) if isinstance(k, Formula)
                          else LConst(f"m{i}", "ani")
                          for i, k in enumerate(kids))
            new = rebuild[type(n)](n, *marks)
            assert children[type(n)](new) == marks
            assert type(new) is type(n)


@given(formulas)
def test_canon_formula_is_idempotent_and_alpha_invariant(f):
    assert canon_formula(canon_formula(f)) == canon_formula(f)
    binds = any(isinstance(n, (Exists, Forall, Eps)) for n in nodes(f))
    assert (rename_bound(f) != f) == binds
    for n in nodes(f):
        if isinstance(n, Formula):
            assert canon_formula(rename_bound(n)) == canon_formula(n)
        assert free_formula_vars(rename_bound(n)) == free_formula_vars(n)


_JSON_TAGS = {
    TruthConst: ("node", "truth"), Pred: ("node", "pred"),
    And: ("node", "and"), Or: ("node", "or"), Implies: ("node", "implies"),
    Not: ("node", "not"), Exists: ("node", "exists"),
    Forall: ("node", "forall"), Eq: ("node", "eq"), LVar: ("term", "var"),
    LConst: ("term", "const"), LApp: ("term", "app"),
    Eps: ("term", "choice"),
}


def field_json(n) -> dict:
    """formula_to_json's documented shape: a tag, then every field in
    order."""
    kind, tag = _JSON_TAGS[type(n)]
    out = {kind: tag}
    for name in type(n).__match_args__:
        value = getattr(n, name)
        if isinstance(value, tuple):
            value = [field_json(a) for a in value]
        elif isinstance(value, (Formula, LTerm)):
            value = field_json(value)
        out[name] = value
    return out


@given(formulas)
def test_printers_agree_with_the_parser_and_the_fields(f):
    assert parse_formula(print_formula(f, "sexpr"), FORMULA_CONSTANTS) == f
    assert json.dumps(formula_to_json(f)) == json.dumps(field_json(f))


@given(formulas)
def test_and_repr_is_the_generated_one(f):
    for g in (f, And(f, f), And(And(f, f), And(f, f)), conjoin([f] * 30)):
        assert repr(g) == old_repr(g)


def test_canon_formula_tells_apart_what_renaming_cannot_join():
    x, y = LVar("x", "ani"), LVar("y", "ani")
    f = Exists("x", "ani", Exists("y", "ani", Pred("aime", (x, y))))
    g = Exists("x", "ani", Exists("y", "ani", Pred("aime", (y, x))))
    assert canon_formula(f) != canon_formula(g)
    assert canon_formula(Pred("chat", (x,))) != canon_formula(
        Pred("chat", (y,)))


# ---------------------------------------------------------------------------
# stack safety: a discourse is one long left-nested conjunction

LONG = 5000


def long_discourse():
    """LONG conjuncts, each applying a predicate to a choice term."""
    preds, restrictions = ("P", "Q", "R"), ("P", "Q")
    modes = (INDEF, UNIVERSAL)
    parts = [(preds[i % 3], restrictions[i % 2], modes[i % 4 // 2])
             for i in range(LONG)]
    x = LVar("x", "s")
    f = conjoin(Pred(p, (Eps(m, "s", "x", Pred(r, (x,))),))
                for p, r, m in parts)
    return f, parts


def test_walkers_take_a_long_discourse():
    f, parts = long_discourse()
    assert flatten_and(canon_formula(f)) == [
        Pred(p, (Eps(m, "s", f"!q{i}", Pred(r, (LVar(f"!q{i}", "s"),))),))
        for i, (p, r, m) in enumerate(parts)]
    # `==` and `hash` on two whole discourses, built apart
    g, _ = long_discourse()
    assert f is not g and f == g and hash(f) == hash(g)
    assert f == And(f.left, f.right)  # a shared spine
    assert repr(f).startswith("And(left=" * (LONG - 1) + "Pred(name='P'")
    assert formula_alpha_eq(f, g)
    first, *rest = flatten_and(g)
    h = conjoin([Pred("S", first.args)] + rest)
    assert f != h and not formula_alpha_eq(f, h)
    assert f != conjoin(rest) and f != And(f, first)
    assert free_formula_vars(f) == set()
    doc, depth = formula_to_json(f), 0
    while doc["node"] == "and":
        doc, depth = doc["left"], depth + 1
    assert depth == LONG - 1
    heads = {INDEF: ("eps", "ε"), UNIVERSAL: ("tau", "τ")}
    for style, sep, i in (("ascii", " & ", 0), ("unicode", " ∧ ", 1)):
        assert print_formula(f, style) == sep.join(
            f"{p}({heads[m][i]}[s](x. {r}(x)))" for p, r, m in parts)
    sexpr = print_formula(f, "sexpr")
    assert sexpr.startswith("(and " * (LONG - 1) + "(P (eps s x (P x))) ")
    assert sexpr.endswith(") (Q (tau s x (Q x))))")
    rewritten = rewrite_hilbert(f)
    # the four choice terms, in order of occurrence, bind y, z, w and x
    assert print_formula(rewritten) == (
        "exists y:s. exists z:s. forall w:s. forall x:s. ("
        + " & ".join(f"{p}({'yzwx'[i % 4]})" for i, (p, _, _)
                     in enumerate(parts)) + ")")
    assert _signature_of(f, rewritten) == (
        ["s"], [("P", ("s",)), ("Q", ("s",)), ("R", ("s",))])


def test_printers_take_a_long_quantifier_prefix():
    """LONG nested quantifiers, as a many-referent rewrite builds them,
    print in a loop: no `RecursionError`, and the body is parenthesized
    once, at the bottom."""
    x = LVar("x0", "s")
    body = f = And(Pred("P", (x,)), Pred("Q", (x,)))
    for i in range(LONG):
        f = (Exists if i % 2 else Forall)(f"x{i}", "s", f)
    kinds = [("forall", "∀") if i % 2 == 0 else ("exists", "∃")
             for i in reversed(range(LONG))]
    names = [f"x{i}" for i in reversed(range(LONG))]
    assert print_formula(f) == "".join(
        f"{k} {v}:s. " for (k, _), v in zip(kinds, names)) + \
        f"({print_formula(body)})"
    assert print_formula(Not(f), "unicode") == "¬(" + "".join(
        f"{u}{v}:s. " for (_, u), v in zip(kinds, names)) + "(P(x0) ∧ Q(x0)))"
    assert print_formula(f, "sexpr") == "".join(
        f"({k} ({v} s) " for (k, _), v in zip(kinds, names)) + \
        "(and (P x0) (Q x0))" + ")" * LONG
