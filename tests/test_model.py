import pytest

from tysem.errors import EmptyCarrier, EvalError, ModelError, \
    UninterpretedConstant
from tysem.logic import (Eps, Eq, Exists, Forall, LApp, LConst, LVar,
                         Not, Pred, TruthConst, parse_formula)
from tysem.model import (InterpPredicate, Model, check_equivalence,
                         enumerate_models, eval_formula, extend_interp,
                         load_model, print_model, restrict_interp)


@pytest.fixture
def two_cats():
    return load_model("""
    (model
      (carrier ani (c1 c2))
      (interp chat ((c1)))
      (interp dort ((c1))))
    """)


# ---------------------------------------------------------------------------
# evaluation


def test_truth_constant(two_cats):
    assert eval_formula(two_cats, TruthConst(True)) is True


def test_choice_picks_first_witness(two_cats):
    f = parse_formula("(dort (eps ani x (chat x)))")
    assert eval_formula(two_cats, f) is True


def test_choice_fallback_when_empty_extension(two_cats):
    # nothing satisfies 'dort2'; the choice term falls back to c1
    m = Model(two_cats.carriers, {**two_cats.interps,
                                  "dort2": frozenset()})
    f = parse_formula("(dort2 (eps ani x (dort2 x)))")
    assert eval_formula(m, f) is False


def test_universal_choice_is_counterexample_semantics(two_cats):
    m = Model(two_cats.carriers, {**two_cats.interps,
                                  "dort": frozenset()})
    f = parse_formula("(dort (tau ani x (dort x)))")
    assert eval_formula(m, f) is False
    assert eval_formula(m, parse_formula("(forall (x ani) (dort x))")) \
        is False


def test_quantifiers(two_cats):
    assert eval_formula(two_cats, parse_formula("(exists (x ani) (chat x))"))
    assert not eval_formula(two_cats,
                            parse_formula("(forall (x ani) (chat x))"))


def test_salience_order_drives_choice():
    m1 = load_model("(model (carrier ani (c1 c2)) (interp chat ((c1) (c2)))"
                    " (interp dort ((c2))))")
    f = parse_formula("(dort (eps ani x (chat x)))")
    assert eval_formula(m1, f) is False  # c1 chosen, does not sleep
    m2 = load_model("(model (carrier ani (c2 c1)) (interp chat ((c1) (c2)))"
                    " (interp dort ((c2))))")
    assert eval_formula(m2, f) is True  # c2 now first


def test_individual_constants_and_functions():
    m = load_model("""
    (model
      (carrier T (town))
      (carrier P (people))
      (interp Liverpool ((town)))
      (interp t2 ((town people)))
      (interp a_vote ((people))))
    """)
    f = Pred("a_vote", (LApp("t2", (LConst("Liverpool", "T"),)),))
    assert eval_formula(m, f) is True


def test_eq(two_cats):
    f = Exists("x", "ani", Exists("y", "ani",
                                  Not(Eq(LVar("x", "ani"),
                                         LVar("y", "ani")))))
    assert eval_formula(two_cats, f) is True


def test_hat_predicate_is_membership():
    m = load_model("(model (carrier ani (c1)) (carrier obj (o1)))")
    f = Forall("x", "ani", Pred("hat_ani", (LVar("x", "ani"),)))
    assert eval_formula(m, f) is True
    g = Forall("x", "obj", Pred("hat_ani", (LVar("x", "obj"),)))
    assert eval_formula(m, g) is False
    h = Exists("x", "e", Pred("hat_ani", (LVar("x", "e"),)))
    assert eval_formula(m, h) is True


def test_uninterpreted_constant(two_cats):
    with pytest.raises(UninterpretedConstant) as err:
        eval_formula(two_cats, parse_formula("(ronfle (eps ani x (chat x)))"))
    assert err.value.name == "ronfle"


def test_henkin_dependency_rejected(two_cats):
    # the inner choice term mentions the quantified variable
    body = Pred("aime", (LVar("y", "ani"), LVar("x", "ani")))
    f = Forall("x", "ani",
               Pred("chat", (Eps("indef", "ani", "y", body),)))
    m = Model(two_cats.carriers,
              {**two_cats.interps, "aime": frozenset()})
    with pytest.raises(EvalError, match="Henkin"):
        eval_formula(m, f)


def test_union_carrier_keeps_first_occurrences_in_order():
    m = Model({"ani": ("c2", "c1"), "obj": ("o1", "c1"), "lieu": ("o1",)})
    assert m.carrier("e") == ("c2", "c1", "o1")


def test_empty_union_carrier():
    with pytest.raises((EmptyCarrier, ModelError)):
        eval_formula(Model({}, {}),
                     parse_formula("(exists (x e) (chat x))"))


# ---------------------------------------------------------------------------
# model files


def test_model_file_rejects_unknown_element():
    with pytest.raises(ModelError):
        load_model("(model (carrier ani (c1)) (interp chat ((zz))))")


def test_model_print_round_trip(two_cats):
    again = load_model(print_model(two_cats))
    assert again.carriers == two_cats.carriers
    assert again.interps == two_cats.interps


# ---------------------------------------------------------------------------
# equivalence checking


def test_choice_existential_equivalence():
    feps = parse_formula("(F (eps s x (F x)))")
    fex = parse_formula("(exists (x s) (F x))")
    verdict = check_equivalence(feps, fex, ["s"], 4, [("F", ("s",))])
    assert verdict.equivalent
    assert verdict.models_checked == 30  # 2 + 4 + 8 + 16


def test_universal_choice_equivalence():
    ftau = parse_formula("(F (tau s x (F x)))")
    fall = parse_formula("(forall (x s) (F x))")
    verdict = check_equivalence(ftau, fall, ["s"], 4, [("F", ("s",))])
    assert verdict.equivalent and verdict.models_checked == 30


def test_wrong_predicate_counter_model():
    fgeps = parse_formula("(G (eps s x (F x)))")
    fgex = parse_formula("(exists (x s) (G x))")
    verdict = check_equivalence(fgeps, fgex, ["s"], 4,
                                [("F", ("s",)), ("G", ("s",))])
    assert not verdict.equivalent
    m = verdict.counter_model
    assert eval_formula(m, fgeps) != eval_formula(m, fgex)


def test_epsilon_soundness_on_all_small_models():
    ex = Exists("x", "s", Pred("B", (LVar("x", "s"),)))
    wit = Pred("B", (Eps("indef", "s", "x",
                         Pred("B", (LVar("x", "s"),))),))
    for m in enumerate_models(["s"], 4, [("B", ("s",))]):
        if eval_formula(m, ex):
            assert eval_formula(m, wit)


def test_rewrite_preserves_truth_on_patterns():
    from tysem.logic import rewrite_hilbert
    patterns = [
        parse_formula("(F (eps s x (F x)))"),
        parse_formula("(F (tau s x (F x)))"),
        parse_formula("(G (eps s x (F x)))"),  # no rewrite fires
        parse_formula("(not (F (eps s x (F x))))"),
    ]
    for f in patterns:
        rewritten = rewrite_hilbert(f)
        for m in enumerate_models(["s"], 3,
                                  [("F", ("s",)), ("G", ("s",))]):
            assert eval_formula(m, f) == eval_formula(m, rewritten), \
                (f, print_model(m))


def test_combined_rewrite_is_referential_reading():
    """Conjoining the restriction before rewriting gives the classical
    existential; the choice-term original entails it on every model but is
    stronger (it picks a specific witness), so only one direction holds."""
    from tysem.logic import rewrite_hilbert
    f = parse_formula("(and (F (eps s x (F x))) (G (eps s x (F x))))")
    rewritten = rewrite_hilbert(f)
    assert rewritten == parse_formula(
        "(exists (x s) (and (F x) (G x)))")
    for m in enumerate_models(["s"], 3, [("F", ("s",)), ("G", ("s",))]):
        if eval_formula(m, f):
            assert eval_formula(m, rewritten)


# ---------------------------------------------------------------------------
# extension and restriction


@pytest.fixture
def three_elements():
    return Model(carriers={"e": ("a", "b", "c"), "ani": ("a", "b"),
                           "siamois": ("a",)})


def test_extend_then_restrict_recovers(three_elements):
    chat = InterpPredicate("chat", "ani", frozenset({"a", "b"}))
    back = restrict_interp(three_elements,
                           extend_interp(three_elements, chat, "e"), "ani")
    assert back.extension == chat.extension


def test_strict_restriction_not_recovered(three_elements):
    chat = InterpPredicate("chat", "ani", frozenset({"a", "b"}))
    narrowed = restrict_interp(three_elements, chat, "siamois")
    assert narrowed.extension == frozenset({"a"})
    back = restrict_interp(three_elements,
                           extend_interp(three_elements, narrowed, "e"),
                           "ani")
    assert back.extension != chat.extension


def test_restrict_to_satisfying_set_is_identity(three_elements):
    chat = InterpPredicate("chat", "ani", frozenset({"a"}))
    narrowed = restrict_interp(three_elements, chat, "siamois")
    assert narrowed.extension == chat.extension


def test_containment_violations(three_elements):
    chat = InterpPredicate("chat", "ani", frozenset({"a"}))
    with pytest.raises(ModelError):
        extend_interp(three_elements, chat, "siamois")
    with pytest.raises(ModelError):
        restrict_interp(three_elements, chat, "e")


def test_extend_never_changes_truth_on_original(three_elements):
    chat = InterpPredicate("chat", "ani", frozenset({"b"}))
    extended = extend_interp(three_elements, chat, "e")
    for el in three_elements.carrier("ani"):
        assert (el in extended.extension) == (el in chat.extension)
    for el in three_elements.carrier("e"):
        if el not in three_elements.carrier("ani"):
            assert el not in extended.extension
