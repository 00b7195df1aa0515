from pathlib import Path

import pytest

from tysem.composer import (CoercionReport, Leaf, Node, _apply_subst,
                            _Composer, _matches, compose, parse_tree,
                            print_tree)
from tysem.discourse import DiscourseState
from tysem.errors import (AmbiguousCoercion, NoCoercionPath, NotFound,
                          RigidityViolation, TypeClash, TysemError)
from tysem.kernel import (App, Arrow, BaseSort, Const, Pi, T, TyApp,
                          TypeVar, alpha_eq, normalize, parse_term,
                          print_term, type_of)
from tysem.lexicon import load_lexicon, lookup_entry

ANI = BaseSort("ani")
REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# trees


def test_parse_tree_binary():
    tree = parse_tree("(dort (un chat))")
    assert tree == Node(Leaf("dort"), Node(Leaf("un"), Leaf("chat")))


def test_parse_tree_left_associates():
    assert parse_tree("(et est_vaste a_vote)") == \
        parse_tree("((et est_vaste) a_vote)")


def test_print_tree_round_trip():
    text = "((et est_vaste) a_vote)"
    assert print_tree(parse_tree(text)) == text


def test_print_tree_and_repr_take_deep_trees():
    """10,000-deep trees, nested on either side, at the default recursion
    limit."""
    deep, left, right = 10_000, Leaf("a"), Leaf("a")
    for i in range(deep):
        left, right = Node(left, Leaf(f"w{i}")), Node(Leaf(f"w{i}"), right)
    assert print_tree(left) == "(" * deep + "a" + "".join(
        f" w{i})" for i in range(deep))
    assert print_tree(right) == "".join(
        f"(w{i} " for i in reversed(range(deep))) + "a" + ")" * deep
    leaf = "Leaf(word='{}')".format
    assert repr(left) == "Node(fun=" * deep + leaf("a") + "".join(
        f", arg={leaf(f'w{i}')})" for i in range(deep))
    assert repr(right) == "".join(
        f"Node(fun={leaf(f'w{i}')}, arg=" for i in reversed(range(deep))) + \
        leaf("a") + ")" * deep


# ---------------------------------------------------------------------------
# type instantiation: an argument's type matched against a domain under the
# function's leading Pi variables


def test_instantiation_choice_at_sort():
    choice = Pi("a", Arrow(Arrow(TypeVar("a"), T), TypeVar("a")))
    subst = _matches(choice.body.dom, Arrow(ANI, T), frozenset({"a"}), {})
    assert subst == {"a": ANI}


def test_instantiation_without_type_variables_binds_nothing():
    assert _matches(ANI, ANI, frozenset(), {}) == {}
    assert _matches(ANI, T, frozenset(), {}) is None


def test_instantiation_polymorphic_conjunction(fig2):
    conj = lookup_entry(fig2, "et").principal_type
    pl, p = BaseSort("Pl"), BaseSort("P")
    body = conj.body.body  # under the two leading Pis
    bindable = frozenset({"a", "b"})
    s1 = _matches(body.dom, Arrow(pl, T), bindable, {})
    assert s1 == {"a": pl}
    # continue matching the remaining type against the next arguments
    inner = _apply_subst(body.cod, s1)
    s2 = _matches(inner.dom, Arrow(p, T), bindable, s1)
    assert s2 == {"a": pl, "b": p}
    assert s1 == {"a": pl}  # a trial match leaves its input bindings alone


# ---------------------------------------------------------------------------
# coercion insertion


def test_a_coercion_is_applied_and_recorded(fig2):
    result = compose(parse_tree("(a_vote Liverpool)"), fig2)
    assert alpha_eq(result.term, parse_term("(a_vote (t2 Liverpool))",
                                            fig2.typing_context()))
    assert result.report.uses == {"Liverpool#2": [("t2", "flexible")]}


def _option(lex, word, label):
    return next(o for o in lookup_entry(lex, word).options
                if o.label == label)


def test_rigid_plus_other_is_violation(fig2):
    report = CoercionReport()
    report.record("o", "Liverpool", _option(fig2, "Liverpool", "t1"))
    with pytest.raises(RigidityViolation) as err:
        report.record("o", "Liverpool", _option(fig2, "Liverpool", "t2"))
    assert "t1" in err.value.rigid_labels
    assert err.value.word == "Liverpool"
    assert report.uses["o"] == [("t1", "rigid")]


def test_two_flexible_coercions_allowed(fig2):
    report = CoercionReport()
    for label in ("t2", "t3"):
        report.record("o", "Liverpool", _option(fig2, "Liverpool", label))
    assert [l for l, _ in report.uses["o"]] == ["t2", "t3"]


def test_ambiguous_coercion_rejected():
    lex = load_lexicon("""
    (sort T) (sort P)
    (const ville T)
    (entry "ville" (principal ville)
      (option u1 (-> T P) flexible)
      (option u2 (-> T P) flexible))
    (const grand (-> P t))
    (entry "grand" (principal grand))
    """)
    with pytest.raises(AmbiguousCoercion):
        compose(parse_tree("(grand ville)"), lex)


# ---------------------------------------------------------------------------
# whole-tree composition


def test_chat_derivation(chat_lex):
    result = compose(parse_tree("(dort (un chat))"), chat_lex)
    ctx = chat_lex.typing_context()
    assert result.type == T
    assert alpha_eq(result.term,
                    parse_term("(dort ((tyapp eps ani) chat))", ctx))
    assert type_of(ctx, result.term) == T


def test_copredication_flexible(fig2):
    result = compose(parse_tree("((et est_vaste a_vote) Liverpool)"), fig2)
    normal = normalize(result.term)
    expected = parse_term(
        "(and (est_vaste (t3 Liverpool)) (a_vote (t2 Liverpool)))",
        fig2.typing_context())
    assert alpha_eq(normal, expected)
    used = next(iter(result.report.uses.values()))
    assert {l for l, _ in used} == {"t3", "t2"}


def test_copredication_rigid_rejected(fig2):
    with pytest.raises(RigidityViolation) as err:
        compose(parse_tree("((et a_gagne a_vote) Liverpool)"), fig2)
    assert "t1" in err.value.rigid_labels


# The town of fig2 with two predicates, over the town and over its people;
# `{options}` are the town's coercions.
COPREDICATION = """
(sort T) (sort P)
(const Liverpool T)
(const est_jolie (-> T t))
(const a_vote (-> P t))
(entry "Liverpool" (principal Liverpool)
  {options})
(entry "est_jolie" (principal est_jolie))
(entry "a_vote" (principal a_vote))
(entry "et" (principal (tylam a (tylam b
  (lam p (-> a t) (lam q (-> b t)
    (tylam c (lam x c (lam f (-> c a) (lam g (-> c b)
      (and (p (f x)) (q (g x)))))))))))))
"""
ID_T = "(option Id_T (-> T T) flexible)"
T2 = "(option t2 (-> T P) flexible)"
T2B = "(option t2b (-> T P) flexible)"
IDENTITY_ASPECT_TREE = "((et est_jolie a_vote) Liverpool)"


def test_copredication_identity_aspect():
    # predicating directly over the town uses the declared identity option
    lex = load_lexicon(COPREDICATION.format(options=f"{ID_T} {T2}"))
    result = compose(parse_tree(IDENTITY_ASPECT_TREE), lex)
    normal = normalize(result.term)
    expected = parse_term(
        "(and (est_jolie (Id_T Liverpool)) (a_vote (t2 Liverpool)))",
        lex.typing_context())
    assert alpha_eq(normal, expected)


def test_copredication_without_the_identity_option_has_no_path():
    lex = load_lexicon(COPREDICATION.format(options=T2))
    with pytest.raises(NoCoercionPath) as err:
        compose(parse_tree(IDENTITY_ASPECT_TREE), lex)
    assert str(err.value) == \
        "no coercion from T to T in the entry for 'Liverpool'"


def test_copredication_with_two_options_to_one_aspect_is_ambiguous():
    lex = load_lexicon(COPREDICATION.format(options=f"{ID_T} {T2} {T2B}"))
    with pytest.raises(AmbiguousCoercion) as err:
        compose(parse_tree(IDENTITY_ASPECT_TREE), lex)
    assert str(err.value) == \
        "ambiguous coercion for 'Liverpool': candidates t2, t2b"


def test_selectional_restriction_diagnostic():
    lex = load_lexicon("""
    (sort ani) (sort furniture)
    (const aboie (-> ani t))
    (const chaise (-> furniture t))
    (entry "une" (principal eps) (mode indefinite))
    (entry "aboie" (principal aboie))
    (entry "chaise" (principal chaise))
    """)
    with pytest.raises(TypeClash) as err:
        compose(parse_tree("(aboie (une chaise))"), lex)
    assert err.value.fun_word == "aboie"
    assert err.value.arg_word == "chaise"
    assert err.value.expected == BaseSort("ani")
    assert err.value.found == BaseSort("furniture")


def test_unknown_leaf(chat_lex):
    with pytest.raises(NotFound):
        compose(parse_tree("(dort (un zzz))"), chat_lex)


def test_determinism(chat_lex):
    a = compose(parse_tree("(dort (un chat))"), chat_lex)
    b = compose(parse_tree("(dort (un chat))"), chat_lex)
    assert a.term == b.term
    assert a.report.uses == b.report.uses


def _skeleton(term, coercion_labels=frozenset()):
    """Application skeleton with type applications and auto-supplied
    coercion arguments stripped; leaves are the lexical terms."""
    match term:
        case App(fun, Const(name, _)) if name in coercion_labels:
            return _skeleton(fun, coercion_labels)
        case App(fun, arg):
            return (_skeleton(fun, coercion_labels),
                    _skeleton(arg, coercion_labels))
        case TyApp(fun, _):
            return _skeleton(fun, coercion_labels)
        case _:
            return term


def test_skeleton_alignment(chat_lex):
    """The composed term's application skeleton matches the tree
    node-for-node, with only type applications inserted; in particular the
    determiner applies to the noun, never to the verb phrase."""
    result = compose(parse_tree("(dort (un chat))"), chat_lex)
    dort = lookup_entry(chat_lex, "dort").principal
    un = lookup_entry(chat_lex, "un").principal
    chat = lookup_entry(chat_lex, "chat").principal
    assert _skeleton(result.term) == (dort, (un, chat))


def test_skeleton_alignment_copredication(fig2):
    result = compose(parse_tree("((et est_vaste a_vote) Liverpool)"), fig2)
    labels = frozenset(l for used in result.report.uses.values()
                       for l, _ in used)
    et = lookup_entry(fig2, "et").principal
    ev = lookup_entry(fig2, "est_vaste").principal
    av = lookup_entry(fig2, "a_vote").principal
    lv = lookup_entry(fig2, "Liverpool").principal
    assert _skeleton(result.term, labels) == (((et, ev), av), lv)


def test_rigid_coercion_alone_is_fine(fig2):
    result = compose(parse_tree("(a_gagne Liverpool)"), fig2)
    normal = normalize(result.term)
    expected = parse_term("(a_gagne (t1 Liverpool))", fig2.typing_context())
    assert alpha_eq(normal, expected)
    used = next(iter(result.report.uses.values()))
    assert used == [("t1", "rigid")]


def test_monomorphic_coercion_in_argument_position():
    lex = load_lexicon("""
    (sort T) (sort P)
    (const ville T)
    (const grand (-> P t))
    (entry "ville" (principal ville) (option v_p (-> T P) flexible))
    (entry "grand" (principal grand))
    """)
    result = compose(parse_tree("(grand ville)"), lex)
    assert alpha_eq(result.term,
                    parse_term("(grand (v_p ville))", lex.typing_context()))


def test_nary_predicate_coerces_each_argument():
    # both arguments of a binary predicate clash; each occurrence is
    # repaired independently, so even a rigid option may serve twice
    lex = load_lexicon("""
    (sort T) (sort P)
    (const ville T)
    (const rivalise (-> P (-> P t)))
    (entry "ville" (principal ville) (option v_p (-> T P) rigid))
    (entry "rivalise" (principal rivalise))
    """)
    result = compose(parse_tree("((rivalise ville) ville)"), lex)
    expected = parse_term("((rivalise (v_p ville)) (v_p ville))",
                          lex.typing_context())
    assert alpha_eq(result.term, expected)
    assert len(result.report.uses) == 2


def test_soundness_full_sentences(fig1, fig2, chat_lex):
    cases = [
        (fig1, "((un club) (a_battu Leeds))"),
        (fig2, "((et est_vaste a_vote) Liverpool)"),
        (chat_lex, "(dort (un chat))"),
        (chat_lex, "(dort (tout chat))"),
    ]
    for lex, text in cases:
        result = compose(parse_tree(text), lex)
        assert type_of(lex.typing_context(), result.term) == T


# A function whose first argument binds `a` and whose next domain is a Pi
# type that binds `a` again, which matches `eps`'s type as it stands.
SHADOWING = """
(sort T) (const Liverpool T) (const q t)
(entry "Liverpool" (principal Liverpool))
(entry "un" (principal eps) (mode indefinite))
(entry "f" (principal (tylam a (tylam b
  (lam x a (lam d (pi {v} (-> (-> {v} t) {v})) (lam y b q)))))))
"""


def test_a_pi_domain_hides_the_binding_of_its_own_variable():
    tree = parse_tree("(((f Liverpool) un) Liverpool)")
    result = compose(tree, load_lexicon(SHADOWING.format(v="a")))
    assert print_term(normalize(result.term)) == "q"
    # a Pi type matches only a Pi type with the same binder name, as the
    # kernel's `==` on types compares them
    with pytest.raises(TypeClash) as err:
        compose(tree, load_lexicon(SHADOWING.format(v="c")))
    assert str(err.value) == (
        "type clash: expected pi c. (c -> t) -> c, found pi a. (a -> t) -> a "
        "('f' applied to 'un')")


def _golden_trees():
    """Each lexicon and tree the golden commands analyze alone: the
    benchmark's one-shot trees, fig2's trees of two and three leaves, and
    the trees over the inline lexicon whose functions take Pi types."""
    from test_golden import (INLINE_LEXICA, fig2_tree_commands,
                             inline_lexicon_commands, oneshot_commands)

    pairs = dict.fromkeys((argv[2], argv[4]) for argv in
                          oneshot_commands() + fig2_tree_commands()
                          + inline_lexicon_commands())
    lexica = {path: load_lexicon(
        INLINE_LEXICA[path[1:]] if path.startswith("@") else
        (REPO / path).read_text(encoding="utf-8"))
        for path in {path for path, _ in pairs}}
    return [(lexica[path], text) for path, text in pairs]


def test_composer_types_match_the_kernel_on_every_golden_tree():
    """The type the composer works out for a composed tree is the kernel's
    type of its term, which the soundness guard in `compose` works out."""
    composed = 0
    for lex, text in _golden_trees():
        try:
            tree = parse_tree(text)
            result = compose(tree, lex)
        except TysemError:
            continue
        value = _Composer(lex, DiscourseState()).compose(tree)
        assert value.term == result.term
        assert value.type == type_of(lex.typing_context(), value.term), text
        composed += 1
    assert composed == 31  # (f g2) over the inline lexicon among them
