import pytest

from tysem.errors import LexiconError, NotFound, UnknownSort
from tysem.kernel import Arrow, BaseSort, Const, E, T, alpha_eq
from tysem.lexicon import (Lexicon, load_lexicon, lookup_entry, print_lexicon,
                           type_to_predicate)


def test_empty_lexicon_has_builtins_only():
    lex = load_lexicon("")
    assert lex.entries == {}
    ctx = lex.typing_context()
    assert "eps" in ctx.consts and "t" in ctx.sorts


def test_figure_two_shape(fig2):
    assert set(fig2.entries) == {"Liverpool", "est_vaste", "a_vote",
                                 "a_gagne", "et"}
    liverpool = lookup_entry(fig2, "Liverpool")
    assert len(liverpool.options) == 4
    by_label = {o.label: o for o in liverpool.options}
    assert by_label["t1"].rigid
    assert not by_label["t2"].rigid
    assert not by_label["t3"].rigid
    assert not by_label["Id_T"].rigid
    assert by_label["t2"].target == BaseSort("P")
    # option constants become part of the signature
    assert fig2.constants["t3"] == Arrow(BaseSort("T"), BaseSort("Pl"))


def test_determiner_entries(chat_lex):
    un = lookup_entry(chat_lex, "un")
    assert un.determiner_mode == "indefinite"
    assert isinstance(un.principal, Const) and un.principal.name == "eps"
    le = lookup_entry(chat_lex, "le")
    assert le.determiner_mode == "definite"
    assert le.principal.name == "ieps"
    tout = lookup_entry(chat_lex, "tout")
    assert tout.determiner_mode == "universal"
    assert tout.principal.name == "tau"


def test_lookup_not_found(chat_lex):
    with pytest.raises(NotFound) as err:
        lookup_entry(chat_lex, "zzz")
    assert err.value.word == "zzz"


def test_mode_requires_choice_principal():
    text = """
    (entry "faux" (principal (lam x e x)) (mode indefinite))
    """
    with pytest.raises(LexiconError):
        load_lexicon(text)


def test_duplicate_word_rejected():
    with pytest.raises(LexiconError):
        load_lexicon('(const c e) (entry "a" (principal c)) '
                     '(entry "a" (principal c))')


def test_undeclared_sort_rejected():
    with pytest.raises(UnknownSort):
        load_lexicon("(const chat (-> zebra t))")


def test_ill_typed_principal_rejected():
    with pytest.raises(LexiconError) as err:
        load_lexicon('(sort ani) (const chat (-> ani t)) '
                     '(entry "x" (principal (chat chat)))')
    assert err.value.word == "x"


def test_option_source_must_match_referent_sort():
    text = """
    (sort T) (sort F)
    (const ville T)
    (entry "ville" (principal ville) (option t9 (-> F T) rigid))
    """
    with pytest.raises(LexiconError):
        load_lexicon(text)


def test_option_with_explicit_term():
    text = """
    (sort T) (sort P)
    (const ville T)
    (const habitants (-> T P))
    (entry "ville" (principal ville)
      (option hab (-> T P) flexible habitants))
    """
    lex = load_lexicon(text)
    option = lookup_entry(lex, "ville").options[0]
    assert option.term == Const("habitants", Arrow(BaseSort("T"),
                                                   BaseSort("P")))


def test_noun_referent_sort_is_domain(chat_lex):
    assert lookup_entry(chat_lex, "chat").referent_sort() == BaseSort("ani")


def lexicons_equal(a: Lexicon, b: Lexicon) -> bool:
    """Structural equality up to alpha-renaming inside terms."""
    if a.sorts != b.sorts or a.constants != b.constants:
        return False
    if set(a.entries) != set(b.entries) or a.pronouns != b.pronouns:
        return False
    for word, ea in a.entries.items():
        eb = b.entries[word]
        if (ea.determiner_mode != eb.determiner_mode
                or ea.principal_type != eb.principal_type
                or not alpha_eq(ea.principal, eb.principal)
                or len(ea.options) != len(eb.options)):
            return False
        for oa, ob in zip(ea.options, eb.options):
            if (oa.label != ob.label or oa.source != ob.source
                    or oa.target != ob.target or oa.rigidity != ob.rigidity
                    or not alpha_eq(oa.term, ob.term)):
                return False
    return True


def test_round_trip(fig2, chat_lex, homme_lex):
    for lex in (fig2, chat_lex, homme_lex):
        assert lexicons_equal(lex, load_lexicon(print_lexicon(lex)))


def test_golden_files_load(fig1, fig2, chat_lex, homme_lex):
    assert lookup_entry(fig1, "un").principal_type == \
        Arrow(Arrow(E, T), Arrow(Arrow(E, T), T))
    assert homme_lex.pronouns == {"il": "humain"}


def test_type_to_predicate(chat_lex):
    lex2, pred = type_to_predicate(chat_lex, "ani")
    assert pred == Const("hat_ani", Arrow(E, T))
    assert lex2.constants["hat_ani"] == Arrow(E, T)
    # idempotent: same constant, no growth
    lex3, pred2 = type_to_predicate(lex2, "ani")
    assert pred2 == pred
    assert lex3.constants == lex2.constants


def test_type_to_predicate_rejects_t(chat_lex):
    with pytest.raises(LexiconError):
        type_to_predicate(chat_lex, "t")


def test_type_to_predicate_unknown_sort(chat_lex):
    with pytest.raises(UnknownSort):
        type_to_predicate(chat_lex, "zebra")


def test_typing_context_is_built_once_and_sees_option_constants():
    lex = load_lexicon("""
    (sort T) (sort P)
    (const ville T)
    (const vote (-> P t))
    (entry "ville" (principal ville) (option hab (-> T P) flexible))
    (entry "vote_ville" (principal (vote (hab ville))))
    """)
    ctx = lex.typing_context()
    assert ctx is lex.typing_context()
    assert ctx.consts["hab"] == Arrow(BaseSort("T"), BaseSort("P"))
    lex2, _ = type_to_predicate(lex, "T")
    assert lex2.typing_context().consts["hat_T"] == Arrow(E, T)
    assert "hat_T" not in ctx.consts
