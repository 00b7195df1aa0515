import contextlib
import copy
import gc
import io
import json
import pickle
import random
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_sentence
import referents
from generators import TermGen
from session_oracle import fresh_session
from tysem import cli, discourse
from tysem.cli import (AnalysisOptions, _json_report, _sexpr_report,
                       _text_report, analyze_session, discourse_formula, main)
from tysem.composer import Leaf, Node, compose, parse_tree
from tysem.discourse import (DiscourseState, Referent, coercion_between,
                             index_key, register_referent, resolve_definite,
                             resolve_pronoun)
from tysem.errors import NoAntecedent, TysemError
from tysem.kernel import (App, Arrow, BaseSort, Const, Lam, TyApp, TyLam,
                          TypeVar, Var, alpha_eq, canon, parse_term)
from tysem.lexicon import load_lexicon
from tysem.logic import print_formula
from tysem.node import FrozenInstanceError

LEXICA = Path(__file__).resolve().parent.parent / "lexica"


def test_indefinite_registers_referent(chat_lex):
    result = compose(parse_tree("(dort (un chat))"), chat_lex)
    refs = result.state.referents
    assert len(refs) == 1
    assert refs[0].sort == "ani"
    assert alpha_eq(refs[0].term,
                    parse_term("((tyapp eps ani) chat)",
                               chat_lex.typing_context()))
    assert alpha_eq(refs[0].predicate,
                    parse_term("chat", chat_lex.typing_context()))


def test_registration_order_and_indices(chat_lex):
    state = DiscourseState()
    r1 = compose(parse_tree("(dort (un chat))"), chat_lex, state)
    r2 = compose(parse_tree("(aboie (un chien))"), chat_lex, r1.state)
    refs = r2.state.referents
    assert [r.index for r in refs] == [0, 1]
    assert [r.sort for r in refs] == ["ani", "ani"]


def test_duplicate_registration_is_by_token(chat_lex):
    state = DiscourseState()
    r1 = compose(parse_tree("(dort (un chat))"), chat_lex, state)
    r2 = compose(parse_tree("(dort (un chat))"), chat_lex, r1.state)
    assert len(r2.state.referents) == 2
    assert alpha_eq(r2.state.referents[0].term, r2.state.referents[1].term)


def test_resolve_definite_exact_match(chat_lex):
    r1 = compose(parse_tree("(dort (un chat))"), chat_lex)
    ctx = chat_lex.typing_context()
    ref = resolve_definite(r1.state, "ani", parse_term("chat", ctx))
    assert ref is r1.state.referents[0]


def test_resolve_definite_prefers_predicate_match_over_recency(chat_lex):
    ctx = chat_lex.typing_context()
    state = DiscourseState()
    r1 = compose(parse_tree("(dort (un chat))"), chat_lex, state)
    r2 = compose(parse_tree("(aboie (un chien))"), chat_lex, r1.state)
    ref = resolve_definite(r2.state, "ani", parse_term("chat", ctx))
    assert alpha_eq(ref.predicate, parse_term("chat", ctx))


def test_resolve_definite_sort_tier(chat_lex):
    ctx = chat_lex.typing_context()
    r1 = compose(parse_tree("(dort (un chien))"), chat_lex)
    # no chat referent: the most recent ani referent wins
    ref = resolve_definite(r1.state, "ani", parse_term("chat", ctx))
    assert alpha_eq(ref.predicate, parse_term("chien", ctx))


def test_resolve_definite_empty_state():
    assert resolve_definite(DiscourseState(), "ani", None) is None


def test_resolve_definite_coercion_tier():
    lex = load_lexicon("""
    (sort panth) (sort ani)
    (const panthere (-> panth t))
    (const animal (-> ani t))
    (const saute (-> panth t))
    (const dort (-> ani t))
    (entry "une" (principal eps) (mode indefinite))
    (entry "le" (principal ieps) (mode definite))
    (entry "panthere" (principal panthere)
      (option panth_ani (-> panth ani) flexible))
    (entry "animal" (principal animal))
    (entry "saute" (principal saute))
    (entry "dort" (principal dort))
    """)
    r1 = compose(parse_tree("(saute (une panthere))"), lex)
    # "l'animal" requests sort ani; the panth referent is one coercion away
    r2 = compose(parse_tree("(dort (le animal))"), lex, r1.state)
    # the antecedent's term, coerced into ani
    expected = parse_term("(panth_ani ((tyapp eps panth) panthere))",
                          lex.typing_context())
    assert alpha_eq(r2.term.arg, expected)
    assert len(r2.state.referents) == 1  # nothing new registered


def test_unresolved_definite_registers(chat_lex):
    r = compose(parse_tree("(dort (le chat))"), chat_lex)
    assert len(r.state.referents) == 1
    assert r.state.referents[0].term.fun.fun.name == "ieps"


def test_resolve_pronoun_copies_most_recent(homme_lex):
    r1 = compose(parse_tree("(est_entre (un homme))"), homme_lex)
    term = resolve_pronoun(r1.state, "humain")
    assert alpha_eq(term, r1.state.referents[0].term)


def test_resolve_pronoun_recency(chat_lex):
    state = DiscourseState()
    r1 = compose(parse_tree("(dort (un chat))"), chat_lex, state)
    r2 = compose(parse_tree("(aboie (un chien))"), chat_lex, r1.state)
    term = resolve_pronoun(r2.state, "ani")
    assert alpha_eq(term, r2.state.referents[1].term)  # the newer one


def test_resolve_pronoun_empty_state():
    with pytest.raises(NoAntecedent):
        resolve_pronoun(DiscourseState(), "ani")


def test_resolution_never_invents(homme_lex):
    r1 = compose(parse_tree("(est_entre (un homme))"), homme_lex)
    term = resolve_pronoun(r1.state)
    assert any(alpha_eq(term, ref.term) for ref in r1.state.referents)


def test_resolution_is_deterministic(chat_lex):
    r1 = compose(parse_tree("(dort (un chat))"), chat_lex)
    a = resolve_pronoun(r1.state, "ani")
    b = resolve_pronoun(r1.state, "ani")
    assert a == b


def test_register_referent_directly():
    from tysem.kernel import BaseSort, Const

    state = DiscourseState()
    term = Const("fido", BaseSort("ani"))
    state2 = register_referent(state, term, "ani", term, "x#1")
    assert len(state.referents) == 0  # original untouched
    assert len(state2.referents) == 1


# ---------------------------------------------------------------------------
# the indexed registry against a scan over every referent


def linear_resolve_definite(state, sort, predicate, lex=None):
    want = sort if isinstance(sort, str) else sort.name
    same_sort = [ref for ref in reversed(state.referents) if ref.sort == want]
    if same_sort:
        key = canon(predicate)
        return next((ref for ref in same_sort if ref.key == key),
                    same_sort[0])
    if lex is not None:
        for ref in reversed(state.referents):
            if coercion_between(lex, ref.sort, want) is not None:
                return ref
    return None


def linear_resolve_pronoun(state, requested_sort=None):
    for ref in reversed(state.referents):
        if requested_sort is None or ref.sort == requested_sort:
            return ref.term
    raise NoAntecedent("no referent" if requested_sort is None
                       else f"no referent of sort {requested_sort}")


# fig2's sorts and coercions (T reaches T, F, P and Pl), plus P reaching Pl
# and F, so the coercion tier can choose between referents of two sorts
REGISTRY_LEXICON = load_lexicon((LEXICA / "fig2.lex").read_text() + """
(const foule P)
(entry "foule" (principal foule)
  (option p_pl (-> P Pl) flexible)
  (option p_f (-> P F) flexible))
""")
SORTS = ("T", "Pl", "P", "F")
RESTRICTIONS = [parse_term(t, REGISTRY_LEXICON.typing_context()) for t in (
    "est_vaste", "(lam x Pl (est_vaste x))", "(lam y Pl (est_vaste y))",
    "a_vote", "(lam x P (a_vote x))", "a_gagne",
    "(lam x F (and (a_gagne x) (a_gagne x)))")]

registry_ops = st.lists(st.one_of(
    st.tuples(st.just("register"), st.sampled_from(SORTS),
              st.integers(0, len(RESTRICTIONS) - 1)),
    st.tuples(st.just("definite"), st.sampled_from(SORTS),
              st.integers(0, len(RESTRICTIONS) - 1), st.booleans()),
    st.tuples(st.just("pronoun"), st.sampled_from((None, *SORTS)))),
    max_size=40)


def _same_pronoun(state, sort):
    try:
        want = linear_resolve_pronoun(state, sort)
    except NoAntecedent as exc:
        with pytest.raises(NoAntecedent) as got:
            resolve_pronoun(state, sort)
        assert str(got.value) == str(exc)
    else:
        assert resolve_pronoun(state, sort) is want


@given(registry_ops)
def test_indexed_registry_matches_linear_scan(ops):
    state = DiscourseState()
    for op in ops:
        if op[0] == "register":
            _, sort, i = op
            term = Const(f"r{len(state.referents)}", BaseSort(sort))
            before = state
            state = register_referent(state, term, sort, RESTRICTIONS[i],
                                      f"un#{len(state.referents)}")
            assert before.referents == state.referents[:-1]
        elif op[0] == "definite":
            _, sort, i, with_lex = op
            lex = REGISTRY_LEXICON if with_lex else None
            assert resolve_definite(state, sort, RESTRICTIONS[i], lex) is \
                linear_resolve_definite(state, sort, RESTRICTIONS[i], lex)
        else:
            _same_pronoun(state, op[1])
    # every lookup, on the state and on one built from its referents alone
    for st_ in (state, DiscourseState(state.referents)):
        assert st_ == state
        for sort in (None, *SORTS):
            _same_pronoun(st_, sort)
        for sort in SORTS:
            for pred in RESTRICTIONS:
                for lex in (None, REGISTRY_LEXICON):
                    assert resolve_definite(st_, sort, pred, lex) is \
                        linear_resolve_definite(state, sort, pred, lex)


def test_coercion_tier_prefers_the_newest_reachable_sort():
    ctx = REGISTRY_LEXICON.typing_context()
    pred = parse_term("est_vaste", ctx)
    state = DiscourseState()
    for sort in ("T", "P", "F", "T"):
        state = register_referent(state, Const(f"r{len(state.referents)}",
                                               BaseSort(sort)),
                                  sort, pred, "un#1")
    # Pl is reached from T and from P: the newest of those referents wins
    assert resolve_definite(state, "Pl", pred, REGISTRY_LEXICON) is \
        state.referents[3]
    assert resolve_definite(state, "Pl", pred) is None
    state = register_referent(state, Const("r4", BaseSort("P")), "P", pred,
                              "un#1")
    assert resolve_definite(state, "Pl", pred, REGISTRY_LEXICON) is \
        state.referents[4]


def _registration_bytes(state):
    """Peak bytes allocated by one registration onto `state`."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        after = register_referent(state, Const("x", BaseSort("T")), "T",
                                  RESTRICTIONS[0], "un#1")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert after.referents[:-1] == state.referents
    return peak


def test_registration_does_not_grow_with_the_session():
    # A state shares its older referents with the state it extends; only
    # the index maps are copied, one entry per sort and per distinct
    # restriction.  Both sizes below index every (sort, restriction) pair.
    preds = [RESTRICTIONS[j] for j in (0, 3, 5)]  # constants: cheap keys
    keys = [canon(p) for p in preds]
    refs = tuple(Referent(i, Const(f"r{i}", BaseSort(SORTS[i % 4])),
                          SORTS[i % 4], preds[i % 3], f"un#{i}",
                          key=keys[i % 3])
                 for i in range(50_000))
    state = DiscourseState(refs)
    small = _registration_bytes(DiscourseState(refs[:12]))
    large = _registration_bytes(state)
    empty = _registration_bytes(DiscourseState())
    assert large < small + 512  # copying the referents would be 400 kB
    assert large < empty + 4096
    with pytest.raises(AttributeError):
        state.newest = {}


# ---------------------------------------------------------------------------
# the representation: a referent is a tuple that also links its state's chain


def _three_referents():
    state = DiscourseState()
    for i, sort in enumerate(("T", "P", "T")):
        state = register_referent(state, Const(f"r{i}", BaseSort(sort)), sort,
                                  RESTRICTIONS[i], f"un#{i + 1}")
    return state


FIELDS = ("index", "term", "sort", "predicate", "introduced_by", "key")


def test_referent_fields_equality_hash_and_repr():
    ref = _three_referents().referents[1]
    assert Referent.__match_args__ == FIELDS
    values = (1, Const("r1", BaseSort("P")), "P", RESTRICTIONS[1], "un#2",
              canon(RESTRICTIONS[1]))
    assert tuple(getattr(ref, f) for f in FIELDS) == values
    match ref:
        case Referent(index, term, sort=sort):
            assert (index, term, sort) == values[:3]
    # by its fields, not by the referents before it
    alone = Referent(*values)
    assert alone == ref and not alone != ref and hash(alone) == hash(ref)
    assert hash(ref) == hash(values)
    assert ref != Referent(2, *values[1:]) and ref != values
    assert repr(ref) == repr(alone) == (
        "Referent(" + ", ".join(f"{f}={v!r}" for f, v in zip(FIELDS, values))
        + ")")


def test_referent_and_state_are_frozen():
    state = _three_referents()
    ref = state.referents[0]
    for name in (*FIELDS, "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(ref, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(ref, name)
    for name in ("referents", "newest", "newest_by_key", "other"):
        with pytest.raises(AttributeError):
            setattr(state, name, ())


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])
def test_referent_and_state_copy_and_pickle(clone):
    state = _three_referents()
    again = clone(state)
    assert again == state and repr(again) == repr(state)
    assert [r.index for r in again.referents] == [0, 1, 2]
    assert list(again.newest) == ["P", "T"]
    assert again.newest_by_key == state.newest_by_key
    # the copy resolves to its own referents, which it registers onto
    assert resolve_definite(again, "T", RESTRICTIONS[0]) is \
        again.referents[0]
    more = register_referent(again, Const("r3", BaseSort("P")), "P",
                             RESTRICTIONS[1], "un#4")
    assert more.referents[:3] == state.referents
    for ref in state.referents:
        assert clone(ref) == ref and repr(clone(ref)) == repr(ref)


def test_referents_are_indexed_in_order_and_resolve_to_themselves():
    state = _three_referents()
    refs = state.referents
    assert [r.index for r in refs] == [0, 1, 2]
    assert list(state.newest_first()) == list(reversed(refs))
    assert resolve_definite(state, "T", RESTRICTIONS[0]) is refs[0]
    assert resolve_definite(state, "T", RESTRICTIONS[2]) is refs[2]
    assert resolve_definite(state, "P", RESTRICTIONS[0]) is refs[1]
    assert resolve_pronoun(state) is refs[2].term
    # a state built from referents of another state keeps them, in order
    rebuilt = DiscourseState(refs)
    assert all(a is b for a, b in zip(rebuilt.referents, refs))
    # and from referents linked elsewhere, equal ones linked in its order
    shuffled = DiscourseState((refs[2], refs[0]))
    assert shuffled.referents == (refs[2], refs[0])
    assert list(shuffled.newest_first()) == [refs[0], refs[2]]


# ---------------------------------------------------------------------------
# what a replayed sentence leaves for the cyclic garbage collector


@pytest.mark.parametrize("family", sorted(per_sentence.FAMILIES))
def test_a_replayed_sentence_leaves_one_object_per_registration(family):
    lex = load_lexicon(
        (per_sentence.REPO / per_sentence.FAMILIES[family][0]).read_text())
    lines = per_sentence.session_lines(random.Random(1), family, 2_000)
    options = AnalysisOptions(rewrite=True)

    def session(lines):
        """The tracked objects a session leaves, its analyses and state."""
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            results, state = analyze_session(lex, lines, options)
            return len(gc.get_objects()) - before, results, state
        finally:
            if enabled:
                gc.enable()

    session(lines)  # builds what the first session in a process builds
    # the first half composes each distinct line, and the second replays
    # every sentence: it composes no analysis the first half did not
    half_grown, half, _ = session(lines[:1_000])
    grown, results, state = session(lines)
    assert len(set(map(id, results))) == len(set(map(id, half)))
    registrations = sum(" (un " in line for line in lines)
    assert len(state.referents) == registrations == 1_000
    # in the second half, one object per referent, where a referent and
    # its link of the chain made two, and a few whatever the length
    grown -= half_grown
    registrations -= sum(" (un " in line for line in lines[:1_000])
    assert registrations <= grown <= registrations + 8


def _python_hash_and_eq_calls(argv) -> Counter:
    """The calls to a Python-level `__hash__` or `__eq__` that `cli.main`
    makes on argv."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("__hash__", "__eq__"):
            calls[frame.f_code.co_name] += 1

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            assert main(argv) == 0
        finally:
            sys.setprofile(None)
    return calls


@pytest.mark.parametrize("family", sorted(per_sentence.FAMILIES))
def test_a_replayed_sentence_hashes_and_compares_no_node(family, tmp_path):
    """A replayed sentence reads its tree's logs by its line, indexes and
    looks restrictions up by a string key, and gets the very choice term
    its log recorded: each sentence past the 40th of a 320-sentence
    session makes no call to a Python-level `__hash__` or `__eq__`."""
    lines = per_sentence.session_lines(random.Random(1), family, 320)
    runs = {}
    for n in (40, 320):
        path = tmp_path / f"{n}.session"
        path.write_text("".join(line + "\n" for line in lines[:n]))
        runs[n] = per_sentence.argv(family, path)
    # a first run builds what the first session in a process builds
    _python_hash_and_eq_calls(runs[40])
    calls = {n: _python_hash_and_eq_calls(argv) for n, argv in runs.items()}
    assert calls[40]["__hash__"] > 0 and calls[40]["__eq__"] > 0
    assert calls[320] == calls[40]


def test_a_session_hashes_no_tree_and_reads_a_sentence_twice_at_most(
        monkeypatch, tmp_path):
    """A session keys its compositions by line, so `main` hashes no tree.
    A sentence is replayed once, and composed once if the replay misses:
    its discourse reads are made at most once by the replay and once by
    the composition, on a `tests/referents.py` session where many
    sentences miss a line's stored logs."""
    n = 500
    lexicon, session = tmp_path / "referents.lex", tmp_path / "s.session"
    lexicon.write_text(referents.lexicon_text(referents.nouns(n)))
    lines = referents.session_lines(n)
    session.write_text("".join(line + "\n" for line in lines))
    hashes, reads = Counter(), Counter()
    made_by, composed = ["replay"], []  # composed: each fresh analysis

    def counted(owner, name, counter, key):
        fn = getattr(owner, name)

        def wrapper(*args):
            counter[key(args)] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for cls in (Leaf, Node):
        counted(cls, "__hash__", hashes, lambda args: type(args[0]).__name__)
    for name in ("resolve_pronoun", "resolve_definite"):
        counted(discourse, name, reads, lambda args: made_by[-1])
    analyze_tree = cli.analyze_tree

    def composing(*args):
        made_by.append("compose")
        try:
            r, state = analyze_tree(*args)
        finally:
            made_by.pop()
        composed.append(r)
        return r, state

    monkeypatch.setattr(cli, "analyze_tree", composing)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--lexicon", str(lexicon), "--session",
                     str(session), "--rewrite"]) == 0
    assert hashes == Counter()

    def reads_of(results):
        return sum(kind != "register" for r in results for kind, _, _ in r.log)

    monkeypatch.undo()
    fresh, _ = fresh_session(load_lexicon(lexicon.read_text()), lines,
                             AnalysisOptions(rewrite=True))
    assert 0 < reads["replay"] <= reads_of(fresh)
    assert reads["compose"] == reads_of(composed) > 0
    assert len(composed) > len(set(lines))  # lines whose stored logs miss


# ---------------------------------------------------------------------------
# the index key of a restriction


def _renamed(t):
    """t with each variable a `lam` binds renamed: a prime added."""
    def walk(t, bound):
        match t:
            case Var(name, ty) if name in bound:
                return Var(name + "'", ty)
            case Lam(var, ty, body):
                return Lam(var + "'", ty, walk(body, bound | {var}))
            case App(fun, arg):
                return App(walk(fun, bound), walk(arg, bound))
            case TyApp(fun, ty):
                return TyApp(walk(fun, bound), ty)
            case TyLam(var, body):
                return TyLam(var, walk(body, bound))
        return t
    return walk(t, frozenset())


def _key(sort, t):
    return index_key(sort, canon(t))


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_index_keys_are_equal_exactly_for_alpha_equivalent_restrictions(
        a, b):
    t, u = TermGen(a).random_term(6), TermGen(b).random_term(6)
    assert _key("ani", _renamed(t)) == _key("ani", t)
    assert (_key("ani", t) == _key("ani", u)) == alpha_eq(t, u)
    assert _key("ani", t) != _key("phys", t)


def test_index_keys_tell_variables_constants_and_annotations_apart():
    ani, phys, t = BaseSort("ani"), BaseSort("phys"), BaseSort("t")
    chat = Arrow(ani, t)
    body = App(Const("chat", chat), Var("x", ani))
    keys = [_key("ani", r) for r in (
        Lam("x", ani, body), Lam("y", ani, App(Const("chat", chat),
                                                Var("y", ani))),
        Lam("x", ani, App(Var("chat", chat), Var("x", ani))),
        Lam("x", phys, App(Const("chat", Arrow(phys, t)), Var("x", phys))),
        Lam("x", ani, App(Const("chat", Arrow(ani, TypeVar("t"))),
                          Var("x", ani))),
        Const("chat", chat), Var("chat", chat))]
    assert keys[0] == keys[1]  # bound names alone
    assert len(set(keys)) == len(keys) - 1
    # a sort's name and a key's text cannot run into each other
    assert index_key("a", Const("b", ani)) != index_key("a b", Const("b", ani))


# Sessions that mix definites resolved by restriction (`le chat` after `un
# chat`, `le minet` after `un matou`, alpha-equivalent restrictions), by
# sort (`le chien` after `un chat`) and through a coercion (`le animal`
# after `un panthere` alone), and pronouns of both sorts.
TIERS_LEXICON_TEXT = """
(sort panth) (sort ani)
(const panthere (-> panth t)) (const animal (-> ani t))
(const chat (-> ani t)) (const chien (-> ani t))
(const saute (-> panth t)) (const dort (-> ani t))
(entry "un" (principal eps) (mode indefinite))
(entry "le" (principal ieps) (mode definite))
(entry "panthere" (principal panthere)
  (option panth_ani (-> panth ani) flexible))
(entry "animal" (principal animal))
(entry "chat" (principal chat))
(entry "chien" (principal chien))
(entry "matou" (principal (lam x ani (chat x))))
(entry "minet" (principal (lam y ani (chat y))))
(entry "saute" (principal saute))
(entry "dort" (principal dort))
(pronoun "il" ani)
(pronoun "elle" panth)
"""
TIERS_LEXICON = load_lexicon(TIERS_LEXICON_TEXT)
TIERS_POOL = ("(dort (un chat))", "(dort (le chat))", "(dort (le chien))",
              "(saute (un panthere))", "(dort (le animal))",
              "(saute (le panthere))", "(dort (un matou))",
              "(dort (le minet))", "(dort (le matou))", "(dort il)",
              "(saute elle)")


def _fresh_run(texts, options, fmt) -> tuple[int, str, str]:
    """What `tysem analyze --session` writes for texts, each sentence
    composed afresh, with no store of compositions."""
    try:
        results, _ = fresh_session(TIERS_LEXICON, texts, options)
    except TysemError as exc:
        return 2, "", f"error: {exc}\n"
    if fmt == "json":
        doc = {"sentences": [_json_report(r, options) for r in results],
               "discourse": print_formula(discourse_formula(results, options),
                                          options.style)}
        return 0, json.dumps(doc, ensure_ascii=False, indent=2) + "\n", ""
    out = []
    for i, r in enumerate(results, 1):
        out.append(f"sentence {i}")
        (_sexpr_report if fmt == "sexpr" else _text_report)(r, options, out)
    style = "sexpr" if fmt == "sexpr" else options.style
    f = discourse_formula(results, options)
    out.append(f"discourse: {print_formula(f, style)}")
    return 0, "\n".join(out) + "\n", ""


@settings(max_examples=60)
@given(st.lists(st.sampled_from(TIERS_POOL), min_size=1, max_size=40),
       st.sampled_from(["separate", "conjoin", "off"]), st.booleans(),
       st.sampled_from(["ascii", "unicode"]),
       st.sampled_from(["text", "sexpr", "json"]))
def test_a_session_replayed_from_its_store_prints_as_composed_afresh(
        texts, mode, rewrite, style, fmt):
    options = AnalysisOptions(mode, rewrite, False, style)
    with tempfile.TemporaryDirectory() as work:
        lexicon, session = Path(work) / "tiers.lex", Path(work) / "s.session"
        lexicon.write_text(TIERS_LEXICON_TEXT)
        session.write_text("".join(text + "\n" for text in texts))
        argv = ["analyze", "--lexicon", str(lexicon), "--session",
                str(session), "--format", fmt, "--style", style,
                "--presuppositions", mode, *(["--rewrite"] if rewrite else [])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert (rc, out.getvalue(), err.getvalue()) == \
        _fresh_run(texts, options, fmt)
