import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_sentence
import referents
from session_oracle import fresh_session
from tysem import cli, discourse
from tysem.cli import (AnalysisOptions, _json_report, _sexpr_report,
                       _text_report, analyze_session, analyze_tree,
                       discourse_formula, main)
from tysem.composer import Logs, compose, parse_tree, replay
from tysem.discourse import DiscourseState
from tysem.errors import TysemError
from tysem.kernel import reduction_steps
from tysem.lexicon import load_lexicon
from tysem.logic import parse_formula, print_formula

LEXICA = "lexica"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_figure_one(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon", f"{LEXICA}/fig1.lex",
                       "--tree", "((un club) (a_battu Leeds))", "--rewrite")
    assert code == 0
    assert out.splitlines()[-1] == \
        "formula: exists x:e. (club(x) & a_battu(x,Leeds))"


def test_analyze_copredication(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon", f"{LEXICA}/fig2.lex",
                       "--tree", "((et est_vaste a_vote) Liverpool)")
    assert code == 0
    assert "normal: (and (est_vaste (t3 Liverpool)) (a_vote (t2 Liverpool)))" \
        in out.splitlines()
    assert any(line.startswith("coercions: Liverpool#") for
               line in out.splitlines())


def test_analyze_rigidity_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "--lexicon", f"{LEXICA}/fig2.lex",
                       "--tree", "((et a_gagne a_vote) Liverpool)")
    assert code == 2
    assert "t1" in err


def test_analyze_type_clash_exit_code(capsys, tmp_path):
    lex = tmp_path / "mini.lex"
    lex.write_text("""
    (sort ani) (sort furniture)
    (const aboie (-> ani t))
    (const chaise (-> furniture t))
    (entry "une" (principal eps) (mode indefinite))
    (entry "aboie" (principal aboie))
    (entry "chaise" (principal chaise))
    """)
    code, _, err = run(capsys, "analyze", "--lexicon", str(lex),
                       "--tree", "(aboie (une chaise))")
    assert code == 2
    assert "aboie" in err and "chaise" in err


PI_DOMAIN_LEXICON = """
(sort T)
(const ville T)
(entry "ville" (principal ville))
(const f (-> (pi a (-> a a)) t))
(entry "f" (principal f))
(const h (pi c (-> (pi a (-> a a)) (-> c t))))
(entry "h" (principal h))
(entry "g" (principal (tylam b (lam x b x))))
"""


@pytest.mark.parametrize("tree", ["(f g)", "(h g)", "((h g) ville)"])
def test_pi_domain_meeting_an_alpha_variant_names_both_words(capsys,
                                                              tmp_path, tree):
    # binder names count when a Pi domain is matched, as in the kernel's
    # type equality; the clash is reported where the two words meet
    lex = tmp_path / "pi.lex"
    lex.write_text(PI_DOMAIN_LEXICON)
    code, out, err = run(capsys, "analyze", "--lexicon", str(lex),
                         "--tree", tree)
    fun = tree.strip("(").split()[0]
    assert (code, out, err) == (2, "", (
        "error: type clash: expected pi a. a -> a, found pi b. b -> b "
        f"('{fun}' applied to 'g')\n"))


@pytest.mark.parametrize("g, pending", [
    ("(pi a (pi b (-> (-> b t) (pi a (-> a t)))))", "a"),
    ("(pi a (pi a' (pi b (-> (-> b t) (pi a (-> a t))))))", "a, a'"),
])
def test_a_pi_variable_already_pending_is_renamed(capsys, tmp_path, g,
                                                  pending):
    # g's inner `pi a` meets the outer `a`, still undetermined: the composer
    # renames the inner one, priming it until the name is free
    lex = tmp_path / "clash.lex"
    lex.write_text(f"(sort T) (const c T) (const P (-> T t)) (const g {g})\n"
                   '(entry "c" (principal c)) (entry "P" (principal P))\n'
                   '(entry "g" (principal g))\n')
    code, out, err = run(capsys, "analyze", "--lexicon", str(lex),
                         "--tree", "((g P) c)")
    assert (code, out, err) == (2, "", (
        f"error: type variables {pending} of 'g' were never determined by "
        "any argument\n"))


def test_a_coercion_used_twice_on_one_occurrence_is_reported_once(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon", f"{LEXICA}/fig2.lex",
                       "--tree", "((et est_vaste est_vaste) Liverpool)")
    assert code == 0
    assert [line for line in out.splitlines()
            if line.startswith("coercions:")] == \
        ["coercions: Liverpool#4: t3 (flexible)"]


def test_analyze_io_error(capsys):
    code, _, err = run(capsys, "analyze", "--lexicon", "no-such-file.lex",
                       "--tree", "(a b)")
    assert code == 1


def test_files_that_are_not_utf8_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(b"(sort ani)\n\xff\n")
    for argv in (("analyze", "--lexicon", bad, "--tree", "(a b)"),
                 ("analyze", "--lexicon", f"{LEXICA}/chat.lex",
                  "--session", bad),
                 ("eval", "--model", bad, "--formula", "p"),
                 ("check-lexicon", bad)):
        code, _, err = run(capsys, *map(str, argv))
        assert code == 1
        assert err == f"error: {bad}: not UTF-8 text (invalid start byte " \
            "at byte 11)\n"


BOM = "\ufeff"  # a byte order mark
BOM_CASES = {  # a file, and a command reading it in place of `path`
    "lexicon": (f"{LEXICA}/chat.lex", lambda path: ("check-lexicon", path)),
    "model": ("models/chat.model", lambda path: (
        "eval", "--model", path, "--formula", "(dort (eps ani x (chat x)))")),
    "session": ("sessions/homme.session", lambda path: (
        "analyze", "--lexicon", f"{LEXICA}/homme.lex", "--session", path,
        "--rewrite")),
}


@pytest.mark.parametrize("kind", sorted(BOM_CASES))
def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path, monkeypatch,
                                              kind):
    source, argv = BOM_CASES[kind]
    text = Path(source).read_text(encoding="utf-8")
    plain = run(capsys, *argv(source))
    assert plain[0] == 0
    marked = tmp_path / "marked"
    marked.write_text(BOM + text, encoding="utf-8")
    assert run(capsys, *argv(str(marked))) == plain
    monkeypatch.setattr("sys.stdin", io.StringIO(BOM + text))
    assert run(capsys, *argv("-")) == plain
    # one mark is dropped: a second one is read as text, and fails
    marked.write_text(BOM + BOM + text, encoding="utf-8")
    assert run(capsys, *argv(str(marked)))[0] in (1, 2)


def test_analyze_syntax_error(capsys):
    code, _, err = run(capsys, "analyze", "--lexicon", f"{LEXICA}/chat.lex",
                       "--tree", "(dort (un chat")
    assert code == 1
    assert "parenthesis" in err


def test_analyze_presupposition_modes(capsys):
    base = ("analyze", "--lexicon", f"{LEXICA}/chat.lex",
            "--tree", "(dort (un chat))")
    _, out, _ = run(capsys, *base)
    assert "presupposition: chat(eps[ani](x. chat(x)))" in out
    assert out.splitlines()[-1] == \
        "formula: dort(eps[ani](x. chat(x)))"

    _, out, _ = run(capsys, *base, "--presuppositions", "conjoin",
                    "--rewrite")
    assert "presupposition:" not in out
    assert out.splitlines()[-1] == \
        "formula: exists x:ani. (chat(x) & dort(x))"

    _, out, _ = run(capsys, *base, "--presuppositions", "off")
    assert "presupposition" not in out


def test_analyze_trace(capsys):
    base = ("analyze", "--lexicon", f"{LEXICA}/fig1.lex",
            "--tree", "((un club) (a_battu Leeds))")
    _, plain, _ = run(capsys, *base)
    _, traced, _ = run(capsys, *base, "--trace")
    steps = [l for l in traced.splitlines() if l.startswith("step ")]
    assert steps, "trace must show reduction steps"
    assert traced.splitlines()[-1] == plain.splitlines()[-1]
    # the steps replay the reduction: the last step is the normal form
    normal_line = next(l for l in plain.splitlines()
                       if l.startswith("normal: "))
    assert steps[-1].split(": ", 1)[1] == normal_line.split(": ", 1)[1]


def test_analyze_deterministic_output(capsys):
    args = ("analyze", "--lexicon", f"{LEXICA}/fig2.lex",
            "--tree", "((et est_vaste a_vote) Liverpool)", "--rewrite")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_analyze_json_format(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon",
                       f"{LEXICA}/chat.lex", "--tree", "(dort (un chat))",
                       "--format", "json", "--rewrite",
                       "--presuppositions", "conjoin")
    assert code == 0
    doc = json.loads(out)
    sent = doc["sentences"][0]
    assert sent["formula"] == "exists x:ani. (chat(x) & dort(x))"
    assert sent["formula_json"]["node"] == "exists"


def test_analyze_sexpr_format(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon",
                       f"{LEXICA}/chat.lex", "--tree", "(dort (un chat))",
                       "--format", "sexpr")
    assert code == 0
    assert "(formula (dort (eps ani x (chat x))))" in out


def test_analyze_unicode_style(capsys):
    _, out, _ = run(capsys, "analyze", "--lexicon", f"{LEXICA}/chat.lex",
                    "--tree", "(dort (un chat))", "--style", "unicode",
                    "--presuppositions", "conjoin", "--rewrite")
    assert out.splitlines()[-1] == \
        "formula: ∃x:ani. (chat(x) ∧ dort(x))"


def test_session_mode(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon",
                       f"{LEXICA}/homme.lex", "--session",
                       "sessions/homme.session", "--rewrite")
    assert code == 0
    assert out.splitlines()[-1] == ("discourse: exists x:humain. "
                                    "(homme(x) & est_entre(x) & a_hurle(x))")


def test_lexicon_and_session_cannot_both_read_stdin(capsys, monkeypatch):
    stdin = io.StringIO(Path(f"{LEXICA}/homme.lex").read_text())
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "analyze", "--lexicon", "-",
                         "--session", "-")
    assert (code, out) == (1, "")
    assert err == ("error: --lexicon and --session cannot both read "
                   "standard input\n")
    assert stdin.tell() == 0  # rejected before anything was read
    code, out, _ = run(capsys, "analyze", "--lexicon", "-",
                       "--session", "sessions/homme.session", "--rewrite")
    assert code == 0
    assert out.splitlines()[-1] == ("discourse: exists x:humain. "
                                    "(homme(x) & est_entre(x) & a_hurle(x))")


# sessions longer than the recursion limit: one referent shared by every
# sentence, so the discourse is one existential over all the verbs
LONG_SESSIONS = {
    "homme": ("humain", "homme", ("est_entre", "a_hurle"), ("il",)),
    "chat": ("ani", "chat", ("dort", "aboie"), ("(le chien)", "(le chat)")),
}


@pytest.mark.parametrize("family, n", [("homme", 640), ("chat", 640),
                                       ("homme", 1400), ("chat", 5120)])
@pytest.mark.parametrize("fmt", ["text", "sexpr", "json"])
def test_long_session_rewrites_to_one_existential(capsys, tmp_path, family,
                                                  n, fmt):
    sort, noun, verbs, others = LONG_SESSIONS[family]
    args = [f"(un {noun})", *others]
    lines = [f"({verbs[i % 2]} {args[i % len(args)]})" for i in range(n)]
    session = tmp_path / f"{family}.session"
    session.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "analyze", "--lexicon",
                         f"{LEXICA}/{family}.lex", "--session", str(session),
                         "--rewrite", "--format", fmt)
    assert code == 0 and "Traceback" not in err
    used = [verbs[i % 2] for i in range(n)]
    if fmt == "sexpr":
        body = ("(and " * n + f"({noun} x)"
                + "".join(f" ({v} x))" for v in used))
        expected = f"discourse: (exists (x {sort}) {body})"
    else:
        body = " & ".join([f"{noun}(x)"] + [f"{v}(x)" for v in used])
        expected = f"discourse: exists x:{sort}. ({body})"
    if fmt == "json":
        doc = json.loads(out)
        assert len(doc["sentences"]) == n
        assert "discourse: " + doc["discourse"] == expected
    else:
        assert out.splitlines()[-1] == expected


# without presuppositions no sentence carries its choice term's restriction,
# so the rewrite fires nowhere and the discourse conjoins the assertions
@pytest.mark.parametrize("n", [640, 1400])
def test_long_session_without_presuppositions_rewrites_nothing(capsys,
                                                               tmp_path, n):
    sort, noun, verbs, others = LONG_SESSIONS["homme"]
    args = [f"(un {noun})", *others]
    lines = [f"({verbs[i % 2]} {args[i % len(args)]})" for i in range(n)]
    session = tmp_path / "homme.session"
    session.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "analyze", "--lexicon",
                         f"{LEXICA}/homme.lex", "--session", str(session),
                         "--rewrite", "--presuppositions", "off")
    assert code == 0 and "Traceback" not in err
    got = out.splitlines()
    formulas = [g[len("formula: "):] for g in got
                if g.startswith("formula: ")]
    assert len(formulas) == n
    assert formulas[0] == f"{verbs[0]}(eps[{sort}](x. {noun}(x)))"
    assert got[-1] == "discourse: " + " & ".join(formulas)


# ---------------------------------------------------------------------------
# the per-run store of compositions, replayed against each new state


# distinct verbs, indefinites, pronouns, definites that resolve, one that
# never matches its restriction (no chien is ever introduced), universals.
# The homme session opens with a definite that registers its own referent,
# so `il` and `le homme` compose to other terms once `un homme` came.
CACHE_SENTENCES = {
    "homme": ("(a_hurle (le homme))", "(est_entre (un homme))", "(a_hurle il)",
              "(est_entre il)", "(a_hurle (un homme))"),
    "chat": ("(dort (un chat))", "(aboie (le chien))", "(dort (le chat))",
             "(aboie (un chat))", "(dort (tout chat))",
             "(aboie (tout chien))"),
}


def _reports(r, options):
    text, sexpr = [], []
    _text_report(r, options, text)
    _sexpr_report(r, options, sexpr)
    return text, sexpr, _json_report(r, options)


@pytest.mark.parametrize("family", ["homme", "chat"])
@pytest.mark.parametrize("mode", ["separate", "conjoin", "off"])
@pytest.mark.parametrize("rewrite, trace", [(True, False), (False, True)])
def test_sentence_cache_matches_fresh_analysis(family, mode, rewrite, trace,
                                               homme_lex, chat_lex):
    lex = homme_lex if family == "homme" else chat_lex
    first, *rest = CACHE_SENTENCES[family]
    rng = random.Random(5)
    options = AnalysisOptions(mode, rewrite=rewrite, trace=trace)
    lines = [first] + [rng.choice((first, *rest)) for _ in range(60)]
    results, state = analyze_session(lex, lines, options)
    fresh, fresh_state = fresh_session(lex, lines, options)
    assert results == fresh  # every field but the printed lines
    assert state == fresh_state
    for shared, alone in zip(results, fresh):
        # print the shared analysis twice: the second report comes from
        # the stored analysis whichever sentence filled it
        assert _reports(shared, options) == _reports(alone, options)
        assert _reports(shared, options) == _reports(alone, options)
    # sentences were served by the analyses stored for their lines
    assert len(set(map(id, results))) < len(results)


PANTHER_LEXICON = """
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
"""


def test_sentence_cache_keeps_each_sentences_tree_and_coercions(capsys,
                                                                tmp_path):
    # sentences 2 to 4 compose to one term, with the coercion recorded at
    # the definite (through the discourse) or at the noun
    lex = tmp_path / "panth.lex"
    lex.write_text(PANTHER_LEXICON)
    session = tmp_path / "s.session"
    trees = ["(saute (une panthere))", "(dort (le animal))",
             "(dort (une panthere))", "(dort (le animal))"]
    session.write_text("\n".join(trees) + "\n")
    argv = ("analyze", "--lexicon", str(lex), "--session", str(session))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert [l for l in lines if l.startswith("tree: ")] == \
        [f"tree: {t}" for t in trees]
    assert [l for l in lines if l.startswith("coercions: ")] == [
        "coercions: le#2: panth_ani (flexible)",
        "coercions: panthere#3: panth_ani (flexible)",
        "coercions: le#2: panth_ani (flexible)"]
    assert lines[lines.index("sentence 3") + 2:][:3] == [
        "term: (dort (panth_ani ((tyapp eps panth) panthere)))",
        "normal: (dort (panth_ani ((tyapp eps panth) panthere)))",
        "coercions: panthere#3: panth_ani (flexible)"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    sentences = json.loads(out)["sentences"]
    assert list(sentences[2]) == ["tree", "term", "normal", "steps",
                                  "coercions", "presuppositions", "formula",
                                  "formula_json"]
    assert [s["tree"] for s in sentences] == trees
    assert [s["coercions"] for s in sentences] == [
        {}, {"le#2": [["panth_ani", "flexible"]]},
        {"panthere#3": [["panth_ani", "flexible"]]},
        {"le#2": [["panth_ani", "flexible"]]}]
    assert len({json.dumps({**s, "tree": 0, "coercions": 0})
                for s in sentences[1:]}) == 1


# Replay against fresh composition, which stays the oracle: sentence pools
# with indefinites, pronouns, definites that resolve by restriction, by sort
# (`le chien` after `un chat`) or through a coercion (`le animal` after
# `une panthere`), universals, and sentences that fail: a pronoun with no
# antecedent, a sort clash, a rigid coercion used twice, an unknown word.
REPLAY_LEXICON = PANTHER_LEXICON + """
(entry "un" (principal eps) (mode indefinite))
(entry "tout" (principal tau) (mode universal))
(pronoun "elle" ani)
"""
REPLAY_POOLS = {
    "chat.lex": ("(dort (un chat))", "(aboie (le chien))", "(dort (le chat))",
                 "(aboie (un chien))", "(dort (tout chat))",
                 "(aboie (le chat))", "(dort (un zzz))"),
    "homme.lex": ("(a_hurle (le homme))", "(est_entre (un homme))",
                  "(a_hurle il)", "(est_entre il)", "(a_hurle (un homme))"),
    "panth": ("(saute (une panthere))", "(dort (le animal))",
              "(dort (une panthere))", "(saute (le panthere))",
              "(dort elle)", "(dort (un animal))", "(saute (le animal))",
              "(dort (tout animal))", "(saute elle)"),
    "fig2.lex": ("((et est_vaste a_vote) Liverpool)",
                 "((et a_gagne a_vote) Liverpool)", "(a_vote Liverpool)"),
}
REPLAY_LEXICA = {name: load_lexicon(REPLAY_LEXICON if name == "panth" else
                                    (Path(LEXICA) / name).read_text())
                 for name in REPLAY_POOLS}


def _outcome(session, lex, lines, options):
    """The analyses, the final state and each analysis's three reports, or
    the exception class and message."""
    try:
        results, state = session(lex, lines, options)
    except TysemError as exc:
        return type(exc), str(exc)
    return results, state, [_reports(r, options) for r in results]


@given(st.sampled_from(sorted(REPLAY_POOLS)), st.data(),
       st.sampled_from(["separate", "conjoin", "off"]), st.booleans(),
       st.booleans(), st.sampled_from(["ascii", "unicode"]))
def test_replay_matches_fresh_composition(family, data, mode, rewrite,
                                          trace, style):
    lex = REPLAY_LEXICA[family]
    texts = data.draw(st.lists(st.sampled_from(REPLAY_POOLS[family]),
                               min_size=1, max_size=30))
    options = AnalysisOptions(mode, rewrite, trace, style)
    # a session of the sentences that composed so far and one that fails
    # raises as it does composed afresh
    kept = []  # the sentences that compose
    for text in texts:
        fresh = _outcome(fresh_session, lex, kept + [text], options)
        if len(fresh) == 2:
            assert _outcome(analyze_session, lex, kept + [text],
                            options) == fresh
        else:
            kept.append(text)
    # every AnalysisResult field, the three reports and the final state
    shared = _outcome(analyze_session, lex, kept, options)
    fresh = _outcome(fresh_session, lex, kept, options)
    assert shared == fresh
    if kept:
        assert discourse_formula(shared[0], options) == \
            discourse_formula(fresh[0], options)
    # each line's stored compositions against states that extend the one
    # its last stored composition left: that state, composed afresh, and
    # the session's last.  A replay that answers yields what composing
    # afresh there does
    stored, state = {}, DiscourseState()
    for text, r in zip(kept, shared[0]):
        state = analyze_tree(lex, parse_tree(text), state, options)[1]
        logs = stored.setdefault(text, [Logs(), None])
        if all(r is not seen for _, seen in logs[0]):
            logs[0].add(r.log, r)
            logs[1] = state
    for text, (logs, left) in stored.items():
        for state in (left, shared[1]):
            tree, replayed = parse_tree(text), []
            after, missed = replay([(tree, logs)], state, lex, replayed)
            if missed is None:
                alone, fresh_after = analyze_tree(lex, tree, state, options)
                assert (replayed[0], after) == (alone, fresh_after)
                assert _reports(replayed[0], options) == \
                    _reports(alone, options)
            else:
                assert replayed == [] and missed[1] is logs


def _state_fields(state):
    """All a state holds, keys included (referents compare without them):
    the referents in order, and both index maps in their order."""
    return ([(r, r.key) for r in state.referents],
            [(sort, r, r.key) for sort, r in state.newest.items()],
            [(k, r, r.key) for k, r in state.newest_by_key.items()])


# restrictions that are abstractions, whose key is not the restriction
LAMBDA_LEXICON = (Path(LEXICA) / "chat.lex").read_text() + """
(entry "matou" (principal (lam x ani (chat x))))
(entry "dormeur" (principal (lam y ani (dort y))))
"""
STATE_POOLS = {**REPLAY_POOLS, "lambda": (
    "(dort (un matou))", "(aboie (le matou))", "(dort (le dormeur))",
    "(aboie (un dormeur))", "(dort (le chat))", "(aboie (un chat))")}
STATE_LEXICA = {**REPLAY_LEXICA, "lambda": load_lexicon(LAMBDA_LEXICON)}


@pytest.mark.parametrize("family", sorted(STATE_POOLS))
@settings(max_examples=40)
@given(st.data())
def test_replayed_state_matches_fresh_state(family, data):
    lex = STATE_LEXICA[family]
    texts = data.draw(st.lists(st.sampled_from(STATE_POOLS[family]),
                               min_size=1, max_size=30))
    state, kept = DiscourseState(), []
    for text in texts:
        try:
            fresh = compose(parse_tree(text), lex, state).state
        except TysemError:
            continue  # the session raises the same
        kept.append(text)
        _, after = analyze_session(lex, kept, AnalysisOptions())
        assert _state_fields(after) == _state_fields(fresh)
        # and a state built from the referents alone
        assert _state_fields(DiscourseState(after.referents)) == \
            _state_fields(after)
        state = fresh


def test_per_sentence_times_the_benchmark_sessions(monkeypatch):
    # tests/per_sentence.py draws its sessions as the benchmark does
    monkeypatch.syspath_prepend(str(per_sentence.REPO / "perfbench"))
    import workloads
    for family, (lexicon, noun, verbs, others) in \
            per_sentence.FAMILIES.items():
        assert workloads.FAMILIES[family] == (
            lexicon, workloads.FAMILIES[family][1], noun, verbs, others)
        for n in (0, 1, 2, 40, 320):
            assert per_sentence.session_lines(random.Random(n), family, n) \
                == workloads.session_lines(random.Random(n), family, n)
    assert sorted(per_sentence.measure(1, 1)) == ["chat", "homme"]


def test_sentence_cache_lives_for_one_run(tmp_path):
    session = tmp_path / "s.session"
    session.write_text("(dort (un chat))\n(aboie (le chat))\n"
                       "(dort (un chat))\n")
    # the same words over another sort, and a lexicon whose indefinite is
    # universal: each composes the session to other terms
    chat = (Path(LEXICA) / "chat.lex").read_text()
    animal = tmp_path / "animal.lex"
    animal.write_text(chat.replace("ani", "animal"))
    tout = tmp_path / "tout.lex"
    tout.write_text(chat.replace('(entry "un" (principal eps) '
                                 '(mode indefinite))',
                                 '(entry "un" (principal tau) '
                                 '(mode universal))'))
    runs = [["--lexicon", f"{LEXICA}/chat.lex"],
            ["--lexicon", str(animal)],
            ["--lexicon", f"{LEXICA}/chat.lex", "--presuppositions", "off"],
            ["--lexicon", str(tout), "--trace"],
            ["--lexicon", f"{LEXICA}/chat.lex", "--format", "json"],
            ["--lexicon", f"{LEXICA}/chat.lex"]]
    repo = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    alone = [subprocess.run([sys.executable, "-m", "tysem.cli", "analyze",
                             "--session", str(session), *argv],
                            capture_output=True, text=True, env=env,
                            timeout=60).stdout
             for argv in runs]
    assert len(set(alone)) == len(runs) - 1  # the first and last agree
    script = ("import contextlib, io, json, sys\n"
              "from tysem.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        assert main(argv) == 0\n"
              "    print(json.dumps(out.getvalue()))\n")
    one_process = subprocess.run(
        [sys.executable, "-c", script,
         json.dumps([["analyze", "--session", str(session), *argv]
                     for argv in runs])],
        capture_output=True, text=True, env=env, timeout=60)
    assert one_process.returncode == 0, one_process.stderr
    assert [json.loads(line) for line in
            one_process.stdout.splitlines()] == alone


@pytest.mark.parametrize("family, k, bad, code, diagnostic", [
    ("homme", 7, "(a_hurle elle)", 2, "word not in lexicon: 'elle'"),
    ("homme", 12, "(est_entre (un homme)", 1, "1:1: unbalanced parenthesis"),
    ("homme", 0, "(a_hurle il)", 2,
     "no antecedent: no referent of sort humain"),
    ("chat", 7, "(dort (un table))", 2, "word not in lexicon: 'table'"),
    ("chat", 20, "(dort chat)", 2,
     "type clash: expected ani, found ani -> t ('dort' applied to 'chat')"),
    ("chat", 4, "(un chat)", 2, "term has type ani, not t"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_session_failing_after_repeats(capsys, tmp_path, family, k, bad,
                                       code, diagnostic, fmt):
    good = [CACHE_SENTENCES[family][i % 3] for i in range(30)]
    session = tmp_path / "s.session"
    session.write_text("\n".join(good[:k] + [bad] + good[k:]) + "\n")
    got = run(capsys, "analyze", "--lexicon", f"{LEXICA}/{family}.lex",
              "--session", str(session), "--rewrite", "--format", fmt)
    assert got == (code, "", f"error: {diagnostic}\n")


def test_analyze_keeps_steps_only_with_trace(fig1):
    tree = parse_tree("((un club) (a_battu Leeds))")
    plain, _ = analyze_tree(fig1, tree, DiscourseState(), AnalysisOptions())
    traced, _ = analyze_tree(fig1, tree, DiscourseState(),
                             AnalysisOptions(trace=True))
    assert plain.steps == []
    assert traced.steps == list(reduction_steps(traced.term))
    assert traced.steps[-1] == traced.normal == plain.normal


@pytest.mark.parametrize("mode", ["separate", "conjoin", "off"])
def test_presuppositions_are_worked_out_only_where_read(chat_lex, mode):
    """With `--presuppositions off`, the text and sexpr reports and the
    discourse read no presupposition, so none is worked out; a json
    report lists them in every mode."""
    options = AnalysisOptions(presuppositions=mode)
    r, _ = analyze_tree(chat_lex, parse_tree("(dort (un chat))"),
                        DiscourseState(), options)
    _text_report(r, options, [])
    _sexpr_report(r, options, [])
    discourse_formula([r], options)
    assert ("presupposition_list" in vars(r)) == (mode != "off")
    assert _json_report(r, options)["presuppositions"] == \
        ["chat(eps[ani](x. chat(x)))"]


def test_a_sentence_replays_once(monkeypatch):
    """A session of `tests/referents.py` stores many logs per `(vJ il)`
    line, one per antecedent; each sentence still replays once and makes
    the reads of one log, and each that misses is composed once."""
    counts = {"replay": 0, "reads": 0, "compose": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "replay", "replay")
    counted(cli, "compose", "compose")
    counted(discourse, "resolve_pronoun", "reads")
    counted(discourse, "resolve_definite", "reads")
    n = 1000
    lex = load_lexicon(referents.lexicon_text(referents.nouns(n)))
    lines = referents.session_lines(n)
    results, _ = analyze_session(lex, lines, AnalysisOptions("off",
                                                             rewrite=True))
    stored = dict(zip(map(id, results), lines))  # analysis -> its line
    assert len(stored) == counts["compose"]
    assert max(Counter(stored.values()).values()) > 20
    # one replay, taken up again after each sentence composed
    assert counts["replay"] == counts["compose"] + 1
    # a line makes one read (`il`, `le`) or none (`un`), in its sentence's
    # replay and in its composition
    assert counts["reads"] <= n + counts["compose"]


# ---------------------------------------------------------------------------
# eval


def test_eval_true(capsys, tmp_path):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier ani (c1 c2)) (interp chat ((c1)))"
                     " (interp dort ((c1))))")
    code, out, _ = run(capsys, "eval", "--model", str(model),
                       "--formula", "(dort (eps ani x (chat x)))")
    assert code == 0
    assert out.strip() == "true"


def test_eval_missing_interp(capsys, tmp_path):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier ani (c1)))")
    code, _, err = run(capsys, "eval", "--model", str(model),
                       "--formula", "(dort (eps ani x (chat x)))")
    assert code == 1
    assert "chat" in err


def test_eval_equivalence(capsys, tmp_path):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier s (s1)))")
    code, out, _ = run(capsys, "eval", "--model", str(model),
                       "--formula", "(F (eps s x (F x)))",
                       "--equiv", "(exists (x s) (F x))",
                       "--max-carrier", "4")
    assert code == 0
    assert out.startswith("equivalent (30 models)")


def test_eval_counter_model(capsys, tmp_path):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier s (s1)))")
    code, out, _ = run(capsys, "eval", "--model", str(model),
                       "--formula", "(G (eps s x (F x)))",
                       "--equiv", "(exists (x s) (G x))")
    assert code == 0
    assert "not equivalent" in out
    assert "(model" in out


def test_eval_equivalence_nested_pair_at_carrier_5(capsys):
    # one binary predicate: 2 + 2**4 + 2**9 + 2**16 + 2**25 models
    outer = "(eps s x (exists (y s) (R x y)))"
    code, out, _ = run(capsys, "eval", "--model", "models/chat.model",
                       "--formula", f"(R {outer} (eps s y (R {outer} y)))",
                       "--equiv", "(exists (x s) (exists (y s) (R x y)))",
                       "--max-carrier", "5")
    assert code == 0
    assert out.strip() == "equivalent (33620498 models)"


def test_eval_rejects_deep_nesting_without_a_traceback():
    depth = 1500
    formula = "(not " * depth + "(dort (eps ani x (chat x)))" + ")" * depth
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "tysem.cli", "eval", "--model",
         str(repo / "models" / "chat.model"), "--formula", formula],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(repo / "src")})
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr == ("error: 1:1281: lists nested 257 deep; "
                           "at most 256 are accepted\n")


# a discourse nests one `(and` per sentence, far past sexpr.MAX_DEPTH, and
# what tysem prints it reads back
@pytest.mark.parametrize("n", [300, 5000])
def test_sexpr_discourse_reads_back_and_evaluates(capsys, tmp_path, n):
    lex = load_lexicon(Path(f"{LEXICA}/homme.lex").read_text())
    options = AnalysisOptions()
    lines = [("(est_entre (un homme))", "(a_hurle il)")[i % 2]
             for i in range(n)]
    results, _ = analyze_session(lex, lines, options)
    f = discourse_formula(results, options)
    text = print_formula(f, "sexpr")
    assert text.startswith("(and " * n)
    assert parse_formula(text) == f
    model = tmp_path / "m.model"
    model.write_text("(model (carrier humain (h1 h2)) (interp homme ((h1)))"
                     " (interp est_entre ((h1))) (interp a_hurle ((h1))))")
    code, out, err = run(capsys, "eval", "--model", str(model),
                         "--formula", text)
    assert (code, out, err) == (0, "true\n", "")
    code, out, err = run(capsys, "eval", "--model", str(model),
                         "--formula", text, "--equiv", text,
                         "--max-carrier", "2")
    assert (code, out, err) == (0, "equivalent (72 models)\n", "")


def test_eval_equivalence_free_constant(capsys):
    code, out, err = run(capsys, "eval", "--model", "models/chat.model",
                         "--formula", "(P felix)", "--equiv", "(P felix)")
    assert code == 1 and not out
    assert err.startswith("error: free constant") and "'felix'" in err


def test_eval_max_carrier_must_be_positive(capsys):
    for bad in ("0", "-2", "x"):
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "--model", "models/chat.model",
                  "--formula", "(P (eps s x (P x)))",
                  "--equiv", "(exists (x s) (P x))", "--max-carrier", bad])
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert "argument --max-carrier: expected a positive integer" in err
        assert "Traceback" not in err


def test_eval_equivalence_reads_hat_as_carrier_membership(capsys):
    code, out, _ = run(capsys, "eval", "--model", "models/chat.model",
                       "--formula", "(hat_s (eps s x (P x)))",
                       "--equiv", "true")
    assert code == 0
    assert out.strip() == "equivalent (30 models)"


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_eval_function_with_two_values_is_an_error(tmp_path, hash_seed):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier s (a b c)) (interp f ((a b) (a c)))"
                     " (interp P ((b))) (interp k ((a))))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "tysem.cli", "eval", "--model", str(model),
         "--formula", "(P (f k))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.strip() == \
        "error: function 'f' has more than one value at (a): b, c"


def test_eval_equivalence_predicate_signatures_differ(capsys):
    code, out, err = run(capsys, "eval", "--model", "models/chat.model",
                         "--formula", "(exists (x s) (R x))",
                         "--equiv", "(exists (x s) (exists (y t) (R x y)))")
    assert code == 1 and not out
    assert err.strip() == ("error: predicate 'R' is used with argument sorts "
                           "(s) and (s, t)")


# ---------------------------------------------------------------------------
# check-lexicon


def test_check_lexicon_ok(capsys):
    code, out, _ = run(capsys, "check-lexicon", f"{LEXICA}/fig2.lex")
    assert code == 0
    assert out.startswith("ok:")


def test_check_lexicon_bad(capsys, tmp_path):
    bad = tmp_path / "bad.lex"
    bad.write_text('(entry "w" (principal nonsense))')
    code, _, err = run(capsys, "check-lexicon", str(bad))
    assert code == 1
    assert "nonsense" in err or "w" in err


# ---------------------------------------------------------------------------
# internal errors


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("argv, name, exc", [
    (["check-lexicon", f"{LEXICA}/fig2.lex"], "load_lexicon",
     ValueError("boom")),
    (["analyze", "--lexicon", f"{LEXICA}/chat.lex", "--tree",
      "(dort (un chat))"], "normalize", RecursionError("too deep")),
    (["eval", "--model", "models/chat.model", "--formula",
      "(dort (eps ani x (chat x)))"], "eval_formula", KeyError("c1")),
])
def test_internal_error_exit_code(capsys, monkeypatch, argv, name, exc):
    monkeypatch.setattr(f"tysem.cli.{name}", _raise(exc))
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"
    assert "Traceback" not in err
