"""The rewrite's core over a conjunct list against the spine path it
replaced.

`cli.discourse_formula` hands the rewrite a session's parts as it holds
them (`logic.rewrite_conjunction`), and `rewrite_hilbert` reaches the same
core through the operands of a conjunction's left spine.  The path they
replaced conjoined the session first and flattened the conjunction back
into its conjuncts; it is kept in `rewrite_oracle`, and the output must be
byte-identical: on `tests/referents.py` discourses, on the benchmark's
session families at every size of its ladder under every output flag, on
random sessions, and on random lists of parts.
"""

import contextlib
import copy
import io
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import referents
from rewrite_oracle import spine_discourse_formula, spine_rewrite_hilbert
from test_rewrite import _formula_pool
from tysem import cli
from tysem.cli import AnalysisOptions, analyze_session, discourse_formula
from tysem.lexicon import load_lexicon
from tysem.logic import (And, Formula, conjoin, print_formula,
                         rewrite_conjunction, rewrite_hilbert)

REPO = Path(__file__).resolve().parent.parent
LEXICA = REPO / "lexica"
sys.path.insert(0, str(REPO / "perfbench"))
from workloads import FAMILIES, SESSION_LADDER, session_lines  # noqa: E402

MODES = ("separate", "conjoin", "off")
FLAGS = [(mode, rewrite) for mode in MODES for rewrite in (False, True)]


def analyses(lex, lines: list[str]) -> list:
    return analyze_session(lex, lines, AnalysisOptions())[0]


def printed(f: Formula) -> list[str]:
    """f in every style; `==` of a deep nest of quantifiers recurses."""
    return [print_formula(f, style) for style in ("ascii", "unicode", "sexpr")]


def assert_same_discourse(results):
    for mode, rewrite in FLAGS:
        options = AnalysisOptions(mode, rewrite=rewrite)
        assert printed(discourse_formula(results, options)) == \
            printed(spine_discourse_formula(results, options)), (mode, rewrite)


@pytest.mark.parametrize("n", [1, 2, 500, 2_000, 8_000])
def test_referent_discourses_match_the_spine_path(n):
    lex = load_lexicon(referents.lexicon_text(referents.nouns(n)))
    assert_same_discourse(analyses(lex, referents.session_lines(n)))


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_benchmark_sessions_match_the_spine_path(family, tmp_path,
                                                 monkeypatch):
    """Every size of the session ladder, under every `--format`,
    `--presuppositions` and `--rewrite`: the whole output of `cli.main`,
    against the same runs with the spine path patched in.  A sentence's own
    `--presuppositions conjoin --rewrite` goes through `rewrite_hilbert`,
    so that is patched too."""
    lexicon = str(REPO / FAMILIES[family][0])
    runs = []
    for n in SESSION_LADDER:
        path = tmp_path / f"{n}.session"
        path.write_text("".join(line + "\n" for line in session_lines(
            random.Random(n), family, n)))
        for fmt in ("text", "sexpr", "json"):
            for mode, rewrite in FLAGS:
                runs.append(["analyze", "--lexicon", lexicon, "--session",
                             str(path), "--format", fmt, "--presuppositions",
                             mode, *(["--style", "unicode"] if fmt == "json"
                                     else []),
                             *(["--rewrite"] if rewrite else [])])
    outputs = [_main(argv) for argv in runs]
    monkeypatch.setattr(cli, "discourse_formula", spine_discourse_formula)
    monkeypatch.setattr(cli, "rewrite_hilbert", spine_rewrite_hilbert)
    for argv, got in zip(runs, outputs):
        assert got[0] == 0
        assert got == _main(argv), argv


# random sessions: the shipped homme lexicon, and chat's with a conjunction
# of two predicates, whose sentences are conjunctions themselves (a part of
# the discourse that is an `And`, first or later)
ET_LEXICON = (LEXICA / "chat.lex").read_text() + (
    '(entry "et" (principal (lam p (-> ani t) (lam q (-> ani t) '
    '(lam x ani (and (p x) (q x)))))))\n(pronoun "il" ani)\n')
SESSION_POOLS = {
    "homme": ("(est_entre (un homme))", "(a_hurle il)", "(a_hurle (le homme))",
              "(est_entre il)", "(a_hurle (un homme))"),
    "et": ("(dort (un chat))", "(((et dort) aboie) (un chat))",
           "(((et aboie) dort) il)", "(aboie (le chien))", "(dort (le chat))",
           "(((et dort) aboie) (le chat))", "(dort (tout chien))",
           "(((et dort) dort) (un chien))", "(aboie il)"),
}
SESSION_LEXICA = {"homme": (LEXICA / "homme.lex").read_text(),
                  "et": ET_LEXICON}


@settings(max_examples=60)
@given(st.sampled_from(sorted(SESSION_POOLS)), st.data())
def test_random_sessions_match_the_spine_path(family, data):
    lex = load_lexicon(SESSION_LEXICA[family])
    first, *_ = pool = SESSION_POOLS[family]  # an indefinite
    lines = data.draw(st.lists(st.sampled_from(pool), max_size=40))
    results = analyses(lex, [first, *lines])
    assert_same_discourse(results)
    for mode, rewrite in FLAGS:
        options = AnalysisOptions(mode, rewrite=rewrite)
        assert discourse_formula(results, options) == \
            spine_discourse_formula(results, options)


# random lists of parts: formulas with choice terms that fire and that do
# not, conjunctions among them, repeats as the very object and as copies

POOL = _formula_pool(seed=4, n=60)


@st.composite
def part_lists(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    some = rng.sample(POOL, 8)
    some += [And(rng.choice(some), rng.choice(some)) for _ in range(2)]
    parts = [rng.choice(some) for _ in range(rng.randint(1, 30))]
    return [p if rng.random() < 0.8 else copy.deepcopy(p) for p in parts]


@given(part_lists())
def test_rewrite_conjunction_matches_the_spine_path(parts):
    f = conjoin(parts)
    expected = spine_rewrite_hilbert(f)
    assert rewrite_conjunction(parts) == expected
    assert printed(rewrite_conjunction(parts)) == printed(expected)
    out = rewrite_hilbert(f)
    assert out == expected
    assert (out is f) == (expected is f)


def test_a_conjunction_as_one_part_matches_the_spine_path():
    # the core descends into a part that is a conjunction where a pivot
    # that did not fire at the top can fire below, as in the last of
    # test_rewrite.HAND_WRITTEN
    for f in POOL:
        assert rewrite_conjunction([f]) == spine_rewrite_hilbert(f)


def test_rewrite_conjunction_of_nothing_is_true():
    assert rewrite_conjunction([]) == conjoin([])
    assert print_formula(rewrite_conjunction(iter(()))) == "true"


def _best(fn) -> float:
    times = []
    for _ in range(5):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_discourse_costs_a_small_multiple_of_one_conjoin(homme_lex):
    """`discourse_formula --rewrite` on 8,000 sentences of the benchmark's
    homme family stays within 3x of one `conjoin` of the same parts (best
    of five runs each): it keys each distinct part once and builds the
    spine once.  It measured 1.6-2.2x (CPython 3.11); the spine path,
    which conjoined, flattened and rebuilt the spine, 3.2-3.5x."""
    results = analyses(homme_lex, session_lines(random.Random(8), "homme",
                                                8_000))
    options = AnalysisOptions(rewrite=True)
    parts = [*dict.fromkeys(p for r in results
                            for p in r.presupposition_list),
             *(r.formula for r in results)]
    assert len(parts) == 8_001  # one presupposition, as the session shares
    discourse = _best(lambda: discourse_formula(results, options))
    one_conjoin = _best(lambda: conjoin(parts))
    assert discourse < 3 * one_conjoin, (discourse, one_conjoin)
