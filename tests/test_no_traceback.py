"""`cli.main` ends every run in exit code 0, 1 or 2, never in a traceback.

Random trees over the four shipped lexica go through `analyze`, as single
trees and as sessions, in every format, and so do sessions with many
referents (`tests/referents.py`).  `FormulaGen` formulas go through
`eval` and `eval --equiv`.  Byte-mutated lexicon and model files go
through `check-lexicon`, `analyze` and `eval`.  Each run is in-process;
an exception escaping `main` fails the test with its traceback.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import referents
from generators import FormulaGen
from tysem.cli import main
from tysem.lexicon import load_lexicon
from tysem.logic import parse_formula, print_formula, rewrite_hilbert

REPO = Path(__file__).resolve().parent.parent
LEXICA = {path.name: path for path in sorted((REPO / "lexica").glob("*.lex"))}
MODEL = REPO / "models" / "chat.model"
WORDS = {}
for _name, _path in LEXICA.items():
    _lex = load_lexicon(_path.read_text())
    WORDS[_name] = sorted(_lex.entries) + sorted(_lex.pronouns)
# trees each lexicon composes, which a draw may take as they are or with
# one word swapped: random trees alone almost never compose
GOOD_TREES = {
    "fig1.lex": ("((un club) (a_battu Leeds))", "(club Leeds)"),
    "fig2.lex": ("((et est_vaste a_vote) Liverpool)", "(a_vote Liverpool)",
                 "((et a_gagne a_vote) Liverpool)"),
    "chat.lex": ("(dort (un chat))", "(aboie (le chien))", "(dort (le chat))",
                 "(dort (tout chat))"),
    "homme.lex": ("(est_entre (un homme))", "(a_hurle il)",
                  "(a_hurle (le homme))"),
}
# a model of FormulaGen's signature, so that its formulas evaluate
FORMULA_MODEL = """(model (carrier ani (a1 a2)) (carrier obj (o1 o2))
  (interp fido ((a1))) (interp bob ((a2))) (interp b1 ((o1)))
  (interp chat ((a1))) (interp dort ((a1) (a2))) (interp rouge ((o2)))
  (interp aime ((a1 o1) (a2 o2)))
  (interp mere ((a1 a2) (a2 a1))) (interp boite ((a1 o1) (a2 o2))))"""
# the equivalence checker rejects free constants: choice terms stand in
CLOSED = {"fido": "(eps ani h (chat h))", "bob": "(ieps ani h (dort h))",
          "b1": "(tau obj h (rouge h))"}


def run(*argv) -> tuple[int, str]:
    """main's exit code and standard error, with its output kept."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@st.composite
def random_trees(draw, words, depth=3):
    """A bracketed tree over `words`: a word, or a function applied to one
    or two arguments."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(words))
    items = draw(st.lists(random_trees(words, depth - 1), min_size=2,
                          max_size=3))
    return f"({' '.join(items)})"


@st.composite
def swapped(draw, name):
    """A tree the lexicon composes, with one word replaced."""
    tree = draw(st.sampled_from(GOOD_TREES[name]))
    spans = [m.span() for m in re.finditer(r"[^()\s]+", tree)]
    start, end = draw(st.sampled_from(spans))
    return tree[:start] + draw(st.sampled_from(WORDS[name])) + tree[end:]


def trees(name):
    return st.one_of(st.sampled_from(GOOD_TREES[name]), swapped(name),
                     random_trees(WORDS[name]))


analyze_flags = st.tuples(
    st.sampled_from(["text", "sexpr", "json"]),
    st.sampled_from(["ascii", "unicode"]),
    st.sampled_from(["separate", "conjoin", "off"]),
    st.booleans())


def _analyze_argv(lexicon, fmt, style, presupp, rewrite):
    argv = ["analyze", "--lexicon", lexicon, "--format", fmt, "--style", style,
            "--presuppositions", presupp]
    return argv + ["--rewrite"] if rewrite else argv


@settings(max_examples=60)
@given(st.sampled_from(sorted(LEXICA)), st.data(), analyze_flags)
def test_random_trees_and_sessions(name, data, flags):
    argv = _analyze_argv(LEXICA[name], *flags)
    run(*argv, "--tree", data.draw(trees(name)))
    # a session exits 0 only if every sentence composes
    lines = data.draw(st.lists(
        st.sampled_from(GOOD_TREES[name]) if data.draw(st.booleans())
        else trees(name), min_size=1, max_size=8))
    with tempfile.TemporaryDirectory() as tmp:
        session = Path(tmp) / "s.session"
        session.write_text("\n".join(lines) + "\n")
        run(*argv, "--session", session)


@pytest.mark.parametrize("n, fmt", [
    (250, "text"), (250, "sexpr"), (250, "json"), (2000, "text"),
    (2000, "sexpr"), (5000, "text"), (5000, "sexpr"), (5000, "json")])
def test_many_referent_sessions(n, fmt):
    # a rewrite fires once per noun: about 400 nested quantifiers at 2,000
    # and 1,000 at 5,000, which the printers walk in a loop
    with tempfile.TemporaryDirectory() as tmp:
        lexicon, session = Path(tmp) / "n.lex", Path(tmp) / "n.session"
        lexicon.write_text(referents.lexicon_text(referents.nouns(n)))
        session.write_text("\n".join(referents.session_lines(n)) + "\n")
        # with `off` nothing fires, so 5,000 runs `separate` alone
        for presupp in ("separate", "off") if n < 5000 else ("separate",):
            code, _ = run(*_analyze_argv(lexicon, fmt, "ascii", presupp, True),
                          "--session", session)
            assert code == 0


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.booleans())
def test_random_formulas_evaluate_and_compare(seed, carrier, rewritten):
    gen = FormulaGen(seed)
    f1, f2 = (print_formula(gen.random_formula(3), "sexpr") for _ in "12")
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "f.model"
        model.write_text(FORMULA_MODEL)
        run("eval", "--model", model, "--formula", f1)
    f1, f2 = (re.sub(r"\b(fido|bob|b1)\b", lambda m: CLOSED[m.group()], f)
              for f in (f1, f2))
    if rewritten:  # an equivalent formula, unless a function symbol is left
        f2 = print_formula(rewrite_hilbert(parse_formula(f1)), "sexpr")
    run("eval", "--model", MODEL, "--formula", f1, "--equiv", f2,
        "--max-carrier", carrier)


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data with a few bytes replaced, inserted or deleted."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out)))
        byte = draw(st.integers(0, 255))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(out):
            out.insert(at, byte)
        elif edit == "replace":
            out[at] = byte
        else:
            del out[at]
    return bytes(out)


@settings(max_examples=60)
@given(st.sampled_from(sorted(LEXICA)), st.data())
def test_mutated_lexicon_and_model_files(name, data):
    lexicon = data.draw(mutated(LEXICA[name].read_bytes()))
    model = data.draw(mutated(MODEL.read_bytes()))
    tree = data.draw(trees(name))
    with tempfile.TemporaryDirectory() as tmp:
        lex_path, model_path = Path(tmp) / "m.lex", Path(tmp) / "m.model"
        lex_path.write_bytes(lexicon)
        model_path.write_bytes(model)
        run("check-lexicon", lex_path)
        run("analyze", "--lexicon", lex_path, "--tree", tree, "--rewrite")
        run("eval", "--model", model_path, "--formula", "(chat (eps ani x "
            "(chat x)))", "--equiv", "(exists (x ani) (chat x))")


EMPTY_CLAUSE_LEXICON = ('(sort ani) (const chat (-> ani t))\n'
                        '(entry "chat" (principal chat) ())\n')


@pytest.mark.parametrize("command, text, where", [
    (["eval", "--formula", "true", "--model"], "(model ())", "1:8"),
    (["check-lexicon"], EMPTY_CLAUSE_LEXICON, "2:32"),
    (["analyze", "--tree", "chat", "--lexicon"], EMPTY_CLAUSE_LEXICON,
     "2:32")], ids=["model", "check-lexicon", "analyze"])
def test_an_empty_clause_is_a_parse_error(tmp_path, command, text, where):
    path = tmp_path / "input"
    path.write_text(text)
    code, err = run(*command, path)
    assert code == 1 and err.startswith(f"error: {where}: empty clause")
