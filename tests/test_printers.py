"""Every printer, now a table of layouts on `tysem.node.emit`, prints what
the printer it replaced printed, byte for byte.

The oracles are those printers as they were: the formula styles and
`repr` in `logic_oracle`, `print_term`, `str` of a type and `print_tree` in
`kernel_oracle`.  They are compared on every formula, term, type and tree
the golden commands print, on seeded `FormulaGen` and `TermGen` output, in
a property, and on `tests/referents.py` discourses of 500 and 2,000
sentences, with and without `--rewrite`.
"""

import contextlib
import io
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import referents
import test_golden
from generators import FormulaGen, TermGen, generator_context
from kernel_oracle import old_print_term, old_print_tree, old_type_str
from logic_oracle import old_print_formula, old_repr
from tysem import cli
from tysem.composer import Leaf, Node, print_tree
from tysem.kernel import Type, print_term, type_of
from tysem.logic import And, Implies, Or, conjoin, print_formula

STYLES = ("ascii", "unicode", "sexpr")


def assert_formula_prints_as_before(f):
    for style in STYLES:
        assert print_formula(f, style) == old_print_formula(f, style)
    assert repr(f) == old_repr(f)


def assert_term_prints_as_before(term):
    assert print_term(term) == old_print_term(term)
    assert repr(term) == old_repr(term)


def assert_type_prints_as_before(ty):
    assert str(ty) == old_type_str(ty)
    assert_term_prints_as_before(ty)


def assert_tree_prints_as_before(tree):
    assert print_tree(tree) == old_print_tree(tree)
    assert repr(tree) == old_repr(tree)


def random_tree(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return Leaf(rng.choice(("chat", "dort", "un", "et")))
    return Node(random_tree(rng, depth - 1), random_tree(rng, depth - 1))


@pytest.fixture
def printed(monkeypatch):
    """What the CLI prints from now on, by printer: each formula, term,
    tree and type, checked against the oracles as it is printed.  A
    mismatch is kept, since `cli.main` would turn an exception into exit
    code 3."""
    seen, wrong = Counter(), []
    checks = {
        "print_formula": (print_formula, assert_formula_prints_as_before),
        "print_term": (print_term, assert_term_prints_as_before),
        "print_tree": (print_tree, assert_tree_prints_as_before)}

    def checking(name, new, check):
        def printer(n, *args):
            seen[name] += 1
            try:
                check(n)
            except AssertionError:
                wrong.append((name, n))
            return new(n, *args)
        return printer

    for name, (new, check) in checks.items():
        monkeypatch.setattr(cli, name, checking(name, new, check))
    monkeypatch.setattr(Type, "__str__", checking(
        "str", Type.__str__, assert_type_prints_as_before))
    yield seen
    assert not wrong, f"{len(wrong)} differ, first: {wrong[0]}"


def test_golden_outputs_print_as_before(printed):
    test_golden.digests()
    assert set(printed) == {"print_formula", "print_term", "print_tree",
                            "str"}


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize("rewrite", [[], ["--rewrite"]])
def test_referent_discourses_print_as_before(printed, tmp_path, n, rewrite):
    session, lexicon = tmp_path / "s.session", tmp_path / "nouns.lex"
    session.write_text("\n".join(referents.session_lines(n)) + "\n")
    lexicon.write_text(referents.lexicon_text(referents.nouns(n)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["analyze", "--lexicon", str(lexicon), "--session",
                       str(session), "--presuppositions", "off"] + rewrite)
    assert rc == 0
    assert out.getvalue().splitlines()[-1].startswith("discourse: ")
    assert printed["print_formula"] >= n // 10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_formulas_terms_and_types_print_as_before(seed):
    formulas, terms, rng = FormulaGen(seed), TermGen(seed), random.Random(seed)
    ctx = generator_context()
    for _ in range(200):
        assert_formula_prints_as_before(formulas.random_formula(5))
        term = terms.random_term()
        assert_term_prints_as_before(term)
        assert_type_prints_as_before(type_of(ctx, term))
        assert_tree_prints_as_before(random_tree(rng, 6))


@given(st.integers(0, 2 ** 32 - 1))
def test_printers_match_the_oracles(seed):
    gen = FormulaGen(seed)
    f = gen.random_formula(5)
    g = gen.random_formula(3)
    # repeated right operands, which each print once
    for h in (f, g, conjoin([g, f, g, f, f]), And(f, And(g, Or(f, g))),
              Or(g, Or(f, g)), Implies(f, Implies(g, f))):
        assert_formula_prints_as_before(h)
    term = TermGen(seed).random_term()
    assert_term_prints_as_before(term)
    assert_type_prints_as_before(type_of(generator_context(), term))
    assert_tree_prints_as_before(random_tree(random.Random(seed), 6))
