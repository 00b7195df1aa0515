import random

import pytest

from sexpr_oracle import old_read_all
from tysem.errors import ParseError
from tysem.sexpr import MAX_DEPTH, Atom, SList, read_all, read_one


def test_atoms_and_nesting():
    (e,) = read_all("(a (b c) d)")
    assert isinstance(e, SList) and len(e) == 3
    assert e[0].text == "a"
    assert isinstance(e[1], SList) and e[1][1].text == "c"


def test_comments_and_strings():
    exprs = read_all('; header\n(entry "un mot" x) ; trailing\n')
    assert len(exprs) == 1
    word = exprs[0][1]
    assert isinstance(word, Atom) and word.string and word.text == "un mot"


def test_positions():
    (e,) = read_all("\n  (a\n    b)")
    assert (e.line, e.col) == (2, 3)
    assert (e[1].line, e[1].col) == (3, 5)


def test_unbalanced_open():
    with pytest.raises(ParseError) as err:
        read_all("(a (b)")
    assert err.value.line == 1 and err.value.col == 1


def test_unbalanced_close():
    with pytest.raises(ParseError):
        read_all("a)")


def test_read_one_rejects_trailing():
    with pytest.raises(ParseError):
        read_one("(a) (b)")


def test_escaped_quote():
    (e,) = read_all(r'"a \" b"')
    assert e.text == 'a " b'


def test_positions_after_an_escaped_newline():
    """A backslash-escaped newline inside a string ends a source line."""
    (e,) = read_all('(a "x\\\ny" z)')
    assert e[1].text == "x\ny" and (e[1].line, e[1].col) == (1, 4)
    assert (e[2].line, e[2].col) == (2, 4)
    with pytest.raises(ParseError) as err:
        read_all('(a "x\\\ny")\n(b c))')
    assert str(err.value) == "3:6: unexpected ')'"


def test_nesting_limit():
    (e,) = read_all("(" * MAX_DEPTH + ")" * MAX_DEPTH)
    for _ in range(MAX_DEPTH - 1):
        (e,) = e
    assert len(e) == 0
    text = "(a\n" + " (" * MAX_DEPTH + ")" * MAX_DEPTH + ")"
    with pytest.raises(ParseError) as err:
        read_all(text)
    assert (err.value.line, err.value.col) == (2, 2 * MAX_DEPTH)
    assert f"nested {MAX_DEPTH + 1} deep" in str(err.value)


def test_and_spine_is_left_out_of_the_nesting_limit():
    n = 3 * MAX_DEPTH
    inner = "(" * (MAX_DEPTH - 1) + ")" * (MAX_DEPTH - 1)
    text = "(and " * n + inner + " b)" * n
    with pytest.raises(ParseError):
        read_all(text)
    (e,) = read_all(text, and_spine=True)
    for _ in range(n - 1):
        e = e[1]
    assert e[1].line == 1 and len(e[1]) == 1
    # below the spine, and in any list but an `(and` left operand, every
    # level counts
    for deeper in ("(and " * n + "(" + inner + ") b)" + " b)" * (n - 1),
                   "(and (or " * n + "a b)" + " b)" * n,
                   '("and" ' * n + "a" + " b)" * n):
        with pytest.raises(ParseError) as err:
            read_all(deeper, and_spine=True)
        assert f"nested {MAX_DEPTH + 1} deep" in str(err.value)


def test_repr_takes_deep_lists():
    """The reader stops at MAX_DEPTH; a list built 10,000 deep prints at
    the default recursion limit."""
    deep, e = 10_000, Atom("a", 1, 1)
    for i in range(deep):
        e = SList((Atom(f"x{i}", 1, 1), e, Atom("s", 1, 1, True)), 1, 1)
    assert repr(e) == "".join(f"(x{i} " for i in reversed(range(deep))) + \
        "a" + ' "s")' * deep


# ---------------------------------------------------------------------------
# against the two-layer reader it replaced


def same_reading(text: str, and_spine: bool):
    """read_all and the oracle build equal trees (text, line, column and
    string flag) or raise a ParseError with the same text."""
    outcomes = []
    for read in (read_all, old_read_all):
        try:
            outcomes.append(fields(read(text, and_spine)))
        except ParseError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], (text, and_spine)


def fields(exprs) -> list[tuple]:
    """Every node's fields in pre-order: `==` on nodes recurses, and the
    spines below nest past the recursion limit."""
    out, stack = [], exprs[::-1]
    while stack:
        e = stack.pop()
        if type(e) is SList:
            out.append((SList, len(e), e.line, e.col))
            stack.extend(e.items[::-1])
        else:
            out.append((type(e), e.text, e.line, e.col, e.string))
    return out


# every character the reader treats apart, and symbols
PIECES = ("(", ")", " ", "\t", "\r", "\n", ";", '"', "\\", "and", "é", "1")


@pytest.mark.parametrize("seed", range(4))
def test_read_all_matches_the_oracle_on_random_texts(seed):
    rng = random.Random(seed)
    for _ in range(25_000):
        text = "".join(rng.choices(PIECES, k=rng.randrange(40)))
        same_reading(text, False)
        same_reading(text, True)


@pytest.mark.parametrize("levels", [254, 256, 257, 512, 768])
def test_read_all_matches_the_oracle_on_and_spines(levels):
    """A spine under 0 to 256 other lists, so that its left operands sit
    below, at and past the cap, ending in a list, a string or a symbol.
    A top-level `and` heads no list, so the `(and` after it counts."""
    for lead, outer in (("", 0), ("", 254), ("", 255), ("", 256),
                        ("and (and ", 254)):
        for left in ("a", "or", "and", '"s"', '"and"', '("s', "()", "(x)",
                     "(or a b)", "(and)", "(and a b c)"):
            for right in (" b)", " (b (c)))"):
                text = (lead + "(not " * outer + "(and " * levels + left
                        + right * levels + ")" * outer + " b)" * bool(lead))
                same_reading(text, False)
                same_reading(text, True)
