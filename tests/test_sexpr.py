import pytest

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
