"""S-expression reader shared by the term, lexicon, tree, formula and model
parsers.

Atoms are symbols or double-quoted strings, in which a backslash takes the
next character as it is; `;` comments run to the end of the line.  One pass
over the text builds the lists.  Every atom and list keeps the line and
column where it started, both from 1, so that later passes can report
positions: each character is one column, a tab and a `\\r` too, and a
newline ends a line, an escaped one inside a string included.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .node import emit, enclose, node


@node
class Atom:
    text: str
    line: int
    col: int
    string: bool = False  # True when the source was a quoted string

    def __repr__(self):
        return f'"{self.text}"' if self.string else self.text


@node
class SList:
    items: tuple
    line: int
    col: int

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        return emit(self, _TEXT)


SExpr = Atom | SList
_TEXT = {Atom: repr, SList: lambda e: enclose("(", e.items, " ")}

# the text cut into tokens and the blanks between them: a parenthesis, a
# symbol, blanks, a newline, a comment, a string, or, alone, the quote of a
# string that no quote closes before a raw newline or the end of the text
_BODY = r'(?:[^"\\\n]|\\[\s\S])*'
_TOKEN = re.compile(rf'[()]|[^ \t\r\n();"]+|[ \t\r]+|\n|;.*|"{_BODY}"|"')

# The parsers and evaluators downstream recurse once or more per level, so
# inputs nested this deep still run within the default recursion limit.
MAX_DEPTH = 256


def read_all(text: str, and_spine: bool = False) -> list[SExpr]:
    """Read every top-level s-expression in `text`.

    Lists nested deeper than MAX_DEPTH are rejected with a ParseError.  With
    `and_spine`, an `(and` list that is the left operand of another is not
    counted: a discourse formula nests one per sentence, and its reader and
    evaluators loop down that spine."""
    spine = "and" if and_spine else None
    top = items = []  # the innermost open list's items
    stack = []  # per open list: the items it goes into, line, col, depth
    depth = 0  # of the innermost open list, the `(and` spine left out
    line, start, end = 1, 0, 0  # `start`: the index of the line's column 1
    for tok in _TOKEN.findall(text):
        col = end - start + 1
        end += len(tok)
        c = tok[0]
        if c in " \t\r\n;":
            if c == "\n":
                line, start = line + 1, end
            continue
        if tok == '"':  # an unclosed string
            j = re.compile(_BODY).match(text, end).end()
            if text.startswith("\n", j):  # escaped ones before it count
                raise ParseError("newline inside string", line + text.count(
                    "\n", end, j), j - text.rfind("\n", 0, j))
            raise ParseError("unterminated string", line, col)
        # a list opened past the cap is kept only as an `(and` spine link
        if depth > MAX_DEPTH and tok != spine:
            raise _too_deep(*stack[-1][1:3])
        if c == "(":
            stack.append((items, line, col, depth))
            items = []
            depth += 1
            if depth > MAX_DEPTH and not _left_of(spine, stack):
                raise _too_deep(line, col)
        elif c == ")":
            if not stack:
                raise ParseError("unexpected ')'", line, col)
            outer, l0, c0, depth = stack.pop()
            outer.append(SList(tuple(items), l0, c0))
            items = outer
        elif c == '"':
            body = tok[1:-1]
            if "\\" in body:
                body = re.sub(r"\\([\s\S])", r"\1", body)
            items.append(Atom(body, line, col, True))
            if "\n" in tok:  # an escaped newline ends a line
                line += tok.count("\n")
                start = end - len(tok) + tok.rindex("\n") + 1
        else:
            if tok == spine and not items and _left_of(spine, stack):
                depth -= 1
            items.append(Atom(tok, line, col))
    if stack:
        raise ParseError("unbalanced parenthesis", *stack[-1][1:3])
    return top


def _left_of(spine: str | None, stack) -> bool:
    """Whether the innermost open list is the left operand of a list headed
    by the symbol `spine`."""
    if len(stack) < 2:
        return False
    outer = stack[-1][0]
    return (len(outer) == 1 and type(outer[0]) is Atom
            and outer[0].text == spine and not outer[0].string)


def _too_deep(line: int, col: int) -> ParseError:
    return ParseError(f"lists nested {MAX_DEPTH + 1} deep; at most "
                      f"{MAX_DEPTH} are accepted", line, col)


def read_one(text: str, and_spine: bool = False) -> SExpr:
    """Read exactly one s-expression; reject trailing material."""
    exprs = read_all(text, and_spine)
    if not exprs:
        raise ParseError("empty input", 1, 1)
    if len(exprs) > 1:
        raise ParseError("trailing material after expression",
                           exprs[1].line, exprs[1].col)
    return exprs[0]


def expect_atom(e: SExpr, what: str) -> Atom:
    if not isinstance(e, Atom):
        raise ParseError(f"expected {what}, found a list", e.line, e.col)
    return e


def expect_list(e: SExpr, what: str) -> SList:
    if not isinstance(e, SList):
        raise ParseError(f"expected {what}, found '{e.text}'", e.line, e.col)
    return e


def expect_len(e: SList, least: int, most: int | None, usage: str) -> SList:
    """`e` if it has `least` to `most` items (any number from `least` on
    when `most` is None); else a ParseError `usage` at `e`."""
    if len(e) < least or most is not None and len(e) > most:
        raise ParseError(usage, e.line, e.col)
    return e
