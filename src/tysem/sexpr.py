"""S-expression reader shared by the term, lexicon, tree, formula and model
parsers.

Atoms are symbols or double-quoted strings; `;` comments run to end of line.
Every atom and list keeps the line/column where it started so that later
passes can report positions.
"""

from __future__ import annotations

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

_DELIMS = set(" \t\r\n();\"")

# The parsers and evaluators downstream recurse once or more per level, so
# inputs nested this deep still run within the default recursion limit.
MAX_DEPTH = 256


def _tokenize(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield (c, line, col, False)
            i += 1
            col += 1
        elif c == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ParseError("newline inside string", line, col)
                if text[i] == "\\" and i + 1 < n:
                    i, col = i + 1, col + 1
                    if text[i] == "\n":  # an escaped newline ends a line
                        line, col = line + 1, 0
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise ParseError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            yield ("".join(buf), start_line, start_col, True)
        else:
            start_line, start_col = line, col
            j = i
            while j < n and text[j] not in _DELIMS:
                j += 1
            yield (text[i:j], start_line, start_col, False)
            col += j - i
            i = j


def read_all(text: str, and_spine: bool = False) -> list[SExpr]:
    """Read every top-level s-expression in `text`.

    Lists nested deeper than MAX_DEPTH are rejected with a ParseError.  With
    `and_spine`, an `(and` list that is the left operand of another is not
    counted: a discourse formula nests one per sentence, and its reader and
    evaluators loop down that spine."""
    spine = "and" if and_spine else None
    stack: list[tuple[list, int, int, int]] = []
    top: list[SExpr] = []
    depth = 0  # of the innermost open list, the `(and` spine left out
    for tok, line, col, is_str in _tokenize(text):
        # a list opened past the cap is kept only as an `(and` spine link
        if depth > MAX_DEPTH and (tok != spine or is_str):
            raise _too_deep(*stack[-1][1:3])
        if tok == "(" and not is_str:
            stack.append(([], line, col, depth))
            depth += 1
            if depth > MAX_DEPTH and not _left_of(spine, stack):
                raise _too_deep(line, col)
        elif tok == ")" and not is_str:
            if not stack:
                raise ParseError("unexpected ')'", line, col)
            items, l0, c0, depth = stack.pop()
            node = SList(tuple(items), l0, c0)
            (stack[-1][0] if stack else top).append(node)
        else:
            items = stack[-1][0] if stack else top
            if (tok == spine and not items and not is_str
                    and _left_of(spine, stack)):
                depth -= 1
            items.append(Atom(tok, line, col, is_str))
    if stack:
        _, l0, c0, _ = stack[-1]
        raise ParseError("unbalanced parenthesis", l0, c0)
    return top


def _left_of(spine: str | None, stack) -> bool:
    """Whether the innermost open list is the left operand of a list headed
    by the symbol `spine`."""
    if len(stack) < 2:
        return False
    parent = stack[-2][0]
    return (len(parent) == 1 and type(parent[0]) is Atom
            and parent[0].text == spine and not parent[0].string)


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
