"""S-expression reader shared by the term, lexicon, tree, formula and model
parsers.

Atoms are symbols or double-quoted strings; `;` comments run to end of line.
Every atom and list keeps the line/column where it started so that later
passes can report positions.
"""

from __future__ import annotations

from .errors import ParseError
from .node import node


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
        return "(" + " ".join(repr(i) for i in self.items) + ")"


SExpr = Atom | SList

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
                    i += 1
                    col += 1
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


def read_all(text: str) -> list[SExpr]:
    """Read every top-level s-expression in `text`.

    Lists nested deeper than MAX_DEPTH are rejected with a ParseError."""
    stack: list[tuple[list, int, int]] = []
    top: list[SExpr] = []
    for tok, line, col, is_str in _tokenize(text):
        if tok == "(" and not is_str:
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"lists nested {MAX_DEPTH + 1} deep; at "
                                 f"most {MAX_DEPTH} are accepted", line, col)
            stack.append(([], line, col))
        elif tok == ")" and not is_str:
            if not stack:
                raise ParseError("unexpected ')'", line, col)
            items, l0, c0 = stack.pop()
            node = SList(tuple(items), l0, c0)
            (stack[-1][0] if stack else top).append(node)
        else:
            node = Atom(tok, line, col, is_str)
            (stack[-1][0] if stack else top).append(node)
    if stack:
        _, l0, c0 = stack[-1]
        raise ParseError("unbalanced parenthesis", l0, c0)
    return top


def read_one(text: str) -> SExpr:
    """Read exactly one s-expression; reject trailing material."""
    exprs = read_all(text)
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
