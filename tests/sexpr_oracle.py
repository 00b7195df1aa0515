"""The two-layer s-expression reader that `tysem.sexpr.read_all` replaced:
a generator of token tuples that counts the column of every character, and
a loop that builds the lists from them.  Kept as the oracle of the one-pass
reader: same trees, same positions, same errors."""

from tysem.errors import ParseError
from tysem.sexpr import MAX_DEPTH, Atom, SList

_DELIMS = set(" \t\r\n();\"")


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


def old_read_all(text: str, and_spine: bool = False):
    spine = "and" if and_spine else None
    stack: list[tuple[list, int, int, int]] = []
    top: list = []
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


def _left_of(spine, stack) -> bool:
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
