"""The formula walkers `transform`, `fold`, `canon_formula` and
`_substitute` run on an explicit stack.

They agree with the recursive walkers they replaced (`logic_oracle`) on
random formulas: the same results, the same subformulas kept as the very
objects, the same visits and combines in the same order.  And every walker
built on them, and every formula printer and `repr`, takes 10,000-deep
nests of each shape at the default recursion limit; their results are
checked with loops, since `==` and `hash` of such nests recurse.
"""

import random
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from generators import FormulaGen
from logic_oracle import (old_canon_formula, old_fold, old_substitute,
                          old_transform)
from rewrite_oracle import _with_conjuncts
from test_kernel import _best_in_turn
from tysem.cli import _SIGNATURE_INTO, _signature_of
from tysem.logic import (DEF, INDEF, UNIVERSAL, And, Eps, Eq, Exists, Forall,
                         Formula, Implies, LApp, LConst, LVar, Not, Or, Pred,
                         TruthConst, _JSON, _abstract, _bound, _formula_names,
                         _substitute, canon_formula, conjoin, flatten_and,
                         fold, formula_to_json, free_formula_vars, nodes,
                         print_formula, transform)

# ---------------------------------------------------------------------------
# against the recursive oracle


def kept(result, f) -> list[bool]:
    """For each node of result, in pre-order, whether it is a node of f."""
    ids = {id(n) for n in nodes(f)}
    return [id(n) in ids for n in nodes(result)]


def assert_same_transform(f, visit, old_visit=None, env=None):
    """transform(f, visit) equals the oracle's, keeps the same nodes of f,
    and visits the same nodes with the same envs in the same order.
    `old_visit(n, env, again)`, when given, is the oracle's visit, which
    transforms a binder's body itself, with `again`."""
    new_calls, old_calls = [], []

    def new_recorded(n, e):
        new_calls.append((id(n), e))
        return visit(n, e)

    def old_recorded(n, e):
        old_calls.append((id(n), e))
        if old_visit is None:
            return visit(n, e)
        return old_visit(n, e, old_recorded)

    new = transform(f, new_recorded, env)
    old = old_transform(f, old_recorded, env)
    assert new == old
    assert kept(new, f) == kept(old, f)
    assert (new is f) == (old is f)
    assert new_calls == old_calls
    return new


def assert_same_fold(f, into=None):
    calls = [], []

    def recorder(i):
        def combine(n, results):
            calls[i].append((id(n), list(results)))
            return len(calls[i])
        return combine

    assert fold(f, recorder(0), into) == old_fold(f, recorder(1), into)
    assert calls[0] == calls[1]


def depth_new(n, depth):
    """A visit that renames nothing and counts the binders above a node."""
    if type(n) in (Exists, Forall, Eps):
        return _bound(n), depth + 1
    return n if type(n) is LVar else None


def depth_old(n, depth, again):
    """depth_new for the oracle, which transforms a binder's body itself."""
    if type(n) in (Exists, Forall, Eps):
        body = old_transform(n.body, again, depth + 1)
        if body is n.body:
            return n
        if type(n) is Eps:
            return Eps(n.mode, n.sort, n.hole, body)
        return type(n)(n.var, n.sort, body)
    return n if type(n) is LVar else None


def assert_same_walks(f):
    """Every walk of f agrees with the oracle's."""
    canon = canon_formula(f)
    old = old_canon_formula(f)
    assert canon == old and kept(canon, f) == kept(old, f)
    assert_same_transform(f, lambda n, e: None)
    assert transform(f, lambda n, e: None) is f
    assert_same_transform(f, depth_new, depth_old, 0)
    assert transform(f, depth_new, 0) is f
    for pivot in dict.fromkeys(n for n in nodes(f) if type(n) is Eps):
        var = LVar("v", pivot.sort)

        def abstract(n, _):
            if type(n) is Eps:
                return var if n is pivot or n == pivot else n
            return None

        def rename(n, _):
            if type(n) is LVar:
                return var if n.name == pivot.hole else n
            return n if _bound(n) == pivot.hole else None

        assert assert_same_transform(f, abstract) == _abstract(f, pivot, var)
        assert assert_same_transform(pivot.body, rename) == \
            _substitute(pivot.body, pivot.hole, var, rename=False)
        # a name bound in the body makes its binder capture
        names = sorted(_formula_names(pivot.body))
        for repl in [pivot, var] + [LVar(v, pivot.sort) for v in names]:
            assert_same_substitution(pivot.body, pivot.hole, repl)
    assert free_formula_vars(f) == old_fold(f, free_combine)
    assert formula_to_json(f) == old_fold(f, json_combine)
    assert_same_fold(f)
    assert_same_fold(f, _SIGNATURE_INTO)
    assert_same_fold(f, (And,))


def assert_same_substitution(f, var, repl):
    """_substitute agrees with the oracle's, which renames a capturing
    binder by substituting again in its body, and keeps the same nodes."""
    for rename in (True, False):
        new = _substitute(f, var, repl, rename)
        old = old_substitute(f, var, repl, rename)
        assert new == old
        assert kept(new, f) == kept(old, f)
        assert (new is f) == (old is f)


def capture_formula(rng: random.Random, depth: int) -> Formula:
    """A formula whose binders are all named x, y or x1, over free
    variables of those names: substituting one name for another makes
    binders capture, and a rename to x1 is sometimes taken."""
    names = ("x", "y", "x1")
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return Pred("P", (LVar(rng.choice(names), "s"),
                          LVar(rng.choice(names), "s")))
    if roll < 0.4:
        return And(capture_formula(rng, depth - 1),
                   capture_formula(rng, depth - 1))
    if roll < 0.5:
        body = capture_formula(rng, depth - 1)
        return Pred("Q", (Eps(rng.choice((INDEF, UNIVERSAL)), "s",
                              rng.choice(names), body),))
    cls = rng.choice((Exists, Forall))
    return cls(rng.choice(names), "s", capture_formula(rng, depth - 1))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7))
def test_substitution_matches_the_recursive_oracle_where_binders_capture(
        seed, depth):
    rng = random.Random(seed)
    f = capture_formula(rng, depth)
    for var in ("x", "y", "x1"):
        for repl in (LVar("x", "s"), LVar("y", "s"), LVar("x1", "s"),
                     LApp("mere", (LVar("y", "s"), LVar("x1", "s"))),
                     Eps(INDEF, "s", "x", Pred("P", (LVar("x", "s"),
                                                     LVar("y", "s"))))):
            assert_same_substitution(f, var, repl)


def test_three_place_nodes_match_the_recursive_oracle():
    """A node with three children is rebuilt when one of them changes.
    FormulaGen draws predicates of at most two places and one-place
    functions, so it builds none."""
    x, y = LVar("x", "s"), LVar("y", "s")
    f = Exists("y", "s", Pred("R", (x, y, LApp("f", (x, y, x)))))
    assert_same_substitution(f, "x", y)
    assert print_formula(_substitute(f, "x", y)) == \
        "exists y1:s. R(y,y1,f(y,y1,y))"
    assert_same_walks(f)


def free_combine(n, kids):
    if type(n) is LVar:
        return {n.name}
    out = set().union(*kids)
    out.discard(_bound(n))
    return out


def json_combine(n, kids):
    return _JSON[type(n)](n, kids)


def random_pool(seed: int, n: int) -> list[Formula]:
    gen = FormulaGen(seed)
    return [gen.random_formula(5) for _ in range(n)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walks_match_the_recursive_oracle_on_random_formulas(seed):
    pool = random_pool(seed, 150)
    for f in pool:
        assert_same_walks(f)
    # conjunctions with repeated conjuncts, and each conjunct replaced by
    # itself or by a new formula, as `rewrite_hilbert` does
    rng = random.Random(seed)
    for _ in range(40):
        parts = [rng.choice(pool[:20]) for _ in range(rng.randint(1, 40))]
        g = conjoin(parts)
        assert_same_walks(g)
        changed = rng.random() < 0.7  # else every conjunct is kept
        versions = {id(c): Not(c) if changed and rng.random() < 0.5 else c
                    for c in flatten_and(g)}

        def replace(n, _):
            return None if type(n) is And else versions[id(n)]

        new = assert_same_transform(g, replace)
        assert new == _with_conjuncts(g, versions)


@given(st.integers(0, 2 ** 32))
def test_walks_match_the_recursive_oracle(seed):
    gen = FormulaGen(seed)
    f = gen.random_formula(5)
    assert_same_walks(f)
    assert_same_walks(conjoin([f, gen.random_formula(3), f]))


# ---------------------------------------------------------------------------
# deep nests, each 10,000 levels

DEEP = 10_000
Y = LVar("y", "s")  # free everywhere


def leaf(i: int) -> Formula:
    return Pred(f"P{i % 3}", (Y,))


def binary(cls, side):
    def build():
        f = leaf(DEEP)
        for i in range(DEEP):
            f = cls(f, leaf(i)) if side == "left" else cls(leaf(i), f)
        return f
    return build


def negations():
    f = leaf(0)
    for _ in range(DEEP):
        f = Not(f)
    return f


def quantifiers():
    """A run of quantifiers, as a many-referent rewrite builds it."""
    f = Pred("R", (LVar("x0", "s"), Y))
    for i in range(DEEP):
        f = (Exists if i % 2 else Forall)(f"x{i}", "s", f)
    return f


def choices():
    """Choice terms nested in predicate arguments, each restriction
    holding the next choice term."""
    term = Y
    for i in range(DEEP):
        mode = (INDEF, DEF, UNIVERSAL)[i % 3]
        term = Eps(mode, "s", f"x{i}", Pred("Q", (LVar(f"x{i}", "s"), term)))
    return Pred("P", (term,))


SHAPES = {
    "and-left": binary(And, "left"), "and-right": binary(And, "right"),
    "or-left": binary(Or, "left"), "or-right": binary(Or, "right"),
    "implies-left": binary(Implies, "left"),
    "implies-right": binary(Implies, "right"),
    "not": negations, "quantifiers": quantifiers, "choices": choices,
}
TAGS = {TruthConst: "truth", Pred: "pred", And: "and", Or: "or",
        Implies: "implies", Not: "not", Exists: "exists", Forall: "forall",
        Eq: "eq", LVar: "var", LConst: "const", LApp: "app", Eps: "choice"}


def json_tags(doc):
    """The tags of a formula_to_json tree in pre-order, on a stack."""
    stack = [doc]
    while stack:
        d = stack.pop()
        yield d.get("node", d.get("term"))
        for value in reversed(list(d.values())):
            if isinstance(value, dict):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(reversed(value))


LEAF_TEXT = {"ascii": "P{}(y)", "unicode": "P{}(y)", "sexpr": "(P{} y)",
             "repr": "Pred(name='P{}', args=(LVar(name='y', sort='s'),))"}
SYMBOLS = {"and": ("&", "∧"), "or": ("|", "∨"), "implies": ("->", "→")}


def expected_text(shape: str, style: str) -> str:
    """The text of SHAPES[shape] printed in style, or its repr, built level
    by level."""
    leaf = [LEAF_TEXT[style].format(i % 3) for i in range(DEEP + 1)]
    inner = list(reversed(range(DEEP)))  # the levels, outermost first
    kind, _, side = shape.partition("-")
    closes = style in ("sexpr", "repr")  # a prefix has its ")" at the end
    if side and style == "repr":
        cls = kind.capitalize()
        if side == "left":
            return f"{cls}(left=" * DEEP + leaf[DEEP] + "".join(
                f", right={leaf[i]})" for i in range(DEEP))
        return "".join(f"{cls}(left={leaf[i]}, right=" for i in inner) + \
            leaf[DEEP] + ")" * DEEP
    if side and style == "sexpr":
        if side == "left":
            return f"({kind} " * DEEP + leaf[DEEP] + "".join(
                f" {leaf[i]})" for i in range(DEEP))
        return "".join(f"({kind} {leaf[i]} " for i in inner) + \
            leaf[DEEP] + ")" * DEEP
    if side:
        sym = f" {SYMBOLS[kind][style == 'unicode']} "
        if (side == "left") != (kind == "implies"):  # no parentheses
            return sym.join([leaf[DEEP], *leaf[:DEEP]] if side == "left"
                            else [*(leaf[i] for i in inner), leaf[DEEP]])
        if side == "left":
            return "(" * (DEEP - 1) + leaf[DEEP] + sym + leaf[0] + "".join(
                f"){sym}{leaf[i]}" for i in range(1, DEEP))
        return "".join(f"{leaf[i]}{sym}(" for i in inner[:-1]) + \
            leaf[0] + sym + leaf[DEEP] + ")" * (DEEP - 1)
    if shape == "not":
        head = {"ascii": "not ", "unicode": "¬", "sexpr": "(not ",
                "repr": "Not(operand="}[style]
        return head * DEEP + leaf[0] + ")" * DEEP * closes
    if shape == "quantifiers":
        kinds = [("Exists", "exists", "∃") if i % 2 else
                 ("Forall", "forall", "∀") for i in range(DEEP)]
        heads = {
            "ascii": "{1} x{i}:s. ", "unicode": "{2}x{i}:s. ",
            "sexpr": "({1} (x{i} s) ",
            "repr": "{0}(var='x{i}', sort='s', body="}[style]
        body = {"ascii": "R(x0,y)", "unicode": "R(x0,y)",
                "sexpr": "(R x0 y)",
                "repr": "Pred(name='R', args=(LVar(name='x0', sort='s'), "
                        "LVar(name='y', sort='s')))"}[style]
        return "".join(heads.format(*kinds[i], i=i) for i in inner) + body \
            + ")" * DEEP * closes
    modes = ((INDEF, "eps", "eps", "ε"), (DEF, "ieps", "the", "ιε"),
             (UNIVERSAL, "tau", "tau", "τ"))  # repr, sexpr, ascii, unicode
    level, close, top = {
        "ascii": ("{2}[s](x{i}. Q(x{i},", "))", ("P(", "y", ")")),
        "unicode": ("{3}[s](x{i}. Q(x{i},", "))", ("P(", "y", ")")),
        "sexpr": ("({1} s x{i} (Q x{i} ", "))", ("(P ", "y", ")")),
        "repr": ("Eps(mode={0!r}, sort='s', hole='x{i}', body=Pred("
                 "name='Q', args=(LVar(name='x{i}', sort='s'), ", ")))",
                 ("Pred(name='P', args=(", "LVar(name='y', sort='s')",
                  ",))"))}[style]
    return top[0] + "".join(level.format(*modes[i % 3], i=i)
                            for i in inner) + top[1] + close * DEEP + top[2]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_walkers_take_deep_nests(shape):
    f = SHAPES[shape]()
    preorder = list(nodes(f))
    binders = [n for n in preorder if type(n) in (Exists, Forall, Eps)]

    assert transform(f, lambda n, e: None) is f
    assert transform(f, depth_new, 0) is f
    canon = canon_formula(f)
    if not binders:
        assert canon is f
    assert sum(1 for _ in nodes(canon)) == len(preorder)
    names = {}  # each bound name of f, renamed in pre-order
    for a, b in zip(preorder, nodes(canon)):
        assert type(a) is type(b)
        if type(a) in (Exists, Forall, Eps):
            names[_bound(a)] = f"!q{len(names)}"
            assert _bound(b) == names[_bound(a)]
        elif type(a) is LVar:
            assert b.name == names.get(a.name, a.name)
    assert len(names) == len(binders)

    assert free_formula_vars(f) == {"y"}
    assert list(json_tags(formula_to_json(f))) == \
        [TAGS[type(n)] for n in preorder]
    conjuncts = flatten_and(f)
    if shape.startswith("and"):
        assert len(conjuncts) == DEEP + 1
        assert all(a is b for a, b in zip(
            conjuncts, [n for n in preorder if type(n) is Pred]))
    else:
        assert len(conjuncts) == 1 and conjuncts[0] is f
    preds = sorted({(n.name, tuple(a.sort for a in n.args))
                    for n in preorder if type(n) is Pred})
    assert _signature_of(f) == (["s"] if binders else [], preds)

    for style in ("ascii", "unicode", "sexpr", "repr"):
        text = repr(f) if style == "repr" else print_formula(f, style)
        want = expected_text(shape, style)
        assert len(text) == len(want) and text == want, style


def test_canon_formula_is_linear_in_binder_nesting():
    """Renaming 10,000 nested quantifiers, each binding a name of its own,
    costs within 5x of an identity transform of the same nest: no binder
    copies the names in scope (best of eleven runs each, the two timed in
    turn)."""
    f = quantifiers()
    canon, identity = _best_in_turn(
        lambda: canon_formula(f), lambda: transform(f, lambda n, e: None))
    assert canon < 5 * identity, (canon, identity)


def test_substitution_is_linear_in_nested_captures():
    """Substituting y for x under 1,000 nested quantifiers of y renames
    every one of them in one pass: within 12x of an identity transform of
    the same nest (best of five runs each).  Renaming each binder and
    working out the free names of the bodies once cost about 8x; a second
    pass per capture, as `_substitute` made before, about 1,000x."""
    g = Pred("S", (LVar("x", "s"), Y))
    for i in range(1_000):
        g = (Exists if i % 2 else Forall)("y", "s", g)

    def best(fn):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    renaming = best(lambda: _substitute(g, "x", Y))
    identity = best(lambda: transform(g, lambda n, e: None))
    assert renaming < 12 * identity, (renaming, identity)


def count_builds(monkeypatch, classes):
    """A counter of the nodes of `classes` built from now on."""
    built = Counter()
    for cls in classes:
        def counting(self, *args, init=cls.__init__, cls=cls):
            built[cls] += 1
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_a_renamed_binder_is_built_once(monkeypatch):
    """A visit that renames a binder has transform build it once, with its
    new name over its transformed body, with no stack frame per binder."""
    f = quantifiers()
    # each `y` of g would capture the `y` put in place of `x`: renamed
    g = Pred("S", (LVar("x", "s"), Y))
    for i in range(1_000):
        g = (Exists if i % 2 else Forall)("y", "s", g)
    built = count_builds(monkeypatch, (Exists, Forall, Eps))
    canon = canon_formula(f)
    assert sum(built.values()) == DEEP
    assert _bound(canon) == "!q0"
    built.clear()
    renamed = _substitute(g, "x", Y)
    assert sum(built.values()) == 1_000
    for a, b in zip(nodes(g), nodes(renamed)):
        assert type(a) is type(b)
        if type(a) in (Exists, Forall):
            assert b.var == "y1"
    assert [n for n in nodes(renamed) if type(n) is Pred] == [
        Pred("S", (Y, LVar("y1", "s")))]
