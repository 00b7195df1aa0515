"""`rewrite_hilbert` and `resolve_definite` against their former versions.

`rewrite_hilbert` tries each pivot of a conjunction once and builds the
quantifier prefix last; `resolve_definite` compares stored canonical keys.
The recursive rewrite, which rewrites again every formula a fire makes, and
the `alpha_eq` scan they replaced are copied below as oracles, and the
results must be equal.  The printer, which prints each distinct conjunct
object once, is checked on the same conjunctions against each conjunct
printed alone.
"""

import copy
import inspect
import random
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from generators import FORMULA_CONSTANTS, FormulaGen
from tysem.cli import AnalysisOptions, analyze_session, discourse_formula
from tysem.discourse import (DiscourseState, coercion_between,
                             register_referent, resolve_definite)
from tysem.kernel import alpha_eq, parse_term
from tysem.logic import (INDEF, UNIVERSAL, And, Eps, Eq, Exists, Forall,
                         Formula, Implies, LApp, LTerm, LVar, Not, Or, Pred,
                         _fresh_var, canon_formula, conjoin, nodes,
                         parse_formula, print_formula, rewrite_hilbert)

# ---------------------------------------------------------------------------
# the recursive rewrite, as it was before pivots were memoized


def formula_alpha_eq(a: Formula, b: Formula) -> bool:
    return canon_formula(a) == canon_formula(b)


def old_rewrite_hilbert(f: Formula) -> Formula:
    rewritten = _old_rewrite_here(f)
    if rewritten is not None:
        return old_rewrite_hilbert(rewritten)
    match f:
        case And(l, r):
            return And(old_rewrite_hilbert(l), old_rewrite_hilbert(r))
        case Or(l, r):
            return Or(old_rewrite_hilbert(l), old_rewrite_hilbert(r))
        case Implies(l, r):
            return Implies(old_rewrite_hilbert(l), old_rewrite_hilbert(r))
        case Not(op):
            return Not(old_rewrite_hilbert(op))
        case Exists(var, sort, body):
            return Exists(var, sort, old_rewrite_hilbert(body))
        case Forall(var, sort, body):
            return Forall(var, sort, old_rewrite_hilbert(body))
        case _:
            return f


def _old_rewrite_here(g: Formula) -> Formula | None:
    for pivot in _old_eps_pivots(g):
        sentinel = LVar("!pivot", pivot.sort)
        abstracted = _old_abstract(g, pivot, sentinel)
        names = _old_formula_names(abstracted) - {sentinel.name}
        var = pivot.hole if pivot.hole not in names else _fresh_var(names)
        abstracted = _old_abstract_var(abstracted, sentinel.name,
                                       LVar(var, pivot.sort))
        body_renamed = _old_abstract_var(pivot.body, pivot.hole,
                                         LVar(var, pivot.sort))
        if any(formula_alpha_eq(c, body_renamed)
               for c in _old_flatten_and(abstracted)):
            cls = Forall if pivot.mode == UNIVERSAL else Exists
            return cls(var, pivot.sort, abstracted)
    return None


def _old_flatten_and(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return _old_flatten_and(f.left) + _old_flatten_and(f.right)
    return [f]


def _old_eps_pivots(g: Formula) -> list[Eps]:
    out: list[Eps] = []

    def from_term(t: LTerm):
        if isinstance(t, Eps):
            if not any(e == t for e in out):
                out.append(t)
        elif isinstance(t, LApp):
            for a in t.args:
                from_term(a)

    def from_formula(f: Formula):
        match f:
            case Pred(_, args):
                for a in args:
                    from_term(a)
            case And(l, r) | Or(l, r) | Implies(l, r):
                from_formula(l)
                from_formula(r)
            case Not(op):
                from_formula(op)
            case Exists(_, _, body) | Forall(_, _, body):
                from_formula(body)
            case Eq(l, r):
                from_term(l)
                from_term(r)

    from_formula(g)
    return out


def _old_abstract(f: Formula, pivot: Eps, var: LVar) -> Formula:
    def in_term(t: LTerm) -> LTerm:
        if t == pivot:
            return var
        if isinstance(t, LApp):
            return LApp(t.fn, tuple(in_term(a) for a in t.args))
        return t

    match f:
        case Pred(name, args):
            return Pred(name, tuple(in_term(a) for a in args))
        case And(l, r):
            return And(_old_abstract(l, pivot, var),
                       _old_abstract(r, pivot, var))
        case Or(l, r):
            return Or(_old_abstract(l, pivot, var),
                      _old_abstract(r, pivot, var))
        case Implies(l, r):
            return Implies(_old_abstract(l, pivot, var),
                           _old_abstract(r, pivot, var))
        case Not(op):
            return Not(_old_abstract(op, pivot, var))
        case Exists(v, s, body):
            return Exists(v, s, _old_abstract(body, pivot, var))
        case Forall(v, s, body):
            return Forall(v, s, _old_abstract(body, pivot, var))
        case Eq(l, r):
            return Eq(in_term(l), in_term(r))
        case _:
            return f


def _old_abstract_var(f: Formula, name: str, var: LVar) -> Formula:
    def in_term(t: LTerm) -> LTerm:
        match t:
            case LVar(n, _) if n == name:
                return var
            case LApp(fn, args):
                return LApp(fn, tuple(in_term(a) for a in args))
            case Eps(mode, sort, hole, body) if hole != name:
                return Eps(mode, sort, hole,
                           _old_abstract_var(body, name, var))
            case _:
                return t

    match f:
        case Pred(pname, args):
            return Pred(pname, tuple(in_term(a) for a in args))
        case And(l, r):
            return And(_old_abstract_var(l, name, var),
                       _old_abstract_var(r, name, var))
        case Or(l, r):
            return Or(_old_abstract_var(l, name, var),
                      _old_abstract_var(r, name, var))
        case Implies(l, r):
            return Implies(_old_abstract_var(l, name, var),
                           _old_abstract_var(r, name, var))
        case Not(op):
            return Not(_old_abstract_var(op, name, var))
        case Exists(v, s, body) if v != name:
            return Exists(v, s, _old_abstract_var(body, name, var))
        case Forall(v, s, body) if v != name:
            return Forall(v, s, _old_abstract_var(body, name, var))
        case Eq(l, r):
            return Eq(in_term(l), in_term(r))
        case _:
            return f


def _old_formula_names(f: Formula) -> set[str]:
    out: set[str] = set()

    def from_term(t: LTerm):
        match t:
            case LVar(name, _):
                out.add(name)
            case LApp(_, args):
                for a in args:
                    from_term(a)
            case Eps(_, _, hole, body):
                out.add(hole)
                from_formula(body)

    def from_formula(g: Formula):
        match g:
            case Pred(_, args):
                for a in args:
                    from_term(a)
            case And(l, r) | Or(l, r) | Implies(l, r):
                from_formula(l)
                from_formula(r)
            case Not(op):
                from_formula(op)
            case Exists(v, _, body) | Forall(v, _, body):
                out.add(v)
                from_formula(body)
            case Eq(l, r):
                from_term(l)
                from_term(r)

    from_formula(f)
    return out


# ---------------------------------------------------------------------------
# inputs

# hand-written shapes: sentence patterns, presupposition conjuncts, hole
# names that clash with other binders, choice terms under function symbols,
# in equalities, nested in each other, and patterns that must not fire
HAND_WRITTEN = [
    "(P (eps s x (P x)))",
    "(P (tau s x (P x)))",
    "(and (P (ieps s x (P x))) (Q (ieps s x (P x))))",
    "(and (P (eps s x (P x))) (exists (x s) (Q x)))",
    "(and (P (eps s x (P x))) (forall (y s) (R y (eps s x (P x)))))",
    "(and (Q (eps s x (P x))) (P (eps s x (P x))))",
    "(and (and (P (eps s x (P x))) (Q (eps s x (P x)))) (R (eps s x (P x))))",
    "(or (P (eps s x (P x))) (Q (tau s y (Q y))))",
    "(implies (Q (tau s y (Q y))) (not (P (eps s x (P x)))))",
    "(= (f (eps s x (P x))) (eps s x (P x)))",
    "(and (P (eps s x (P x))) (= (f (eps s x (P x))) k))",
    "(R (eps s x (exists (y s) (R x y))) "
    "(eps s y (R (eps s x (exists (y s) (R x y))) y)))",
    "(and (P (eps s x (and (P x) (Q x)))) (Q (eps s x (and (P x) (Q x)))))",
    "(and (P (eps s x (P x))) (Q (eps t x (Q x))))",
    "(and (Q (eps s x (P x))) (Q (eps t y (Q y))))",
    "(exists (x s) (and (P x) (Q (eps s y (Q y)))))",
    "(and (P (eps s x (P x))) (P (eps s y (P y))))",
    "(and (Q (eps s x (P x))) (and (P (eps s x (P x))) (R x)))",
    "(and (P (f (eps s x (P (f x))))) (P (f (eps s x (P (f x))))))",
    "(not (and (P (eps s x (P x))) (Q (eps s x (P x)))))",
    # the whole conjunction must rename the hole (x is a binder on the right),
    # and the renamed body captures it, so only the left conjunction fires
    "(and (and (exists (z s) (R (eps s x (exists (y s) (R x y))) z)) "
    "(T (eps s x (exists (y s) (R x y))))) (exists (x s) (Q k)))",
    # firing the first pivot fires the second one at its quantifier before
    # the second one's own turn comes
    "(and (and (P (eps s x (P x))) (R (eps s x (P x)) (eps s y (exists (x s) "
    "(and (and (P x) (R x y)) (exists (z s) (Q z))))))) "
    "(exists (z s) (Q z)))",
]


def _choice_instance(gen: FormulaGen):
    """A random Body[choice_x Body]: a FormulaGen body over a hole, with the
    choice term built from it substituted for the hole."""
    hole = gen.fresh()
    sort = gen.rng.choice(("ani", "obj"))
    body = gen.gen({hole: sort}, gen.rng.randint(1, 3))
    text = print_formula(body, "sexpr")
    mode = gen.rng.choice(("eps", "ieps", "tau"))
    choice = f"({mode} {sort} {hole} {text})"
    return parse_formula(re.sub(rf"\b{hole}\b", lambda _: choice, text),
                         FORMULA_CONSTANTS)


def _formula_pool(seed: int, n: int) -> list[Formula]:
    gen = FormulaGen(seed)
    pool = [parse_formula(t) for t in HAND_WRITTEN]
    for _ in range(n):
        pool.append(gen.random_formula(3))
        pool.append(_choice_instance(gen))
    return pool


def _assert_same_rewrite(f: Formula):
    """rewrite_hilbert(f) equals the oracle's, and is f itself when
    nothing fires."""
    expected = old_rewrite_hilbert(f)
    out = rewrite_hilbert(f)
    assert out == expected, print_formula(f, "sexpr")
    assert (out is f) == (expected == f)
    return expected != f


def test_rewrite_matches_oracle_on_single_formulas():
    pool = _formula_pool(seed=11, n=150)
    fired = sum(_assert_same_rewrite(f) for f in pool)
    assert fired >= 50  # the draw exercises the rewrite, not only the skip


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rewrite_matches_oracle_on_conjunctions(seed):
    # each chain repeats twelve formulas, as a discourse repeats its
    # presuppositions; the oracle tries every distinct choice term that
    # fits no pattern again at every conjunction below it, which bounds
    # how many formulas a chain can draw from
    pool = _formula_pool(seed=seed, n=60)
    rng = random.Random(seed)
    fired = 0
    for _ in range(15):
        some = rng.sample(pool, 12)
        chain = conjoin(rng.choice(some) for _ in range(rng.randint(1, 50)))
        fired += _assert_same_rewrite(chain)
    assert fired >= 5


# Discourses with many distinct pivots.  FormulaGen names every variable
# afresh, so each draw maps those names onto three, which reuses a hole
# across pivots and names binders and free variables like a pivot's hole;
# a clash makes the rewrite bind a fresh name instead.
CLASH_NAMES = ("x", "y", "z")


@st.composite
def many_pivot_discourses(draw):
    gen = FormulaGen(draw(st.integers(0, 2 ** 32 - 1)))
    names: dict[str, str] = {}

    def rename(f: Formula) -> Formula:
        text = re.sub(r"\bv\d+\b", lambda m: names.setdefault(
            m.group(), gen.rng.choice(CLASH_NAMES)), print_formula(f, "sexpr"))
        return parse_formula(text, FORMULA_CONSTANTS)

    parts: list[Formula] = []
    for kind in draw(st.lists(st.sampled_from(
            ("instance", "instance", "instance", "free", "nested", "again",
             "plain")), min_size=2, max_size=10)):
        pivots = [n for p in parts for n in nodes(p) if type(n) is Eps]
        if kind == "free" or (kind == "nested" and not pivots):
            # a free variable, possibly named like some pivot's hole
            name = gen.rng.choice(CLASH_NAMES)
            parts.append(Pred(gen.rng.choice(("chat", "dort")),
                              (LVar(name, "ani"),)))
        elif kind == "nested":
            # a pivot inside another choice term's body, as B(eps_h B)
            # with B(h) = aime(h, pivot), or only there
            pivot = gen.rng.choice(pivots)
            hole = gen.rng.choice(CLASH_NAMES)
            outer = Eps(INDEF, "ani", hole,
                        Pred("aime", (LVar(hole, "ani"), pivot)))
            parts.append(gen.rng.choice((Pred("aime", (outer, pivot)),
                                         Pred("chat", (outer,)))))
        elif kind == "again" and parts:
            parts.append(gen.rng.choice(parts))  # the very object, shared
        elif kind == "plain":
            parts.append(rename(gen.random_formula(2)))
        else:
            parts.append(rename(_choice_instance(gen)))
    return conjoin(parts)


@given(many_pivot_discourses())
def test_rewrite_matches_oracle_on_many_pivots(f):
    _assert_same_rewrite(f)


# Conjunctions that repeat a few parts, as a discourse repeats the formulas
# of the analyses its sentences share.  A repeat is the very object or an
# equal copy, and so is a choice term in it: the rewrite merges pivots and
# the printer shares text by identity first.


@st.composite
def repeating_conjunctions(draw):
    gen = FormulaGen(draw(st.integers(0, 2 ** 32 - 1)))
    parts: list[Formula] = []
    for kind in draw(st.lists(st.sampled_from(
            ("instance", "sentence", "sentence", "restriction", "plain")),
            min_size=1, max_size=5)):
        pivots = [n for p in parts for n in nodes(p) if type(n) is Eps]
        if kind == "sentence" and pivots:
            # another predicate of a choice term met before
            pivot = gen.rng.choice(pivots)
            name = gen.rng.choice(PREDICATES_OF[pivot.sort])
            parts.append(Pred(name, (pivot,)))
        elif kind == "restriction" and pivots:
            # a choice term's presupposition: its restriction of itself
            pivot = gen.rng.choice(pivots)
            parts.append(_old_abstract_var(pivot.body, pivot.hole, pivot))
        elif kind == "plain":
            parts.append(gen.random_formula(2))
        else:
            parts.append(_choice_instance(gen))
    picks = draw(st.lists(st.tuples(st.integers(0, len(parts) - 1),
                                    st.booleans()), min_size=1, max_size=25))
    return conjoin(parts[i] if same else copy.deepcopy(parts[i])
                   for i, same in picks)


PREDICATES_OF = {"ani": ("chat", "dort"), "obj": ("rouge",)}


@given(repeating_conjunctions())
def test_rewrite_matches_oracle_on_repeated_parts(f):
    _assert_same_rewrite(f)


def per_conjunct_print(f: Formula, style: str) -> str:
    """print_formula of a conjunction, or of quantifiers over one, with
    every conjunct printed alone."""
    if type(f) in (Exists, Forall) and type(f.body) in (Exists, Forall, And):
        inner = per_conjunct_print(f.body, style)
        word = "exists" if type(f) is Exists else "forall"
        if style == "sexpr":
            return f"({word} ({f.var} {f.sort}) {inner})"
        if type(f.body) is And:
            inner = f"({inner})"
        head = {"exists": "∃", "forall": "∀"}[word] if style == "unicode" \
            else f"{word} "
        return f"{head}{f.var}:{f.sort}. {inner}"
    if type(f) is not And:
        return print_formula(f, style)
    rights = []
    while type(f) is And:
        rights.append(f.right)
        f = f.left
    rights.reverse()
    if style == "sexpr":
        return "(and " * len(rights) + print_formula(f, style) + "".join(
            f" {print_formula(r, style)})" for r in rights)

    def operand(c: Formula, right: bool) -> str:
        loose = (Or, Implies, Exists, Forall) + ((And,) if right else ())
        text = print_formula(c, style)
        return f"({text})" if isinstance(c, loose) else text

    sep = " ∧ " if style == "unicode" else " & "
    return sep.join([operand(f, False)] + [operand(r, True) for r in rights])


@given(repeating_conjunctions())
def test_print_matches_each_conjunct_printed_alone(f):
    for g in (f, rewrite_hilbert(f)):
        for style in ("ascii", "unicode", "sexpr"):
            assert print_formula(g, style) == per_conjunct_print(g, style)


SESSION_SENTENCES = {
    "homme": ("(est_entre (un homme))", "(a_hurle il)", "(a_hurle (le homme))",
              "(est_entre il)"),
    "chat": ("(dort (un chat))", "(aboie (le chien))", "(dort (le chat))",
             "(aboie (un chien))", "(dort (tout chat))"),
}


def _session(lex, family: str, rng: random.Random, n: int):
    """Analyses of n random sentences, and the discourse state after them."""
    first, *rest = SESSION_SENTENCES[family]
    lines = [first] + [rng.choice((first, *rest)) for _ in range(n - 1)]
    return analyze_session(lex, lines, AnalysisOptions())


@pytest.mark.parametrize("family", ["homme", "chat"])
def test_rewrite_matches_oracle_on_sessions(family, homme_lex, chat_lex):
    lex = homme_lex if family == "homme" else chat_lex
    rng = random.Random(5)
    for n in (1, 2, 7, 40, 100):
        results, _ = _session(lex, family, rng, n)
        for mode in ("separate", "conjoin", "off"):
            chain = discourse_formula(results, AnalysisOptions(mode))
            _assert_same_rewrite(chain)


def test_rewrite_returns_an_off_mode_discourse_as_it_is(homme_lex):
    # no sentence carries its choice term's restriction, so nothing fires,
    # and every sentence is one of a few stored analyses' formulas
    results, _ = _session(homme_lex, "homme", random.Random(7), 320)
    chain = discourse_formula(results, AnalysisOptions("off"))
    assert rewrite_hilbert(chain) is chain


def test_many_fires_take_no_stack_frame_each():
    # 400 referents, each with a sentence and its presupposition, so that
    # every pivot fires; a rewrite that recursed per fire, as the oracle
    # does, would take three frames each
    pivots = [Eps(INDEF, "ani", "x", Pred(f"n{i}", (LVar("x", "ani"),)))
              for i in range(400)]
    f = conjoin(Pred(name, (p,))
                for p in pivots for name in ("v", p.body.name))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        out = rewrite_hilbert(f)
    finally:
        sys.setrecursionlimit(limit)
    names = []
    while type(out) is Exists:
        names.append(out.var)
        out = out.body
    # the first fire is outermost; x, held by every other pivot, is free
    # again for the last
    assert names[:5] == ["y", "z", "w", "x1", "x2"] and names[-1] == "x"
    assert len(set(names)) == len(pivots)
    assert out == conjoin(Pred(name, (LVar(v, "ani"),))
                          for v, p in zip(names, pivots)
                          for name in ("v", p.body.name))


# ---------------------------------------------------------------------------
# resolve_definite against the alpha_eq scan it replaced


def old_resolve_definite(state, sort, predicate, lex=None):
    want = sort if isinstance(sort, str) else sort.name
    for ref in state.newest_first():
        if ref.sort == want and alpha_eq(ref.predicate, predicate):
            return ref
    for ref in state.newest_first():
        if ref.sort == want:
            return ref
    if lex is not None:
        for ref in state.newest_first():
            if coercion_between(lex, ref.sort, want) is not None:
                return ref
    return None


RESTRICTIONS = ["chat", "chien", "(lam x ani (chat x))", "(lam y ani (chat y))",
                "(lam x ani (and (chat x) (dort x)))",
                "(lam z ani (and (chat z) (dort z)))",
                "(lam x ani (dort x))"]


def test_resolve_definite_matches_alpha_eq_scan(chat_lex, fig2):
    ctx = chat_lex.typing_context()
    preds = [parse_term(t, ctx) for t in RESTRICTIONS]
    eps = parse_term("((tyapp eps ani) chat)", ctx)
    rng = random.Random(3)
    states = [DiscourseState()]
    for _ in range(60):
        state = states[-1]
        sort = rng.choice(("ani", "ani", "Pl", "T"))
        states.append(register_referent(state, eps, sort, rng.choice(preds),
                                        f"un#{len(state.referents)}"))
    states.append(_session(chat_lex, "chat", rng, 40)[1])
    checked = 0
    for state in states:
        for sort in ("ani", "Pl", "T", "P"):
            for pred in preds:
                for lex in (None, fig2):
                    got = resolve_definite(state, sort, pred, lex)
                    assert got is old_resolve_definite(state, sort, pred, lex)
                    checked += got is not None
    assert checked > 1000
