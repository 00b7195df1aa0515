"""`rewrite_hilbert` and `resolve_definite` against their former versions.

`rewrite_hilbert` collects pivots once per tree and follows conjunction
chains with loops; `resolve_definite` compares stored canonical keys.  The
recursive rewrite and the `alpha_eq` scan they replaced are copied below as
oracles, and the results must be equal.
"""

import random
import re

import pytest

from generators import FORMULA_CONSTANTS, FormulaGen
from tysem.cli import AnalysisOptions, analyze_tree, discourse_formula
from tysem.composer import parse_tree
from tysem.discourse import (DiscourseState, coercion_between,
                             register_referent, resolve_definite)
from tysem.kernel import alpha_eq, parse_term
from tysem.logic import (UNIVERSAL, And, Eps, Eq, Exists, Forall, Formula,
                         Implies, LApp, LTerm, LVar, Not, Or, Pred, _fresh_var,
                         conjoin, formula_alpha_eq, parse_formula,
                         print_formula, rewrite_hilbert)

# ---------------------------------------------------------------------------
# the recursive rewrite, as it was before pivots were memoized


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
    expected = old_rewrite_hilbert(f)
    assert rewrite_hilbert(f) == expected, print_formula(f, "sexpr")
    return expected != f


def test_rewrite_matches_oracle_on_single_formulas():
    pool = _formula_pool(seed=11, n=150)
    fired = sum(_assert_same_rewrite(f) for f in pool)
    assert fired >= 50  # the draw exercises the rewrite, not only the skip


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rewrite_matches_oracle_on_conjunctions(seed):
    # each chain repeats a few formulas, as a discourse repeats its
    # presuppositions: every distinct choice term that fits no pattern is
    # tried again at every conjunction below it, in both versions
    pool = _formula_pool(seed=seed, n=60)
    rng = random.Random(seed)
    fired = 0
    for _ in range(15):
        some = rng.sample(pool, 4)
        chain = conjoin(rng.choice(some) for _ in range(rng.randint(1, 50)))
        fired += _assert_same_rewrite(chain)
    assert fired >= 5


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
    state, results = DiscourseState(), []
    for line in lines:
        analysis, state = analyze_tree(lex, parse_tree(line), state,
                                       AnalysisOptions())
        results.append(analysis)
    return results, state


@pytest.mark.parametrize("family", ["homme", "chat"])
def test_rewrite_matches_oracle_on_sessions(family, homme_lex, chat_lex):
    lex = homme_lex if family == "homme" else chat_lex
    rng = random.Random(5)
    for n in (1, 2, 7, 40, 100):
        results, _ = _session(lex, family, rng, n)
        for mode in ("separate", "conjoin", "off"):
            chain = discourse_formula(results, AnalysisOptions(mode))
            _assert_same_rewrite(chain)


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
