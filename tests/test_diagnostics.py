"""Every reader and loader diagnostic, pinned.

One row per raise site: the input, the exit code, and the exact `error: ...`
line that in-process `cli.main` prints for it.  The front door is the
command that reads the input: a lexicon through `check-lexicon -`, a tree
through `analyze --tree` over `lexica/chat.lex`, a formula through
`eval --formula` over `EVAL_MODEL`, and a model file through
`eval --model -`.  Positions count from 1:1, one column per character.
"""

import contextlib
import io
import sys

import pytest

from tysem.cli import main
from tysem.errors import EvalError
from tysem.logic import LApp, LConst, LVar, Pred
from tysem.model import Model, eval_formula
from tysem.sexpr import MAX_DEPTH

EVAL_MODEL = """(model (carrier ani (c1 c2))
  (interp chat ((c1))) (interp dort ((c1) (c2)))
  (interp mere ((c1 c2) (c1 c1))) (interp pere ((c1 c2))))"""

FRONT = {  # the arguments of main, and what standard input holds
    "lexicon": lambda text: (["check-lexicon", "-"], text),
    "tree": lambda text: (["analyze", "--lexicon", "lexica/chat.lex",
                           "--tree", text], ""),
    "formula": lambda text: (["eval", "--model", "-", "--formula", text],
                             EVAL_MODEL),
    "model": lambda text: (["eval", "--model", "-", "--formula",
                            "(exists (x e) (chat x))"], text),
}

# In a formula, a list opened past the cap as the left operand of an `(and`
# is let through until its first token shows it is no spine link: 255
# `(not` levels, the `(and` at 256 and the list at 257
SPINE = "(not " * (MAX_DEPTH - 1) + "(and {} b)" + ")" * (MAX_DEPTH - 1)
TOO_DEEP = "lists nested 257 deep; at most 256 are accepted"

ROWS = [
    # the s-expression reader
    ("lexicon", '(a "x\ny")', 1, "1:6: newline inside string"),
    ("lexicon", '(a "xy', 1, "1:4: unterminated string"),
    ("lexicon", '(a "x\ny', 1, "1:6: newline inside string"),
    ("lexicon", "(sort a))", 1, "1:9: unexpected ')'"),
    ("lexicon", "(sort a) (const (b)", 1, "1:10: unbalanced parenthesis"),
    ("tree", "", 1, "1:1: empty input"),
    ("tree", " ; only a comment\n", 1, "1:1: empty input"),
    ("tree", "(dort chat) x", 1,
     "1:13: trailing material after expression"),
    ("lexicon", "((sort) x)", 1,
     "1:2: expected declaration keyword, found a list"),
    ("lexicon", "x", 1, "1:1: expected a declaration, found 'x'"),
    ("lexicon", "(sort\n" + " (" * MAX_DEPTH + ")" * MAX_DEPTH + ")", 1,
     f"2:512: {TOO_DEEP}"),
    ("formula", "(not " * MAX_DEPTH + "(a)" + ")" * MAX_DEPTH, 1,
     f"1:1281: {TOO_DEEP}"),
    ("formula", SPINE.format("(x a)"), 1, f"1:1281: {TOO_DEEP}"),
    ("formula", SPINE.format('("x" a)'), 1, f"1:1281: {TOO_DEEP}"),
    ("formula", SPINE.format("((x) a)"), 1, f"1:1281: {TOO_DEEP}"),
    ("formula", SPINE.format("(x a"), 1, f"1:1281: {TOO_DEEP}"),
    ("formula", SPINE.format('("x'), 1, "1:1282: unterminated string"),
    # positions: a tab and a `\r` are one column each, an escaped newline
    # in a string ends a line, a comment runs to the end of its line
    ("lexicon", "(sort a)\t\r)", 1, "1:11: unexpected ')'"),
    ("lexicon", "; (\n(sort a))", 1, "2:9: unexpected ')'"),
    ("lexicon", "(sort é))", 1, "1:9: unexpected ')'"),
    ("lexicon", '(entry "a\\\nb") x)', 1, "2:6: unexpected ')'"),
    ("lexicon", '(entry "a\\"b") x)', 1, "1:17: unexpected ')'"),
    ("lexicon", '(entry "a\\\nb\nc")', 1, "2:2: newline inside string"),
    ("lexicon", '(entry "a\\', 1, "1:8: unterminated string"),
    # types and terms
    ("lexicon", "(sort a) (const c (-> a))", 1, "1:19: malformed type"),
    ("lexicon", "(const c (pi (a) t))", 1,
     "1:14: expected type variable, found a list"),
    ("lexicon", "(const c foo)", 1, "1:10: unknown sort 'foo'"),
    ("lexicon", '(entry "x" (principal ()))', 1,
     "entry 'x': ill-typed principal term: 1:23: empty application"),
    ("lexicon", '(entry "x" (principal (lam x t)))', 1,
     "entry 'x': ill-typed principal term: 1:23: lam needs a variable, "
     "a type and a body"),
    ("lexicon", '(entry "x" (principal (lam (x) t x)))', 1,
     "entry 'x': ill-typed principal term: 1:28: expected variable name, "
     "found a list"),
    ("lexicon", '(entry "x" (principal (tylam a)))', 1,
     "entry 'x': ill-typed principal term: 1:23: tylam needs a type "
     "variable and a body"),
    ("lexicon", '(entry "x" (principal (tyapp eps)))', 1,
     "entry 'x': ill-typed principal term: 1:23: tyapp needs a term and "
     "a type"),
    ("lexicon", '(entry "x" (principal (eps)))', 1,
     "entry 'x': ill-typed principal term: 1:23: application needs at "
     "least one argument"),
    ("lexicon", '(entry "x" (principal y))', 1,
     "entry 'x': ill-typed principal term: 1:23: unbound name 'y'"),
    # a lexicon's context binds no variable, so a free name stops the
    # reader, and every principal term that reads is closed
    ("lexicon", '(entry "p" (principal (lam x t y)))', 1,
     "entry 'p': ill-typed principal term: 1:32: unbound name 'y'"),
    ("lexicon", '(entry "x" (principal (lam x foo x)))', 1,
     "entry 'x': ill-typed principal term: 1:30: unknown sort 'foo'"),
    # formulas
    ("formula", "()", 1, "1:1: empty formula"),
    ("formula", "(and a)", 1, "1:1: (and F F)"),
    ("formula", "(or a)", 1, "1:1: (or F F)"),
    ("formula", "(implies a b c)", 1, "1:1: (implies F F)"),
    ("formula", "(and (and a) b)", 1, "1:6: (and F F)"),
    ("formula", "(not)", 1, "1:1: (not F)"),
    ("formula", "(exists (x ani))", 1, "1:1: (exists (VAR SORT) F)"),
    ("formula", "(forall (x ani) a b)", 1, "1:1: (forall (VAR SORT) F)"),
    ("formula", "(exists (x) a)", 1, "1:9: (VAR SORT)"),
    ("formula", "(exists x a)", 1, "1:9: expected (VAR SORT), found 'x'"),
    ("formula", "(exists ((x) ani) a)", 1,
     "1:10: expected variable, found a list"),
    ("formula", "(exists (x (ani)) a)", 1,
     "1:12: expected sort, found a list"),
    ("formula", "(= a)", 1, "1:1: (= T T)"),
    ("formula", "(chat ())", 1, "1:7: empty term"),
    ("formula", "(chat (eps ani x))", 1, "1:7: (eps SORT HOLE F)"),
    ("formula", "(chat (tau (ani) x a))", 1,
     "1:12: expected sort, found a list"),
    ("formula", "(chat (ieps ani (x) a))", 1,
     "1:17: expected hole variable, found a list"),
    ("formula", "((a) b)", 1, "1:2: expected formula head, found a list"),
    ("formula", "(chat ((x) a))", 1, "1:8: expected term head, found a list"),
    ("formula", "(exists (x ani) (chat x)) a", 1,
     "1:27: trailing material after expression"),
    # trees
    ("tree", "(dort)", 1,
     "1:1: a tree node needs a function and an argument"),
    ("tree", "()", 1, "1:1: a tree node needs a function and an argument"),
    ("tree", "(dort ((un) chat))", 1,
     "1:8: a tree node needs a function and an argument"),
    # lexicon declarations
    ("lexicon", "()", 1, "1:1: empty declaration"),
    ("lexicon", "(sort)", 1, "1:1: (sort SYM)"),
    ("lexicon", "(sort (a))", 1, "1:7: expected sort name, found a list"),
    ("lexicon", "(sort a) (sort a)", 1, "duplicate sort 'a'"),
    ("lexicon", "(const c)", 1, "1:1: (const SYM TYPE)"),
    ("lexicon", "(const (c) t)", 1,
     "1:8: expected constant name, found a list"),
    ("lexicon", "(const c t) (const c t)", 1, "duplicate constant 'c'"),
    ("lexicon", "(const eps t)", 1, "duplicate constant 'eps'"),
    ("lexicon", "(pronoun)", 1, "1:1: (pronoun STRING SYM?)"),
    ("lexicon", "(pronoun (il))", 1,
     "1:10: expected pronoun word, found a list"),
    ("lexicon", '(pronoun "il" (ani))', 1,
     "1:15: expected sort hint, found a list"),
    ("lexicon", '(pronoun "il" ani)', 1, "1:15: unknown sort 'ani'"),
    ("lexicon", '(pronoun "il") (pronoun "il")', 1,
     "duplicate pronoun 'il'"),
    ("lexicon", "(entity x)", 1, "1:1: unknown declaration 'entity'"),
    ("lexicon", "(((", 1, "1:3: unbalanced parenthesis"),
    # lexicon entries
    ("lexicon", '(const c t) (entry "x" (principal c)) '
     '(entry "x" (principal c))', 1, "entry 'x': duplicate word"),
    ("lexicon", '(const c t) (pronoun "x") (entry "x" (principal c))', 1,
     "entry 'x': duplicate word"),
    ("lexicon", '(entry "x")', 1, "1:1: (entry STRING (principal TERM) ...)"),
    ("lexicon", "(entry (x) (principal c))", 1,
     "1:8: expected entry word, found a list"),
    ("lexicon", '(entry "x" c)', 1,
     "1:12: expected (principal TERM), found 'c'"),
    ("lexicon", '(entry "x" (principle c))', 1, "1:12: (principal TERM)"),
    ("lexicon", '(entry "x" (principal c d))', 1, "1:12: (principal TERM)"),
    ("lexicon", '(sort a) (const c (-> a t)) (entry "x" (principal (c c)))',
     1, "entry 'x': ill-typed principal term: type clash: expected a, "
     "found a -> t at (c c)"),
    ("lexicon", '(const c t) (entry "x" (principal c) ())', 1,
     "1:38: empty clause: expected (option ...) or (mode ...)"),
    ("lexicon", '(const c t) (entry "x" (principal c) x)', 1,
     "1:38: expected (option ...) or (mode ...), found 'x'"),
    ("lexicon", '(const c t) (entry "x" (principal c) ((mode)))', 1,
     "1:39: expected option or mode, found a list"),
    ("lexicon", '(const c t) (entry "x" (principal c) (mode))', 1,
     "1:38: (mode MODE)"),
    ("lexicon", '(const c t) (entry "x" (principal c) (mode (indefinite)))',
     1, "1:44: expected mode, found a list"),
    ("lexicon", '(entry "x" (principal eps) (mode some))', 1,
     "1:28: unknown mode 'some'"),
    ("lexicon", '(const c t) (entry "x" (principal c) (note c))', 1,
     "1:38: unknown entry clause 'note'"),
    ("lexicon", '(const c t) (entry "x" (principal c) (mode definite))', 1,
     "entry 'x': mode 'definite' requires a choice-operator principal "
     "(eps, ieps or tau), found type t"),
    # lexicon options
    ("lexicon", '(sort a) (const c a) (entry "x" (principal c) '
     "(option f (-> a t)))", 1, "1:47: (option SYM TYPE RIGIDITY TERM?)"),
    ("lexicon", '(sort a) (const c a) (entry "x" (principal c) '
     "(option (f) (-> a t) rigid))", 1,
     "1:55: expected option label, found a list"),
    ("lexicon", '(sort a) (const c a) (entry "x" (principal c) '
     "(option f (-> a t) (rigid)))", 1,
     "1:66: expected rigidity, found a list"),
    ("lexicon", '(sort a) (const c a) (entry "x" (principal c) '
     "(option f (-> a t) soft))", 1,
     "1:47: rigidity must be 'rigid' or 'flexible'"),
    ("lexicon", '(sort a) (const c a) (entry "x" (principal c) '
     "(option f a rigid))", 1,
     "entry 'x': option 'f' must have an arrow type"),
    ("lexicon", '(sort a) (const c (-> (-> a t) t)) (entry "x" (principal c) '
     "(option f (-> a t) rigid))", 1,
     "entry 'x': option 'f' not allowed: the principal term does not "
     "denote a referent of a base sort"),
    ("lexicon", '(sort a) (sort b) (const c a) (entry "x" (principal c) '
     "(option f (-> b t) rigid))", 1,
     "entry 'x': option 'f' has source b, but the word's referent has "
     "sort a"),
    ("lexicon", '(sort a) (const c a) (entry "x" (principal c) '
     "(option f (-> a t) rigid g))", 1,
     "entry 'x': ill-typed option term 'f': 1:72: unbound name 'g'"),
    ("lexicon", '(sort a) (const c a) (const g (-> a a)) '
     '(entry "x" (principal c) (option f (-> a t) rigid g))', 1,
     "entry 'x': option 'f' declares a -> t but its term has a -> a"),
    ("lexicon", '(sort a) (const c a) (entry "x" (principal c) '
     "(option c (-> a t) rigid))", 1,
     "entry 'x': option 'c' clashes with an existing constant of type a"),
    ("lexicon", '(sort a) (const c a) (entry "x" (principal c) '
     "(option f (-> a t) rigid) (option f (-> a a) rigid))", 1,
     "entry 'x': option 'f' clashes with an existing constant of type "
     "a -> t"),
    # model files
    ("model", "", 1, "1:1: empty input"),
    ("model", "x", 1, "1:1: expected (model ...), found 'x'"),
    ("model", "()", 1, "1:1: expected (model ...)"),
    ("model", "(mode)", 1, "1:1: expected (model ...)"),
    ("model", "((model))", 1, "1:2: expected model, found a list"),
    ("model", "(model x)", 1,
     "1:8: expected (carrier ...) or (interp ...), found 'x'"),
    ("model", "(model ())", 1,
     "1:8: empty clause: expected (carrier ...) or (interp ...)"),
    ("model", "(model ((carrier)))", 1,
     "1:9: expected carrier or interp, found a list"),
    ("model", "(model (carrier ani))", 1, "1:8: (carrier SYM (ID+))"),
    ("model", "(model (carrier (ani) (c1)))", 1,
     "1:17: expected sort, found a list"),
    ("model", "(model (carrier ani c1))", 1,
     "1:21: expected (ID+), found 'c1'"),
    ("model", "(model (carrier ani ((c1))))", 1,
     "1:22: expected element id, found a list"),
    ("model", "(model (carrier ani ()))", 1, "carrier for 'ani' is empty"),
    ("model", "(model (carrier ani (c1)) (carrier ani (c2)))", 1,
     "duplicate carrier for 'ani'"),
    ("model", "(model (carrier ani (c1)) (interp chat ((c1))) "
     "(interp chat ()))", 1, "duplicate interp for 'chat'"),
    ("model", "(model (carrier ani (c1)) (interp chat))", 1,
     "1:27: (interp SYM ((ID*)+))"),
    ("model", "(model (carrier ani (c1)) (interp (chat) ((c1))))", 1,
     "1:35: expected constant, found a list"),
    ("model", "(model (carrier ani (c1)) (interp chat c1))", 1,
     "1:40: expected tuple list, found 'c1'"),
    ("model", "(model (carrier ani (c1)) (interp chat (c1)))", 1,
     "1:41: expected tuple, found 'c1'"),
    ("model", "(model (carrier ani (c1)) (interp chat (((c1)))))", 1,
     "1:42: expected element id, found a list"),
    ("model", "(model (carrier ani (c1)) (inter chat ((c1))))", 1,
     "1:27: unknown model clause 'inter'"),
    ("model", "(model (carrier ani (c1)) (interp chat ((c2))))", 1,
     "interp of 'chat' uses unknown element 'c2'"),
    ("model", "(model (carrier ani (c1)) (interp chat ((c1)))", 1,
     "1:1: unbalanced parenthesis"),
    ("model", "(model) (model)", 1,
     "1:9: trailing material after expression"),
    # evaluation
    ("model", "(model)", 1, "carrier for sort 'e' is empty"),
    ("formula", "(exists (x obj) (chat x))", 1,
     "no carrier declared for sort 'obj'"),
    ("formula", "(chat rex)", 1, "constant 'rex' has no interpretation"),
    ("formula", "(chat (fils chat))", 1,
     "constant 'fils' has no interpretation"),
    ("formula", "(exists (x ani) (chat (eps ani y (dort x))))", 1,
     "choice term depends on enclosing binders (x); such Henkin-style "
     "dependencies are not evaluated"),
    ("formula", "(chat dort)", 1,
     "'dort' is not interpreted as an individual"),
    ("formula", "(chat (mere chat))", 1,
     "function 'mere' has more than one value at (c1): c1, c2"),
    ("formula", "(exists (x ani) (chat (pere x)))", 1,
     "function 'pere' undefined at (c2)"),
]


@pytest.mark.parametrize("front, text, code, message", ROWS,
                         ids=[f"{r[0]}-{i}" for i, r in enumerate(ROWS)])
def test_each_diagnostic(front, text, code, message, monkeypatch):
    argv, stdin = FRONT[front](text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(argv)
    assert (got, err.getvalue(), out.getvalue()) == \
        (code, f"error: {message}\n", "")


@pytest.mark.parametrize("formula, message", [
    (Pred("chat", (LConst("rex", "ani"),)),
     "'chat' is an individual, not a predicate"),
    (Pred("dort", (LApp("rex", (LConst("rex", "ani"),)),)),
     "'rex' is an individual, not a function"),
    (Pred("dort", (LVar("x", "ani"),)), "unbound variable 'x'"),
])
def test_evaluation_errors_no_file_reaches(formula, message):
    """A model file interprets every name as a relation, and the formula
    reader binds every variable, so these come only from a model or a
    formula built in code."""
    m = Model({"ani": ("c1",)},
              {"chat": "c1", "rex": "c1", "dort": frozenset({("c1",)})})
    with pytest.raises(EvalError) as err:
        eval_formula(m, formula)
    assert str(err.value) == message
