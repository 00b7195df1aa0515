"""Seeded inputs and reference checks for the four benchmark workloads.

Each workload is a list of `Op`s built from the seed alone.  An op is either
one in-process CLI invocation (`argv`) or `tysem.normalize` on each of a
few terms (`terms`).  Its `check` compares the program's output with a
reference that does not come from the code under test: lines the README
documents, verdicts and model counts the paper's semantics fix,
closed-form normal forms, or the hand-checked files under
`perfbench/expected/`.

Ops the seed commit cannot complete (recursion cliffs, the free-constant
crash) are not part of the measured loop; they are `probes`, run once per
run and reported next to the metrics.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import TERM_FIELDS, count_nodes

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected" / "oneshot.json"


LEXICA = [f"lexica/{x}.lex" for x in ("fig1", "fig2", "chat", "homme")]
FILES = {  # lexicon and model files each workload's ops read
    "oneshot": LEXICA + ["models/chat.model"],
    "session": ["lexica/homme.lex", "lexica/chat.lex"],
    "terms": [],
    "equiv": ["models/chat.model"],
}


@dataclass
class Op:
    name: str
    argv: list[str] | None = None
    terms: list | None = None
    items: int = 0                  # sentences, input term nodes or models
    ladder: int | None = None       # size on the scaling ladder, if any
    ok_codes: tuple[int, ...] = (0,)
    check: Callable | None = None   # (rc, stdout, stderr) or (normal forms)
                                    # -> None, or what is wrong


@dataclass
class Workload:
    name: str
    next_round: Callable[[], list[Op]]
    probes: list[Op]
    items_unit: str


# ---------------------------------------------------------------------------
# discourse sessions


FAMILIES = {
    # lexicon, sort, indefinite noun, verbs, non-indefinite words
    "homme": ("lexica/homme.lex", "humain", "homme",
              ("est_entre", "a_hurle"), ("il",)),
    "chat": ("lexica/chat.lex", "ani", "chat", ("dort", "aboie"),
             ("(le chien)", "(le chien)", "(le chien)", "(le chat)")),
}


def session_lines(rng: random.Random, family: str, n: int) -> list[str]:
    """n sentences: the first introduces the referent, then exactly half of
    the rest are indefinites and half pronouns (homme) or definites (chat)
    that resolve to it.  Every choice term in the session is therefore the
    same one, which gives the discourse formula a closed form."""
    _, _, noun, verbs, others = FAMILIES[family]
    if n == 0:
        return []
    rest = n - 1
    kinds = ["indef"] * (rest // 2) + ["other"] * (rest - rest // 2)
    rng.shuffle(kinds)
    lines = [f"({rng.choice(verbs)} (un {noun}))"]
    for i, kind in enumerate(kinds):
        arg = f"(un {noun})" if kind == "indef" else others[i % len(others)]
        lines.append(f"({rng.choice(verbs)} {arg})")
    return lines


def check_session(family: str, lines: list[str]):
    """Closed-form reference for a `--session --rewrite` text report."""
    _, sort, noun, _, _ = FAMILIES[family]
    choice = f"eps[{sort}](x. {noun}(x))"
    verbs = [line[1:line.index(" ")] for line in lines]
    headers = [f"sentence {i + 1}" for i in range(len(lines))]
    if verbs:
        body = " & ".join([f"{noun}(x)"] + [f"{v}(x)" for v in verbs])
        discourse = f"discourse: exists x:{sort}. ({body})"
    else:
        discourse = "discourse: true"

    def check(rc, out, err):
        got = out.splitlines()
        if not got or got[-1] != discourse:
            return f"discourse line differs: {got[-1:]!r}"
        formulas = [g for g in got if g.startswith("formula: ")]
        expect = [f"formula: {v}({choice})" for v in verbs]
        if formulas != expect:
            return "sentence formulas differ"
        presupps = [g for g in got if g.startswith("presupposition: ")]
        if presupps != [f"presupposition: {noun}({choice})"] * len(verbs):
            return "presuppositions differ"
        if [g for g in got if g.startswith("sentence ")] != headers:
            return "sentence headers differ"
        return None
    return check


class SessionFiles:
    """Writes session files under the run's work directory; the program
    reads them through `--session`."""

    def __init__(self, work: Path, rng: random.Random):
        self.work, self.rng, self.count = work, rng, 0

    def op(self, family: str, n: int, kind: str) -> Op:
        lines = session_lines(self.rng, family, n)
        self.count += 1
        path = self.work / f"{family}-{n}-{self.count}.session"
        path.write_text("".join(line + "\n" for line in lines))
        lexicon = FAMILIES[family][0]
        return Op(f"{kind}:{family}:{n}",
                  argv=["analyze", "--lexicon", lexicon,
                        "--session", str(path), "--rewrite"],
                  items=n, ladder=n, check=check_session(family, lines))


# ---------------------------------------------------------------------------
# oneshot: README commands, check-lexicon, short sessions, tree draws


README = [
    (["analyze", "--lexicon", "lexica/fig1.lex",
      "--tree", "((un club) (a_battu Leeds))", "--rewrite"], 0, 1,
     "formula: exists x:e. (club(x) & a_battu(x,Leeds))"),
    (["analyze", "--lexicon", "lexica/fig2.lex",
      "--tree", "((et est_vaste a_vote) Liverpool)"], 0, 1,
     "normal: (and (est_vaste (t3 Liverpool)) (a_vote (t2 Liverpool)))"),
    (["analyze", "--lexicon", "lexica/fig2.lex",
      "--tree", "((et a_gagne a_vote) Liverpool)"], 2, 1, "error: "),
    (["analyze", "--lexicon", "lexica/chat.lex", "--tree", "(dort (un chat))",
      "--presuppositions", "conjoin", "--rewrite"], 0, 1,
     "formula: exists x:ani. (chat(x) & dort(x))"),
    (["analyze", "--lexicon", "lexica/homme.lex",
      "--session", "sessions/homme.session", "--rewrite"], 0, 2,
     "discourse: exists x:humain. (homme(x) & est_entre(x) & a_hurle(x))"),
    # one-element carrier c1 is the chosen cat, and it sleeps
    (["eval", "--model", "models/chat.model",
      "--formula", "(dort (eps ani x (chat x)))"], 0, 0, "true"),
    # one unary predicate over carriers of size 1..4: 2+4+8+16 models
    (["eval", "--model", "models/chat.model",
      "--formula", "(chat (eps ani x (chat x)))",
      "--equiv", "(exists (x ani) (chat x))", "--max-carrier", "4"], 0, 0,
     "equivalent (30 models)"),
    # entries, pronouns, declared sorts as written in each lexicon file
    (["check-lexicon", "lexica/fig2.lex"], 0, 0,
     "ok: 5 entries, 0 pronouns, 4 sorts"),
    (["check-lexicon", "lexica/fig1.lex"], 0, 0,
     "ok: 4 entries, 0 pronouns, 0 sorts"),
    (["check-lexicon", "lexica/chat.lex"], 0, 0,
     "ok: 7 entries, 0 pronouns, 1 sorts"),
    (["check-lexicon", "lexica/homme.lex"], 0, 0,
     "ok: 5 entries, 1 pronouns, 1 sorts"),
]


def _line_check(line: str, stream: str):
    def check(rc, out, err):
        text = out if stream == "out" else err
        if line not in text.splitlines() and not (
                line.endswith(" ") and text.startswith(line)):
            return f"missing documented line {line!r}"
        return None
    return check


def readme_op(entry, name: str) -> Op:
    argv, rc, sentences, line = entry
    return Op(name, argv=argv, items=sentences, ok_codes=(rc,),
              check=_line_check(line, "err" if rc else "out"))


README_SESSION = next(e for e in README if "--session" in e[0])


# Tree pool for the seeded draws: (lexicon, tree).  Ill-formed entries
# exercise the rejection paths (syntax exit 1, composition exit 2).
TREES = (
    [("chat", f"({v} ({d} {n}))") for d in ("un", "le", "tout")
     for n in ("chat", "chien") for v in ("dort", "aboie")]
    + [("chat", "(dort (un chat)"), ("chat", "(dort (un chat)))"),
       ("chat", "(dort chat)"), ("chat", "(miaule (un chat))"),
       ("fig1", "((un club) (a_battu Leeds))"),
       ("fig1", "(club Leeds)"), ("fig1", "((un club) Leeds)"),
       ("fig2", "((et est_vaste a_vote) Liverpool)"),
       ("fig2", "((et a_vote est_vaste) Liverpool)"),
       ("fig2", "((et a_gagne a_vote) Liverpool)"),
       ("fig2", "((et est_vaste a_gagne) Liverpool)"),
       ("fig2", "(a_gagne Liverpool)"), ("fig2", "(est_vaste Liverpool)"),
       ("homme", "(est_entre (un homme))"), ("homme", "(a_hurle (le homme))"),
       ("homme", "(a_hurle il)")])

# (format, presuppositions, rewrite) combinations drawn per tree
FLAGS = [("text", "separate", False), ("text", "conjoin", True),
         ("text", "off", False), ("sexpr", "separate", False),
         ("sexpr", "conjoin", True), ("json", "separate", False),
         ("json", "conjoin", True)]


def tree_argv(lexicon: str, tree: str, fmt: str, presupp: str,
              rewrite: bool) -> list[str]:
    argv = ["analyze", "--lexicon", f"lexica/{lexicon}.lex", "--tree", tree,
            "--format", fmt, "--presuppositions", presupp]
    return argv + ["--rewrite"] if rewrite else argv


def expected_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def _expected_check(want: dict):
    def check(rc, out, err):
        if rc != want["rc"] or out != want["stdout"]:
            return f"output differs from the expected file (rc {rc})"
        if err != want["stderr"]:
            return f"diagnostic differs: {err[:80]!r}"
        return None
    return check


def oneshot(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    expected = load_expected()
    sessions = SessionFiles(work, rng)
    ladder = {n: [sessions.op(fam, n, "oneshot") for fam in FAMILIES
                  for _ in range(4)] for n in (0, 4, 8, 16, 32)}
    fixed = [readme_op(entry, "readme:" + entry[0][0]) for entry in README]
    # one Op per distinct draw, so the run's memory does not grow with the
    # number of ops it completes
    draws = {}
    for lexicon, tree in TREES:
        for flags in FLAGS:
            argv = tree_argv(lexicon, tree, *flags)
            want = expected[expected_key(argv)]
            draws[lexicon, tree, flags] = Op(
                "tree:" + lexicon, argv=argv, items=1,
                ok_codes=(want["rc"],), check=_expected_check(want))

    def next_round() -> list[Op]:
        ops = list(fixed)
        for n, pool in ladder.items():
            ops.extend(rng.sample(pool, 2))
        for _ in range(24):
            ops.append(draws[(*rng.choice(TREES), rng.choice(FLAGS))])
        return ops

    return Workload("oneshot", next_round, [], "sentences")


# ---------------------------------------------------------------------------
# session: the size ladder the seed completes, plus the 640 cliff as probe

# Twelve sizes from 40 to 320 sentences, evenly spaced in log scale.
SESSION_LADDER = tuple(round(40 * 8 ** (j / 11)) for j in range(12))
SESSION_PROBE = 640


def session(seed: int, work: Path) -> Workload:
    """Each round runs every ladder size for both families (three seeded
    variants each, in turn) plus the README session: 25 ops.  With an odd
    number of distinct ops per round the median and p90 fall in the middle
    of one op's samples, not in the gap between two ops."""
    rng = random.Random(seed)
    files = SessionFiles(work, rng)
    pools = [[files.op(fam, n, "session") for _ in range(3)]
             for fam in FAMILIES for n in SESSION_LADDER]
    readme = readme_op(README_SESSION, "session:readme")
    rounds = itertools.count()

    def next_round() -> list[Op]:
        i = next(rounds)
        return [readme] + [pool[i % len(pool)] for pool in pools]

    probes = [files.op(fam, SESSION_PROBE, "probe") for fam in FAMILIES]
    return Workload("session", next_round, probes, "sentences")


# ---------------------------------------------------------------------------
# terms: redex chains with closed-form normal forms, and TermGen terms


CHAIN_LADDER = (100, 200, 400)
CHAIN_PROBES = (800, 1600)


def _balanced_and(k, atoms):
    """Balanced conjunction tree over atoms, kept shallow so that only the
    application spine of a chain is deep."""
    if len(atoms) == 1:
        return atoms[0]
    mid = len(atoms) // 2
    return k.App(k.App(k.Const("and", k.arrow(k.T, k.T, k.T)),
                       _balanced_and(k, atoms[:mid])),
                 _balanced_and(k, atoms[mid:]))


def redex_chain(k, rng: random.Random, n: int):
    """((lam x1 .. (lam xn B)) a1 .. an) with B a balanced conjunction of
    p(xi): n beta redexes on one spine.  Its normal form, B with each xi
    replaced by ai, has no binders, so `==` compares it exactly."""
    ani = k.BaseSort("ani")
    pred = k.Const(rng.choice(("chat", "dort")), k.Arrow(ani, k.T))
    names = [f"x{i}" for i in range(1, n + 1)]
    args = [k.Const(rng.choice(("fido", "rex")), ani) for _ in names]
    body = _balanced_and(k, [k.App(pred, k.Var(x, ani)) for x in names])
    normal = _balanced_and(k, [k.App(pred, a) for a in args])
    term = body
    for x in reversed(names):
        term = k.Lam(x, ani, term)
    for a in args:
        term = k.App(term, a)
    return term, normal


def _chain_op(k, rng, n: int, kind: str) -> Op:
    term, normal = redex_chain(k, rng, n)
    return Op(f"{kind}:chain:{n}", terms=[term],
              items=count_nodes(term, TERM_FIELDS),
              ladder=n, check=lambda out: None if out == [normal]
              else "normal form differs from the closed form")


def termgen_check(k, ctx, terms):
    """Type preservation and lo/ri confluence for generated terms."""
    before = [k.type_of(ctx, t) for t in terms]

    def check(out):
        for term, ty, normal in zip(terms, before, out):
            if k.type_of(ctx, normal) != ty:
                return "normalization changed the type"
            if not k.alpha_eq(normal, k.normalize(term, "ri")):
                return "lo and ri normal forms differ"
        return None
    return check


def terms(seed: int, work: Path, generators) -> Workload:
    from tysem import kernel as k

    rng = random.Random(seed)
    ctx = generators.generator_context()
    chains = [_chain_op(k, rng, n, "terms") for n in CHAIN_LADDER]

    def next_round() -> list[Op]:
        gen = generators.TermGen(rng.randrange(2 ** 32))
        ops = list(chains)
        for _ in range(2):
            # batches: single generated terms range from one node to a
            # hundred, and a batch's time varies far less
            batch = [gen.random_term(12) for _ in range(20)]
            ops.append(Op("terms:termgen", terms=batch,
                          items=sum(count_nodes(t, TERM_FIELDS)
                                    for t in batch),
                          check=termgen_check(k, ctx, batch)))
        return ops

    probes = [_chain_op(k, rng, n, "probe") for n in CHAIN_PROBES]
    return Workload("terms", next_round, probes, "term nodes")


# ---------------------------------------------------------------------------
# equiv: formula pairs whose verdicts the paper fixes


def models_for(k: int, arities: list[int]) -> int:
    """Models over one sort with carriers 1..k and every extension of the
    given predicates: sum over n of prod 2^(n^arity)."""
    return sum(2 ** sum(n ** a for a in arities) for n in range(1, k + 1))


def _equiv_op(name, f1, f2, k, check, items=0, ladder=None, ok=(0,)):
    return Op(name, argv=["eval", "--model", "models/chat.model",
                          "--formula", f1, "--equiv", f2,
                          "--max-carrier", str(k)],
              items=items, ladder=ladder, ok_codes=ok, check=check)


def _verdict(models: int):
    line = f"equivalent ({models} models)"
    return lambda rc, out, err: (None if out.strip() == line
                                 else f"expected {line!r}")


# The referential reading entails but is not entailed by the rewrite.  The
# first counter-model in enumeration order (hand-derived): carrier size 1
# gives 4 agreeing models; at size 2 the predicate extensions run
# [], {1}, {2}, {1,2} in that order, and with P={1,2} the choice picks
# element 1, so Q={2} is the first disagreement: 4 + 3*4 + 3 = 19 models.
REFERENTIAL = """not equivalent after 19 models; counter-model:
(model
  (carrier {s} ({s}1 {s}2))
  (interp {p} (({s}1) ({s}2)))
  (interp {q} (({s}2))))
"""


EQUIV_REPEATS = 4


def equiv(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    s = rng.choice(("s", "d", "u"))
    # predicates enumerate in sorted order, the restriction p first
    p, q = sorted(rng.sample(("A", "B", "P", "Q", "chat", "dort"), 2))
    r = rng.choice(("R", "aime", "voit"))
    ops = []
    for k in range(6, 11):
        m = models_for(k, [1])
        ops.append(_equiv_op(f"equiv:eps:{k}", f"({p} (eps {s} x ({p} x)))",
                             f"(exists (x {s}) ({p} x))", k, _verdict(m),
                             m, m))
        ops.append(_equiv_op(f"equiv:tau:{k}", f"({p} (tau {s} x ({p} x)))",
                             f"(forall (x {s}) ({p} x))", k, _verdict(m),
                             m, m))
    both = f"(and ({p} x) ({q} x))"
    for k in range(4, 7):
        m = models_for(k, [1, 1])
        choice = f"(eps {s} x {both})"
        ops.append(_equiv_op(f"equiv:conj:{k}",
                             f"(and ({p} {choice}) ({q} {choice}))",
                             f"(exists (x {s}) {both})", k, _verdict(m),
                             m, m))
    m3 = models_for(3, [2])
    ops.append(_equiv_op("equiv:binary:3",
                         f"({r} (eps {s} x ({r} x x)) (eps {s} x ({r} x x)))",
                         f"(exists (x {s}) ({r} x x))", 3, _verdict(m3),
                         m3, m3))
    # B(x) = exists y R(x,y); R(a, eps_y R(a,y)) with a = eps_x B(x)
    outer = f"(eps {s} x (exists (y {s}) ({r} x y)))"

    def nested(k):
        m = models_for(k, [2])
        return _equiv_op(f"equiv:nested:{k}",
                         f"({r} {outer} (eps {s} y ({r} {outer} y)))",
                         f"(exists (x {s}) (exists (y {s}) ({r} x y)))", k,
                         _verdict(m), m, m)
    ops.append(nested(3))
    choice = f"(eps {s} x ({p} x))"
    counter = REFERENTIAL.format(s=s, p=p, q=q)
    ops.append(_equiv_op(
        "equiv:referential", f"(and ({p} {choice}) ({q} {choice}))",
        f"(exists (x {s}) (and ({p} x) ({q} x)))", 4,
        lambda rc, out, err: None if out == counter
        else "counter-model differs", items=19))
    ops.append(_equiv_op(
        "equiv:henkin",
        f"(forall (y {s}) ({q} (eps {s} x (and ({p} x) ({p} y)))))",
        f"(forall (y {s}) ({q} y))", 3,
        lambda rc, out, err: None if "Henkin" in err and not out
        else "missing Henkin diagnostic", ok=(1,)))

    def free_constant(rc, out, err):
        if rc == 0 and out.startswith("equivalent"):
            return None
        if rc == 1 and err.startswith("error: "):
            return None
        return "neither a verdict nor a diagnostic"

    # The nested pair at k=4 (66,066 models, over 5 s) runs once per run,
    # after the loop: in the loop it took 80% of the busy time from two to
    # four samples a run, and the throughput figures spread by 21%.
    probes = [_equiv_op("probe:free-constant", f"({p} felix)", f"({p} felix)",
                        2, free_constant, ok=(0, 1)), nested(4)]
    # The enumeration checks repeat, so that the latency percentiles, which
    # fall among them, rest on more samples per run; the referential and
    # Henkin pairs run once.  That puts the median inside the cluster of
    # 17-30 ms checks (conj:4, binary:3, eps:9) rather than at its edge.
    once = ("equiv:referential", "equiv:henkin")
    ladder = [op for op in ops if op.name not in once]
    rest = [op for op in ops if op.name in once]
    return Workload("equiv", lambda: ladder * EQUIV_REPEATS + rest, probes,
                    "models checked")


NAMES = ("oneshot", "session", "terms", "equiv")
