"""Golden outputs: every command below must print exactly what it printed
when `tests/golden.json` was written.

Each command runs through `cli.main` in-process.  The file maps a stable
name per command (its argv, with `@name` for a generated session or lexicon
file) to the sha256 of its exit code, stdout and stderr.  The commands are:

- the README commands;
- every tree and flag combination of `perfbench/expected/oneshot.json`;
- every tree of two or three leaves over `lexica/fig2.lex`'s five words,
  which pins each error they reach: a non-function applied, a sort clash,
  type variables left undetermined, and a sentence not of type t (the
  README's four-leaf tree pins the rigidity error);
- trees over a generated lexicon whose coercions are ambiguous and whose
  functions take Pi types;
- 40-sentence `homme` and `chat` sessions in every format, presupposition
  mode and flag set;
- sessions in which a repeated sentence meets another discourse (so a
  replayed composition must miss);
- `--rewrite` sessions of 250 and 500 sentences with many referents
  (`tests/referents.py`), in which a rewrite fires once per noun;
- `eval --equiv` on the paper's pairs and on inputs that it rejects.

Regenerate the file only on a commit whose outputs are known to be right:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import referents

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
ONESHOT = REPO / "perfbench" / "expected" / "oneshot.json"

README = [
    ["analyze", "--lexicon", "lexica/fig1.lex",
     "--tree", "((un club) (a_battu Leeds))", "--rewrite"],
    ["analyze", "--lexicon", "lexica/fig2.lex",
     "--tree", "((et est_vaste a_vote) Liverpool)"],
    ["analyze", "--lexicon", "lexica/fig2.lex",
     "--tree", "((et a_gagne a_vote) Liverpool)"],
    ["analyze", "--lexicon", "lexica/chat.lex", "--tree", "(dort (un chat))",
     "--presuppositions", "conjoin", "--rewrite"],
    ["analyze", "--lexicon", "lexica/homme.lex",
     "--session", "sessions/homme.session", "--rewrite"],
    ["eval", "--model", "models/chat.model",
     "--formula", "(dort (eps ani x (chat x)))"],
    ["eval", "--model", "models/chat.model",
     "--formula", "(chat (eps ani x (chat x)))",
     "--equiv", "(exists (x ani) (chat x))", "--max-carrier", "4"],
] + [["check-lexicon", f"lexica/{x}.lex"]
     for x in ("fig1", "fig2", "chat", "homme")]

_TREE_KEY = re.compile(r"analyze --lexicon (\S+) --tree (.*) --format (\S+) "
                       r"--presuppositions (\S+)( --rewrite)?")


def oneshot_commands() -> list[list[str]]:
    out = []
    for key in json.loads(ONESHOT.read_text(encoding="utf-8")):
        lexicon, tree, fmt, mode, rewrite = _TREE_KEY.fullmatch(key).groups()
        out.append(["analyze", "--lexicon", lexicon, "--tree", tree,
                    "--format", fmt, "--presuppositions", mode]
                   + (["--rewrite"] if rewrite else []))
    return out


FIG2_WORDS = ("Liverpool", "est_vaste", "a_vote", "a_gagne", "et")


def fig2_tree_commands() -> list[list[str]]:
    """Every tree of two or three leaves over fig2's words: (a b),
    ((a b) c) and (a (b c))."""
    w = FIG2_WORDS
    trees = [f"({a} {b})" for a, b in itertools.product(w, w)]
    trees += [t for a, b, c in itertools.product(w, w, w)
              for t in (f"(({a} {b}) {c})", f"({a} ({b} {c}))")]
    return [["analyze", "--lexicon", "lexica/fig2.lex", "--tree", tree]
            for tree in trees]


# Errors no file under lexica/ reaches: a coercion choice that is ambiguous
# for a monomorphic and for a polymorphic function, and Pi-typed domains
# that meet an alpha-variant or an equal type.
INLINE_LEXICA = {
    "piambig": """
(sort T) (sort P)
(const ville T)
(entry "ville" (principal ville)
  (option u1 (-> T P) flexible)
  (option u2 (-> T P) flexible))
(const grand (-> P t))
(entry "grand" (principal grand))
(const compte (pi a (-> P (-> a t))))
(entry "compte" (principal compte))
(const f (-> (pi a (-> a a)) t))
(entry "f" (principal f))
(entry "g" (principal (tylam b (lam x b x))))
(entry "g2" (principal (tylam a (lam x a x))))
""",
}


def inline_lexicon_commands() -> list[list[str]]:
    return [["analyze", "--lexicon", "@piambig", "--tree", tree]
            for tree in ("(grand ville)", "(compte ville)", "(f g)",
                         "(f g2)")]


def session_lines(family: str) -> list[str]:
    """40 sentences mixing indefinites, definites, pronouns and (chat)
    universals, so that they compose to many distinct terms."""
    rng = random.Random(family)
    if family == "homme":
        verbs, subjects = ("est_entre", "a_hurle"), \
            ("(un homme)", "il", "(le homme)")
    else:
        verbs, subjects = ("dort", "aboie"), tuple(
            f"({d} {n})" for d in ("un", "le", "tout")
            for n in ("chat", "chien"))
    lines = [f"({verbs[0]} {subjects[0]})"]
    lines += [f"({rng.choice(verbs)} {rng.choice(subjects)})"
              for _ in range(39)]
    return lines


SESSION_FLAGS = [[], ["--rewrite"], ["--trace"], ["--rewrite", "--trace"],
                 ["--style", "unicode", "--rewrite"]]


def session_commands() -> list[list[str]]:
    return [["analyze", "--lexicon", f"lexica/{family}.lex",
             "--session", f"@{family}40", "--format", fmt,
             "--presuppositions", mode] + flags
            for family in ("homme", "chat")
            for fmt in ("text", "sexpr", "json")
            for mode in ("separate", "conjoin", "off")
            for flags in SESSION_FLAGS]


# Repeated sentences whose discourse reads change answer: `(aboie (le
# chien))` resolves by sort to the chat, then by restriction once `(un
# chien)` has come; the homme session opens with a definite that registers
# its own referent, which `il` copies until `(un homme)` comes.
MISS_SESSIONS = {
    "chatmiss": ["(dort (un chat))", "(aboie (le chien))",
                 "(aboie (le chien))", "(dort (un chien))",
                 "(aboie (le chien))", "(dort (un chat))",
                 "(aboie (le chien))", "(dort (le chat))",
                 "(aboie (un chien))", "(aboie (le chien))"],
    "hommemiss": ["(a_hurle (le homme))", "(est_entre il)",
                  "(a_hurle (le homme))", "(est_entre (un homme))",
                  "(est_entre il)", "(a_hurle (le homme))",
                  "(est_entre (un homme))", "(a_hurle il)",
                  "(est_entre il)", "(a_hurle (le homme))"],
}


def miss_commands() -> list[list[str]]:
    return [["analyze", "--lexicon", f"lexica/{name[:-4]}.lex",
             "--session", f"@{name}", "--format", fmt] + flags
            for name in MISS_SESSIONS
            for fmt in ("text", "sexpr", "json")
            for flags in ([], ["--rewrite"])]


REFERENT_SIZES = (250, 500)


def referent_commands() -> list[list[str]]:
    return [["analyze", "--lexicon", f"@nouns{referents.nouns(n)}",
             "--session", f"@referents{n}", "--format", fmt,
             "--presuppositions", mode, "--rewrite"]
            for n in REFERENT_SIZES
            for fmt in ("text", "sexpr")
            for mode in ("separate", "off")]


PAPER_PAIRS = [
    ("(P (eps s x (P x)))", "(exists (x s) (P x))"),
    ("(P (tau s x (P x)))", "(forall (x s) (P x))"),
    ("(and (P (eps s x (and (P x) (Q x)))) (Q (eps s x (and (P x) (Q x)))))",
     "(exists (x s) (and (P x) (Q x)))"),
    ("(R (eps s x (R x x)) (eps s x (R x x)))", "(exists (x s) (R x x))"),
    ("(R (eps s x (exists (y s) (R x y))) "
     "(eps s y (R (eps s x (exists (y s) (R x y))) y)))",
     "(exists (x s) (exists (y s) (R x y)))"),
    # the referential reading: not equivalent, with a counter-model
    ("(and (P (eps s x (P x))) (Q (eps s x (P x))))",
     "(exists (x s) (and (P x) (Q x)))"),
]

REJECTED_PAIRS = [
    # free constants and function symbols, the outer one first
    ("(P c)", "(exists (x s) (P x))"),
    ("(P (f c))", "(exists (x s) (P x))"),
    ("(P (eps s x (P x)))", "(exists (x s) (P (g x)))"),
    # a predicate used with two signatures, in one formula or across two
    ("(and (P (eps s x (P x x))) (Q c))", "(exists (x s) (P x))"),
    ("(and (Q c) (P (eps s x (P x x))))", "(exists (x s) (P x))"),
    ("(P (eps s x (P x)))", "(exists (x s) (exists (y t) (P x y)))"),
    ("(exists (x s) (P x))", "(exists (x t) (P x))"),
    # hat_<sort> is carrier membership
    ("(hat_s (eps s x (P x)))", "(exists (x s) (hat_s x))"),
]


def equiv_commands() -> list[list[str]]:
    out = []
    for (f1, f2), k in itertools.product(PAPER_PAIRS, (1, 2, 3)):
        out.append(["eval", "--model", "models/chat.model", "--formula", f1,
                    "--equiv", f2, "--max-carrier", str(k)])
    for f1, f2 in REJECTED_PAIRS:
        out.append(["eval", "--model", "models/chat.model", "--formula", f1,
                    "--equiv", f2, "--max-carrier", "2"])
    return out


def commands() -> dict[str, list[str]]:
    every = README + oneshot_commands() + fig2_tree_commands() + \
        inline_lexicon_commands() + session_commands() + miss_commands() + \
        referent_commands() + equiv_commands()
    named = {" ".join(argv): argv for argv in every}
    assert len(named) == len(every), "two commands share a name"
    return named


def digests() -> dict[str, str]:
    from tysem.cli import main

    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for family in ("homme", "chat"):
            path = Path(tmp) / f"{family}40.session"
            path.write_text("\n".join(session_lines(family)) + "\n",
                            encoding="utf-8")
            files[f"@{family}40"] = str(path)
        for name, lines in MISS_SESSIONS.items():
            path = Path(tmp) / f"{name}.session"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            files[f"@{name}"] = str(path)
        for n in REFERENT_SIZES:
            k = referents.nouns(n)
            texts = {f"referents{n}.session":
                     "\n".join(referents.session_lines(n)) + "\n",
                     f"nouns{k}.lex": referents.lexicon_text(k)}
            for file, text in texts.items():
                path = Path(tmp) / file
                path.write_text(text, encoding="utf-8")
                files["@" + file.split(".")[0]] = str(path)
        for name, text in INLINE_LEXICA.items():
            path = Path(tmp) / f"{name}.lex"
            path.write_text(text, encoding="utf-8")
            files[f"@{name}"] = str(path)
        os.chdir(REPO)
        try:
            for name, argv in commands().items():
                argv = [files.get(a, a) for a in argv]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    rc = main(argv)
                blob = json.dumps([rc, stdout.getvalue(), stderr.getvalue()],
                                  ensure_ascii=False)
                out[name] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        finally:
            os.chdir(cwd)
    return out


def test_outputs_match_the_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want), "the command set changed"
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, f"{len(differ)} outputs differ, first: {differ[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, ensure_ascii=False)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(REPO)}", file=sys.stderr)
