"""Sessions with many discourse referents.

The lexicon has one sort `ani`, K nouns `n0`..`n{K-1}`, four verbs
`v0`..`v3`, the determiners `un` and `le` of `lexica/chat.lex` and the
pronoun `il`.  A session of N lines, with K = max(1, N // 4), draws each
line from a generator seeded with N: 40% `(vJ (un nI))`, 40% `(vJ (le nI))`
and 20% `(vJ il)`.  The first line is an indefinite, so that `il` always
has a referent.  Such a discourse has about K choice terms, and with
`--rewrite` about one existential per noun.
"""

import random

VERBS = ("v0", "v1", "v2", "v3")


def nouns(n: int) -> int:
    return max(1, n // 4)


def lexicon_text(k: int) -> str:
    lines = ["(sort ani)"]
    lines += [f"(const n{i} (-> ani t))" for i in range(k)]
    lines += [f"(const {v} (-> ani t))" for v in VERBS]
    lines += ['(entry "un" (principal eps) (mode indefinite))',
              '(entry "le" (principal ieps) (mode definite))']
    lines += [f'(entry "n{i}" (principal n{i}))' for i in range(k)]
    lines += [f'(entry "{v}" (principal {v}))' for v in VERBS]
    lines.append('(pronoun "il" ani)')
    return "\n".join(lines) + "\n"


def session_lines(n: int) -> list[str]:
    rng = random.Random(n)
    k = nouns(n)
    lines = [f"({VERBS[0]} (un n0))"]
    for _ in range(n - 1):
        verb, roll = rng.choice(VERBS), rng.random()
        if roll < 0.4:
            lines.append(f"({verb} (un n{rng.randrange(k)}))")
        elif roll < 0.8:
            lines.append(f"({verb} (le n{rng.randrange(k)}))")
        else:
            lines.append(f"({verb} il)")
    return lines
