"""The in-process cost of each further sentence of a session.

    PYTHONPATH=src python tests/per_sentence.py [--repeat N] [--seed S]

For each of the benchmark's two session families (homme, whose
non-indefinite sentences take a pronoun, and chat, whose take a definite)
this writes sessions of 40 and 320 sentences, shaped as the benchmark's,
and times `tysem.cli.main(["analyze", ..., "--session", FILE,
"--rewrite"])` on each, in this process, taking the best of N runs.  It
prints, per family, t(40), the cost of each further sentence,
(t(320) - t(40)) / 280, and the collections of generation 0 that the
cyclic garbage collector runs per 320-sentence op, counted with
`gc.callbacks` over the N runs of that op, as a Markdown table.  It uses
only the standard library and tysem.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import random
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIZES = (40, 320)

FAMILIES = {
    # lexicon, indefinite noun, verbs, non-indefinite arguments
    "homme": ("lexica/homme.lex", "homme", ("est_entre", "a_hurle"),
              ("il",)),
    "chat": ("lexica/chat.lex", "chat", ("dort", "aboie"),
             ("(le chien)", "(le chien)", "(le chien)", "(le chat)")),
}


def session_lines(rng: random.Random, family: str, n: int) -> list[str]:
    """n sentences: the first an indefinite, then, shuffled, half the rest
    indefinites and half pronouns (homme) or definites (chat), all about
    one referent."""
    _, noun, verbs, others = FAMILIES[family]
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


def argv(family: str, path: Path) -> list[str]:
    return ["analyze", "--lexicon", str(REPO / FAMILIES[family][0]),
            "--session", str(path), "--rewrite"]


def measure(repeat: int, seed: int
            ) -> dict[str, tuple[float, float, float]]:
    """family -> (t(40) in ms, per-sentence cost in us, best of `repeat`;
    generation-0 collections per run of the longest session)."""
    from tysem.cli import main

    out = {}
    collections = [0]

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            collections[0] += 1

    with tempfile.TemporaryDirectory() as work:
        for family in FAMILIES:
            rng = random.Random(seed)
            runs = {}
            for n in SIZES:
                path = Path(work) / f"{family}-{n}.session"
                path.write_text("".join(
                    line + "\n" for line in session_lines(rng, family, n)))
                runs[n] = argv(family, path)
            best = dict.fromkeys(SIZES, float("inf"))
            lo, hi = SIZES
            collections[0] = 0
            for _ in range(repeat):
                for n in SIZES:
                    sink = io.StringIO()
                    if n == hi:
                        gc.callbacks.append(count)
                    try:
                        with contextlib.redirect_stdout(sink):
                            start = time.perf_counter()
                            rc = main(runs[n])
                            elapsed = time.perf_counter() - start
                    finally:
                        if n == hi:
                            gc.callbacks.remove(count)
                    if rc != 0:
                        raise SystemExit(f"{family} {n}: exit {rc}")
                    best[n] = min(best[n], elapsed)
            out[family] = (best[lo] * 1e3,
                           (best[hi] - best[lo]) / (hi - lo) * 1e6,
                           collections[0] / repeat)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=300,
                    help="runs per session size; the best is kept")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print(f"| family | t({SIZES[0]}) ms | per sentence us "
          f"| gen-0 collections per {SIZES[1]}-sentence op |")
    print("|---|---|---|---|")
    for family, (t0, per, gen0) in measure(args.repeat, args.seed).items():
        print(f"| {family} | {t0:.3f} | {per:.3f} | {gen0:.3f} |")


if __name__ == "__main__":
    main()
