"""The in-process cost of each further sentence of a session.

    PYTHONPATH=src python tests/per_sentence.py [--repeat N] [--seed S]

For each of the benchmark's two session families (homme, whose
non-indefinite sentences take a pronoun, and chat, whose take a definite)
this writes sessions of 40 and 320 sentences, shaped as the benchmark's,
and times `tysem.cli.main(["analyze", ..., "--session", FILE,
"--rewrite"])` on each, in this process, taking the best of N runs.  It
does the same for `tests/referents.py` sessions of 500 and 2,000
sentences, with many referents and many sentences whose stored
compositions miss, which the benchmark has no workload for, taking the
best of 5 runs.  It prints, per family, t at the smaller size, the cost of
each further sentence, (t(large) - t(small)) / (large - small), and the
collections of generation 0 that the cyclic garbage collector runs per
op of the larger size, counted with `gc.callbacks` over its runs, as a
Markdown table.  It uses only the standard library and tysem.
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
REFERENTS_SIZES = (500, 2_000)

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
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for family in FAMILIES:
            rng = random.Random(seed)
            runs = {}
            for n in SIZES:
                path = Path(work) / f"{family}-{n}.session"
                path.write_text("".join(
                    line + "\n" for line in session_lines(rng, family, n)))
                runs[n] = argv(family, path)
            out[family] = _time(runs, repeat)
    return out


def measure_referents(repeat: int = 5) -> tuple[float, float, float]:
    """As `measure`, on `tests/referents.py` sessions of 500 and 2,000
    sentences, each with its own lexicon."""
    import referents

    runs = {}
    with tempfile.TemporaryDirectory() as work:
        for n in REFERENTS_SIZES:
            lexicon = Path(work) / f"referents-{n}.lex"
            lexicon.write_text(referents.lexicon_text(referents.nouns(n)))
            path = Path(work) / f"referents-{n}.session"
            path.write_text("".join(
                line + "\n" for line in referents.session_lines(n)))
            runs[n] = ["analyze", "--lexicon", str(lexicon), "--session",
                       str(path), "--rewrite"]
        return _time(runs, repeat)


def _time(runs: dict[int, list[str]], repeat: int
          ) -> tuple[float, float, float]:
    """(t at the smaller size in ms, per-sentence cost in us), best of
    `repeat` runs of each of the two sizes of `runs`, in turn, and the
    generation-0 collections per run of the larger size."""
    from tysem.cli import main

    collections = [0]

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            collections[0] += 1

    best = dict.fromkeys(runs, float("inf"))
    lo, hi = sorted(runs)
    for _ in range(repeat):
        for n in (lo, hi):
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
                raise SystemExit(f"{runs[n]}: exit {rc}")
            best[n] = min(best[n], elapsed)
    return (best[lo] * 1e3, (best[hi] - best[lo]) / (hi - lo) * 1e6,
            collections[0] / repeat)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=300,
                    help="runs per session size of the benchmark's "
                         "families; the best is kept")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    lo, hi = SIZES
    rows = {f"{family} ({lo}, {hi})": row
            for family, row in measure(args.repeat, args.seed).items()}
    lo, hi = REFERENTS_SIZES
    rows[f"referents ({lo}, {hi})"] = measure_referents()
    print("| family (sizes) | t(small) ms | per sentence us "
          "| gen-0 collections per op of the larger size |")
    print("|---|---|---|---|")
    for family, (t0, per, gen0) in rows.items():
        print(f"| {family} | {t0:.3f} | {per:.3f} | {gen0:.3f} |")


if __name__ == "__main__":
    main()
