"""Regenerate perfbench/expected/oneshot.json, the expected output of every
tree draw the `oneshot` workload can make.

    python3 perfbench/make_expected.py

Run it only on a commit whose outputs have been checked by hand: the file
is the reference the benchmark compares the program against.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402


def main():
    from tysem.cli import main as tysem
    expected = {}
    for lexicon, tree in W.TREES:
        for flags in W.FLAGS:
            argv = W.tree_argv(lexicon, tree, *flags)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = tysem(argv)
            expected[W.expected_key(argv)] = {
                "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    W.EXPECTED.parent.mkdir(exist_ok=True)
    W.EXPECTED.write_text(json.dumps(expected, indent=1, ensure_ascii=False)
                          + "\n", encoding="utf-8")
    print(f"wrote {len(expected)} entries to {W.EXPECTED.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
