"""What a fresh tysem process imports and builds before its command runs.

Each check runs in a new interpreter that writes no bytecode cache, as a
first run of `tysem` does: `analyze` and `check-lexicon` leave the model
checker (`tysem.model`) unimported, `eval` imports it on first use, and
importing the package imports neither `dataclasses` nor the `inspect` it
needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

README_EQUIV = ["eval", "--model", "models/chat.model",
                "--formula", "(chat (eps ani x (chat x)))",
                "--equiv", "(exists (x ani) (chat x))", "--max-carrier", "4"]


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_only_eval_imports_the_model_checker():
    out = run_fresh(f"""
import contextlib, io, json, sys
import tysem, tysem.cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tysem.cli.main(argv)
    return rc, out.getvalue()

ran = [run(argv)[0] for argv in (
    ["analyze", "--lexicon", "lexica/chat.lex", "--tree", "(dort (un chat))"],
    ["analyze", "--lexicon", "lexica/homme.lex",
     "--session", "sessions/homme.session", "--rewrite", "--format", "json"],
    ["check-lexicon", "lexica/fig2.lex"])]
before = "tysem.model" in sys.modules
rc, verdict = run({README_EQUIV!r})
print(json.dumps([ran, before, rc, verdict, "tysem.model" in sys.modules]))
""")
    ran, before, rc, verdict, after = json.loads(out)
    assert ran == [0, 0, 0]
    assert not before
    assert (rc, verdict, after) == (0, "equivalent (30 models)\n", True)


def test_a_name_set_before_the_first_eval_is_kept():
    out = run_fresh("""
import tysem.cli
tysem.cli.print_model = lambda m: "counter-model printed by the patch"
tysem.cli.main(["eval", "--model", "models/chat.model",
                "--formula", "(chat (eps ani x (chat x)))",
                "--equiv", "(forall (x ani) (chat x))", "--max-carrier", "2"])
""")
    assert out.splitlines()[-1] == "counter-model printed by the patch"


def test_every_public_name_resolves():
    out = run_fresh("""
import json
import tysem
names = {}
exec("from tysem import *", names)
print(json.dumps({
    "all": tysem.__all__,
    "star": sorted(n for n in names if n != "__builtins__"),
    "same": all(names[n] is getattr(tysem, n) for n in tysem.__all__),
    "model": tysem.Model is tysem.model.Model,
}))
""")
    doc = json.loads(out)
    assert doc["star"] == sorted(doc["all"])
    assert doc["same"] and doc["model"]


def test_importing_tysem_imports_no_dataclasses():
    out = run_fresh("""
import sys
import tysem, tysem.cli, tysem.model
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
""")
    assert out.strip() == "[]"
