"""What a fresh tysem process imports and builds before its command runs.

Each check runs in a new interpreter that writes no bytecode cache, as a
first run of `tysem` does.  Importing the package imports none of its
modules, `tysem.cli` imports `tysem.errors` alone, and each command imports
the modules it runs: `eval` the formulas and the model checker, and
`check-lexicon` the lexicon, neither the composer nor the discourse state.
The functions the tests call directly work without `main` having run, and
importing the package imports neither `dataclasses` nor the `inspect` it
needs.  No module of the package imports a name it never uses.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


SHARED = {"tysem", "tysem.cli", "tysem.errors", "tysem.kernel", "tysem.node",
          "tysem.sexpr"}
MODULES_LEFT = [
    ("import tysem", {"tysem"}),
    ("import tysem.cli", {"tysem", "tysem.cli", "tysem.errors"}),
    (f"import tysem.cli; assert tysem.cli.main({README_EQUIV!r}) == 0",
     SHARED | {"tysem.logic", "tysem.model"}),
    ("import tysem.cli; "
     "assert tysem.cli.main(['check-lexicon', 'lexica/fig2.lex']) == 0",
     SHARED | {"tysem.lexicon"}),
    ("import tysem.cli; assert tysem.cli.main(['analyze', '--lexicon', "
     "'lexica/chat.lex', '--tree', '(dort (un chat))']) == 0",
     SHARED | {"tysem.composer", "tysem.discourse", "tysem.lexicon",
               "tysem.logic"}),
]


@pytest.mark.parametrize("code, modules", MODULES_LEFT,
                         ids=["tysem", "cli", "eval", "check-lexicon",
                              "analyze"])
def test_each_command_imports_only_its_modules(code, modules):
    out = run_fresh(f"""
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    {code}
print(json.dumps(sorted(m for m in sys.modules
                        if m == "tysem" or m.startswith("tysem."))))
""")
    assert json.loads(out) == sorted(modules)


# one sentence analyzed through the modules, not through tysem.cli, so no
# name of tysem.cli is bound before the entry point runs
ONE_SENTENCE = """
import json
from tysem import cli
from tysem.composer import compose, parse_tree
from tysem.discourse import DiscourseState
from tysem.kernel import normalize
from tysem.lexicon import load_lexicon
from tysem.logic import extract_formula, parse_formula, print_formula
lex = load_lexicon(open("lexica/chat.lex", encoding="utf-8").read())
tree = parse_tree("(dort (un chat))")
composed = compose(tree, lex, DiscourseState())
normal = normalize(composed.term)
f = extract_formula(normal, lex.typing_context(), composed.type)
r = cli.AnalysisResult(tree, composed.term, normal, [], composed.report, f, f,
                       composed.log)
options = cli.AnalysisOptions()
out = []
"""
TEXT_REPORT = ["tree: (dort (un chat))",
               "term: (dort ((tyapp eps ani) chat))",
               "normal: (dort ((tyapp eps ani) chat))",
               "presupposition: chat(eps[ani](x. chat(x)))",
               "formula: dort(eps[ani](x. chat(x)))"]
ENTRY_POINTS = [
    ("cli.analyze_tree(lex, tree, DiscourseState(), options)[0] == r", True),
    ("[print_formula(p) for p in r.presupposition_list]",
     ["chat(eps[ani](x. chat(x)))"]),
    ("print_formula(cli.discourse_formula([r], options))",
     "chat(eps[ani](x. chat(x))) & dort(eps[ani](x. chat(x)))"),
    # each report goes into `out` as one string of lines
    ("cli._text_report(r, options, out) or out", ["\n".join(TEXT_REPORT)]),
    ("cli._sexpr_report(r, options, out) or out",
     ["(tree (dort (un chat)))\n(term (dort ((tyapp eps ani) chat)))\n"
      "(normal (dort ((tyapp eps ani) chat)))\n"
      "(presupposition (chat (eps ani x (chat x))))\n"
      "(formula (dort (eps ani x (chat x))))"]),
    ("cli._json_report(r, options)['presuppositions']",
     ["chat(eps[ani](x. chat(x)))"]),
    ("cli._signature_of(parse_formula("
     "'(exists (x ani) (and (chat x) (hat_ani x)))'))",
     [["ani"], [["chat", ["ani"]]]]),
    ("sorted(c.__name__ for c in cli._SIGNATURE_INTO)",
     ["And", "Eps", "Eq", "Exists", "Forall", "Implies", "Not", "Or",
      "Pred"]),
]


@pytest.mark.parametrize("expr, expected", ENTRY_POINTS,
                         ids=["analyze_tree", "presupposition_list",
                              "discourse_formula", "_text_report",
                              "_sexpr_report", "_json_report", "_signature_of",
                              "_SIGNATURE_INTO"])
def test_entry_points_run_without_main(expr, expected):
    out = run_fresh(ONE_SENTENCE + f"print(json.dumps({expr}))")
    assert json.loads(out) == expected


def test_every_name_of_the_cli_resolves():
    out = run_fresh("""
import importlib, json
import tysem, tysem.cli as cli
wrong = [n for m, names in cli._NAMES.items() for n in names
         if getattr(cli, n) is not getattr(
             importlib.import_module(f"tysem.{m}"), n)]
print(json.dumps([wrong, hasattr(cli, "formula_alpha_eq"),
                  tysem.normalize is tysem.kernel.normalize]))
""")
    assert json.loads(out) == [[], False, True]


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


def test_a_wrapper_set_before_the_first_analyze_runs():
    out = run_fresh("""
import tysem.cli
from tysem.composer import compose
calls = []
def wrapper(*args):
    calls.append(args[0])
    return compose(*args)
tysem.cli.compose = wrapper
tysem.cli.main(["analyze", "--lexicon", "lexica/chat.lex",
                "--tree", "(dort (un chat))"])
print(len(calls), tysem.cli.compose is wrapper)
""")
    assert out.splitlines()[-2:] == ["formula: dort(eps[ani](x. chat(x)))",
                                     "1 True"]


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


def _unused_imports(source: str) -> list[str]:
    """The names `source` imports and never uses; a name in an annotation,
    quoted or not, counts as a use."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0]
                            for a in n.names)
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            imported.update(a.asname or a.name for a in n.names)
        elif isinstance(n, ast.Name):
            used.add(n.id)
        for field in ("annotation", "returns"):
            ann = getattr(n, field, None)
            for m in ast.walk(ann) if ann is not None else ():
                if isinstance(m, ast.Constant) and isinstance(m.value, str):
                    used.update(k.id for k in ast.walk(ast.parse(m.value))
                                if isinstance(k, ast.Name))
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert _unused_imports("import os\nfrom a.b import c, d as e\n"
                           "x: 'c' = 1\ndef f() -> e: pass") == ["os"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in (ROOT / "src" / "tysem").glob("*.py")))
def test_no_module_imports_a_name_it_never_uses(module):
    source = (ROOT / "src" / "tysem" / module).read_text(encoding="utf-8")
    assert _unused_imports(source) == []
