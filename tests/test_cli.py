import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tysem.cli import AnalysisOptions, analyze_tree, main
from tysem.composer import parse_tree
from tysem.discourse import DiscourseState
from tysem.kernel import reduction_steps

LEXICA = "lexica"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_figure_one(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon", f"{LEXICA}/fig1.lex",
                       "--tree", "((un club) (a_battu Leeds))", "--rewrite")
    assert code == 0
    assert out.splitlines()[-1] == \
        "formula: exists x:e. (club(x) & a_battu(x,Leeds))"


def test_analyze_copredication(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon", f"{LEXICA}/fig2.lex",
                       "--tree", "((et est_vaste a_vote) Liverpool)")
    assert code == 0
    assert "normal: (and (est_vaste (t3 Liverpool)) (a_vote (t2 Liverpool)))" \
        in out.splitlines()
    assert any(line.startswith("coercions: Liverpool#") for
               line in out.splitlines())


def test_analyze_rigidity_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "--lexicon", f"{LEXICA}/fig2.lex",
                       "--tree", "((et a_gagne a_vote) Liverpool)")
    assert code == 2
    assert "t1" in err


def test_analyze_type_clash_exit_code(capsys, tmp_path):
    lex = tmp_path / "mini.lex"
    lex.write_text("""
    (sort ani) (sort furniture)
    (const aboie (-> ani t))
    (const chaise (-> furniture t))
    (entry "une" (principal eps) (mode indefinite))
    (entry "aboie" (principal aboie))
    (entry "chaise" (principal chaise))
    """)
    code, _, err = run(capsys, "analyze", "--lexicon", str(lex),
                       "--tree", "(aboie (une chaise))")
    assert code == 2
    assert "aboie" in err and "chaise" in err


def test_analyze_io_error(capsys):
    code, _, err = run(capsys, "analyze", "--lexicon", "no-such-file.lex",
                       "--tree", "(a b)")
    assert code == 1


def test_analyze_syntax_error(capsys):
    code, _, err = run(capsys, "analyze", "--lexicon", f"{LEXICA}/chat.lex",
                       "--tree", "(dort (un chat")
    assert code == 1
    assert "parenthesis" in err


def test_analyze_presupposition_modes(capsys):
    base = ("analyze", "--lexicon", f"{LEXICA}/chat.lex",
            "--tree", "(dort (un chat))")
    _, out, _ = run(capsys, *base)
    assert "presupposition: chat(eps[ani](x. chat(x)))" in out
    assert out.splitlines()[-1] == \
        "formula: dort(eps[ani](x. chat(x)))"

    _, out, _ = run(capsys, *base, "--presuppositions", "conjoin",
                    "--rewrite")
    assert "presupposition:" not in out
    assert out.splitlines()[-1] == \
        "formula: exists x:ani. (chat(x) & dort(x))"

    _, out, _ = run(capsys, *base, "--presuppositions", "off")
    assert "presupposition" not in out


def test_analyze_trace(capsys):
    base = ("analyze", "--lexicon", f"{LEXICA}/fig1.lex",
            "--tree", "((un club) (a_battu Leeds))")
    _, plain, _ = run(capsys, *base)
    _, traced, _ = run(capsys, *base, "--trace")
    steps = [l for l in traced.splitlines() if l.startswith("step ")]
    assert steps, "trace must show reduction steps"
    assert traced.splitlines()[-1] == plain.splitlines()[-1]
    # the steps replay the reduction: the last step is the normal form
    normal_line = next(l for l in plain.splitlines()
                       if l.startswith("normal: "))
    assert steps[-1].split(": ", 1)[1] == normal_line.split(": ", 1)[1]


def test_analyze_deterministic_output(capsys):
    args = ("analyze", "--lexicon", f"{LEXICA}/fig2.lex",
            "--tree", "((et est_vaste a_vote) Liverpool)", "--rewrite")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_analyze_json_format(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon",
                       f"{LEXICA}/chat.lex", "--tree", "(dort (un chat))",
                       "--format", "json", "--rewrite",
                       "--presuppositions", "conjoin")
    assert code == 0
    doc = json.loads(out)
    sent = doc["sentences"][0]
    assert sent["formula"] == "exists x:ani. (chat(x) & dort(x))"
    assert sent["formula_json"]["node"] == "exists"


def test_analyze_sexpr_format(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon",
                       f"{LEXICA}/chat.lex", "--tree", "(dort (un chat))",
                       "--format", "sexpr")
    assert code == 0
    assert "(formula (dort (eps ani x (chat x))))" in out


def test_analyze_unicode_style(capsys):
    _, out, _ = run(capsys, "analyze", "--lexicon", f"{LEXICA}/chat.lex",
                    "--tree", "(dort (un chat))", "--style", "unicode",
                    "--presuppositions", "conjoin", "--rewrite")
    assert out.splitlines()[-1] == \
        "formula: ∃x:ani. (chat(x) ∧ dort(x))"


def test_session_mode(capsys):
    code, out, _ = run(capsys, "analyze", "--lexicon",
                       f"{LEXICA}/homme.lex", "--session",
                       "sessions/homme.session", "--rewrite")
    assert code == 0
    assert out.splitlines()[-1] == ("discourse: exists x:humain. "
                                    "(homme(x) & est_entre(x) & a_hurle(x))")


# sessions longer than the recursion limit: one referent shared by every
# sentence, so the discourse is one existential over all the verbs
LONG_SESSIONS = {
    "homme": ("humain", "homme", ("est_entre", "a_hurle"), ("il",)),
    "chat": ("ani", "chat", ("dort", "aboie"), ("(le chien)", "(le chat)")),
}


@pytest.mark.parametrize("family, n", [("homme", 640), ("chat", 640),
                                       ("homme", 1400)])
@pytest.mark.parametrize("fmt", ["text", "sexpr", "json"])
def test_long_session_rewrites_to_one_existential(capsys, tmp_path, family,
                                                  n, fmt):
    sort, noun, verbs, others = LONG_SESSIONS[family]
    args = [f"(un {noun})", *others]
    lines = [f"({verbs[i % 2]} {args[i % len(args)]})" for i in range(n)]
    session = tmp_path / f"{family}.session"
    session.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "analyze", "--lexicon",
                         f"{LEXICA}/{family}.lex", "--session", str(session),
                         "--rewrite", "--format", fmt)
    assert code == 0 and "Traceback" not in err
    used = [verbs[i % 2] for i in range(n)]
    if fmt == "sexpr":
        body = ("(and " * n + f"({noun} x)"
                + "".join(f" ({v} x))" for v in used))
        expected = f"discourse: (exists (x {sort}) {body})"
    else:
        body = " & ".join([f"{noun}(x)"] + [f"{v}(x)" for v in used])
        expected = f"discourse: exists x:{sort}. ({body})"
    if fmt == "json":
        doc = json.loads(out)
        assert len(doc["sentences"]) == n
        assert "discourse: " + doc["discourse"] == expected
    else:
        assert out.splitlines()[-1] == expected


def test_analyze_keeps_steps_only_with_trace(fig1):
    tree = parse_tree("((un club) (a_battu Leeds))")
    plain, _ = analyze_tree(fig1, tree, DiscourseState(), AnalysisOptions())
    traced, _ = analyze_tree(fig1, tree, DiscourseState(),
                             AnalysisOptions(trace=True))
    assert plain.steps == []
    assert traced.steps == list(reduction_steps(traced.term))
    assert traced.steps[-1] == traced.normal == plain.normal


# ---------------------------------------------------------------------------
# eval


def test_eval_true(capsys, tmp_path):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier ani (c1 c2)) (interp chat ((c1)))"
                     " (interp dort ((c1))))")
    code, out, _ = run(capsys, "eval", "--model", str(model),
                       "--formula", "(dort (eps ani x (chat x)))")
    assert code == 0
    assert out.strip() == "true"


def test_eval_missing_interp(capsys, tmp_path):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier ani (c1)))")
    code, _, err = run(capsys, "eval", "--model", str(model),
                       "--formula", "(dort (eps ani x (chat x)))")
    assert code == 1
    assert "chat" in err


def test_eval_equivalence(capsys, tmp_path):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier s (s1)))")
    code, out, _ = run(capsys, "eval", "--model", str(model),
                       "--formula", "(F (eps s x (F x)))",
                       "--equiv", "(exists (x s) (F x))",
                       "--max-carrier", "4")
    assert code == 0
    assert out.startswith("equivalent (30 models)")


def test_eval_counter_model(capsys, tmp_path):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier s (s1)))")
    code, out, _ = run(capsys, "eval", "--model", str(model),
                       "--formula", "(G (eps s x (F x)))",
                       "--equiv", "(exists (x s) (G x))")
    assert code == 0
    assert "not equivalent" in out
    assert "(model" in out


def test_eval_equivalence_free_constant(capsys):
    code, out, err = run(capsys, "eval", "--model", "models/chat.model",
                         "--formula", "(P felix)", "--equiv", "(P felix)")
    assert code == 1 and not out
    assert err.startswith("error: free constant") and "'felix'" in err


def test_eval_max_carrier_must_be_positive(capsys):
    for bad in ("0", "-2", "x"):
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "--model", "models/chat.model",
                  "--formula", "(P (eps s x (P x)))",
                  "--equiv", "(exists (x s) (P x))", "--max-carrier", bad])
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert "argument --max-carrier: expected a positive integer" in err
        assert "Traceback" not in err


def test_eval_equivalence_reads_hat_as_carrier_membership(capsys):
    code, out, _ = run(capsys, "eval", "--model", "models/chat.model",
                       "--formula", "(hat_s (eps s x (P x)))",
                       "--equiv", "true")
    assert code == 0
    assert out.strip() == "equivalent (30 models)"


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_eval_function_with_two_values_is_an_error(tmp_path, hash_seed):
    model = tmp_path / "m.model"
    model.write_text("(model (carrier s (a b c)) (interp f ((a b) (a c)))"
                     " (interp P ((b))) (interp k ((a))))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "tysem.cli", "eval", "--model", str(model),
         "--formula", "(P (f k))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.strip() == \
        "error: function 'f' has more than one value at (a): b, c"


def test_eval_equivalence_predicate_signatures_differ(capsys):
    code, out, err = run(capsys, "eval", "--model", "models/chat.model",
                         "--formula", "(exists (x s) (R x))",
                         "--equiv", "(exists (x s) (exists (y t) (R x y)))")
    assert code == 1 and not out
    assert err.strip() == ("error: predicate 'R' is used with argument sorts "
                           "(s) and (s, t)")


# ---------------------------------------------------------------------------
# check-lexicon


def test_check_lexicon_ok(capsys):
    code, out, _ = run(capsys, "check-lexicon", f"{LEXICA}/fig2.lex")
    assert code == 0
    assert out.startswith("ok:")


def test_check_lexicon_bad(capsys, tmp_path):
    bad = tmp_path / "bad.lex"
    bad.write_text('(entry "w" (principal nonsense))')
    code, _, err = run(capsys, "check-lexicon", str(bad))
    assert code == 1
    assert "nonsense" in err or "w" in err
