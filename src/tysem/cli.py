"""Command line driver.

    tysem analyze --lexicon L (--tree T | --session FILE) [flags]
    tysem eval --model M --formula F [--equiv F2 --max-carrier N]
    tysem check-lexicon L

`analyze` composes a bracketed tree against a lexicon, normalizes, extracts
the formula and its presuppositions, and optionally rewrites choice patterns
into quantifiers.  A session file applies one tree per line against a single
evolving discourse state and ends with the conjoined discourse formula.

Exit codes: 0 success; 1 I/O or syntax errors; 2 composition or type errors
(with word-level diagnostics).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .composer import (CoercionReport, ComposeResult, SynTree, compose,
                       parse_tree, print_tree)
from .discourse import DiscourseState
from .errors import (FreeSymbol, InputError, ModelError, SemanticError,
                     TysemError)
from .kernel import Term, normalize, print_term, reduction_steps
from .lexicon import Lexicon, load_lexicon
from .logic import (Formula, canon_formula, conjoin, extract_formula,
                    formula_to_json, parse_formula, presuppositions,
                    print_formula, rewrite_hilbert)
# looked up on this module by perfbench/spans.py, which counts its calls
from .logic import formula_alpha_eq  # noqa: F401
from .model import check_equivalence, eval_formula, load_model, print_model

# ---------------------------------------------------------------------------
# analysis pipeline


@dataclass
class AnalysisResult:
    """Everything one sentence produces; fields are mutually consistent
    (the formula is extracted from the normal form)."""
    tree: SynTree
    term: Term
    normal: Term
    steps: list[Term]  # every reduction step, kept only with --trace
    report: CoercionReport
    formula: Formula
    presupposition_list: list[Formula]
    final: Formula  # after the presupposition and rewrite flags


@dataclass
class AnalysisOptions:
    presuppositions: str = "separate"  # separate | conjoin | off
    rewrite: bool = False
    trace: bool = False
    style: str = "ascii"


def analyze_tree(lex: Lexicon, tree: SynTree, state: DiscourseState,
                 options: AnalysisOptions) -> tuple[AnalysisResult, DiscourseState]:
    result: ComposeResult = compose(tree, lex, state)
    if options.trace:
        steps = list(reduction_steps(result.term))
        normal = steps[-1] if steps else result.term
    else:
        steps = []
        normal = normalize(result.term)
    ctx = lex.typing_context()
    formula = extract_formula(normal, ctx)
    presupps = presuppositions(normal)
    final = formula
    if options.presuppositions == "conjoin" and presupps:
        final = conjoin(presupps + [formula])
    if options.rewrite:
        final = rewrite_hilbert(final)
    analysis = AnalysisResult(tree, result.term, normal, steps,
                              result.report, formula, presupps, final)
    return analysis, result.state


def discourse_formula(results: list[AnalysisResult],
                      options: AnalysisOptions) -> Formula:
    """Conjoin a session: deduplicated presuppositions first, then the
    assertions in sentence order."""
    parts: list[Formula] = []
    if options.presuppositions != "off":
        seen: set[Formula] = set()  # canon_formula of each part
        for r in results:
            for p in r.presupposition_list:
                key = canon_formula(p)
                if key not in seen:
                    seen.add(key)
                    parts.append(p)
    parts.extend(r.formula for r in results)
    out = conjoin(parts)
    return rewrite_hilbert(out) if options.rewrite else out


# ---------------------------------------------------------------------------
# reports


def _text_report(r: AnalysisResult, options: AnalysisOptions,
                 out: list[str]):
    out.append(f"tree: {print_tree(r.tree)}")
    out.append(f"term: {print_term(r.term)}")
    if options.trace:
        for i, step in enumerate(r.steps, 1):
            out.append(f"step {i}: {print_term(step)}")
    out.append(f"normal: {print_term(r.normal)}")
    for occ, used in r.report.uses.items():
        uses = ", ".join(f"{label} ({rig})" for label, rig in used)
        out.append(f"coercions: {occ}: {uses}")
    if options.presuppositions == "separate":
        for p in r.presupposition_list:
            out.append(
                f"presupposition: {print_formula(p, options.style)}")
    out.append(f"formula: {print_formula(r.final, options.style)}")


def _sexpr_report(r: AnalysisResult, options: AnalysisOptions,
                  out: list[str]):
    out.append(f"(tree {print_tree(r.tree)})")
    out.append(f"(term {print_term(r.term)})")
    out.append(f"(normal {print_term(r.normal)})")
    if options.presuppositions == "separate":
        for p in r.presupposition_list:
            out.append(f"(presupposition {print_formula(p, 'sexpr')})")
    out.append(f"(formula {print_formula(r.final, 'sexpr')})")


def _json_report(r: AnalysisResult, options: AnalysisOptions) -> dict:
    return {
        "tree": print_tree(r.tree),
        "term": print_term(r.term),
        "normal": print_term(r.normal),
        "steps": [print_term(s) for s in r.steps] if options.trace else None,
        "coercions": {occ: [list(u) for u in used]
                      for occ, used in r.report.uses.items()},
        "presuppositions": [print_formula(p, options.style)
                            for p in r.presupposition_list],
        "formula": print_formula(r.final, options.style),
        "formula_json": formula_to_json(r.final),
    }


# ---------------------------------------------------------------------------
# subcommands


def run_analyze(args) -> int:
    try:
        lex = load_lexicon(_read(args.lexicon))
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    options = AnalysisOptions(presuppositions=args.presuppositions,
                              rewrite=args.rewrite, trace=args.trace,
                              style=args.style)
    try:
        if args.session:
            sentences = [line.strip() for line in
                         _read(args.session).splitlines()
                         if line.strip() and not line.lstrip().startswith(";")]
        else:
            sentences = [args.tree]
        trees = [parse_tree(s) for s in sentences]
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    state = DiscourseState()
    results: list[AnalysisResult] = []
    try:
        for tree in trees:
            analysis, state = analyze_tree(lex, tree, state, options)
            results.append(analysis)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SemanticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    session = args.session is not None
    if args.format == "json":
        doc = {"sentences": [_json_report(r, options) for r in results]}
        if session:
            doc["discourse"] = print_formula(
                discourse_formula(results, options), options.style)
        print(json.dumps(doc, ensure_ascii=False, indent=2))
        return 0

    out: list[str] = []
    for i, r in enumerate(results):
        if session:
            out.append(f"sentence {i + 1}")
        if args.format == "sexpr":
            _sexpr_report(r, options, out)
        else:
            _text_report(r, options, out)
    if session:
        f = discourse_formula(results, options)
        style = "sexpr" if args.format == "sexpr" else options.style
        out.append(f"discourse: {print_formula(f, style)}")
    print("\n".join(out))
    return 0


def run_eval(args) -> int:
    try:
        m = load_model(_read(args.model))
        f1 = parse_formula(args.formula)
        if args.equiv is None:
            print("true" if eval_formula(m, f1) else "false")
            return 0
        f2 = parse_formula(args.equiv)
        sorts, predicates = _signature_of(f1, f2)
        verdict = check_equivalence(f1, f2, sorts, args.max_carrier,
                                    predicates)
        if verdict.equivalent:
            print(f"equivalent ({verdict.models_checked} models)")
        else:
            print(f"not equivalent after {verdict.models_checked} models; "
                  "counter-model:")
            print(print_model(verdict.counter_model))
        return 0
    except (OSError, TysemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_check_lexicon(args) -> int:
    try:
        lex = load_lexicon(_read(args.lexicon))
    except (OSError, TysemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {len(lex.entries)} entries, {len(lex.pronouns)} pronouns, "
          f"{len(lex.sorts)} sorts")
    return 0


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _signature_of(*formulas: Formula):
    """Sorts and predicate signatures mentioned by the formulas, for the
    model enumeration of an equivalence check.  Rejects a free constant or
    function symbol, and a predicate used with two signatures.  `hat_<sort>`
    is left out when its sort is enumerated or is `e`: it then denotes
    carrier membership on every model."""
    from . import logic

    sorts: list[str] = []
    predicates: dict[str, tuple[str, ...]] = {}

    def add_sort(s: str):
        if s not in sorts:
            sorts.append(s)

    def walk_term(t):
        match t:
            case logic.LConst(name, _) | logic.LApp(name, _):
                raise FreeSymbol(name)
            case logic.Eps(_, sort, _, body):
                add_sort(sort)
                walk(body)

    def walk(f: Formula):
        match f:
            case logic.Pred(name, args):
                for a in args:
                    walk_term(a)
                sig = tuple(a.sort for a in args)  # variables, choice terms
                if predicates.setdefault(name, sig) != sig:
                    raise ModelError(
                        f"predicate '{name}' is used with argument sorts "
                        f"({', '.join(predicates[name])}) and "
                        f"({', '.join(sig)})")
            case logic.And(l, r) | logic.Or(l, r) | logic.Implies(l, r):
                walk(l)
                walk(r)
            case logic.Not(op):
                walk(op)
            case logic.Exists(_, sort, body) | logic.Forall(_, sort, body):
                add_sort(sort)
                walk(body)
            case logic.Eq(l, r):
                walk_term(l)
                walk_term(r)

    for f in formulas:
        walk(f)
    return sorts, sorted(
        (name, sig) for name, sig in predicates.items()
        if not (name.startswith("hat_") and name[4:] in (*sorts, "e")))


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tysem",
        description="Compose bracketed trees into typed logical forms and "
                    "evaluate them on finite models.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="compose, normalize and extract a formula")
    analyze.add_argument("--lexicon", required=True,
                         help="lexicon file ('-' for stdin)")
    group = analyze.add_mutually_exclusive_group(required=True)
    group.add_argument("--tree", help="bracketed tree, e.g. '(dort (un chat))'")
    group.add_argument("--session",
                       help="file with one tree per line, analyzed against "
                            "one evolving discourse state")
    analyze.add_argument("--format", choices=("text", "sexpr", "json"),
                         default="text")
    analyze.add_argument("--style", choices=("ascii", "unicode"),
                         default="ascii", help="formula rendering for text output")
    analyze.add_argument("--presuppositions",
                         choices=("separate", "conjoin", "off"),
                         default="separate")
    analyze.add_argument("--rewrite", action="store_true",
                         help="rewrite choice patterns into quantifiers")
    analyze.add_argument("--trace", action="store_true",
                         help="print every reduction step")
    analyze.set_defaults(fn=run_analyze)

    ev = sub.add_parser("eval", help="evaluate a formula on a finite model")
    ev.add_argument("--model", required=True, help="model file")
    ev.add_argument("--formula", required=True,
                    help="formula in s-expression style")
    ev.add_argument("--equiv", help="second formula: check equivalence by "
                                    "enumerating all small models")
    ev.add_argument("--max-carrier", type=_positive_int, default=4)
    ev.set_defaults(fn=run_eval)

    check = sub.add_parser("check-lexicon",
                           help="load and validate a lexicon")
    check.add_argument("lexicon")
    check.set_defaults(fn=run_check_lexicon)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
