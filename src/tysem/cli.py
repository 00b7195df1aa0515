"""Command line driver.

    tysem analyze --lexicon L (--tree T | --session FILE) [flags]
    tysem eval --model M --formula F [--equiv F2 --max-carrier N]
    tysem check-lexicon L

`analyze` composes a bracketed tree against a lexicon, normalizes, extracts
the formula and its presuppositions, and optionally rewrites choice patterns
into quantifiers.  A session file applies one tree per line against a single
evolving discourse state and ends with the conjoined discourse formula; a
line is composed once per set of answers its discourse reads get, and
replayed otherwise (`analyze_session`).

Exit codes: 0 success; 1 I/O or syntax errors; 2 composition or type errors
(with word-level diagnostics); 3 an internal error, a bug in tysem, reported
as `internal error: <type>: <message>` on standard error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cached_property
from operator import attrgetter

from .errors import InputError, SemanticError, TysemError

# module -> the names this module uses from it.  None is imported with this
# module: each command, and each function it calls that a caller may run on
# its own, binds the names of the modules it needs on first use (`_bind`);
# any other access (`tysem.cli.compose`) goes through `__getattr__`.
_NAMES = {
    "composer": ("Logs", "compose", "parse_tree", "print_tree", "replay"),
    "discourse": ("DiscourseState",),
    "kernel": ("normalize", "print_term", "reduction_steps"),
    "lexicon": ("load_lexicon",),
    "logic": ("canon_formula", "conjoin", "extract_formula", "formula_to_json",
              "parse_formula", "presuppositions", "print_formula",
              "rewrite_conjunction", "rewrite_hilbert"),
    "model": ("_SIGNATURE_INTO", "_signature_of", "check_equivalence",
              "eval_formula", "load_model", "print_model"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in names}
_ANALYZE = ("composer", "discourse", "kernel", "lexicon", "logic")
_EVAL = ("logic", "model")
_bound: set[tuple[str, ...]] = set()


def _bind(modules: tuple[str, ...]):
    """Import the modules and set the names this module uses from them in
    its globals, keeping a name already set there (a patch, a wrapper).
    Once a tuple is bound, binding it again is one set lookup."""
    if modules in _bound:
        return
    names = globals()
    for module in modules:
        # `from .<module> import ...`, which `python -X importtime` reports
        m = __import__(module, names, None, _NAMES[module], 1)
        for name in _NAMES[module]:
            names.setdefault(name, getattr(m, name))
    _bound.add(modules)


def __getattr__(name):
    """A name of `_NAMES` read before a command bound it."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((module,))
    return globals()[name]


# ---------------------------------------------------------------------------
# analysis pipeline


class AnalysisResult:
    """Everything one sentence produces; fields are mutually consistent
    (the formula is extracted from the normal form)."""

    def __init__(self, tree: SynTree, term: Term, normal: Term,
                 steps: list[Term], report: CoercionReport, formula: Formula,
                 final: Formula, log: list):
        self.tree, self.term, self.normal = tree, term, normal
        self.steps = steps  # every reduction step, kept only with --trace
        self.report, self.formula = report, formula
        self.final = final  # after the presupposition and rewrite flags
        self.log = log  # the composition's discourse calls (composer.replay)
        # each report, once printed; shared by every sentence this analysis
        # serves (see analyze_session)
        self.printed: dict = {}

    def __eq__(self, other):  # every field but the log and printed reports
        same = type(other) is AnalysisResult
        return _compared(self) == _compared(other) if same else NotImplemented

    @cached_property  # with `--presuppositions off`, only `json` reads them
    def presupposition_list(self) -> list[Formula]:
        _bind(_ANALYZE)
        return presuppositions(self.formula)


_compared = attrgetter("tree", "term", "normal", "steps", "report",
                      "formula", "final")


class AnalysisOptions:
    """How `analyze` reports each sentence: its command-line flags."""

    def __init__(self, presuppositions: str = "separate",
                 rewrite: bool = False, trace: bool = False,
                 style: str = "ascii"):
        self.presuppositions = presuppositions  # separate | conjoin | off
        self.rewrite, self.trace, self.style = rewrite, trace, style


def analyze_tree(lex: Lexicon, tree: SynTree, state: DiscourseState,
                 options: AnalysisOptions
                 ) -> tuple[AnalysisResult, DiscourseState]:
    """Compose and analyze one sentence against the discourse state: the
    analysis, which keeps the composition's log, and the state after it."""
    _bind(_ANALYZE)
    result: ComposeResult = compose(tree, lex, state)
    if options.trace:
        steps = list(reduction_steps(result.term))
        normal = steps[-1] if steps else result.term
    else:
        steps = []
        normal = normalize(result.term)
    formula = extract_formula(normal, lex.typing_context(), result.type)
    analysis = AnalysisResult(tree, result.term, normal, steps,
                              result.report, formula, formula, result.log)
    if options.presuppositions == "conjoin" and analysis.presupposition_list:
        analysis.final = conjoin(analysis.presupposition_list + [formula])
    if options.rewrite:
        analysis.final = rewrite_hilbert(analysis.final)
    return analysis, result.state


def analyze_session(lex: Lexicon, lines: list[str], options: AnalysisOptions
                    ) -> tuple[list[AnalysisResult], DiscourseState]:
    """Analyze one tree per line, in order, against one evolving discourse
    state: the analyses and the final state.

    Every line is parsed, once per distinct line, before any is composed,
    and the logs of its compositions (`composer.Logs`) are kept by the
    line.  Most sentences replay a stored composition (`composer.replay`),
    and the analysis it yields, the very object, serves them; each other
    sentence goes to `analyze_tree`, which composes it afresh and raises
    any error, and its analysis is stored.  So a session composes once per
    distinct line and set of answers its reads get."""
    _bind(_ANALYZE)
    entries = {s: (parse_tree(s), Logs()) for s in dict.fromkeys(lines)}
    items = map(entries.__getitem__, lines)
    state, results = DiscourseState(), []
    while True:
        state, missed = replay(items, state, lex, results)
        if missed is None:
            return results, state
        analysis, state = analyze_tree(lex, missed[0], state, options)
        missed[1].add(analysis.log, analysis)
        results.append(analysis)


def discourse_formula(results: list[AnalysisResult],
                      options: AnalysisOptions) -> Formula:
    """Conjoin a session: deduplicated presuppositions first, then the
    assertions in sentence order.  Alpha-duplicates are found by their
    `canon_formula` key, worked out once per analysis: sentences served by
    one stored analysis share it (see analyze_session).  The parts go to
    the rewrite as they are held (`rewrite_conjunction`), which builds the
    left-nested conjunction once."""
    _bind(_ANALYZE)
    parts: dict[Formula, Formula] = {}  # canon_formula key -> first part
    if options.presuppositions != "off":
        for r in dict(zip(map(id, results), results)).values():
            for p in r.presupposition_list:
                parts.setdefault(canon_formula(p), p)
    parts = [*parts.values(), *map(attrgetter("formula"), results)]
    return rewrite_conjunction(parts) if options.rewrite else conjoin(parts)


# ---------------------------------------------------------------------------
# reports


# Each report is printed once per analysis and kept in `r.printed`, the
# text and s-expression ones as one string of lines, which a report adds
# to `out` whole.  A report is built only on first use, so only that path
# binds the printers.


def _text_report(r: AnalysisResult, options: AnalysisOptions,
                 out: list[str]):
    text = r.printed.get("text")
    if text is None:
        _bind(_ANALYZE)
        lines = [f"tree: {print_tree(r.tree)}", f"term: {print_term(r.term)}"]
        if options.trace:
            for i, step in enumerate(r.steps, 1):
                lines.append(f"step {i}: {print_term(step)}")
        lines.append(f"normal: {print_term(r.normal)}")
        for occ, used in r.report.uses.items():
            uses = ", ".join(f"{label} ({rig})" for label, rig in used)
            lines.append(f"coercions: {occ}: {uses}")
        if options.presuppositions == "separate":
            for p in r.presupposition_list:
                lines.append(
                    f"presupposition: {print_formula(p, options.style)}")
        lines.append(f"formula: {print_formula(r.final, options.style)}")
        text = r.printed["text"] = "\n".join(lines)
    out.append(text)


def _sexpr_report(r: AnalysisResult, options: AnalysisOptions,
                  out: list[str]):
    text = r.printed.get("sexpr")
    if text is None:
        _bind(_ANALYZE)
        lines = [f"(tree {print_tree(r.tree)})",
                 f"(term {print_term(r.term)})",
                 f"(normal {print_term(r.normal)})"]
        if options.presuppositions == "separate":
            for p in r.presupposition_list:
                lines.append(f"(presupposition {print_formula(p, 'sexpr')})")
        lines.append(f"(formula {print_formula(r.final, 'sexpr')})")
        text = r.printed["sexpr"] = "\n".join(lines)
    out.append(text)


def _json_report(r: AnalysisResult, options: AnalysisOptions) -> dict:
    doc = r.printed.get("json")
    if doc is None:
        _bind(_ANALYZE)
        doc = r.printed["json"] = {
            "tree": print_tree(r.tree),
            "term": print_term(r.term),
            "normal": print_term(r.normal),
            "steps": ([print_term(s) for s in r.steps] if options.trace
                      else None),
            "coercions": {occ: [list(u) for u in used]
                          for occ, used in r.report.uses.items()},
            "presuppositions": [print_formula(p, options.style)
                                for p in r.presupposition_list],
            "formula": print_formula(r.final, options.style),
            "formula_json": formula_to_json(r.final),
        }
    return doc


# ---------------------------------------------------------------------------
# subcommands


def run_analyze(args) -> int:
    if args.lexicon == "-" and args.session == "-":
        print("error: --lexicon and --session cannot both read standard "
              "input", file=sys.stderr)
        return 1
    _bind(_ANALYZE)
    options = AnalysisOptions(presuppositions=args.presuppositions,
                              rewrite=args.rewrite, trace=args.trace,
                              style=args.style)
    session = args.session is not None
    out: list[str] = []
    try:
        lex = load_lexicon(_read(args.lexicon))
        if args.session:
            lines = map(str.strip, _read(args.session).splitlines())
            sentences = [s for s in filter(None, lines) if s[0] != ";"]
        else:
            sentences = [args.tree]
        results, _ = analyze_session(lex, sentences, options)
        if args.format == "json":
            import json
            doc = {"sentences": [_json_report(r, options) for r in results]}
            if session:
                doc["discourse"] = print_formula(
                    discourse_formula(results, options), options.style)
            out.append(json.dumps(doc, ensure_ascii=False, indent=2))
        else:
            report = _sexpr_report if args.format == "sexpr" else _text_report
            for i, r in enumerate(results, 1):
                if session:
                    out.append(f"sentence {i}")
                report(r, options, out)
            if session:
                f = discourse_formula(results, options)
                style = "sexpr" if args.format == "sexpr" else options.style
                out.append(f"discourse: {print_formula(f, style)}")
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SemanticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out))
    return 0


def run_eval(args) -> int:
    _bind(_EVAL)
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
    _bind(("lexicon",))
    try:
        lex = load_lexicon(_read(args.lexicon))
    except (OSError, TysemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {len(lex.entries)} entries, {len(lex.pronouns)} pronouns, "
          f"{len(lex.sorts)} sorts")
    return 0


def _read(path: str) -> str:
    """The text of a file, or of standard input for '-', without a leading
    byte order mark."""
    try:
        if path == "-":
            return sys.stdin.read().removeprefix("\ufeff")
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


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
    try:
        return args.fn(args)
    except TysemError:
        raise
    except Exception as exc:  # no input reaches here but through a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
