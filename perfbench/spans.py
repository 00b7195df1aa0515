"""Spans around tysem's public functions, installed from the benchmark.

Each function is replaced, under the name its callers look it up by (for
example `tysem.cli.rewrite_hilbert` or `tysem.discourse.alpha_eq`), with a
wrapper that opens a span, calls the original and closes the span.  A span
has a name, start, end and parent; self time is its duration minus the time
its children cover.  Counters (tree leaves, beta steps, formula nodes, ...)
are taken in the wrappers from arguments and results; that bookkeeping is
timed and excluded from the self time of the enclosing span.

Spans of calls made once per op are kept in memory and written out when
the run ends.  Calls made thousands of times per op (`hot`) only add to
the per-name totals, so a long run does not fill memory.
"""

from __future__ import annotations

import builtins
import gzip
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

MAX_KEPT_SPANS = 300_000


# ---------------------------------------------------------------------------
# counters over the program's data structures (iterative: terms and
# formulas can be deeper than the recursion limit)


def count_nodes(root, fields, kinds=None) -> int:
    """Nodes reachable through `fields`, or only those whose class is named
    in `kinds`."""
    stack, n = [root], 0
    while stack:
        node = stack.pop()
        n += kinds is None or type(node).__name__ in kinds
        for name in fields:
            child = getattr(node, name, None)
            if isinstance(child, tuple):
                stack.extend(child)
            elif child is not None and not isinstance(child, (str, bool)):
                stack.append(child)
    return n


TERM_FIELDS = ("fun", "arg", "body")
FORMULA_FIELDS = ("left", "right", "operand", "body", "args")


def count_sexpr(root) -> int:
    stack, n = [root], 0
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
            continue
        n += 1
        items = getattr(node, "items", None)
        if items is not None:
            stack.extend(items)
    return n


def count_leaves(tree) -> int:
    stack, n = [tree], 0
    while stack:
        node = stack.pop()
        if hasattr(node, "word"):
            n += 1
        else:
            stack.extend((node.fun, node.arg))
    return n


# ---------------------------------------------------------------------------
# tracer


class Tracer:
    def __init__(self):
        self.enabled = False
        # open spans: [id, parent, name, start, time covered by children]
        self.stack: list[list] = []
        self.kept: list[tuple] = []      # (id, parent, name, start, end)
        self.dropped = 0
        self.next_id = 0
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.installed: list[tuple] = []  # (owner, attr, original, added)
        self.missing: list[str] = []

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [self.next_id, parent, name, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: list, hot: bool):
        end = perf_counter()
        # unwind spans left open by an exception raised below this one
        while self.stack and self.stack.pop() is not span:
            pass
        sid, parent, name, start, child = span
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][4] += dur
        if not hot:
            if len(self.kept) < MAX_KEPT_SPANS:
                self.kept.append((sid, parent, name, start, end))
            else:
                self.dropped += 1

    def count(self, fn, *args):
        """Run a counting function outside every span's self time."""
        t0 = perf_counter()
        fn(self.counters, *args)
        dur = perf_counter() - t0
        self.total["trace.bookkeeping"] += dur
        if self.stack:
            self.stack[-1][4] += dur

    # -- wrappers

    def wrap(self, fn, name: str, hot=False, counter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, hot)
            if counter is not None:
                tracer.count(counter, args, result)
            return result
        return wrapper

    def wrap_generator(self, fn, name: str, counter=None):
        """One span per resumption, so the consumer's work between items is
        not counted as the generator's."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.enabled:
                yield from it
                return
            n, last = 0, None
            while True:
                span = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.close(span, True)
                    break
                except BaseException:
                    tracer.close(span, True)
                    raise
                tracer.close(span, True)
                n, last = n + 1, item
                yield item
            if counter is not None:
                tracer.count(counter, args, (n, last))
        return wrapper

    def install(self, owner_path: str, attr: str, name: str, *, hot=False,
                counter=None, generator=False, new_name=False):
        owner = _resolve(owner_path)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None and not (new_name and owner is not None):
            self.missing.append(f"{owner_path}.{attr}")
            return
        added = original is None
        if added:  # a builtin the module looks up as a global
            original = getattr(builtins, attr)
        wrapped = (self.wrap_generator(original, name, counter) if generator
                   else self.wrap(original, name, hot, counter))
        setattr(owner, attr, wrapped)
        self.installed.append((owner, attr, original, added))

    def uninstall(self):
        for owner, attr, original, added in reversed(self.installed):
            if added:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.installed.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.kept:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _resolve(path: str):
    module, _, rest = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for part in filter(None, rest.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


# ---------------------------------------------------------------------------
# what is wrapped, and the counters taken at each boundary


def _sexpr_nodes(c, args, result):
    c["sexpr.nodes"] += count_sexpr(result)


def _compose(c, args, result):
    c["composer.leaves"] += count_leaves(args[0])
    c["composer.coercions_applied"] += sum(
        len(used) for used in result.report.uses.values())
    c["composer.term_nodes"] += count_nodes(result.term, TERM_FIELDS)


def _resolution(c, args, result):
    c["discourse.referents"] += len(args[0].referents)


def _steps(retained: bool):
    def counter(c, args, done):
        n, last = done
        c["kernel.beta_steps"] += n
        c["kernel.nodes_in"] += count_nodes(args[0], TERM_FIELDS)
        c["kernel.nodes_out"] += count_nodes(
            args[0] if last is None else last, TERM_FIELDS)
        if retained:
            c["kernel.steps_retained"] += n
    return counter


def _formula_nodes(c, args, result):
    c["logic.formula_nodes"] += count_nodes(result, FORMULA_FIELDS)


def _rewrites(c, args, result):
    quantifiers = ("Exists", "Forall")
    c["logic.rewrites_fired"] += (
        count_nodes(result, FORMULA_FIELDS, quantifiers)
        - count_nodes(args[0], FORMULA_FIELDS, quantifiers))


def _models(c, args, done):
    c["model.models_enumerated"] += done[0]


def _parser(tracer):
    """build_parser's result gets its parse_args wrapped as well."""
    def counter(c, args, parser):
        parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")
    return counter


def install_all(tracer: Tracer):
    t = tracer
    # cli layer
    t.install("tysem.cli", "main", "cli.main")
    t.install("tysem.cli", "build_parser", "cli.build_parser",
              counter=_parser(t))
    for fn in ("run_analyze", "run_eval", "run_check_lexicon",
               "analyze_tree", "discourse_formula"):
        t.install("tysem.cli", fn, f"cli.{fn}")
    for fn in ("_text_report", "_sexpr_report", "_json_report"):
        t.install("tysem.cli", fn, "cli.report", hot=True)
    t.install("tysem.cli", "print", "cli.print", new_name=True)
    t.install("tysem.cli", "print_model", "cli.print_model")
    # s-expression reader, under each caller's name
    for module in ("tysem.composer", "tysem.kernel", "tysem.logic",
                   "tysem.model"):
        t.install(module, "read_one", "sexpr.read", hot=True,
                  counter=_sexpr_nodes)
    t.install("tysem.lexicon", "read_all", "sexpr.read", counter=_sexpr_nodes)
    # lexicon
    t.install("tysem.cli", "load_lexicon", "lexicon.load")
    t.install("tysem.lexicon:Lexicon", "typing_context",
              "lexicon.typing_context", hot=True)
    # composer and the type checker it calls
    t.install("tysem.cli", "compose", "composer.compose", counter=_compose)
    t.install("tysem.composer", "type_of", "kernel.type_of", hot=True)
    # discourse registry (the composer calls it through the module)
    t.install("tysem.discourse", "register_referent", "discourse.register",
              hot=True)
    t.install("tysem.discourse", "resolve_definite",
              "discourse.resolve_definite", hot=True, counter=_resolution)
    t.install("tysem.discourse", "resolve_pronoun",
              "discourse.resolve_pronoun", hot=True, counter=_resolution)
    t.install("tysem.discourse", "alpha_eq", "discourse.alpha_eq", hot=True)
    # kernel normalization
    t.install("tysem", "normalize", "kernel.normalize")
    t.install("tysem.cli", "reduction_steps", "kernel.reduction_steps",
              generator=True, counter=_steps(retained=True))
    t.install("tysem.kernel", "reduction_steps", "kernel.reduction_steps",
              generator=True, counter=_steps(retained=False))
    # logic
    t.install("tysem.cli", "extract_formula", "logic.extract", hot=True,
              counter=_formula_nodes)
    t.install("tysem.cli", "presuppositions", "logic.presuppositions",
              hot=True)
    t.install("tysem.cli", "formula_alpha_eq", "logic.formula_alpha_eq",
              hot=True)
    t.install("tysem.cli", "conjoin", "logic.conjoin", hot=True,
              counter=_formula_nodes)
    t.install("tysem.cli", "rewrite_hilbert", "logic.rewrite", hot=True,
              counter=_rewrites)
    t.install("tysem.cli", "print_formula", "logic.print", hot=True)
    t.install("tysem.cli", "formula_to_json", "logic.print", hot=True)
    t.install("tysem.cli", "parse_formula", "logic.parse_formula")
    # model
    t.install("tysem.cli", "load_model", "model.load")
    t.install("tysem.cli", "check_equivalence", "model.check_equivalence")
    t.install("tysem.model", "enumerate_models", "model.enumerate",
              generator=True, counter=_models)
    t.install("tysem.model", "eval_formula", "model.eval", hot=True)
    t.install("tysem.cli", "eval_formula", "model.eval", hot=True)


CLI_SELF = ("cli.main", "cli.run_analyze", "cli.run_eval",
            "cli.run_check_lexicon", "cli.analyze_tree",
            "cli.discourse_formula")
CLI_OUTPUT = ("cli.report", "cli.print", "cli.print_model")


def layer_metrics(tr: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per op of the traced phase."""
    tot, calls, c = tr.total, tr.calls, tr.counters
    raw = {
        "cli.argparse_s": tot["cli.build_parser"] + tot["cli.parse_args"],
        "cli.self_s": sum(tr.self_time[n] for n in CLI_SELF),
        "cli.output_s": sum(tr.self_time[n] for n in CLI_OUTPUT),
        "sexpr.read_s": tot["sexpr.read"],
        "sexpr.calls": calls["sexpr.read"],
        "sexpr.nodes": c["sexpr.nodes"],
        "lexicon.load_s": tot["lexicon.load"],
        "lexicon.loads": calls["lexicon.load"],
        "lexicon.typing_context_calls": calls["lexicon.typing_context"],
        "lexicon.typing_context_s": tot["lexicon.typing_context"],
        "composer.compose_s": tot["composer.compose"],
        "composer.calls": calls["composer.compose"],
        "composer.leaves": c["composer.leaves"],
        "composer.coercions_applied": c["composer.coercions_applied"],
        "composer.term_nodes": c["composer.term_nodes"],
        "kernel.type_of_s": tot["kernel.type_of"],
        "discourse.register_s": tot["discourse.register"],
        "discourse.register_calls": calls["discourse.register"],
        "discourse.resolve_definite_s": tot["discourse.resolve_definite"],
        "discourse.resolve_pronoun_s": tot["discourse.resolve_pronoun"],
        "discourse.alpha_eq_calls": calls["discourse.alpha_eq"],
        "discourse.referents": c["discourse.referents"],
        "kernel.normalize_s": tot["kernel.reduction_steps"],
        "kernel.beta_steps": c["kernel.beta_steps"],
        "kernel.nodes_in": c["kernel.nodes_in"],
        "kernel.nodes_out": c["kernel.nodes_out"],
        "kernel.steps_retained": c["kernel.steps_retained"],
        "logic.extract_s": tot["logic.extract"],
        "logic.presuppositions_s": tot["logic.presuppositions"],
        "logic.alpha_eq_calls": calls["logic.formula_alpha_eq"],
        "logic.conjoin_s": tot["logic.conjoin"],
        "logic.rewrite_s": tot["logic.rewrite"],
        "logic.rewrites_fired": c["logic.rewrites_fired"],
        "logic.print_s": tot["logic.print"],
        "logic.formula_nodes": c["logic.formula_nodes"],
        "logic.parse_formula_s": tot["logic.parse_formula"],
        "model.load_s": tot["model.load"],
        "model.enumerate_s": tot["model.enumerate"],
        "model.models_enumerated": c["model.models_enumerated"],
        "model.eval_s": tot["model.eval"],
        "model.eval_calls": calls["model.eval"],
    }
    return {k: v / ops for k, v in raw.items()}
