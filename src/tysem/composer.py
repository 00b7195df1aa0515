"""Composition: from a bracketed syntactic tree to one well-typed term.

Each leaf is replaced by its lexical term; at every node the function's term
is applied to the argument's, inferring type instantiations for Pi-typed
functions by first-order matching and repairing sort clashes with the
argument head word's declared coercions.  Rigid coercions exclude any other
coercion of the same word occurrence within the composed sentence.

Every application takes one path, over one kind of value: a function's
leading Pi variables become its type slots, and an arrow-typed function is
the case with no type slots.  Two departures from naive application make
the polymorphic lexicon work:

* a function whose leading Pi variables are not all determined by the first
  argument stays pending (a value with unbound type variables) until later
  arguments fix them, at which point the type applications and the queued
  arguments are emitted in the order the function's type prescribes;
* when an argument fills a bare type-variable slot and the function then
  expects functions out of that argument's own sort, the composer supplies
  those from the argument's coercions (this is how one conjunction constant
  copredicates over two aspects of a single referent).

Every type a value holds has its bindings substituted already, so each
application substitutes once: the bindings its argument made, into what
remains of the function's type.

Determiner leaves feed the discourse registry: an indefinite registers the
choice term it built, a definite tries to resolve against the registry and
falls back to a fresh term, a pronoun copies its antecedent's term.  These
are composition's only contact with the discourse; everything else is a
function of the lexicon and the tree.  The composer logs each of these
calls in order, with the answer of each read, and the result carries the
log: `replay` makes the calls again against another state, and where
every read answers the same, the composition would too.
"""
from __future__ import annotations

from collections.abc import Iterable
from operator import length_hint

from . import discourse as disc
from .discourse import DiscourseState
from .errors import (AmbiguousCoercion, CompositionError, NoCoercionPath,
                     RigidityViolation, TypeClash)
from .kernel import (App, Arrow, BaseSort, Const, Pi, Term, Type, TyApp,
                     TypeVar, canon, free_tyvars, subst_type, type_of)
from .lexicon import Coercion, LexEntry, Lexicon, lookup_entry
from .node import emit, node
from .sexpr import Atom, SExpr, expect_len, read_one

# ---------------------------------------------------------------------------
# syntactic trees


@node
class Leaf:
    word: str


@node
class Node:
    fun: "SynTree"
    arg: "SynTree"


SynTree = Leaf | Node


def parse_tree(text: str) -> SynTree:
    """`TREE ::= WORD | (TREE TREE+)`, function first; longer lists
    associate to the left, so (f a b) reads as ((f a) b)."""
    return _tree_of(read_one(text))


def _tree_of(e: SExpr) -> SynTree:
    if isinstance(e, Atom):
        return Leaf(e.text)
    expect_len(e, 2, None, "a tree node needs a function and an argument")
    out = _tree_of(e[0])
    for sub in e.items[1:]:
        out = Node(out, _tree_of(sub))
    return out


def print_tree(tree: SynTree) -> str:
    """The tree as `parse_tree` reads it, each node a pair `(fun arg)`."""
    return emit(tree, _TREE_TEXT)


_TREE_TEXT = {Leaf: lambda n: n.word,
              Node: lambda n: (")", n.arg, " ", n.fun, "(")}


# ---------------------------------------------------------------------------
# coercion report

TypeSubstitution = dict[str, Type]


class CoercionReport:
    """Coercions used per word occurrence."""

    def __init__(self):
        self.uses: dict[str, list[tuple[str, str]]] = {}

    def __eq__(self, other):
        same = type(other) is CoercionReport
        return self.uses == other.uses if same else NotImplemented

    def record(self, occurrence: str, word: str, coercion: Coercion):
        used = self.uses.setdefault(occurrence, [])
        if any(label == coercion.label and rig == coercion.rigidity
               for label, rig in used):
            return
        rigid_before = [label for label, rig in used if rig == "rigid"]
        if used and (rigid_before or coercion.rigid):
            labels = [label for label, _ in used] + [coercion.label]
            rigid = rigid_before or [coercion.label]
            raise RigidityViolation(word, labels, rigid)
        used.append((coercion.label, coercion.rigidity))


# ---------------------------------------------------------------------------
# type instantiation


def _apply_subst(ty: Type, subst: TypeSubstitution) -> Type:
    for var, repl in subst.items():
        ty = subst_type(ty, var, repl)
    return ty


def _match_type(pattern: Type, concrete: Type, bindable: frozenset[str],
                subst: TypeSubstitution) -> bool:
    """Whether an instance of `pattern` is `concrete`, binding the
    `bindable` type variables in `subst` on the way.  `pattern` comes with
    the bindings already in `subst` substituted, so a variable bound on the
    way is compared with its binding where it occurs again, never
    substituted, and a `pi` that rebinds its name hides it."""
    match pattern:
        case TypeVar(name) if name in bindable:
            return subst.setdefault(name, concrete) == concrete
        case TypeVar(_) | BaseSort(_):
            return pattern == concrete
        case Arrow(dom, cod):
            return (isinstance(concrete, Arrow)
                    and _match_type(dom, concrete.dom, bindable, subst)
                    and _match_type(cod, concrete.cod, bindable, subst))
        case Pi(var, body):
            # binder names count, as in the kernel's `==` on types
            return (isinstance(concrete, Pi) and concrete.var == var
                    and _match_type(body, concrete.body, bindable - {var},
                                    subst))
    return False


def _matches(pattern: Type, concrete: Type, bindable: frozenset[str],
             subst: TypeSubstitution) -> TypeSubstitution | None:
    """`subst` extended so that `pattern` instantiates to `concrete`, or
    None if no extension does."""
    trial = dict(subst)
    return trial if _match_type(pattern, concrete, bindable, trial) else None


# ---------------------------------------------------------------------------
# coercion insertion


def insert_coercions(arg: Term, found: Type, wanted: Type,
                     entry: LexEntry | None, report: CoercionReport,
                     occurrence: str = "?", as_function: bool = False) -> Term:
    """Repair a sort clash using the argument head word's options.

    Returns the coerced argument `(o arg)`; with `as_function` the option
    term itself is returned, for slots that demand a function from the
    argument's sort (the copredication slots).  Exactly one option must
    apply; a rigid option combined with any other use of the same
    occurrence raises.
    """
    if found == wanted and not as_function:
        return arg
    word = entry.word if entry is not None else "?"
    candidates = [o for o in (entry.options if entry else ())
                  if o.source == found and o.target == wanted]
    if not candidates:
        raise NoCoercionPath(found, wanted, word)
    if len(candidates) > 1:
        raise AmbiguousCoercion(word, [o.label for o in candidates])
    option = candidates[0]
    report.record(occurrence, word, option)
    return option.term if as_function else App(option.term, arg)


# ---------------------------------------------------------------------------
# composition


class _Value:
    """A composed subtree: its term, type, and referent-head bookkeeping.

    A polymorphic function in the middle of application is a value too,
    while some leading Pi variable is `unbound`: its `term` is then the
    function's head, its `type` what the arguments taken so far leave of
    the head's type, `slots` the type applications and term arguments to
    emit, in the order the type prescribes, once every variable is bound,
    and `bindings` the variables bound so far.  A complete value has none
    of them.  Every type a value holds has its bindings substituted.
    """

    def __init__(self, term: Term, type: Type, head_word: str, head_occ: str,
                 head_entry: LexEntry | None, slots: tuple = (),
                 bindings: TypeSubstitution | None = None,
                 unbound: tuple[str, ...] = ()):
        self.term, self.type = term, type
        self.head_word, self.head_occ = head_word, head_occ
        self.head_entry = head_entry
        self.slots, self.bindings = slots, bindings or {}
        self.unbound = unbound


class ComposeResult:
    """A composed term and its type, the coercions used, the discourse state
    after the sentence, and the discourse calls made (see `replay`)."""

    def __init__(self, term: Term, type: Type, report: CoercionReport,
                 state: DiscourseState, log: list):
        self.term, self.type, self.report = term, type, report
        self.state = state
        self.log = log  # the discourse calls made, in order (see replay)


def compose(tree: SynTree, lex: Lexicon,
            state: DiscourseState | None = None) -> ComposeResult:
    """Bottom-up assembly of the tree into a single well-typed term.

    The result is returned un-normalized, together with the coercion report,
    the discourse state extended by any referents the sentence introduced,
    and the log of the discourse calls made.  Sort clashes that no coercion repairs raise TypeClash
    naming both words.
    """
    composer = _Composer(lex, state or DiscourseState())
    value = composer.compose(tree)
    if value.unbound:
        raise CompositionError(
            f"type variables {', '.join(value.unbound)} of "
            f"'{value.head_word}' were never determined by any argument")
    ty = type_of(composer.ctx, value.term)  # soundness guard
    return ComposeResult(value.term, ty, composer.report, composer.state,
                         composer.log)


class Logs(list):
    """The (log, value) pairs stored for the compositions of one tree, in
    order; a session keys them by the tree's line (`cli.analyze_session`).
    A composition is a function of its reads' answers, so logs whose first
    k reads answered alike make the same calls up to their next read:
    `first` maps each run of answers a log begins with to the first pair
    stored with it, the empty run aside: its pair is `self[0]`."""

    def __init__(self):
        super().__init__()
        self.first: dict[tuple, tuple] = {}

    def add(self, log: list, value):
        self.append((log, value))
        answers = [a for kind, _, a in log if kind != "register"]
        for k in range(1, len(answers) + 1):
            self.first.setdefault(tuple(answers[:k]), self[-1])


def replay(items: Iterable[tuple], state: DiscourseState, lex: Lexicon,
           values: list) -> tuple[DiscourseState, tuple | None]:
    """Make stored compositions' discourse calls again against `state`,
    one sentence after another.  For each (tree, logs) item of `items`,
    the value stored with the log whose reads all answer as recorded goes
    to `values`, and the state moves on to the one its composition would
    leave.  Returns the state and the first item none of whose logs
    answers, whose sentence must be composed afresh, which raises any
    error; an iterator keeps the items after it.  The item is None once
    the items are spent.  A session replays its sentences in one call, so
    a sentence makes no call of its own.

    `state` extends the state each stored composition left, as
    `cli.analyze_session` guarantees, since it made every one earlier in
    the same session.  So a pronoun read that answered then finds a
    referent now, and a definite read that found none then finds the one
    its composition registered.

    Each registration is made again.  A read answers as recorded when it
    returns the very object its log holds, as it does where a composition
    registered the term already registered (`_Composer._register`).  Where
    it answers otherwise, the calls go on in the first log with the
    answers so far (`Logs.first`, keyed by equality, so an equal answer
    leads to a log that recorded it), and one replay makes one log's calls
    however many are stored.  At most one log answers: two differ only
    past a read they recorded apart.  The answers are gathered only then:
    until a read answers otherwise, every read answered as the log
    recorded."""
    for item in items:
        logs = item[1]
        if not logs:
            return state, item
        log, value = logs[0]
        after, entries = state, iter(log)
        while True:
            for kind, args, answer in entries:
                if kind == "register":
                    after = disc.register_referent(after, *args)
                    continue
                if kind == "pronoun":
                    got = disc.resolve_pronoun(after, *args)
                    if got is answer:
                        continue
                else:
                    sort, restriction, index = args
                    ref = disc.resolve_definite(after, sort, restriction, lex,
                                                index)
                    if (answer is not None and ref.term is answer[0]
                            and ref.sort == answer[1]):
                        continue
                    got = ref.term, ref.sort
                break  # the read answered otherwise
            else:
                break  # every read answered as recorded
            i = len(log) - length_hint(entries)  # the entries made
            answers = [a for k, _, a in log[:i - 1] if k != "register"]
            if (pair := logs.first.get((*answers, got))) is None:
                return state, item
            log, value = pair
            entries = iter(log[i:])
        state = after
        values.append(value)
    return state, None


class _Composer:
    def __init__(self, lex: Lexicon, state: DiscourseState):
        self.lex = lex
        self.ctx = lex.typing_context()
        self.report = CoercionReport()
        self.state = state
        self.log = []
        self._leaf_index = 0

    # -- leaves

    def compose(self, tree: SynTree) -> _Value:
        if isinstance(tree, Leaf):
            return self._leaf(tree.word)
        fun = self.compose(tree.fun)
        arg = self.compose(tree.arg)
        return self._apply(fun, arg)

    def _leaf(self, word: str) -> _Value:
        self._leaf_index += 1
        occ = f"{word}#{self._leaf_index}"
        if word in self.lex.pronouns:
            hint = self.lex.pronouns[word]
            term = disc.resolve_pronoun(self.state, hint)
            self.log.append(("pronoun", (hint,), term))
            return _Value(term, type_of(self.ctx, term), word, occ, None)
        entry = lookup_entry(self.lex, word)
        return _Value(entry.principal, entry.principal_type, word, occ, entry)

    # -- application

    def _apply(self, fun: _Value, arg: _Value) -> _Value:
        if arg.unbound:
            raise CompositionError(
                f"argument '{arg.head_word}' has undetermined type "
                f"variables {', '.join(arg.unbound)}")
        body, slots, unbound = fun.type, list(fun.slots), list(fun.unbound)
        while isinstance(body, Pi):
            var = body.var
            if any(kind == "ty" and v == var for kind, v in slots):
                fresh = f"{var}'"
                while any(kind == "ty" and v == fresh for kind, v in slots):
                    fresh += "'"
                body = Pi(fresh, subst_type(body.body, var, TypeVar(fresh)))
                var = fresh
            slots.append(("ty", var))
            unbound.append(var)
            body = body.body

        if not isinstance(body, Arrow):
            raise TypeClash("a function type", body, fun_word=fun.head_word,
                            arg_word=arg.head_word)

        bindable = frozenset(unbound)
        bare_slot = isinstance(body.dom, TypeVar) and body.dom.name in bindable
        bindings = _matches(body.dom, arg.type, bindable, fun.bindings)
        arg_term = arg.term
        if bindings is None:
            bindings, arg_term = self._coerce_open(body.dom, arg, bindable,
                                                   fun)
        slots.append(("term", arg_term))
        new = {v: bindings[v] for v in unbound if v in bindings}
        rest = _apply_subst(body.cod, new)
        unbound = tuple(v for v in unbound if v not in new)
        if unbound:
            return _Value(fun.term, rest, fun.head_word, fun.head_occ,
                          fun.head_entry, tuple(slots), bindings, unbound)

        term = fun.term
        for kind, payload in slots:
            if kind == "ty":
                term = TyApp(term, bindings[payload])
            else:
                term = App(term, payload)

        if bare_slot and arg.head_entry is not None:
            term, rest = self._fill_function_slots(term, rest, arg)

        word, occ, entry = self._node_head(fun, arg)
        value = _Value(term, rest, word, occ, entry)
        return self._notify_determiner(fun, value)

    def _coerce_open(self, domain: Type, arg: _Value,
                     bindable: frozenset[str], fun: _Value):
        """Sort clash against a possibly open domain: apply the one option
        whose target completes the match."""
        entry = arg.head_entry
        hits = []
        for option in (entry.options if entry else ()):
            if option.source != arg.type:
                continue
            trial = _matches(domain, option.target, bindable, fun.bindings)
            if trial is not None:
                hits.append((option, trial))
        if not hits:
            raise TypeClash(domain, arg.type, fun_word=fun.head_word,
                            arg_word=arg.head_word)
        if len(hits) > 1:
            raise AmbiguousCoercion(arg.head_word,
                                    [o.label for o, _ in hits])
        option, trial = hits[0]
        self.report.record(arg.head_occ, entry.word, option)
        return trial, App(option.term, arg.term)

    def _fill_function_slots(self, term: Term, rest: Type, arg: _Value):
        """After an argument filled a bare type-variable slot, satisfy any
        following `sort-of-arg -> X` domains from that argument's own
        coercions rather than from the tree."""
        while (isinstance(rest, Arrow) and isinstance(rest.dom, Arrow)
               and rest.dom.dom == arg.type
               and not free_tyvars(rest.dom)):
            option_term = insert_coercions(arg.term, arg.type, rest.dom.cod,
                                           arg.head_entry, self.report,
                                           arg.head_occ, as_function=True)
            term = App(term, option_term)
            rest = rest.cod
        return term, rest

    # -- heads and determiners

    def _node_head(self, fun: _Value, arg: _Value):
        """Referent head of a composed node: the noun under a determiner,
        otherwise the function's head."""
        if (fun.head_entry is not None
                and fun.head_entry.determiner_mode != "none"):
            return arg.head_word, arg.head_occ, arg.head_entry
        return fun.head_word, fun.head_occ, fun.head_entry

    def _notify_determiner(self, det: _Value, value: _Value) -> _Value:
        """If `det` is a determiner, it just combined with its restriction
        (a choice constant completes on its first argument): tell the
        discourse registry."""
        mode = det.head_entry.determiner_mode if det.head_entry else "none"
        if mode == "none" or not isinstance(value.term, App):
            return value
        applied = value.term
        if not (isinstance(applied.fun, TyApp)
                and isinstance(applied.fun.fun, Const)):
            return value
        if mode == "universal":
            return value  # no referent introduced
        sort = applied.fun.ty
        want = disc._sort_name(sort)
        restriction = applied.arg
        # the sort's name, the restriction's canonical form and its index
        # key, worked out once and logged, so that a replay reuses them
        key = canon(restriction)
        index = disc.index_key(want, key)
        if mode == "indefinite":
            value.term = self._register(applied, want, restriction,
                                        det.head_occ, key, index)
            return value
        ref = disc.resolve_definite(self.state, want, restriction, self.lex,
                                    index)
        self.log.append(("definite", (want, restriction, index),
                         None if ref is None else (ref.term, ref.sort)))
        if ref is None:
            value.term = self._register(applied, want, restriction,
                                        det.head_occ, key, index)
            return value
        term = ref.term
        if ref.sort != want:
            option = disc.coercion_between(self.lex, ref.sort, want)
            self.report.record(det.head_occ, det.head_word, option)
            term = App(option.term, term)
        return _Value(term, type_of(self.ctx, term), value.head_word,
                      value.head_occ, value.head_entry)

    def _register(self, term: Term, sort: str, restriction: Term, occ: str,
                  key: Term, index: str) -> Term:
        """Register the choice term `term`, or the equal one the state
        indexes under the same key, which then stands for it: sentences
        that build one choice term share the object, so a replay's answers
        are the very terms its log recorded (see `replay`).  The
        term registered."""
        same = self.state.newest_by_key.get(index)
        if same is not None and same.term == term:
            term = same.term
        args = term, sort, restriction, occ, key, index
        self.state = disc.register_referent(self.state, *args)
        self.log.append(("register", args, None))
        return term
