"""Composition: from a bracketed syntactic tree to one well-typed term.

Each leaf is replaced by its lexical term; at every node the function's term
is applied to the argument's, inferring type instantiations for Pi-typed
functions by first-order matching and repairing sort clashes with the
argument head word's declared coercions.  Rigid coercions exclude any other
coercion of the same word occurrence within the composed sentence.

Two departures from naive application make the polymorphic lexicon work:

* a function whose leading Pi variables are not all determined by the first
  argument stays "pending" until later arguments fix them, at which point
  the type applications and the queued arguments are emitted in the order
  the function's type prescribes;
* when an argument fills a bare type-variable slot and the function then
  expects functions out of that argument's own sort, the composer supplies
  those from the argument's coercions (this is how one conjunction constant
  copredicates over two aspects of a single referent).

Determiner leaves feed the discourse registry: an indefinite registers the
choice term it built, a definite tries to resolve against the registry and
falls back to a fresh term, a pronoun copies its antecedent's term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import discourse as disc
from .discourse import DiscourseState
from .errors import (AmbiguousCoercion, CompositionError, NoCoercionPath,
                     NoMatch, RigidityViolation, ParseError, TypeClash)
from .kernel import (App, Arrow, BaseSort, Const, Pi, Term, Type, TyApp,
                     TypeVar, free_tyvars, subst_type, type_of)
from .lexicon import Coercion, LexEntry, Lexicon, lookup_entry
from .sexpr import Atom, SExpr, read_one

# ---------------------------------------------------------------------------
# syntactic trees


@dataclass(frozen=True)
class Leaf:
    word: str


@dataclass(frozen=True)
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
    if len(e) < 2:
        raise ParseError("a tree node needs a function and an argument",
                           e.line, e.col)
    out = _tree_of(e[0])
    for sub in e.items[1:]:
        out = Node(out, _tree_of(sub))
    return out


def print_tree(tree: SynTree) -> str:
    if isinstance(tree, Leaf):
        return tree.word
    return f"({print_tree(tree.fun)} {print_tree(tree.arg)})"


def tree_leaves(tree: SynTree) -> list[str]:
    if isinstance(tree, Leaf):
        return [tree.word]
    return tree_leaves(tree.fun) + tree_leaves(tree.arg)


# ---------------------------------------------------------------------------
# coercion report

TypeSubstitution = dict[str, Type]


@dataclass
class CoercionReport:
    """Coercions used per word occurrence, plus recorded violations."""

    uses: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    def record(self, occurrence: str, word: str, coercion: Coercion):
        used = self.uses.setdefault(occurrence, [])
        if any(label == coercion.label and rig == coercion.rigidity
               for label, rig in used):
            return
        rigid_before = [label for label, rig in used if rig == "rigid"]
        if used and (rigid_before or coercion.rigid):
            labels = [label for label, _ in used] + [coercion.label]
            rigid = rigid_before or [coercion.label]
            message = (f"rigid coercion {rigid[0]} on '{word}' excludes "
                       f"any other aspect")
            self.violations.append(message)
            raise RigidityViolation(word, labels, rigid)
        used.append((coercion.label, coercion.rigidity))


# ---------------------------------------------------------------------------
# type instantiation


def infer_type_instantiation(fun_type: Type, arg_type: Type,
                             existing: TypeSubstitution | None = None
                             ) -> TypeSubstitution:
    """Match the first arrow domain under a Pi prefix against an argument
    type, binding only the Pi-bound variables.

    Matching is structural and one-way; `existing` bindings are respected
    and the returned map extends them.  A non-Pi type yields the existing
    bindings unchanged.
    """
    subst: TypeSubstitution = dict(existing or {})
    if not isinstance(fun_type, Pi):
        return subst
    bindable: list[str] = []
    body = fun_type
    while isinstance(body, Pi):
        bindable.append(body.var)
        body = body.body
    body = _apply_subst(body, subst)
    if not isinstance(body, Arrow):
        raise NoMatch(body, arg_type)
    _match_type(body.dom, arg_type, frozenset(bindable), subst)
    return subst


def _apply_subst(ty: Type, subst: TypeSubstitution) -> Type:
    for var, repl in subst.items():
        ty = subst_type(ty, var, repl)
    return ty


def _match_type(pattern: Type, concrete: Type, bindable: frozenset[str],
                subst: TypeSubstitution):
    pattern = _apply_subst(pattern, subst)
    match pattern:
        case TypeVar(name) if name in bindable:
            bound = subst.get(name)
            if bound is None:
                subst[name] = concrete
            elif bound != concrete:
                raise NoMatch(pattern, concrete)
        case TypeVar(_) | BaseSort(_):
            if pattern != concrete:
                raise NoMatch(pattern, concrete)
        case Arrow(dom, cod):
            if not isinstance(concrete, Arrow):
                raise NoMatch(pattern, concrete)
            _match_type(dom, concrete.dom, bindable, subst)
            _match_type(cod, concrete.cod, bindable, subst)
        case Pi(var, body):
            if not isinstance(concrete, Pi):
                raise NoMatch(pattern, concrete)
            renamed = subst_type(concrete.body, concrete.var, TypeVar(var))
            _match_type(body, renamed, bindable - {var}, subst)
        case _:
            raise NoMatch(pattern, concrete)


def _matches(pattern: Type, concrete: Type, bindable: frozenset[str],
             subst: TypeSubstitution) -> TypeSubstitution | None:
    trial = dict(subst)
    try:
        _match_type(pattern, concrete, bindable, trial)
        return trial
    except NoMatch:
        return None


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


@dataclass
class _Value:
    """A composed subtree: its term, type, and referent-head bookkeeping."""
    term: Term
    type: Type
    head_word: str
    head_occ: str
    head_entry: LexEntry | None


@dataclass
class _Pending:
    """A polymorphic function whose leading Pi variables are not all fixed.

    `slots` records, in the order the type prescribes, the type applications
    and term arguments to emit once every variable is bound.
    """
    head: Term
    slots: list[tuple[str, object]]
    bindings: TypeSubstitution
    body: Type
    head_word: str
    head_occ: str
    head_entry: LexEntry | None

    def pending_vars(self) -> list[str]:
        return [v for kind, v in self.slots
                if kind == "ty" and v not in self.bindings]


@dataclass
class ComposeResult:
    term: Term
    type: Type
    report: CoercionReport
    state: DiscourseState


def compose(tree: SynTree, lex: Lexicon,
            state: DiscourseState | None = None) -> ComposeResult:
    """Bottom-up assembly of the tree into a single well-typed term.

    The result is returned un-normalized, together with the coercion report
    and the discourse state extended by any referents the sentence
    introduced.  Sort clashes that no coercion repairs raise TypeClash
    naming both words.
    """
    composer = _Composer(lex, state or DiscourseState())
    value = composer.compose(tree)
    if isinstance(value, _Pending):
        raise CompositionError(
            f"type variables {', '.join(value.pending_vars())} of "
            f"'{value.head_word}' were never determined by any argument")
    type_of(composer.ctx, value.term)  # soundness guard
    return ComposeResult(value.term, value.type, composer.report,
                         composer.state)


class _Composer:
    def __init__(self, lex: Lexicon, state: DiscourseState):
        self.lex = lex
        self.ctx = lex.typing_context()
        self.report = CoercionReport()
        self.state = state
        self._leaf_index = 0

    # -- leaves

    def compose(self, tree: SynTree) -> _Value | _Pending:
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
            return _Value(term, type_of(self.ctx, term), word, occ, None)
        entry = lookup_entry(self.lex, word)
        return _Value(entry.principal, entry.principal_type, word, occ, entry)

    # -- application

    def _apply(self, fun, arg) -> _Value | _Pending:
        if isinstance(arg, _Pending):
            raise CompositionError(
                f"argument '{arg.head_word}' has undetermined type "
                f"variables {', '.join(arg.pending_vars())}")
        if isinstance(fun, _Pending):
            return self._apply_pending(fun, arg)
        if isinstance(fun.type, Pi):
            pending = _Pending(fun.term, [], {}, fun.type, fun.head_word,
                               fun.head_occ, fun.head_entry)
            return self._apply_pending(pending, arg, determiner_from=fun)
        if isinstance(fun.type, Arrow):
            return self._apply_plain(fun, arg)
        raise TypeClash("a function type", fun.type,
                        fun_word=fun.head_word, arg_word=arg.head_word)

    def _apply_plain(self, fun: _Value, arg: _Value) -> _Value:
        wanted, result = fun.type.dom, fun.type.cod
        if arg.type == wanted:
            term = App(fun.term, arg.term)
        else:
            try:
                coerced = insert_coercions(arg.term, arg.type, wanted,
                                           arg.head_entry, self.report,
                                           arg.head_occ)
            except NoCoercionPath as exc:
                raise TypeClash(wanted, arg.type, fun_word=fun.head_word,
                                arg_word=arg.head_word) from exc
            term = App(fun.term, coerced)
        word, occ, entry = self._node_head(fun, arg)
        return _Value(term, result, word, occ, entry)

    def _apply_pending(self, fun: _Pending, arg: _Value,
                       determiner_from: _Value | None = None):
        body = _apply_subst(fun.body, fun.bindings)
        slots = list(fun.slots)
        while isinstance(body, Pi):
            var = body.var
            if any(kind == "ty" and v == var for kind, v in slots):
                fresh = f"{var}'"
                while any(kind == "ty" and v == fresh for kind, v in slots):
                    fresh += "'"
                body = Pi(fresh, subst_type(body.body, var, TypeVar(fresh)))
                var = fresh
            slots.append(("ty", var))
            body = body.body

        if not isinstance(body, Arrow):
            raise TypeClash("a function type", body, fun_word=fun.head_word,
                            arg_word=arg.head_word)

        bindable = frozenset(v for kind, v in slots
                             if kind == "ty" and v not in fun.bindings)
        domain = _apply_subst(body.dom, fun.bindings)
        bare_slot = isinstance(domain, TypeVar) and domain.name in bindable

        bindings = _matches(domain, arg.type, bindable, fun.bindings)
        arg_term = arg.term
        if bindings is None:
            bindings, arg_term = self._coerce_open(domain, arg, bindable,
                                                   fun.bindings, fun)
        slots.append(("term", arg_term))
        rest = _apply_subst(body.cod, bindings)

        pending = _Pending(fun.head, slots, bindings, rest, fun.head_word,
                           fun.head_occ, fun.head_entry)
        if pending.pending_vars():
            return pending

        term = fun.head
        for kind, payload in slots:
            if kind == "ty":
                term = TyApp(term, bindings[payload])
            else:
                term = App(term, payload)
        rest = _apply_subst(rest, bindings)

        if bare_slot and arg.head_entry is not None:
            term, rest = self._fill_function_slots(term, rest, arg)

        word, occ, entry = self._node_head(fun, arg)
        value = _Value(term, rest, word, occ, entry)
        if determiner_from is not None:
            value = self._notify_determiner(determiner_from, arg, value)
        return value

    def _coerce_open(self, domain: Type, arg: _Value,
                     bindable: frozenset[str], bindings: TypeSubstitution,
                     fun: _Pending):
        """Sort clash against a possibly open domain: pick the option whose
        target completes the match."""
        entry = arg.head_entry
        hits = []
        for option in (entry.options if entry else ()):
            if option.source != arg.type:
                continue
            trial = _matches(domain, option.target, bindable, bindings)
            if trial is not None:
                hits.append((option, trial))
        if not hits:
            raise TypeClash(_apply_subst(domain, bindings), arg.type,
                            fun_word=fun.head_word, arg_word=arg.head_word)
        if len(hits) > 1:
            raise AmbiguousCoercion(arg.head_word,
                                    [o.label for o, _ in hits])
        option, trial = hits[0]
        coerced = insert_coercions(arg.term, arg.type, option.target,
                                   entry, self.report, arg.head_occ)
        return trial, coerced

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

    def _node_head(self, fun: _Value | _Pending, arg: _Value):
        """Referent head of a composed node: the noun under a determiner,
        otherwise the function's head."""
        if (fun.head_entry is not None
                and fun.head_entry.determiner_mode != "none"):
            return arg.head_word, arg.head_occ, arg.head_entry
        return fun.head_word, fun.head_occ, fun.head_entry

    def _notify_determiner(self, det: _Value, arg: _Value,
                           value: _Value) -> _Value:
        """A determiner just combined with its restriction: tell the
        discourse registry."""
        mode = det.head_entry.determiner_mode if det.head_entry else "none"
        if mode == "none" or not isinstance(value.term, App):
            return value
        applied = value.term
        if not (isinstance(applied.fun, TyApp)
                and isinstance(applied.fun.fun, Const)):
            return value
        sort = applied.fun.ty
        restriction = applied.arg
        if mode == "indefinite":
            self.state = disc.register_referent(
                self.state, applied, sort, restriction, det.head_occ)
            return value
        if mode == "definite":
            ref = disc.resolve_definite(self.state, sort, restriction,
                                        self.lex)
            if ref is None:
                self.state = disc.register_referent(
                    self.state, applied, sort, restriction, det.head_occ)
                return value
            term = ref.term
            want = sort.name if isinstance(sort, BaseSort) else str(sort)
            if ref.sort != want:
                option = disc.coercion_between(self.lex, ref.sort, want)
                self.report.record(det.head_occ, det.head_word, option)
                term = App(option.term, term)
            return _Value(term, type_of(self.ctx, term), value.head_word,
                          value.head_occ, value.head_entry)
        return value  # universal: no referent introduced
