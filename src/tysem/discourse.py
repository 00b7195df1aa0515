"""Discourse referents and their resolution.

Indefinites register the choice term they build as a new referent; definite
descriptions pick the most salient matching referent; pronouns copy their
antecedent's semantic term outright, which is what lets one choice term be
shared across sentences and later bound by a single quantifier.

Salience is recency: the newest referent wins.  Definites refine that with a
three-tier match (same restriction, then same sort, then reachable through a
single lexicon coercion).  States are immutable; every operation returns a
new state.

Besides the referents in order, a state indexes the newest referent of each
sort and of each (sort, restriction) pair, so resolving a pronoun or a
definite is a dictionary lookup whatever the number of referents; only the
coercion tier scans, over one referent per sort.  A state keeps its
referents as a chain, newest first, that it shares with the state it
extends, so a registration costs the same however many referents came
before; only the index maps, one entry per sort and per distinct
restriction, are copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NoAntecedent
from .kernel import BaseSort, Term, Type, canon


def _sort_name(ty: Type | str) -> str:
    if isinstance(ty, str):
        return ty
    return ty.name if isinstance(ty, BaseSort) else str(ty)


@dataclass(frozen=True)
class Referent:
    index: int
    term: Term            # the choice term, e.g. eps{ani} chat
    sort: str
    predicate: Term       # the restriction the term was built from
    introduced_by: str    # word occurrence, e.g. "un#1"
    # canonical form of the restriction, compared by resolve_definite;
    # worked out here unless the caller has it
    key: Term = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key", canon(self.predicate))


class DiscourseState:
    """The referents in order of introduction, and the index maps derived
    from them: the newest referent of each sort, oldest sort first, and of
    each (sort, restriction key) pair.  Immutable; equal when the referents
    are."""

    __slots__ = ("_chain", "_size", "_referents", "newest", "newest_by_key")

    def __init__(self, referents: tuple[Referent, ...] = ()):
        chain, newest, by_key = None, {}, {}
        for ref in referents:
            chain = (ref, chain)
            _index(newest, by_key, ref)
        _fill(self, chain, len(referents), tuple(referents), newest, by_key)

    def __setattr__(self, name, value):
        raise AttributeError("a DiscourseState is immutable")

    @property
    def referents(self) -> tuple[Referent, ...]:
        if self._referents is None:  # worked out once per state
            object.__setattr__(self, "_referents",
                               tuple(reversed(list(self.newest_first()))))
        return self._referents

    def newest_first(self):
        chain = self._chain
        while chain is not None:
            ref, chain = chain
            yield ref

    def __eq__(self, other):
        if not isinstance(other, DiscourseState):
            return NotImplemented
        return self.referents == other.referents

    def __hash__(self):
        return hash(self.referents)

    def __repr__(self):
        return f"DiscourseState(referents={self.referents!r})"


def _fill(state: DiscourseState, *values):
    for name, value in zip(DiscourseState.__slots__, values):
        object.__setattr__(state, name, value)


def _index(newest: dict, by_key: dict, ref: Referent):
    newest.pop(ref.sort, None)  # keeps `newest` in recency order
    newest[ref.sort] = ref
    by_key[ref.sort, ref.key] = ref


def register_referent(state: DiscourseState, eps_term: Term, sort: Type | str,
                      predicate: Term, source: str, key: Term | None = None
                      ) -> DiscourseState:
    """Append a referent; the newest one is the most salient.  Registration
    is by token: composing the same sentence twice yields two referents.
    `key`, when given, is `kernel.canon(predicate)`."""
    ref = Referent(state._size, eps_term, _sort_name(sort), predicate, source,
                   key)
    newest, by_key = dict(state.newest), dict(state.newest_by_key)
    _index(newest, by_key, ref)
    out = object.__new__(DiscourseState)
    _fill(out, (ref, state._chain), state._size + 1, None, newest, by_key)
    return out


def resolve_definite(state: DiscourseState, sort: Type | str, predicate: Term,
                     lex=None, key: Term | None = None) -> Referent | None:
    """Most salient referent matching a definite description, or None.

    Prefers, newest first: the requested sort with an alpha-equivalent
    restriction, then the sort alone, then any referent whose sort reaches
    the requested one through a single coercion declared in `lex`.  The
    caller treats None as "no antecedent" and falls back to a fresh choice
    term plus presupposition.  `key`, when given, is
    `kernel.canon(predicate)`.
    """
    want = _sort_name(sort)
    newest = state.newest.get(want)
    if newest is not None:
        if key is None:
            key = canon(predicate)
        return state.newest_by_key.get((want, key), newest)
    if lex is not None:
        # the newest referent of any sort is the newest of its own sort
        for ref in reversed(state.newest.values()):
            if coercion_between(lex, ref.sort, want) is not None:
                return ref
    return None


def coercion_between(lex, source_sort: str, target_sort: str):
    """A single declared coercion from one sort to another, if any entry
    carries one."""
    for option in lex.all_coercions():
        if (isinstance(option.source, BaseSort)
                and isinstance(option.target, BaseSort)
                and option.source.name == source_sort
                and option.target.name == target_sort):
            return option
    return None


def resolve_pronoun(state: DiscourseState,
                    requested_sort: Type | str | None = None) -> Term:
    """Copy the most salient sort-compatible referent's term.

    This is the E-type reading: the pronoun denotes whatever choice term its
    antecedent introduced, extending that term's reach beyond its own
    sentence.  Raises NoAntecedent when nothing compatible is registered.
    """
    want = None if requested_sort is None else _sort_name(requested_sort)
    if want is None:
        ref = next(state.newest_first(), None)
    else:
        ref = state.newest.get(want)
    if ref is not None:
        return ref.term
    raise NoAntecedent("no referent" if want is None
                       else f"no referent of sort {want}")
