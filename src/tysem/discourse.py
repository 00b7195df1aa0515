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
coercion tier scans, over one referent per sort.  A (sort, restriction)
pair is indexed by a string, `index_key`: the `repr` of the sort's name
and of the restriction's canonical form, which names each node's class and
quotes each name, so restrictions equal up to bound names share a key, and
a variable and a constant of one name, or two annotations, do not.  A
string's hash is worked out in C once per string, where a term's is
worked out at each use, a Python call per node.  A state keeps its
referents as a chain, newest first, that it shares with the state it
extends, so a registration costs the same however many referents came
before; only the index maps, one entry per sort and per distinct
restriction, are copied.

A session replays most sentences (see `composer.replay`), and a
replayed indefinite registers again with the sort's name, the
restriction's canonical form and its index key from the composer's log,
so a registration runs no `canon` and hashes no term.  It leaves one
object for the garbage collector to track: the new referent, a tuple of
its fields that also holds the referent before it, and so is the new link
of the chain.  Built as one tuple, it takes about a third of the time a
node class's field-by-field `__init__` takes.  The new state and its two
index maps are set directly.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter

from .errors import NoAntecedent
from .kernel import BaseSort, Term, Type, canon
from .node import _delattr, _reduce, _setattr


def _sort_name(ty: Type | str) -> str:
    if type(ty) is str:
        return ty
    return ty.name if isinstance(ty, BaseSort) else str(ty)


def index_key(sort: str, key: Term) -> str:
    """The key a state indexes referents of `sort` whose restriction's
    canonical form is `key` by: equal for equal pairs, apart otherwise."""
    return f"{sort!r} {key!r}"


class Referent(tuple):
    """A choice term a word introduced into the discourse, with its sort and
    the restriction it was built from.

    A tuple of its six fields followed by the referent registered before it
    in its state, or None: the link of the state's chain.  It reads,
    compares, hashes, prints, copies and pickles as its six fields, as a
    frozen node class would; a copy is linked to nothing."""

    __slots__ = ()
    __match_args__ = ("index", "term", "sort", "predicate", "introduced_by",
                      "key")
    index = property(itemgetter(0))
    term = property(itemgetter(1))       # the choice term, e.g. eps{ani} chat
    sort = property(itemgetter(2))       # the sort's name
    predicate = property(itemgetter(3))  # the restriction it was built from
    introduced_by = property(itemgetter(4))  # word occurrence, e.g. "un#1"
    key = property(itemgetter(5))  # canon(predicate), read by resolve_definite
    __setattr__, __delattr__, __reduce__ = _setattr, _delattr, _reduce
    __ne__ = object.__ne__  # the negation of __eq__, not tuple's

    def __new__(cls, index: int, term: Term, sort: str, predicate: Term,
                introduced_by: str, key: Term):
        return _record(cls, (index, term, sort, predicate, introduced_by, key,
                             None))

    def __eq__(self, other):
        if other.__class__ is not Referent:
            return NotImplemented
        return self[:6] == other[:6]

    def __hash__(self):
        return hash(self[:6])

    def __repr__(self):
        fields = zip(self.__match_args__, self)  # the link left out
        return f"Referent({', '.join(f'{n}={v!r}' for n, v in fields)})"


_record = tuple.__new__


class DiscourseState:
    """The referents in order of introduction, and the index maps derived
    from them: the newest referent of each sort, oldest sort first, and of
    each (sort, restriction key) pair.  Immutable: the public attributes are
    read-only.  Equal when the referents are; copied and pickled as them.
    The second map's keys are `index_key`s."""

    __slots__ = ("_last", "_size", "_referents", "_newest", "_by_key")

    def __init__(self, referents: tuple[Referent, ...] = ()):
        last, chain, newest, by_key = None, [], {}, {}
        for ref in referents:
            if ref[6] is not last:  # linked elsewhere: a copy linked here
                ref = _record(Referent, (*ref[:6], last))
            chain.append(ref)
            newest.pop(ref.sort, None)  # keeps `newest` in recency order
            last = newest[ref.sort] = ref
            by_key[index_key(ref.sort, ref.key)] = ref
        self._last, self._size, self._referents = last, len(chain), tuple(chain)
        self._newest, self._by_key = newest, by_key

    newest = property(attrgetter("_newest"))
    newest_by_key = property(attrgetter("_by_key"))

    @property
    def referents(self) -> tuple[Referent, ...]:
        if self._referents is None:  # worked out once per state
            self._referents = tuple(reversed(list(self.newest_first())))
        return self._referents

    def newest_first(self):
        ref = self._last
        while ref is not None:
            yield ref
            ref = ref[6]

    def __eq__(self, other):
        if not isinstance(other, DiscourseState):
            return NotImplemented
        return self.referents == other.referents

    def __repr__(self):
        return f"DiscourseState(referents={self.referents!r})"

    def __reduce__(self):
        return DiscourseState, (self.referents,)


def register_referent(state: DiscourseState, eps_term: Term, sort: Type | str,
                      predicate: Term, source: str, key: Term | None = None,
                      index: str | None = None) -> DiscourseState:
    """Append a referent; the newest one is the most salient.  Registration
    is by token: composing the same sentence twice yields two referents.
    `key`, when given, is `kernel.canon(predicate)`, and `index`
    `index_key(sort, key)`."""
    sort = sort if type(sort) is str else _sort_name(sort)
    key = canon(predicate) if key is None else key
    index = index_key(sort, key) if index is None else index
    ref = _record(Referent, (state._size, eps_term, sort, predicate, source,
                             key, state._last))
    newest, by_key = state._newest.copy(), state._by_key.copy()
    newest.pop(sort, None)
    newest[sort] = by_key[index] = ref
    out = object.__new__(DiscourseState)
    out._last, out._size, out._referents = ref, state._size + 1, None
    out._newest, out._by_key = newest, by_key
    return out


def resolve_definite(state: DiscourseState, sort: Type | str, predicate: Term,
                     lex=None, index: str | None = None) -> Referent | None:
    """Most salient referent matching a definite description, or None.

    Prefers, newest first: the requested sort with an alpha-equivalent
    restriction, then the sort alone, then any referent whose sort reaches
    the requested one through a single coercion declared in `lex`.  The
    caller treats None as "no antecedent" and falls back to a fresh choice
    term plus presupposition.  `index`, when given, is
    `index_key(sort, kernel.canon(predicate))`.
    """
    want = sort if type(sort) is str else _sort_name(sort)
    newest = state._newest.get(want)
    if newest is not None:
        if index is None:
            index = index_key(want, canon(predicate))
        return state._by_key.get(index, newest)
    if lex is not None:
        # the newest referent of any sort is the newest of its own sort
        for ref in reversed(state._newest.values()):
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
    want = requested_sort
    if want is not None and type(want) is not str:
        want = _sort_name(want)
    ref = state._last if want is None else state._newest.get(want)
    if ref is not None:
        return ref.term
    raise NoAntecedent("no referent" if want is None
                       else f"no referent of sort {want}")
