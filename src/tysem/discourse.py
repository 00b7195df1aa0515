"""Discourse referents and their resolution.

Indefinites register the choice term they build as a new referent; definite
descriptions pick the most salient matching referent; pronouns copy their
antecedent's semantic term outright, which is what lets one choice term be
shared across sentences and later bound by a single quantifier.

Salience is recency: the newest referent wins.  Definites refine that with a
three-tier match (same restriction, then same sort, then reachable through a
single lexicon coercion).  States are immutable; every operation returns a
new state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NoAntecedent
from .kernel import BaseSort, Term, Type, canon
# looked up on this module by perfbench/spans.py, which counts its calls
from .kernel import alpha_eq  # noqa: F401


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
    key: Term = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # canonical form of the restriction, compared by resolve_definite
        object.__setattr__(self, "key", canon(self.predicate))


@dataclass(frozen=True)
class DiscourseState:
    referents: tuple[Referent, ...] = ()

    def newest_first(self):
        return reversed(self.referents)


def register_referent(state: DiscourseState, eps_term: Term, sort: Type | str,
                      predicate: Term, source: str) -> DiscourseState:
    """Append a referent; the newest one is the most salient.  Registration
    is by token: composing the same sentence twice yields two referents."""
    ref = Referent(len(state.referents), eps_term, _sort_name(sort),
                   predicate, source)
    return DiscourseState(state.referents + (ref,))


def resolve_definite(state: DiscourseState, sort: Type | str, predicate: Term,
                     lex=None) -> Referent | None:
    """Most salient referent matching a definite description, or None.

    Prefers, newest first: the requested sort with an alpha-equivalent
    restriction, then the sort alone, then any referent whose sort reaches
    the requested one through a single coercion declared in `lex`.  The
    caller treats None as "no antecedent" and falls back to a fresh choice
    term plus presupposition.
    """
    want = _sort_name(sort)
    same_sort = [ref for ref in state.newest_first() if ref.sort == want]
    if same_sort:
        key = canon(predicate)
        return next((ref for ref in same_sort if ref.key == key),
                    same_sort[0])
    if lex is not None:
        for ref in state.newest_first():
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
    for ref in state.newest_first():
        if want is None or ref.sort == want:
            return ref.term
    raise NoAntecedent("no referent" if want is None
                       else f"no referent of sort {want}")
