"""Lexicon files: declared sorts, logical constants, and word entries.

Each entry pairs a word with a principal term and optional coercions, each
flagged rigid or flexible.  A coercion converts the word's referent between
sorts (town to people, town to place, ...); unless the lexicon supplies a
defining term, the coercion is an opaque fresh constant named by its label.

Grammar (s-expressions, `;` comments):

    DECL     ::= (sort SYM)
               | (const SYM TYPE)
               | (entry STRING (principal TERM) OPTION* (mode MODE)?)
               | (pronoun STRING SYM?)
    OPTION   ::= (option SYM TYPE RIGIDITY TERM?)
    RIGIDITY ::= rigid | flexible
    MODE     ::= indefinite | definite | universal

A pronoun declaration registers a word resolved against the discourse
state rather than by a term of its own; the optional symbol is a sort hint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from . import kernel
from .errors import LexiconError, NotFound, ParseError, UnknownSort
from .kernel import (Arrow, BaseSort, CHOICE_CONSTANTS, Const, Term, Type,
                     TypingContext, alpha_eq, free_vars, parse_type,
                     print_term, term_of_sexpr, type_of, type_to_sexpr)
from .sexpr import Atom, SList, expect_atom, expect_list, read_all

RIGID = "rigid"
FLEXIBLE = "flexible"
MODES = ("indefinite", "definite", "universal")


@dataclass(frozen=True)
class Coercion:
    label: str
    source: Type
    target: Type
    term: Term
    rigidity: str  # RIGID or FLEXIBLE

    @property
    def rigid(self) -> bool:
        return self.rigidity == RIGID


@dataclass(frozen=True)
class LexEntry:
    word: str
    principal: Term
    principal_type: Type
    options: tuple[Coercion, ...] = ()
    determiner_mode: str = "none"

    def referent_sort(self) -> BaseSort | None:
        """The sort of the referent this word introduces: the type itself
        for entity-denoting words, the domain for one-place predicates."""
        ty = self.principal_type
        if isinstance(ty, BaseSort):
            return ty
        if (isinstance(ty, Arrow) and isinstance(ty.dom, BaseSort)
                and ty.cod == kernel.T):
            return ty.dom
        return None

    def options_from(self, source: Type) -> list[Coercion]:
        return [o for o in self.options if o.source == source]


@dataclass(frozen=True)
class Lexicon:
    sorts: frozenset[str] = frozenset()
    constants: dict[str, Type] = field(default_factory=dict)
    entries: dict[str, LexEntry] = field(default_factory=dict)
    pronouns: dict[str, str | None] = field(default_factory=dict)

    def typing_context(self) -> TypingContext:
        """Built once per lexicon; a loaded lexicon is never changed."""
        return self._typing_context

    @cached_property
    def _typing_context(self) -> TypingContext:
        base = TypingContext.default().with_sorts(self.sorts)
        return replace(base, consts={**base.consts, **self.constants})

    def all_coercions(self) -> list[Coercion]:
        return [o for e in self.entries.values() for o in e.options]


def lookup_entry(lex: Lexicon, word: str) -> LexEntry:
    entry = lex.entries.get(word)
    if entry is None:
        raise NotFound(word)
    return entry


# ---------------------------------------------------------------------------
# loading


def load_lexicon(text: str) -> Lexicon:
    """Parse and fully validate a lexicon.  All terms are type-checked
    against the declared constants and the built-ins."""
    decls = read_all(text)
    sorts: list[str] = []
    constants: dict[str, Type] = {}
    pronouns: dict[str, str | None] = {}
    entry_forms: list[SList] = []

    for decl in decls:
        form = expect_list(decl, "a declaration")
        if len(form) == 0:
            raise ParseError("empty declaration", form.line, form.col)
        head = expect_atom(form[0], "declaration keyword").text
        if head == "sort":
            if len(form) != 2:
                raise ParseError("(sort SYM)", form.line, form.col)
            name = expect_atom(form[1], "sort name").text
            if name in kernel.BUILTIN_SORTS:
                continue  # built-ins may be restated harmlessly
            if name in sorts:
                raise LexiconError(f"duplicate sort '{name}'")
            sorts.append(name)
        elif head == "const":
            if len(form) != 3:
                raise ParseError("(const SYM TYPE)", form.line, form.col)
            name = expect_atom(form[1], "constant name").text
            if name in constants or name in kernel.BUILTIN_CONSTANTS:
                raise LexiconError(f"duplicate constant '{name}'")
            ty = parse_type(form[2], kernel.BUILTIN_SORTS | frozenset(sorts),
                            frozenset())
            constants[name] = ty
        elif head == "entry":
            entry_forms.append(form)
        elif head == "pronoun":
            if len(form) not in (2, 3):
                raise ParseError("(pronoun STRING SYM?)", form.line, form.col)
            word = expect_atom(form[1], "pronoun word").text
            hint = None
            if len(form) == 3:
                hint = expect_atom(form[2], "sort hint").text
                if hint not in sorts and hint not in kernel.BUILTIN_SORTS:
                    raise UnknownSort(hint, form[2].line, form[2].col)
            if word in pronouns:
                raise LexiconError(f"duplicate pronoun '{word}'")
            pronouns[word] = hint
        else:
            raise ParseError(f"unknown declaration '{head}'",
                               form.line, form.col)

    # option constants registered by earlier entries must be visible, so
    # the context grows entry by entry
    ctx = Lexicon(frozenset(sorts), constants).typing_context()
    entries: dict[str, LexEntry] = {}
    for form in entry_forms:
        entry, new_consts = _parse_entry(form, ctx)
        if entry.word in entries or entry.word in pronouns:
            raise LexiconError("duplicate word", entry.word)
        for name, ty in new_consts.items():
            constants[name] = ty
            ctx = ctx.with_const(name, ty)
        entries[entry.word] = entry

    return Lexicon(sorts=frozenset(sorts), constants=constants,
                   entries=entries, pronouns=pronouns)


def _parse_entry(form: SList, ctx: TypingContext):
    if len(form) < 3:
        raise ParseError("(entry STRING (principal TERM) ...)",
                           form.line, form.col)
    word = expect_atom(form[1], "entry word").text
    principal_form = expect_list(form[2], "(principal TERM)")
    if (len(principal_form) != 2
            or not isinstance(principal_form[0], Atom)
            or principal_form[0].text != "principal"):
        raise ParseError("(principal TERM)", principal_form.line,
                           principal_form.col)
    try:
        principal = term_of_sexpr(principal_form[1], ctx)
        principal_type = type_of(ctx, principal)
    except Exception as exc:
        raise LexiconError(f"ill-typed principal term: {exc}", word) from exc
    if free_vars(principal):
        raise LexiconError("principal term is not closed", word)

    options: list[Coercion] = []
    mode = "none"
    new_consts: dict[str, Type] = {}
    entry = LexEntry(word, principal, principal_type)

    for sub in form.items[3:]:
        sub = expect_list(sub, "(option ...) or (mode ...)")
        head = expect_atom(sub[0], "option or mode").text
        if head == "mode":
            if len(sub) != 2:
                raise ParseError("(mode MODE)", sub.line, sub.col)
            mode = expect_atom(sub[1], "mode").text
            if mode not in MODES:
                raise ParseError(f"unknown mode '{mode}'", sub.line, sub.col)
        elif head == "option":
            options.append(_parse_option(sub, entry, ctx, new_consts, word))
        else:
            raise ParseError(f"unknown entry clause '{head}'",
                               sub.line, sub.col)

    if mode != "none":
        if not (isinstance(principal, Const)
                and principal.name in CHOICE_CONSTANTS):
            raise LexiconError(
                f"mode '{mode}' requires a choice-operator principal "
                f"(eps, ieps or tau), found type {principal_type}", word)

    return replace(entry, options=tuple(options), determiner_mode=mode), new_consts


def _parse_option(sub: SList, entry: LexEntry, ctx: TypingContext,
                  new_consts: dict[str, Type], word: str) -> Coercion:
    if len(sub) not in (4, 5):
        raise ParseError("(option SYM TYPE RIGIDITY TERM?)", sub.line, sub.col)
    label = expect_atom(sub[1], "option label").text
    ty = parse_type(sub[2], ctx.sorts, frozenset())
    rigidity = expect_atom(sub[3], "rigidity").text
    if rigidity not in (RIGID, FLEXIBLE):
        raise ParseError("rigidity must be 'rigid' or 'flexible'",
                           sub.line, sub.col)
    if not isinstance(ty, Arrow):
        raise LexiconError(f"option '{label}' must have an arrow type", word)
    source, target = ty.dom, ty.cod
    ref_sort = entry.referent_sort()
    if ref_sort is None:
        raise LexiconError(
            f"option '{label}' not allowed: the principal term does not "
            "denote a referent of a base sort", word)
    if source != ref_sort:
        raise LexiconError(
            f"option '{label}' has source {source}, but the word's referent "
            f"has sort {ref_sort}", word)

    if len(sub) == 5:
        try:
            term = term_of_sexpr(sub[4], ctx)
            term_ty = type_of(ctx, term)
        except Exception as exc:
            raise LexiconError(f"ill-typed option term '{label}': {exc}",
                               word) from exc
        if term_ty != ty:
            raise LexiconError(
                f"option '{label}' declares {ty} but its term has {term_ty}",
                word)
    else:
        declared = ctx.consts.get(label) or new_consts.get(label)
        if declared is not None and declared != ty:
            raise LexiconError(
                f"option '{label}' clashes with an existing constant of "
                f"type {declared}", word)
        if declared is None:
            new_consts[label] = ty
        term = Const(label, ty)
    return Coercion(label, source, target, term, rigidity)


# ---------------------------------------------------------------------------
# printing


def print_lexicon(lex: Lexicon) -> str:
    lines = []
    for s in sorted(lex.sorts):
        lines.append(f"(sort {s})")
    option_consts = {o.label for o in lex.all_coercions()
                     if isinstance(o.term, Const) and o.term.name == o.label}
    for name, ty in lex.constants.items():
        if name in option_consts:
            continue  # recreated from the option clause on reload
        lines.append(f"(const {name} {type_to_sexpr(ty)})")
    for entry in lex.entries.values():
        parts = [f'(entry "{entry.word}"',
                 f"(principal {print_term(entry.principal)})"]
        for o in entry.options:
            opt = f"(option {o.label} {type_to_sexpr(Arrow(o.source, o.target))} {o.rigidity}"
            if not (isinstance(o.term, Const) and o.term.name == o.label):
                opt += f" {print_term(o.term)}"
            parts.append(opt + ")")
        if entry.determiner_mode != "none":
            parts.append(f"(mode {entry.determiner_mode})")
        lines.append(" ".join(parts) + ")")
    for word, hint in lex.pronouns.items():
        lines.append(f'(pronoun "{word}"' + (f" {hint})" if hint else ")"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sort predicates


def type_to_predicate(lex: Lexicon, sort: str) -> tuple[Lexicon, Const]:
    """Return the membership predicate `hat_<sort> : e -> t` for an entity
    sort, registering it as a constant.  Idempotent: asking twice returns
    the same constant and does not duplicate the declaration."""
    if sort == "t":
        raise LexiconError("t is not an entity sort; no membership "
                           "predicate exists")
    if sort not in lex.sorts and sort not in ("e", "event"):
        raise UnknownSort(sort)
    name = f"hat_{sort}"
    ty = Arrow(kernel.E, kernel.T)
    existing = lex.constants.get(name)
    if existing is not None:
        if existing != ty:
            raise LexiconError(f"constant '{name}' already declared with "
                               f"type {existing}")
        return lex, Const(name, ty)
    new_lex = replace(lex, constants={**lex.constants, name: ty})
    return new_lex, Const(name, ty)


def lexicons_equal(a: Lexicon, b: Lexicon) -> bool:
    """Structural equality up to alpha-renaming inside terms; used by the
    print/load round-trip checks."""
    if a.sorts != b.sorts or a.constants != b.constants:
        return False
    if set(a.entries) != set(b.entries) or a.pronouns != b.pronouns:
        return False
    for word, ea in a.entries.items():
        eb = b.entries[word]
        if (ea.determiner_mode != eb.determiner_mode
                or ea.principal_type != eb.principal_type
                or not alpha_eq(ea.principal, eb.principal)
                or len(ea.options) != len(eb.options)):
            return False
        for oa, ob in zip(ea.options, eb.options):
            if (oa.label != ob.label or oa.source != ob.source
                    or oa.target != ob.target or oa.rigidity != ob.rigidity
                    or not alpha_eq(oa.term, ob.term)):
                return False
    return True
