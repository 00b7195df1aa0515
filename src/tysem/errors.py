"""Exception hierarchy shared by all tysem modules.

Errors split into two families: input problems (syntax, missing files,
bad declarations) and semantic problems (type clashes, failed coercions,
unresolved anaphora).  The CLI maps the first family to exit code 1 and
the second to exit code 2.
"""

from __future__ import annotations


class TysemError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TysemError):
    """Malformed input: syntax errors, undeclared names in source text."""


class SemanticError(TysemError):
    """Well-formed input that is semantically rejected."""


# ---------------------------------------------------------------------------
# input errors


class ParseError(InputError):
    """Syntax error in an s-expression source, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class UnknownSort(InputError):
    def __init__(self, name: str, line: int = 0, col: int = 0):
        where = f"{line}:{col}: " if line else ""
        super().__init__(f"{where}unknown sort '{name}'")
        self.name = name


class UnboundName(InputError):
    def __init__(self, name: str, line: int = 0, col: int = 0):
        where = f"{line}:{col}: " if line else ""
        super().__init__(f"{where}unbound name '{name}'")
        self.name = name


class LexiconError(InputError):
    """Invalid lexicon declaration (duplicate word, ill-typed entry, ...)."""

    def __init__(self, message: str, word: str | None = None):
        super().__init__(message if word is None else f"entry '{word}': {message}")
        self.word = word


class ModelError(InputError):
    """Invalid model file or uninterpretable formula constant."""


class FreeSymbol(ModelError):
    """A constant or function symbol in a formula checked on enumerated
    models, which interpret none."""

    def __init__(self, name: str):
        super().__init__(
            f"free constant or function symbol '{name}': enumerated models "
            "interpret none; bind it with a quantifier or a choice term")
        self.name = name


# ---------------------------------------------------------------------------
# semantic errors


class TypeClash(SemanticError):
    """A predicate applied to an argument of the wrong sort.

    This is the selectional-restriction diagnostic: `fun_word`/`arg_word`
    name the offending words when the clash arises during composition.
    """

    def __init__(self, expected, found, where: str = "",
                 fun_word: str | None = None, arg_word: str | None = None):
        parts = [f"expected {expected}, found {found}"]
        if fun_word or arg_word:
            parts.append(f"('{fun_word}' applied to '{arg_word}')")
        elif where:
            parts.append(f"at {where}")
        super().__init__("type clash: " + " ".join(parts))
        self.expected = expected
        self.found = found
        self.where = where
        self.fun_word = fun_word
        self.arg_word = arg_word


class TyLamEscape(SemanticError):
    """Type abstraction over a variable free in the type of a free term variable."""

    def __init__(self, tyvar: str, term_var: str):
        super().__init__(
            f"cannot abstract type variable '{tyvar}': it occurs in the type "
            f"of free variable '{term_var}'")
        self.tyvar = tyvar
        self.term_var = term_var


class StepBudgetExceeded(SemanticError):
    """Reduction exceeded the step budget; signals an implementation bug."""

    def __init__(self, budget: int):
        super().__init__(f"normalization exceeded {budget} steps")
        self.budget = budget


class NotFound(SemanticError):
    def __init__(self, word: str):
        super().__init__(f"word not in lexicon: '{word}'")
        self.word = word


class NoCoercionPath(SemanticError):
    def __init__(self, found, wanted, word: str):
        super().__init__(
            f"no coercion from {found} to {wanted} in the entry for '{word}'")
        self.found = found
        self.wanted = wanted
        self.word = word


class AmbiguousCoercion(SemanticError):
    def __init__(self, word: str, labels: list[str]):
        super().__init__(
            f"ambiguous coercion for '{word}': candidates {', '.join(labels)}")
        self.word = word
        self.labels = labels


class RigidityViolation(SemanticError):
    """A rigid coercion was combined with another coercion of the same occurrence."""

    def __init__(self, word: str, labels: list[str], rigid_labels: list[str]):
        others = [l for l in labels if l not in rigid_labels]
        super().__init__(
            f"rigidity violation on '{word}': {', '.join(rigid_labels)} is "
            f"rigid and excludes every other coercion of the same occurrence "
            f"(also used: {', '.join(others)})")
        self.word = word
        self.labels = labels
        self.rigid_labels = rigid_labels


class CompositionError(SemanticError):
    """Composition failed for a structural reason (not a sort clash)."""


class ExtractionError(SemanticError):
    """A term could not be read back as a logical formula."""


class NotNormal(ExtractionError):
    pass


class NotTruthType(ExtractionError):
    pass


class ResidualLambda(ExtractionError):
    """Higher-order residue where a first-order formula part was required."""


class NoAntecedent(SemanticError):
    def __init__(self, detail: str = ""):
        super().__init__("no antecedent" + (f": {detail}" if detail else ""))


class EvalError(SemanticError):
    """Formula evaluation failed (empty carrier, Henkin dependency, ...)."""


class UninterpretedConstant(EvalError):
    def __init__(self, name: str):
        super().__init__(f"constant '{name}' has no interpretation")
        self.name = name


class EmptyCarrier(EvalError):
    def __init__(self, sort: str):
        super().__init__(f"carrier for sort '{sort}' is empty")
        self.sort = sort
