"""tysem: semantic composition over a second-order typed lambda calculus.

Bracketed syntactic trees are composed against a sorted lexicon with
rigid/flexible coercions, normalized, and read off as multisorted formulas
whose determiners are polymorphic choice operators; a finite-model evaluator
checks the classical equivalences by brute force.
"""

from .composer import CoercionReport, compose, parse_tree
from .discourse import DiscourseState, register_referent, resolve_definite, \
    resolve_pronoun
from .kernel import (Term, Type, TypingContext, alpha_eq, normalize,
                     parse_term, print_term, type_of)
from .lexicon import Lexicon, load_lexicon, lookup_entry, print_lexicon, \
    type_to_predicate
from .logic import (Formula, extract_formula, parse_formula, presuppositions,
                    print_formula, rewrite_hilbert)

# the model checker is imported on first use: `analyze` never needs it
_MODEL_NAMES = ("Model", "check_equivalence", "eval_formula", "extend_interp",
                "load_model", "restrict_interp")


def __getattr__(name):
    if name in _MODEL_NAMES:
        from . import model
        return getattr(model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CoercionReport", "DiscourseState", "Formula", "Lexicon", "Model",
    "Term", "Type", "TypingContext", "alpha_eq", "check_equivalence",
    "compose", "eval_formula", "extend_interp", "extract_formula",
    "load_lexicon", "load_model", "lookup_entry", "normalize",
    "parse_formula", "parse_term", "parse_tree", "presuppositions",
    "print_formula", "print_lexicon", "print_term", "register_referent",
    "resolve_definite", "resolve_pronoun", "restrict_interp",
    "rewrite_hilbert", "type_of", "type_to_predicate",
]
