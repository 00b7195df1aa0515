"""tysem: semantic composition over a second-order typed lambda calculus.

Bracketed syntactic trees are composed against a sorted lexicon with
rigid/flexible coercions, normalized, and read off as multisorted formulas
whose determiners are polymorphic choice operators; a finite-model evaluator
checks the classical equivalences by brute force.

Importing the package imports none of its modules.  Each public name below
is looked up in `_NAMES` on first access (a PEP 562 module `__getattr__`),
which imports the module that defines it and keeps the name in the
package's globals, so later accesses are plain attribute reads.  The
command line (`tysem.cli`) does the same for the names it uses, so a fresh
process imports only what its subcommand runs.
"""

# module -> the public names the package takes from it
_NAMES = {
    "composer": ("CoercionReport", "compose", "parse_tree"),
    "discourse": ("DiscourseState", "register_referent", "resolve_definite",
                  "resolve_pronoun"),
    "kernel": ("Term", "Type", "TypingContext", "alpha_eq", "normalize",
               "parse_term", "print_term", "type_of"),
    "lexicon": ("Lexicon", "load_lexicon", "lookup_entry", "print_lexicon",
                "type_to_predicate"),
    "logic": ("Formula", "extract_formula", "parse_formula", "presuppositions",
              "print_formula", "rewrite_hilbert"),
    "model": ("Model", "check_equivalence", "eval_formula", "extend_interp",
              "load_model", "restrict_interp"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .<module> import <name>`, which `python -X importtime` reports
    value = globals()[name] = getattr(
        __import__(module, globals(), None, (name,), 1), name)
    return value


__all__ = sorted(_MODULE_OF)
