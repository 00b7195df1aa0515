"""A session with every sentence composed afresh, none stored or replayed:
the oracle of `tysem.cli.analyze_session`."""

from tysem.cli import analyze_tree
from tysem.composer import parse_tree
from tysem.discourse import DiscourseState


def fresh_session(lex, lines, options):
    """The analyses of `lines` and the final state, as `analyze_session`
    returns them: every line parsed before any is composed, then each
    composed by `analyze_tree` against the state the ones before it left."""
    trees = [parse_tree(line) for line in lines]
    state, results = DiscourseState(), []
    for tree in trees:
        r, state = analyze_tree(lex, tree, state, options)
        results.append(r)
    return results, state
