"""The rewrite of a discourse as `tysem.logic` made it before its core took
the conjunct list: `cli.discourse_formula` conjoined the session with
`conjoin`, and `rewrite_hilbert` flattened the conjunction back into its
conjuncts (`_Pass`) and rebuilt every `And` of the spine when a pivot fired
(`_with_conjuncts`).  Kept verbatim as the oracle of the new core, beside
the recursive `old_rewrite_hilbert` of `test_rewrite.py`; only the name of
the entry point changed.  The helpers the two share stay in `tysem.logic`.
"""

from collections import Counter
from operator import is_

from tysem.logic import (And, Eps, Eq, Exists, Forall, Formula, LVar, Pred,
                         _TREE, _abstract, _fails_below, _formula_names,
                         _fresh_names, _head, _quantifier, _substitute,
                         canon_formula, conjoin, flatten_and,
                         free_formula_vars, nodes, transform)


def spine_discourse_formula(results, options) -> Formula:
    """`cli.discourse_formula` as it was: the session conjoined into one
    left-nested spine, then rewritten from the top of it."""
    parts: dict[Formula, Formula] = {}  # canon_formula key -> first part
    if options.presuppositions != "off":
        for r in {id(r): r for r in results}.values():
            for p in r.presupposition_list:
                parts.setdefault(canon_formula(p), p)
    out = conjoin([*parts.values(), *(r.formula for r in results)])
    return spine_rewrite_hilbert(out) if options.rewrite else out


def spine_rewrite_hilbert(f: Formula) -> Formula:
    """Replace each subformula of shape Body[choice_x Body] by the
    corresponding sorted quantifier, outside-in.

    The match also fires when the choice term's restriction is one conjunct
    of the abstracted subformula, which is the shape a sentence takes once
    its presuppositions are conjoined in.  Choice terms that fit no pattern
    are left intact: they are strictly more expressive than quantifiers.

    A formula is rewritten at its top in one pass (`_Pass`) that tries each
    of its pivots once, and each of its distinct conjuncts is then
    rewritten inside once.  A pivot that did not fire at a conjunction fails
    at every conjunction below it too, which has a subset of its conjuncts
    and names, unless its renamed hole can be captured there
    (`_fails_below`).  Only such pivots are tried again, down the left
    spine and in the right operands.  A restriction that binds no variable,
    as a noun's does, leaves none, so a discourse's rewrite costs time
    linear in its length, and no call recurses per sentence or per fire.

    Each distinct subformula object is rewritten once per call, and a node
    is rebuilt only when an operand changed, so a formula in which nothing
    fires comes back as the very object.
    """
    done: dict[int, tuple[Formula, Formula]] = {}  # id -> (g, rewrite(g))

    def inside(c: Formula) -> Formula:
        """c with its subformulas rewritten."""
        if type(c) is Pred or type(c) is Eq:
            return c
        kids = _TREE.children[type(c)](c)
        new = [rewrite(k) for k in kids]
        return c if all(map(is_, new, kids)) else _TREE.rebuild[type(c)](
            c, *new)

    def rewrite(g: Formula, live: set[Eps] | None = None) -> Formula:
        """g rewritten, where only the pivots in `live`, or any when it is
        None, can fire at g's conjunction."""
        if live is None and (hit := done.get(id(g))) is not None:
            return hit[1]
        top, memo, levels = g, live is None, []
        while True:
            now = _Pass(g, live)
            if not now.live or type(g) is not And:
                final = {i: inside(c) for i, c in now.conjuncts.items()}
                out = now.wrap(_with_conjuncts(g, final))
                break
            # a pivot that did not fire may fire at a conjunction below
            body = _with_conjuncts(g, now.conjuncts)
            levels.append((now, body))
            g, live = body.left, now.live
        for now, a in reversed(levels):
            right = rewrite(a.right, now.live)
            out = now.wrap(a if out is a.left and right is a.right
                           else And(out, right))
        if memo:
            done[id(top)] = top, out
        return out

    return rewrite(f)


_OUTSIDE_CHOICE = frozenset(_TREE.children) - {Eps}


class _Pass:
    """One pass of `rewrite_hilbert` at the top of a formula g.

    Each pivot, a choice term in a term position of g, is tried once, in
    occurrence order, against the `canon_formula` keys of g's distinct
    conjuncts (g alone when it is no conjunction).  Its hole is renamed to a
    name used nowhere outside the pivot, read off `free`, the names met
    outside every pivot, and `held`, the number of pivots each name occurs
    in.  Only the conjuncts that hold the pivot are abstracted and keyed
    (`_matches`).  A fire puts g under a new quantifier, a formula of its
    own, and a pivot whose restriction is a quantifier of that kind is
    tried there.

    `conjuncts` maps the id() of each distinct conjunct to its version with
    the fired pivots replaced, `fired` holds the fired pivots with their
    variables, outermost first, and `live` the pivots that did not fire and
    may fire at a conjunction below g.  Only the pivots in the `live` given,
    or all when it is None, are tried at g's conjunction.
    """

    def __init__(self, g: Formula, live: set[Eps] | None):
        self.g = g
        self.conjuncts = {id(c): c for c in flatten_and(g)}
        self.fired: list[tuple[Eps, str]] = []
        self.live: set[Eps] = set()
        self.holders: dict[Eps, list[int]] = {}  # pivot -> its conjuncts
        self.free: set[str] = set()
        for i, c in self.conjuncts.items():
            for n in nodes(c, into=_OUTSIDE_CHOICE):
                t = type(n)
                if t is Eps:
                    at = self.holders.setdefault(n, [])
                    if not at or at[-1] != i:
                        at.append(i)
                elif t is LVar:
                    self.free.add(n.name)
                elif t is Exists or t is Forall:
                    self.free.add(n.var)
        # abstraction keeps a conjunct's top node, so a pivot whose
        # restriction has another one fails here and below
        heads = {_head(c) for c in self.conjuncts.values()}
        tried = [p for p in self.holders if (live is None or p in live)
                 and _head(p.body) in heads]
        if not tried:
            return
        self.names = {p: _formula_names(p) for p in self.holders}
        self.held = Counter(n for names in self.names.values() for n in names)
        self.fresh, self.unbound = _fresh_names(), []  # fresh, not in free
        quantified = [p for p in self.holders
                      if type(p.body) is Exists or type(p.body) is Forall]
        for p in tried:
            if p not in self.holders:  # it fired at a quantifier
                continue
            var, new, want = self._try(p)
            if self._matches(new, var, want):
                at = len(self.fired)
                self._fire(p, var, new, at)
                while self._fires_at_quantifier(at, quantified):
                    pass
            elif not _fails_below(p, var):
                self.live.add(p)

    def _fires_at_quantifier(self, at: int, quantified: list[Eps]) -> bool:
        """Whether a pivot fires at g under the quantifiers of the pivots
        fired from `at` on, and fires there, bound outside them."""
        cls = _quantifier(self.fired[at][0])
        tried = [q for q in quantified
                 if q in self.holders and type(q.body) is cls]
        if tried:
            top = self.wrap(_with_conjuncts(self.g, self.conjuncts), at)
        for q in tried:
            var, new, want = self._try(q)
            if canon_formula(_abstract(top, q, LVar(var, q.sort))) == want:
                self._fire(q, var, new, at)
                self.live.discard(q)
                return True
        return False

    def _try(self, p: Eps):
        """p's variable, the conjuncts that hold p with it in p's place, and
        the key of p's restriction of it."""
        mine = self.names[p]

        def in_use(name):
            return name in self.free or self.held[name] > (name in mine)

        var = p.hole if not in_use(p.hole) else self._fresh(in_use)
        lvar = LVar(var, p.sort)
        new = {i: _abstract(self.conjuncts[i], p, lvar)
               for i in self.holders[p]}
        want = _substitute(p.body, p.hole, lvar, rename=False)
        return var, new, canon_formula(want)

    def _fresh(self, in_use) -> str:
        """The first fresh name not in use.  A name in `free` stays in use,
        so it is dropped from the names scanned."""
        names, i = self.unbound, 0
        while True:
            if i == len(names):
                names.append(next(self.fresh))
            if names[i] in self.free:
                del names[i]
            elif in_use(names[i]):
                i += 1
            else:
                return names[i]

    def _matches(self, new: dict[int, Formula], var: str, want: Formula):
        """Whether `want` is the key of a conjunct: of one that held the
        pivot, in its `new` version, or of another.  `var` occurs in no
        other conjunct, so those are keyed only when `var` is not free in
        `want`.  A conjunct that holds the pivot is larger than its
        restriction, so its old version never matches."""
        if any(canon_formula(c) == want for c in new.values()):
            return True
        return var not in free_formula_vars(want) and any(
            canon_formula(c) == want for c in self.conjuncts.values())

    def _fire(self, p: Eps, var: str, new: dict[int, Formula], at: int):
        self.conjuncts.update(new)
        self.free.add(var)
        self.held.subtract(self.names[p])
        del self.holders[p]
        self.fired.insert(at, (p, var))

    def wrap(self, f: Formula, at: int = 0) -> Formula:
        """f under the quantifiers of the pivots fired from `at` on."""
        for p, var in reversed(self.fired[at:]):
            f = _quantifier(p)(var, p.sort, f)
        return f


def _with_conjuncts(g: Formula, versions: dict[int, Formula]) -> Formula:
    """g with each conjunct c replaced by versions[id(c)], looping down the
    left spine; an And whose operands come back as they were is kept."""
    def visit(n, _):
        return None if type(n) is And else versions[id(n)]

    spine = []
    while type(g) is And:
        spine.append(g)
        g = g.left
    out = versions[id(g)]
    for a in reversed(spine):
        r = a.right
        right = transform(r, visit) if type(r) is And else versions[id(r)]
        out = a if out is a.left and right is r else And(out, right)
    return out


