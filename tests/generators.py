"""Random well-typed terms and random formulas for the property suites.

The term generator works over a fixed two-sort signature and produces
closed terms of a requested type, salting in beta redexes, vacuous
type-abstraction redexes, and instantiated choice/quantifier constants so
normalization has real work to do.  All type annotations it emits are
closed, so reduction never needs to rename type binders and types can be
compared syntactically.
"""

from __future__ import annotations

import random

from tysem.kernel import (App, Arrow, BaseSort, Const, Lam, T, Term, TyApp,
                          TyLam, Type, TypingContext, Var)
from tysem.logic import (And, Eps, Eq, Exists, Forall, Formula, Implies,
                         LApp, LConst, LTerm, LVar, Not, Or, Pred,
                         TruthConst)

ANI = BaseSort("ani")
PHYS = BaseSort("phys")

CONSTS: dict[str, Type] = {
    "fido": ANI,
    "rex": ANI,
    "table1": PHYS,
    "chat": Arrow(ANI, T),
    "dort": Arrow(ANI, T),
    "rouge": Arrow(PHYS, T),
    "aime": Arrow(ANI, Arrow(ANI, T)),
    "conv": Arrow(PHYS, ANI),
}


def generator_context() -> TypingContext:
    ctx = TypingContext.default().with_sorts({"ani", "phys"})
    for name, ty in CONSTS.items():
        ctx = ctx.with_const(name, ty)
    return ctx


_ENTITY_ATOMS = {ANI: ("fido", "rex"), PHYS: ("table1",)}
_PREDS = {ANI: ("chat", "dort"), PHYS: ("rouge",)}
_ARG_POOL = (ANI, PHYS, Arrow(ANI, T), T)


class TermGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def random_term(self, max_depth: int = 7) -> Term:
        target = self.rng.choice((T, T, ANI, PHYS, Arrow(ANI, T),
                                  Arrow(PHYS, Arrow(ANI, T))))
        return self.gen(target, {}, self.rng.randint(3, max_depth))

    def gen(self, target: Type, env: dict[str, Type], depth: int) -> Term:
        if depth <= 0:
            return self.atom(target, env)
        roll = self.rng.random()
        if roll < 0.06:
            return self.atom(target, env)
        if roll < 0.35:
            # beta redex at the target type
            arg_ty = self.rng.choice(_ARG_POOL)
            v = self.fresh()
            body = self.gen(target, {**env, v: arg_ty}, depth - 1)
            return App(Lam(v, arg_ty, body),
                       self.gen(arg_ty, env, depth - 1))
        if roll < 0.45:
            # vacuous type abstraction immediately instantiated
            inst = self.rng.choice((ANI, PHYS))
            body = self.gen(target, env, depth - 1)
            return TyApp(TyLam("a0", body), inst)
        if isinstance(target, Arrow):
            v = self.fresh()
            body = self.gen(target.cod, {**env, v: target.dom}, depth - 1)
            return Lam(v, target.dom, body)
        if target == T:
            return self.gen_prop(env, depth)
        return self.gen_entity(target, env, depth)

    def gen_prop(self, env: dict[str, Type], depth: int) -> Term:
        roll = self.rng.random()
        if roll < 0.25:
            name = self.rng.choice(("and", "or", "implies"))
            return App(App(Const(name, Arrow(T, Arrow(T, T))),
                           self.gen(T, env, depth - 1)),
                       self.gen(T, env, depth - 1))
        if roll < 0.35:
            return App(Const("not", Arrow(T, T)), self.gen(T, env, depth - 1))
        if roll < 0.55:
            sort = self.rng.choice((ANI, PHYS))
            quant = self.rng.choice(("exists", "forall"))
            pred = self.gen(Arrow(sort, T), env, depth - 1)
            from tysem.kernel import QUANT_TYPE
            return App(TyApp(Const(quant, QUANT_TYPE), sort), pred)
        if roll < 0.7:
            return App(App(Const("aime", CONSTS["aime"]),
                           self.gen_entity(ANI, env, depth - 1)),
                       self.gen_entity(ANI, env, depth - 1))
        sort = self.rng.choice((ANI, PHYS))
        pred = self.rng.choice(_PREDS[sort])
        return App(Const(pred, CONSTS[pred]),
                   self.gen_entity(sort, env, depth - 1))

    def gen_entity(self, sort: Type, env: dict[str, Type], depth: int) -> Term:
        in_scope = [(n, ty) for n, ty in env.items() if ty == sort]
        roll = self.rng.random()
        if depth <= 0 or roll < 0.3:
            return self.atom(sort, env)
        if roll < 0.55:
            choice = self.rng.choice(("eps", "ieps", "tau"))
            from tysem.kernel import CHOICE_TYPE
            pred = self.gen(Arrow(sort, T), env, depth - 1)
            return App(TyApp(Const(choice, CHOICE_TYPE), sort), pred)
        if sort == ANI and roll < 0.75:
            return App(Const("conv", CONSTS["conv"]),
                       self.gen_entity(PHYS, env, depth - 1))
        if in_scope and roll < 0.9:
            name, ty = self.rng.choice(in_scope)
            return Var(name, ty)
        return self.atom(sort, env)

    def atom(self, target: Type, env: dict[str, Type]) -> Term:
        in_scope = [(n, ty) for n, ty in env.items() if ty == target]
        if in_scope and self.rng.random() < 0.5:
            name, ty = self.rng.choice(in_scope)
            return Var(name, ty)
        if target in _ENTITY_ATOMS:
            name = self.rng.choice(_ENTITY_ATOMS[target])
            return Const(name, target)
        if target == T:
            sort = self.rng.choice((ANI, PHYS))
            pred = self.rng.choice(_PREDS[sort])
            return App(Const(pred, CONSTS[pred]), self.atom(sort, env))
        if isinstance(target, Arrow):
            for name, ty in CONSTS.items():
                if ty == target:
                    return Const(name, ty)
            v = self.fresh()
            return Lam(v, target.dom, self.atom(target.cod,
                                                {**env, v: target.dom}))
        raise AssertionError(f"no atom for {target}")


# ---------------------------------------------------------------------------
# formulas

FORMULA_CONSTANTS = {"fido": "ani", "bob": "ani", "b1": "obj"}
_F_PREDS = {"chat": ("ani",), "dort": ("ani",), "rouge": ("obj",),
            "aime": ("ani", "obj")}
_F_FUNCS = {"mere": (("ani",), "ani"), "boite": (("ani",), "obj")}


class FormulaGen:
    sorts = ("ani", "obj")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def random_formula(self, max_depth: int = 4) -> Formula:
        return self.gen({}, self.rng.randint(1, max_depth))

    def gen(self, env: dict[str, str], depth: int) -> Formula:
        if depth <= 0:
            return self.atom(env)
        roll = self.rng.random()
        if roll < 0.2:
            return self.atom(env)
        if roll < 0.45:
            cls = self.rng.choice((And, Or, Implies))
            return cls(self.gen(env, depth - 1), self.gen(env, depth - 1))
        if roll < 0.55:
            return Not(self.gen(env, depth - 1))
        cls = self.rng.choice((Exists, Forall))
        var = self.fresh()
        sort = self.rng.choice(self.sorts)
        return cls(var, sort, self.gen({**env, var: sort}, depth - 1))

    def atom(self, env: dict[str, str]) -> Formula:
        roll = self.rng.random()
        if roll < 0.1:
            return TruthConst(self.rng.random() < 0.5)
        if roll < 0.2:
            sort = self.rng.choice(("ani", "obj"))
            return Eq(self.term(sort, env, 1), self.term(sort, env, 1))
        name = self.rng.choice(list(_F_PREDS))
        sorts = _F_PREDS[name]
        return Pred(name, tuple(self.term(s, env, 2) for s in sorts))

    def term(self, sort: str, env: dict[str, str], depth: int) -> LTerm:
        in_scope = [n for n, s in env.items() if s == sort]
        roll = self.rng.random()
        if in_scope and roll < 0.35:
            return LVar(self.rng.choice(in_scope), sort)
        consts = [n for n, s in FORMULA_CONSTANTS.items() if s == sort]
        if depth <= 0 or roll < 0.6:
            return LConst(self.rng.choice(consts), sort)
        if roll < 0.8:
            funcs = [(f, a) for f, (a, res) in _F_FUNCS.items()
                     if res == sort]
            if funcs:
                fn, arg_sorts = self.rng.choice(funcs)
                return LApp(fn, tuple(self.term(s, env, depth - 1)
                                      for s in arg_sorts))
        mode = self.rng.choice(("indef", "def", "universal"))
        hole = self.fresh()
        body = self.gen({**env, hole: sort}, depth - 1)
        return Eps(mode, sort, hole, body)


class MonadicFormulaGen(FormulaGen):
    """Formulas over 1-3 sorts, `s`, `t` and `u`, each with 0-3 unary
    predicates: every connective and quantifier, and choice terms of every
    mode nested two deep, each closed (no Henkin dependency).  No `=`, no
    constant and no function symbol, so `model.check_equivalence` bounds
    every pair of them."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sorts = ("s", "t", "u")[:self.rng.randint(1, 3)]
        self.preds = {f"{sort.upper()}{i}": sort for sort in self.sorts
                      for i in range(self.rng.randint(0, 3))}
        self.nesting = 0

    def atom(self, env: dict[str, str]) -> Formula:
        if not self.preds or self.rng.random() < 0.1:
            return TruthConst(self.rng.random() < 0.5)
        name = self.rng.choice(sorted(self.preds))
        return Pred(name, (self.term(self.preds[name], env, 0),))

    def term(self, sort: str, env: dict[str, str], depth: int) -> LTerm:
        in_scope = [n for n, s in env.items() if s == sort]
        if in_scope and self.rng.random() < 0.5:
            return LVar(self.rng.choice(in_scope), sort)
        mode = self.rng.choice(("indef", "def", "universal"))
        hole = self.fresh()
        if self.nesting == 2:  # innermost: a predicate of the hole
            own = sorted(p for p, s in self.preds.items() if s == sort)
            body = (Pred(self.rng.choice(own), (LVar(hole, sort),)) if own
                    else TruthConst(self.rng.random() < 0.5))
        else:
            self.nesting += 1
            body = self.gen({hole: sort}, self.rng.randint(0, 2))
            self.nesting -= 1
        return Eps(mode, sort, hole, body)
