"""The contract of the tree nodes built by `tysem.node.node`: kernel types
and terms, logic terms and formulas, s-expressions and syntactic trees.

Each node is immutable, compares, hashes, copies, pickles and prints by its
fields, and keeps the fields, `match` order and `repr` it had as a plain
frozen dataclass.  A node holds its fields and nothing else.
"""

import builtins
import copy
import inspect
import pickle

import pytest

from tysem import composer, kernel, logic, sexpr
from tysem.composer import Leaf, Node
from tysem.kernel import (CHOICE_TYPE, T, App, Arrow, BaseSort, Const, Lam,
                          Pi, TyApp, TyLam, TypeVar, Var)
from tysem.logic import (And, Eps, Eq, Exists, Forall, Implies, LApp, LConst,
                         LVar, Not, Or, Pred, TruthConst)
from tysem.node import FrozenInstanceError, node
from tysem.sexpr import Atom, SList

ANI = BaseSort("ani")
X = LVar("x", "ani")
CHAT_X = Pred("chat", (X,))
YES, NO = TruthConst(True), TruthConst(False)

# one node of each class, its fields in order (which `match` follows too)
# and its repr
SAMPLES = [
    (ANI, ("name",), "BaseSort(name='ani')"),
    (TypeVar("a"), ("name",), "TypeVar(name='a')"),
    (Arrow(ANI, T), ("dom", "cod"),
     "Arrow(dom=BaseSort(name='ani'), cod=BaseSort(name='t'))"),
    (Pi("a", Arrow(TypeVar("a"), T)), ("var", "body"),
     "Pi(var='a', body=Arrow(dom=TypeVar(name='a'), "
     "cod=BaseSort(name='t')))"),
    (Var("x", ANI), ("name", "type"),
     "Var(name='x', type=BaseSort(name='ani'))"),
    (Const("fido", ANI), ("name", "type"),
     "Const(name='fido', type=BaseSort(name='ani'))"),
    (App(Const("chat", Arrow(ANI, T)), Var("x", ANI)), ("fun", "arg"),
     "App(fun=Const(name='chat', type=Arrow(dom=BaseSort(name='ani'), "
     "cod=BaseSort(name='t'))), "
     "arg=Var(name='x', type=BaseSort(name='ani')))"),
    (Lam("x", ANI, Var("x", ANI)), ("var", "var_type", "body"),
     "Lam(var='x', var_type=BaseSort(name='ani'), "
     "body=Var(name='x', type=BaseSort(name='ani')))"),
    (TyApp(Const("eps", CHOICE_TYPE), ANI), ("fun", "ty"),
     "TyApp(fun=Const(name='eps', type=Pi(var='a', body=Arrow("
     "dom=Arrow(dom=TypeVar(name='a'), cod=BaseSort(name='t')), "
     "cod=TypeVar(name='a')))), ty=BaseSort(name='ani'))"),
    (TyLam("a", Lam("x", TypeVar("a"), Var("x", TypeVar("a")))),
     ("tyvar", "body"),
     "TyLam(tyvar='a', body=Lam(var='x', var_type=TypeVar(name='a'), "
     "body=Var(name='x', type=TypeVar(name='a'))))"),
    (X, ("name", "sort"), "LVar(name='x', sort='ani')"),
    (LConst("fido", "ani"), ("name", "sort"),
     "LConst(name='fido', sort='ani')"),
    (LApp("mere", (X,)), ("fn", "args"),
     "LApp(fn='mere', args=(LVar(name='x', sort='ani'),))"),
    (Eps("indef", "ani", "x", CHAT_X), ("mode", "sort", "hole", "body"),
     "Eps(mode='indef', sort='ani', hole='x', body=Pred(name='chat', "
     "args=(LVar(name='x', sort='ani'),)))"),
    (CHAT_X, ("name", "args"),
     "Pred(name='chat', args=(LVar(name='x', sort='ani'),))"),
    (And(YES, NO), ("left", "right"),
     "And(left=TruthConst(value=True), right=TruthConst(value=False))"),
    (Or(YES, NO), ("left", "right"),
     "Or(left=TruthConst(value=True), right=TruthConst(value=False))"),
    (Implies(YES, NO), ("left", "right"),
     "Implies(left=TruthConst(value=True), right=TruthConst(value=False))"),
    (Not(YES), ("operand",), "Not(operand=TruthConst(value=True))"),
    (Exists("x", "ani", CHAT_X), ("var", "sort", "body"),
     "Exists(var='x', sort='ani', body=Pred(name='chat', "
     "args=(LVar(name='x', sort='ani'),)))"),
    (Forall("x", "ani", CHAT_X), ("var", "sort", "body"),
     "Forall(var='x', sort='ani', body=Pred(name='chat', "
     "args=(LVar(name='x', sort='ani'),)))"),
    (Eq(X, LConst("fido", "ani")), ("left", "right"),
     "Eq(left=LVar(name='x', sort='ani'), "
     "right=LConst(name='fido', sort='ani'))"),
    (YES, ("value",), "TruthConst(value=True)"),
    (Atom("chat", 1, 2), ("text", "line", "col", "string"), "chat"),
    (Atom("un chat", 3, 4, True), ("text", "line", "col", "string"),
     '"un chat"'),
    (SList((Atom("a", 1, 2),), 1, 1), ("items", "line", "col"), "(a)"),
    (Leaf("chat"), ("word",), "Leaf(word='chat')"),
    (Node(Leaf("dort"), Leaf("chat")), ("fun", "arg"),
     "Node(fun=Leaf(word='dort'), arg=Leaf(word='chat'))"),
]
NODES = [n for n, _, _ in SAMPLES]


def test_samples_cover_every_node_class():
    found = {cls for module in (kernel, logic, sexpr, composer)
             for _, cls in inspect.getmembers(module, inspect.isclass)
             if "__match_args__" in vars(cls) and "__slots__" in vars(cls)}
    assert found == {type(n) for n in NODES}


@pytest.mark.parametrize("n, names, text", SAMPLES)
def test_fields_match_order_and_repr(n, names, text):
    assert type(n).__match_args__ == type(n).__slots__ == names
    assert repr(n) == text
    assert not hasattr(n, "__dict__")
    # no base class adds a slot, such as a kept hash
    assert all(not vars(c).get("__slots__") for c in type(n).__mro__[1:])


@pytest.mark.parametrize("n", NODES)
def test_assigning_or_deleting_a_field_raises(n):
    for name in type(n).__match_args__:
        with pytest.raises(FrozenInstanceError):
            setattr(n, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(n, name)
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("n", NODES)
def test_copies_are_equal_and_hash_alike(n):
    for other in (copy.copy(n), copy.deepcopy(n),
                  pickle.loads(pickle.dumps(n))):
        assert other == n and type(other) is type(n)
        assert hash(other) == hash(n)
        assert repr(other) == repr(n)
    built = type(n)(*(getattr(n, name) for name in type(n).__match_args__))
    assert built == n and hash(built) == hash(n)


def test_equality_needs_the_same_class_and_fields():
    assert Var("x", ANI) != Const("x", ANI)
    assert Var("x", ANI) != Var("x", T)
    assert Or(YES, NO) != And(YES, NO)
    assert Atom("a", 1, 1) != Atom("a", 1, 1, True)


def test_match_binds_fields_in_order():
    match Lam("x", ANI, Var("x", ANI)):
        case Lam(v, ty, Var(name, _)):
            assert (v, ty, name) == ("x", ANI, "x")
        case _:
            pytest.fail("no match")
    match Node(Leaf("dort"), Leaf("chat")):
        case Node(Leaf(f), Leaf(a)):
            assert (f, a) == ("dort", "chat")
        case _:
            pytest.fail("no match")


def test_defining_a_node_class_compiles_at_most_once(monkeypatch):
    sources = []
    real_exec = builtins.exec

    def counting_exec(*args):
        sources.append(args[0])
        return real_exec(*args)

    monkeypatch.setattr(builtins, "exec", counting_exec)

    @node
    class Wide:
        a: int
        b: int
        c: int
        d: int
        e: int
        f: int
        g: int = 0

    assert len(sources) <= 1

    @node
    class Plain:
        value: str

    @node
    class AlsoWide:
        g: int
        f: int
        e: int
        d: int
        c: int
        b: int
        a: int

    assert len(sources) <= 1
    assert Wide(1, 2, 3, 4, 5, 6) == Wide(1, 2, 3, 4, 5, 6, g=0)
    assert Wide(1, 2, 3, 4, 5, 6) != Wide(1, 2, 3, 4, 5, 6, 7)
    assert repr(Wide(1, 2, 3, 4, 5, 6)).endswith(
        "Wide(a=1, b=2, c=3, d=4, e=5, f=6, g=0)")
    assert hash(Plain("a")) == hash(Plain("a")) and Plain("a") != Plain("b")
    backwards = AlsoWide(g=1, f=2, e=3, d=4, c=5, b=6, a=7)
    assert (backwards.g, backwards.a) == (1, 7)
    assert backwards == AlsoWide(1, 2, 3, 4, 5, 6, 7)
    assert hash(backwards) == hash((1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(FrozenInstanceError):
        Wide(1, 2, 3, 4, 5, 6).a = 2


def test_repr_setattr_and_delattr_are_shared():
    classes = {type(n) for n in NODES}
    for name in ("__setattr__", "__delattr__", "__reduce__"):
        assert len({vars(c)[name] for c in classes}) == 1
    printed_by_own_repr = {Atom, SList}
    assert len({vars(c)["__repr__"]
                for c in classes - printed_by_own_repr}) == 1
