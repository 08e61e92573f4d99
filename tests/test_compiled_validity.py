"""``is_valid_in``'s compiled closures against the pointwise oracle.

``is_valid_in`` compiles a formula once per matrix into closures cached on
its nodes (``structures._compile``).  It is held here to a loop of
``eval_formula`` over ``assignments_over``: the same verdict and least
refuting assignment, or the same error, met first in the same preorder.
The formulas draw some of their symbols from outside the structure's
signature, and the matrices lack some connectives, so errors are drawn
too.  The searches are derandomized, so a run is repeatable.
"""

import gc
import itertools
import pickle
import types

import pytest
from hypothesis import given, settings, strategies as st

from qciore import structures
from qciore.matrix3 import CIORE, DESIGNATED, HALF, LFI1, ONE, P1, VALUES, ZERO, Matrix
from qciore.search import check_consequence_bounded
from qciore.structures import (
    Assignment,
    Structure,
    assignments_over,
    eval_formula,
    is_valid_in,
    make_structure,
)
from qciore.syntax import (
    EQ,
    And,
    App,
    Cons,
    Const,
    Exists,
    Forall,
    FVar,
    Imp,
    Neg,
    Or,
    Pred,
    Signature,
    Var,
    free_vars,
    parse_formula,
    subformulas,
)
from qciore.triples import make_triple

SIGS = (
    Signature(predicates={"P": 1}, constants={"c"}),
    Signature(predicates={"P": 1}, functions={"f": 1}),
    Signature(predicates={"R": 2}),
    Signature(predicates={"P": 1}, has_equality=True),
)
DOMAIN = ("a", "b", "c")
VARS = ("x", "y", "z")  # bound and free alike, so binders shadow one another
# a mutated matrix, as the harness's are: one cell of ~ and one of -> changed
MUTATED = Matrix(
    "mutated",
    {**CIORE.unary, "~": {**CIORE.unary["~"], HALF: ZERO}},
    {**CIORE.binary, "->": {**CIORE.binary["->"], (ONE, HALF): ZERO}},
)
MATRICES = (CIORE, P1, LFI1, MUTATED)
SEARCH = settings(max_examples=400, deadline=None, derandomize=True)


def oracle(f, A, matrix):
    """``is_valid_in`` as a loop of ``eval_formula``, without a memo."""
    for s in assignments_over(A, tuple(sorted(free_vars(f)))):
        if eval_formula(f, A, s, None, matrix) not in DESIGNATED:
            return False, s
    return True, None


def outcome(check, f, A, matrix):
    """(ok, witness) with the witness's type, or the error's type and message."""
    try:
        ok, witness = check(f, A, matrix)
    except (ValueError, KeyError, TypeError) as e:
        return type(e), str(e)
    return ok, witness, type(witness)


def _triple_over(draw, carrier):
    values = draw(st.lists(st.sampled_from(VALUES), min_size=len(carrier), max_size=len(carrier)))
    return make_triple(*({t for t, v in zip(carrier, values) if v == w} for w in (ONE, ZERO, HALF)))


@st.composite
def structures_over(draw, sig):
    domain = DOMAIN[: draw(st.integers(1, 3))]
    arities = dict(sig.predicates, **({EQ: 2} if sig.has_equality else {}))
    preds = {name: _triple_over(draw, list(itertools.product(domain, repeat=k)))
             for name, k in arities.items()}
    funs = {name: {(a,): draw(st.sampled_from(domain)) for a in domain} for name in sig.functions}
    consts = {name: draw(st.sampled_from(domain)) for name in sig.constants}
    return make_structure(sig, domain, preds, funs, consts)


def formulas_over(sig):
    """Formulas mostly over ``sig``; a quarter of the atoms use a symbol
    that ``sig`` lacks, or are a metavariable."""
    base = [Var(v) for v in VARS] + [Const(c) for c in sig.constants]
    terms = st.recursive(
        st.sampled_from(base),
        lambda sub: st.one_of(*(sub.map(lambda t, g=g: App(g, (t,))) for g in sig.functions))
        if sig.functions else sub,
        max_leaves=2,
    )
    own = [st.builds(lambda t, p=p: Pred(p, (t,)), terms)
           for p, k in sig.predicates.items() if k == 1]
    own += [st.builds(lambda t, u, p=p: Pred(p, (t, u)), terms, terms)
            for p, k in sig.predicates.items() if k == 2]
    if sig.has_equality:
        own.append(st.builds(lambda t, u: Pred(EQ, (t, u)), terms, terms))
    foreign = st.sampled_from([
        Pred("Q", (Var("x"),)), Pred(EQ, (Var("x"), Var("y"))), Pred("P", (Const("d"),)),
        Pred("P", (App("g", (Var("y"),)),)), FVar("A"),
    ])
    atoms = st.one_of(st.one_of(*own), st.one_of(*own), st.one_of(*own), foreign)
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(Cons, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Imp, sub, sub),
            st.builds(Forall, st.sampled_from(VARS), sub),
            st.builds(Exists, st.sampled_from(VARS), sub),
        ),
        max_leaves=8,
    )


@st.composite
def cases(draw):
    sig = draw(st.sampled_from(SIGS))
    return draw(formulas_over(sig)), draw(structures_over(sig))


@SEARCH
@given(cases())
def test_is_valid_in_matches_the_oracle(case):
    f, A = case
    # one node checked under each matrix in turn: its cache slot is rewritten
    for matrix in MATRICES:
        assert outcome(is_valid_in, f, A, matrix) == outcome(oracle, f, A, matrix), str(f)


P_X = Pred("P", (Var("x"),))
Q_X = Pred("Q", (Var("x"),))
META = FVar("A")
SMALL = make_structure(
    Signature(predicates={"P": 1}),
    ("a", "b"),
    {"P": make_triple({("a",)}, {("b",)}, ())},
)
# f is partial: defined at a only, so P(f(x)) is refuted at a or stops at b
PARTIAL_F = Structure(
    Signature(predicates={"P": 1}, functions={"f": 1}),
    ("a", "b"),
    {"P": make_triple({("a",)}, {("b",)}, ())},
    {"f": {("a",): "b"}},
)
HOLDS_AT_A = Structure(PARTIAL_F.sig, PARTIAL_F.domain, PARTIAL_F.preds, {"f": {("a",): "a"}})


@pytest.mark.parametrize(
    "f,A,matrix,expected",
    [
        (Q_X, SMALL, CIORE, "structure does not interpret predicate Q"),
        (Pred(EQ, (Var("x"), Var("x"))), SMALL, CIORE, "structure does not interpret equality"),
        (Pred("P", (Const("d"),)), SMALL, CIORE, "structure does not interpret constant d"),
        (Pred("P", (App("g", (Var("x"),)),)), SMALL, CIORE,
         "structure does not interpret g on ('a',)"),
        (META, SMALL, CIORE, "metavariable A in a concrete formula"),
        (And(P_X, P_X), SMALL, P1, "P1 does not interpret &"),
        (Cons(P_X), SMALL, P1, "P1 does not interpret @"),
        # where two apply, the first in preorder
        (And(Q_X, META), SMALL, CIORE, "structure does not interpret predicate Q"),
        (Or(META, Q_X), SMALL, CIORE, "metavariable A in a concrete formula"),
        (Pred("Q", (Const("d"),)), SMALL, CIORE, "structure does not interpret constant d"),
        (Neg(And(Q_X, META)), SMALL, P1, "P1 does not interpret &"),
        (Imp(Q_X, And(P_X, P_X)), SMALL, P1, "structure does not interpret predicate Q"),
        (Forall("y", Imp(META, Q_X)), SMALL, CIORE, "metavariable A in a concrete formula"),
        # an error met only at the second assignment
        (Pred("P", (App("f", (Var("x"),)),)), HOLDS_AT_A, CIORE,
         "structure does not interpret f on ('b',)"),
    ],
    ids=lambda v: (v.name if isinstance(v, Matrix) else "" if isinstance(v, Structure)
                   else str(v)),
)
def test_errors_match_the_oracle(f, A, matrix, expected):
    got = outcome(is_valid_in, f, A, matrix)
    assert got == outcome(oracle, f, A, matrix) == (ValueError, expected)


def test_a_refutation_before_an_error_is_returned():
    # P(f(a)) = P(b) = 0 refutes at a, before f is read at b
    f = Pred("P", (App("f", (Var("x"),)),))
    expected = (False, Assignment("a", (("x", "a"),)))
    assert is_valid_in(f, PARTIAL_F) == oracle(f, PARTIAL_F, CIORE) == expected


def test_a_shadowed_binder_reads_the_inner_variable():
    # P holds at a only: the inner x ranges over the domain whatever the outer
    f = parse_formula("forall x. exists x. P(x)")
    assert f == Forall("x", Exists("x", P_X))
    assert is_valid_in(f, SMALL) == oracle(f, SMALL, CIORE) == (True, None)
    g = parse_formula("exists x. forall x. P(x)")
    assert is_valid_in(g, SMALL) == oracle(g, SMALL, CIORE) == (False, Assignment("a"))
    h = parse_formula("P(x) & forall x. exists x. P(x)")
    expected = (False, Assignment("a", (("x", "b"),)))
    assert is_valid_in(h, SMALL) == oracle(h, SMALL, CIORE) == expected


PQ = Signature(predicates={"P": 1, "Q": 1})
# P(a) = 1, Q(a) = 1/2: & gives 1 under CIORE and 1/2 under LFI1, and @ flips
# designation between them
SPLIT = make_structure(PQ, ("a",), {"P": make_triple({("a",)}, (), ()),
                                    "Q": make_triple((), (), {("a",)})})


def test_each_matrix_gets_its_own_verdict_on_one_node():
    f = parse_formula("@(P(x) & Q(x))", PQ)
    refuted = (False, Assignment("a", (("x", "a"),)))
    for matrix, expected in ((CIORE, (True, None)), (LFI1, refuted), (CIORE, (True, None)),
                             (LFI1, refuted)):
        assert is_valid_in(f, SPLIT, matrix) == oracle(f, SPLIT, matrix) == expected


def test_a_checked_formula_pickles_compares_and_prints_as_a_fresh_parse():
    text = "forall x. (P(x) -> ~Q(x)) & exists y. @Q(y)"
    f, fresh = parse_formula(text, PQ), parse_formula(text, PQ)
    is_valid_in(f, SPLIT)
    assert f._closure[0] is CIORE  # the check did fill the cache
    assert pickle.dumps(f) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(f)) == f
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)


def _reachable(root):
    """Every object ``gc.get_referents`` reaches from ``root``, not walking
    into modules or a function's globals."""
    seen, todo = {}, [root]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, types.ModuleType):
            continue
        seen[id(o)] = o
        if isinstance(o, types.FunctionType):
            todo += [r for r in gc.get_referents(o) if r is not o.__globals__]
        else:
            todo += gc.get_referents(o)
    return seen


def test_a_cached_closure_holds_no_node():
    f = And(parse_formula("forall x. (P(x) -> ~Q(x)) & exists y. @Q(y)", PQ), Or(P_X, META))
    with pytest.raises(ValueError, match="metavariable A"):
        is_valid_in(f, SPLIT)
    reached = _reachable(f._closure)
    assert not [g for g in subformulas(f) if id(g) in reached]
    # the walk does reach the children's closures, so it is not vacuous
    assert {id(f.left._closure[1]), id(META._closure[1])} <= reached.keys()


@pytest.mark.parametrize("premises,found", [(("P(c)", "~P(c)"), True),
                                             (("P(c)", "~P(c)", "@P(c)"), False)])
def test_criterion_5_compiles_each_node_once(monkeypatch, premises, found):
    compiled = []
    real = structures._compile
    monkeypatch.setattr(structures, "_compile", lambda f, m: compiled.append(f) or real(f, m))
    sig = Signature(predicates={"P": 1, "Q": 1}, constants={"c"})
    gamma, phi = [parse_formula(t, sig) for t in premises], parse_formula("Q(c)", sig)
    res = check_consequence_bounded(gamma, phi, sig, 3)
    assert res.found == found
    assert res.structures_checked == (8 if found else 9 + 162 + 2187)
    # the target is checked only where every premise holds: never, when
    # the search is exhausted
    nodes = {id(g) for f in (*gamma, phi) if found or f is not phi for g in subformulas(f)}
    assert len(compiled) == len(nodes) and {id(g) for g in compiled} == nodes
    compiled.clear()
    assert check_consequence_bounded(gamma, phi, sig, 3) == res
    assert compiled == []


def test_a_deep_formula_is_checked():
    f = parse_formula("~" * 450 + "P(x)")
    A = make_structure(Signature(predicates={"P": 1}), ("a", "b"),
                       {"P": make_triple({("a",)}, (), {("b",)})})
    assert is_valid_in(f, A) == (True, None)
