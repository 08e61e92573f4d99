"""The mask-based set route against the pointwise oracle.

``formula_triple`` and ``MaskProgram`` are compared with ``eval_formula``
at every assignment of the frame, and ``triple_op`` with the pointwise
matrix tables, on random inputs.  The searches are derandomized, so a run is repeatable.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qciore.matrix3 import CIORE, HALF, LFI1, ONE, P1, VALUES, ZERO, Matrix
from qciore.structures import (
    Assignment,
    MaskProgram,
    assignments_over,
    eval_formula,
    formula_triple,
    make_structure,
)
from qciore.syntax import (
    And,
    App,
    Cons,
    Const,
    EQ,
    Exists,
    Forall,
    Imp,
    Neg,
    Or,
    Pred,
    Signature,
    Var,
    free_vars,
    parse_formula,
)
from qciore import triples
from qciore.triples import make_triple, triple_from_map, triple_op

VARS = ("x", "y", "z")
SIG = Signature(
    predicates={"P": 1, "R": 2}, functions={"f": 1}, constants={"c"}, has_equality=True
)
DOMAIN = ("a", "b", "c")
SEARCH = settings(max_examples=250, deadline=None, derandomize=True)

terms = st.recursive(
    st.sampled_from([Var(v) for v in VARS] + [Const("c")]),
    lambda sub: sub.map(lambda t: App("f", (t,))),
    max_leaves=2,
)
atoms = st.one_of(
    st.builds(lambda t: Pred("P", (t,)), terms),
    st.builds(lambda t, u: Pred("R", (t, u)), terms, terms),
    st.builds(lambda t, u: Pred(EQ, (t, u)), terms, terms),
)
formulas = st.recursive(
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
    max_leaves=6,
)


def _triple_over(draw, carrier):
    n = len(carrier)
    values = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    classes = [{x for x, v in zip(carrier, values) if v == w} for w in (ONE, ZERO, HALF)]
    return make_triple(*classes)


@st.composite
def structures(draw):
    domain = DOMAIN[: draw(st.integers(1, 3))]
    preds = {
        name: _triple_over(draw, list(itertools.product(domain, repeat=arity)))
        for name, arity in (("P", 1), ("R", 2), ("=", 2))
    }
    fun = {(a,): draw(st.sampled_from(domain)) for a in domain}
    return make_structure(
        SIG, domain, preds, {"f": fun}, {"c": draw(st.sampled_from(domain))}
    )


@st.composite
def frames(draw, f):
    """1-3 distinct variables covering f's free ones, in any order."""
    extra = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=3))
    names = list(dict.fromkeys(sorted(free_vars(f)) + extra))
    names = names or [draw(st.sampled_from(VARS))]
    return tuple(draw(st.permutations(names)))


def program_masks(f, A, frame, matrix=CIORE):
    """``f``'s (plus, minus) masks at ``frame`` from a ``MaskProgram``, its
    atoms read with ``eval_formula``."""
    program = MaskProgram()
    top = program.add(f, frame)

    def leaf(atom, at):
        return triples._masks(
            eval_formula(atom, A, s, None, matrix) for s in assignments_over(A, at)
        )

    return program.run(len(A.domain), leaf, matrix)[top]


def assert_routes_agree(f, A, frame, memo=None, matrix=CIORE):
    """``formula_triple`` (under CIORE) and a ``MaskProgram`` run under
    ``matrix`` both agree with ``eval_formula`` at every tuple of ``frame``."""
    t = formula_triple(f, A, frame, memo)
    plus, minus = program_masks(f, A, frame, matrix)
    space = list(itertools.product(A.domain, repeat=len(frame)))
    assert t.carrier == frozenset(space)
    assert (plus | minus) >> len(space) == 0 and not plus & minus
    for i, tup in enumerate(space):
        s = Assignment(A.domain[0], tuple(sorted(zip(frame, tup))))
        v = eval_formula(f, A, s)
        assert t.value_at(tup) == v, (str(f), frame, tup)
        assert ((tup in t.plus), (tup in t.minus), (tup in t.dot)) == (
            v == ONE, v == ZERO, v == HALF
        )
        if matrix is not CIORE:
            v = eval_formula(f, A, s, None, matrix)
        assert (plus >> i & 1, minus >> i & 1) == (v == ONE, v == ZERO), (
            str(f), frame, tup, matrix.name
        )


MUTATED = Matrix(
    "mutated-implication",
    dict(CIORE.unary),
    {**CIORE.binary, "->": {**CIORE.binary["->"], (ONE, HALF): ZERO}},
)


@SEARCH
@given(st.data())
def test_set_route_matches_pointwise_evaluation(data):
    f = data.draw(formulas)
    A = data.draw(structures())
    frame = data.draw(frames(f))
    assert_routes_agree(f, A, frame, matrix=data.draw(st.sampled_from([CIORE, MUTATED])))


@pytest.mark.parametrize(
    "text",
    [
        # the quantified variable first, in the middle and last in the frame
        "forall x. R(x, y) | P(z)",
        "exists y. R(x, y) & ~P(z)",
        "forall z. @R(z, x) -> P(y)",
        "exists y. forall x. R(y, z) & R(x, y)",
        # projected out of the frame, shadowed, and nested under a shadow
        "forall w. R(w, f(x))",
        "exists x. P(x) & forall x. ~R(x, c)",
        "forall y. exists w. R(w, y) | y = f(w)",
    ],
)
def test_set_route_on_three_variable_frames(text):
    f = parse_formula(text, SIG)
    A = make_structure(
        SIG,
        DOMAIN,
        {
            "P": make_triple({("a",)}, {("b",)}, {("c",)}),
            "R": make_triple(
                {("a", "b"), ("b", "c"), ("c", "c")},
                {("a", "a"), ("b", "a"), ("c", "b")},
                {("a", "c"), ("b", "b"), ("c", "a")},
            ),
            "=": make_triple({("a", "a"), ("c", "c")}, {("a", "b"), ("b", "c")},
                             {("b", "b"), ("a", "c"), ("b", "a"), ("c", "a"), ("c", "b")}),
        },
        {"f": {("a",): "b", ("b",): "c", ("c",): "a"}},
        {"c": "b"},
    )
    memo: dict = {}  # one memo shared by every frame of the structure
    for frame in itertools.permutations(VARS):
        assert_routes_agree(f, A, frame, memo)


CONNECTIVES = ("~", "@", "&", "|", "->")
CARRIER = ("p", "q", "r", "s")


@SEARCH
@given(
    st.sampled_from((CIORE, P1, LFI1)),
    st.sampled_from(CONNECTIVES),
    st.data(),
)
def test_triple_op_matches_pointwise_table(m, op, data):
    r = _triple_over(data.draw, CARRIER)
    u = _triple_over(data.draw, CARRIER)
    unary = op in ("~", "@")
    table = (m.unary if unary else m.binary).get(op)
    # operands over the carrier's str order, and the same classes over the
    # reversed order
    mapped = [triple_from_map({x: t.value_at(x) for x in reversed(CARRIER)}) for t in (r, u)]
    for left, right in ((r, u), tuple(mapped), (r, mapped[1]), (mapped[0], u)):
        args = (left,) if unary else (left, right)
        if table is None:
            with pytest.raises(ValueError):
                triple_op(op, *args, m=m)
            continue
        got = triple_op(op, *args, m=m)
        for x in CARRIER:
            cell = left.value_at(x) if unary else (left.value_at(x), right.value_at(x))
            assert got.value_at(x) == table[cell], (m, op, x)
        assert got.carrier == frozenset(CARRIER)
