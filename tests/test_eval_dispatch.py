"""The type-dispatched pointwise evaluator against its isinstance-chain form.

``reference_eval`` is ``eval_formula`` as it was written before the
dispatch table: one ``isinstance`` test after another, the variants of a
quantifier built by ``Assignment.set``.  Both are run on random formulas,
structures and assignments, with and without a memo, under CIORE and a
mutated matrix; values, memo contents and errors must all agree.
``is_valid_in``, which runs each formula as compiled closures, is checked
the same way against a loop that shares one memo over all of them.  The
searches are derandomized, so a run is repeatable.
"""

import itertools
import time
import typing

import pytest
from hypothesis import given, settings, strategies as st

from qciore import syntax
from qciore.matrix3 import CIORE, DESIGNATED, HALF, ONE, VALUES, ZERO, Matrix
from qciore.structures import (
    _HANDLERS,
    Assignment,
    MaskProgram,
    eval_formula,
    eval_term,
    formula_triple,
    is_valid_in,
    make_structure,
    tilde_exists,
    tilde_forall,
)
from qciore.syntax import (
    BINARY_OPS,
    UNARY_OPS,
    And,
    App,
    Cons,
    Const,
    EQ,
    Exists,
    Forall,
    Formula,
    FVar,
    Imp,
    Neg,
    Or,
    Pred,
    Signature,
    Var,
    align,
    formula_to_str,
    free_vars,
    map_atoms,
    signature_of,
)
from qciore.triples import make_triple


def reference_eval(f, A, s, memo=None, matrix=CIORE):
    if memo is not None:
        key = (id(f), s)
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
    v = _reference(f, A, s, memo, matrix)
    if memo is not None:
        memo[key] = f, v  # the entry holds its node, so its id stays unique
    return v


def _reference(f, A, s, memo, matrix):
    if isinstance(f, Pred):
        args = tuple(eval_term(t, A, s) for t in f.args)
        t = A.preds.get(f.name)
        if t is None and f.name == EQ:
            raise ValueError("structure does not interpret equality")
        if t is None:
            raise ValueError("structure does not interpret predicate %s" % f.name)
        return t.value_at(args)
    if isinstance(f, FVar):
        raise ValueError("metavariable %s in a concrete formula" % f.name)
    if isinstance(f, (Neg, Cons)):
        op = UNARY_OPS[type(f)]
        table = matrix.unary.get(op)
        if table is None:
            raise ValueError("%s does not interpret %s" % (matrix.name, op))
        return table[reference_eval(f.sub, A, s, memo, matrix)]
    if isinstance(f, (And, Or, Imp)):
        op = BINARY_OPS[type(f)]
        table = matrix.binary.get(op)
        if table is None:
            raise ValueError("%s does not interpret %s" % (matrix.name, op))
        return table[
            (
                reference_eval(f.left, A, s, memo, matrix),
                reference_eval(f.right, A, s, memo, matrix),
            )
        ]
    if isinstance(f, (Forall, Exists)):
        Y = {reference_eval(f.body, A, s.set(f.var, a), memo, matrix) for a in A.domain}
        return tilde_forall(Y) if isinstance(f, Forall) else tilde_exists(Y)
    raise TypeError("not a formula: %r" % (f,))


SIG = Signature(
    predicates={"P": 1, "R": 2}, functions={"f": 1}, constants={"c"}, has_equality=True
)
DOMAIN = ("a", "b", "c")
FRAME = ("x", "y")
# quantified variables: w sorts before the frame, z after it, x and y in it
VARS = ("w", "x", "y", "z")
SEARCH = settings(max_examples=300, deadline=None, derandomize=True)

# a mutated matrix: implication and consistency each change one cell
MUTATED = Matrix(
    "mutated",
    {**CIORE.unary, "@": {**CIORE.unary["@"], HALF: HALF}},
    {**CIORE.binary, "->": {**CIORE.binary["->"], (HALF, ZERO): ONE}},
)

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
    max_leaves=8,
)


def _triple_over(draw, carrier):
    values = draw(st.lists(st.sampled_from(VALUES), min_size=len(carrier), max_size=len(carrier)))
    return make_triple(*({x for x, v in zip(carrier, values) if v == w} for w in (ONE, ZERO, HALF)))


@st.composite
def structures(draw):
    domain = DOMAIN[: draw(st.integers(1, 3))]
    preds = {
        name: _triple_over(draw, list(itertools.product(domain, repeat=arity)))
        for name, arity in (("P", 1), ("R", 2), (EQ, 2))
    }
    fun = {(a,): draw(st.sampled_from(domain)) for a in domain}
    return make_structure(SIG, domain, preds, {"f": fun}, {"c": draw(st.sampled_from(domain))})


@st.composite
def assignments(draw, A):
    """An assignment on a 1- or 2-variable frame, as ``assignments_over`` builds it."""
    frame = FRAME[: draw(st.integers(1, 2))]
    values = draw(st.lists(st.sampled_from(A.domain), min_size=len(frame), max_size=len(frame)))
    return Assignment(A.domain[0], tuple(sorted(zip(frame, values))))


@SEARCH
@given(st.data())
def test_eval_formula_matches_the_isinstance_chain(data):
    f = data.draw(formulas)
    A = data.draw(structures())
    s = data.draw(assignments(A))
    for matrix in (CIORE, MUTATED):
        expected = reference_eval(f, A, s, None, matrix)
        assert eval_formula(f, A, s, None, matrix) == expected, str(f)
        # with a memo: the same value, and the same entries (the quantifier
        # variants equal Assignment.set's, or their keys would differ)
        memo, reference_memo = {}, {}
        assert eval_formula(f, A, s, memo, matrix) == expected
        assert reference_eval(f, A, s, reference_memo, matrix) == expected
        assert memo == reference_memo
        assert eval_formula(f, A, s, memo, matrix) == expected  # read back
        assert memo == reference_memo


def reference_validity(f, A, matrix=CIORE):
    """``is_valid_in`` as a loop over the assignments of f's sorted free
    variables, in domain order, that shares one ``eval_formula`` memo."""
    frame = sorted(free_vars(f))
    memo: dict = {}
    for values in itertools.product(A.domain, repeat=len(frame)):
        s = Assignment(A.domain[0], tuple(zip(frame, values)))
        if eval_formula(f, A, s, memo, matrix) not in DESIGNATED:
            return False, s
    return True, None


@SEARCH
@given(st.data())
def test_is_valid_in_matches_a_loop_sharing_one_memo(data):
    f = data.draw(formulas)
    A = data.draw(structures())
    for matrix in (CIORE, MUTATED):
        expected = reference_validity(f, A, matrix)
        got = is_valid_in(f, A, matrix)
        # the verdict, and the least refuting assignment
        assert got == expected, str(f)
        assert type(got[1]) is type(expected[1])


def test_is_valid_in_on_a_formula_of_shared_nodes():
    # g = g & g ten times: each assignment evaluates the innermost node at
    # its 2**10 occurrences, where a shared memo evaluates it once
    A = make_structure(
        Signature(predicates={"R": 2}),
        ("a", "b"),
        {"R": make_triple({("a", "a"), ("b", "b"), ("a", "b")}, {("b", "a")}, ())},
    )
    xy, yx = Pred("R", (Var("x"), Var("y"))), Pred("R", (Var("y"), Var("x")))
    refuted = (False, Assignment("a", (("x", "a"), ("y", "b"))))
    for g, expected in ((Imp(xy, xy), (True, None)), (yx, refuted)):
        for _ in range(10):
            g = And(g, g)
        started = time.perf_counter()
        assert is_valid_in(g, A) == expected
        assert time.perf_counter() - started < 2.0
        assert reference_validity(g, A) == expected


def test_the_mutated_matrix_changes_some_values():
    A = make_structure(
        SIG,
        ("a",),
        {"P": make_triple((), (), {("a",)}), "R": make_triple((), {("a", "a")}, ()),
         EQ: make_triple({("a", "a")}, (), ())},
        {"f": {("a",): "a"}},
        {"c": "a"},
    )
    s = Assignment("a")
    for f in (Imp(Pred("P", (Var("x"),)), Pred("R", (Var("x"), Var("x")))),
              Cons(Pred("P", (Var("x"),)))):
        assert eval_formula(f, A, s, None, MUTATED) != eval_formula(f, A, s)


def _without(matrix, table, op):
    tables = {"unary": dict(matrix.unary), "binary": dict(matrix.binary)}
    del tables[table][op]
    return Matrix("no-%s" % op, tables["unary"], tables["binary"])


P_X = Pred("P", (Var("x"),))
SMALL = make_structure(
    Signature(predicates={"P": 1}),
    ("a", "b"),
    {"P": make_triple({("a",)}, {("b",)}, ())},
)


@pytest.mark.parametrize(
    "f,matrix",
    [
        (FVar("A"), CIORE),
        (And(P_X, FVar("A")), CIORE),
        (Forall("x", Or(P_X, FVar("B"))), CIORE),
        (Pred("Q", (Var("x"),)), CIORE),  # an undeclared predicate
        (Exists("y", Pred("R", (Var("x"), Var("y")))), CIORE),
        (Pred(EQ, (Var("x"), Var("x"))), CIORE),  # no equality in the structure
        (Pred("P", (Const("d"),)), CIORE),  # an uninterpreted constant
        (Pred("P", (App("g", (Var("x"),)),)), CIORE),  # an uninterpreted function
        (Pred("Q", (Const("d"),)), CIORE),  # both: the term is evaluated first
        (Imp(P_X, P_X), _without(CIORE, "binary", "->")),
        (Exists("x", And(P_X, P_X)), _without(CIORE, "binary", "&")),
        (Cons(P_X), _without(CIORE, "unary", "@")),
        (Var("x"), CIORE),  # terms and other objects are not formulas
        ("P(x)", CIORE),
        (None, CIORE),
        (Neg(Const("c")), CIORE),
        (Forall("x", Or(P_X, 1)), CIORE),
    ],
)
@pytest.mark.parametrize("with_memo", [False, True])
def test_errors_match_the_isinstance_chain(f, matrix, with_memo):
    s = Assignment("a", (("x", "b"),))
    with pytest.raises((TypeError, ValueError)) as expected:
        reference_eval(f, SMALL, s, {} if with_memo else None, matrix)
    with pytest.raises(expected.type) as got:
        eval_formula(f, SMALL, s, {} if with_memo else None, matrix)
    assert str(got.value) == str(expected.value)


class CountingMemo(dict):
    def __init__(self):
        super().__init__()
        self.gets = self.stores = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


def test_the_memo_is_read_once_per_node_and_written_only_on_a_miss():
    f = Forall("y", Or(P_X, Neg(Pred("P", (Var("y"),)))))
    s = Assignment("a", (("x", "b"),))
    memo = CountingMemo()
    value = eval_formula(f, SMALL, s, memo)
    # the root, then per y-variant the disjunction, its two atoms and the negation
    assert memo.gets == memo.stores == len(memo) == 1 + 2 * 4
    memo.gets = memo.stores = 0
    assert eval_formula(f, SMALL, s, memo) == value
    assert (memo.gets, memo.stores) == (1, 0)


def test_a_structure_without_equality_says_so():
    x_is_x = Pred(EQ, (Var("x"), Var("x")))
    for run in (lambda: eval_formula(x_is_x, SMALL, SMALL.default_assignment()),
                lambda: is_valid_in(Forall("x", Or(P_X, x_is_x)), SMALL),
                lambda: formula_triple(Neg(x_is_x), SMALL, ("x",))):
        with pytest.raises(ValueError, match="^structure does not interpret equality$"):
            run()


# a structure over SIG where P(x) and x = c take every value
WHOLE = make_structure(
    SIG,
    DOMAIN,
    {"P": make_triple({("a",)}, {("b",)}, {("c",)}),
     "R": make_triple((), (), set(itertools.product(DOMAIN, repeat=2))),
     EQ: make_triple({("a", "a"), ("b", "b")}, {("a", "c"), ("c", "a")},
                     {("c", "c"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")})},
    {"f": {(a,): a for a in DOMAIN}},
    {"c": "a"},
)

# one node of each formula type, and an equality atom
SAMPLES = (
    P_X,
    Pred(EQ, (Var("x"), Const("c"))),
    FVar("A"),
    Neg(P_X),
    Cons(P_X),
    And(P_X, P_X),
    Or(P_X, P_X),
    Imp(P_X, P_X),
    Forall("y", P_X),
    Exists("x", P_X),
)


def test_each_dispatch_table_has_exactly_the_formula_types():
    # an entry left behind for a deleted node type, or a node type with no
    # entry, fails here rather than in some walk
    kinds = set(typing.get_args(Formula))
    assert len(kinds) == 9
    assert _HANDLERS.keys() == kinds
    assert syntax._CHILDREN.keys() == kinds
    assert set(map(type, SAMPLES)) == kinds


@pytest.mark.parametrize("f", SAMPLES, ids=str)
def test_each_walk_takes_each_node_type(f):
    # a metavariable prints as its name, which parses as a nullary atom
    meta = isinstance(f, FVar)
    again = syntax.parse_formula(formula_to_str(f), None if meta else SIG)
    assert again == (Pred(f.name) if meta else f)
    assert free_vars(f) <= {"x", "y"}
    assert signature_of(f) <= SIG
    assert map_atoms(f, lambda g: g) == f
    assert align(f, f, lambda a, b, bound: a == b)
    if meta:
        for walk in (MaskProgram().add, lambda f, frame: formula_triple(f, WHOLE, frame)):
            with pytest.raises(ValueError, match="metavariable A"):
                walk(f, ("x",))
        return
    assert MaskProgram().add(f, ("x",)) >= 0
    t = formula_triple(f, WHOLE, ("x",))
    for a in WHOLE.domain:
        assert t.value_at((a,)) == eval_formula(f, WHOLE, Assignment("a", (("x", a),)))
