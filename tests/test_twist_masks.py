"""The mask-backed twist algebra against the frozenset closed forms.

``twist`` holds the components of pairs and triples as int bit masks over
their algebra's numbering.  The ``old_*`` functions below are the frozenset
forms the algebra was first written in; they serve as the oracle here.
"""

import itertools
import pickle
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from qciore.twist import (
    AssignmentSpace,
    PowersetAlgebra,
    TwistPair,
    TwistTriple,
    all_twist_pairs,
    all_twist_triples,
    dagger,
    ddagger,
    lifted_quantifier,
    pair_op,
    twist_triple_op,
)

UNARY = ("~", "@")
BINARY = ("&", "|", "->")

# ---------------------------------------------------------------------------
# The oracle: the frozenset closed forms, over plain (a, b) / (a, b, c) tuples

P = namedtuple("P", "a b")
T = namedtuple("T", "a b c")


def old_pair_op(A, op, z, w=None):
    if op == "~":
        return P(z.b, z.a)
    if op == "@":
        both = z.a & z.b
        return P(A.base - both, both)
    if op == "&":
        first = z.a & w.a
    elif op == "|":
        first = z.a | w.a
    else:
        first = (A.base - z.a) | w.a
    both = z.a & z.b & w.a & w.b
    return P(first, (A.base - first) | both)


def old_triple_op(A, op, z, w=None):
    if op == "~":
        return T(z.b, z.a, z.c)
    if op == "@":
        return T(z.a | z.b, z.c, frozenset())
    if op == "&":
        plus = (z.a & w.a) | (z.a & w.c) | (z.c & w.a)
        minus = z.b | w.b
    elif op == "|":
        plus = z.a | w.a | (z.b & w.c) | (z.c & w.b)
        minus = z.b & w.b
    else:
        plus = z.b | (z.a & w.a) | (z.a & w.c) | (z.c & w.a)
        minus = (z.a | z.c) & w.b
    return T(plus, minus, z.c & w.c)


def old_dagger(A, z):
    return P(z.a | z.c, z.b | z.c)


def old_ddagger(A, p):
    return T(p.a & (A.base - p.b), p.b & (A.base - p.a), p.a & p.b)


def old_hat(space, x, Y, every):
    i = space.frame.index(x)
    test = all if every else any
    return frozenset(
        s for s in space.assignments
        if test(s[:i] + (a,) + s[i + 1:] in Y for a in space.domain)
    )


def old_lifted_quantifier(kind, representation, x, space, z):
    def E(Y):
        return old_hat(space, x, Y, False)

    def A(Y):
        return old_hat(space, x, Y, True)

    if representation == "P":
        a, b = z
        all_dot = A(a & b)
        if kind == "forall":
            return P(A(a), E(b - a) | all_dot)
        return P(E(a), A(b - a) | all_dot)
    S = space.assignments
    if kind == "forall":
        some_plus, some_minus = E(z.a), E(z.b)
        return T(some_plus - some_minus, some_minus, A(z.c))
    all_minus, all_dot = A(z.b), A(z.c)
    return T(S - (all_minus | all_dot), all_minus, all_dot)


def algebra(k):
    return PowersetAlgebra(frozenset(range(k)))


def masks(z):
    return tuple(z)[1:]


def parts(z):
    return tuple(getattr(z, f) for f in z._fields)


# ---------------------------------------------------------------------------
# Differential: every element and operand pair of the 1- to 3-element algebras


@pytest.mark.parametrize("k", [1, 2, 3])
def test_connectives_match_the_frozenset_forms(k):
    A = algebra(k)
    triples = all_twist_triples(A)
    pairs = all_twist_pairs(A)
    for z in triples:
        assert parts(dagger(z)) == old_dagger(A, T(*parts(z)))
    for p in pairs:
        assert parts(ddagger(p)) == old_ddagger(A, P(*parts(p)))
    for op in UNARY:
        for z in triples:
            assert parts(twist_triple_op(op, z)) == old_triple_op(A, op, T(*parts(z)))
        for p in pairs:
            assert parts(pair_op(op, p)) == old_pair_op(A, op, P(*parts(p)))
    for op in BINARY:
        for z, w in itertools.product(triples, repeat=2):
            got = parts(twist_triple_op(op, z, w))
            assert got == old_triple_op(A, op, T(*parts(z)), T(*parts(w))), (op, z, w)
        for p, q in itertools.product(pairs, repeat=2):
            got = parts(pair_op(op, p, q))
            assert got == old_pair_op(A, op, P(*parts(p)), P(*parts(q))), (op, p, q)


def check_quantifiers(space, z):
    full = space.algebra.index.full
    for kind in ("forall", "exists"):
        for x in space.frame:
            got = lifted_quantifier(kind, "T", x, space, z)
            assert parts(got) == old_lifted_quantifier(kind, "T", x, space, T(*parts(z)))
            p = dagger(z)
            got_p = lifted_quantifier(kind, "P", x, space, p)
            assert parts(got_p) == old_lifted_quantifier(kind, "P", x, space, P(*parts(p)))
            assert all(0 <= m <= full for m in masks(got) + masks(got_p)), (kind, x, z)


@pytest.mark.parametrize(
    "frame, domain",
    [(("x",), (0, 1)), (("x",), ("a", "b", "c")), (("x", "y"), (1, 0))],
)
def test_lifted_quantifiers_match_the_frozenset_forms(frame, domain):
    space = AssignmentSpace(frame, domain)
    for z in all_twist_triples(space.algebra):
        check_quantifiers(space, z)


SPACE_XY3 = AssignmentSpace(("x", "y"), (0, 1, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
def test_lifted_quantifiers_match_the_frozenset_forms_on_xy_over_3(classes):
    comps = [set(), set(), set()]
    for s, k in zip(sorted(SPACE_XY3.assignments), classes):
        comps[k].add(s)
    check_quantifiers(SPACE_XY3, TwistTriple(SPACE_XY3.algebra, *comps))


# ---------------------------------------------------------------------------
# Every result mask stays inside the base


@pytest.mark.parametrize("k", [2, 3])
def test_result_masks_stay_inside_the_base(k):
    A = algebra(k)
    full = (1 << k) - 1
    triples = all_twist_triples(A)
    pairs = all_twist_pairs(A)
    results = [dagger(z) for z in triples] + [ddagger(p) for p in pairs]
    for op in UNARY:
        results += [twist_triple_op(op, z) for z in triples]
        results += [pair_op(op, p) for p in pairs]
    for op in BINARY:
        results += [twist_triple_op(op, z, w) for z, w in itertools.product(triples, repeat=2)]
        results += [pair_op(op, p, q) for p, q in itertools.product(pairs, repeat=2)]
    for r in results:
        for m in masks(r):
            assert 0 <= m <= full, r
            assert A.encode(A.index.decode(m)) == m, r


# ---------------------------------------------------------------------------
# Masks from different algebras do not mix

LEFT = PowersetAlgebra(frozenset({0}))
RIGHT = PowersetAlgebra(frozenset({1}))


def test_equal_masks_over_different_algebras_are_unequal():
    for z, w in zip(all_twist_triples(LEFT), all_twist_triples(RIGHT)):
        assert masks(z) == masks(w)
        assert z != w and not z == w
        assert dagger(z) != dagger(w)


def test_ops_reject_operands_over_different_algebras():
    z, w = all_twist_triples(LEFT)[0], all_twist_triples(RIGHT)[0]
    for op in BINARY:
        with pytest.raises(ValueError):
            twist_triple_op(op, z, w)
        with pytest.raises(ValueError):
            pair_op(op, dagger(z), dagger(w))


def test_lifted_quantifier_rejects_an_algebra_of_the_same_size():
    space = AssignmentSpace(("x",), (0, 1))
    other = PowersetAlgebra(frozenset({(0,), (2,)}))
    assert len(other.base) == len(space.assignments)
    z = TwistTriple(other, other.base, frozenset(), frozenset())
    with pytest.raises(ValueError):
        lifted_quantifier("forall", "T", "x", space, z)
    with pytest.raises(ValueError):
        lifted_quantifier("exists", "P", "x", space, dagger(z))


def test_built_and_computed_elements_agree():
    A = algebra(2)
    one = TwistTriple(A, A.top, frozenset(), frozenset())
    zero = twist_triple_op("~", one)
    built = TwistTriple(A, frozenset(), frozenset({0, 1}), frozenset())
    assert zero == built and hash(zero) == hash(built)
    assert dagger(zero) == TwistPair(A, frozenset(), A.top)
    assert hash(dagger(zero)) == hash(TwistPair(A, frozenset(), A.top))


def test_the_numbering_is_part_of_the_algebra():
    # the space numbers its assignments in product order over (1, 0); a
    # plain algebra over the same base numbers them sorted by str
    space = AssignmentSpace(("x",), (1, 0))
    plain = PowersetAlgebra(space.assignments)
    assert plain.base == space.algebra.base and plain != space.algebra
    assert PowersetAlgebra(space.assignments, space.algebra.order) == space.algebra
    a, b = frozenset({(1,)}), frozenset({(0,)})
    z, w = TwistTriple(space.algebra, a, b, set()), TwistTriple(plain, a, b, set())
    assert (z.a, z.b, z.c) == (w.a, w.b, w.c) and z != w
    with pytest.raises(ValueError):
        twist_triple_op("&", z, w)
    with pytest.raises(ValueError):
        lifted_quantifier("exists", "T", "x", space, w)
    with pytest.raises(ValueError):
        PowersetAlgebra(frozenset({0, 1}), (0, 2))
    with pytest.raises(ValueError):
        PowersetAlgebra(frozenset({0, 1}), (0, 1, 0))


def test_an_element_equals_no_plain_tuple():
    A = algebra(2)
    for z in all_twist_triples(A)[:5] + all_twist_pairs(A)[:5]:
        assert z != tuple(z) and not z == tuple(z)
        assert tuple(z) != z and not tuple(z) == z
        assert z == type(z)(A, *parts(z)) and not z != type(z)(A, *parts(z))


def test_each_algebra_decodes_to_its_own_elements():
    # bool and int bases are equal sets; each algebra must still decode to
    # its own base's elements, whichever was built first
    bools = PowersetAlgebra(frozenset({False, True}))
    ints = PowersetAlgebra(frozenset({0, 1}))
    z = TwistPair(bools, {True}, {False, True})
    w = TwistPair(ints, {1}, {0, 1})
    assert repr(z) == (
        "TwistPair(alg=PowersetAlgebra(base=frozenset({False, True})), "
        "a=frozenset({True}), b=frozenset({False, True}))"
    )
    assert repr(w) == (
        "TwistPair(alg=PowersetAlgebra(base=frozenset({0, 1})), "
        "a=frozenset({1}), b=frozenset({0, 1}))"
    )
    assert all(type(x) is int for x in w.b) and all(type(x) is bool for x in z.b)


def test_constructors_and_repr_show_frozensets():
    A = algebra(2)
    z = TwistTriple(A, [0], [1], [])
    assert (z.a, z.b, z.c) == (frozenset({0}), frozenset({1}), frozenset())
    assert repr(z) == (
        "TwistTriple(alg=PowersetAlgebra(base=frozenset({0, 1})), "
        "a=frozenset({0}), b=frozenset({1}), c=frozenset())"
    )
    assert pickle.loads(pickle.dumps(z)) == z
    with pytest.raises(ValueError):
        TwistPair(A, {5}, A.top)
