import itertools

import pytest

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
    twist_pair,
    twist_triple,
    twist_triple_op,
)

ALG1 = PowersetAlgebra(frozenset({0}))
ALG2 = PowersetAlgebra(frozenset({0, 1}))

OPS_BINARY = ("&", "|", "->")
OPS_UNARY = ("~", "@")


def test_algebra_basics():
    a, b = frozenset({0}), frozenset({1})
    assert ALG2.meet(a, ALG2.top) == a
    assert ALG2.join(a, b) == ALG2.top
    assert ALG2.compl(a) == b
    assert ALG2.imp(a, b) == b | ALG2.compl(a)
    with pytest.raises(ValueError):
        ALG2.check_element({5})


def test_pair_invariant_enforced():
    with pytest.raises(ValueError):
        twist_pair(ALG2, {0}, {0})
    twist_pair(ALG2, {0}, {1})
    twist_pair(ALG2, {0, 1}, {1})


def test_triple_invariant_enforced():
    with pytest.raises(ValueError):
        twist_triple(ALG2, {0}, {0}, {1})
    with pytest.raises(ValueError):
        twist_triple(ALG2, {0}, set(), set())
    twist_triple(ALG2, {0}, {1}, set())


def test_negation_and_consistency_on_pairs():
    one = TwistPair(ALG1, ALG1.top, ALG1.bot)
    zero = TwistPair(ALG1, ALG1.bot, ALG1.top)
    half = TwistPair(ALG1, ALG1.top, ALG1.top)
    assert pair_op("~", one) == zero
    assert pair_op("~", half) == half
    assert pair_op("@", half) == zero
    assert pair_op("@", one) == one
    assert pair_op("@", zero) == one


def test_bottom_is_canonical_on_pairs():
    for z in all_twist_pairs(ALG2):
        contradiction = pair_op("&", z, pair_op("~", z))
        assert pair_op("&", contradiction, pair_op("@", z)) == TwistPair(ALG2, frozenset(), ALG2.top)


def test_bottom_is_canonical_on_triples():
    for z in all_twist_triples(ALG2):
        contradiction = twist_triple_op("&", z, twist_triple_op("~", z))
        assert twist_triple_op("&", contradiction, twist_triple_op("@", z)) == TwistTriple(ALG2, frozenset(), ALG2.top, frozenset())


def test_consistency_is_contradiction_implies_bottom():
    for z in all_twist_pairs(ALG2):
        lhs = pair_op("@", z)
        rhs = pair_op("->", pair_op("&", z, pair_op("~", z)), TwistPair(ALG2, frozenset(), ALG2.top))
        assert lhs == rhs
    for z in all_twist_triples(ALG2):
        lhs = twist_triple_op("@", z)
        rhs = twist_triple_op(
            "->", twist_triple_op("&", z, twist_triple_op("~", z)), TwistTriple(ALG2, frozenset(), ALG2.top, frozenset())
        )
        assert lhs == rhs


def test_triple_negation_swaps():
    z = twist_triple(ALG2, {0}, {1}, set())
    assert twist_triple_op("~", z) == twist_triple(ALG2, {1}, {0}, set())


def test_triple_implication_example():
    one = TwistTriple(ALG1, ALG1.top, ALG1.bot, ALG1.bot)
    zero = TwistTriple(ALG1, ALG1.bot, ALG1.top, ALG1.bot)
    assert twist_triple_op("->", one, zero) == zero


def test_dagger_ddagger_inverse():
    for z in all_twist_triples(ALG2):
        assert ddagger(dagger(z)) == z
    for p in all_twist_pairs(ALG2):
        assert dagger(ddagger(p)) == p


def test_dagger_bijective():
    pairs = {dagger(z) for z in all_twist_triples(ALG2)}
    assert len(pairs) == len(all_twist_triples(ALG2)) == 9


def test_dagger_homomorphism():
    triples = all_twist_triples(ALG2)
    for op in OPS_UNARY:
        for z in triples:
            assert dagger(twist_triple_op(op, z)) == pair_op(op, dagger(z))
    for op in OPS_BINARY:
        for z, w in itertools.product(triples, repeat=2):
            assert dagger(twist_triple_op(op, z, w)) == pair_op(op, dagger(z), dagger(w))


def test_ops_stay_inside_the_carrier_sets():
    # constructors validate, so rebuilding each result must not raise
    triples = all_twist_triples(ALG2)
    for op in OPS_BINARY:
        for z, w in itertools.product(triples, repeat=2):
            got = twist_triple_op(op, z, w)
            twist_triple(ALG2, got.a, got.b, got.c)
            gp = pair_op(op, dagger(z), dagger(w))
            twist_pair(ALG2, gp.a, gp.b)


def test_algebra_mismatch_rejected():
    z = TwistPair(ALG1, ALG1.top, ALG1.bot)
    w = TwistPair(ALG2, ALG2.top, ALG2.bot)
    with pytest.raises(ValueError):
        pair_op("&", z, w)


# --- lifted quantifiers -----------------------------------------------------


def _space():
    return AssignmentSpace(("x",), (0, 1))


def test_lifted_forall_everywhere_true():
    sp = _space()
    S = sp.assignments
    z = TwistTriple(sp.algebra, S, frozenset(), frozenset())
    assert lifted_quantifier("forall", "T", "x", sp, z) == z


def test_lifted_forall_everywhere_dot():
    sp = _space()
    S = sp.assignments
    z = TwistTriple(sp.algebra, frozenset(), frozenset(), S)
    assert lifted_quantifier("forall", "T", "x", sp, z) == z


def test_lifted_exists_sees_mixed_zero_half_as_true():
    # values {0, 1/2} across the domain make the existential come out 1
    sp = _space()
    z = TwistTriple(
        sp.algebra, frozenset(), frozenset({(0,)}), frozenset({(1,)})
    )
    got = lifted_quantifier("exists", "T", "x", sp, z)
    assert got == TwistTriple(sp.algebra, sp.assignments, frozenset(), frozenset())


def test_lifted_forall_mixed_one_half_is_true():
    sp = _space()
    z = TwistTriple(
        sp.algebra, frozenset({(0,)}), frozenset(), frozenset({(1,)})
    )
    got = lifted_quantifier("forall", "T", "x", sp, z)
    assert got == TwistTriple(sp.algebra, sp.assignments, frozenset(), frozenset())


def test_lifted_quantifiers_commute_with_dagger():
    sp = AssignmentSpace(("x", "y"), (0, 1))
    for kind in ("forall", "exists"):
        for var in ("x", "y"):
            for z in all_twist_triples(sp.algebra):
                via_t = dagger(lifted_quantifier(kind, "T", var, sp, z))
                via_p = lifted_quantifier(kind, "P", var, sp, dagger(z))
                assert via_t == via_p


def test_lifted_quantifier_stays_a_triple():
    sp = AssignmentSpace(("x", "y"), (0, 1))
    for kind in ("forall", "exists"):
        for z in all_twist_triples(sp.algebra):
            got = lifted_quantifier(kind, "T", "x", sp, z)
            twist_triple(sp.algebra, got.a, got.b, got.c)


def test_lifted_quantifier_errors():
    sp = _space()
    z = TwistTriple(sp.algebra, sp.assignments, frozenset(), frozenset())
    with pytest.raises(ValueError):
        lifted_quantifier("forall", "T", "w", sp, z)
    with pytest.raises(ValueError):
        lifted_quantifier("forall", "P", "x", sp, z)  # wrong representation
    other = TwistTriple(ALG2, ALG2.top, frozenset(), frozenset())
    with pytest.raises(ValueError):
        lifted_quantifier("forall", "T", "x", sp, other)


def test_hat_operators_refuse_a_variable_outside_the_frame():
    # the same refusal as lifted_quantifier's, not a KeyError
    sp = _space()
    for hat in (sp.hat_exists, sp.hat_forall):
        with pytest.raises(ValueError, match="'w' is not in the frame"):
            hat("w", sp.algebra.index.full)
    z = TwistTriple(sp.algebra, sp.assignments, frozenset(), frozenset())
    with pytest.raises(ValueError, match="'w' is not in the frame"):
        lifted_quantifier("exists", "P", "w", sp, dagger(z))


def test_assignment_space_refuses_a_repeated_domain_element():
    with pytest.raises(ValueError, match="domain repeats an element"):
        AssignmentSpace(("x",), (0, 1, 0))
