import itertools
import pickle

import pytest

from qciore.cli import format_structure
from qciore.matrix3 import HALF, LFI1, ONE, P1, ZERO
from qciore.structures import EQ, make_structure
from qciore.syntax import Signature
from qciore.triples import (
    Triple,
    all_triples,
    make_triple,
    triple_from_map,
    triple_op,
)

X3 = frozenset({"a", "b", "c"})


def test_from_map_examples():
    assert triple_from_map({"a": ONE, "b": ONE}) == Triple(
        frozenset({"a", "b"}), frozenset(), frozenset()
    )
    assert triple_from_map({"a": HALF, "b": ZERO}) == Triple(
        frozenset(), frozenset({"b"}), frozenset({"a"})
    )
    assert triple_from_map({}) == Triple(frozenset(), frozenset(), frozenset())


def test_map_round_trip():
    for r in all_triples({"a", "b"}):
        assert triple_from_map({x: r.value_at(x) for x in r.carrier}) == r
    m = {"a": ONE, "b": HALF, "c": ZERO}
    t = triple_from_map(m)
    assert {x: t.value_at(x) for x in t.carrier} == m


def test_bad_map_value_rejected():
    with pytest.raises(ValueError):
        triple_from_map({"a": 2})


def test_overlapping_classes_rejected():
    with pytest.raises(ValueError):
        make_triple({"a"}, {"a"}, set())


def test_pointwise_disjunction_cell():
    r = triple_from_map({"x": HALF})
    u = triple_from_map({"x": ZERO})
    assert triple_op("|", r, u) == triple_from_map({"x": ONE})


def test_carrier_mismatch():
    r = triple_from_map({"x": ONE})
    u = triple_from_map({"y": ONE})
    with pytest.raises(ValueError):
        triple_op("&", r, u)


def test_unary_closed_forms():
    for r in all_triples(X3):
        assert triple_op("~", r) == Triple(r.minus, r.plus, r.dot)
        assert triple_op("@", r) == Triple(r.plus | r.minus, r.dot, frozenset())


def test_conjunction_closed_form():
    for r, u in itertools.product(all_triples({"a", "b"}), repeat=2):
        got = triple_op("&", r, u)
        assert got.plus == (r.plus & u.plus) | (r.plus & u.dot) | (r.dot & u.plus)
        assert got.minus == r.minus | u.minus
        assert got.dot == r.dot & u.dot


def test_disjunction_closed_form():
    for r, u in itertools.product(all_triples({"a", "b"}), repeat=2):
        got = triple_op("|", r, u)
        assert got.plus == r.plus | u.plus | (r.minus & u.dot) | (r.dot & u.minus)
        assert got.minus == r.minus & u.minus
        assert got.dot == r.dot & u.dot


def test_implication_closed_form():
    for r, u in itertools.product(all_triples({"a", "b"}), repeat=2):
        got = triple_op("->", r, u)
        assert got.plus == (
            r.minus | (r.plus & u.plus) | (r.plus & u.dot) | (r.dot & u.plus)
        )
        assert got.minus == (r.plus | r.dot) & u.minus
        assert got.dot == r.dot & u.dot


def test_printed_closed_forms_diverge():
    # The set formulas often quoted for | and -> disagree with the tables.
    # |: they file (1/2, 0) under dot, the table says 1/2 | 0 = 1.
    r = triple_from_map({"x": HALF})
    u = triple_from_map({"x": ZERO})
    quoted_dot = (r.dot & u.minus) | (r.minus & u.dot) | (r.dot & u.dot)
    actual = triple_op("|", r, u)
    assert quoted_dot == frozenset({"x"})
    assert actual.dot == frozenset()
    assert actual.plus == frozenset({"x"})
    # ->: they file (1, 1/2) under dot, the table says 1 -> 1/2 = 1.
    r = triple_from_map({"x": ONE})
    u = triple_from_map({"x": HALF})
    quoted_dot = (r.plus | r.dot) & u.dot
    actual = triple_op("->", r, u)
    assert quoted_dot == frozenset({"x"})
    assert actual.dot == frozenset()
    assert actual.plus == frozenset({"x"})


def test_partition_preserved_by_all_ops():
    triples2 = all_triples({"a", "b"})
    for r in triples2:
        for op in ("~", "@"):
            got = triple_op(op, r)
            assert got.carrier == r.carrier
            assert len(got.plus) + len(got.minus) + len(got.dot) == len(r.carrier)
    for r, u in itertools.product(triples2, repeat=2):
        for op in ("&", "|", "->"):
            got = triple_op(op, r, u)
            assert got.carrier == r.carrier
            assert len(got.plus) + len(got.minus) + len(got.dot) == len(r.carrier)


def test_p1_closed_forms():
    for r in all_triples({"a", "b"}):
        got = triple_op("~", r, m=P1)
        assert got == Triple(r.minus | r.dot, r.plus, frozenset())
    for r, u in itertools.product(all_triples({"a", "b"}), repeat=2):
        got = triple_op("->", r, u, P1)
        assert got.plus == r.minus | u.plus | u.dot
        assert got.minus == (r.plus | r.dot) & u.minus
        assert got.dot == frozenset()


def test_p1_examples():
    X = frozenset({"a", "b"})
    assert triple_op("~", Triple(frozenset(), frozenset(), X), m=P1) == Triple(
        X, frozenset(), frozenset()
    )
    r = Triple(X, frozenset(), frozenset())
    u = Triple(frozenset(), X, frozenset())
    assert triple_op("->", r, u, P1) == Triple(frozenset(), X, frozenset())


def test_p1_lacks_conjunction():
    r = triple_from_map({"x": ONE})
    with pytest.raises(ValueError):
        triple_op("&", r, r, P1)


def test_lfi1_dot_meets_dot():
    r = triple_from_map({"x": HALF})
    assert triple_op("&", r, r, LFI1) == r
    # and under LFI1, 1/2 | 0 stays 1/2 (unlike the main matrix)
    u = triple_from_map({"x": ZERO})
    assert triple_op("|", r, u, LFI1) == r


def test_all_triples_exhaustive():
    ts = all_triples(X3)
    assert len(ts) == 27
    assert len(set(ts)) == 27
    assert all(t.carrier == X3 for t in ts)
    assert all_triples(set()) == [Triple(frozenset(), frozenset(), frozenset())]


def _same_classes():
    """One triple over pairs, built from a map (masks) and from its sets."""
    values = {("a", "a"): ONE, ("a", "b"): HALF, ("b", "a"): ZERO, ("b", "b"): ONE}
    masked = triple_from_map(values)
    built = make_triple(
        {("a", "a"), ("b", "b")}, {("b", "a")}, {("a", "b")}
    )
    return masked, built


def test_mask_built_and_set_built_are_indistinguishable():
    masked, built = _same_classes()
    assert masked.index is not None and built.index is None
    assert masked == built and built == masked
    assert hash(masked) == hash(built)
    assert {built: "x"}[masked] == "x" and {masked: "y"}[built] == "y"
    assert len({masked, built}) == 1
    assert str(masked) == str(built) and repr(masked) == repr(built)
    assert masked.carrier == built.carrier
    for x in built.carrier:
        assert masked.value_at(x) == built.value_at(x)
    for t in (masked, built):
        with pytest.raises(KeyError):
            t.value_at(("c", "c"))
    assert masked != triple_op("~", built) and masked != "not a triple"
    # a pickle carries the classes, not the index
    again = pickle.loads(pickle.dumps(masked))
    assert again == masked and hash(again) == hash(masked) and again.index is None
    # immutable, like the frozen sets it holds
    with pytest.raises(AttributeError):
        masked.plus = frozenset()
    with pytest.raises(AttributeError):
        built.index = masked.index


def test_structures_do_not_see_the_representation():
    masked, built = _same_classes()
    sig = Signature(predicates={"R": 2}, has_equality=True)
    pairs = itertools.product("ab", repeat=2)
    eq = triple_from_map({p: ONE if p[0] == p[1] else ZERO for p in pairs})
    a = make_structure(sig, ("a", "b"), {"R": masked, EQ: eq})
    b = make_structure(
        sig, ("a", "b"), {"R": built, EQ: make_triple(eq.plus, eq.minus, eq.dot)}
    )
    assert format_structure(a) == format_structure(b)


def test_triple_op_checks_carriers_in_both_forms():
    masked, built = _same_classes()
    other = triple_from_map({("a", "a"): ONE})
    narrow = make_triple({("a", "a")}, (), ())
    for r, u in ((masked, other), (other, built), (built, narrow)):
        with pytest.raises(ValueError, match="carrier mismatch"):
            triple_op("&", r, u)
    # same carrier, different forms and orders: one answer
    backwards = sorted(built.carrier, reverse=True)
    reordered = triple_from_map({x: built.value_at(x) for x in backwards})
    assert reordered.index is not masked.index
    for r, u in itertools.product((masked, built, reordered), repeat=2):
        assert triple_op("->", r, u) == triple_op("->", built, built)
    with pytest.raises(ValueError):
        make_triple({"a"}, {"a"}, set())
    with pytest.raises(ValueError, match="not a truth value"):
        triple_from_map({"a": ONE, "b": 2})
