import itertools

import pytest

from qciore.matrix3 import HALF, LFI1, ONE, P1, ZERO
from qciore.triples import (
    Triple,
    all_triples,
    make_triple,
    triple_from_map,
    triple_op,
    triple_to_map,
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
        assert triple_from_map(triple_to_map(r)) == r
    m = {"a": ONE, "b": HALF, "c": ZERO}
    assert triple_to_map(triple_from_map(m)) == m


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
