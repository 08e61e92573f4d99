import itertools
import pickle

import pytest

from qciore.cli import format_structure
from qciore.matrix3 import HALF, LFI1, ONE, P1, ZERO
from qciore.structures import EQ, _frame_index, make_structure
from qciore.syntax import Signature
from qciore.twist import PowersetAlgebra
from qciore.triples import (
    CarrierIndex,
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
    # the constructor itself refuses them, and drops nothing from dot
    for classes in (({1}, {1}, {2}), ({1}, set(), {1, 2}), (set(), {3}, {3})):
        with pytest.raises(ValueError, match="overlap"):
            Triple(*map(frozenset, classes))
    t = Triple(frozenset({1}), frozenset(), frozenset({2}))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(t, protocol))
        assert again == t and (again.plus, again.minus, again.dot) == (t.plus, t.minus, t.dot)


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


PAIRS = tuple(itertools.product("ab", repeat=2))
PAIR_VALUES = {("a", "a"): ONE, ("a", "b"): HALF, ("b", "a"): ZERO, ("b", "b"): ONE}


def _four_ways():
    """One triple over pairs, built from its classes (str order), from a map
    in product order and in reversed order, and from masks over an index of
    its own."""
    by_classes = Triple(
        frozenset({("a", "a"), ("b", "b")}), frozenset({("b", "a")}), frozenset({("a", "b")})
    )
    by_map = triple_from_map(PAIR_VALUES)
    backwards = triple_from_map({x: PAIR_VALUES[x] for x in reversed(PAIRS)})
    index = CarrierIndex(PAIRS[1:] + PAIRS[:1])
    by_masks = Triple.from_masks(
        index, index.encode(by_classes.plus), index.encode(by_classes.minus)
    )
    return by_classes, by_map, backwards, by_masks


def test_the_index_does_not_show():
    ways = _four_ways()
    assert len({id(t.index) for t in ways}) == 3
    for s, t in itertools.product(ways, repeat=2):
        assert s == t and hash(s) == hash(t)
        assert str(s) == str(t) and repr(s) == repr(t)
        assert s != triple_op("~", t)
    keyed = {t: i for i, t in enumerate(ways)}
    assert list(keyed.values()) == [3] and len(set(ways)) == 1
    for t in ways:
        assert t.carrier == frozenset(PAIRS)
        assert {x: t.value_at(x) for x in PAIRS} == PAIR_VALUES
        with pytest.raises(KeyError):
            t.value_at(("c", "c"))
        assert t != "not a triple"
        # a pickle carries the classes, not the index
        again = pickle.loads(pickle.dumps(t))
        assert again == t and hash(again) == hash(t) and str(again) == str(t)
    # immutable, like the frozen sets it holds
    with pytest.raises(AttributeError):
        ways[0].plus = frozenset()
    with pytest.raises(AttributeError):
        ways[3].index = ways[2].index


def test_carrier_indices_keep_the_type_of_each_element():
    # (False, True) and (0, 1) are equal and hash alike: an index shared by
    # the element tuple alone would give the ints the bools' index
    bools = Triple(frozenset({False}), frozenset({True}), frozenset())
    ints = Triple(frozenset({0}), frozenset({1}), frozenset())
    assert str(bools) == "({False}, {True}, {})" and str(ints) == "({0}, {1}, {})"
    assert ints.index is not bools.index
    assert [type(x) for x in ints.index.decode(ints.index.full)] == [int, int]
    assert {type(x) for x in ints.plus | ints.minus | ints.carrier} == {int}
    # tuples of them, as predicate carriers and frames are
    triple_from_map({(False,): ONE, (True,): ZERO})
    assert str(triple_from_map({(0,): ONE, (1,): ZERO})) == "({(0,)}, {(1,)}, {})"
    for domain in ((False, True), (0, 1)):
        index = _frame_index(domain, 2)
        assert [type(x) for t in index.elements for x in t] == [type(domain[0])] * 8
        assert index is _frame_index(domain, 2)


def test_structures_do_not_see_the_index():
    sig = Signature(predicates={"R": 2}, has_equality=True)
    eq = triple_from_map({p: ONE if p[0] == p[1] else ZERO for p in PAIRS})
    eqs = (eq, triple_from_map({p: eq.value_at(p) for p in reversed(PAIRS)}))
    printed = {
        format_structure(make_structure(sig, ("a", "b"), {"R": t, EQ: e}))
        for t in _four_ways()
        for e in eqs
    }
    assert len(printed) == 1


def test_triple_op_does_not_see_the_index():
    ways = _four_ways()
    for op in ("~", "@"):
        for r in ways:
            assert triple_op(op, r) == triple_op(op, ways[0])
    for op in ("&", "|", "->"):
        for r, u in itertools.product(ways, repeat=2):
            got = triple_op(op, r, u)
            assert got == triple_op(op, ways[0], ways[0]) and got.index is r.index
    other = triple_from_map({("a", "a"): ONE})
    narrow = make_triple({("a", "a")}, (), ())
    wide = all_triples(itertools.product("abc", repeat=2))[0]
    for t in ways:
        for r, u in ((t, other), (other, t), (t, narrow), (t, wide), (wide, t)):
            with pytest.raises(ValueError, match="carrier mismatch"):
                triple_op("&", r, u)
    with pytest.raises(ValueError):
        make_triple({"a"}, {"a"}, set())
    with pytest.raises(ValueError, match="not a truth value"):
        triple_from_map({"a": ONE, "b": 2})


def _recursive_all_triples(carrier):
    """The classes of ``all_triples``, by the recursion that first fixed its
    order: elements sorted by str, the first varying slowest, each in plus,
    then minus, then dot."""
    items = sorted(carrier, key=str)
    out = []

    def rec(i, plus, minus, dot):
        if i == len(items):
            out.append((frozenset(plus), frozenset(minus), frozenset(dot)))
            return
        x = items[i]
        rec(i + 1, plus + [x], minus, dot)
        rec(i + 1, plus, minus + [x], dot)
        rec(i + 1, plus, minus, dot + [x])

    rec(0, [], [], [])
    return out


def test_all_triples_order_is_pinned():
    # the search's first countermodel and the bench's pinned answers follow it
    for carrier in (X3, set(PAIRS)):
        got = [(t.plus, t.minus, t.dot) for t in all_triples(carrier)]
        assert got == _recursive_all_triples(carrier)


def test_carrier_index_encode_decode():
    index = CarrierIndex(("p", ("q", 1), 2, "r"))
    for mask in range(1 << 4):
        assert index.encode(index.decode(mask)) == mask
    assert index.encode([2]) == 0b100 and index.decode(0b1001) == {"p", "r"}
    with pytest.raises(KeyError):
        index.encode({"p", "s"})
    alg = PowersetAlgebra(frozenset({1, 2}))
    with pytest.raises(ValueError, match="not a subset"):
        alg.encode({1, 3})
