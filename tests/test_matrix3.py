import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qciore.matrix3 import (
    CIORE,
    DESIGNATED,
    DERIVED_SCHEMAS,
    HALF,
    LFI1,
    NAMED_SCHEMAS,
    ONE,
    P1,
    PROP_AXIOMS,
    VALUES,
    ZERO,
    check_named_schemas,
    eval_prop,
    is_tautology3,
)
from qciore.matrix3 import _schema
from qciore.syntax import FVar, parse_formula


def test_ciore_signature_cells():
    # the cells that make this logic what it is: neither min/max nor Kleene
    assert CIORE.binary["&"][(ONE, HALF)] == ONE
    assert CIORE.binary["&"][(HALF, ONE)] == ONE
    assert CIORE.binary["&"][(HALF, HALF)] == HALF
    assert CIORE.binary["|"][(HALF, ZERO)] == ONE
    assert CIORE.binary["|"][(ZERO, HALF)] == ONE
    assert CIORE.binary["->"][(ONE, HALF)] == ONE
    assert CIORE.binary["->"][(HALF, HALF)] == HALF
    assert CIORE.unary["~"][HALF] == HALF
    assert CIORE.unary["@"][HALF] == ZERO
    assert CIORE.unary["@"][ONE] == ONE


def test_p1_cells():
    assert P1.unary["~"][HALF] == ONE
    assert P1.binary["->"][(HALF, HALF)] == ONE
    assert P1.binary["->"][(HALF, ZERO)] == ZERO
    assert "&" not in P1.binary and "@" not in P1.unary


def test_p1_rejects_missing_connectives():
    with pytest.raises(ValueError):
        eval_prop(parse_formula("a & b"), {FVar("x"): ONE}, P1)
    with pytest.raises(ValueError):
        eval_prop(_schema("@a"), {FVar("a"): ONE}, P1)


def test_eval_rejects_quantifiers():
    with pytest.raises(ValueError):
        eval_prop(parse_formula("forall x. P(x)"), {}, CIORE)


def test_all_named_schemas_hold_in_ciore():
    report = check_named_schemas(CIORE)
    assert len(report) == 35
    assert all(report.values()), {k: v for k, v in report.items() if not v}


def test_witness_is_least():
    ok, w = is_tautology3(_schema("a & ~a"), CIORE)
    assert not ok
    assert w == {FVar("a"): ZERO}


def test_imp_consistency_needs_third_disjunct():
    # the two-disjunct variant characterizes LFI1's implication, not this
    # one: here 1 -> 1/2 = 1, so "a true and b contradictory" is a third way
    # for an implication to be consistently true
    two = _schema("(!a | (b & @b)) <-> ((a -> b) & @(a -> b))")
    ok, w = is_tautology3(two, CIORE)
    assert not ok and w == {FVar("a"): ONE, FVar("b"): HALF}
    assert is_tautology3(two, LFI1)[0]
    assert is_tautology3(DERIVED_SCHEMAS["cons_imp"], CIORE)[0]


def test_lfi1_differs_from_ciore_on_co_axioms():
    report = check_named_schemas(LFI1, PROP_AXIOMS)
    assert not report["co1"] and not report["co2"] and not report["co3"]
    assert report["ci"]


def test_strong_negation_is_classical():
    sneg = _schema("!a")
    for x in VALUES:
        assert eval_prop(sneg, {FVar("a"): x}, CIORE) in (ZERO, ONE)


def test_value_trichotomy_formulas():
    # exactly one of (a & @a), (~a & @a), (a & ~a) is designated at each value
    probes = [_schema("a & @a"), _schema("~a & @a"), _schema("a & ~a")]
    for x in VALUES:
        hits = [
            eval_prop(p, {FVar("a"): x}, CIORE) in DESIGNATED for p in probes
        ]
        assert hits.count(True) == 1
    # and they pick out 1, 0, 1/2 respectively
    assert eval_prop(probes[0], {FVar("a"): ONE}, CIORE) in DESIGNATED
    assert eval_prop(probes[1], {FVar("a"): ZERO}, CIORE) in DESIGNATED
    assert eval_prop(probes[2], {FVar("a"): HALF}, CIORE) in DESIGNATED


def test_mp_preserves_designation():
    for a, b in itertools.product(VALUES, repeat=2):
        if a in DESIGNATED and CIORE.binary["->"][(a, b)] in DESIGNATED:
            assert b in DESIGNATED


def test_disjunction_designated_iff_either():
    for a, b in itertools.product(VALUES, repeat=2):
        lhs = CIORE.binary["|"][(a, b)] in DESIGNATED
        assert lhs == (a in DESIGNATED or b in DESIGNATED)


@given(st.dictionaries(st.sampled_from([FVar("a"), FVar("b")]),
                       st.sampled_from(VALUES), min_size=2))
def test_iff_designated_means_same_status(v):
    f = _schema("(a <-> b)")
    iff = eval_prop(f, v, CIORE) in DESIGNATED
    same = (v[FVar("a")] in DESIGNATED) == (v[FVar("b")] in DESIGNATED)
    assert iff == same


# ---------------------------------------------------------------------------
# Truth values: canonical Fractions with a stored hash


@pytest.mark.parametrize(
    "value,plain,text",
    [(ZERO, Fraction(0), "0"), (HALF, Fraction(1, 2), "1/2"), (ONE, Fraction(1), "1")],
)
def test_truth_values_behave_as_plain_fractions(value, plain, text):
    assert isinstance(value, Fraction)
    assert value == plain and plain == value and not value != plain
    assert hash(value) == hash(plain)
    assert str(value) == str(plain) == text
    assert repr(value) == repr(plain)
    for other in VALUES:
        assert (value == other) == (value is other)
        assert (value < other) == (plain < Fraction(other))
    assert value + HALF == plain + Fraction(1, 2)
    assert pickle.loads(pickle.dumps(value)) is value
    assert copy.copy(value) is value and copy.deepcopy(value) is value


def test_truth_values_equal_and_hash_like_ints():
    for value, n in ((ZERO, 0), (ONE, 1)):
        assert value == n and n == value and hash(value) == hash(n)
    assert HALF != 0 and HALF != 1 and HALF == 0.5


def test_tables_accept_plain_fraction_keys():
    assert Fraction(1, 2) in DESIGNATED and Fraction(0) not in DESIGNATED
    assert 1 in DESIGNATED and 0 not in DESIGNATED
    assert CIORE.binary["->"][(Fraction(1, 2), Fraction(0))] is ZERO
    assert CIORE.binary["&"][(1, Fraction(1, 2))] is ONE
    assert CIORE.unary["@"][Fraction(1, 2)] is ZERO
