"""Tests for substructures, witness conditions, and bounded elementarity."""

import itertools
import re

import pytest

from qciore.modeltheory import (
    TarskiViolation,
    elementary_equiv_bounded,
    elementary_sub_bounded,
    induced_substructure,
    is_substructure,
    tarski_conditions,
)
from qciore import structures
from qciore.search import enumerate_structures
from qciore.matrix3 import HALF
from qciore.structures import (
    assignments_over,
    classical_equality,
    eval_formula,
    make_structure,
    sentence_trichotomy,
)
from qciore.syntax import (
    Exists,
    FVar,
    Forall,
    Or,
    Pred,
    Signature,
    Var,
    enumerate_formulas,
    free_vars,
    parse_formula,
)
from qciore.triples import make_triple

from helpers import SIG_P1, remark_structure

SIG_FC = Signature(predicates={"P": 1}, functions={"f": 1}, constants={"c"})


def p_structure(domain, plus=(), minus=(), dot=()):
    def elems(spec):
        return {(e,) for e in ((spec,) if isinstance(spec, str) else spec)}

    if isinstance(domain, str):
        domain = (domain,)
    return make_structure(
        SIG_P1,
        tuple(domain),
        preds={"P": make_triple(elems(plus), elems(minus), elems(dot))},
    )


# ---------------------------------------------------------------------------
# Substructures


def test_structure_is_substructure_of_itself():
    b = remark_structure()
    assert is_substructure(b, b) == (True, None)


def test_induced_substructure_restricts_classes():
    b = remark_structure()
    a = induced_substructure(b, {"a", "b"})
    assert a.domain == ("a", "b")
    assert a.preds["P"].plus == {("a",)}
    assert a.preds["P"].dot == {("b",)}
    assert is_substructure(a, b) == (True, None)


def test_substructure_violations_are_named():
    b = remark_structure()
    a = induced_substructure(b, {"a"})
    ok, why = is_substructure(b, a)
    assert not ok and "domain" in why

    stranger = p_structure("a", minus="a")
    ok, why = is_substructure(stranger, b)
    assert not ok and "P" in why and "does not restrict" in why

    other_sig = make_structure(
        Signature(predicates={"Q": 1}),
        ("a",),
        preds={"Q": make_triple({("a",)}, set(), set())},
    )
    ok, why = is_substructure(other_sig, b)
    assert not ok and "signature" in why


def test_induced_substructure_rejects_bad_subdomains():
    b = remark_structure()
    with pytest.raises(ValueError):
        induced_substructure(b, set())
    with pytest.raises(ValueError):
        induced_substructure(b, {"a", "z"})


def test_induced_substructure_checks_constants_and_closure():
    b = make_structure(
        SIG_FC,
        ("e1", "e2"),
        preds={"P": make_triple({("e1",)}, {("e2",)}, set())},
        funs={"f": {("e1",): "e2", ("e2",): "e2"}},
        consts={"c": "e1"},
    )
    # e1 maps out of {e1}, and c lies outside {e2}
    with pytest.raises(ValueError, match="closed"):
        induced_substructure(b, {"e1"})
    with pytest.raises(ValueError, match="constant"):
        induced_substructure(b, {"e2"})
    a = induced_substructure(b, {"e1", "e2"})
    assert is_substructure(a, b) == (True, None)


def test_induced_substructure_keeps_the_types_of_its_elements():
    # (1, 2) and (True, 2) are equal tuples, but the second keeps True
    for one in (1, True):
        b = make_structure(
            SIG_P1, (one, 2, 3), preds={"P": make_triple({(one,), (2,)}, {(3,)}, set())}
        )
        a = induced_substructure(b, {one, 2})
        assert {type(e) for (e,) in a.preds["P"].plus} == {type(one), int}


def test_function_disagreement_is_reported():
    b = make_structure(
        SIG_FC,
        ("e1", "e2"),
        preds={"P": make_triple({("e1",)}, {("e2",)}, set())},
        funs={"f": {("e1",): "e2", ("e2",): "e2"}},
        consts={"c": "e1"},
    )
    a_bad = make_structure(
        SIG_FC,
        ("e1",),
        preds={"P": make_triple({("e1",)}, set(), set())},
        funs={"f": {("e1",): "e1"}},
        consts={"c": "e1"},
    )
    assert is_substructure(a_bad, b) == (False, "function f disagrees at (('e1',),)")


SIG_PEQ = Signature(predicates={"P": 1}, has_equality=True)


def test_each_substructure_violation_has_its_message():
    b = make_structure(
        SIG_FC,
        ("e1", "e2"),
        preds={"P": make_triple({("e1",)}, {("e2",)}, set())},
        funs={"f": {("e1",): "e1", ("e2",): "e2"}},
        consts={"c": "e1"},
    )
    on_e1 = dict(
        preds={"P": make_triple({("e1",)}, set(), set())},
        funs={"f": {("e1",): "e1"}},
        consts={"c": "e1"},
    )
    assert is_substructure(make_structure(SIG_FC, ("e1",), **on_e1), b) == (True, None)
    eq = make_structure(
        SIG_PEQ, b.domain, {"P": b.preds["P"], "=": classical_equality(b.domain)}
    )
    dubious = make_triple(set(), set(), {("e1", "e1")})
    cases = [
        (make_structure(SIG_P1, ("e1",), on_e1["preds"]), b, "signatures differ"),
        (
            make_structure(SIG_FC, ("e1", "e3"), {"P": make_triple({("e1",)}, {("e3",)}, set())},
                           {"f": {("e1",): "e1", ("e3",): "e3"}}, {"c": "e1"}),
            b,
            "domain element e3 is not in the larger structure",
        ),
        (make_structure(SIG_FC, b.domain, b.preds, b.funs, {"c": "e2"}), b,
         "constant c: e2 != e1"),
        (
            make_structure(SIG_FC, b.domain, b.preds, {"f": {("e1",): "e1", ("e2",): "e1"}},
                           b.consts),
            b,
            "function f disagrees at (('e2',),)",
        ),
        (
            make_structure(SIG_FC, ("e1",), {"P": make_triple(set(), set(), {("e1",)})},
                           on_e1["funs"], on_e1["consts"]),
            b,
            "predicate P: plus class does not restrict",
        ),
        (
            make_structure(SIG_PEQ, ("e1",), {"P": on_e1["preds"]["P"], "=": dubious}),
            eq,
            "predicate =: plus class does not restrict",
        ),
    ]
    for a, big, why in cases:
        assert is_substructure(a, big) == (False, why)


def test_first_violation_follows_the_symbol_order():
    # predicates by name, then functions, then constants, equality last
    sig = Signature(predicates={"P": 1}, functions={"f": 1}, constants={"c"},
                    has_equality=True)
    domain = ("e1", "e2", "e3")
    b = make_structure(
        sig,
        domain,
        preds={"P": make_triple({("e1",)}, {("e2",), ("e3",)}, set()),
               "=": classical_equality(domain)},
        funs={"f": {(e,): e for e in domain}},
        consts={"c": "e2"},
    )
    a = make_structure(
        sig,
        ("e2", "e3"),
        preds={"P": make_triple(set(), set(), {("e2",), ("e3",)}),
               "=": make_triple(set(), {("e2", "e3"), ("e3", "e2")},
                                {("e2", "e2"), ("e3", "e3")})},
        funs={"f": {("e2",): "e3", ("e3",): "e2"}},
        consts={"c": "e3"},
    )
    assert is_substructure(a, b) == (False, "predicate P: minus class does not restrict")
    a.preds["P"] = make_triple(set(), {("e2",), ("e3",)}, set())
    assert is_substructure(a, b) == (False, "function f disagrees at (('e2',),)")
    a.funs["f"] = {("e2",): "e2", ("e3",): "e3"}
    assert is_substructure(a, b) == (False, "constant c: e3 != e2")
    a.consts["c"] = "e2"
    assert is_substructure(a, b) == (False, "predicate =: plus class does not restrict")
    # a constant outside the subdomain and a function that leaves it: the
    # function is named first
    b = make_structure(
        SIG_FC,
        ("e1", "e2"),
        preds={"P": make_triple({("e1",)}, {("e2",)}, set())},
        funs={"f": {("e1",): "e1", ("e2",): "e1"}},
        consts={"c": "e1"},
    )
    with pytest.raises(ValueError, match="not closed under f"):
        induced_substructure(b, {"e2"})


def reference_induced(B, subdomain):
    """The substructure of B on ``subdomain``, each interpretation cut by
    hand; a ValueError names the first symbol at fault, a function before a
    constant."""
    keep = set(subdomain)
    inside = keep.issuperset
    funs = {}
    for name, table in sorted(B.funs.items()):
        funs[name] = {args: v for args, v in table.items() if inside(args)}
        if not inside(funs[name].values()):
            raise ValueError("closed")
    if not inside(B.consts.values()):
        raise ValueError("constant")
    preds = {
        name: make_triple(*({t for t in c if inside(t)} for c in (tri.plus, tri.minus, tri.dot)))
        for name, tri in B.preds.items()
    }
    domain = tuple(d for d in B.domain if d in keep)
    return make_structure(B.sig, domain, preds, funs, dict(B.consts))


def changed(A, part, name):
    """A copy of A with the interpretation of ``name`` changed, or None
    when A's domain leaves no other choice for it."""
    value = getattr(A, part)[name]
    if part == "preds":
        # the first tuple moved to the next class
        first = min(value.carrier)
        classes = [set(value.plus), set(value.minus), set(value.dot)]
        at = next(i for i, c in enumerate(classes) if first in c)
        classes[at].discard(first)
        classes[(at + 1) % 3].add(first)
        value = make_triple(*classes)
    elif len(A.domain) == 1:
        return None
    elif part == "funs":
        args = min(value)
        value = {**value, args: next(e for e in A.domain if e != value[args])}
    else:
        value = next(e for e in A.domain if e != value)
    interp = {p: dict(getattr(A, p)) for p in ("preds", "funs", "consts")}
    interp[part][name] = value
    return make_structure(A.sig, A.domain, **interp)


@pytest.mark.parametrize("sig", [SIG_FC, Signature(predicates={"R": 2}, has_equality=True)],
                         ids=["Pfc", "R-eq"])
def test_induced_substructure_matches_a_reference(sig):
    induced = refused = changes = 0
    for n in (1, 2):
        for b in enumerate_structures(sig, n):
            for k in range(1, n + 1):
                for subdomain in itertools.combinations(b.domain, k):
                    try:
                        want = reference_induced(b, subdomain)
                    except ValueError as e:
                        with pytest.raises(ValueError, match=str(e)):
                            induced_substructure(b, subdomain)
                        refused += 1
                        continue
                    a = induced_substructure(b, subdomain)
                    assert a == want
                    assert is_substructure(a, b) == (True, None)
                    induced += 1
                    for part, name, _ in structures._parts(sig):
                        other = changed(a, part, name)
                        if other is not None:
                            ok, why = is_substructure(other, b)
                            assert not ok and why.startswith("%s %s" % (structures._KIND[part], name))
                            changes += 1
    assert induced and changes and (refused or not sig.constants)


# ---------------------------------------------------------------------------
# Witness conditions


def test_tarski_requires_substructure():
    with pytest.raises(ValueError):
        tarski_conditions(
            p_structure("a", dot="a"), remark_structure(), [parse_formula("P(x)")]
        )


def test_remark_restriction_passes_on_plain_atom():
    b = remark_structure()
    a = induced_substructure(b, {"a"})
    assert tarski_conditions(a, b, [parse_formula("P(x)")]) == []


def test_remark_restriction_fails_tc1_on_negated_atom():
    b = remark_structure()
    a = induced_substructure(b, {"a"})
    violations = tarski_conditions(a, b, [parse_formula("~P(x)")])
    assert {v.condition for v in violations} == {"TC1"}
    v = violations[0]
    assert isinstance(v, TarskiViolation)
    assert isinstance(v.formula, Exists)
    # the big structure does make the existential true
    assert eval_formula(v.formula, b, v.assignment) == 1


def test_missing_forall_witness_fails_tc3():
    b = p_structure(("e1", "e2"), plus="e2", dot="e1")
    a = induced_substructure(b, {"e1"})
    violations = tarski_conditions(a, b, [parse_formula("P(x)")])
    assert {v.condition for v in violations} == {"TC1", "TC2", "TC3"}
    tc3 = [v for v in violations if v.condition == "TC3"]
    assert len(tc3) == 1 and isinstance(tc3[0].formula, Forall)


def test_missing_falsity_witness_fails_tc4():
    b = p_structure(("e1", "e2"), plus="e1", minus="e2")
    a = induced_substructure(b, {"e1"})
    violations = tarski_conditions(a, b, [parse_formula("P(x)")])
    assert "TC4" in {v.condition for v in violations}


def test_variables_default_to_free_variables_of_pool():
    b = remark_structure()
    a = induced_substructure(b, {"a"})
    explicit = tarski_conditions(a, b, [parse_formula("~P(x)")], variables=("x",))
    derived = tarski_conditions(a, b, [parse_formula("~P(x)")])
    assert [v.condition for v in explicit] == [v.condition for v in derived]


def test_tarski_rejects_repeated_variables():
    # ("x", "x") would report every violation twice
    b = remark_structure()
    a = induced_substructure(b, {"a"})
    with pytest.raises(ValueError, match="repeat"):
        tarski_conditions(a, b, [parse_formula("P(x)")], ("x", "x"))


def test_tarski_tries_every_value_of_a_free_variable_outside_variables():
    b = p_structure(("e1", "e2", "e3"), plus="e1", minus=("e2", "e3"))
    a = induced_substructure(b, {"e2", "e3"})
    violations = tarski_conditions(a, b, [parse_formula("P(y) | P(x)")], ("x",))
    assert [v.condition for v in violations] == ["TC1"] * 4
    assert [v.variable for v in violations] == ["x"] * 4
    assert [(v.assignment.get("x"), v.assignment.get("y")) for v in violations] == [
        ("e2", "e2"), ("e2", "e3"), ("e3", "e2"), ("e3", "e3"),
    ]


def reference_tarski_conditions(A, B, formulas, variables):
    """The witness conditions assignment by assignment: every value of phi,
    of exists x. phi and of forall x. phi evaluated pointwise."""
    used = set().union(*map(free_vars, formulas))
    frame = tuple(sorted(used.union(variables)))
    out = []
    for s in assignments_over(A, frame):
        for phi in formulas:
            for x in variables:
                body = {a: eval_formula(phi, B, s.set(x, a)) for a in A.domain}
                shown = ", ".join("%s:%s" % (a, v) for a, v in sorted(body.items()))
                ex, fa = Exists(x, phi), Forall(x, phi)
                v = eval_formula(ex, B, s)
                if v == 1 and (
                    all(u == 0 for u in body.values())
                    or all(u == HALF for u in body.values())
                ):
                    out.append(("TC1", x, ex, s, "value 1 but witnesses off 0 and "
                                "off 1/2 are missing: %s" % shown))
                if v != HALF and all(u == HALF for u in body.values()):
                    out.append(("TC2", x, ex, s, "value %s but every witness is 1/2" % v))
                w = eval_formula(fa, B, s)
                if w == 1 and 1 not in body.values():
                    out.append(("TC3", x, fa, s, "value 1 but no witness has value 1: "
                                "%s" % shown))
                if w == 0 and 0 not in body.values():
                    out.append(("TC4", x, fa, s, "value 0 but no witness has value 0: "
                                "%s" % shown))
    return out


SIG_PC = Signature(predicates={"P": 1}, constants={"c"})
SIG_R2 = Signature(predicates={"R": 2})
SIG_PF = Signature(predicates={"P": 1}, functions={"f": 1})


def reordered(a):
    """A copy of ``a`` with its domain listed in reverse."""
    return make_structure(a.sig, a.domain[::-1], a.preds, a.funs, a.consts)


@pytest.mark.parametrize(
    "sig,max_size,variables,depth,extra",
    [
        (SIG_P1, 3, ("x",), 1, "exists z. P(z) & ~P(x)"),
        (SIG_P1, 2, ("x", "y"), 1, "forall z. P(z) -> P(y)"),
        # 3**2 = 9 points: every formula's lane is two bytes
        (SIG_P1, 3, ("x", "y"), 1, "exists z. P(z) & ~P(x)"),
        (SIG_PC, 2, ("x",), 1, "exists z. @P(z) & P(c)"),
        (SIG_R2, 2, ("x",), 1, "forall z. R(x, z) | ~R(z, x)"),
        (SIG_R2, 2, ("x", "y"), 0, "exists z. R(x, z) & ~R(z, y)"),
        (SIG_PF, 2, ("x", "y"), 1, "forall z. P(f(z)) -> ~P(y)"),
    ],
    ids=["P-x", "P-xy", "P-xy-3", "Pc-x", "R-x", "R-xy", "Pf-xy"],
)
def test_tarski_matches_pointwise_reference(sig, max_size, variables, depth, extra):
    # the extra formula quantifies a variable outside the frame
    pool = list(enumerate_formulas(sig, variables, depth)) + [parse_formula(extra)]
    checked = found = 0
    for n in range(1, max_size + 1):
        for b in enumerate_structures(sig, n):
            for k in range(1, n + 1):
                for subdomain in itertools.combinations(b.domain, k):
                    try:
                        a = induced_substructure(b, subdomain)
                    except ValueError:  # misses a constant or is not closed
                        continue
                    # B's order, and from two elements on the reverse of it
                    for small in (a, reordered(a))[: min(k, 2)]:
                        got = [
                            (v.condition, v.variable, v.formula, v.assignment, v.detail)
                            for v in tarski_conditions(small, b, pool, variables)
                        ]
                        assert got == reference_tarski_conditions(small, b, pool, variables)
                        checked += 1
                        found += len(got)
    assert checked and found


def reference_elementary_sub(A, B, depth, variables):
    """Bounded elementarity pointwise: every formula at every assignment."""
    pool = list(enumerate_formulas(A.sig, variables, depth))
    for s in assignments_over(A, tuple(sorted(variables))):
        for f in pool:
            va, vb = eval_formula(f, A, s), eval_formula(f, B, s)
            if va != vb:
                return False, (f, s, va, vb)
    return True, None


def reference_equiv(A, B, depth, variables):
    """Bounded equivalence pointwise: every sentence's verdict."""
    for f in enumerate_formulas(A.sig, variables, depth):
        if not free_vars(f) and sentence_trichotomy(f, A) != sentence_trichotomy(f, B):
            return False, f
    return True, None


@pytest.mark.parametrize(
    "sig,max_size,variables",
    [
        (SIG_P1, 3, ("x",)),
        (SIG_P1, 2, ("x", "y")),
        (SIG_PC, 2, ("x",)),
        (SIG_R2, 2, ("x",)),
        (SIG_PF, 2, ("x", "y")),
    ],
    ids=["P-x", "P-xy", "Pc-x", "R-x", "Pf-xy"],
)
def test_same_domain_pairs_match_pointwise_references(sig, max_size, variables):
    # A on all of B's elements, in B's order (A == B) and reversed (A != B)
    pool = list(enumerate_formulas(sig, variables, 1))
    checked = 0
    for n in range(1, max_size + 1):
        for b in enumerate_structures(sig, n):
            a = induced_substructure(b, b.domain)
            for small in (a, reordered(a)):
                assert tarski_conditions(small, b, pool, variables) == []
                assert reference_tarski_conditions(small, b, pool, variables) == []
                for depth in (0, 1):
                    assert elementary_sub_bounded(
                        small, b, depth, variables
                    ) == reference_elementary_sub(small, b, depth, variables)
                    assert elementary_equiv_bounded(
                        small, b, depth, variables
                    ) == reference_equiv(small, b, depth, variables)
                checked += 1
    assert checked


def test_same_domain_pairs_still_check_their_inputs():
    b = p_structure(("e1", "e2"), plus="e1", minus="e2")
    pool = [parse_formula("P(x)")]
    for a in (b, induced_substructure(b, b.domain), reordered(b)):
        with pytest.raises(ValueError, match="repeat"):
            tarski_conditions(a, b, pool, ("x", "x"))
        for check in (elementary_sub_bounded, elementary_equiv_bounded):
            with pytest.raises(ValueError, match="at least 0"):
                check(a, b, -1)
            with pytest.raises(ValueError, match="repeat"):
                check(a, b, 1, ("x", "x"))
    other = p_structure(("e1", "e2"), plus="e2", minus="e1")
    with pytest.raises(ValueError, match="not a substructure"):
        tarski_conditions(other, b, pool)
    with pytest.raises(ValueError, match="not a substructure"):
        elementary_sub_bounded(other, b, 1)
    renamed_sig = make_structure(
        Signature(predicates={"Q": 1}), b.domain, preds={"Q": b.preds["P"]}
    )
    with pytest.raises(ValueError, match="signatures differ"):
        elementary_equiv_bounded(renamed_sig, b, 1)


@pytest.mark.parametrize(
    "pool,message",
    [
        ([Pred("Q", (Var("x"),))], "Q(x) uses Q/1, outside the signature"),
        ([FVar("A")], "A has metavariable A: tarski_conditions needs concrete formulas"),
        ([parse_formula("P(x)"), Or(FVar("B"), FVar("A"))], "has metavariable B"),
    ],
)
def test_tarski_checks_its_pool_on_every_pair(pool, message):
    # same domain or not, a pool outside B's signature is refused alike
    b = p_structure(("e1", "e2"), plus="e1", minus="e2")
    for a in (b, reordered(b), induced_substructure(b, {"e1"})):
        with pytest.raises(ValueError, match=re.escape(message)):
            tarski_conditions(a, b, pool)


# ---------------------------------------------------------------------------
# Bounded elementarity


def test_elementary_on_itself():
    b = remark_structure()
    ok, witness = elementary_sub_bounded(b, b, 2)
    assert ok and witness is None


def test_existential_value_separates_at_depth_one():
    b = p_structure(("e1", "e2"), plus="e2", minus="e1")
    a = induced_substructure(b, {"e1"})
    ok, _ = elementary_sub_bounded(a, b, 0)
    assert ok
    ok, witness = elementary_sub_bounded(a, b, 1)
    assert not ok
    f, s, va, vb = witness
    assert eval_formula(f, a, s) == va and eval_formula(f, b, s) == vb
    assert va != vb


def test_tarski_failure_matches_elementary_failure():
    b = remark_structure()
    a = induced_substructure(b, {"a"})
    assert tarski_conditions(a, b, [parse_formula("~P(x)")]) != []
    ok, witness = elementary_sub_bounded(a, b, 2)
    assert not ok


# ---------------------------------------------------------------------------
# Bounded equivalence


def test_isomorphic_structures_are_equivalent():
    a = p_structure(("e1", "e2"), plus="e1", dot="e2")
    b = p_structure(("u", "v"), plus="u", dot="v")
    ok, sep = elementary_equiv_bounded(a, b, 2)
    assert ok and sep is None


def test_atom_class_difference_separates_at_depth_one():
    a = p_structure("a", plus="a")
    b = p_structure("a", dot="a")
    ok, _ = elementary_equiv_bounded(a, b, 0)  # no sentences at depth 0
    assert ok
    ok, sep = elementary_equiv_bounded(a, b, 1)
    assert not ok
    assert sentence_trichotomy(sep, a) != sentence_trichotomy(sep, b)


def test_equivalence_requires_same_signature():
    with pytest.raises(ValueError):
        elementary_equiv_bounded(
            p_structure("a", plus="a"),
            make_structure(
                Signature(predicates={"Q": 1}),
                ("a",),
                preds={"Q": make_triple({("a",)}, set(), set())},
            ),
            1,
        )


def test_depth_separates_equivalence():
    a = p_structure(("e1", "e2"), plus=("e1", "e2"))
    b = p_structure(("e1", "e2"), plus="e1", dot="e2")
    ok, _ = elementary_equiv_bounded(a, b, 1)
    assert ok
    ok, sep = elementary_equiv_bounded(a, b, 2)
    assert not ok and sep is not None


def test_some_pair_agrees_at_depth_one_but_not_two():
    structures = list(enumerate_structures(SIG_P1, 1)) + list(
        enumerate_structures(SIG_P1, 2)
    )
    pairs = [
        (a, b)
        for a, b in itertools.combinations(structures, 2)
        if elementary_equiv_bounded(a, b, 1)[0]
        and not elementary_equiv_bounded(a, b, 2)[0]
    ]
    assert pairs


# ---------------------------------------------------------------------------
# The witness conditions certify bounded elementarity


def test_tarski_pass_implies_elementary_on_enumerated_pairs():
    pool = list(enumerate_formulas(SIG_P1, ("x",), 1))
    checked = certified = 0
    for b in enumerate_structures(SIG_P1, 2):
        for k in (1, 2):
            for subdomain in itertools.combinations(b.domain, k):
                a = induced_substructure(b, subdomain)
                checked += 1
                if tarski_conditions(a, b, pool, ("x",)) == []:
                    certified += 1
                    ok, witness = elementary_sub_bounded(a, b, 1)
                    assert ok, witness
                    ok, sep = elementary_equiv_bounded(a, b, 1)
                    assert ok, sep
    assert checked == 27 and certified > 0
