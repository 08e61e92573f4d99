"""Tests for structure enumeration, countermodel search, and the harness."""

import dataclasses
import functools
import itertools
import math
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from qciore import hilbert, search, structures, syntax, triples
from qciore.cli import format_structure
from qciore.hilbert import instantiate, possibly_free, schema_metavariables
from qciore.matrix3 import (
    CIORE,
    DESIGNATED,
    HALF,
    LFI1,
    ONE,
    PROP_AXIOMS,
    ZERO,
    Matrix,
)
from qciore.search import (
    EQ_AXIOM_IDS,
    QUANT_AXIOM_IDS,
    HarnessReport,
    SearchSpec,
    _equality_axiom_instances,
    _quantifier_axioms,
    check_consequence_bounded,
    enumerate_structures,
    find_countermodel,
    soundness_harness,
    structure_count,
)
from qciore.structures import (
    assignments_over,
    eval_formula,
    is_valid_in,
    make_structure,
    reduct,
)
from qciore.syntax import (
    And,
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
    enumerate_formulas,
    parse_formula,
)

SIG_P = Signature(predicates={"P": 1}, functions={}, constants=set())
SIG_PR = Signature(predicates={"P": 1, "R": 2}, functions={}, constants=set())
SIG_PQC = Signature(predicates={"P": 1, "Q": 1}, functions={}, constants={"c"})
SIG_PC = Signature(predicates={"P": 1}, functions={}, constants={"c"})
SIG_PF = Signature(predicates={"P": 1}, functions={"f": 1}, constants=set())
SIG_PEQ = Signature(
    predicates={"P": 1}, functions={}, constants=set(), has_equality=True
)
SIG_PFC = Signature(predicates={"P": 1}, functions={"f": 1}, constants={"c"})
SIG_PQCD = Signature(predicates={"P": 1, "Q": 1}, functions={}, constants={"c", "d"})
SIG_PCEQ = Signature(
    predicates={"P": 1}, functions={}, constants={"c"}, has_equality=True
)


def canonical(a):
    return (
        a.domain,
        tuple(sorted(a.preds.items(), key=lambda kv: kv[0])),
        tuple(
            sorted(
                ((f, tuple(sorted(tbl.items()))) for f, tbl in a.funs.items()),
                key=lambda kv: kv[0],
            )
        ),
        tuple(sorted(a.consts.items())),
    )


# ---------------------------------------------------------------------------
# Enumeration


@pytest.mark.parametrize(
    "sig,n,expected",
    [
        (SIG_P, 1, 3),
        (SIG_P, 2, 9),
        (SIG_PR, 1, 9),
        (SIG_PR, 2, 9 * 81),
        (SIG_PQC, 1, 9),
        (SIG_PQC, 2, 162),
        (Signature(predicates={}, functions={}, constants={"c"}), 2, 2),
        (Signature(predicates={}, functions={"f": 1}, constants=set()), 2, 4),
    ],
)
def test_enumeration_matches_count(sig, n, expected):
    structures = list(enumerate_structures(sig, n))
    assert len(structures) == expected
    assert structure_count(sig, n) == expected
    assert len({canonical(a) for a in structures}) == expected


@pytest.mark.parametrize("n", [1, 2])
def test_equality_normal_enumeration(n):
    normal = list(enumerate_structures(SIG_PEQ, n, equality_normal=True))
    assert len(normal) == 3**n * 2**n == structure_count(SIG_PEQ, n)
    for a in normal:
        eq = a.preds["="]
        for x in a.domain:
            assert ((x, x) in eq.plus) != ((x, x) in eq.dot)
            for y in a.domain:
                if x != y:
                    assert (x, y) in eq.minus
    free = list(enumerate_structures(SIG_PEQ, n, equality_normal=False))
    assert len(free) == 3**n * 3 ** (n * n)
    assert len(free) == structure_count(SIG_PEQ, n, equality_normal=False)


def test_enumeration_is_deterministic():
    first = list(enumerate_structures(SIG_PQC, 2))
    second = list(enumerate_structures(SIG_PQC, 2))
    assert first == second


def test_enumeration_rejects_empty_domain():
    with pytest.raises(ValueError):
        next(enumerate_structures(SIG_P, 0))


def test_function_tables_are_total():
    sig = Signature(predicates={}, functions={"f": 2}, constants=set())
    structures = list(enumerate_structures(sig, 2))
    assert len(structures) == 2**4 == structure_count(sig, 2)
    for a in structures:
        assert set(a.funs["f"]) == {
            (x, y) for x in a.domain for y in a.domain
        }


# ---------------------------------------------------------------------------
# Countermodel search

QUANTIFIER_NEGATION_SCHEMAS = [
    "(exists x. ~P(x)) -> ~(forall x. P(x))",
    "(forall x. ~P(x)) -> ~(exists x. P(x))",
    "(forall x. P(x)) -> ~(exists x. ~P(x))",
    "(exists x. P(x)) -> ~(forall x. ~P(x))",
]


@pytest.mark.parametrize("text", QUANTIFIER_NEGATION_SCHEMAS)
def test_quantifier_negation_schemas_refuted(text):
    phi = parse_formula(text)
    res = find_countermodel(SearchSpec(sig=SIG_P, phi=phi, max_domain_size=3))
    assert res.found and res.size == 2
    assert res.value not in DESIGNATED
    # independent re-check of the reported witness
    assert eval_formula(phi, res.structure, res.assignment) == res.value


def test_first_countermodel_is_pinned():
    phi = parse_formula("(exists x. ~P(x)) -> ~(forall x. P(x))")
    res = find_countermodel(SearchSpec(sig=SIG_P, phi=phi, max_domain_size=2))
    triple = res.structure.preds["P"]
    assert triple.plus == {("e1",)}
    assert triple.minus == set()
    assert triple.dot == {("e2",)}


def test_valid_schema_exhausts_search():
    phi = parse_formula("(forall x. P(x)) -> P(y)")
    res = find_countermodel(SearchSpec(sig=SIG_P, phi=phi, max_domain_size=3))
    assert not res.found
    assert res.exhausted
    assert res.limit_hit is None
    assert res.structures_checked == 3 + 9 + 27


def test_modus_ponens_has_no_countermodel():
    gamma = [parse_formula("P(c)"), parse_formula("P(c) -> Q(c)")]
    res = check_consequence_bounded(gamma, parse_formula("Q(c)"), SIG_PQC, 2)
    assert not res.found and res.exhausted


def test_contradiction_does_not_explode():
    gamma = [parse_formula("P(c)"), parse_formula("~P(c)")]
    res = check_consequence_bounded(gamma, parse_formula("Q(c)"), SIG_PQC, 3)
    assert res.found and res.size == 1
    for g in gamma:
        assert is_valid_in(g, res.structure)[0]
    assert eval_formula(parse_formula("Q(c)"), res.structure, res.assignment) not in (
        DESIGNATED
    )


def test_consistency_restores_explosion():
    gamma = [
        parse_formula("P(c)"),
        parse_formula("~P(c)"),
        parse_formula("@P(c)"),
    ]
    res = check_consequence_bounded(gamma, parse_formula("Q(c)"), SIG_PQC, 3)
    assert not res.found and res.exhausted


def test_structure_budget_is_reported():
    phi = parse_formula("(forall x. P(x)) -> P(y)")
    spec = SearchSpec(sig=SIG_P, phi=phi, max_domain_size=3, max_structures=5)
    res = find_countermodel(spec)
    assert not res.found and not res.exhausted
    assert res.limit_hit == "structure budget"
    assert res.structures_checked == 5


def test_time_budget_is_reported():
    phi = parse_formula("(forall x. P(x)) -> P(y)")
    spec = SearchSpec(sig=SIG_P, phi=phi, max_domain_size=3, time_budget_s=0.0)
    time.sleep(0.01)
    res = find_countermodel(spec)
    assert not res.found and not res.exhausted
    assert res.limit_hit == "time budget"


def test_progress_callback_fires():
    phi = parse_formula("(forall x. P(x)) -> P(y)")
    calls = []
    find_countermodel(
        SearchSpec(sig=SIG_P, phi=phi, max_domain_size=2),
        progress=lambda k, t: calls.append(k),
        progress_every=2,
    )
    assert calls == [2, 4, 6, 8, 10, 12]


def test_spec_rejects_bad_bound():
    with pytest.raises(ValueError):
        SearchSpec(sig=SIG_P, phi=parse_formula("P(x)"), max_domain_size=0)


def test_spec_rejects_negative_budgets():
    phi = parse_formula("P(x)")
    with pytest.raises(ValueError, match="max_structures"):
        SearchSpec(sig=SIG_P, phi=phi, max_structures=-1)
    with pytest.raises(ValueError, match="time_budget_s"):
        SearchSpec(sig=SIG_P, phi=phi, time_budget_s=-0.5)
    # 0 stays legal: the search stops before the first structure
    res = find_countermodel(SearchSpec(sig=SIG_P, phi=phi, max_structures=0))
    assert res.limit_hit == "structure budget" and res.structures_checked == 0


def test_search_rejects_a_progress_stride_below_1():
    spec = SearchSpec(sig=SIG_P, phi=parse_formula("P(x)"))
    with pytest.raises(ValueError, match="progress_every"):
        find_countermodel(spec, progress=lambda k, t: None, progress_every=0)


def reference_search(spec, progress_every):
    """The search as a plain loop: every premise and the target evaluated
    in every structure, no verdict carried over.  Returns the summary that
    ``summary`` gives for a result, and the progress calls."""
    calls = []
    checked = 0
    for n in range(1, spec.max_domain_size + 1):
        for A in enumerate_structures(spec.sig, n, spec.equality_normal):
            if spec.max_structures is not None and checked >= spec.max_structures:
                return (False, None, checked, False, "structure budget", None, None, None), calls
            checked += 1
            if checked % progress_every == 0:
                calls.append(checked)
            if not all(is_valid_in(g, A)[0] for g in spec.gamma):
                continue
            ok, witness = is_valid_in(spec.phi, A)
            if not ok:
                value = eval_formula(spec.phi, A, witness)
                return (True, n, checked, False, None, value, format_structure(A), witness), calls
    return (False, None, checked, True, None, None, None, None), calls


def summary(res):
    text = None if res.structure is None else format_structure(res.structure)
    return (
        res.found, res.size, res.structures_checked, res.exhausted, res.limit_hit,
        res.value, text, res.assignment,
    )


# (signature, premises, target, max size, extra spec fields, found?)
CACHED_SEARCHES = [
    (SIG_PQC, ["P(c)", "~P(c)"], "Q(c)", 3, {}, True),
    (SIG_PQC, ["P(c)", "~P(c)", "@P(c)"], "Q(c)", 3, {}, False),
    (SIG_PQC, ["P(c)", "Q(x)"], "Q(c)", 3, {}, False),
    (SIG_PQC, ["P(c)", "Q(x)"], "P(x)", 3, {}, True),
    (SIG_PQC, ["P(c)", "~P(c)", "@P(c)"], "Q(c)", 3, {"max_structures": 200}, False),
    (SIG_PQC, [], "Q(x) -> Q(c)", 3, {}, True),
    (SIG_PQC, [], "Q(x) | ~Q(x)", 3, {}, False),
    (SIG_PF, ["P(x) -> P(f(x))"], "P(f(x)) -> P(x)", 3, {}, True),
    (SIG_PF, ["P(f(x))"], "P(f(f(x))) | ~P(x)", 3, {}, False),
    (SIG_PFC, ["P(c)", "P(x) -> P(f(x))"], "P(f(x))", 3, {}, True),
    (SIG_PFC, ["P(f(x))"], "P(f(c))", 3, {}, False),
    (SIG_PEQ, ["exists x. P(x)"], "@(x = x)", 3, {}, True),
    (SIG_PEQ, ["exists x. P(x)"], "x = x", 3, {}, False),
    (SIG_PEQ, ["P(x) | ~P(x)"], "x = x", 2, {"equality_normal": False}, True),
    # the target is decided only where the premises (over P and Q) hold, so
    # its reduct index (over Q and c) jumps ahead and comes back
    (SIG_PQC, ["P(x) -> Q(x)", "exists x. P(x) & ~Q(x)"], "Q(c)", 3, {}, True),
    # each constant is its own factor: the reducts keep one of c and d
    (SIG_PQCD, ["P(c)", "Q(c) -> P(d)"], "P(d)", 2, {}, True),
    # a premise over P and = leaves out c; equality is its reduct's last factor
    (SIG_PCEQ, ["P(x) -> x = x", "P(c)"], "x = c -> P(x)", 2, {"equality_normal": False},
     True),
]


@pytest.mark.parametrize(
    "sig,gamma,phi,size,extra,found",
    CACHED_SEARCHES,
    ids=["%s|%s|%d" % (";".join(c[1]), c[2], i) for i, c in enumerate(CACHED_SEARCHES)],
)
def test_search_matches_per_structure_reference(sig, gamma, phi, size, extra, found):
    spec = SearchSpec(
        sig=sig,
        phi=parse_formula(phi, sig),
        gamma=tuple(parse_formula(g, sig) for g in gamma),
        max_domain_size=size,
        **extra,
    )
    calls = []
    res = find_countermodel(spec, progress=lambda k, t: calls.append(k), progress_every=7)
    expected, expected_calls = reference_search(spec, 7)
    assert summary(res) == expected
    assert calls == expected_calls
    assert res.found == found
    assert 0 < res.structures_evaluated <= res.structures_checked


# (signature, largest domain size) of the drawn queries
DRAWN_SIGS = [(SIG_PC, 3), (SIG_PQC, 2), (SIG_PR, 2)]


#: what may wrap an atom or a compound of a drawn formula
WRAPS = [Neg, Cons] + [functools.partial(q, v) for q in (Forall, Exists) for v in "xy"]


@st.composite
def formula_over(draw, sig, part):
    """A small formula over x, y and the predicates and constants in
    ``part`` that mentions each of them."""
    preds = [p for p in part if p in sig.predicates]
    terms = [Var("x"), Var("y")] + [Const(c) for c in part if c in sig.constants]

    def atom(p):
        return Pred(p, tuple(draw(st.sampled_from(terms)) for _ in range(sig.predicates[p])))

    def wrap(g):
        return draw(st.sampled_from(WRAPS))(g) if draw(st.booleans()) else g

    atoms = [atom(p) for p in preds + draw(st.lists(st.sampled_from(preds), max_size=1))]
    for c in terms[2:]:
        if not any(c in a.args for a in atoms):
            p = draw(st.sampled_from(preds))
            atoms.append(Pred(p, (c,) * sig.predicates[p]))
    f = None
    for a in draw(st.permutations(atoms)):
        f = wrap(a) if f is None else draw(st.sampled_from((And, Or, Imp)))(f, wrap(a))
    return wrap(f)


@st.composite
def drawn_queries(draw):
    """A search whose premises and target each mention a drawn part of the
    signature (at least one predicate), so that premise groups and the
    target leave out symbols in varying ways."""
    sig, size = draw(st.sampled_from(DRAWN_SIGS))

    def part():
        preds = draw(st.lists(st.sampled_from(sorted(sig.predicates)), min_size=1, unique=True))
        return preds + [c for c in sorted(sig.constants) if draw(st.booleans())]

    gamma = tuple(draw(formula_over(sig, part())) for _ in range(draw(st.integers(0, 4))))
    return SearchSpec(
        sig=sig,
        phi=draw(formula_over(sig, part())),
        gamma=gamma,
        max_domain_size=size,
        max_structures=draw(st.none() | st.integers(0, 120)),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_queries())
def test_search_matches_per_structure_reference_on_drawn_queries(spec):
    calls = []
    res = find_countermodel(spec, progress=lambda k, t: calls.append(k), progress_every=7)
    expected, expected_calls = reference_search(spec, 7)
    assert summary(res) == expected
    assert calls == expected_calls


def criterion_5_exhaustive(size):
    gamma = tuple(parse_formula(g, SIG_PQC) for g in ("P(c)", "~P(c)", "@P(c)"))
    spec = SearchSpec(
        sig=SIG_PQC, phi=parse_formula("Q(c)", SIG_PQC), gamma=gamma, max_domain_size=size
    )
    return find_countermodel(spec)


@pytest.mark.parametrize("size,evaluated,checked", [(3, 102, 2358), (4, 426, 28602)])
def test_search_evaluates_once_per_reduct(size, evaluated, checked):
    # the premises mention P and c only: 3^n * n reducts at size n
    res = criterion_5_exhaustive(size)
    assert res.exhausted and not res.found
    assert res.structures_checked == checked
    assert res.structures_evaluated == evaluated


@pytest.mark.parametrize("size,built", [(3, 102), (4, 426)])
def test_search_builds_only_the_reducts_it_evaluates(size, built, monkeypatch):
    # the premises mention P and c only and never hold together, so the only
    # structures built are the reducts to P and c, one per evaluation
    calls = []
    build = search._structure_at
    monkeypatch.setattr(
        search, "_structure_at", lambda *a, **k: calls.append(a) or build(*a, **k)
    )
    res = criterion_5_exhaustive(size)
    assert len(calls) == built == res.structures_evaluated


@pytest.mark.parametrize("size", [1, 2])
def test_reduct_walk_matches_structures_reduct(size):
    # structures.reduct is the oracle for a reduct built from factor positions
    sig = Signature(predicates={"P": 1, "Q": 1}, constants={"c"}, has_equality=True)
    groups, _ = search._group_by_signature(enumerate_formulas(sig, ("x",), 1))
    domain, factors = search._factors(sig, size, True)
    walk = list(itertools.product(*(range(len(v)) for _, _, v in factors)))
    assert [len(v) for _, _, v in factors] == search._factor_sizes(sig, size, True)
    assert len(groups) == 12  # the signatures of one atom and of two
    for used, _ in groups:
        positions, key = search._reduct_walk(used, factors)
        assert search._reduct_walk(used, structures._parts(sig))[0] == positions
        pairs = set()  # (key, reduct) of every structure
        for indices in walk:
            want = reduct(search._structure_at(sig, domain, factors, indices), used)
            got = search._structure_at(
                used, domain, [factors[p] for p in positions], [indices[p] for p in positions]
            )
            assert got == want
            pairs.add((key(indices), canonical(want)))
        # equal keys exactly when the reducts are equal
        assert len(pairs) == len({k for k, _ in pairs}) == len({r for _, r in pairs})
        assert len(pairs) == structure_count(used, size)


def test_the_reduct_walk_of_the_empty_signature_has_one_key():
    # two formulas that share no symbol have the empty signature in common
    sig = Signature(predicates={"P": 1}, constants={"c"})
    domain, factors = search._factors(sig, 2, True)
    positions, key = search._reduct_walk(Signature(), factors)
    assert positions == []
    keys = {key(indices) for indices in itertools.product(*(range(len(v)) for _, _, v in factors))}
    assert keys == {()}
    A = next(enumerate_structures(sig, 2))
    assert search._structure_at(Signature(), domain, [], []) == reduct(A, Signature())


def test_the_harness_builds_each_sizes_factors_once(monkeypatch):
    # the structures come from enumerate_structures; the index walk beside
    # them is counted from the factors' sizes, not from a second build
    calls = []
    factors = search._factors
    monkeypatch.setattr(search, "_factors", lambda *a: calls.append(a) or factors(*a))
    sig = Signature(predicates={"P": 1, "R": 2})
    report = soundness_harness(sig, max_size=2)
    assert report.structures_checked == structure_count(sig, 1) + structure_count(sig, 2)
    assert calls == [(sig, 1, True), (sig, 2, True)]


def test_search_builds_each_predicates_interpretations_once_per_size(monkeypatch):
    # the premise leaves out P and the target R: both reducts are built from
    # the full walk's factors, so all_triples runs once per predicate and size
    calls = []
    triples = search.all_triples
    monkeypatch.setattr(search, "all_triples", lambda c: calls.append(c) or triples(c))
    spec = SearchSpec(
        sig=SIG_PR,
        phi=parse_formula("P(x) | ~P(x)", SIG_PR),
        gamma=(parse_formula("R(x, y) | ~R(x, y)", SIG_PR),),
        max_domain_size=2,
    )
    res = find_countermodel(spec)
    assert res.exhausted
    assert res.structures_checked == structure_count(SIG_PR, 1) + structure_count(SIG_PR, 2)
    # P's carrier then R's, per size: 1 and 1 tuples, then 2 and 4
    assert [len(c) for c in calls] == [1, 1, 2, 4]


def test_symbols_are_cached_on_the_node():
    sig = dataclasses.replace(SIG_PFC, has_equality=True)
    f = parse_formula("P(f(c)) & forall x. x = x", sig)
    first = syntax.signature_of(f)
    assert first == sig
    assert syntax.signature_of(f) is first
    assert f == parse_formula("P(f(c)) & forall x. x = x", sig)  # the cache is not a field


def test_search_fails_loudly_on_a_wrong_symbol_set(monkeypatch):
    # a target decided on a reduct that lacks one of its symbols raises,
    # rather than reading back a verdict from a structure it does not fix
    signature_of = syntax.signature_of
    monkeypatch.setattr(
        syntax,
        "signature_of",
        lambda f: dataclasses.replace(signature_of(f), functions={}),
    )
    spec = SearchSpec(
        sig=SIG_PFC,
        phi=parse_formula("P(f(c))", SIG_PFC),
        gamma=(parse_formula("P(c)", SIG_PFC),),
    )
    with pytest.raises(ValueError, match="does not interpret f"):
        find_countermodel(spec)


def _over_a_wrong_carrier(monkeypatch):
    # every predicate's triples also cover a point outside domain^arity
    real = search.all_triples
    monkeypatch.setattr(search, "all_triples", lambda c: real(c + (("zz",) * len(c[0]),)))
    return SIG_P


def _with_a_partial_table(monkeypatch):
    # the last total map of each size loses its last key
    real = search._function_tables

    def tables(domain, arity):
        out = real(domain, arity)
        out[-1] = dict(list(out[-1].items())[:-1])
        return out

    monkeypatch.setattr(search, "_function_tables", tables)
    return SIG_PF


@pytest.mark.parametrize("malform", [_over_a_wrong_carrier, _with_a_partial_table])
def test_search_fails_loudly_on_a_malformed_factor(malform, monkeypatch):
    # the structures are assembled from the factors without a check of their
    # own, so the factors' check is what stands between a malformed
    # interpretation and a verdict.  Evaluation never reaches the extra point
    # or the missing key: without that check both calls return normally.
    sig = malform(monkeypatch)
    spec = SearchSpec(sig=sig, phi=parse_formula("P(x) | ~P(x)", sig), max_domain_size=2)
    with pytest.raises(ValueError, match="does not cover|not total"):
        find_countermodel(spec)
    with pytest.raises(ValueError, match="does not cover|not total"):
        list(enumerate_structures(sig, 2))


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize(
    "sig,equality_normal",
    [(SIG_P, True), (Signature({"R": 2}), True), (SIG_PF, True), (SIG_PQC, True),
     (SIG_PEQ, True), (SIG_PEQ, False)],
    ids=["P", "R", "Pf", "PQc", "P=normal", "P=any"],
)
def test_enumerated_structures_are_valid(sig, equality_normal, size):
    count = 0
    for A in enumerate_structures(sig, size, equality_normal):
        structures.validate_structure(A)
        count += 1
    assert count == structure_count(sig, size, equality_normal)


@pytest.mark.parametrize(
    "sig,phi,gamma",
    [
        (SIG_P, "P(x)", ()),  # every check over the whole signature
        (SIG_P, "(exists x. ~P(x)) -> ~(forall x. P(x))", ()),
        (SIG_PQC, "Q(c)", ("P(c)", "~P(c)")),  # the premises on reducts
        (SIG_PR, "R(x, y)", ("P(x)",)),  # the target on a reduct too
    ],
)
def test_reported_countermodels_are_built_by_make_structure(sig, phi, gamma, monkeypatch):
    built = []
    make = search.make_structure
    monkeypatch.setattr(
        search, "make_structure", lambda *a, **k: built.append(make(*a, **k)) or built[-1]
    )
    spec = SearchSpec(sig=sig, phi=parse_formula(phi, sig),
                      gamma=tuple(parse_formula(g, sig) for g in gamma))
    res = find_countermodel(spec)
    assert res.found and len(built) == 1 and res.structure is built[0]


@pytest.mark.parametrize("which", ["target", "premise"])
def test_search_refuses_a_formula_outside_its_signature(which):
    # only P/1 is in SIG_P.  As a premise after one that fails in every
    # structure, the formula would never be evaluated, and the search would
    # end exhausted with no error.
    wider = Signature({"P": 1, "Q": 1}, {"f": 1}, {"c"}, has_equality=True)
    outside = parse_formula("Q(x) | P(c) | f(x) = x", wider)
    never = parse_formula("!(P(x) | ~P(x))")
    phi, gamma = (outside, ()) if which == "target" else (parse_formula("P(x)"), (never, outside))
    with pytest.raises(ValueError, match=r"uses =, Q/1, c, f/1, outside the signature"):
        SearchSpec(sig=SIG_P, phi=phi, gamma=gamma)


def test_search_refuses_a_symbol_at_the_wrong_arity():
    with pytest.raises(ValueError, match="uses P/2,"):
        SearchSpec(sig=SIG_P, phi=parse_formula("P(x, y)"))


P_X = Pred("P", (Var("x"),))


@pytest.mark.parametrize(
    "phi,gamma,named",
    [
        (P_X, (FVar("A"),), "A has metavariable A"),  # its signature is empty
        (Imp(FVar("A"), P_X), (), "A -> P(x) has metavariable A"),
        (P_X, (P_X, Forall("x", And(P_X, FVar("B")))), "has metavariable B"),
    ],
)
def test_search_refuses_a_metavariable_and_names_it(phi, gamma, named):
    with pytest.raises(ValueError, match=re.escape(named + ": search needs concrete formulas")):
        SearchSpec(sig=SIG_P, phi=phi, gamma=gamma)


def test_search_evaluates_whole_signature_formulas_everywhere():
    # nothing is read back: every structure that is least in its class
    # under renaming (3 + 6 + 10 of P/1's) is evaluated, the rest skipped
    phi = parse_formula("(forall x. P(x)) -> P(y)")
    res = find_countermodel(SearchSpec(sig=SIG_P, phi=phi, max_domain_size=3))
    assert res.exhausted
    assert res.structures_checked == 3 + 9 + 27
    assert res.structures_evaluated == 3 + 6 + 10
    assert res.structures_skipped == 0 + 3 + 17


# ---------------------------------------------------------------------------
# Renamings: the search decides one structure per isomorphism class

SIG_R = Signature(predicates={"R": 2})


def renamed(A, image: dict):
    """A's image under the renaming ``image`` of its domain, built directly:
    each predicate's classes, each function's arguments and values, each
    constant."""

    def carry(cells):
        return {tuple(image[e] for e in cell) for cell in cells}

    return structures.Structure(
        A.sig,
        A.domain,
        {p: triples.make_triple(carry(t.plus), carry(t.minus), carry(t.dot))
         for p, t in A.preds.items()},
        {f: {tuple(image[e] for e in args): image[v] for args, v in table.items()}
         for f, table in A.funs.items()},
        {c: image[v] for c, v in A.consts.items()},
    )


def renamings(domain) -> list:
    """Every renaming of ``domain`` but the identity, in the order of
    ``itertools.permutations``."""
    return [dict(zip(domain, p)) for p in itertools.permutations(domain)][1:]


def indexed_structures(sig, n, equality_normal):
    """(structure, its index tuple) in enumeration order."""
    sizes = search._factor_sizes(sig, n, equality_normal)
    return list(zip(enumerate_structures(sig, n, equality_normal),
                    itertools.product(*map(range, sizes))))


def isomorphism_classes(sig, n, equality_normal) -> int:
    """How many classes the structures of size n fall into under renaming."""
    images = renamings(search._domain(n))
    return len({frozenset([canonical(A)] + [canonical(renamed(A, m)) for m in images])
                for A in enumerate_structures(sig, n, equality_normal)})


@pytest.mark.parametrize(
    "sig,n,equality_normal,stride",
    [
        (SIG_P, 3, True, 1),
        (SIG_R, 2, True, 1),
        (SIG_R, 3, True, 41),  # every 41st of 19,683 structures
        (Signature(functions={"f": 1}), 3, True, 1),
        (Signature(functions={"g": 2}), 2, True, 1),
        (Signature(constants={"c"}), 3, True, 1),
        (Signature(has_equality=True), 3, True, 1),
        (Signature(has_equality=True), 2, False, 1),
        (SIG_PFC, 3, True, 1),
        (SIG_PCEQ, 2, False, 1),
    ],
    ids=["P1", "R2", "R2-size-3", "f1", "g2", "c", "eq-normal", "eq-free", "P1+f1+c",
         "P1+c+eq-free"],
)
def test_image_tables_give_every_directly_renamed_interpretation(sig, n, equality_normal,
                                                                 stride):
    # the tables come from digit arithmetic; the oracle renames each
    # structure and looks its index tuple up
    pairs = indexed_structures(sig, n, equality_normal)
    index_of = {canonical(A): indices for A, indices in pairs}
    tables = search._image_tables(sig, n, equality_normal)
    images = renamings(pairs[0][0].domain)
    assert len(tables) == len(images) == math.factorial(n) - 1
    for image, per_factor in zip(images, tables):
        assert [len(t) for t in per_factor] == search._factor_sizes(sig, n, equality_normal)
        for A, indices in pairs[::stride]:  # at stride 1 every index of every factor occurs
            got = tuple(t[i] for t, i in zip(per_factor, indices))
            assert got == index_of[canonical(renamed(A, image))]


def _count_table_builds(monkeypatch) -> list:
    search._least_test.cache_clear()
    calls = []
    build = search._image_tables
    monkeypatch.setattr(search, "_image_tables", lambda *a: calls.append(a) or build(*a))
    return calls


def test_image_tables_are_built_once_per_key(monkeypatch):
    calls = _count_table_builds(monkeypatch)
    for text in ("(forall x. P(x)) -> P(y)", "P(x) | ~P(x)", "(forall x. P(x)) -> P(y)"):
        find_countermodel(SearchSpec(sig=SIG_P, phi=parse_formula(text), max_domain_size=3))
    phi = parse_formula("(x = x) -> (P(x) | ~P(x))")
    for normal in (False, True):
        res = find_countermodel(SearchSpec(sig=SIG_PEQ, phi=phi, max_domain_size=2,
                                           equality_normal=normal))
        assert res.exhausted
    # none for size 1, which has no renaming
    assert calls == [(SIG_P, 2, True), (SIG_P, 3, True), (SIG_PEQ, 2, False), (SIG_PEQ, 2, True)]


def test_a_reduct_only_search_builds_no_tables(monkeypatch):
    calls = _count_table_builds(monkeypatch)
    res = criterion_5_exhaustive(4)
    assert res.structures_skipped == 0 and calls == []


def test_no_tables_past_the_entry_cap(monkeypatch):
    # P/1 at size 6 would take 719 tables of 729 entries: every structure
    # of that size is evaluated instead
    calls = _count_table_builds(monkeypatch)
    phi = parse_formula("(forall x. P(x)) -> P(y)")
    res = find_countermodel(SearchSpec(sig=SIG_P, phi=phi, max_domain_size=6))
    assert calls == [(SIG_P, n, True) for n in (2, 3, 4, 5)]
    assert res.exhausted and res.structures_checked == 3 + 9 + 27 + 81 + 243 + 729
    assert res.structures_evaluated == 3 + 6 + 10 + 15 + 21 + 729
    # nor for R/2 at size 4 (23 tables of 3^16 entries)
    monkeypatch.setattr(search, "_image_tables", lambda *a: pytest.fail("built %s" % (a,)))
    assert search._least_test(SIG_R, 4, True)((3**16 - 1,))


# (signature, premises, target, max size, extra spec fields): every premise
# and the target mention the whole signature, but in the last two
ISOMORPHISM_SEARCHES = [
    (SIG_PC, [], "P(c) -> P(x)", 3, {}),
    (SIG_PC, ["exists x. P(x) & ~P(c)"], "P(c) | ~P(c)", 3, {}),
    (SIG_PF, ["(P(x) & P(y)) | (P(f(f(x))) -> P(y))"], "P(f(y)) -> P(y)", 3, {}),
    (SIG_PF, ["forall x. P(x) -> P(f(x))"], "P(x) -> P(f(f(x)))", 3, {}),
    (SIG_PF, [], "(forall x. P(x)) -> P(f(y))", 3, {"max_structures": 500}),
    # found at size 3, after 7,703 structures
    (SIG_R, ["forall x. ~R(x, x)", "forall x. exists y. R(x, y)"],
     "exists x. exists y. R(x, y) & R(y, x)", 3, {}),
    (SIG_R, ["forall x. ~R(x, x) & ~@R(x, x)", "forall x. exists y. R(x, y) & @R(x, y)"],
     "exists x. exists y. R(x, y) & R(y, x)", 2, {}),
    (SIG_PEQ, [], "x = y -> (P(x) -> P(y))", 2, {"equality_normal": False}),
    (SIG_PEQ, ["~(y = x) | ~P(y)"], "~(y = x) | P(y) | x = y", 2, {"equality_normal": False}),
    (SIG_PEQ, [], "(x = x) -> (P(x) | ~P(x))", 2, {"equality_normal": False}),
    # premises over P alone, or over P and c, are read back; the target
    # reads the whole structure
    (SIG_PC, ["exists x. ~P(x)", "exists x. P(x) & ~P(x)", "exists x. P(x) & @P(x)"],
     "P(c) -> P(x)", 3, {}),
    (SIG_PQC, ["P(c)"], "Q(x) -> Q(c) | ~P(x)", 2, {}),
]


@pytest.mark.parametrize(
    "sig,gamma,phi,size,extra",
    ISOMORPHISM_SEARCHES,
    ids=["%s|%s|%d" % (";".join(c[1]), c[2], i) for i, c in enumerate(ISOMORPHISM_SEARCHES)],
)
def test_search_skipping_isomorphic_structures_matches_the_reference(sig, gamma, phi, size,
                                                                    extra):
    spec = SearchSpec(
        sig=sig,
        phi=parse_formula(phi, sig),
        gamma=tuple(parse_formula(g, sig) for g in gamma),
        max_domain_size=size,
        **extra,
    )
    calls = []
    res = find_countermodel(spec, progress=lambda k, t: calls.append(k), progress_every=7)
    expected, expected_calls = reference_search(spec, 7)
    assert summary(res) == expected
    assert calls == expected_calls
    assert res.structures_skipped > 0
    whole = all(syntax.signature_of(f) == sig for f in (spec.phi, *spec.gamma))
    # checked = evaluated + read back + skipped, and nothing is read back
    # where every check reads the whole structure
    read_back = res.structures_checked - res.structures_evaluated - res.structures_skipped
    assert read_back == 0 if whole else read_back > 0
    if whole and res.exhausted:
        # one structure evaluated per class
        normal = spec.equality_normal
        assert res.structures_evaluated == sum(
            isomorphism_classes(sig, n, normal) for n in range(1, size + 1)
        )


def test_search_decides_p1_r2_to_size_3_once_per_class():
    phi = parse_formula("(forall x. exists y. R(x, y) & P(y)) -> (exists y. P(y))")
    res = find_countermodel(SearchSpec(sig=SIG_PR, phi=phi, max_domain_size=3))
    assert res.exhausted
    assert res.structures_checked == 532179 == sum(structure_count(SIG_PR, n) for n in (1, 2, 3))
    assert res.structures_evaluated == 90081  # 9 + 378 + 89,694 classes
    assert res.structures_skipped == 532179 - 90081


# ---------------------------------------------------------------------------
# Soundness harness


def test_harness_clean_on_small_signature():
    report = soundness_harness(SIG_P, max_size=2)
    assert isinstance(report, HarnessReport)
    assert report.ok
    assert report.structures_checked == 12
    assert report.axiom_checks > 0
    assert report.rule_checks > 0


def test_harness_clean_with_equality():
    report = soundness_harness(SIG_PEQ, max_size=1)
    assert report.ok
    assert report.structures_checked == 6


def test_the_default_schema_pool_is_every_axiom_the_checker_knows():
    # the default pool checks as much as every name of hilbert.AXIOMS, and
    # each of those names adds checks of its own
    def checks(pool):
        return soundness_harness(SIG_PEQ, pool, instance_depth=0, max_size=1).axiom_checks

    every = list(hilbert.AXIOMS)
    assert checks(None) == checks(every)
    for name in every:
        assert checks([a for a in every if a != name]) < checks(every), name


def test_the_harness_reports_the_checker_rule_names():
    names = {"MP"} | {rule.name for rule in hilbert.INTRODUCTIONS.values()}
    assert names == {"MP", "forall-in", "exists-in"}
    for matrix in (mutated_implication((HALF, ZERO), HALF), mutated_implication((ONE, ZERO), ONE)):
        report = soundness_harness(SIG_P, axiom_pool=[], max_size=2, matrix=matrix)
        reported = {v.name for v in report.violations}
        assert reported and reported <= names


def test_harness_restricted_pool():
    report = soundness_harness(SIG_P, axiom_pool=["Ax1"], max_size=1)
    assert report.ok
    with pytest.raises(ValueError):
        soundness_harness(SIG_P, axiom_pool=["nonsense"], max_size=1)


def test_harness_flags_mutated_conjunction():
    mutated = Matrix(
        "mutated-conjunction",
        unary=dict(CIORE.unary),
        binary={**CIORE.binary, "&": LFI1.binary["&"]},
    )
    report = soundness_harness(SIG_P, max_size=2, matrix=mutated)
    assert not report.ok
    assert {v.name for v in report.violations} == {"co1"}
    assert all(v.kind == "axiom" for v in report.violations)
    # each reported witness really does evaluate to the non-designated value
    for v in report.violations:
        value = eval_formula(v.formula, v.structure, v.assignment, None, mutated)
        assert value not in DESIGNATED


def pointwise_rule_violations(sig, variables, depth, max_size, matrix):
    """The rule phase pair by pair: every premise and conclusion over the
    pool evaluated on its own, without a memo."""
    pool = list(enumerate_formulas(sig, variables, depth))
    frame = tuple(sorted(variables))
    out = []
    checks = 0
    for n in range(1, max_size + 1):
        for A in enumerate_structures(sig, n):
            space = list(assignments_over(A, frame))

            def failure(f):
                for s in space:
                    if eval_formula(f, A, s, None, matrix) == ZERO:
                        return s
                return None

            for a in pool:
                for b in pool:
                    checks += 1
                    if failure(a) is None and failure(Imp(a, b)) is None:
                        if failure(b) is not None:
                            out.append(("rule", "MP", b, A, failure(b)))
            for name, closed_side, conclude in (
                ("forall-in", 0, lambda a, b, x: Imp(a, Forall(x, b))),
                ("exists-in", 1, lambda a, b, x: Imp(Exists(x, a), b)),
            ):
                for a in pool:
                    for b in pool:
                        for x in variables:
                            if possibly_free(x, (a, b)[closed_side]):
                                continue
                            checks += 1
                            concl = conclude(a, b, x)
                            if failure(Imp(a, b)) is None and failure(concl) is not None:
                                out.append(("rule", name, concl, A, failure(concl)))
    return out, checks


def mutated_implication(cell, value):
    table = {**CIORE.binary["->"], cell: value}
    return Matrix("mutated-implication", dict(CIORE.unary), {**CIORE.binary, "->": table})


@pytest.mark.parametrize(
    "cell,value,broken",
    [((ONE, ZERO), ONE, {"MP"}), ((HALF, ZERO), HALF, {"MP", "exists-in"})],
    ids=["1-0:1", "h-0:h"],
)
@pytest.mark.parametrize(
    "sig,variables,depth",
    [(SIG_P, ("x",), 1), (SIG_PC, ("x", "y"), 0), (SIG_P, ("x", "y"), 1)],
    ids=["P-x-d1", "Pc-xy-d0", "P-xy-d1"],
)
def test_rule_phase_matches_pointwise_reference(cell, value, broken, sig, variables, depth):
    matrix = mutated_implication(cell, value)
    report = soundness_harness(
        sig, axiom_pool=[], instance_depth=depth, max_size=2,
        variables=variables, matrix=matrix,
    )
    got = [(v.kind, v.name, v.formula, v.structure, v.assignment) for v in report.violations]
    expected, checks = pointwise_rule_violations(sig, variables, depth, 2, matrix)
    assert {v.name for v in report.violations} == broken
    assert got == expected
    assert report.rule_checks == checks


def test_forall_in_violations_match_pointwise_reference(monkeypatch):
    # under CIORE no table makes a -> forall x. b fail where a -> b holds
    # (a closed in x), so the forall-in emission path is reached only under
    # a changed quantifier rule: forall is 1 when every variant is 1, else
    # 0, in the mask kernel and in the pointwise oracle alike
    step = triples._fibre_step

    def classical_step(forall, plus, minus, n, stride, base, spread):
        if not forall:
            return step(forall, plus, minus, n, stride, base, spread)
        every = plus
        for d in range(stride, n * stride, stride):
            every &= plus >> d
        return (every & base) * spread, (base & ~every) * spread

    monkeypatch.setattr(triples, "_fibre_step", classical_step)
    monkeypatch.setitem(
        structures._HANDLERS,
        Forall,
        structures._quantifier_handler(lambda values: ONE if values == {ONE} else ZERO),
    )
    for sig, found in ((SIG_P, 24), (SIG_PC, 836)):
        report = soundness_harness(sig, axiom_pool=[], instance_depth=1, max_size=2)
        got = [(v.kind, v.name, v.formula, v.structure, v.assignment) for v in report.violations]
        expected, checks = pointwise_rule_violations(sig, ("x",), 1, 2, CIORE)
        assert got == expected
        assert report.rule_checks == checks
        assert sum(v.name == "forall-in" for v in report.violations) == found


def test_harness_rejects_repeated_variables():
    # ("x", "x") would double the pool and build assignments like {x=e1, x=e2}
    with pytest.raises(ValueError, match="repeat"):
        soundness_harness(SIG_P, instance_depth=0, max_size=1, variables=("x", "x"))


@pytest.mark.parametrize("max_size", [0, -1])
def test_harness_rejects_a_size_bound_below_1(max_size):
    # there is no structure of size 0: the report would be ok after none
    with pytest.raises(ValueError, match="max_size"):
        soundness_harness(SIG_P, instance_depth=0, max_size=max_size)


def test_harness_spare_variable_avoids_every_given_name():
    variables = ("y", "z", "w", "u", "x0")
    report = soundness_harness(SIG_P, instance_depth=0, max_size=1, variables=variables)
    assert report.ok
    assert report.structures_checked == 3


def test_harness_reuses_axiom_verdicts_across_structures():
    report = soundness_harness(SIG_PR, instance_depth=0, max_size=2)
    assert report.ok and report.structures_checked == 738
    assert 0 < report.axiom_evaluations < report.axiom_checks


def reference_axiom_violations(sig, depth, max_size, matrix):
    """The axiom phase structure by structure on the frame (x): every
    instance evaluated in every structure, no verdict carried over."""
    variables = ("x",)
    pool = list(enumerate_formulas(sig, variables, depth))
    terms = [Var("x"), Var("y")] + [Const(c) for c in sorted(sig.constants)]
    fixed = [inst for phi in pool for x in variables for inst in _quantifier_axioms(phi, x, terms)]
    if sig.has_equality:
        fixed += _equality_axiom_instances(pool, variables, "y")
    out = []
    checks = structures = 0
    for n in range(1, max_size + 1):
        for A in enumerate_structures(sig, n):
            structures += 1
            space = list(assignments_over(A, variables))

            def vector(f):
                return tuple(eval_formula(f, A, s, None, matrix) for s in space)

            reps = {}
            for f in pool:
                reps.setdefault(vector(f), f)
            for name, pattern in PROP_AXIOMS.items():
                mvars = schema_metavariables(pattern)
                for combo in itertools.product(reps.values(), repeat=len(mvars)):
                    inst = instantiate(pattern, dict(zip(mvars, combo)))
                    checks += 1
                    values = vector(inst)
                    if ZERO in values:
                        s = space[values.index(ZERO)]
                        out.append(("axiom", name, inst, A, s))
            for name, inst in fixed:
                checks += 1
                ok, witness = is_valid_in(inst, A, matrix)
                if not ok:
                    out.append(("axiom", name, inst, A, witness))
    return out, checks, structures


def test_harness_keeps_reduct_verdicts_apart_by_size_and_factor():
    # P/1, f/1, c and =: a reduct index names a reduct only within one
    # domain size, and only with a stride for every factor of the reduct
    sig = Signature(
        predicates={"P": 1}, functions={"f": 1}, constants={"c"}, has_equality=True
    )
    matrix = mutated_implication((HALF, ONE), ZERO)
    report = soundness_harness(sig, instance_depth=0, max_size=2, matrix=matrix)
    got = [
        (v.kind, v.name, v.formula, v.structure, v.assignment)
        for v in report.violations
        if v.kind == "axiom"
    ]
    expected, checks, structures = reference_axiom_violations(sig, 0, 2, matrix)
    assert report.structures_checked == structures == 294
    assert got == expected
    assert report.axiom_checks == checks
    assert report.axiom_evaluations < checks  # verdicts were read back


def mutated_consistency(cell, value):
    table = {**CIORE.unary["@"], cell: value}
    return Matrix(
        "mutated-consistency", {**CIORE.unary, "@": table}, dict(CIORE.binary)
    )


@pytest.mark.parametrize(
    "matrix",
    [
        CIORE,
        mutated_implication((HALF, ONE), ZERO),
        # vectors of sizes 1 and 2 with equal masks must stay apart here
        mutated_implication((ONE, HALF), ZERO),
        mutated_consistency(ZERO, ZERO),
    ],
    ids=["ciore", "h-1:0", "1-h:0", "@0:0"],
)
def test_axiom_phase_matches_per_structure_reference(matrix):
    found = set()
    for sig, depth in ((SIG_PC, 1), (SIG_PF, 0), (SIG_PEQ, 0)):
        report = soundness_harness(sig, instance_depth=depth, max_size=2, matrix=matrix)
        got = [
            (v.kind, v.name, v.formula, v.structure, v.assignment)
            for v in report.violations
            if v.kind == "axiom"
        ]
        expected, checks, structures = reference_axiom_violations(
            sig, depth, 2, matrix
        )
        assert got == expected
        assert report.axiom_checks == checks
        assert report.structures_checked == structures
        assert report.axiom_evaluations <= checks
        found |= {v[1] for v in expected}
    if matrix is CIORE:
        assert not found
    else:
        # the reference itself sees propositional and quantifier violations,
        # and under the mutated implication equality violations too
        assert found & set(PROP_AXIOMS)
        assert found & set(QUANT_AXIOM_IDS)
        has_eq = bool(found & set(EQ_AXIOM_IDS))
        assert has_eq == (matrix.name == "mutated-implication")


@pytest.mark.parametrize(
    "matrix,broken",
    [
        (CIORE, set()),
        (mutated_implication((HALF, ZERO), HALF), {"Ax2", "co3", "MP", "exists-in"}),
        (mutated_implication((ONE, HALF), ZERO), {"Ax1", "ci", "Ax12", "exists-in"}),
    ],
    ids=["ciore", "h-0:h", "1-h:0"],
)
def test_harness_report_matches_both_references(matrix, broken):
    # the truth-table check, the class-level rule checks and the fixed
    # instances decided once each, in one call, against the references that
    # decide every instance and every pool pair structure by structure
    tautologies = {name for name, p in PROP_AXIOMS.items() if search._tautology(p, matrix)}
    found = set()
    for sig, depth in ((SIG_PC, 1), (SIG_P, 1)):
        report = soundness_harness(sig, instance_depth=depth, max_size=2, matrix=matrix)
        got = [(v.kind, v.name, v.formula, v.structure, v.assignment) for v in report.violations]
        axioms, axiom_checks, structures = reference_axiom_violations(sig, depth, 2, matrix)
        rules, rule_checks = pointwise_rule_violations(sig, ("x",), depth, 2, matrix)
        assert [v for v in got if v[0] == "axiom"] == axioms
        assert [v for v in got if v[0] == "rule"] == rules
        assert report.structures_checked == structures
        assert (report.axiom_checks, report.rule_checks) == (axiom_checks, rule_checks)
        found |= {v[1] for v in got}
    assert broken <= found
    if matrix is CIORE:
        assert tautologies == set(PROP_AXIOMS) and not found
    else:
        # both the truth-table path and the table path ran
        assert tautologies and tautologies != set(PROP_AXIOMS)
        assert found & set(PROP_AXIOMS) <= set(PROP_AXIOMS) - tautologies


@pytest.mark.parametrize(
    "sig,axiom_pool",
    [(SIG_P, []), (SIG_PC, ["Ax11", "Ax12"]), (SIG_PEQ, ["Eq1", "Eq2"])],
    ids=["none", "Ax11-Ax12", "Eq1-Eq2"],
)
def test_harness_counts_each_pointwise_evaluation(monkeypatch, sig, axiom_pool):
    # under CIORE nothing fails, so every is_valid_in call decides an
    # instance that axiom_evaluations counts, and no other call is made
    calls = []

    def counted(f, A, matrix):
        calls.append(f)
        return structures.is_valid_in(f, A, matrix)

    monkeypatch.setattr(search, "is_valid_in", counted)
    report = soundness_harness(sig, axiom_pool=axiom_pool, instance_depth=0, max_size=2)
    assert report.ok
    assert report.axiom_evaluations == len(calls)
    assert bool(calls) == bool(axiom_pool)


def test_harness_counts_table_entries_and_distinct_fixed_instances():
    # under CIORE every propositional schema is a tautology: no table entry
    report = soundness_harness(SIG_P, axiom_pool=list(PROP_AXIOMS), max_size=2)
    assert report.axiom_checks > 0 and report.axiom_evaluations == 0
    # each distinct Ax11/Ax12 instance once per domain size and reduct to the
    # symbols it mentions; (forall x. P(c)) -> P(c) repeats for every term
    variables = ("x", "y")
    pool = list(enumerate_formulas(SIG_PC, variables, 0))
    terms = [Var("x"), Var("y"), Var("z"), Const("c")]
    instances = [
        f
        for phi in pool
        for x in variables
        for name, f in _quantifier_axioms(phi, x, terms)
        if name in ("Ax11", "Ax12")
    ]
    distinct = set(instances)
    assert len(distinct) < len(instances)
    expected = 0
    for f in distinct:
        reduct = syntax.signature_of(f)
        expected += structure_count(reduct, 1) + structure_count(reduct, 2)
    report = soundness_harness(
        SIG_PC, axiom_pool=["Ax11", "Ax12"], instance_depth=0, max_size=2,
        variables=variables,
    )
    assert report.ok
    assert report.axiom_evaluations == expected
    assert report.axiom_checks == len(instances) * report.structures_checked


@pytest.mark.parametrize("axioms", [["Ax1", "Ax1"], ["Ax11", "Ax11"], ["Eq1", "Ax2", "Eq1"]])
def test_harness_rejects_a_repeated_schema(axioms):
    # a repeated propositional schema would be checked twice, a repeated
    # fixed one once: neither count says what was asked
    with pytest.raises(ValueError, match="repeat"):
        soundness_harness(SIG_PEQ, axiom_pool=axioms, instance_depth=0, max_size=1)


def test_harness_rejects_an_empty_pool():
    # P/1 has no constant: with no variable there is no atom, and the report
    # would be ok after no check at all
    with pytest.raises(ValueError, match="pool is empty"):
        soundness_harness(SIG_P, instance_depth=0, max_size=1, variables=())


def test_harness_checks_a_constants_only_pool():
    report = soundness_harness(SIG_PC, instance_depth=1, max_size=2, variables=())
    assert report.ok
    assert report.structures_checked == 3 + 9 * 2
    assert report.axiom_checks > 0 and report.rule_checks > 0
