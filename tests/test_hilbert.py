"""Proof checking: schema matching, rules, lemma citation, fixtures."""

import itertools
import pathlib
import random

import pytest

from qciore import search
from qciore.cli import FileFormatError, parse_proof
from qciore.hilbert import (
    AXIOMS,
    AxiomRef,
    ExistsIn,
    ForallIn,
    HypRef,
    LemmaRef,
    LemmaStore,
    MP,
    Proof,
    Step,
    Verdict,
    check_proof,
    check_proof_sequence,
    consistency_axioms,
    eq1_axiom,
    eq2_axiom,
    instantiate,
    match_pattern,
    possibly_free,
    schema_metavariables,
    term_axioms,
)
from qciore.matrix3 import PROP_AXIOMS
from qciore.structures import is_valid_in
from qciore.syntax import (
    And,
    CaptureError,
    Cons,
    Const,
    EQ,
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
    free_vars,
    is_free_for,
    map_atoms,
    parse_formula,
    substitute,
    substitute_term,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SIG = Signature(predicates={"P": 1, "Q": 1, "R": 2}, functions={}, constants=set())
SIG_EQ = Signature(predicates={"P": 1}, functions={}, constants=set(), has_equality=True)

GOOD_FIXTURES = [
    ("imp_refl.proof", 5),
    ("imp_trans.proof", 15),
    ("sneg_exists_all.proof", 3),
    ("generalization.proof", 6),
    ("exists_contra_spreads.proof", 11),
    ("forall_contra_spreads.proof", 11),
]

MUTANT_FIXTURES = [
    ("generalization_mut_sidecond.proof", 4),
    ("generalization_mut_mp.proof", 3),
    ("generalization_mut_ax.proof", 2),
    ("generalization_mut_hyp.proof", 1),
    ("exists_contra_mut_ax12.proof", 7),
    ("exists_contra_mut_trans.proof", 4),
    ("forall_contra_mut_lemma.proof", 5),
]


def load(name):
    return parse_proof((FIXTURES / name).read_text())


def checked_store():
    proofs = [load(name) for name, _ in GOOD_FIXTURES]
    verdicts, store = check_proof_sequence(proofs, SIG)
    assert all(v.accepted for v in verdicts), verdicts
    return store


# ---------------------------------------------------------------------------
# possibly_free and pattern matching


def test_possibly_free_on_metavariables():
    a = FVar("A")
    assert possibly_free("x", a)
    assert not possibly_free("x", Forall("x", a))
    assert possibly_free("x", Forall("y", a))
    assert possibly_free("x", Imp(Forall("x", a), a))


def test_possibly_free_is_freeness_on_concrete_formulas():
    f = parse_formula("forall x. P(x) & Q(y)", SIG)
    assert not possibly_free("x", f)
    assert possibly_free("y", f)
    assert not possibly_free("z", f)


def test_possibly_free_refuses_a_term_in_formula_position():
    for f in (Neg(Var("x")), Imp(Pred("P", (Var("y"),)), Var("x"))):
        with pytest.raises(TypeError, match="not a formula: Var"):
            possibly_free("x", f)


def test_match_pattern_binds_consistently():
    pattern = Imp(FVar("a"), FVar("a"))
    good = parse_formula("P(x) -> P(x)", SIG)
    bad = parse_formula("P(x) -> Q(x)", SIG)
    env = match_pattern(pattern, good)
    assert env == {"a": parse_formula("P(x)", SIG)}
    assert match_pattern(pattern, bad) is None


def test_match_pattern_quantifier_variable_is_literal():
    pattern = Forall("x", FVar("a"))
    assert match_pattern(pattern, parse_formula("forall x. P(x)", SIG))
    assert match_pattern(pattern, parse_formula("forall y. P(y)", SIG)) is None


def test_pattern_walks_need_no_recursion():
    # 5,000 nested "forall y. ~", far past the interpreter's recursion limit
    pattern, target = FVar("A"), parse_formula("P(x)", SIG)
    for _ in range(5000):
        pattern, target = Forall("y", Neg(pattern)), Forall("y", Neg(target))
    assert match_pattern(pattern, target) == {"A": parse_formula("P(x)", SIG)}
    assert possibly_free("x", pattern) and possibly_free("x", target)
    assert not possibly_free("y", pattern) and not possibly_free("y", target)


# ---------------------------------------------------------------------------
# Axiom schema matching


def test_prop_axiom_instances():
    ax1 = AXIOMS["Ax1"]
    assert ax1(parse_formula("P(x) -> (Q(y) -> P(x))", SIG))
    assert ax1(parse_formula("P(x) -> (Q(y) -> P(y))", SIG)) is None


def test_ax11_instance_with_proper_term():
    f = parse_formula("P(y) -> (exists x. P(x))", SIG)
    env = AXIOMS["Ax11"](f)
    assert env["t"] == Var("y")
    assert env["x"] == "x"


def test_ax11_identity_instance():
    f = parse_formula("P(x) -> (exists x. P(x))", SIG)
    env = AXIOMS["Ax11"](f)
    assert env["t"] == Var("x")


def test_ax11_rejects_capture():
    # the instance would need t = y, but y is captured inside the body
    body = Exists("y", Pred("R", (Var("x"), Var("y"))))
    inst = Exists("y", Pred("R", (Var("y"), Var("y"))))
    f = Imp(inst, Exists("x", body))
    assert AXIOMS["Ax11"](f) is None


def test_ax11_rejects_mixed_terms():
    # two free occurrences of x replaced by two different terms
    body = Pred("R", (Var("x"), Var("x")))
    inst = Pred("R", (Var("y"), Var("z")))
    f = Imp(inst, Exists("x", body))
    assert AXIOMS["Ax11"](f) is None


def test_ax12_instance_with_constant():
    sig = Signature(predicates={"P": 1}, functions={}, constants={"c"})
    f = parse_formula("(forall x. P(x)) -> P(c)", sig)
    env = AXIOMS["Ax12"](f)
    assert env["t"] == Const("c")


def test_ax12_rejects_non_instance():
    f = parse_formula("(forall x. P(x)) -> Q(y)", SIG)
    assert AXIOMS["Ax12"](f) is None


def test_consistency_quantifier_axioms():
    cases = {
        "Ax13": "@(exists x. P(x)) -> (exists x. @P(x))",
        "Ax14": "@(forall x. P(x)) -> (exists x. @P(x))",
        "Ax15": "(exists x. @P(x)) -> @(exists x. P(x))",
        "Ax16": "(exists x. @P(x)) -> @(forall x. P(x))",
    }
    for axiom_id, text in cases.items():
        f = parse_formula(text, SIG)
        assert AXIOMS[axiom_id](f), axiom_id
        for other_id in cases:
            if other_id != axiom_id:
                assert AXIOMS[other_id](f) is None, (axiom_id, other_id)


def test_consistency_axioms_need_matching_bodies():
    f = parse_formula("@(exists x. P(x)) -> (exists x. @Q(x))", SIG)
    assert AXIOMS["Ax13"](f) is None


def test_eq1_matching():
    assert AXIOMS["Eq1"](parse_formula("forall x. x = x", SIG_EQ))
    assert AXIOMS["Eq1"](parse_formula("forall x. x = y", SIG_EQ)) is None


def test_eq2_replaces_some_occurrences():
    sig = Signature(predicates={"R": 2}, functions={}, constants=set(), has_equality=True)
    full = parse_formula("forall x. forall y. (x = y -> (R(x,x) -> R(x,y)))", sig)
    none = parse_formula("forall x. forall y. (x = y -> (R(x,x) -> R(x,x)))", sig)
    wrong = parse_formula("forall x. forall y. (x = y -> (R(x,x) -> R(y,z)))", sig)
    assert AXIOMS["Eq2"](full)
    assert AXIOMS["Eq2"](none)
    assert AXIOMS["Eq2"](wrong) is None


def test_eq2_rejects_capture():
    # replacing x by y under a quantifier on y would capture it
    phi = Exists("y", Pred("R", (Var("x"), Var("y"))))
    phi2 = Exists("y", Pred("R", (Var("y"), Var("y"))))
    f = Forall("x", Forall("y", Imp(Pred(EQ, (Var("x"), Var("y"))), Imp(phi, phi2))))
    assert AXIOMS["Eq2"](f) is None


# ---------------------------------------------------------------------------
# Step checking on handmade proofs


def test_hypothesis_and_mp():
    p_c = parse_formula("P(x)", SIG)
    q_c = parse_formula("Q(x)", SIG)
    proof = Proof(
        name="mp-demo",
        hypotheses=(p_c, Imp(p_c, q_c)),
        steps=(
            Step(p_c, HypRef(1)),
            Step(Imp(p_c, q_c), HypRef(2)),
            Step(q_c, MP(1, 2)),
        ),
    )
    assert check_proof(proof, SIG).accepted


def test_mp_requires_earlier_steps():
    p_c = parse_formula("P(x)", SIG)
    proof = Proof(
        name="forward-ref",
        hypotheses=(p_c,),
        steps=(Step(p_c, MP(1, 2)), Step(p_c, HypRef(1))),
    )
    v = check_proof(proof, SIG)
    assert not v.accepted and v.failed_step == 1


def test_empty_proof_rejected():
    v = check_proof(Proof(name="empty"), SIG)
    assert not v.accepted


@pytest.mark.parametrize(
    "axiom,formula,reason",
    [
        ("Ax99", "P(x)", "unknown axiom 'Ax99'"),
        ("Eq1", "forall x. P(x)", "axiom Eq1 needs an equality signature"),
        ("Ax12", "(forall x. P(x)) -> Q(y)", "not an instance of Ax12"),
    ],
    ids=["unknown", "no-equality", "not-an-instance"],
)
def test_each_refusal_of_an_axiom_step_names_its_reason(axiom, formula, reason):
    proof = Proof(name="ax", steps=(Step(parse_formula(formula, SIG), AxiomRef(axiom)),))
    assert check_proof(proof, SIG) == Verdict(False, 1, reason)


def test_axioms_table_names_every_axiom_once_in_order():
    assert list(AXIOMS) == [*PROP_AXIOMS, *search.QUANT_AXIOM_IDS, *search.EQ_AXIOM_IDS]
    assert len(AXIOMS) == 28 and all(callable(match) for match in AXIOMS.values())


@pytest.mark.parametrize("f", [Pred("P", (Var("x"),)), FVar("A")], ids=["atom", "metavariable"])
def test_no_axiom_matches_an_atom_or_a_metavariable(f):
    assert {name: match(f) for name, match in AXIOMS.items()} == dict.fromkeys(AXIOMS)


def test_equality_axioms_gated_on_signature():
    f = parse_formula("forall x. x = x", SIG_EQ)
    proof = Proof(name="refl", steps=(Step(f, AxiomRef("Eq1")),))
    assert check_proof(proof, SIG_EQ).accepted
    no_eq = Signature(predicates={"P": 1}, functions={}, constants=set())
    v = check_proof(proof, no_eq)
    assert not v.accepted and "equality" in v.reason


def test_exists_in_side_condition():
    prem = parse_formula("P(x) -> Q(y)", SIG)
    good = parse_formula("(exists x. P(x)) -> Q(y)", SIG)
    bad_f = parse_formula("(exists y. P(x)) -> Q(y)", SIG)
    proof = Proof(name="ok", hypotheses=(prem,), steps=(Step(prem, HypRef(1)), Step(good, ExistsIn(1))))
    assert check_proof(proof, SIG).accepted
    bad_prem = parse_formula("P(x) -> Q(y)", SIG)
    bad = Proof(
        name="bad",
        hypotheses=(bad_prem,),
        steps=(Step(bad_prem, HypRef(1)), Step(bad_f, ExistsIn(1))),
    )
    v = check_proof(bad, SIG)
    assert not v.accepted and v.failed_step == 2


@pytest.mark.parametrize(
    "rule,cited,premise,conclusion,reason",
    [
        (ForallIn, 2, "P(y) -> Q(x)", "P(y) -> forall x. Q(x)", "cited step is not earlier"),
        (ForallIn, 1, "P(y) -> Q(x)", "P(y) -> exists x. Q(x)",
         "conclusion must have shape a -> forall x. b"),
        (ForallIn, 1, "P(y) -> Q(x)", "forall x. Q(x)",
         "conclusion must have shape a -> forall x. b"),
        (ForallIn, 1, "P(y) -> Q(x)", "P(y) -> forall x. P(x)",
         "step 1 does not match the premise shape"),
        (ForallIn, 1, "P(x) -> Q(x)", "P(x) -> forall x. Q(x)",
         "variable x may occur free in the antecedent"),
        (ExistsIn, 3, "P(x) -> Q(y)", "(exists x. P(x)) -> Q(y)", "cited step is not earlier"),
        (ExistsIn, 1, "P(x) -> Q(y)", "(forall x. P(x)) -> Q(y)",
         "conclusion must have shape (exists x. a) -> b"),
        (ExistsIn, 1, "P(x) -> Q(y)", "~(exists x. P(x))",
         "conclusion must have shape (exists x. a) -> b"),
        (ExistsIn, 1, "P(x) -> Q(y)", "(exists x. Q(x)) -> Q(y)",
         "step 1 does not match the premise shape"),
        (ExistsIn, 1, "P(x) -> Q(x)", "(exists x. P(x)) -> Q(x)",
         "variable x may occur free in the consequent"),
    ],
)
def test_each_refusal_of_an_introduction_names_its_reason(rule, cited, premise, conclusion,
                                                          reason):
    prem, f = parse_formula(premise, SIG), parse_formula(conclusion, SIG)
    steps = (Step(prem, HypRef(1)), Step(f, rule(cited)))
    proof = Proof(name="intro", hypotheses=(prem,), steps=steps)
    assert check_proof(proof, SIG) == Verdict(False, 2, reason)


def test_lemma_citation_with_premises():
    store = checked_store()
    a = parse_formula("P(x)", SIG)
    b = parse_formula("Q(x)", SIG)
    c = parse_formula("R(x,y)", SIG)
    proof = Proof(
        name="chain",
        hypotheses=(Imp(a, b), Imp(b, c)),
        steps=(
            Step(Imp(a, b), HypRef(1)),
            Step(Imp(b, c), HypRef(2)),
            Step(Imp(a, c), LemmaRef("imp-trans", (1, 2))),
        ),
    )
    assert check_proof(proof, SIG, store).accepted
    wrong = Proof(
        name="chain-bad",
        hypotheses=(Imp(a, b), Imp(b, c)),
        steps=(
            Step(Imp(a, b), HypRef(1)),
            Step(Imp(b, c), HypRef(2)),
            Step(Imp(a, a), LemmaRef("imp-trans", (1, 2))),
        ),
    )
    v = check_proof(wrong, SIG, store)
    assert not v.accepted and v.failed_step == 3


def test_unknown_lemma_rejected():
    proof = Proof(
        name="ghost",
        steps=(Step(parse_formula("P(x) -> P(x)", SIG), LemmaRef("no-such")),),
    )
    v = check_proof(proof, SIG)
    assert not v.accepted and "no-such" in v.reason


def test_taut_header_must_be_tautology():
    # explosion fails in this logic, so the declaration is rejected up front
    bogus = parse_proof(
        "name: exploder\n"
        "taut explosion: (a & ~a) -> b\n"
        "1. (a & ~a) -> b ; lemma explosion\n"
    )
    v = check_proof(bogus, SIG)
    assert not v.accepted and v.failed_step == 0


def test_lemma_store_rejects_redefinition():
    store = LemmaStore()
    store.add("l", FVar("A"))
    store.add("l", FVar("A"))  # same formula is fine
    with pytest.raises(ValueError):
        store.add("l", FVar("B"))


# ---------------------------------------------------------------------------
# Fixture proofs


def test_fixture_proofs_accepted_in_sequence():
    proofs = [load(name) for name, _ in GOOD_FIXTURES]
    for proof, (_, steps) in zip(proofs, GOOD_FIXTURES):
        assert len(proof.steps) == steps, proof.name
    verdicts, store = check_proof_sequence(proofs, SIG)
    assert all(v.accepted for v in verdicts), verdicts
    for name in ("imp-refl", "imp-trans", "sneg-exists-all",
                 "exists-contra-spreads", "forall-contra-spreads",
                 "strong-contrap"):
        assert name in store
    # a proof with hypotheses does not add its conclusion to the store
    assert "generalization" not in store


@pytest.mark.parametrize("name,bad_step", MUTANT_FIXTURES)
def test_mutant_fixtures_rejected_at_the_mutated_step(name, bad_step):
    store = checked_store()
    v = check_proof(load(name), SIG, store)
    assert not v.accepted
    assert v.failed_step == bad_step, (name, v)


def test_checking_is_monotone_under_unused_step_deletion():
    # same derivation with an unused first step; deleting it (and renumbering)
    # gives back the imp_refl fixture, which is also accepted
    padded = parse_proof(
        "name: imp-refl-padded\n"
        "schema-atom: A\n"
        "1. A -> (A -> A) ; ax Ax1\n"
        "2. A -> ((A -> A) -> A) ; ax Ax1\n"
        "3. (A -> ((A -> A) -> A)) -> ((A -> (A -> A)) -> (A -> A)) ; ax Ax2\n"
        "4. (A -> (A -> A)) -> (A -> A) ; mp 2 3\n"
        "5. A -> (A -> A) ; ax Ax1\n"
        "6. A -> A ; mp 5 4\n"
    )
    assert check_proof(padded, SIG).accepted
    assert check_proof(load("imp_refl.proof"), SIG).accepted


def test_schematic_generalization_instantiates():
    # the schematic A |- forall x. A specializes to a concrete derivation
    store = checked_store()
    phi = parse_formula("P(x)", SIG)
    concrete = Proof(
        name="generalization-on-p",
        hypotheses=(phi,),
        steps=tuple(
            Step(instantiate_a(s.formula, phi), s.just)
            for s in load("generalization.proof").steps
        ),
    )
    assert check_proof(concrete, SIG, store).accepted


def instantiate_a(f, phi):
    from qciore.hilbert import match_pattern as _  # noqa: F401 (documentation)
    from qciore.syntax import And, Cons, Exists, Forall, Imp, Neg, Or

    if isinstance(f, FVar):
        return phi if f.name == "A" else f
    if isinstance(f, (Neg, Cons)):
        return type(f)(instantiate_a(f.sub, phi))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(instantiate_a(f.left, phi), instantiate_a(f.right, phi))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, instantiate_a(f.body, phi))
    return f


# ---------------------------------------------------------------------------
# Proof file parsing


def test_parse_proof_roundtrips_shapes():
    proof = load("exists_contra_spreads.proof")
    assert proof.name == "exists-contra-spreads"
    assert proof.schema_atoms == frozenset({"A"})
    assert len(proof.taut_lemmas) == 3
    assert proof.steps[0].just == AxiomRef("Ax15")
    assert proof.steps[3].just == LemmaRef("imp-trans", (3, 2))
    assert proof.steps[9].just == ForallIn(9)


def test_parse_proof_schema_atoms_become_metavariables():
    proof = load("imp_refl.proof")
    assert proof.conclusion == Imp(FVar("A"), FVar("A"))


def test_parse_proof_rejects_out_of_order_steps():
    with pytest.raises(FileFormatError):
        parse_proof("name: t\n2. A -> A ; ax Ax1\n")


def test_parse_proof_rejects_missing_name():
    with pytest.raises(FileFormatError):
        parse_proof("1. a -> (b -> a) ; ax Ax1\n")


def test_parse_proof_rejects_bad_justification():
    with pytest.raises(FileFormatError):
        parse_proof("name: t\n1. a -> (b -> a) ; because\n")


def test_parse_proof_rejects_schema_atom_with_arguments():
    with pytest.raises(FileFormatError):
        parse_proof("name: t\nschema-atom: A\n1. A(x) -> A(x) ; ax Ax1\n")


def test_parse_proof_rejects_arity_conflicts():
    with pytest.raises(FileFormatError):
        parse_proof("name: t\n1. P(x) -> (P(x,y) -> P(x)) ; ax Ax1\n")


def test_parse_proof_rejects_header_after_steps():
    with pytest.raises(FileFormatError):
        parse_proof("name: t\n1. a -> (b -> a) ; ax Ax1\nhyp: a\n")


def test_substitution_in_ax12_respects_shadowing():
    # forall x. (P(x) & forall x. Q(x)) -> (P(y) & forall x. Q(x))
    body = parse_formula("P(x) & (forall x. Q(x))", SIG)
    inst = substitute(body, "x", Var("y"))
    f = Imp(Forall("x", body), inst)
    env = AXIOMS["Ax12"](f)
    assert env["t"] == Var("y")


def _with_a(text, a):
    """``text`` parsed, with its atom A replaced by the formula ``a``."""
    return map_atoms(parse_formula(text), lambda g: a if g == Pred("A") else g)


#: steps whose x may be captured by the forall y above the metavariable A
CAPTURING_STEPS = [
    ("Ax12", "(forall x. P(x) & (forall y. A)) -> P(y) & (forall y. A)"),
    ("Eq2", "forall x. forall y. x = y -> P(x) & (forall y. A) -> P(y) & (forall y. A)"),
]


@pytest.mark.parametrize("name, text", CAPTURING_STEPS, ids=[n for n, _ in CAPTURING_STEPS])
def test_a_schematic_step_is_accepted_only_if_its_instances_are(name, text):
    match = AXIOMS[name]
    assert match(_with_a(text, FVar("A"))) is None
    assert match(_with_a(text, parse_formula("Q(x)"))) is None
    assert match(_with_a(text, parse_formula("Q(w)"))) is not None


def _random_formula(rng, depth, atoms):
    """A formula of depth at most ``depth`` over ``atoms``, quantifiers on x, y, z."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    kind = rng.choice((Neg, Cons, And, Or, Imp, Forall, Exists))
    if kind in (Neg, Cons):
        return kind(_random_formula(rng, depth - 1, atoms))
    if kind in (Forall, Exists):
        return kind(rng.choice("xyz"), _random_formula(rng, depth - 1, atoms))
    return kind(_random_formula(rng, depth - 1, atoms), _random_formula(rng, depth - 1, atoms))


def test_instantiation_keeps_what_the_checker_decided_on_the_schema():
    rng = random.Random(1)
    terms = [Var(v) for v in "xyz"] + [Const("c")]
    concrete = [Pred(p, (t,)) for p in "PQ" for t in terms]
    for _ in range(2500):
        phi = _random_formula(rng, 3, concrete + [FVar("A"), FVar("B")])
        sigma = {m: _random_formula(rng, 2, concrete) for m in "AB"}
        other = {m: _random_formula(rng, 2, concrete) for m in "AB"}
        inst = instantiate(phi, sigma)
        for x in "xyz":
            if not possibly_free(x, phi):
                assert x not in free_vars(inst), (phi, sigma, x)
            for t in terms:
                if is_free_for(t, x, phi):
                    assert is_free_for(t, x, inst), (phi, sigma, x, t)
                try:
                    done = substitute(phi, x, t)
                except CaptureError:
                    continue
                assert substitute(inst, x, t) == instantiate(done, sigma), (phi, sigma, x, t)
        mvars = schema_metavariables(phi)
        assert match_pattern(phi, inst) == {m: sigma[m] for m in mvars}
        # each occurrence from sigma or from other: a match must rebuild it
        mixed = map_atoms(phi, lambda g: rng.choice((sigma, other))[g.name]
                          if isinstance(g, FVar) else g)
        env = match_pattern(phi, mixed)
        assert env is None or instantiate(phi, env) == mixed, (phi, mixed)


# ---------------------------------------------------------------------------
# The checker and the soundness harness: the same axioms, and only valid ones

QUANT_EQ = search.QUANT_AXIOM_IDS + search.EQ_AXIOM_IDS
SIG_PC_EQ = Signature(predicates={"P": 1}, constants={"c"}, has_equality=True)
SIG_PRFC_EQ = Signature(
    predicates={"P": 1, "R": 2}, functions={"f": 1}, constants={"c"}, has_equality=True
)


@pytest.mark.parametrize("variables", [("x",), ("x", "y")], ids=["x", "xy"])
@pytest.mark.parametrize("sig", [SIG_PC_EQ, SIG_PRFC_EQ], ids=["P+c+=", "P+R+f+c+="])
def test_checker_accepts_every_instance_the_harness_checks(sig, variables):
    pool = list(enumerate_formulas(sig, variables, 1))
    # the harness's terms: the frame, its first spare variable, the constants
    spare = next(v for v in ("y", "z") if v not in variables)
    terms = [Var(v) for v in (*variables, spare)] + [Const(c) for c in sorted(sig.constants)]
    instances = [
        inst for phi in pool for x in variables for inst in search._quantifier_axioms(phi, x, terms)
    ]
    instances += search._equality_axiom_instances(pool, variables, spare)
    assert {name for name, _ in instances} == set(QUANT_EQ)
    rng = random.Random(13)
    for name, pattern in PROP_AXIOMS.items():
        mvars = schema_metavariables(pattern)
        for _ in range(50):
            instances.append((name, instantiate(pattern, {m: rng.choice(pool) for m in mvars})))
    missed = [(name, str(f)) for name, f in instances if AXIOMS[name](f) is None]
    assert not missed, (len(missed), missed[:5])


def _replace_everywhere(f, x, t):
    """``f`` with every x in its atoms replaced by ``t``, bound or free,
    captured or not: the substitution done wrong."""

    def atom(g):
        if isinstance(g, Pred):
            return Pred(g.name, tuple(substitute_term(a, x, t) for a in g.args))
        return g

    return map_atoms(f, atom)


def _one_edit(f):
    """``f`` with one quantifier turned into the other one, or the two sides
    of one implication swapped, for each place where that can be done."""
    if isinstance(f, (Forall, Exists)):
        yield (Exists if isinstance(f, Forall) else Forall)(f.var, f.body)
        yield from (type(f)(f.var, g) for g in _one_edit(f.body))
    elif isinstance(f, (Neg, Cons)):
        yield from (type(f)(g) for g in _one_edit(f.sub))
    elif isinstance(f, (And, Or, Imp)):
        if isinstance(f, Imp):
            yield Imp(f.right, f.left)
        yield from (type(f)(g, f.right) for g in _one_edit(f.left))
        yield from (type(f)(f.left, g) for g in _one_edit(f.right))


def _near_misses(bodies, variables, terms):
    """The builders' outputs and near misses of them: a quantifier swapped,
    the sides of an implication swapped, a term replaced wrongly or a
    variable replaced by another."""
    built = []
    for x in variables:
        other = next(v for v in variables if v != x)
        built += [eq1_axiom(x), Forall(x, Pred(EQ, (Var(x), Var(other)))),
                  Forall(other, Pred(EQ, (Var(x), Var(x))))]
        for body in bodies:
            for t in terms:
                wrong = _replace_everywhere(body, x, t)
                built += [Imp(wrong, Exists(x, body)), Imp(Forall(x, body), wrong)]
                try:
                    built += term_axioms(x, body, t).values()
                except CaptureError:
                    continue
                inst = substitute(body, x, t)
                built += [Imp(inst, Exists(other, body)), Imp(Forall(other, body), inst)]
            for name, f in consistency_axioms(x, body):
                built += [f, Imp(f.left, dict(consistency_axioms(other, body))[name].right)]
            replaced = [body, _replace_everywhere(body, x, Var(other))]
            try:
                replaced.append(substitute(body, x, Var(other)))
            except CaptureError:
                pass
            for phi2 in replaced:
                built += [eq2_axiom(x, other, body, phi2), eq2_axiom(other, x, body, phi2)]
    return set(built) | {g for f in built for g in _one_edit(f)}


def _structures_pc_eq():
    return [A for n in (1, 2) for A in search.enumerate_structures(SIG_PC_EQ, n)]


def test_what_the_checker_accepts_is_valid():
    # bodies: the atoms over x, y and c, and each quantified on x or y
    atoms = list(enumerate_formulas(SIG_PC_EQ, ("x", "y"), 0))
    bodies = atoms + [q(v, a) for q in (Forall, Exists) for v in ("x", "y") for a in atoms]
    candidates = _near_misses(bodies, ("x", "y"), [Var("x"), Var("y"), Const("c")])
    accepted = {f for f in candidates for name in QUANT_EQ if AXIOMS[name](f)}
    structures = _structures_pc_eq()
    assert len(structures) == 78
    invalid = [
        str(f) for f in sorted(accepted, key=str)
        if not all(is_valid_in(f, A)[0] for A in structures)
    ]
    assert not invalid, invalid[:5]
    # among the near misses are invalid ones that capture y: Ax11 and Eq2
    for text in (
        "(forall y. y = y) -> exists x. forall y. x = y",
        "forall x. forall y. (x = y -> ((forall y. P(x)) -> forall y. P(y)))",
    ):
        capture = parse_formula(text, SIG_PC_EQ)
        assert capture in candidates and capture not in accepted
        assert not all(is_valid_in(capture, A)[0] for A in structures)


def test_accepted_fixture_proofs_have_valid_conclusions():
    verdicts, _ = check_proof_sequence([load(name) for name, _ in GOOD_FIXTURES], SIG)
    assert all(verdicts)
    atoms = list(enumerate_formulas(SIG_PC_EQ, ("x",), 0))
    structures = _structures_pc_eq()
    checked = 0
    for name, _ in GOOD_FIXTURES:
        proof = load(name)
        if proof.hypotheses:
            continue
        mvars = schema_metavariables(proof.conclusion)
        for combo in itertools.product(atoms, repeat=len(mvars)):
            f = instantiate(proof.conclusion, dict(zip(mvars, combo)))
            assert all(is_valid_in(f, A)[0] for A in structures), (proof.name, str(f))
            checked += 1
    assert checked == 6 + 6**3 + 6 + 6 + 6
