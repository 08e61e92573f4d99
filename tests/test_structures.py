import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import qciore
from qciore import structures
from helpers import remark_structure, singleton
from qciore.matrix3 import CIORE, DESIGNATED, HALF, ONE, ZERO, eval_prop
from qciore.structures import (
    Assignment,
    assignments_over,
    BOTH,
    NEG,
    POS,
    classical_equality,
    eval_formula,
    eval_term,
    formula_triple,
    is_valid_in,
    make_structure,
    reduct,
    sentence_trichotomy,
    tilde_exists,
    tilde_forall,
)
from qciore.syntax import (
    EQ,
    And,
    FVar,
    Neg,
    Or,
    Pred,
    Signature,
    Var,
    parse_formula,
    substitute,
)
from qciore.triples import make_triple, triple_from_map


def test_eval_term_composition():
    sig = Signature(functions={"f": 1}, constants={"c"}, predicates={"P": 1})
    A = make_structure(
        sig,
        ("a", "b"),
        preds={"P": make_triple({("a",)}, {("b",)}, set())},
        funs={"f": {("a",): "b", ("b",): "a"}},
        consts={"c": "a"},
    )
    s = A.default_assignment()
    assert eval_term(parse_formula("P(x)", sig).args[0], A, s) == "a"
    t = parse_formula("P(f(c))", sig).args[0]
    assert eval_term(t, A, s) == "b"
    assert eval_formula(parse_formula("P(f(c))", sig), A, s) == ZERO


def test_assignment_update():
    s = Assignment("a")
    assert s.get("x") == "a"
    s2 = s.set("x", "b").set("y", "c")
    assert s2.get("x") == "b" and s2.get("y") == "c" and s2.get("z") == "a"
    assert s2.set("x", "a").get("x") == "a"


def test_quantifier_value_functions():
    assert tilde_forall({ONE}) == ONE
    assert tilde_forall({ONE, HALF}) == ONE
    assert tilde_forall({HALF}) == HALF
    assert tilde_forall({ONE, ZERO}) == ZERO
    assert tilde_exists({ZERO}) == ZERO
    assert tilde_exists({HALF}) == HALF
    assert tilde_exists({ZERO, HALF}) == ONE  # mixed sets count as witnessed
    assert tilde_exists({ONE, ZERO}) == ONE


def test_remark_structure_values():
    A = remark_structure()
    s = A.default_assignment()
    sig = A.sig
    assert eval_formula(parse_formula("forall x. P(x)", sig), A, s) == ONE
    assert eval_formula(parse_formula("exists x. ~P(x)", sig), A, s) == ONE
    assert eval_formula(parse_formula("~forall x. P(x)", sig), A, s) == ZERO
    f = parse_formula("(exists x. ~P(x)) -> ~forall x. P(x)", sig)
    assert eval_formula(f, A, s) == ZERO
    ok, witness = is_valid_in(f, A)
    assert not ok and witness == s


def test_remark_formula_triples():
    A = remark_structure()
    t = formula_triple(parse_formula("P(x)", A.sig), A, ("x",))
    assert t == make_triple({("a",)}, set(), {("b",), ("c",)})
    t = formula_triple(parse_formula("~P(x)", A.sig), A, ("x",))
    assert t == make_triple(set(), {("a",)}, {("b",), ("c",)})
    t = formula_triple(parse_formula("@P(x)", A.sig), A, ("x",))
    assert t == make_triple({("a",)}, {("b",), ("c",)}, set())
    t = formula_triple(parse_formula("forall x. P(x)", A.sig), A, ("x",))
    assert t.plus == t.carrier  # designated everywhere


def test_dubious_singleton():
    A = singleton(dot={("a",)})
    s = A.default_assignment()
    assert eval_formula(parse_formula("exists x. P(x)", A.sig), A, s) == HALF
    assert eval_formula(parse_formula("@exists x. P(x)", A.sig), A, s) == ZERO
    assert sentence_trichotomy(parse_formula("exists x. P(x)", A.sig), A) == BOTH
    assert sentence_trichotomy(parse_formula("forall x. P(x)", A.sig), remark_structure()) == POS
    B = singleton(minus={("a",)})
    assert sentence_trichotomy(parse_formula("exists x. P(x)", B.sig), B) == NEG


def test_holds_on_designated_values():
    A = singleton(dot={("a",)})
    s = A.default_assignment()
    assert eval_formula(parse_formula("P(x)", A.sig), A, s) in DESIGNATED
    assert eval_formula(parse_formula("P(x) & ~P(x)", A.sig), A, s) in DESIGNATED
    assert eval_formula(parse_formula("@P(x)", A.sig), A, s) not in DESIGNATED


def test_trichotomy_requires_sentence():
    A = remark_structure()
    with pytest.raises(ValueError):
        sentence_trichotomy(parse_formula("P(x)", A.sig), A)


def test_validity_witness_is_least():
    A = remark_structure()
    ok, w = is_valid_in(parse_formula("@P(x)", A.sig), A)
    assert not ok
    assert w == Assignment("a", (("x", "b"),))


def test_assignments_over_unsorted_frame_keeps_frame_order():
    # the first frame variable is the most significant; pairs sorted by name
    A = remark_structure()
    got = [(s.default, s.pairs) for s in assignments_over(A, ("y", "x"))]
    assert got[:4] == [
        ("a", (("x", "a"), ("y", "a"))),
        ("a", (("x", "b"), ("y", "a"))),
        ("a", (("x", "c"), ("y", "a"))),
        ("a", (("x", "a"), ("y", "b"))),
    ]
    assert len(got) == 9 and got[-1] == ("a", (("x", "c"), ("y", "c")))
    assert [s.pairs for s in assignments_over(A, ())] == [()]


def test_prop_6_7_value_vs_compounds():
    A = remark_structure()
    sig = A.sig
    f = parse_formula("P(x)", sig)

    def holds(text, s):
        return eval_formula(parse_formula(text, sig), A, s) in DESIGNATED

    for s in (A.default_assignment().set("x", e) for e in A.domain):
        v = eval_formula(f, A, s)
        assert (v == ONE) == holds("P(x) & @P(x)", s)
        assert (v == ZERO) == holds("~P(x) & @P(x)", s)
        assert (v == HALF) == holds("P(x) & ~P(x)", s)


def test_implication_validity_via_minus_classes():
    A = remark_structure()
    sig = A.sig
    cases = [
        ("P(x)", "P(x) | ~P(x)"),
        ("@P(x)", "P(x)"),
        ("exists x. ~P(x)", "~forall x. P(x)"),
        ("P(x)", "@P(x)"),
    ]
    for left, right in cases:
        lf, rf = parse_formula(left, sig), parse_formula(right, sig)
        imp = parse_formula("(%s) -> (%s)" % (left, right), sig)
        valid, _ = is_valid_in(imp, A)
        lt = formula_triple(lf, A, ("x",))
        rt = formula_triple(rf, A, ("x",))
        assert valid == (rt.minus <= lt.minus)


def test_quantifier_consistency_transfer():
    # the consistency of a quantified formula tracks some instance's consistency
    for A in (remark_structure(), singleton(dot={("a",)}), singleton(plus={("a",)})):
        sig = A.sig
        for text in (
            "(exists x. @P(x)) <-> @forall x. P(x)",
            "(exists x. @P(x)) <-> @exists x. P(x)",
        ):
            ok, w = is_valid_in(parse_formula(text, sig), A)
            assert ok, (text, w)


def test_propositional_instance_matches_matrix():
    sig = Signature(predicates={"p": 0, "q": 0})
    A = make_structure(
        sig,
        ("a",),
        preds={
            "p": make_triple({()}, set(), set()),
            "q": make_triple(set(), set(), {()}),
        },
    )
    from qciore.matrix3 import _schema

    f = parse_formula("(p -> q) & ~q", sig)
    v = {FVar("p"): ONE, FVar("q"): HALF}
    assert eval_formula(f, A, A.default_assignment()) == eval_prop(
        _schema("(p -> q) & ~q"), v, CIORE
    )


def test_substitution_lemma_samples():
    sig = Signature(predicates={"P": 1, "R": 2}, functions={"f": 1})
    A = make_structure(
        sig,
        ("a", "b"),
        preds={
            "P": make_triple({("a",)}, {("b",)}, set()),
            "R": make_triple(
                {("a", "a")}, {("a", "b"), ("b", "a")}, {("b", "b")}
            ),
        },
        funs={"f": {("a",): "b", ("b",): "b"}},
    )
    f = parse_formula("P(x) & exists y. R(x, y)", sig)
    t = parse_formula("P(f(z))", sig).args[0]
    for s in (A.default_assignment(), A.default_assignment().set("z", "b")):
        lhs = eval_formula(substitute(f, "x", t), A, s)
        rhs = eval_formula(f, A, s.set("x", eval_term(t, A, s)))
        assert lhs == rhs


def test_formula_triple_matches_pointwise_eval():
    A = remark_structure()
    sig = A.sig
    texts = [
        "P(x) -> forall y. P(y)",
        "exists y. (P(y) & ~P(x))",
        "@forall x. P(x)",
        "forall x. exists x. P(x)",  # shadowing
    ]
    for text in texts:
        f = parse_formula(text, sig)
        frame = ("x",)
        t = formula_triple(f, A, frame)
        for e in A.domain:
            s = Assignment("a", (("x", e),))
            assert t.value_at((e,)) == eval_formula(f, A, s)


def test_formula_triple_frame_checks():
    A = remark_structure()
    with pytest.raises(ValueError):
        formula_triple(parse_formula("P(x)", A.sig), A, ())
    with pytest.raises(ValueError):
        formula_triple(parse_formula("P(x)", A.sig), A, ("x", "x"))


def test_sentence_value_ignores_assignment():
    A = remark_structure()
    f = parse_formula("exists x. (P(x) & ~P(x))", A.sig)
    vals = {
        eval_formula(f, A, s)
        for s in (
            A.default_assignment(),
            Assignment("b"),
            Assignment("c", (("x", "a"),)),
        )
    }
    assert len(vals) == 1


def test_equality_structures():
    sig = Signature(predicates={"P": 1}, has_equality=True)
    dom = ("a", "b")
    P = make_triple({("a",)}, {("b",)}, set())
    classical = make_structure(sig, dom, preds={"P": P, "=": classical_equality(dom)})
    ok, _ = is_valid_in(parse_formula("x = x", sig), classical)
    assert ok

    dubious_diag = make_structure(
        sig,
        dom,
        preds={
            "P": P,
            "=": make_triple(set(), {("a", "b"), ("b", "a")}, {("a", "a"), ("b", "b")}),
        },
    )
    # a contradictory diagonal lets ~(x = x) hold
    s = dubious_diag.default_assignment()
    assert eval_formula(parse_formula("~x = x", sig), dubious_diag, s) in DESIGNATED


def test_reduct_rejects_a_symbol_of_another_arity():
    sig = Signature(predicates={"P": 1, "Q": 1}, functions={"f": 1}, constants={"c"})
    A = make_structure(
        sig,
        ("a", "b"),
        preds={
            "P": make_triple({("a",)}, {("b",)}, set()),
            "Q": make_triple(set(), {("a",)}, {("b",)}),
        },
        funs={"f": {("a",): "b", ("b",): "a"}},
        consts={"c": "a"},
    )
    with pytest.raises(ValueError, match="not a subsignature"):
        reduct(A, Signature(predicates={"P": 2}))
    with pytest.raises(ValueError, match="not a subsignature"):
        reduct(A, Signature(functions={"f": 2}))
    small = reduct(A, Signature(predicates={"P": 1}, functions={"f": 1}))
    assert small.preds == {"P": A.preds["P"]} and small.funs == A.funs
    assert small.consts == {}  # the constant c is dropped
    assert eval_formula(parse_formula("P(f(x))", small.sig), small, Assignment("b")) == ONE


def test_structure_validation_errors():
    sig = Signature(predicates={"P": 1})
    with pytest.raises(ValueError):
        make_structure(sig, ())
    with pytest.raises(ValueError):
        make_structure(sig, ("a", "a"))
    with pytest.raises(ValueError):
        make_structure(sig, ("a",))  # P missing
    with pytest.raises(ValueError):
        make_structure(sig, ("a", "b"), preds={"P": make_triple({("a",)}, set(), set())})
    sigf = Signature(predicates={"P": 1}, functions={"f": 1})
    with pytest.raises(ValueError):
        make_structure(
            sigf,
            ("a", "b"),
            preds={"P": make_triple({("a",), ("b",)}, set(), set())},
            funs={"f": {("a",): "b"}},  # not total
        )
    with pytest.raises(ValueError):
        make_structure(
            sig,
            ("a",),
            preds={
                "P": make_triple({("a",)}, set(), set()),
                "Q": make_triple({("a",)}, set(), set()),
            },
        )
    sigc, P = Signature(predicates={"P": 1}, constants={"c"}), make_triple({("a",)}, set(), set())
    with pytest.raises(ValueError, match="constant c has no domain value"):
        make_structure(sigc, ("a",), preds={"P": P}, consts={"c": "b"})
    with pytest.raises(ValueError, match="no interpretation for constant c"):
        make_structure(sigc, ("a",), preds={"P": P})
    with pytest.raises(ValueError, match="interpretation for undeclared constant d"):
        make_structure(sigc, ("a",), preds={"P": P}, consts={"c": "a", "d": "a"})


@given(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"]))
def test_default_element_never_leaks_into_sentences(d1, d2):
    A = remark_structure()
    f = parse_formula("(forall x. P(x)) -> exists y. ~P(y)", A.sig)
    assert eval_formula(f, A, Assignment(d1)) == eval_formula(f, A, Assignment(d2))


def test_assignment_set_hashes_like_a_direct_build():
    # four builds are one value, one hash and one memo key: a direct build,
    # a chain of set, assignments_over and the quantifier handler's variant;
    # an assignment is the tuple (default, pairs), so it equals that tuple
    A = remark_structure()
    pairs = (("x", "b"), ("y", "c"))
    direct = Assignment("a", pairs)
    chained = Assignment("a").set("y", "c").set("x", "b")
    over = [s for s in assignments_over(A, ("y", "x")) if s.pairs == pairs]
    # the x-variants, read off the memo keys of the quantifier's body
    f = parse_formula("forall x. P(x) & P(y)", A.sig)
    memo: dict = {}
    eval_formula(f, A, Assignment("a", (("x", "a"), ("y", "c"))), memo)
    variant = [s for node, s in memo if node == id(f.body) and s.get("x") == "b"]
    builds = [direct, chained, *over, *variant]
    assert len(builds) == 4
    for s in builds:
        assert type(s) is Assignment and s.default == "a" and s.pairs == pairs
        assert s == direct and hash(s) == hash(direct) and s == ("a", pairs)
        assert (id(f.body), s) in memo
    assert len({(id(f.body), s) for s in builds}) == 1
    assert Assignment("a", (("x", "b"),)).set("x", "c") == Assignment("a", (("x", "c"),))
    assert Assignment("a") != Assignment("b")


def test_a_shared_memo_outlives_the_formulas_it_was_given():
    # each formula is a fresh parse, dropped after its call: a memo keyed by
    # id() alone would hand a later parse the value of an earlier one
    sig = Signature(predicates={"P": 1, "Q": 1})
    A = make_structure(sig, ("a", "b"), preds={
        "P": make_triple({("a",)}, {("b",)}, set()),
        "Q": make_triple({("b",)}, set(), {("a",)}),
    })
    texts = ["P(x)", "Q(x)", "~P(x)", "@Q(x)", "P(x) -> Q(x)", "P(x) & ~Q(x)", "~Q(x) | P(x)"]
    s = Assignment("a", (("x", "a"),))
    values = [eval_formula(parse_formula(t), A, s) for t in texts]
    triples = [formula_triple(parse_formula(t), A, ("x",)) for t in texts]
    memo: dict = {}
    triple_memo: dict = {}
    wrong = 0
    for i in range(2 * 2000):
        k = i % len(texts)
        wrong += eval_formula(parse_formula(texts[k]), A, s, memo) != values[k]
        wrong += formula_triple(parse_formula(texts[k]), A, ("x",), triple_memo) != triples[k]
    assert wrong == 0


def test_a_memo_that_saw_a_failing_call_still_serves_later_formulas():
    # a call that raises must leave nothing behind that raises again: the
    # equality leaf of the first call, and the one compiled before the
    # metavariable of the second, are never evaluated without equality.
    # The second names whichever fault its walk meets first.
    sig = Signature(predicates={"P": 1})
    A = make_structure(sig, ("a", "b"), preds={"P": make_triple({("a",)}, set(), {("b",)})})
    x_is_x = Pred(EQ, (Var("x"), Var("x")))
    memo: dict = {}
    for bad, message in ((Neg(x_is_x), "^structure does not interpret equality$"),
                         (And(x_is_x, FVar("A")), "^(metavariable A|structure does not int)")):
        with pytest.raises(ValueError, match=message):
            formula_triple(bad, A, ("x",), memo)
        for text in ("P(x)", "~P(x)"):
            f = parse_formula(text, sig)
            assert formula_triple(f, A, ("x",), memo) == formula_triple(f, A, ("x",))


def test_a_second_call_on_a_memo_evaluates_only_the_entries_it_adds(monkeypatch):
    sig = Signature(predicates={"P": 1, "Q": 1})
    A = make_structure(sig, ("a", "b"), preds={
        "P": make_triple({("a",)}, {("b",)}, set()),
        "Q": make_triple({("b",)}, set(), {("a",)}),
    })
    calls = []
    op = structures.triple_op
    monkeypatch.setattr(structures, "triple_op", lambda *a: calls.append(a[0]) or op(*a))
    memo: dict = {}
    f = parse_formula("~P(x) & Q(x)", sig)
    formula_triple(f, A, ("x",), memo)
    assert calls == ["~", "&"]
    formula_triple(f, A, ("x",), memo)
    formula_triple(f.left, A, ("x",), memo)
    assert calls == ["~", "&"]
    # a formula over nodes the memo has: only its root is new
    g = Or(f, f.left)
    t = formula_triple(g, A, ("x",), memo)
    assert calls == ["~", "&", "|"]
    assert t == formula_triple(g, A, ("x",))
    # equal triples in one memo are one object: ~~P(x) is P(x) here
    p_x = formula_triple(f.left.sub, A, ("x",), memo)
    assert formula_triple(Neg(f.left), A, ("x",), memo) is p_x


def test_assignment_prints_as_it_did():
    s = Assignment("a", (("x", "b"), ("y", "c")))
    assert str(s) == "{x=b, y=c; default a}"
    assert str(Assignment("a")) == "{; default a}"
    assert repr(s) == "Assignment(default='a', pairs=(('x', 'b'), ('y', 'c')))"
    assert repr(Assignment("a")) == "Assignment(default='a', pairs=())"
    # one %s operand that is a tuple must be wrapped
    assert "at %s" % (s,) == "at {x=b, y=c; default a}"
    with pytest.raises(AttributeError):
        s.default = "b"
    with pytest.raises(AttributeError):
        s.extra = 1


def test_assignment_pickles_carry_no_hash():
    s = Assignment("a", (("x", "b"), ("y", "c")))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(s, protocol))
        assert type(again) is Assignment and again == s and hash(again) == hash(s)
    # loaded where strings hash differently, it keys a fresh build's entry
    check = (
        "import pickle, sys\n"
        "from qciore.structures import Assignment\n"
        "s = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = Assignment('a', (('x', 'b'), ('y', 'c')))\n"
        "print(type(s) is Assignment, s == fresh, hash(s) == hash(fresh), {fresh: 7}.get(s), s)\n"
    )
    src = str(Path(qciore.__file__).resolve().parent.parent)
    for seed in ("0", "12345"):
        done = subprocess.run(
            [sys.executable, "-c", check],
            input=pickle.dumps(s),
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        )
        assert done.stdout.decode().strip() == "True True True 7 {x=b, y=c; default a}"


def test_assignment_spaces_keep_element_types_apart():
    # (True, 2) == (1, 2), but a witness over (1, 2) holds the int 1
    f = parse_formula("P(x)")
    for domain in ((True, 2), (1, 2)):
        A = make_structure(Signature({"P": 1}), domain,
                           {"P": make_triple({(2,)}, {(domain[0],)}, set())})
        ok, witness = is_valid_in(f, A)
        assert not ok and witness.get("x") == 1 and type(witness.get("x")) is type(domain[0])


def test_assignment_spaces_are_bounded():
    from qciore import structures

    f = parse_formula("P(x) -> P(y)")
    for i in range(3 * structures._SPACE_KEYS):
        domain = ("a%d" % i, "b%d" % i)
        A = make_structure(Signature({"P": 1}), domain,
                           {"P": make_triple({(domain[0],)}, {(domain[1],)}, set())})
        ok, witness = is_valid_in(f, A)
        assert not ok and witness.pairs == (("x", domain[0]), ("y", domain[1]))
        assert len(structures._SPACES) <= structures._SPACE_KEYS
    # a space of more than _SPACE_POINTS assignments is walked, not stored
    domain = tuple(range(65))  # 65**2 = 4,225 assignments on (x, y)
    A = make_structure(Signature({"P": 1}), domain,
                       {"P": make_triple({(a,) for a in domain}, set(), set())})
    assert is_valid_in(f, A) == (True, None)
    assert (domain, frozenset({"x", "y"})) not in structures._SPACES
