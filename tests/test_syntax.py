import pickle

import pytest
from hypothesis import given, strategies as st

from qciore.syntax import (
    And,
    App,
    CaptureError,
    Cons,
    Const,
    Eq,
    Exists,
    FVar,
    Forall,
    Imp,
    Neg,
    Or,
    ParseError,
    Pred,
    Signature,
    Var,
    align,
    enumerate_formulas,
    formula_to_str,
    free_vars,
    is_free_for,
    map_atoms,
    parse_formula,
    replace_some_matches,
    signature_of,
    substitute,
    subformulas,
)


def test_precedence():
    f = parse_formula("a -> b -> c")
    assert f == Imp(Pred("a"), Imp(Pred("b"), Pred("c")))
    assert parse_formula("~a & b") == And(Neg(Pred("a")), Pred("b"))
    assert parse_formula("a | b & c") == Or(Pred("a"), And(Pred("b"), Pred("c")))
    assert parse_formula("a & b -> c") == Imp(And(Pred("a"), Pred("b")), Pred("c"))
    assert parse_formula("a & b & c") == And(And(Pred("a"), Pred("b")), Pred("c"))


def test_quantifier_scopes_right():
    f = parse_formula("forall x. P(x) -> Q(x)")
    assert f == Forall("x", Imp(Pred("P", (Var("x"),)), Pred("Q", (Var("x"),))))
    g = parse_formula("(forall x. P(x)) -> Q(y)")
    assert isinstance(g, Imp) and isinstance(g.left, Forall)


def test_sugar_desugars():
    assert parse_formula("!a") == And(Neg(Pred("a")), Cons(Pred("a")))
    f = parse_formula("a <-> b")
    assert f == And(Imp(Pred("a"), Pred("b")), Imp(Pred("b"), Pred("a")))


def test_equality_atom_and_terms():
    f = parse_formula("f(x, c) = y")
    assert f == Eq(App("f", (Var("x"), Var("c"))), Var("y"))
    # without a signature every bare identifier is a variable
    assert parse_formula("~x = y") == Neg(Eq(Var("x"), Var("y")))


def test_signature_validation():
    sig = Signature(predicates={"P": 1}, functions={"f": 2}, constants={"c"})
    f = parse_formula("P(f(x, c))", sig)
    assert f == Pred("P", (App("f", (Var("x"), Const("c"))),))
    with pytest.raises(ParseError):
        parse_formula("Q(x)", sig)
    with pytest.raises(ParseError):
        parse_formula("P(x, y)", sig)
    with pytest.raises(ParseError):
        parse_formula("f(x, y)", sig)  # function used as predicate
    with pytest.raises(ParseError):
        parse_formula("P(f(x))", sig)  # wrong function arity
    with pytest.raises(ParseError):
        parse_formula("P(x) &", sig)


def test_free_vars():
    f = parse_formula("forall x. P(x, y) & exists y. Q(y)")
    assert free_vars(f) == {"y"}
    assert free_vars(parse_formula("x = x")) == {"x"}


def test_free_vars_cached_on_the_node():
    text = "(forall x. P(x, y) & exists y. Q(y, z)) -> ~R(f(w), c)"
    f = parse_formula(text)
    fresh = parse_formula(text)
    fv = free_vars(f)
    assert type(fv) is frozenset and fv == {"y", "z", "w", "c"}
    assert free_vars(f) is fv  # read back, not recomputed
    assert free_vars(f.left.body) is free_vars(f.left.body)
    # the cache is invisible: equality, hash, printing and pickling
    assert f == fresh and hash(f) == hash(fresh)
    assert parse_formula(formula_to_str(f)) == f
    again = pickle.loads(pickle.dumps(f))
    assert again == f and hash(again) == hash(f) and free_vars(again) == fv
    assert formula_to_str(again) == formula_to_str(fresh)
    # callers take unions and differences; the cached set never changes
    grown = free_vars(f)
    grown |= {"u"}
    assert grown - {"u"} == fv and free_vars(f) == {"y", "z", "w", "c"}
    assert set() | free_vars(f) == fv and free_vars(f) - {"y"} == {"z", "w", "c"}
    assert sorted(free_vars(f.left)) == ["y", "z"]
    # sentences, shadowing and the empty set
    assert free_vars(parse_formula("forall x. exists x. P(x)")) == frozenset()
    assert free_vars(parse_formula("forall x. P(x) & Q(x, y)")) == {"y"}
    with pytest.raises(TypeError):
        free_vars(Var("x"))


SIG_ALL = Signature({"P": 1, "R": 2}, {"f": 1, "g": 2}, {"c", "d"}, has_equality=True)


def test_signature_of_is_cached_on_the_node():
    text = "(forall x. P(x) & exists y. R(y, f(c))) -> ~g(x, d) = x"
    f = parse_formula(text, SIG_ALL)
    sig = signature_of(f)
    assert sig == SIG_ALL
    assert signature_of(f) is sig  # read back, not recomputed
    assert signature_of(f.left) == Signature({"P": 1, "R": 2}, {"f": 1}, {"c"})
    assert f == parse_formula(text, SIG_ALL)  # the cache is not a field
    again = pickle.loads(pickle.dumps(f))
    assert again == f and signature_of(again) == sig


def test_signature_of_reads_constants_from_const_terms():
    # the same identifier is a constant under a signature, a variable without
    assert signature_of(parse_formula("P(c)", SIG_ALL)).constants == {"c"}
    assert signature_of(parse_formula("P(c)")) == Signature({"P": 1})
    assert signature_of(Pred("P", (App("f", (Const("c"), Var("x"))),))) == Signature(
        {"P": 1}, {"f": 2}, {"c"}
    )
    assert signature_of(Eq(Var("x"), Var("y"))) == Signature(has_equality=True)
    assert signature_of(Imp(FVar("a"), FVar("b"))) == Signature()
    with pytest.raises(TypeError):
        signature_of(And(Pred("P"), "Q"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("P(x) & P(x, y)", "predicate P used with 1 and 2 arguments"),
        ("Q(f(x), f(x, y))", "function f used with 1 and 2 arguments"),
        ("forall x. f(x) = x | ~R(f(x, x))", "function f used with 1 and 2 arguments"),
    ],
)
def test_signature_of_refuses_a_symbol_at_two_arities(text, message):
    with pytest.raises(ValueError, match=message):
        signature_of(parse_formula(text))


def test_sub_signatures():
    sig = Signature({"P": 1}, {"f": 1}, {"c"})
    assert Signature() <= sig <= sig <= SIG_ALL
    assert not SIG_ALL <= sig
    # the same name at another arity is another symbol
    assert not Signature({"P": 2}) <= sig
    assert not Signature(functions={"f": 2}) <= sig
    assert not Signature(functions={"P": 1}) <= sig  # a predicate is not a function
    # equality counts as a symbol
    with_eq = Signature({"P": 1}, {"f": 1}, {"c"}, has_equality=True)
    assert sig <= with_eq and not with_eq <= sig
    assert Signature(has_equality=True) <= with_eq


def test_substitute():
    f = parse_formula("P(x) & forall y. Q(x, y)")
    g = substitute(f, "x", Const("c"))
    assert g == parse_formula("P(c) & forall y. Q(c, y)", Signature(
        predicates={"P": 1, "Q": 2}, constants={"c"}))
    # bound occurrences stay put
    h = parse_formula("forall x. P(x)")
    assert substitute(h, "x", Var("z")) == h


def test_substitute_refuses_capture():
    f = parse_formula("forall y. P(x, y)")
    with pytest.raises(CaptureError):
        substitute(f, "x", Var("y"))
    assert not is_free_for(Var("y"), "x", f)
    assert is_free_for(Var("z"), "x", f)
    assert is_free_for(Var("y"), "x", parse_formula("forall y. P(y)"))


def test_replace_some_matches():
    f = parse_formula("P(x) & Q(x)")
    assert replace_some_matches(f, "x", "y", parse_formula("P(y) & Q(x)"))
    assert replace_some_matches(f, "x", "y", parse_formula("P(y) & Q(y)"))
    assert replace_some_matches(f, "x", "y", f)  # zero replacements allowed
    assert not replace_some_matches(f, "x", "y", parse_formula("P(z) & Q(x)"))
    # occurrences bound inside stay untouched
    g = parse_formula("P(x) & forall x. Q(x)")
    assert replace_some_matches(g, "x", "y", parse_formula("P(y) & forall x. Q(x)"))
    assert not replace_some_matches(g, "x", "y", parse_formula("P(y) & forall x. Q(y)"))


def test_subformulas_in_preorder():
    f = parse_formula("(P(x) -> ~Q) & forall y. @(x = y)")
    assert [formula_to_str(g) for g in subformulas(f)] == [
        "(P(x) -> ~Q) & (forall y. @x = y)",
        "P(x) -> ~Q", "P(x)", "~Q", "Q",
        "forall y. @x = y", "@x = y", "x = y",
    ]
    assert subformulas(FVar("a")) == [FVar("a")]
    with pytest.raises(TypeError):
        subformulas(Neg(Var("x")))


def test_map_atoms_rebuilds_around_the_atoms():
    f = parse_formula("~(P(x) & forall y. (x = y | Q))")
    got = map_atoms(f, lambda g: FVar(g.name) if isinstance(g, Pred) else g)
    assert got == Neg(And(FVar("P"), Forall("y", Or(Eq(Var("x"), Var("y")), FVar("Q")))))
    assert map_atoms(f, lambda g: g) == f


def test_align_needs_the_same_shape_and_passes_the_bound_variables():
    seen = []

    def record(a, b, bound):
        seen.append((str(a), str(b), sorted(bound)))
        return True

    f = parse_formula("P(x) & forall y. exists z. R(x, y)")
    g = parse_formula("P(c) & forall y. exists z. R(x, c)")
    assert align(f, g, record)
    assert seen == [("x", "c", []), ("x", "x", ["y", "z"]), ("y", "c", ["y", "z"])]
    for other in ("P(c) | forall y. exists z. R(x, c)", "P(c) & forall z. exists z. R(x, c)",
                  "P(c) & forall y. exists z. R(x)", "P(c) & forall y. exists z. Q(x, c)"):
        assert not align(f, parse_formula(other), record)
    assert not align(f, g, lambda a, b, bound: a == b)


def test_the_traversals_need_no_recursion():
    # far past the interpreter's recursion limit
    f = g = Pred("P", (Var("x"),))
    for _ in range(5000):
        f, g = Neg(f), Neg(g)
    assert len(subformulas(f)) == 5001
    assert align(f, g, lambda a, b, bound: a == b)
    assert signature_of(f) == Signature({"P": 1})


def test_enumerate_formulas_base():
    sig = Signature(predicates={"P": 1})
    assert list(enumerate_formulas(sig, ["x"], 0)) == [Pred("P", (Var("x"),))]
    sig_eq = Signature(predicates={"P": 1}, has_equality=True)
    assert list(enumerate_formulas(sig_eq, ["x"], 0)) == [
        Pred("P", (Var("x"),)),
        Eq(Var("x"), Var("x")),
    ]


def test_enumerate_formulas_counts_and_uniqueness():
    sig = Signature(predicates={"P": 1})
    level1 = list(enumerate_formulas(sig, ["x"], 1))
    # one atom; depth 1 adds ~, @, forall, exists and 3 binary combinations
    assert len(level1) == 8
    level2 = list(enumerate_formulas(sig, ["x"], 2))
    assert len(level2) == 225
    assert len(set(level2)) == 225
    # deterministic: same list on a second run
    assert level2 == list(enumerate_formulas(sig, ["x"], 2))


def test_enumerate_formulas_rejects_repeated_variables():
    sig = Signature(predicates={"P": 1})
    # ("x", "x") would yield the 8 formulas of ("x",) and 18 repeats
    with pytest.raises(ValueError, match="repeat"):
        list(enumerate_formulas(sig, ("x", "x"), 1))


def test_enumerate_formulas_rejects_negative_depth():
    sig = Signature(predicates={"P": 1})
    with pytest.raises(ValueError, match="depth"):
        list(enumerate_formulas(sig, ("x",), -1))


def _depth(f):
    if isinstance(f, (Neg, Cons)):
        return 1 + _depth(f.sub)
    if isinstance(f, (And, Or, Imp)):
        return 1 + max(_depth(f.left), _depth(f.right))
    if isinstance(f, (Forall, Exists)):
        return 1 + _depth(f.body)
    return 0


def test_enumerate_formulas_respects_depth():
    sig = Signature(predicates={"P": 1, "R": 2})
    out = list(enumerate_formulas(sig, ["x", "y"], 1))
    assert all(_depth(f) <= 1 for f in out)
    assert len(out) == len(set(out))


# --- round-tripping ---------------------------------------------------------


def _formulas():
    atoms = st.sampled_from(
        [
            Pred("a"),
            Pred("P", (Var("x"),)),
            Pred("R", (Var("x"), Var("y"))),
            Eq(Var("x"), Var("y")),
        ]
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Neg),
            sub.map(Cons),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(sub, sub).map(lambda p: Imp(*p)),
            st.tuples(st.sampled_from(["x", "y"]), sub).map(lambda p: Forall(*p)),
            st.tuples(st.sampled_from(["x", "y"]), sub).map(lambda p: Exists(*p)),
        ),
        max_leaves=12,
    )


@given(_formulas())
def test_print_parse_round_trip(f):
    assert parse_formula(formula_to_str(f)) == f


def test_round_trip_examples():
    for text in [
        "(exists x. ~P(x)) -> ~forall x. P(x)",
        "@(a -> b) -> (@a | @b)",
        "forall x. forall y. (x = y -> (P(x) -> P(y)))",
        "~(a & b) | ~~c",
    ]:
        f = parse_formula(text)
        assert parse_formula(formula_to_str(f)) == f
