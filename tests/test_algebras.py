"""The triple algebra of ``triples`` against the twist triples of ``twist``.

``triples.triple_op`` lifts the CIORE tables pointwise; ``twist`` computes
the same connectives with Boolean closed forms and the quantifiers with
``lifted_quantifier``.  These tests tie the two together exhaustively on
small carriers.
"""

import itertools
import random

import pytest

from qciore.matrix3 import HALF, ONE, ZERO
from qciore.search import enumerate_structures
from qciore.structures import Assignment, eval_formula, formula_triple, make_structure
from qciore.syntax import (
    BINARY_OPS,
    UNARY_OPS,
    Exists,
    Forall,
    Pred,
    Signature,
    Var,
    enumerate_formulas,
)
from qciore.triples import Triple, all_triples, triple_op
from qciore.twist import (
    AssignmentSpace,
    PowersetAlgebra,
    TwistTriple,
    all_twist_triples,
    dagger,
    ddagger,
    lifted_quantifier,
    twist_triple,
    twist_triple_op,
)

from helpers import SIG_P1


def as_twist(alg: PowersetAlgebra, r: Triple) -> TwistTriple:
    return TwistTriple(alg, r.plus, r.minus, r.dot)


@pytest.mark.parametrize("size", [0, 1, 2])
def test_twist_triple_op_is_the_pointwise_lift(size):
    carrier = frozenset(range(size))
    alg = PowersetAlgebra(carrier)
    triples = all_triples(carrier)
    for op in UNARY_OPS.values():
        for r in triples:
            assert twist_triple_op(op, as_twist(alg, r)) == as_twist(
                alg, triple_op(op, r)
            ), (op, r)
    for op in BINARY_OPS.values():
        for r, u in itertools.product(triples, repeat=2):
            assert twist_triple_op(op, as_twist(alg, r), as_twist(alg, u)) == as_twist(
                alg, triple_op(op, r, u)
            ), (op, r, u)


def test_formula_triple_quantifiers_are_the_lifted_quantifiers():
    frame = ("x", "y")
    pool = [
        f
        for f in enumerate_formulas(SIG_P1, frame, 2)
        if isinstance(f, (Forall, Exists))
    ]
    assert len(pool) == 104
    checks = 0
    for n in (1, 2, 3):
        for A in enumerate_structures(SIG_P1, n):
            space = AssignmentSpace(frame, A.domain)
            memo: dict = {}
            for f in pool:
                kind = "forall" if isinstance(f, Forall) else "exists"
                body = as_twist(space.algebra, formula_triple(f.body, A, frame, memo))
                lifted = lifted_quantifier(kind, "T", f.var, space, body)
                assert lifted == as_twist(
                    space.algebra, formula_triple(f, A, frame, memo)
                ), (f, A)
                checks += 1
    assert checks == 4056


def space_triples(space, draws, seed):
    """Every triple over the space when there are at most ``draws``, else
    ``draws`` seeded ones, each point's class drawn uniformly."""
    points = space.algebra.order
    if 3 ** len(points) <= draws:
        return all_twist_triples(space.algebra)
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        parts = [set(), set(), set()]
        for s in points:
            parts[rng.randrange(3)].add(s)
        out.append(twist_triple(space.algebra, *parts))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("frame", [("x",), ("x", "y"), ("x", "y", "z")])
def test_lifted_quantifiers_are_eval_formula(frame, n):
    # R over the frame takes z's value at each assignment; quantifying R
    # over any frame variable in eval_formula is then the lifted quantifier
    # of z, in both forms.  Spaces of up to 81 triples are covered whole.
    space = AssignmentSpace(frame, ("a", "b", "c")[:n])
    sig = Signature(predicates={"R": len(frame)})
    atom = Pred("R", tuple(map(Var, frame)))
    points = [
        (s, Assignment(space.domain[0], tuple(sorted(zip(frame, s)))))
        for s in space.algebra.order
    ]
    for z in space_triples(space, 81, seed=len(frame) * 10 + n):
        A = make_structure(sig, space.domain, {"R": Triple(z.a, z.b, z.c)})
        for kind, quantifier in (("forall", Forall), ("exists", Exists)):
            for x in frame:
                f = quantifier(x, atom)
                via_t = lifted_quantifier(kind, "T", x, space, z)
                via_p = ddagger(lifted_quantifier(kind, "P", x, space, dagger(z)))
                for s, assignment in points:
                    v = eval_formula(f, A, assignment)
                    where = (v == ONE, v == ZERO, v == HALF)
                    assert (s in via_t.a, s in via_t.b, s in via_t.c) == where, (kind, x, z, s)
                    assert (s in via_p.a, s in via_p.b, s in via_p.c) == where, (kind, x, z, s)
