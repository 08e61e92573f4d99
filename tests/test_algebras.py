"""The triple algebra of ``triples`` against the twist triples of ``twist``.

``triples.triple_op`` lifts the CIORE tables pointwise; ``twist`` computes
the same connectives with Boolean closed forms and the quantifiers with
``lifted_quantifier``.  These tests tie the two together exhaustively on
small carriers.
"""

import itertools

import pytest

from qciore.search import enumerate_structures
from qciore.structures import formula_triple
from qciore.syntax import BINARY_OPS, UNARY_OPS, Exists, Forall, enumerate_formulas
from qciore.triples import Triple, all_triples, triple_op
from qciore.twist import (
    AssignmentSpace,
    PowersetAlgebra,
    TwistTriple,
    lifted_quantifier,
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
