"""Three-valued matrices and propositional evaluation.

The main matrix is CIORE; the P1 and LFI1 matrices are included for the
triple-algebra comparisons.  Truth values are exact Fractions so they print
as ``0``, ``1/2`` and ``1``.  ``ZERO``, ``HALF`` and ``ONE`` are three
canonical instances of a Fraction subclass that stores its hash: they equal
and hash like the plain Fractions (and ints) of the same value, so tables
accept either as keys, but looking them up costs no Python-level hash
arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import syntax
from .syntax import (
    And,
    BINARY_OPS,
    Cons,
    Exists,
    Forall,
    Formula,
    FVar,
    Imp,
    Neg,
    Or,
    Pred,
    UNARY_OPS,
    parse_formula,
)


class _TruthValue(Fraction):
    """A truth value: a Fraction whose hash is computed once, at construction.

    Only ``ZERO``, ``HALF`` and ``ONE`` are built.  Copying and pickling give
    back the same instance.
    """

    __slots__ = ("_hash",)

    def __new__(cls, numerator, denominator=1):
        self = super().__new__(cls, numerator, denominator)
        self._hash = Fraction.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is _TruthValue:
            return (
                self._numerator == other._numerator
                and self._denominator == other._denominator
            )
        return Fraction.__eq__(self, other)

    def __repr__(self):
        return "Fraction(%s, %s)" % (self._numerator, self._denominator)

    def __reduce__(self):
        # pickled by its module-level name
        return _TRUTH_NAMES[self._numerator, self._denominator]

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


ZERO = _TruthValue(0)
HALF = _TruthValue(1, 2)
ONE = _TruthValue(1)
_TRUTH_NAMES = {(0, 1): "ZERO", (1, 2): "HALF", (1, 1): "ONE"}

#: canonical iteration order, matching the truth-table headers
VALUES = (ONE, HALF, ZERO)
DESIGNATED = frozenset({ONE, HALF})


def _binary(rows) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Build a binary table from rows listed in (1, 1/2, 0) order."""
    table = {}
    for a, row in zip(VALUES, rows):
        for b, val in zip(VALUES, row):
            table[(a, b)] = val
    return table


def _unary(col) -> dict[Fraction, Fraction]:
    return dict(zip(VALUES, col))


@dataclass(frozen=True, eq=False)
class Matrix:
    """A 3-valued matrix: per-connective tables, designated = {1, 1/2}.

    Connectives the matrix lacks are simply absent from the maps.
    """

    name: str
    unary: dict[str, dict[Fraction, Fraction]] = field(default_factory=dict)
    binary: dict[str, dict[tuple[Fraction, Fraction], Fraction]] = field(
        default_factory=dict
    )

    def __repr__(self) -> str:
        return "Matrix(%s)" % self.name


CIORE = Matrix(
    "CIORE",
    unary={
        "~": _unary([ZERO, HALF, ONE]),
        "@": _unary([ONE, ZERO, ONE]),
    },
    binary={
        "&": _binary([
            [ONE, ONE, ZERO],
            [ONE, HALF, ZERO],
            [ZERO, ZERO, ZERO],
        ]),
        "|": _binary([
            [ONE, ONE, ONE],
            [ONE, HALF, ONE],
            [ONE, ONE, ZERO],
        ]),
        "->": _binary([
            [ONE, ONE, ZERO],
            [ONE, HALF, ZERO],
            [ONE, ONE, ONE],
        ]),
    },
)

P1 = Matrix(
    "P1",
    unary={
        "~": _unary([ZERO, ONE, ONE]),
    },
    binary={
        "->": _binary([
            [ONE, ONE, ZERO],
            [ONE, ONE, ZERO],
            [ONE, ONE, ONE],
        ]),
    },
)

LFI1 = Matrix(
    "LFI1",
    unary={
        "~": _unary([ZERO, HALF, ONE]),
        "@": _unary([ONE, ZERO, ONE]),
    },
    binary={
        "&": _binary([
            [ONE, HALF, ZERO],
            [HALF, HALF, ZERO],
            [ZERO, ZERO, ZERO],
        ]),
        "|": _binary([
            [ONE, ONE, ONE],
            [ONE, HALF, HALF],
            [ONE, HALF, ZERO],
        ]),
        "->": _binary([
            [ONE, HALF, ZERO],
            [ONE, HALF, ZERO],
            [ONE, ONE, ONE],
        ]),
    },
)


_ATOMS = frozenset((Pred, FVar))
_QUANTIFIERS = frozenset((Forall, Exists))


def atoms_of(f: Formula) -> list[Formula]:
    """The distinct atomic leaves of ``f`` (atoms, equality among them,
    and metavariables), sorted by their printed form."""
    nodes = syntax.subformulas(f)
    if not _QUANTIFIERS.isdisjoint(map(type, nodes)):
        quantified = next(g for g in nodes if type(g) in _QUANTIFIERS)
        raise ValueError("quantifier in propositional formula: %s" % quantified)
    return sorted({g for g in nodes if type(g) in _ATOMS}, key=str)


def eval_prop(f: Formula, v: dict[Formula, Fraction], m: Matrix = CIORE) -> Fraction:
    """Evaluate a quantifier-free formula under the atom valuation ``v``."""
    if isinstance(f, (Pred, FVar)):
        try:
            return v[f]
        except KeyError:
            raise ValueError("valuation gives no value to atom %s" % f) from None
    if isinstance(f, (Neg, Cons)):
        op = UNARY_OPS[type(f)]
        table = m.unary.get(op)
        if table is None:
            raise ValueError("matrix %s has no connective %r" % (m.name, op))
        return table[eval_prop(f.sub, v, m)]
    if isinstance(f, (And, Or, Imp)):
        op = BINARY_OPS[type(f)]
        table = m.binary.get(op)
        if table is None:
            raise ValueError("matrix %s has no connective %r" % (m.name, op))
        return table[(eval_prop(f.left, v, m), eval_prop(f.right, v, m))]
    if isinstance(f, (Forall, Exists)):
        raise ValueError("quantifier in propositional formula: %s" % f)
    raise TypeError("not a formula: %r" % (f,))


def is_tautology3(
    f: Formula, m: Matrix = CIORE
) -> tuple[bool, dict[Formula, Fraction] | None]:
    """Check whether every valuation designates ``f``.

    Returns (True, None), or (False, w) where ``w`` is the least failing
    valuation: atoms ordered by printed form, values compared numerically.
    """
    atoms = atoms_of(f)
    for combo in itertools.product((ZERO, HALF, ONE), repeat=len(atoms)):
        v = dict(zip(atoms, combo))
        if eval_prop(f, v, m) not in DESIGNATED:
            return False, v
    return True, None


def _schema(text: str) -> Formula:
    """Parse a propositional schema: bare atoms become formula metavariables."""
    f = parse_formula(text, None)

    def meta(g: Formula) -> Formula:
        if not isinstance(g, Pred) or g.args:
            raise ValueError("schema atom that is not a bare name: %s" % g)
        return FVar(g.name)

    return syntax.map_atoms(f, meta)


#: the twenty propositional axiom schemas, keyed by their usual names
PROP_AXIOMS: dict[str, Formula] = {
    "Ax1": _schema("a -> (b -> a)"),
    "Ax2": _schema("(a -> (b -> c)) -> ((a -> b) -> (a -> c))"),
    "Ax3": _schema("a -> (b -> (a & b))"),
    "Ax4": _schema("(a & b) -> a"),
    "Ax5": _schema("(a & b) -> b"),
    "Ax6": _schema("a -> (a | b)"),
    "Ax7": _schema("b -> (a | b)"),
    "Ax8": _schema("(a -> c) -> ((b -> c) -> ((a | b) -> c))"),
    "Ax9": _schema("(a -> b) | a"),
    "Ax10": _schema("a | ~a"),
    "bc1": _schema("@a -> (a -> (~a -> b))"),
    "ci": _schema("~@a -> (a & ~a)"),
    "cf": _schema("~~a -> a"),
    "ce": _schema("a -> ~~a"),
    "co1": _schema("(@a | @b) -> @(a & b)"),
    "co2": _schema("(@a | @b) -> @(a | b)"),
    "co3": _schema("(@a | @b) -> @(a -> b)"),
    "cr1": _schema("@(a & b) -> (@a | @b)"),
    "cr2": _schema("@(a | b) -> (@a | @b)"),
    "cr3": _schema("@(a -> b) -> (@a | @b)"),
}

#: derived theorem schemas, named after what they say
DERIVED_SCHEMAS: dict[str, Formula] = {
    "imp_refl": _schema("a -> a"),
    "strong_contrap": _schema("(a -> b) -> (!b -> !a)"),
    "incons_strongneg": _schema("(a & ~a) <-> !@a"),
    "incons_neg_cons": _schema("(a & ~a) <-> ~@a"),
    "cons_idem": _schema("@@a"),
    "cons_neg": _schema("@a <-> @~a"),
    "strongneg_and": _schema("(!a | !b) <-> !(a & b)"),
    "incons_and": _schema("((a & ~a) & (b & ~b)) <-> ((a & b) & ~(a & b))"),
    "cons_and": _schema(
        "((a & (b & @b)) | ((a & @a) & b)) <-> ((a & b) & @(a & b))"
    ),
    "cons_or": _schema(
        "((a & @a) | (b & @b) | ((a & ~a) & !b) | (!a & (b & ~b)))"
        " <-> ((a | b) & @(a | b))"
    ),
    "strongneg_or": _schema("(!a & !b) <-> !(a | b)"),
    "incons_or": _schema("((a & ~a) & (b & ~b)) <-> ((a | b) & ~(a | b))"),
    # a -> b equals 1 iff a is false, b is true, or a is true while b is
    # contradictory (1 -> 1/2 = 1); all three disjuncts are needed.
    "cons_imp": _schema(
        "(!a | (b & @b) | ((a & @a) & (b & ~b))) <-> ((a -> b) & @(a -> b))"
    ),
    "strongneg_imp": _schema("(a & !b) <-> !(a -> b)"),
    "incons_imp": _schema("((a & ~a) & (b & ~b)) <-> ((a -> b) & ~(a -> b))"),
}

NAMED_SCHEMAS: dict[str, Formula] = {**PROP_AXIOMS, **DERIVED_SCHEMAS}

