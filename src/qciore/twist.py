"""Twist pairs and triples over finite powerset Boolean algebras.

Pairs (a, b) with a join b = 1 carry the connectives through Boolean
operations; triples (a, b, c) partition the base set.  The maps dagger and
ddagger translate between the two and are exact inverses.  Components are
held as int bit masks over ``alg.index``.  The connectives and dagger are
bitwise, with ``alg.index.full`` their one constant, so they also act
lane-wise on packed elements (many elements side by side in one int).  Lifted quantifier operators act
on triples/pairs over the powerset algebra of an assignment space, whose
masks are in ``triples``' layout: a quantifier's fibres are those of
``triples._fibre``, and the triple form and the hat operators are its
``triples._fibre_step``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property

from . import triples
from .triples import CarrierIndex

_new = tuple.__new__


@dataclass(frozen=True)
class PowersetAlgebra:
    """The Boolean algebra of all subsets of ``base``, its ``index`` numbering the
    base in ``order`` (default: sorted by ``str``), part of the algebra's identity."""

    base: frozenset
    order: tuple = field(default=None, repr=False)
    index: CarrierIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = tuple(sorted(self.base, key=str)) if self.order is None else self.order
        index = CarrierIndex(order)  # rejects an order that repeats an element
        if index.carrier != self.base:
            raise ValueError("order %s does not number the base %s" % (order, set(self.base)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "index", index)

    def encode(self, a) -> int:
        return self.index.encode(self.check_element(a))

    @property
    def top(self) -> frozenset:
        return self.base

    def check_element(self, a) -> frozenset:
        a = frozenset(a)
        if not a <= self.base:
            raise ValueError("%s is not a subset of the base %s" % (set(a), set(self.base)))
        return a


class _Element(tuple):
    """``(alg, mask, ...)``, equal only to its own type over an equal algebra."""

    __slots__ = ()
    alg = property(operator.itemgetter(0))
    __hash__ = tuple.__hash__

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields, 1):  # .a, .b, .c decode the masks
            setattr(cls, name, property(lambda self, i=i: self[0].index.decode(self[i])))

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    def __reduce__(self):
        return type(self), (self[0], *map(self[0].index.decode, self[1:]))

    def __repr__(self) -> str:
        fields = "".join(", %s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(alg=%r%s)" % (type(self).__name__, self[0], fields)


class TwistPair(_Element):
    __slots__ = ()
    _fields = ("a", "b")

    def __new__(cls, alg: PowersetAlgebra, a, b):
        return _new(cls, (alg, alg.encode(a), alg.encode(b)))


class TwistTriple(_Element):
    __slots__ = ()
    _fields = ("a", "b", "c")

    def __new__(cls, alg: PowersetAlgebra, a, b, c):
        return _new(cls, (alg, alg.encode(a), alg.encode(b), alg.encode(c)))


def twist_pair(alg: PowersetAlgebra, a, b) -> TwistPair:
    a, b = alg.check_element(a), alg.check_element(b)
    if a | b != alg.top:
        raise ValueError("pair components must join to 1: %s, %s" % (set(a), set(b)))
    return TwistPair(alg, a, b)


def twist_triple(alg: PowersetAlgebra, a, b, c) -> TwistTriple:
    a, b, c = alg.check_element(a), alg.check_element(b), alg.check_element(c)
    if a & b or a & c or b & c:
        raise ValueError("triple components must have pairwise meet 0")
    if a | b | c != alg.top:
        raise ValueError("triple components must join to 1")
    return TwistTriple(alg, a, b, c)


def pair_op(op: str, z: TwistPair, w: TwistPair | None = None) -> TwistPair:
    """Connectives on twist pairs.

    The binary clauses share one shape: first component by the Boolean
    counterpart of the connective, second component ``first ⊃ (both
    operands two-sided)``, where z1 ⊓ z2 marks where an operand is
    two-sided (dubious).
    """
    A, za, zb = z
    full = A.index.full
    if op in ("~", "@"):
        if w is not None:
            raise ValueError("unary connective %r takes one pair" % op)
        if op == "~":
            return _new(TwistPair, (A, zb, za))
        both = za & zb
        return _new(TwistPair, (A, full & ~both, both))
    if w is None:
        raise ValueError("binary connective %r takes two pairs" % op)
    B, wa, wb = w
    if B is not A and B != A:
        raise ValueError("operands live over different algebras")
    if op == "&":
        first = za & wa
    elif op == "|":
        first = za | wa
    elif op == "->":
        first = (full & ~za) | wa
    else:
        raise ValueError("unknown connective %r" % op)
    return _new(TwistPair, (A, first, (full & ~first) | (za & zb & wa & wb)))


def twist_triple_op(op: str, z: TwistTriple, w: TwistTriple | None = None) -> TwistTriple:
    """Connectives on twist triples ((plus, minus, dot) components)."""
    A, za, zb, zc = z
    if op in ("~", "@"):
        if w is not None:
            raise ValueError("unary connective %r takes one triple" % op)
        if op == "~":
            return _new(TwistTriple, (A, zb, za, zc))
        return _new(TwistTriple, (A, za | zb, zc, 0))
    if w is None:
        raise ValueError("binary connective %r takes two triples" % op)
    B, wa, wb, wc = w
    if B is not A and B != A:
        raise ValueError("operands live over different algebras")
    if op == "&":
        plus = (za & wa) | (za & wc) | (zc & wa)
        minus = zb | wb
    elif op == "|":
        plus = za | wa | (zb & wc) | (zc & wb)
        minus = zb & wb
    elif op == "->":
        plus = zb | (za & wa) | (za & wc) | (zc & wa)
        minus = (za | zc) & wb
    else:
        raise ValueError("unknown connective %r" % op)
    return _new(TwistTriple, (A, plus, minus, zc & wc))


def dagger(z: TwistTriple) -> TwistPair:
    """Collapse a triple to a pair: (plus or dot, minus or dot)."""
    A, a, b, c = z
    return _new(TwistPair, (A, a | c, b | c))


def ddagger(p: TwistPair) -> TwistTriple:
    """Split a pair back into a triple; inverse of dagger."""
    A, a, b = p
    return _new(TwistTriple, (A, a & ~b, b & ~a, a & b))


def all_twist_triples(alg: PowersetAlgebra) -> list[TwistTriple]:
    full = alg.index.full
    return [
        _new(TwistTriple, (alg, p, m, full & ~(p | m)))
        for p, m in triples._partitions(alg.index)
    ]


def all_twist_pairs(alg: PowersetAlgebra) -> list[TwistPair]:
    return [dagger(z) for z in all_twist_triples(alg)]


# ---------------------------------------------------------------------------
# Lifted quantifiers over an assignment space


@dataclass(frozen=True)
class AssignmentSpace:
    """All assignments of a finite domain to a fixed frame of variables.

    An assignment is a tuple of domain elements aligned with ``frame``; the
    algebra numbers them in ``itertools.product`` order.
    """

    frame: tuple[str, ...]
    domain: tuple

    def __post_init__(self):
        if len(set(self.frame)) != len(self.frame):
            raise ValueError("frame repeats a variable")
        if not self.domain:
            raise ValueError("domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain repeats an element")

    @cached_property
    def algebra(self) -> PowersetAlgebra:
        order = tuple(itertools.product(self.domain, repeat=len(self.frame)))
        return PowersetAlgebra(frozenset(order), order)

    @property
    def assignments(self) -> frozenset:
        return self.algebra.base

    def _layout(self, x: str) -> tuple[int, int, int, int]:
        """The arguments of ``triples._fibre_step`` after the masks for a
        quantifier over ``x``; a variable outside the frame is refused."""
        if x not in self.frame:
            raise ValueError("variable %r is not in the frame %s" % (x, self.frame))
        n = len(self.domain)
        return (n, *triples._fibre(n, len(self.frame), self.frame.index(x), False))

    def hat_exists(self, x: str, Y: int) -> int:
        """Assignments (a mask over the algebra) with some x-variant inside Y."""
        return triples._fibre_step(False, Y, 0, *self._layout(x))[0]

    def hat_forall(self, x: str, Y: int) -> int:
        """Assignments (a mask over the algebra) with every x-variant inside Y."""
        return triples._fibre_step(False, 0, Y, *self._layout(x))[1]


def lifted_quantifier(kind: str, representation: str, x: str, space: AssignmentSpace, z):
    """Apply the lifted quantifier to a triple or pair over ``space``.

    ``kind`` is "forall" or "exists"; ``representation`` "T" (triples) or
    "P" (pairs).  The triple form is the value-set rule on every x-fibre,
    one ``triples._fibre_step``.  With Â = ``hat_forall`` and Ê =
    ``hat_exists``, the pair forms are ∀x(a, b) = (Â a, Ê(b∖a) ∪ Â(a∩b))
    and ∃x(a, b) = (Ê a, Â(b∖a) ∪ Â(a∩b)): the triple forms conjugated by
    dagger/ddagger.
    """
    layout = space._layout(x)
    if kind not in ("forall", "exists"):
        raise ValueError("kind must be 'forall' or 'exists', not %r" % kind)
    alg, E, A = space.algebra, space.hat_exists, space.hat_forall
    if representation not in ("T", "P"):
        raise ValueError("representation must be 'T' or 'P', not %r" % representation)
    pairs = representation == "P"
    if not isinstance(z, TwistPair if pairs else TwistTriple) or z.alg != alg:
        raise ValueError("expected a %s over the assignment-space algebra"
                         % ("pair" if pairs else "triple"))
    if pairs:
        a, b = z[1:]
        all_dot = A(x, a & b)
        if kind == "forall":
            return _new(TwistPair, (alg, A(x, a), E(x, b & ~a) | all_dot))
        return _new(TwistPair, (alg, E(x, a), A(x, b & ~a) | all_dot))
    plus, minus = triples._fibre_step(kind == "forall", z[1], z[2], *layout)
    return _new(TwistTriple, (alg, plus, minus, alg.index.full & ~(plus | minus)))
