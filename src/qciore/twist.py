"""Twist pairs and triples over finite powerset Boolean algebras.

Pairs (a, b) with a join b = 1 carry the connectives through Boolean
operations; triples (a, b, c) partition the base set.  The maps dagger and
ddagger translate between the two and are exact inverses.  Lifted
quantifier operators act on triples/pairs over the powerset algebra of an
assignment space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class PowersetAlgebra:
    """The Boolean algebra of all subsets of ``base``."""

    base: frozenset

    @property
    def top(self) -> frozenset:
        return self.base

    @property
    def bot(self) -> frozenset:
        return frozenset()

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def compl(self, a: frozenset) -> frozenset:
        return self.base - a

    def imp(self, a: frozenset, b: frozenset) -> frozenset:
        return (self.base - a) | b

    def check_element(self, a) -> frozenset:
        a = frozenset(a)
        if not a <= self.base:
            raise ValueError("%s is not a subset of the base %s" % (set(a), set(self.base)))
        return a


@dataclass(frozen=True)
class TwistPair:
    alg: PowersetAlgebra
    a: frozenset
    b: frozenset


@dataclass(frozen=True)
class TwistTriple:
    alg: PowersetAlgebra
    a: frozenset
    b: frozenset
    c: frozenset


def twist_pair(alg: PowersetAlgebra, a, b) -> TwistPair:
    a, b = alg.check_element(a), alg.check_element(b)
    if alg.join(a, b) != alg.top:
        raise ValueError("pair components must join to 1: %s, %s" % (set(a), set(b)))
    return TwistPair(alg, a, b)


def twist_triple(alg: PowersetAlgebra, a, b, c) -> TwistTriple:
    a, b, c = alg.check_element(a), alg.check_element(b), alg.check_element(c)
    if a & b or a & c or b & c:
        raise ValueError("triple components must have pairwise meet 0")
    if a | b | c != alg.top:
        raise ValueError("triple components must join to 1")
    return TwistTriple(alg, a, b, c)


def bot_pair(alg: PowersetAlgebra) -> TwistPair:
    return TwistPair(alg, alg.bot, alg.top)


def bot_triple(alg: PowersetAlgebra) -> TwistTriple:
    return TwistTriple(alg, alg.bot, alg.top, alg.bot)


def _check_same_algebra(z, w) -> PowersetAlgebra:
    if w is not None and z.alg != w.alg:
        raise ValueError("operands live over different algebras")
    return z.alg


def pair_op(op: str, z: TwistPair, w: TwistPair | None = None) -> TwistPair:
    """Connectives on twist pairs.

    The binary clauses share one shape: first component by the Boolean
    counterpart of the connective, second component ``first ⊃ (both
    operands two-sided)``, where z1 ⊓ z2 marks where an operand is
    two-sided (dubious).
    """
    A = _check_same_algebra(z, w)
    if op in ("~", "@"):
        if w is not None:
            raise ValueError("unary connective %r takes one pair" % op)
        if op == "~":
            return TwistPair(A, z.b, z.a)
        both = A.meet(z.a, z.b)
        return TwistPair(A, A.compl(both), both)
    if w is None:
        raise ValueError("binary connective %r takes two pairs" % op)
    if op == "&":
        first = A.meet(z.a, w.a)
    elif op == "|":
        first = A.join(z.a, w.a)
    elif op == "->":
        first = A.imp(z.a, w.a)
    else:
        raise ValueError("unknown connective %r" % op)
    both = A.meet(A.meet(z.a, z.b), A.meet(w.a, w.b))
    return TwistPair(A, first, A.imp(first, both))


def twist_triple_op(op: str, z: TwistTriple, w: TwistTriple | None = None) -> TwistTriple:
    """Connectives on twist triples ((plus, minus, dot) components)."""
    A = _check_same_algebra(z, w)
    if op in ("~", "@"):
        if w is not None:
            raise ValueError("unary connective %r takes one triple" % op)
        if op == "~":
            return TwistTriple(A, z.b, z.a, z.c)
        return TwistTriple(A, A.join(z.a, z.b), z.c, A.bot)
    if w is None:
        raise ValueError("binary connective %r takes two triples" % op)
    mt, jn = A.meet, A.join
    if op == "&":
        plus = jn(jn(mt(z.a, w.a), mt(z.a, w.c)), mt(z.c, w.a))
        minus = jn(z.b, w.b)
    elif op == "|":
        plus = jn(jn(z.a, w.a), jn(mt(z.b, w.c), mt(z.c, w.b)))
        minus = mt(z.b, w.b)
    elif op == "->":
        plus = jn(jn(z.b, mt(z.a, w.a)), jn(mt(z.a, w.c), mt(z.c, w.a)))
        minus = mt(jn(z.a, z.c), w.b)
    else:
        raise ValueError("unknown connective %r" % op)
    return TwistTriple(A, plus, minus, mt(z.c, w.c))


def dagger(z: TwistTriple) -> TwistPair:
    """Collapse a triple to a pair: (plus or dot, minus or dot)."""
    A = z.alg
    return TwistPair(A, A.join(z.a, z.c), A.join(z.b, z.c))


def ddagger(p: TwistPair) -> TwistTriple:
    """Split a pair back into a triple; inverse of dagger."""
    A = p.alg
    return TwistTriple(
        A,
        A.meet(p.a, A.compl(p.b)),
        A.meet(p.b, A.compl(p.a)),
        A.meet(p.a, p.b),
    )


def all_twist_triples(alg: PowersetAlgebra) -> list[TwistTriple]:
    out = []
    items = sorted(alg.base, key=str)
    for combo in itertools.product(range(3), repeat=len(items)):
        parts: list[set] = [set(), set(), set()]
        for x, k in zip(items, combo):
            parts[k].add(x)
        out.append(
            TwistTriple(alg, frozenset(parts[0]), frozenset(parts[1]), frozenset(parts[2]))
        )
    return out


def all_twist_pairs(alg: PowersetAlgebra) -> list[TwistPair]:
    return [dagger(z) for z in all_twist_triples(alg)]


# ---------------------------------------------------------------------------
# Lifted quantifiers over an assignment space


@dataclass(frozen=True)
class AssignmentSpace:
    """All assignments of a finite domain to a fixed frame of variables.

    An assignment is a tuple of domain elements aligned with ``frame``.
    """

    frame: tuple[str, ...]
    domain: tuple

    def __post_init__(self):
        if len(set(self.frame)) != len(self.frame):
            raise ValueError("frame repeats a variable")
        if not self.domain:
            raise ValueError("domain must be nonempty")

    @cached_property
    def assignments(self) -> frozenset:
        return frozenset(itertools.product(self.domain, repeat=len(self.frame)))

    @cached_property
    def algebra(self) -> PowersetAlgebra:
        return PowersetAlgebra(self.assignments)

    def update(self, s: tuple, x: str, a) -> tuple:
        i = self.frame.index(x)
        return s[:i] + (a,) + s[i + 1 :]

    def hat_exists(self, x: str, Y: frozenset) -> frozenset:
        """Assignments with some x-variant inside Y."""
        return frozenset(
            s
            for s in self.assignments
            if any(self.update(s, x, a) in Y for a in self.domain)
        )

    def hat_forall(self, x: str, Y: frozenset) -> frozenset:
        """Assignments with every x-variant inside Y."""
        return frozenset(
            s
            for s in self.assignments
            if all(self.update(s, x, a) in Y for a in self.domain)
        )


def lifted_quantifier(kind: str, representation: str, x: str, space: AssignmentSpace, z):
    """Apply the lifted quantifier to a triple or pair over ``space``.

    ``kind`` is "forall" or "exists"; ``representation`` "T" (triples) or
    "P" (pairs).  With Â = ``hat_forall`` and Ê = ``hat_exists``, the pair
    forms are ∀x(a, b) = (Â a, Ê(b∖a) ∪ Â(a∩b)) and ∃x(a, b) = (Ê a,
    Â(b∖a) ∪ Â(a∩b)): the triple forms conjugated by dagger/ddagger.
    """
    if x not in space.frame:
        raise ValueError("variable %r is not in the frame %s" % (x, space.frame))
    if kind not in ("forall", "exists"):
        raise ValueError("kind must be 'forall' or 'exists', not %r" % kind)
    alg = space.algebra
    if representation == "P":
        if not isinstance(z, TwistPair) or z.alg != alg:
            raise ValueError("expected a pair over the assignment-space algebra")
        a, b = z.a, z.b
        all_dot = space.hat_forall(x, a & b)
        if kind == "forall":
            return TwistPair(alg, space.hat_forall(x, a), space.hat_exists(x, b - a) | all_dot)
        return TwistPair(alg, space.hat_exists(x, a), space.hat_forall(x, b - a) | all_dot)
    if representation != "T":
        raise ValueError("representation must be 'T' or 'P', not %r" % representation)
    if not isinstance(z, TwistTriple) or z.alg != alg:
        raise ValueError("expected a triple over the assignment-space algebra")
    S = space.assignments
    if kind == "forall":
        some_plus = space.hat_exists(x, z.a)
        some_minus = space.hat_exists(x, z.b)
        all_dot = space.hat_forall(x, z.c)
        return TwistTriple(alg, some_plus - some_minus, some_minus, all_dot)
    all_minus = space.hat_forall(x, z.b)
    all_dot = space.hat_forall(x, z.c)
    return TwistTriple(alg, S - (all_minus | all_dot), all_minus, all_dot)
