"""Triples over a finite carrier: 3-valued maps as (plus, minus, dot) partitions.

A triple splits a carrier X into the elements where a relation holds
(``plus``), fails (``minus``), and is dubious or contradictory (``dot``).

Every triple is two int bit masks, ``plus`` and ``minus``, over a
``CarrierIndex`` that numbers the carrier; ``dot`` is every other bit.  It
carries the three classes as frozensets too, decoded once per (index, masks)
and shared by every triple with those masks.  Triples over different indices
of one carrier are equal when their classes are.

``CarrierIndex`` owns the mask layout that every set-valued route shares:
``structures.formula_triple``, ``structures.MaskProgram`` and the lifted
quantifiers of ``twist``.  ``_masks`` reads (plus, minus) off truth values
listed in bit order.  Operations lift a 3-valued matrix's table over whole
masks: a class of the result is the union, over the value pairs the table
sends to it, of the intersections of the operands' classes (``_lift`` and
``_apply``).  Over the assignments of a frame, numbered in
``itertools.product`` order, a quantifier is one fibre step (``_fibre`` and
``_fibre_step``): the value-set rule applied along the quantified variable's
stride to every fibre at once.  The closed set formulas from the literature
serve as cross-check oracles in the tests.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Hashable

from .matrix3 import CIORE, HALF, ONE, VALUES, ZERO, Matrix

_set = object.__setattr__


def _types(x):
    """The type of ``x``, through tuples: ``(0, 1)`` gives ``(int, int)``."""
    return tuple(map(_types, x)) if type(x) is tuple else type(x)


def _type_faithful_cache(maxsize: int):
    """``functools.lru_cache`` keyed by the arguments and the type of each
    of their parts (``_types``): ``(0, 1)`` and ``(False, True)`` are equal
    and hash alike, but get entries of their own."""

    def decorate(fn):
        cached = functools.lru_cache(maxsize)(lambda args, _: fn(*args))
        return functools.wraps(fn)(lambda *args: cached(args, _types(args)))

    return decorate


class CarrierIndex:
    """A numbering of a carrier: ``elements[i]`` is bit ``i`` of a mask.

    ``CarrierIndex.of`` returns one shared index per element tuple, so
    triples over the same tuple combine and compare their masks directly;
    elements of different types, such as ``1`` and ``True``, never share one.
    """

    __slots__ = ("elements", "position", "carrier", "full")

    def __init__(self, elements: tuple):
        self.elements = elements
        self.position = {x: i for i, x in enumerate(elements)}
        if len(self.position) != len(elements):
            raise ValueError("carrier index repeats an element")
        self.carrier = frozenset(elements)
        self.full = (1 << len(elements)) - 1

    @staticmethod
    @_type_faithful_cache(maxsize=256)
    def of(elements: tuple) -> "CarrierIndex":
        """The shared index over ``elements``, in that order."""
        return CarrierIndex(elements)

    def encode(self, xs) -> int:
        """The mask of the elements ``xs``; ``KeyError`` for one outside the carrier."""
        position = self.position
        mask = 0
        for x in xs:
            mask |= 1 << position[x]
        return mask

    def decode(self, mask: int) -> frozenset:
        """The elements whose bits ``mask`` sets."""
        return frozenset(x for i, x in enumerate(self.elements) if mask >> i & 1)


@functools.lru_cache(maxsize=4096)
def _decode(index: CarrierIndex, plus: int, minus: int) -> tuple[frozenset, ...]:
    """The (plus, minus, dot) frozensets of a pair of masks over ``index``."""
    plus, minus = index.decode(plus), index.decode(minus)
    return plus, minus, index.carrier - plus - minus


def _partitions(index: CarrierIndex) -> list[tuple[int, int]]:
    """(plus, minus) of every split of the carrier into three classes: the
    elements sorted by ``str``, the first varying slowest, each in plus,
    then minus, then dot."""
    out = [(0, 0)]
    for x in sorted(index.elements, key=str):
        bit = index.encode((x,))
        out = [q for p, m in out for q in ((p | bit, m), (p, m | bit), (p, m))]
    return out


class Triple:
    """Three pairwise disjoint classes of a carrier; immutable and hashable.

    ``Triple(plus, minus, dot)`` builds one from disjoint classes over the
    index of the carrier sorted by ``str``; ``Triple.from_masks`` builds one
    from masks over a given ``CarrierIndex``.  Equality, hashing,
    ``value_at``, printing and pickling see only the classes, never the index.
    """

    __slots__ = ("plus", "minus", "dot", "index", "_masks")

    def __new__(cls, plus: frozenset, minus: frozenset, dot: frozenset):
        if plus & minus or plus & dot or minus & dot:
            raise ValueError("triple classes overlap: %s %s %s" % (plus, minus, dot))
        index = CarrierIndex.of(tuple(sorted(plus | minus | dot, key=str)))
        return Triple.from_masks(index, index.encode(plus), index.encode(minus))

    @staticmethod
    def from_masks(index: CarrierIndex, plus: int, minus: int) -> "Triple":
        """The triple whose plus and minus classes are the given masks."""
        t = object.__new__(Triple)
        t_plus, t_minus, t_dot = _decode(index, plus, minus)
        _set(t, "plus", t_plus)
        _set(t, "minus", t_minus)
        _set(t, "dot", t_dot)
        _set(t, "index", index)
        _set(t, "_masks", (plus, minus))
        return t

    @property
    def carrier(self) -> frozenset:
        return self.index.carrier

    def __hash__(self) -> int:
        return hash((self.plus, self.minus, self.dot))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable Triple" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable Triple" % name)

    def masks(self, index: CarrierIndex) -> tuple[int, int]:
        """(plus, minus) as masks over ``index``, which must number the carrier."""
        if self.index is index:
            return self._masks
        if self.carrier != index.carrier:
            raise ValueError("carrier mismatch: %s vs %s" % (index.carrier, self.carrier))
        return index.encode(self.plus), index.encode(self.minus)

    def __eq__(self, other):
        if type(other) is not Triple:
            return NotImplemented
        if self.index is other.index:
            return self._masks == other._masks
        return (self.plus, self.minus, self.dot) == (other.plus, other.minus, other.dot)

    def __reduce__(self):
        # an index is process-local; a pickle carries the classes only
        return (Triple, (self.plus, self.minus, self.dot))

    def __repr__(self) -> str:
        # each class sorted: a frozenset's own order depends on how it was built
        return "Triple(plus=%s, minus=%s, dot=%s)" % tuple(
            "frozenset({%s})" % ", ".join(sorted(map(repr, c))) if c else "frozenset()"
            for c in (self.plus, self.minus, self.dot)
        )

    def value_at(self, x: Hashable) -> Fraction:
        if x in self.plus:
            return ONE
        if x in self.minus:
            return ZERO
        if x in self.dot:
            return HALF
        raise KeyError("%r is not in the carrier" % (x,))

    def __str__(self) -> str:
        def fmt(s):
            return "{%s}" % ", ".join(sorted(map(str, s)))

        return "(%s, %s, %s)" % (fmt(self.plus), fmt(self.minus), fmt(self.dot))


def make_triple(plus, minus, dot) -> Triple:
    """``Triple`` of the three classes given as any iterables."""
    return Triple(frozenset(plus), frozenset(minus), frozenset(dot))


def _masks(values) -> tuple[int, int]:
    """(plus, minus) of truth values listed in bit order; any other value
    raises ``ValueError``."""
    plus = minus = 0
    for i, v in enumerate(values):
        if v == ONE:
            plus |= 1 << i
        elif v == ZERO:
            minus |= 1 << i
        elif v != HALF:
            raise ValueError("value %r at bit %d is not a truth value" % (v, i))
    return plus, minus


def triple_from_map(f: dict) -> Triple:
    """The triple of a map from carrier elements to truth values.

    The masks are over the shared index of the map's keys, in their order.
    """
    return Triple.from_masks(CarrierIndex.of(tuple(f)), *_masks(f.values()))


@functools.lru_cache(maxsize=64)
def _lift(m: Matrix, op: str) -> tuple[tuple, tuple]:
    """The operand class positions (in ``VALUES`` order) that the table of
    ``op`` sends to 1 and to 0: positions for a unary connective, position
    pairs for a binary one."""
    if op in ("~", "@"):
        table = m.unary.get(op)
        cells = [((i,), a) for i, a in enumerate(VALUES)]
    else:
        table = m.binary.get(op)
        cells = [
            ((i, j), (a, b)) for i, a in enumerate(VALUES) for j, b in enumerate(VALUES)
        ]
    if table is None:
        raise ValueError("matrix %s has no connective %r" % (m.name, op))
    ones, zeros = [], []
    for where, arg in cells:
        v = table[arg]
        if v == ONE:
            ones.append(where)
        elif v == ZERO:
            zeros.append(where)
        elif v != HALF:
            raise ValueError("table value %r at %r is not a truth value" % (v, arg))
    return tuple(ones), tuple(zeros)


def _apply(lift: tuple[tuple, tuple], full: int, r, u=None) -> tuple[int, int]:
    """The (plus, minus) masks of a connective whose ``_lift`` is ``lift``,
    applied to the (plus, minus) masks ``r`` (and ``u`` for a binary one)
    over the bits of ``full``."""
    ones, zeros = lift
    rp, rm = r
    R = (rp, full & ~(rp | rm), rm)  # the classes in VALUES order
    plus = minus = 0
    if u is None:
        for (i,) in ones:
            plus |= R[i]
        for (i,) in zeros:
            minus |= R[i]
    else:
        up, um = u
        U = (up, full & ~(up | um), um)
        for i, j in ones:
            plus |= R[i] & U[j]
        for i, j in zeros:
            minus |= R[i] & U[j]
    return plus, minus


@functools.lru_cache(maxsize=256)
def _fibre(n: int, k: int, pos: int, projected: bool) -> tuple[int, int, int]:
    """How a quantifier steps along its variable's fibres over n elements,
    where the variable is at ``pos`` of the body's k-variable frame: the
    variable's stride in ``itertools.product`` order, the mask of the points
    where it takes the first element, and the factor that copies such a
    point over its whole fibre.  A variable the result's frame lacks is
    first in the body's (``projected``); its first-element points are then
    the result's points, and the factor is 1."""
    stride = n ** (k - 1 - pos)
    period = stride * n
    base = sum(((1 << stride) - 1) << j for j in range(0, n**k, period))
    spread = 1 if projected else sum(1 << d for d in range(0, period, stride))
    return stride, base, spread


def _fibre_step(
    forall: bool, plus: int, minus: int, n: int, stride: int, base: int, spread: int
) -> tuple[int, int]:
    """A quantifier's (plus, minus) masks from its body's: the value-set
    rule of ``structures.tilde_forall`` or ``tilde_exists`` on every fibre
    at once, each fibre's points shifted onto its first-element point (see
    ``_fibre`` for the other arguments)."""
    some_p = plus
    some_m = every_m = minus
    for d in range(stride, n * stride, stride):
        some_p |= plus >> d
        some_m |= minus >> d
        every_m &= minus >> d
    if forall:
        # 0 if some variant is 0, else 1 if some variant is 1, else 1/2
        minus = some_m & base
        plus = some_p & base & ~minus
    else:
        # 0 if every variant is 0, 1/2 if every variant is 1/2, else 1
        minus = every_m & base
        plus = (some_p | some_m) & base & ~minus
    return plus * spread, minus * spread


def triple_op(op: str, r: Triple, u: Triple | None = None, m: Matrix = CIORE) -> Triple:
    """Apply a connective to triples by lifting the matrix table over masks.

    The result is over ``r``'s index; ``u`` must have the same carrier.
    """
    if op in ("~", "@"):
        if u is not None:
            raise ValueError("unary connective %r takes one triple" % op)
    elif op in ("&", "|", "->"):
        if u is None:
            raise ValueError("binary connective %r takes two triples" % op)
    else:
        raise ValueError("unknown connective %r" % op)
    index = r.index
    u_masks = None if u is None else u.masks(index)
    return Triple.from_masks(index, *_apply(_lift(m, op), index.full, r._masks, u_masks))


def all_triples(carrier) -> list[Triple]:
    """Every triple over the carrier, in ``_partitions`` order."""
    index = CarrierIndex.of(tuple(sorted(carrier, key=str)))
    return [Triple.from_masks(index, p, m) for p, m in _partitions(index)]
