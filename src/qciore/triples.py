"""Triples over a finite carrier: 3-valued maps as (plus, minus, dot) partitions.

A triple splits a carrier X into the elements where a relation holds
(``plus``), fails (``minus``), and is dubious or contradictory (``dot``).
Operations are the pointwise lift of a 3-valued matrix; the closed set
formulas from the literature serve as cross-check oracles in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable

from .matrix3 import CIORE, HALF, ONE, ZERO, Matrix


@dataclass(frozen=True)
class Triple:
    plus: frozenset
    minus: frozenset
    dot: frozenset

    @cached_property
    def carrier(self) -> frozenset:
        return self.plus | self.minus | self.dot

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
    """Build a triple, insisting the three classes are pairwise disjoint."""
    plus, minus, dot = frozenset(plus), frozenset(minus), frozenset(dot)
    if plus & minus or plus & dot or minus & dot:
        raise ValueError("triple classes overlap: %s %s %s" % (plus, minus, dot))
    return Triple(plus, minus, dot)


def triple_from_map(f: dict) -> Triple:
    plus, minus, dot = set(), set(), set()
    for x, v in f.items():
        if v == ONE:
            plus.add(x)
        elif v == ZERO:
            minus.add(x)
        elif v == HALF:
            dot.add(x)
        else:
            raise ValueError("map value %r at %r is not a truth value" % (v, x))
    return Triple(frozenset(plus), frozenset(minus), frozenset(dot))


def triple_to_map(r: Triple) -> dict:
    out = {}
    for x in r.plus:
        out[x] = ONE
    for x in r.minus:
        out[x] = ZERO
    for x in r.dot:
        out[x] = HALF
    return out


def triple_op(op: str, r: Triple, u: Triple | None = None, m: Matrix = CIORE) -> Triple:
    """Apply a connective to triples by lifting the matrix table pointwise."""
    if op in ("~", "@"):
        if u is not None:
            raise ValueError("unary connective %r takes one triple" % op)
        table = m.unary.get(op)
        if table is None:
            raise ValueError("matrix %s has no connective %r" % (m.name, op))
        return triple_from_map({x: table[r.value_at(x)] for x in r.carrier})
    if op in ("&", "|", "->"):
        if u is None:
            raise ValueError("binary connective %r takes two triples" % op)
        if r.carrier != u.carrier:
            raise ValueError("carrier mismatch: %s vs %s" % (r.carrier, u.carrier))
        table = m.binary.get(op)
        if table is None:
            raise ValueError("matrix %s has no connective %r" % (m.name, op))
        return triple_from_map(
            {x: table[(r.value_at(x), u.value_at(x))] for x in r.carrier}
        )
    raise ValueError("unknown connective %r" % op)


def all_triples(carrier) -> list[Triple]:
    """Every triple over the carrier, in a deterministic order."""
    items = sorted(carrier, key=str)
    out = []

    def rec(i, plus, minus, dot):
        if i == len(items):
            out.append(
                Triple(frozenset(plus), frozenset(minus), frozenset(dot))
            )
            return
        x = items[i]
        rec(i + 1, plus + [x], minus, dot)
        rec(i + 1, plus, minus + [x], dot)
        rec(i + 1, plus, minus, dot + [x])

    rec(0, [], [], [])
    return out
