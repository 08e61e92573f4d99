"""Substructures, bounded elementarity, and the witness conditions.

A substructure shares the ambient interpretation on its own elements:
constants agree, functions restrict, and all three predicate classes
restrict.  The four witness conditions (TC1-TC4) localize quantifier values
in the big structure to witnesses drawn from the small one; they pass
exactly when every quantified value over the pool is already justified
inside the substructure.  Bounded elementarity compares values formula by
formula up to a depth; bounded equivalence compares sentence verdicts only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import structures, triples
from .matrix3 import HALF, ONE, ZERO
from .structures import (
    Assignment,
    Structure,
    assignments_over,
    eval_formula,
    make_structure,
    sentence_trichotomy,
)
from .syntax import Exists, Forall, Formula, enumerate_formulas, free_vars
from .triples import make_triple

# ---------------------------------------------------------------------------
# Substructures


def _restrictions(B: Structure, domain: tuple):
    """Each symbol's interpretation in B cut to ``domain``, as (``Structure``
    field, name, value) in ``structures._parts`` order: a predicate's plus,
    minus and dot classes, each to the tuples over ``domain``; a function's
    table, to its arguments over ``domain``; a constant, as it is."""
    for part, name, arity in structures._parts(B.sig):
        value = getattr(B, part)[name]
        if part == "preds":
            # B's own tuples: the cached domain^arity may hold equal elements
            # of another type, such as 1 for True
            tuples = structures._tuples_over(domain, arity)
            value = tuple(frozenset(filter(tuples.__contains__, c))
                          for c in (value.plus, value.minus, value.dot))
        elif part == "funs":
            value = {args: value[args] for args in itertools.product(domain, repeat=arity)}
        yield part, name, value


def is_substructure(A: Structure, B: Structure) -> tuple[bool, str | None]:
    """Whether A is a substructure of B; on failure, the first violation, in
    ``structures._parts`` order."""
    if A.sig != B.sig:
        return False, "signatures differ"
    big = set(B.domain)
    for d in A.domain:
        if d not in big:
            return False, "domain element %s is not in the larger structure" % d
    for part, name, cut in _restrictions(B, A.domain):
        mine = getattr(A, part)[name]
        if part == "preds":
            for cls, large in zip(("plus", "minus", "dot"), cut):
                if getattr(mine, cls) != large:
                    return False, "predicate %s: %s class does not restrict" % (name, cls)
        elif part == "funs":
            for args, value in cut.items():
                if mine[args] != value:
                    return False, "function %s disagrees at %s" % (name, (args,))
        elif mine != cut:
            return False, "constant %s: %s != %s" % (name, mine, cut)
    return True, None


def induced_substructure(B: Structure, subdomain) -> Structure:
    """The substructure of B on the given elements.

    Raises ValueError if the elements are not a nonempty subset of the
    domain closed under the functions and containing every constant; the
    first symbol at fault is named, in ``structures._parts`` order.
    """
    keep = set(subdomain)
    if not keep:
        raise ValueError("subdomain is empty")
    stray = keep - set(B.domain)
    if stray:
        raise ValueError("subdomain elements not in the domain: %s" % sorted(stray))
    domain = tuple(d for d in B.domain if d in keep)
    parts: dict = {"preds": {}, "funs": {}, "consts": {}}
    for part, name, cut in _restrictions(B, domain):
        if part == "preds":
            cut = make_triple(*cut)
        elif part == "funs":
            for args, value in cut.items():
                if value not in keep:
                    raise ValueError(
                        "subdomain is not closed under %s: %s -> %s" % (name, args, value)
                    )
        elif cut not in keep:
            raise ValueError("constant %s lies outside the subdomain" % name)
        parts[part][name] = cut
    return make_structure(B.sig, domain, **parts)


# ---------------------------------------------------------------------------
# Witness conditions


@dataclass(frozen=True)
class TarskiViolation:
    condition: str  # "TC1" .. "TC4"
    variable: str
    formula: Formula  # the quantified formula whose value lacks a witness
    assignment: Assignment
    detail: str


def tarski_conditions(
    A: Structure, B: Structure, formulas, variables: tuple[str, ...] | None = None
) -> list[TarskiViolation]:
    """Check the four quantifier witness conditions for A inside B.

    For every formula phi in the pool, bound variable x (``variables``,
    distinct names; by default the pool's free variables, or x), and
    assignment into the small structure over the frame of the sorted
    ``variables`` and the pool's free variables:

      TC1  if (exists x. phi) has value 1 in B, some a in A keeps phi off
           value 0 and some b in A keeps it off value 1/2;
      TC2  if (exists x. phi) has value other than 1/2 in B, some a in A
           gives phi a value other than 1/2;
      TC3  if (forall x. phi) has value 1 in B, some a in A gives phi 1;
      TC4  if (forall x. phi) has value 0 in B, some a in A gives phi 0.

    When A's domain is all of B's, A interprets everything as B does and
    every witness in B is in A: once the inputs, the pool included, are
    checked, the answer is ``[]``.  Otherwise the pool is compiled once into a
    ``structures.MaskProgram`` at the frame and run on B, from atom masks
    read pointwise by ``eval_formula``.  Formula j's masks over the n**k
    points of the frame are lane j, ``width`` = ceil(n**k / 8) whole bytes
    from byte j * width, of one (plus, minus) pair of ints for the pool,
    packed and cut apart through ``bytes``.  A lane is a whole number of
    fibre periods, so a fibre step along x (``triples._fibre_step``, with
    the fibre's ``base`` and the A-point masks copied into every lane) never
    crosses one: both quantifiers over phi, and the witnesses in A on phi's
    classes masked to the points whose x lies in A, are six steps per x for
    the whole pool.  Each condition's violations are then one mask, read at
    the points of A's assignments in the lanes of the formulas with any.

    Returns the violations found (empty list = all conditions hold), by
    assignment in ``assignments_over`` order, then by formula, variable and
    condition.
    """
    ok, why = is_substructure(A, B)
    if not ok:
        raise ValueError("not a substructure: %s" % why)
    formulas = list(formulas)
    B.sig.check_concrete(formulas, "tarski_conditions")
    if variables is not None and len(set(variables)) != len(variables):
        raise ValueError("variables repeat a name: %s" % (tuple(variables),))
    if set(A.domain) == set(B.domain):
        return []
    used = set().union(*map(free_vars, formulas))  # only the mask route needs them
    if variables is None:
        variables = tuple(sorted(used)) or ("x",)
    frame = tuple(sorted(used.union(variables)))
    program = structures.MaskProgram()
    at = [program.add(phi, frame) for phi in formulas]

    def leaf(f, leaf_frame):
        return triples._masks(eval_formula(f, B, s) for s in assignments_over(B, leaf_frame))

    n, k = len(B.domain), len(frame)
    values = program.run(n, leaf)
    width = (n**k + 7) // 8
    size = width * len(formulas)

    def pack(masks) -> int:
        return int.from_bytes(b"".join(m.to_bytes(width, "little") for m in masks), "little")

    rep = int.from_bytes((b"\1" + bytes(width - 1)) * len(formulas), "little")
    full = ((1 << n**k) - 1) * rep
    plus, minus = (pack(values[i][c] for i in at) for c in (0, 1))
    half = full & ~(plus | minus)
    # per frame variable, its fibre layout and the points where it lies in A;
    # the points of A's assignments are where every variable does
    position = {e: i for i, e in enumerate(B.domain)}
    layout, inside = {}, {}
    points = full
    for p, v in enumerate(frame):
        stride, base, _ = layout[v] = triples._fibre(n, k, p, False)
        inside[v] = sum(base << position[a] * stride for a in A.domain) * rep
        points &= inside[v]
    step = triples._fibre_step
    lanes, flagged = {}, 0  # per variable, the bytes of exists' plus and TC1-TC4
    for x in variables:
        stride, base, spread = layout[x]
        fibre = (n, stride, base * rep, spread)
        within, outside = inside[x], full & ~inside[x]
        ex_plus, ex_minus = step(False, plus, minus, *fibre)
        fa_plus, fa_minus = step(True, plus, minus, *fibre)
        # each condition's points lacking witnesses in A, where it applies:
        # every witness 1/2 or 0 (TC1, TC2), none 1 (TC3), none 0 (TC4)
        every_half = step(False, 0, half | outside, *fibre)[1]
        every_zero = step(False, 0, minus | outside, *fibre)[1]
        tcs = [
            ex_plus & (every_zero | every_half),
            (ex_plus | ex_minus) & every_half,
            fa_plus & ~step(False, plus & within, 0, *fibre)[0],
            fa_minus & ~step(False, minus & within, 0, *fibre)[0],
        ]
        tcs = [m & points for m in tcs]
        flagged |= tcs[0] | tcs[1] | tcs[2] | tcs[3]
        lanes[x] = [m.to_bytes(size, "little") for m in [ex_plus] + tcs]
    found = []  # (phi, x, its masks, exists' plus mask, TC1-TC4 masks)
    hit, none = flagged.to_bytes(size, "little"), bytes(width)
    for j, (phi, i) in enumerate(zip(formulas, at)):
        cut = slice(j * width, (j + 1) * width)
        if hit[cut] == none:
            continue
        for x in variables:
            ex_plus, *tcs = [int.from_bytes(raw[cut], "little") for raw in lanes[x]]
            if any(tcs):
                found.append((phi, x, values[i], ex_plus, tcs))
    violations = []
    for s in assignments_over(A, frame) if found else ():
        # s's bit in B's layout: A's domain order need not be B's
        bit = sum(position[e] * layout[v][0] for v, e in s.pairs)
        for phi, x, masks, ex_plus, tcs in found:
            hits = [c for c, m in enumerate(tcs) if m >> bit & 1]
            if not hits:
                continue
            # phi's values at s's x-variants, on x's fibre through s
            stride = layout[x][0]
            first = bit - position[s.get(x)] * stride
            shown = _show({a: _value(masks, first + position[a] * stride) for a in A.domain})
            details = (
                "value 1 but witnesses off 0 and off 1/2 are missing: %s" % shown,
                "value %s but every witness is 1/2" % (ONE if ex_plus >> bit & 1 else ZERO),
                "value 1 but no witness has value 1: %s" % shown,
                "value 0 but no witness has value 0: %s" % shown,
            )
            for c in hits:
                quantified = Forall(x, phi) if c >= 2 else Exists(x, phi)
                violations.append(
                    TarskiViolation("TC%d" % (c + 1), x, quantified, s, details[c])
                )
    return violations


def _value(masks: tuple[int, int], bit: int):
    """The truth value at ``bit`` of (plus, minus) masks."""
    plus, minus = masks
    return ONE if plus >> bit & 1 else ZERO if minus >> bit & 1 else HALF


def _show(body: dict) -> str:
    return ", ".join("%s:%s" % (a, v) for a, v in sorted(body.items()))


# ---------------------------------------------------------------------------
# Bounded elementarity and equivalence


def elementary_sub_bounded(
    A: Structure,
    B: Structure,
    max_depth: int,
    variables: tuple[str, ...] = ("x",),
):
    """Value agreement between A and B on all formulas up to a depth.

    Assignments range over the small structure.  Returns (True, None) or
    (False, (formula, assignment, value in A, value in B)).  When A's domain
    is all of B's, A interprets everything as B does, so the answer is
    (True, None) once the inputs are checked.
    """
    ok, why = is_substructure(A, B)
    if not ok:
        raise ValueError("not a substructure: %s" % why)
    pool = enumerate_formulas(A.sig, variables, max_depth)
    if set(A.domain) == set(B.domain):
        next(pool, None)  # the generator checks the variables and the depth
        return True, None
    pool = list(pool)
    frame = tuple(sorted(variables))
    memo_a: dict = {}
    memo_b: dict = {}
    for s in assignments_over(A, frame):
        for f in pool:
            va = eval_formula(f, A, s, memo_a)
            vb = eval_formula(f, B, s, memo_b)
            if va != vb:
                return False, (f, s, va, vb)
    return True, None


def elementary_equiv_bounded(
    A: Structure,
    B: Structure,
    max_depth: int,
    variables: tuple[str, ...] = ("x",),
):
    """Sentence-verdict agreement up to a depth.

    Compares the POS/NEG/BOTH verdict of every sentence in the depth-bounded
    pool.  Returns (True, None) or (False, separating sentence); (True, None)
    when A == B, once the inputs are checked.
    """
    if A.sig != B.sig:
        raise ValueError("signatures differ")
    pool = enumerate_formulas(A.sig, variables, max_depth)
    if A == B:
        next(pool, None)  # the generator checks the variables and the depth
        return True, None
    for f in pool:
        if free_vars(f):
            continue
        if sentence_trichotomy(f, A) != sentence_trichotomy(f, B):
            return False, f
    return True, None
