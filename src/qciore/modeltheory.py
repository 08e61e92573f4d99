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
from .triples import Triple, make_triple

# ---------------------------------------------------------------------------
# Substructures


def is_substructure(A: Structure, B: Structure) -> tuple[bool, str | None]:
    """Whether A is a substructure of B; on failure, the first violation."""
    if A.sig != B.sig:
        return False, "signatures differ"
    big = set(B.domain)
    for d in A.domain:
        if d not in big:
            return False, "domain element %s is not in the larger structure" % d
    for c in sorted(A.consts):
        if A.consts[c] != B.consts[c]:
            return False, "constant %s: %s != %s" % (c, A.consts[c], B.consts[c])
    for fname in sorted(A.funs):
        arity = A.sig.functions[fname]
        for args in itertools.product(A.domain, repeat=arity):
            if A.funs[fname][args] != B.funs[fname][args]:
                return False, "function %s disagrees at %s" % (fname, (args,))
    for pname in sorted(A.preds):
        arity = 2 if pname == "=" else A.sig.predicates[pname]
        tuples = set(itertools.product(A.domain, repeat=arity))
        small, large = A.preds[pname], B.preds[pname]
        for cls in ("plus", "minus", "dot"):
            if getattr(small, cls) != getattr(large, cls) & tuples:
                return False, "predicate %s: %s class does not restrict" % (
                    pname,
                    cls,
                )
    return True, None


def induced_substructure(B: Structure, subdomain) -> Structure:
    """The substructure of B on the given elements.

    Raises ValueError if the elements are not a nonempty subset of the
    domain closed under the functions and containing every constant.
    """
    keep = set(subdomain)
    if not keep:
        raise ValueError("subdomain is empty")
    stray = keep - set(B.domain)
    if stray:
        raise ValueError("subdomain elements not in the domain: %s" % sorted(stray))
    domain = tuple(d for d in B.domain if d in keep)
    for c, e in sorted(B.consts.items()):
        if e not in keep:
            raise ValueError("constant %s lies outside the subdomain" % c)
    funs = {}
    for fname, table in B.funs.items():
        arity = B.sig.functions[fname]
        restricted = {}
        for args in itertools.product(domain, repeat=arity):
            value = table[args]
            if value not in keep:
                raise ValueError(
                    "subdomain is not closed under %s: %s -> %s"
                    % (fname, args, value)
                )
            restricted[args] = value
        funs[fname] = restricted
    preds = {}
    for pname, triple in B.preds.items():
        arity = 2 if pname == "=" else B.sig.predicates[pname]
        tuples = set(itertools.product(domain, repeat=arity))
        preds[pname] = make_triple(
            triple.plus & tuples, triple.minus & tuples, triple.dot & tuples
        )
    return make_structure(B.sig, domain, preds, funs, dict(B.consts))


def rename_structure(A: Structure, mapping: dict) -> Structure:
    """Copy A along a bijection of its domain."""
    if set(mapping) != set(A.domain):
        raise ValueError("mapping keys must be exactly the domain")
    if len(set(mapping.values())) != len(A.domain):
        raise ValueError("mapping is not injective")

    def m(t):
        return tuple(mapping[e] for e in t)

    domain = tuple(mapping[d] for d in A.domain)
    preds = {
        name: Triple(
            frozenset(m(t) for t in tri.plus),
            frozenset(m(t) for t in tri.minus),
            frozenset(m(t) for t in tri.dot),
        )
        for name, tri in A.preds.items()
    }
    funs = {
        name: {m(args): mapping[val] for args, val in table.items()}
        for name, table in A.funs.items()
    }
    consts = {name: mapping[val] for name, val in A.consts.items()}
    return make_structure(A.sig, domain, preds, funs, consts)


def union_of_chain(chain) -> Structure:
    """The union of a finite chain of substructures (its last element)."""
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    for small, big in zip(chain, chain[1:]):
        ok, why = is_substructure(small, big)
        if not ok:
            raise ValueError("not a chain: %s" % why)
    return chain[-1]


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

    For every formula phi in the pool, bound variable x, and assignment
    into the small structure:

      TC1  if (exists x. phi) has value 1 in B, some a in A keeps phi off
           value 0 and some b in A keeps it off value 1/2;
      TC2  if (exists x. phi) has value other than 1/2 in B, some a in A
           gives phi a value other than 1/2;
      TC3  if (forall x. phi) has value 1 in B, some a in A gives phi 1;
      TC4  if (forall x. phi) has value 0 in B, some a in A gives phi 0.

    Returns the violations found (empty list = all conditions hold).
    """
    ok, why = is_substructure(A, B)
    if not ok:
        raise ValueError("not a substructure: %s" % why)
    formulas = list(formulas)
    if variables is None:
        used = set()
        for f in formulas:
            used |= free_vars(f)
        variables = tuple(sorted(used)) or ("x",)
    frame = tuple(sorted(variables))
    # build every composite up front and keep it alive: the evaluation memo
    # is keyed by object identity
    quantified = [
        (phi, x, Exists(x, phi), Forall(x, phi))
        for phi in formulas
        for x in variables
    ]
    memo: dict = {}
    violations = []
    for s in assignments_over(A, frame):
        for phi, x, ex, fa in quantified:
            body = {
                a: eval_formula(phi, B, s.set(x, a), memo) for a in A.domain
            }
            v = eval_formula(ex, B, s, memo)
            if v == ONE:
                if not any(u != ZERO for u in body.values()) or not any(
                    u != HALF for u in body.values()
                ):
                    violations.append(
                        TarskiViolation(
                            "TC1", x, ex, s,
                            "value 1 but witnesses off 0 and off 1/2 "
                            "are missing: %s" % _show(body),
                        )
                    )
            if v != HALF:
                if not any(u != HALF for u in body.values()):
                    violations.append(
                        TarskiViolation(
                            "TC2", x, ex, s,
                            "value %s but every witness is 1/2" % v,
                        )
                    )
            w = eval_formula(fa, B, s, memo)
            if w == ONE and ONE not in body.values():
                violations.append(
                    TarskiViolation(
                        "TC3", x, fa, s,
                        "value 1 but no witness has value 1: %s" % _show(body),
                    )
                )
            if w == ZERO and ZERO not in body.values():
                violations.append(
                    TarskiViolation(
                        "TC4", x, fa, s,
                        "value 0 but no witness has value 0: %s" % _show(body),
                    )
                )
    return violations


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
    (False, (formula, assignment, value in A, value in B)).
    """
    ok, why = is_substructure(A, B)
    if not ok:
        raise ValueError("not a substructure: %s" % why)
    pool = list(enumerate_formulas(A.sig, variables, max_depth))
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
    pool.  Returns (True, None) or (False, separating sentence).
    """
    if A.sig != B.sig:
        raise ValueError("signatures differ")
    pool = list(enumerate_formulas(A.sig, variables, max_depth))
    for f in pool:
        if free_vars(f):
            continue
        if sentence_trichotomy(f, A) != sentence_trichotomy(f, B):
            return False, f
    return True, None
