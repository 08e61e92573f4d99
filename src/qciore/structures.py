"""Finite partial structures and 3-valued first-order evaluation.

A structure interprets each predicate as a triple over domain tuples (holds
/ fails / dubious), functions and constants classically.  Quantifiers are
evaluated through the value-set functions: a universal claim is true when
some instance is true and none is false, an existential claim is false only
when every instance is false.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .matrix3 import CIORE, DESIGNATED, HALF, Matrix, ONE, ZERO
from .syntax import (
    And,
    App,
    BINARY_OPS,
    Cons,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    FVar,
    Imp,
    Neg,
    Or,
    Pred,
    Signature,
    Term,
    UNARY_OPS,
    Var,
    free_vars,
)
from . import triples
from .triples import CarrierIndex, Triple, make_triple, triple_from_map, triple_op

POS, NEG, BOTH = "POS", "NEG", "BOTH"

EQ = "="  # key for the equality interpretation in Structure.preds


class Assignment(tuple):
    """A finite-support assignment: explicit pairs, default elsewhere.

    The tuple ``(default, pairs)``, ``pairs`` sorted by variable, so that
    it is built, hashed and compared in C; it equals the plain tuple.  The
    hot builders call ``tuple.__new__(Assignment, (default, pairs))``.
    """

    __slots__ = ()

    def __new__(cls, default, pairs: tuple = ()):
        return tuple.__new__(cls, (default, pairs))

    default = property(operator.itemgetter(0))
    pairs = property(operator.itemgetter(1))

    def __reduce__(self):
        return (Assignment, tuple(self))

    def get(self, x: str):
        for var, val in self.pairs:
            if var == x:
                return val
        return self.default

    def set(self, x: str, a) -> "Assignment":
        kept = tuple(p for p in self.pairs if p[0] != x)
        return Assignment(self.default, tuple(sorted(kept + ((x, a),))))

    def __repr__(self) -> str:
        return "Assignment(default=%r, pairs=%r)" % (self.default, self.pairs)

    def __str__(self) -> str:
        body = ", ".join("%s=%s" % (v, e) for v, e in self.pairs)
        return "{%s; default %s}" % (body, self.default)


@dataclass
class Structure:
    sig: Signature
    domain: tuple
    preds: dict[str, Triple] = field(default_factory=dict)
    funs: dict[str, dict[tuple, object]] = field(default_factory=dict)
    consts: dict[str, object] = field(default_factory=dict)

    def default_assignment(self) -> Assignment:
        return Assignment(self.domain[0])


def make_structure(
    sig: Signature,
    domain,
    preds: dict[str, Triple] | None = None,
    funs: dict[str, dict] | None = None,
    consts: dict[str, object] | None = None,
) -> Structure:
    """Build and validate a structure over ``sig``."""
    domain = tuple(domain)
    if not domain:
        raise ValueError("domain must be nonempty")
    if len(set(domain)) != len(domain):
        raise ValueError("domain repeats an element")
    A = Structure(sig, domain, dict(preds or {}), dict(funs or {}), dict(consts or {}))
    validate_structure(A)
    return A


@functools.lru_cache(maxsize=64)
def _tuples_over(domain: tuple, arity: int) -> frozenset:
    """domain^arity, built once per (domain, arity)."""
    return frozenset(itertools.product(domain, repeat=arity))


def validate_structure(A: Structure) -> None:
    sig = A.sig
    dom = set(A.domain)
    wanted = dict(sig.predicates)
    if sig.has_equality:
        wanted[EQ] = 2
    for name, arity in wanted.items():
        t = A.preds.get(name)
        if t is None:
            raise ValueError("no interpretation for predicate %s" % name)
        full = _tuples_over(A.domain, arity)
        if t.carrier != full:
            raise ValueError(
                "predicate %s: triple carrier does not cover domain^%d" % (name, arity)
            )
    for name in A.preds:
        if name not in wanted:
            raise ValueError("interpretation for undeclared predicate %s" % name)
    for name, arity in sig.functions.items():
        fmap = A.funs.get(name)
        if fmap is None:
            raise ValueError("no interpretation for function %s" % name)
        if fmap.keys() != _tuples_over(A.domain, arity):
            raise ValueError("function %s is not total on domain^%d" % (name, arity))
        for out in fmap.values():
            if out not in dom:
                raise ValueError("function %s maps outside the domain" % name)
    for name in A.funs:
        if name not in sig.functions:
            raise ValueError("interpretation for undeclared function %s" % name)
    for name in sig.constants:
        if A.consts.get(name) not in dom:
            raise ValueError("constant %s has no domain value" % name)
    for name in A.consts:
        if name not in sig.constants:
            raise ValueError("interpretation for undeclared constant %s" % name)


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(t: Term, A: Structure, s: Assignment):
    if isinstance(t, Var):
        return s.get(t.name)
    if isinstance(t, Const):
        try:
            return A.consts[t.name]
        except KeyError:
            raise ValueError("structure does not interpret constant %s" % t.name) from None
    if isinstance(t, App):
        args = tuple(eval_term(a, A, s) for a in t.args)
        try:
            return A.funs[t.fun][args]
        except KeyError:
            raise ValueError("structure does not interpret %s on %s" % (t.fun, args)) from None
    raise TypeError("not a term: %r" % (t,))


def tilde_forall(Y: set) -> Fraction:
    """Value of a universal claim from the set of instance values."""
    return ZERO if ZERO in Y else ONE if ONE in Y else HALF


def tilde_exists(Y: set) -> Fraction:
    """Value of an existential claim from the set of instance values.

    Only the all-false set gives 0 and only the all-dubious set gives 1/2;
    every mixed set counts as 1, including {0, 1/2}.
    """
    return ZERO if Y == {ZERO} else HALF if Y == {HALF} else ONE


def eval_formula(
    f: Formula,
    A: Structure,
    s: Assignment,
    memo: dict | None = None,
    matrix: Matrix = CIORE,
) -> Fraction:
    """The 3-valued value of ``f`` in ``A`` under ``s``.

    Each node type has one handler in ``_HANDLERS``, looked up once per
    node; a type without one raises ``TypeError``.  An atom reads its
    variable arguments straight from the pairs of ``s``, and a quantifier
    builds each variant ``s.set(x, a)`` from them, sliced around ``x``.
    Without a memo, each node is evaluated at every assignment that reaches
    it: a call costs the formula's tree size, a shared subformula counted
    at each occurrence.  ``memo`` may be supplied to share work across calls
    and occurrences; it is keyed by (id(subformula), assignment), so the
    caller must keep the formula objects alive and use one memo per
    structure and matrix.  It is read once per node and written only on a
    miss, so it pays only where a node meets an assignment again.
    ``matrix`` supplies the connective tables (quantifiers always use the
    fixed set-based rules) — useful for demonstrating what breaks under a
    mutated table.
    """
    handler = _HANDLERS.get(type(f))
    if handler is None:
        raise TypeError("not a formula: %r" % (f,))
    if memo is None:
        return handler(f, A, s, None, matrix)
    key = (id(f), s)
    v = memo.get(key)
    if v is None:
        v = memo[key] = handler(f, A, s, memo, matrix)
    return v


def _atom_args(terms, A: Structure, s: Assignment) -> tuple:
    """The values of an atom's argument terms: a variable is read straight
    from ``s`` (as ``s.get`` reads it), any other term by ``eval_term``."""
    out = []
    for t in terms:
        if type(t) is Var:
            x = t.name
            for var, val in s[1]:
                if var == x:
                    break
            else:
                val = s[0]
            out.append(val)
        else:
            out.append(eval_term(t, A, s))
    return tuple(out)


def _eval_pred(f: Pred, A: Structure, s: Assignment, memo, matrix: Matrix) -> Fraction:
    args = _atom_args(f.args, A, s)
    t = A.preds.get(f.name)
    if t is None:
        raise ValueError("structure does not interpret predicate %s" % f.name)
    return t.value_at(args)


def _eval_eq(f: Eq, A: Structure, s: Assignment, memo, matrix: Matrix) -> Fraction:
    t = A.preds.get(EQ)
    if t is None:
        raise ValueError("structure does not interpret equality")
    return t.value_at(_atom_args((f.left, f.right), A, s))


def _eval_fvar(f: FVar, A: Structure, s: Assignment, memo, matrix: Matrix) -> Fraction:
    raise ValueError("metavariable %s in a concrete formula" % f.name)


def _unary_handler(op: str):
    def handler(f, A: Structure, s: Assignment, memo, matrix: Matrix) -> Fraction:
        table = matrix.unary.get(op)
        if table is None:
            raise ValueError("%s does not interpret %s" % (matrix.name, op))
        return table[eval_formula(f.sub, A, s, memo, matrix)]

    return handler


def _binary_handler(op: str):
    def handler(f, A: Structure, s: Assignment, memo, matrix: Matrix) -> Fraction:
        table = matrix.binary.get(op)
        if table is None:
            raise ValueError("%s does not interpret %s" % (matrix.name, op))
        return table[
            eval_formula(f.left, A, s, memo, matrix),
            eval_formula(f.right, A, s, memo, matrix),
        ]

    return handler


def _quantifier_handler(rule):
    def handler(f, A: Structure, s: Assignment, memo, matrix: Matrix) -> Fraction:
        # the x-variants s.set(x, a), built by slicing: the pairs without x
        # and x's insertion point are fixed, since the pairs are sorted
        x, body, (default, pairs) = f.var, f.body, s
        kept = [p for p in pairs if p[0] != x]
        i = bisect.bisect(kept, (x,))
        before, after, new = kept[:i], kept[i:], tuple.__new__
        return rule(
            {
                eval_formula(
                    body, A, new(Assignment, (default, (*before, (x, a), *after))), memo, matrix
                )
                for a in A.domain
            }
        )

    return handler


_HANDLERS = {
    Pred: _eval_pred,
    Eq: _eval_eq,
    FVar: _eval_fvar,
    **{cls: _unary_handler(op) for cls, op in UNARY_OPS.items()},
    **{cls: _binary_handler(op) for cls, op in BINARY_OPS.items()},
    Forall: _quantifier_handler(tilde_forall),
    Exists: _quantifier_handler(tilde_exists),
}


def assignments_over(A: Structure, frame: tuple[str, ...]):
    """All assignments on ``frame``, lexicographic in domain order.  An
    unsorted frame permutes each combination to the sorted frame's order."""
    names = tuple(sorted(frame))
    combos = itertools.product(A.domain, repeat=len(frame))
    if names != tuple(frame):
        order = sorted(range(len(frame)), key=frame.__getitem__)
        combos = map(operator.itemgetter(*order), combos)
    default, new = A.domain[0], tuple.__new__
    for combo in combos:
        yield new(Assignment, (default, tuple(zip(names, combo))))


def is_valid_in(
    f: Formula, A: Structure, matrix: Matrix = CIORE
) -> tuple[bool, Assignment | None]:
    """Check designation under every assignment on f's free variables.

    Returns (True, None) or (False, least-refuting-assignment), where
    assignments are ordered by the domain order on sorted free variables.
    Each assignment is evaluated without a memo and costs ``f``'s tree
    size (``eval_formula``): on search and harness queries a memo shared
    over the assignments is hit at few of the nodes it keys.
    """
    for s in assignments_over(A, tuple(sorted(free_vars(f)))):
        if eval_formula(f, A, s, None, matrix) not in DESIGNATED:
            return False, s
    return True, None


def formula_triple(
    f: Formula, A: Structure, frame: tuple[str, ...], memo: dict | None = None
) -> Triple:
    """The semantic triple of ``f`` over assignment tuples aligned with ``frame``.

    Uses the set-valued route on masks: atom triples from the structure,
    connective triples via ``triple_op``'s lift of the tables, quantifier
    triples from the value-set rules along the quantified coordinate.  Every
    triple's masks are over the index of domain^k in ``itertools.product``
    order, the first frame variable most significant.  ``memo`` holds those
    triples keyed by (id(subformula), frame), so the caller must keep the
    formula objects alive; one memo per structure.
    """
    frame = tuple(frame)
    names = set(frame)
    if len(names) != len(frame):
        raise ValueError("frame repeats a variable")
    fv = free_vars(f)
    if not fv <= names:
        raise ValueError("frame %s misses free variables %s" % (frame, sorted(fv - names)))
    return _triple(f, A, frame, memo if memo is not None else {})


@triples._type_faithful_cache(maxsize=64)
def _frame_index(domain: tuple, k: int) -> CarrierIndex:
    """The index of domain^k, in ``itertools.product`` order."""
    return CarrierIndex.of(tuple(itertools.product(domain, repeat=k)))


def _triple(f: Formula, A: Structure, frame: tuple[str, ...], memo: dict) -> Triple:
    key = (id(f), frame)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(f, (Pred, Eq)):
        points = itertools.product(A.domain, repeat=len(frame))
        out = triple_from_map(
            dict(zip(points, (eval_formula(f, A, s) for s in assignments_over(A, frame))))
        )
    elif isinstance(f, (Neg, Cons)):
        out = triple_op(UNARY_OPS[type(f)], _triple(f.sub, A, frame, memo))
    elif isinstance(f, (And, Or, Imp)):
        out = triple_op(
            BINARY_OPS[type(f)],
            _triple(f.left, A, frame, memo),
            _triple(f.right, A, frame, memo),
        )
    elif isinstance(f, (Forall, Exists)):
        # the body's frame is the same one if it has the variable, else the
        # variable followed by the frame
        projected = f.var not in frame
        body_frame = (f.var,) + frame if projected else frame
        n, k = len(A.domain), len(body_frame)
        sub = _triple(f.body, A, body_frame, memo)
        plus, minus = triples._fibre_step(
            isinstance(f, Forall),
            *sub.masks(_frame_index(A.domain, k)),
            n,
            *triples._fibre(n, k, body_frame.index(f.var), projected),
        )
        out = Triple.from_masks(_frame_index(A.domain, len(frame)), plus, minus)
    elif isinstance(f, FVar):
        raise ValueError("metavariable %s in a concrete formula" % f.name)
    else:
        raise TypeError("not a formula: %r" % (f,))
    memo[key] = out
    return out


class MaskProgram:
    """Formulas compiled once into a flat list of mask operations.

    An entry is a formula at a frame of k variables.  Over a domain of n
    elements its value at each of the n**k assignments of the frame is kept
    in two ints, ``plus`` and ``minus``, in ``triples``' mask layout: bit i
    stands for the i-th tuple of ``itertools.product(domain, repeat=k)``,
    the first frame variable most significant, as ``assignments_over``
    orders them.

    ``add`` compiles a formula and its subformulas after the entries the
    program has, sharing every entry whose node and frame it has already
    compiled: entries are keyed by (id(node), frame), and the program holds
    each node it compiled, so that the ids stay valid.  ``run`` evaluates
    every entry on one domain size, children first.  A connective lifts the
    matrix's table over the masks (``triples._lift`` and ``_apply``, as
    ``triple_op`` does).  A quantifier makes one fibre step along its variable
    (``triples._fibre_step``), on its body at the same frame when the frame
    has the variable, else at the variable followed by the frame.  Atoms, and
    the nodes given to ``add`` as leaves, are leaves: the caller of ``run``
    supplies their masks (``triples._masks`` reads them off a list of values).
    """

    __slots__ = ("code", "_position", "_nodes")

    def __init__(self):
        # (opcode, operands, k), children first: ("leaf", node, frame),
        # (connective, child positions, frame length) and ("forall" or
        # "exists", body position, (body frame length, place of the
        # variable in it, whether the entry's frame lacks it))
        self.code: list[tuple] = []
        self._position: dict = {}
        self._nodes: list = []

    def add(self, f: Formula, frame: tuple[str, ...], leaves=frozenset()) -> int:
        """The position of ``f``'s entry at ``frame``, compiled if new.

        ``leaves`` holds the ids of nodes, besides atoms, to compile as
        leaves; a node compiled before keeps its entry."""
        key = (id(f), frame)
        at = self._position.get(key)
        if at is not None:
            return at
        kind = type(f)
        if kind in (Pred, Eq) or id(f) in leaves:
            entry = ("leaf", f, frame)
        elif kind in UNARY_OPS:
            entry = (UNARY_OPS[kind], (self.add(f.sub, frame, leaves),), len(frame))
        elif kind in BINARY_OPS:
            children = (self.add(f.left, frame, leaves), self.add(f.right, frame, leaves))
            entry = (BINARY_OPS[kind], children, len(frame))
        elif kind is Forall or kind is Exists:
            projected = f.var not in frame
            body_frame = (f.var,) + frame if projected else frame
            body = self.add(f.body, body_frame, leaves)
            layout = (len(body_frame), body_frame.index(f.var), projected)
            entry = ("forall" if kind is Forall else "exists", body, layout)
        elif kind is FVar:
            raise ValueError("metavariable %s in a concrete formula" % f.name)
        else:
            raise TypeError("not a formula: %r" % (f,))
        self._position[key] = len(self.code)
        self.code.append(entry)
        self._nodes.append(f)
        return len(self.code) - 1

    def run(self, n: int, leaf, matrix: Matrix = CIORE) -> list[tuple[int, int]]:
        """The (plus, minus) masks of every entry over a domain of ``n``
        elements, by position; ``leaf(node, frame)`` gives a leaf's."""
        values = []
        lifts: dict = {}  # connective -> its _lift under the matrix
        for op, operands, k in self.code:
            if op == "leaf":
                values.append(leaf(operands, k))
            elif op == "forall" or op == "exists":
                plus, minus = values[operands]
                values.append(
                    triples._fibre_step(op == "forall", plus, minus, n, *triples._fibre(n, *k))
                )
            else:
                # a connective, lifted as in triple_op
                lift = lifts.get(op) or lifts.setdefault(op, triples._lift(matrix, op))
                u = values[operands[1]] if len(operands) == 2 else None
                full = (1 << n**k) - 1
                values.append(triples._apply(lift, full, values[operands[0]], u))
        return values


def sentence_trichotomy(f: Formula, A: Structure) -> str:
    """Classify a sentence as POS (true), NEG (false) or BOTH (contradictory)."""
    fv = free_vars(f)
    if fv:
        raise ValueError("not a sentence; free variables %s" % sorted(fv))
    v = eval_formula(f, A, A.default_assignment())
    return POS if v == ONE else NEG if v == ZERO else BOTH


# ---------------------------------------------------------------------------
# Equality structures and name expansion


def classical_equality(domain) -> Triple:
    """The (diagonal, off-diagonal, empty) equality triple."""
    domain = tuple(domain)
    diag = {(a, a) for a in domain}
    off = {p for p in itertools.product(domain, repeat=2) if p[0] != p[1]}
    return make_triple(diag, off, set())


def expand_with_names(A: Structure, elements) -> Structure:
    """Expand with a fresh constant ``c_<e>`` naming each given element."""
    elements = list(elements)
    for e in elements:
        if e not in A.domain:
            raise ValueError("%r is not a domain element" % (e,))
    names = {e: "c_%s" % (e,) for e in elements}
    clash = sorted(set(names.values()) & A.sig.constants)
    if clash:
        raise ValueError("constant names already taken: %s" % clash)
    sig = Signature(
        dict(A.sig.predicates),
        dict(A.sig.functions),
        set(A.sig.constants) | set(names.values()),
        A.sig.has_equality,
    )
    consts = dict(A.consts)
    consts.update({name: e for e, name in names.items()})
    return Structure(sig, A.domain, dict(A.preds), dict(A.funs), consts)


def reduct(A: Structure, sig: Signature) -> Structure:
    """Forget the interpretations outside ``sig``."""
    if not sig <= A.sig:
        raise ValueError("not a subsignature")
    keep = set(sig.predicates) | ({EQ} if sig.has_equality else set())
    return Structure(
        sig,
        A.domain,
        {k: v for k, v in A.preds.items() if k in keep},
        {k: v for k, v in A.funs.items() if k in sig.functions},
        {k: v for k, v in A.consts.items() if k in sig.constants},
    )
