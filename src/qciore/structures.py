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

from .matrix3 import CIORE, DESIGNATED, HALF, Matrix, ONE, VALUES, ZERO
from .syntax import (
    App,
    BINARY_OPS,
    Const,
    EQ,
    Exists,
    Forall,
    Formula,
    FVar,
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


_KIND = {"preds": "predicate", "funs": "function", "consts": "constant"}


@functools.lru_cache(maxsize=256)
def _parts(sig: Signature) -> tuple[tuple[str, str, int], ...]:
    """Each symbol ``sig`` interprets, as (``Structure`` field, name, arity):
    predicates, functions and constants in sorted name order, equality last."""
    out = [("preds", name, sig.predicates[name]) for name in sorted(sig.predicates)]
    out += [("funs", name, sig.functions[name]) for name in sorted(sig.functions)]
    out += [("consts", name, 0) for name in sorted(sig.constants)]
    return tuple(out + ([("preds", EQ, 2)] if sig.has_equality else []))


def _check_part(part: str, name: str, arity: int, value, domain: tuple) -> None:
    """Raise ValueError unless ``value`` interprets ``name`` of ``part`` over
    ``domain``: a triple over domain^arity, a total map into it, or an element."""
    if part == "preds":
        if value.carrier != _tuples_over(domain, arity):
            raise ValueError("predicate %s: triple carrier does not cover domain^%d"
                             % (name, arity))
    elif part == "funs":
        if value.keys() != _tuples_over(domain, arity):
            raise ValueError("function %s is not total on domain^%d" % (name, arity))
        if not set(value.values()) <= set(domain):
            raise ValueError("function %s maps outside the domain" % name)
    elif value not in domain:
        raise ValueError("constant %s has no domain value" % name)


def validate_structure(A: Structure) -> None:
    """Raise ValueError unless ``A`` interprets exactly its signature's
    symbols, each as ``_check_part`` requires."""
    wanted = _parts(A.sig)
    for part, name, arity in wanted:
        table = getattr(A, part)
        if name not in table:
            raise ValueError("no interpretation for %s %s" % (_KIND[part], name))
        _check_part(part, name, arity, table[name], A.domain)
    if len(A.preds) + len(A.funs) + len(A.consts) > len(wanted):  # an undeclared symbol
        for part, kind in _KIND.items():
            for name in sorted(getattr(A, part).keys() - {n for p, n, _ in wanted if p == part}):
                raise ValueError("interpretation for undeclared %s %s" % (kind, name))


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
    and occurrences, one per structure and matrix.  It maps (id(subformula),
    assignment) to (subformula, value), so no other node can take a held
    node's id.  It is read once per node and written only on a miss, so it
    pays only where a node meets an assignment again.
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
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = f, handler(f, A, s, memo, matrix)
    return hit[1]


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
        raise ValueError("structure does not interpret equality" if f.name == EQ
                         else "structure does not interpret predicate %s" % f.name)
    return t.value_at(args)


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
    ``f`` runs as closures compiled once per matrix (``_compile``), with
    ``eval_formula``'s values and errors.  The assignments come from a cache
    keyed by (domain, free variables): see ``_space`` for its bound and key.
    """
    fv, fn = free_vars(f), _compiled(f, matrix)
    for s in _space(A, fv):
        if fn(A, s) not in _DESIGNATED_CODES:
            return False, s
    return True, None


_CODE = {v: i for i, v in enumerate(VALUES)}  # a value's code; a set of codes is a 3-bit mask
_DESIGNATED_CODES = frozenset(_CODE[v] for v in DESIGNATED)
_QUANTIFIER_CODES = {  # by the mask of the codes of a quantifier's instances
    kind: tuple(_CODE[rule({v for v in VALUES if bits >> _CODE[v] & 1})] for bits in range(8))
    for kind, rule in ((Forall, tilde_forall), (Exists, tilde_exists))
}


@functools.lru_cache(maxsize=64)
def _table_codes(matrix: Matrix, op: str) -> tuple | None:
    """``op``'s table in ``matrix`` over codes (binary: at ``3 * left + right``), or None."""
    table, keys = ((matrix.unary.get(op), VALUES) if op in UNARY_OPS.values()
                   else (matrix.binary.get(op), itertools.product(VALUES, repeat=2)))
    return None if table is None else tuple(_CODE[table[k]] for k in keys)


def _compiled(f: Formula, matrix: Matrix):
    """``f``'s closure under ``matrix``, cached on the node with the matrix."""
    hit = getattr(f, "_closure", None)
    if hit is None or hit[0] is not matrix:
        object.__setattr__(f, "_closure", (matrix, _compile(f, matrix)))
    return f._closure[1]


def _compile(f: Formula, matrix: Matrix):
    """``fn(A, s)``: the code of ``eval_formula(f, A, s, None, matrix)``, or its
    error when it reaches the node, for a formula ``f`` (``free_vars`` walked
    it).  It calls its children's ``_compiled`` closures and holds no node."""
    kind = type(f)
    op = UNARY_OPS.get(kind) or BINARY_OPS.get(kind)
    table = op and _table_codes(matrix, op)
    if kind is FVar or op and table is None:
        message = ("metavariable %s in a concrete formula" % f.name if kind is FVar
                   else "%s does not interpret %s" % (matrix.name, op))
        def fn(A, s):
            raise ValueError(message)
    elif kind is Pred:
        name, args, one, zero = f.name, f.args, _CODE[ONE], _CODE[ZERO]
        x = args[0].name if len(args) == 1 and type(args[0]) is Var else None
        def fn(A, s):
            if x is None:
                at = _atom_args(args, A, s)
            else:  # one variable argument, read as _atom_args reads it
                at = s[0],
                for var, val in s[1]:
                    if var == x:
                        at = val,
            t = A.preds.get(name)
            if t is None:
                raise ValueError("structure does not interpret equality" if name == EQ
                                 else "structure does not interpret predicate %s" % name)
            return one if at in t.plus else zero if at in t.minus else _CODE[t.value_at(at)]
    elif kind is Forall or kind is Exists:
        x, body, rule = f.var, _compiled(f.body, matrix), _QUANTIFIER_CODES[kind]
        def fn(A, s):  # over the x-variants, sliced as eval_formula slices them
            default, pairs = s
            kept = [p for p in pairs if p[0] != x]
            i = bisect.bisect(kept, (x,))
            before, after, new, seen = kept[:i], kept[i:], tuple.__new__, 0
            for a in A.domain:
                seen |= 1 << body(A, new(Assignment, (default, (*before, (x, a), *after))))
            return rule[seen]
    elif kind in UNARY_OPS:
        sub = _compiled(f.sub, matrix)
        return lambda A, s: table[sub(A, s)]
    else:
        left, right = _compiled(f.left, matrix), _compiled(f.right, matrix)
        return lambda A, s: table[3 * left(A, s) + right(A, s)]
    return fn


_SPACES: dict = {}  # (domain, free variables) -> (that domain, its assignments)
_SPACE_KEYS, _SPACE_POINTS = 32, 4096


def _space(A: Structure, fv: frozenset):
    """The assignments on the sorted ``fv``, in ``assignments_over`` order:
    one tuple per (domain, ``fv``) for at most 32 keys, the oldest dropped
    first.  A hit is confirmed by the domain's identity, else by its types
    (``(True, 2)`` and ``(1, 2)`` get tuples of their own).  A space of
    more than 4,096 assignments is walked lazily and never stored."""
    domain = A.domain
    hit = _SPACES.get((domain, fv))
    if hit is not None and hit[0] is not domain:
        if triples._types(hit[0]) == triples._types(domain):
            hit = _SPACES[domain, fv] = domain, hit[1]
    if hit is None or hit[0] is not domain:
        frame = tuple(sorted(fv))
        if len(domain) ** len(frame) > _SPACE_POINTS:
            return assignments_over(A, frame)
        if hit is None and len(_SPACES) >= _SPACE_KEYS:
            del _SPACES[next(iter(_SPACES))]
        hit = _SPACES[domain, fv] = domain, tuple(assignments_over(A, frame))
    return hit[1]


def formula_triple(
    f: Formula, A: Structure, frame: tuple[str, ...], memo: dict | None = None
) -> Triple:
    """The semantic triple of ``f`` over assignment tuples aligned with ``frame``.

    ``f`` is compiled by ``MaskProgram.add``, and the program's new entries
    are evaluated children first, as triples: a leaf from ``eval_formula``
    at each assignment of its frame, a connective by ``triple_op``'s lift of
    the tables, a quantifier by one fibre step along its variable.  Every
    triple's masks are over the index of domain^k in ``itertools.product``
    order, the first frame variable most significant.  ``memo``, one per
    structure, holds the program and its entries' triples, equal ones shared:
    a later call evaluates only the entries it adds; one that raises drops them.
    """
    frame = tuple(frame)
    names = set(frame)
    if len(names) != len(frame):
        raise ValueError("frame repeats a variable")
    fv = free_vars(f)
    if not fv <= names:
        raise ValueError("frame %s misses free variables %s" % (frame, sorted(fv - names)))
    memo = memo if memo is not None else {}
    program, values, shared = memo.get(MaskProgram) or memo.setdefault(
        MaskProgram, (MaskProgram(), [], {}))  # the triples by (index, masks)
    domain, n = A.domain, len(A.domain)
    try:
        top = program.add(f, frame)
        for op, operands, k in program.code[len(values):]:
            if op == "leaf":
                at = (eval_formula(operands, A, s) for s in assignments_over(A, k))
                out = triple_from_map(dict(zip(itertools.product(domain, repeat=len(k)), at)))
            elif op == "forall" or op == "exists":
                body = values[operands].masks(_frame_index(domain, k[0]))
                plus, minus = triples._fibre_step(op == "forall", *body, n, *triples._fibre(n, *k))
                out = Triple.from_masks(_frame_index(domain, k[0] - k[2]), plus, minus)
            else:  # a connective
                u = values[operands[1]] if len(operands) == 2 else None
                out = triple_op(op, values[operands[0]], u)
            values.append(shared.setdefault((out.index, out._masks), out))
    except BaseException:
        del memo[MaskProgram]  # entries left unevaluated would raise again
        raise
    return values[top]


@triples._type_faithful_cache(maxsize=64)
def _frame_index(domain: tuple, k: int) -> CarrierIndex:
    """The index of domain^k, in ``itertools.product`` order."""
    return CarrierIndex.of(tuple(itertools.product(domain, repeat=k)))


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
    each node it compiled, so that the ids stay valid.  Two readers evaluate
    the entries children first: ``run`` as masks on one domain size, and
    ``formula_triple`` as triples in one structure.  A connective lifts the
    matrix's table over the masks (``triples._lift`` and ``_apply``, as
    ``triple_op`` does).  A quantifier makes one fibre step along its variable
    (``triples._fibre_step``), on its body at the same frame when the frame
    has the variable, else at the variable followed by the frame.  Atoms, and
    the nodes given to ``add`` as leaves, are leaves: the caller of ``run``
    supplies their masks (``triples._masks`` reads them off a list of values).
    """

    __slots__ = ("code", "_nodes", "_position")

    def __init__(self):
        # (opcode, operands, k), children first: ("leaf", node, frame),
        # (connective, child positions, frame length) and ("forall" or
        # "exists", body position, (body frame length, place of the
        # variable in it, whether the entry's frame lacks it))
        self.code: list[tuple] = []
        self._nodes: list = []  # each entry's node, so that no other node takes its id
        self._position: dict = {}  # (id(node), frame) -> position

    def add(self, f: Formula, frame: tuple[str, ...], leaves=frozenset()) -> int:
        """The position of ``f``'s entry at ``frame``, compiled if new.

        ``leaves`` holds the ids of nodes, besides atoms, to compile as
        leaves; a node compiled before keeps its entry."""
        key = (id(f), frame)
        hit = self._position.get(key)
        if hit is not None:
            return hit
        kind = type(f)
        if kind is Pred or leaves and id(f) in leaves:
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
        position = self._position[key] = len(self.code)
        self.code.append(entry)
        self._nodes.append(f)
        return position

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
# Equality structures and reducts


def classical_equality(domain) -> Triple:
    """The (diagonal, off-diagonal, empty) equality triple."""
    domain = tuple(domain)
    diag = {(a, a) for a in domain}
    off = {p for p in itertools.product(domain, repeat=2) if p[0] != p[1]}
    return make_triple(diag, off, set())


def reduct(A: Structure, sig: Signature) -> Structure:
    """Forget the interpretations outside ``sig``."""
    if not sig <= A.sig:
        raise ValueError("not a subsignature")
    kept = {part: {name: getattr(A, part)[name] for p, name, _ in _parts(sig) if p == part}
            for part in _KIND}
    return Structure(sig, A.domain, **kept)
