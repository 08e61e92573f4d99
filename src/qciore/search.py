"""Exhaustive enumeration of finite structures and countermodel search.

Enumeration order is a fixed lexicographic product over interpretation
tables, so "first countermodel" is well defined and reproducible.  The
search never claims consequence: it reports either a re-checked refuting
structure or the absence of countermodels up to the size bound.  The
soundness harness instantiates every axiom schema over a generated formula
pool and asserts validity in every structure up to a size bound, and checks
that the three inference rules preserve validity structure by structure.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import hilbert, matrix3, structures, syntax, triples
from .hilbert import instantiate, possibly_free, schema_metavariables
from .matrix3 import CIORE, DESIGNATED, Matrix, PROP_AXIOMS
from .structures import (
    Assignment,
    MaskProgram,
    Structure,
    assignments_over,
    eval_formula,
    is_valid_in,
    make_structure,
)
from .syntax import (
    CaptureError,
    Const,
    EQ,
    Formula,
    FVar,
    Imp,
    Signature,
    Var,
    enumerate_formulas,
    free_vars,
    substitute,
)
from .triples import all_triples, make_triple

# ---------------------------------------------------------------------------
# Enumeration


def _equality_interpretations(domain: tuple, equality_normal: bool):
    """Interpretations of the equality predicate over ``domain``.

    Normal mode yields the diagonal-respecting triples: every diagonal pair
    is definitely-in or dubious, every off-diagonal pair definitely-out.
    Otherwise equality ranges over all triples like any binary predicate.
    """
    pairs = tuple(itertools.product(domain, repeat=2))
    if not equality_normal:
        yield from all_triples(pairs)
        return
    off = frozenset(p for p in pairs if p[0] != p[1])
    for mask in itertools.product((False, True), repeat=len(domain)):
        plus = frozenset((a, a) for a, dubious in zip(domain, mask) if not dubious)
        dot = frozenset((a, a) for a, dubious in zip(domain, mask) if dubious)
        yield make_triple(plus, off, dot)


def _function_tables(domain: tuple, arity: int) -> list[dict]:
    """Every total map from domain^arity into ``domain``, as a dict."""
    keys = tuple(itertools.product(domain, repeat=arity))
    return [dict(zip(keys, values)) for values in itertools.product(domain, repeat=len(keys))]


def _factors(sig: Signature, n: int, equality_normal: bool) -> tuple:
    """The domain (e1..en) and one factor per symbol of ``sig``, each
    (``Structure`` field, name, interpretations), in the order that
    ``enumerate_structures`` gives.  A sub-signature's factors are the full
    one's for its symbols, in the same order (see ``_reduct_walk``).  Each
    interpretation is checked here, once, as ``make_structure`` checks a
    symbol (``structures._check_part``): the structures assembled from the
    factors are not checked again."""
    if n < 1:
        raise ValueError("domain size must be at least 1")
    domain = tuple("e%d" % i for i in range(1, n + 1))
    factors = []
    for part, name, arity in structures._parts(sig):
        if part == "consts":
            values = domain
        elif part == "funs":
            values = _function_tables(domain, arity)
        elif name == EQ:
            values = list(_equality_interpretations(domain, equality_normal))
        else:
            values = all_triples(tuple(itertools.product(domain, repeat=arity)))
        for value in values:
            structures._check_part(part, name, arity, value, domain)
        factors.append((part, name, values))
    return domain, factors


def _structure_at(sig: Signature, domain: tuple, factors: list, indices) -> Structure:
    """The structure that interprets each factor's symbol by the
    interpretation at its index in ``indices``, unchecked (``_factors``
    checked each interpretation)."""
    parts: dict = {"preds": {}, "funs": {}, "consts": {}}
    for (part, name, values), i in zip(factors, indices):
        parts[part][name] = values[i]
    return Structure(sig, domain, **parts)


def enumerate_structures(sig: Signature, n: int, equality_normal: bool = True):
    """Every structure with domain (e1..en), each exactly once.

    The order is deterministic: the lexicographic product of one factor per
    symbol (``_factors``), the last varying fastest.  Predicates come in
    sorted name order, each ranging over all class assignments; then
    functions in sorted name order over all total maps; then constants, one
    factor each, in sorted name order over all elements; equality last.
    ``_factors`` checks each interpretation once; a structure is not checked.
    """
    domain, factors = _factors(sig, n, equality_normal)
    for indices in itertools.product(*(range(len(v)) for _, _, v in factors)):
        yield _structure_at(sig, domain, factors, indices)


def _factor_sizes(sig: Signature, n: int, equality_normal: bool) -> list[int]:
    """How many interpretations each factor of ``_factors`` has, in its order,
    in closed form and without building them."""
    return [
        (2**n if name == EQ and equality_normal else 3 ** (n**arity)) if part == "preds"
        else n ** (n**arity)  # a function's tables; a constant, of arity 0, is one of n elements
        for part, name, arity in structures._parts(sig)
    ]


def structure_count(sig: Signature, n: int, equality_normal: bool = True) -> int:
    """How many structures enumerate_structures yields, in closed form."""
    return math.prod(_factor_sizes(sig, n, equality_normal))


# ---------------------------------------------------------------------------
# Reducts: a formula's value in a structure depends only on the domain and on
# how the structure interprets the formula's signature


def _group_by_signature(formulas) -> tuple[list, list]:
    """The formulas grouped by ``syntax.signature_of``, in order of first
    appearance: a list of (signature, members), and for each formula its
    (group, position in group)."""
    groups = []
    slot = []
    position: dict = {}  # signature -> its group's index in groups
    for f in formulas:
        used = syntax.signature_of(f)
        g = position.setdefault(used, len(groups))
        if g == len(groups):
            groups.append((used, []))
        slot.append((g, len(groups[g][1])))
        groups[g][1].append(f)
    return groups, slot


def _reduct_walk(reduct_sig: Signature, factors) -> tuple[list, object]:
    """The positions in ``factors`` (``_factors``' list or the full
    signature's ``structures._parts``, in one order) of ``reduct_sig``'s
    factors, and a function that keys a structure's reduct by its factor
    indices there: equal keys exactly for equal reducts (one key for the
    empty signature).  ``_factors`` orders a reduct's factors as the full
    signature's, so those indices build the reduct."""
    kept = {(part, name) for part, name, _ in structures._parts(reduct_sig)}
    positions = [i for i, (part, name, _) in enumerate(factors) if (part, name) in kept]
    return positions, operator.itemgetter(*positions) if positions else lambda indices: ()


# ---------------------------------------------------------------------------
# Countermodel search


@dataclass(frozen=True)
class SearchSpec:
    sig: Signature
    phi: Formula
    gamma: tuple[Formula, ...] = ()
    max_domain_size: int = 3
    equality_normal: bool = True
    max_structures: int | None = None
    time_budget_s: float | None = None

    def __post_init__(self):
        if self.max_domain_size < 1:
            raise ValueError("max_domain_size must be at least 1")
        if self.max_structures is not None and self.max_structures < 0:
            raise ValueError("max_structures must not be negative")
        if self.time_budget_s is not None and self.time_budget_s < 0:
            raise ValueError("time_budget_s must not be negative")
        self.sig.check_concrete((self.phi, *self.gamma), "search")


@dataclass
class SearchResult:
    found: bool
    structure: Structure | None = None
    assignment: Assignment | None = None
    value: Fraction | None = None
    size: int | None = None
    structures_checked: int = 0  # structures decided
    structures_evaluated: int = 0  # of those, where a formula was evaluated
    exhausted: bool = False
    limit_hit: str | None = None


def _first_failure(members, A: Structure) -> tuple:
    """(True, None) when every formula of ``members`` is valid in ``A``,
    else (False, the least refuting assignment of the first that is not)."""
    for f in members:
        ok, witness = is_valid_in(f, A)
        if not ok:
            return False, witness
    return True, None


def find_countermodel(spec: SearchSpec, progress=None, progress_every: int = 1000):
    """First structure where every premise is valid and phi is not.

    Returns the least refuting assignment with it; the refutation is
    re-evaluated from scratch before being reported.  ``progress``, if
    given, is called with (structures checked, elapsed seconds) every
    ``progress_every`` structures.

    A formula's verdict depends only on the domain and on how a structure
    interprets the symbols of ``syntax.signature_of`` (its reduct).  The
    premises are grouped by their signatures.  Within one domain size the
    search walks the structures of ``enumerate_structures`` as tuples of
    indices into the factors of ``_factors``, in the same order.  A group or
    the target whose signature is not the search's keeps a verdict table
    keyed by ``_reduct_walk``'s key of the reduct; each verdict is decided
    once, on the reduct, built from the factors at the reduct's positions,
    and read back for every other structure with that reduct.  A full
    structure is built only for a check over the whole signature, and for
    the countermodel; where every check is over the whole signature, the
    structures are taken from ``enumerate_structures``.  None is checked
    but the countermodel, by ``make_structure`` in its re-check: ``_factors``
    checked each interpretation once.
    ``structures_checked`` counts the structures decided;
    ``structures_evaluated`` counts those in which at least one premise or
    the target was evaluated rather than read back.
    """
    if progress_every < 1:
        raise ValueError("progress_every must be at least 1")
    t0 = time.monotonic()
    checked = evaluated = 0
    sig = spec.sig
    # (signature, members) per premise group, then the target's
    checks = _group_by_signature(spec.gamma)[0]
    checks.append((syntax.signature_of(spec.phi), (spec.phi,)))

    for n in range(1, spec.max_domain_size + 1):
        if all(used == sig for used, _ in checks):
            # every check reads the whole structure: take each as enumerated
            walks = [None] * len(checks)
            points = ((None, A) for A in enumerate_structures(sig, n, spec.equality_normal))
        else:
            domain, factors = _factors(sig, n, spec.equality_normal)
            walks = [
                None if used == sig else (used, *_reduct_walk(used, factors), {})
                for used, _ in checks
            ]
            points = (
                (indices, None)
                for indices in itertools.product(*(range(len(v)) for _, _, v in factors))
            )
        for indices, A in points:  # A is None where only indices are walked
            limit_hit = None
            if spec.max_structures is not None and checked >= spec.max_structures:
                limit_hit = "structure budget"
            elif spec.time_budget_s is not None and time.monotonic() - t0 > spec.time_budget_s:
                limit_hit = "time budget"
            if limit_hit:
                return SearchResult(
                    found=False,
                    structures_checked=checked,
                    structures_evaluated=evaluated,
                    limit_hit=limit_hit,
                )
            checked += 1
            if progress is not None and checked % progress_every == 0:
                progress(checked, time.monotonic() - t0)
            fresh = False  # whether a premise or the target is evaluated here
            for (_, members), walk in zip(checks, walks):
                if walk is None:
                    A = A or _structure_at(sig, domain, factors, indices)
                    verdict = _first_failure(members, A)
                    fresh = True
                else:
                    reduct_sig, positions, key, verdicts = walk
                    k = key(indices)
                    verdict = verdicts.get(k)
                    if verdict is None:
                        reduct = _structure_at(reduct_sig, domain, [factors[p] for p in positions],
                                               [indices[p] for p in positions])
                        verdict = verdicts[k] = _first_failure(members, reduct)
                        fresh = True
                if not verdict[0]:
                    break
            evaluated += fresh
            if verdict[0] or members is not checks[-1][1]:
                continue  # the target holds, or a premise fails
            # the countermodel is built and checked whole before its re-check
            A = A or _structure_at(sig, domain, factors, indices)
            A = make_structure(sig, A.domain, A.preds, A.funs, A.consts)
            witness = verdict[1]
            value = eval_formula(spec.phi, A, witness)
            if value in DESIGNATED or not _first_failure(spec.gamma, A)[0]:
                raise RuntimeError("countermodel failed its own re-check")
            return SearchResult(
                found=True,
                structure=A,
                assignment=witness,
                value=value,
                size=n,
                structures_checked=checked,
                structures_evaluated=evaluated,
            )
    return SearchResult(
        found=False,
        structures_checked=checked,
        structures_evaluated=evaluated,
        exhausted=True,
    )


def check_consequence_bounded(
    gamma, phi: Formula, sig: Signature, max_domain_size: int, **limits
) -> SearchResult:
    """One-sided consequence check: a refutation or exhaustion, never a
    claim that the consequence holds outright."""
    spec = SearchSpec(
        sig=sig,
        phi=phi,
        gamma=tuple(gamma),
        max_domain_size=max_domain_size,
        **limits,
    )
    return find_countermodel(spec)


# ---------------------------------------------------------------------------
# Soundness harness


QUANT_AXIOM_IDS, EQ_AXIOM_IDS = hilbert.QUANT_AXIOM_IDS, hilbert.EQ_AXIOM_IDS


@dataclass(frozen=True)
class Violation:
    kind: str  # "axiom" or "rule"
    name: str
    formula: Formula
    structure: Structure
    assignment: Assignment | None


@dataclass
class HarnessReport:
    structures_checked: int = 0
    axiom_checks: int = 0  # instances decided
    # instances evaluated, the rest reuse a verdict: one per entry of a
    # propositional or Ax13-Ax16 table (a schema the matrix makes a tautology
    # fills none), and each distinct Ax11, Ax12 and equality instance once per
    # domain size and reduct to its signature
    axiom_evaluations: int = 0
    rule_checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _quantifier_axioms(phi: Formula, x: str, terms) -> list:
    """The six quantifier axioms' instances on one pool formula and
    variable: Ax11 and Ax12 per term free for x, then Ax13-Ax16."""
    out = []
    for t in terms:
        try:
            out += hilbert.term_axioms(x, phi, t).items()
        except CaptureError:
            continue
    return out + list(hilbert.consistency_axioms(x, phi))


def _equality_axiom_instances(pool, variables, extra_var):
    out = [("Eq1", hilbert.eq1_axiom(x)) for x in variables]
    for phi in pool:
        for x in variables:
            y = extra_var if extra_var != x else variables[0]
            if y == x:
                continue
            # replacing no occurrence, and replacing every free occurrence
            out.append(("Eq2", hilbert.eq2_axiom(x, y, phi, phi)))
            try:
                replaced = substitute(phi, x, Var(y))
            except CaptureError:
                continue
            out.append(("Eq2", hilbert.eq2_axiom(x, y, phi, replaced)))
    return out


@functools.lru_cache(maxsize=256)
def _tautology(pattern: Formula, matrix: Matrix) -> bool:
    """Whether ``matrix`` designates the propositional ``pattern`` under every
    valuation of its metavariables.  An instance's value at an assignment is
    the pattern's under its components' values there, so then every instance
    is valid in every structure.  Cached per (pattern, matrix), as
    ``triples._lift`` is."""
    return matrix3.is_tautology3(pattern, matrix)[0]


def _lowest_bit(mask: int) -> int | None:
    """The index of the lowest set bit of ``mask``, or None when it is 0."""
    return (mask & -mask).bit_length() - 1 if mask else None


def soundness_harness(
    sig: Signature,
    axiom_pool=None,
    instance_depth: int = 1,
    max_size: int = 2,
    variables: tuple[str, ...] = ("x",),
    matrix: Matrix = CIORE,
) -> HarnessReport:
    """Validity of axiom instances, and validity preservation of the rules.

    Every schema in ``axiom_pool`` (default: all of them; no name twice) is
    instantiated with formulas of depth ≤ ``instance_depth`` over
    ``variables`` (distinct names) and checked for validity in every
    structure of size ≤ ``max_size``.  Rule preservation (modus ponens and
    the two quantifier introductions) is checked for every pair of pool
    formulas in every structure, and counted per pair.  A violation names the
    pool formulas themselves.  Ax11-Ax16, Eq1, Eq2 and the introductions'
    conclusions and side conditions are ``hilbert``'s, the ones the proof
    checker checks steps against.  Each check is decided at the coarsest
    level that fixes its answer.

    The pool is compiled once into a ``MaskProgram`` over the frame of the
    sorted variables.  In each structure it gives every pool formula's value
    vector over the frame's assignments as two masks, from atom masks read
    pointwise by ``eval_formula``.  A vector's run-wide id is its (width,
    plus, minus); its first failure is the lowest set bit of ``minus``.  A
    formula built from pool formulas by a fixed pattern takes its vector
    from theirs: the connectives are truth-functional, and every variable a
    pattern quantifies is in the frame.  So one run-wide table per pattern
    maps a tuple of component vector ids to the index of the instance's
    first failure, or None.  On a miss the instance is built with
    ``instantiate`` over the first pool formula of each class (its
    representative), compiled once per run for each tuple of
    representatives, and evaluated on their masks.  The patterns are the
    propositional schemas, Ax13-Ax16 per variable, the modus ponens premise
    ``a -> b`` and, per variable x, the conclusion of each introduction.  A
    propositional schema that is a tautology of the matrix (``_tautology``)
    has no failing instance, so its table is never filled.  Per structure,
    modus ponens fails on the pairs (valid class, failing class) whose
    premise holds, and an introduction on the pairs of a class with a pool
    formula closed in x on its side of the premise (``a`` under ∀-in, ``b``
    under ∃-in) and any class, whose premise holds and whose conclusion
    fails; pool pairs are scanned only to report such pairs in pool order.
    An instance is built again from the pool formulas only where it is a
    violation to report; a failing Ax13-Ax16 instance takes its witness
    from ``is_valid_in``.

    Ax11, Ax12 and the equality instances are decided by ``is_valid_in``,
    each distinct instance once (Ax11 and Ax12 repeat for every term when x
    is not free in the pool formula).  Their value depends only on the
    domain and on how a structure interprets the symbols of their
    ``syntax.signature_of`` (their reduct), so they are grouped by signature
    and their verdicts are decided once per run for each domain size and
    reduct.  As in ``find_countermodel``, a structure is named by its
    indices into the factors of ``_factors``, and a reduct by
    ``_reduct_walk``'s key of those; the verdicts are keyed by (group,
    domain size, reduct key).  A group whose signature is the harness's
    shares no reduct between structures, so it is evaluated in each
    structure and its verdicts are not stored.  ``axiom_checks`` counts the
    instances decided, structure by structure; ``axiom_evaluations`` those
    actually evaluated (see ``HarnessReport``).
    """
    if len(set(variables)) != len(variables):
        raise ValueError("variables repeat a name: %s" % (variables,))
    if max_size < 1:
        raise ValueError("max_size must be at least 1, not %d" % max_size)
    pool = list(enumerate_formulas(sig, variables, instance_depth))
    if not pool:  # the report would be ok after no check at all
        raise ValueError("the formula pool is empty: no atom over the variables "
                         "%s and the signature's constants" % (tuple(variables),))
    if axiom_pool is None:
        axiom_pool = [a for a in hilbert.AXIOMS if sig.has_equality or a not in EQ_AXIOM_IDS]
    prop_ids = [a for a in axiom_pool if a in PROP_AXIOMS]
    quant_ids = [a for a in axiom_pool if a in QUANT_AXIOM_IDS]
    eq_ids = [a for a in axiom_pool if a in EQ_AXIOM_IDS]
    unknown = [a for a in axiom_pool if a not in hilbert.AXIOMS]
    if unknown:
        raise ValueError("unknown axiom schemas: %s" % ", ".join(unknown))
    if len(set(axiom_pool)) != len(axiom_pool):
        raise ValueError("axiom schemas repeat a name: %s" % (tuple(axiom_pool),))
    tautologies = {name for name in prop_ids if _tautology(PROP_AXIOMS[name], matrix)}

    spares = itertools.chain(
        ("y", "z", "w", "u"), ("x%d" % i for i in itertools.count())
    )
    extra_var = next(v for v in spares if v not in variables)
    terms = (
        [Var(v) for v in variables]
        + [Var(extra_var)]
        + [Const(c) for c in sorted(sig.constants)]
    )

    # the pattern tables: each propositional schema and, per variable, the
    # selected ones of Ax13-Ax16, then the modus ponens premise, then per
    # variable the two quantifier introductions' conclusions.  Each maps a
    # tuple of component vector ids to the index in the assignment space of
    # the instance's first failure, or None.
    a, b = FVar("a"), FVar("b")
    patterns = [PROP_AXIOMS[name] for name in prop_ids]
    consistency = {}  # (schema, variable) -> index of its table
    for x in variables:
        for name, pattern in hilbert.consistency_axioms(x, a):
            if name in quant_ids:
                consistency[name, x] = len(patterns)
                patterns.append(pattern)
    mp = len(patterns)
    patterns.append(Imp(a, b))
    conclusion = {}  # (rule name, variable) -> index of its conclusion's table
    for x in variables:
        for rule in hilbert.INTRODUCTIONS.values():
            conclusion[rule.name, x] = len(patterns)
            patterns.append(rule.conclusion(x, a, b))
    tables = [(p, schema_metavariables(p), {}, {}) for p in patterns]
    vector_ids: dict = {}  # (width, plus, minus) -> small int, for the whole run

    # the fixed instances in order, as (schema, instance, table, where):
    # Ax13-Ax16 are decided by their tables on the class of the pool formula
    # at index ``where``; the others (table None) by is_valid_in, ``where``
    # being the (group, position in group) of their distinct instance
    fixed = []
    for i, phi in enumerate(pool):
        for x in variables:
            for name, inst in _quantifier_axioms(phi, x, terms):
                if name in quant_ids:
                    fixed.append((name, inst, consistency.get((name, x)), i))
    if eq_ids:
        fixed += [
            (name, f, None, None)
            for name, f in _equality_axiom_instances(pool, variables, extra_var)
            if name in eq_ids
        ]
    # the distinct instances decided by is_valid_in, grouped by signature.
    # Only a group whose signature is not sig's can meet its reduct again.
    distinct = list(dict.fromkeys(f for _, f, t, _ in fixed if t is None))
    groups, slot = _group_by_signature(distinct)
    slot_of = dict(zip(distinct, slot))
    fixed = [(name, f, t, slot_of[f] if t is None else i) for name, f, t, i in fixed]
    # (group, size, reduct key) -> (whether all hold, [(ok, witness), ...])
    fixed_verdicts: dict = {}

    # per introduction, its instances over the full pool, as (i, j, table of
    # the conclusion) for each from pool[i] -> pool[j] whose side condition
    # holds
    closed = {x: [not possibly_free(x, f) for f in pool] for x in variables}
    indices = range(len(pool))
    introductions = [
        (rule, [(i, j, conclusion[rule.name, x]) for i in indices for j in indices
                for x in variables if closed[x][(i, j)[rule.side]]])
        for rule in hilbert.INTRODUCTIONS.values()
    ]

    # per group whose signature is not sig's, the key of its reduct
    parts = structures._parts(sig)
    keys = [None if used == sig else _reduct_walk(used, parts)[1] for used, _ in groups]
    frame = tuple(sorted(variables))
    program = MaskProgram()
    pool_at = [program.add(f, frame) for f in pool]
    report = HarnessReport()

    for n in range(1, max_size + 1):
        width = n ** len(frame)
        # each structure's indices into the factors it is enumerated from
        points = itertools.product(*map(range, _factor_sizes(sig, n, True)))
        space = None
        for A, indices in zip(enumerate_structures(sig, n), points, strict=True):
            report.structures_checked += 1
            space = space or list(assignments_over(A, frame))  # one per size

            def atom(f, _):
                # every atom of the pool is at the frame: the pool
                # quantifies frame variables only
                return triples._masks(eval_formula(f, A, s, None, matrix) for s in space)

            values = program.run(n, atom, matrix)

            # the run-wide vector id of every pool formula; per id, the
            # first pool formula with that vector (its representative), its
            # masks by the representative's id, and the index of the
            # vector's first failure, or None
            ids = []
            rep_of: dict = {}
            masks_of: dict = {}
            fails: dict = {}
            for f, at in zip(pool, pool_at):
                plus, minus = values[at]
                i = vector_ids.setdefault((width, plus, minus), len(vector_ids))
                if i not in rep_of:
                    rep_of[i] = f
                    masks_of[id(f)] = plus, minus
                    fails[i] = _lowest_bit(minus)
                ids.append(i)
            rep_ids = list(rep_of)

            def failure(t, key):
                """Table t's entry for the vector ids ``key``, filled on a miss
                from the instance over their representatives."""
                pattern, mvars, table, compiled = tables[t]
                if key not in table:
                    reps = [rep_of[i] for i in key]
                    leaves = tuple(map(id, reps))
                    if leaves not in compiled:
                        # the instance over these representatives, compiled
                        # once per run with them as leaves
                        inst = instantiate(pattern, dict(zip(mvars, reps)))
                        scratch = MaskProgram()
                        compiled[leaves] = scratch, scratch.add(inst, frame, leaves)
                    scratch, top = compiled[leaves]
                    got = scratch.run(n, lambda f, _: masks_of[id(f)], matrix)
                    table[key] = _lowest_bit(got[top][1])
                return table[key]

            for t, name in enumerate(prop_ids):
                pattern, mvars, _, _ = tables[t]
                report.axiom_checks += len(rep_ids) ** len(mvars)
                if name in tautologies:
                    continue
                for key in itertools.product(rep_ids, repeat=len(mvars)):
                    k = failure(t, key)
                    if k is not None:
                        env = dict(zip(mvars, map(rep_of.get, key)))
                        inst = instantiate(pattern, env)
                        report.violations.append(
                            Violation("axiom", name, inst, A, space[k])
                        )

            holds = True  # whether every fixed instance holds in A
            verdicts = []
            for g, (_, members) in enumerate(groups):
                key = None if keys[g] is None else (g, n, keys[g](indices))
                entry = fixed_verdicts.get(key)  # nothing is stored under None
                if entry is None:
                    got = [is_valid_in(f, A, matrix) for f in members]
                    report.axiom_evaluations += len(members)
                    entry = all(ok for ok, _ in got), got
                    if key is not None:
                        fixed_verdicts[key] = entry
                holds &= entry[0]
                verdicts.append(entry[1])
            # per Ax13-Ax16 table, the vector classes whose instance fails
            failing = {
                t: {c for c in rep_ids if failure(t, (c,)) is not None}
                for t in consistency.values()
            }
            holds = holds and not any(failing.values())
            report.axiom_checks += len(fixed)
            for name, inst, t, where in () if holds else fixed:
                if t is None:
                    g, k = where
                    ok, witness = verdicts[g][k]
                elif ids[where] not in failing[t]:
                    continue
                else:
                    ok, witness = is_valid_in(inst, A, matrix)
                    if ok:
                        raise RuntimeError("%s: mask and pointwise verdicts differ" % name)
                if not ok:
                    report.violations.append(Violation("axiom", name, inst, A, witness))

            # modus ponens: the failing (valid class, failing class) pairs
            report.rule_checks += len(pool) ** 2
            valid = [c for c in rep_ids if fails[c] is None]
            refuted = [c for c in rep_ids if fails[c] is not None]
            broken = {(c, d) for c in valid for d in refuted if failure(mp, (c, d)) is None}
            for ia in ids if broken else ():
                for f, ib in zip(pool, ids):
                    if (ia, ib) in broken:
                        report.violations.append(
                            Violation("rule", "MP", f, A, space[fails[ib]])
                        )
            # the introductions: per variable, the failing pairs of a closed
            # class on the premise side and any class, with the index of
            # the conclusion's first failure
            for rule, instances in introductions:
                report.rule_checks += len(instances)
                broken = {}  # (table, pair of class ids) -> first failure
                for x in variables:
                    t = conclusion[rule.name, x]
                    for c in {c for c, side in zip(ids, closed[x]) if side}:
                        for d in rep_ids:
                            key = (c, d) if rule.side == 0 else (d, c)
                            if failure(mp, key) is None:
                                k = failure(t, key)
                                if k is not None:
                                    broken[t, key] = k
                for i, j, t in instances if broken else ():
                    k = broken.get((t, (ids[i], ids[j])))
                    if k is not None:
                        concl = instantiate(tables[t][0], {"a": pool[i], "b": pool[j]})
                        report.violations.append(Violation("rule", rule.name, concl, A, space[k]))
    # every evaluation of an axiom instance on masks left one table entry
    report.axiom_evaluations += sum(len(table) for _, _, table, _ in tables[:mp])
    return report
