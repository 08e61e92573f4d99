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

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import hilbert, syntax, triples
from .hilbert import instantiate, possibly_free, schema_metavariables
from .matrix3 import CIORE, DESIGNATED, Matrix, PROP_AXIOMS
from .structures import (
    EQ,
    Assignment,
    MaskProgram,
    Structure,
    assignments_over,
    eval_formula,
    is_valid_in,
    make_structure,
)
from .syntax import (
    App,
    CaptureError,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    FVar,
    Imp,
    Pred,
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


def _factors(sig: Signature, n: int, equality_normal: bool) -> tuple:
    """The domain (e1..en) and one factor per symbol of ``sig``, each
    (``Structure`` field, name, interpretations), in the order that
    ``enumerate_structures`` gives.  A reduct signature's factors are the
    full one's for its symbols, in the same order, so a structure's reduct
    is the one at the mixed-radix index of its indices into those."""
    if n < 1:
        raise ValueError("domain size must be at least 1")
    domain = tuple("e%d" % i for i in range(1, n + 1))
    factors = []
    for name in sorted(sig.predicates):
        carrier = tuple(itertools.product(domain, repeat=sig.predicates[name]))
        factors.append(("preds", name, all_triples(carrier)))
    for name in sorted(sig.functions):
        keys = tuple(itertools.product(domain, repeat=sig.functions[name]))
        images = itertools.product(domain, repeat=len(keys))
        factors.append(("funs", name, [dict(zip(keys, values)) for values in images]))
    factors += [("consts", name, domain) for name in sorted(sig.constants)]
    if sig.has_equality:
        factors.append(("preds", EQ, list(_equality_interpretations(domain, equality_normal))))
    return domain, factors


def _structure_at(sig: Signature, domain: tuple, factors: list, indices) -> Structure:
    """The structure that interprets each factor's symbol by the
    interpretation at its index in ``indices``, built and validated."""
    parts: dict = {"preds": {}, "funs": {}, "consts": {}}
    for (part, name, values), i in zip(factors, indices):
        parts[part][name] = values[i]
    return make_structure(sig, domain, **parts)


def enumerate_structures(sig: Signature, n: int, equality_normal: bool = True):
    """Every structure with domain (e1..en), each exactly once.

    The order is deterministic: the lexicographic product of one factor per
    symbol (``_factors``), the last varying fastest.  Predicates come in
    sorted name order, each ranging over all class assignments; then
    functions in sorted name order over all total maps; then constants, one
    factor each, in sorted name order over all elements; equality last.
    """
    domain, factors = _factors(sig, n, equality_normal)
    for indices in itertools.product(*(range(len(v)) for _, _, v in factors)):
        yield _structure_at(sig, domain, factors, indices)


def structure_count(sig: Signature, n: int, equality_normal: bool = True) -> int:
    """How many structures enumerate_structures yields, in closed form."""
    total = 1
    for arity in sig.predicates.values():
        total *= 3 ** (n**arity)
    for arity in sig.functions.values():
        total *= n ** (n**arity)
    total *= n ** len(sig.constants)
    if sig.has_equality:
        total *= 2**n if equality_normal else 3 ** (n * n)
    return total


# ---------------------------------------------------------------------------
# Reducts: a formula's value in a structure depends only on the domain and on
# how the structure interprets the symbols the formula mentions


def _symbols(f: Formula) -> tuple:
    """The predicates (``"="`` for equality), functions and constants that
    ``f`` mentions, each sorted.

    The result is cached on the node, as formulas are immutable (as
    ``free_vars`` caches its own)."""
    out = getattr(f, "_symbols", None)
    if out is not None:
        return out
    preds, funs, consts = set(), set(), set()

    def term(t):
        if isinstance(t, Const):
            consts.add(t.name)
        elif isinstance(t, App):
            funs.add(t.fun)
            for a in t.args:
                term(a)

    for g in syntax.subformulas(f):
        if isinstance(g, Pred):
            preds.add(g.name)
            args = g.args
        elif isinstance(g, Eq):
            preds.add(EQ)
            args = g.left, g.right
        else:
            continue
        for a in args:
            term(a)
    out = tuple(sorted(preds)), tuple(sorted(funs)), tuple(sorted(consts))
    object.__setattr__(f, "_symbols", out)
    return out


def _signature_symbols(sig: Signature) -> tuple:
    """Every symbol of ``sig``, in the form ``_symbols`` gives."""
    preds = set(sig.predicates) | ({EQ} if sig.has_equality else set())
    return tuple(sorted(preds)), tuple(sorted(sig.functions)), tuple(sorted(sig.constants))


def _leaves_out_a_symbol(symbols: tuple, everything: tuple) -> bool:
    """True when ``symbols`` are some but not all of ``everything``: only
    then can two distinct structures have the same reduct to them."""
    return symbols != everything and all(
        set(part) <= set(whole) for part, whole in zip(symbols, everything)
    )


def _group_by_symbols(formulas) -> tuple[list, list]:
    """The formulas grouped by the symbols they mention, in order of first
    appearance: a list of (symbols, members), and for each formula its
    (group, position in group)."""
    groups = []
    group_of: dict = {}
    slot = []
    for f in formulas:
        symbols = _symbols(f)
        g = group_of.setdefault(symbols, len(groups))
        if g == len(groups):
            groups.append((symbols, []))
        slot.append((g, len(groups[g][1])))
        groups[g][1].append(f)
    return groups, slot


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


def _reduct_walk(sig: Signature, symbols: tuple, factors: list):
    """For the reducts of ``sig``'s structures over ``factors`` to ``symbols``
    (as ``_symbols`` gives them): the (factor position, stride) pairs whose
    products sum a structure's indices to its reduct's index, the reduct's
    signature, the positions of its factors and those factors, and an empty
    verdict table."""
    preds, funs, consts = symbols
    wanted = {("preds", p) for p in preds} | {("funs", h) for h in funs}
    wanted |= {("consts", c) for c in consts}
    strides, stride = [], 1
    for position in reversed(range(len(factors))):
        part, name, values = factors[position]
        if (part, name) in wanted:
            strides.append((position, stride))
            stride *= len(values)
    reduct_sig = Signature(
        predicates={p: sig.predicates[p] for p in preds if p != EQ},
        functions={h: sig.functions[h] for h in funs},
        constants=set(consts),
        has_equality=EQ in preds,
    )
    positions = [position for position, _ in reversed(strides)]
    return strides, reduct_sig, positions, [factors[p] for p in positions], {}


def find_countermodel(spec: SearchSpec, progress=None, progress_every: int = 1000):
    """First structure where every premise is valid and phi is not.

    Returns the least refuting assignment with it; the refutation is
    re-evaluated from scratch before being reported.  ``progress``, if
    given, is called with (structures checked, elapsed seconds) every
    ``progress_every`` structures.

    A formula's verdict depends only on the domain and on the
    interpretations of the symbols it mentions (its reduct).  The premises
    are grouped by the symbols they mention.  Within one domain size the
    search walks the structures of ``enumerate_structures`` as tuples of
    indices into the factors of ``_factors``, in the same order.  A group or
    the target that leaves out a symbol keeps a verdict table keyed by the
    index of the reduct, which is built from the same factors at the
    reduct's positions; each verdict is decided once, on the reduct, and
    read back for every other structure with that reduct.  A full structure
    is built (and validated) only for a check that mentions every symbol of
    the signature, and for the countermodel; where every check does, the
    structures are taken from ``enumerate_structures``.
    ``structures_checked`` counts the structures decided;
    ``structures_evaluated`` counts those in which at least one premise or
    the target was evaluated rather than read back.
    """
    if progress_every < 1:
        raise ValueError("progress_every must be at least 1")
    t0 = time.monotonic()
    checked = evaluated = 0
    sig = spec.sig
    # (symbols, members) per premise group, then the target's; symbols are
    # None where the formulas mention every symbol of the signature, as they
    # all do when it has only one (then they are not walked at all)
    checks = [(None, spec.gamma)] if spec.gamma else []
    checks.append((None, (spec.phi,)))
    if len(sig.predicates) + sig.has_equality + len(sig.functions) + len(sig.constants) > 1:
        everything = _signature_symbols(sig)
        checks = [
            (symbols if _leaves_out_a_symbol(symbols, everything) else None, members)
            for symbols, members in _group_by_symbols(spec.gamma)[0]
            + [(_symbols(spec.phi), (spec.phi,))]
        ]

    for n in range(1, spec.max_domain_size + 1):
        if all(symbols is None for symbols, _ in checks):
            # every check reads the whole structure: take each as enumerated
            walks = [None] * len(checks)
            points = ((None, A) for A in enumerate_structures(sig, n, spec.equality_normal))
        else:
            domain, factors = _factors(sig, n, spec.equality_normal)
            walks = [
                None if symbols is None else _reduct_walk(sig, symbols, factors)
                for symbols, _ in checks
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
                    strides, reduct_sig, positions, reduct_factors, verdicts = walk
                    i = sum(indices[position] * stride for position, stride in strides)
                    verdict = verdicts.get(i)
                    if verdict is None:
                        reduct = _structure_at(
                            reduct_sig, domain, reduct_factors, [indices[p] for p in positions]
                        )
                        verdict = verdicts[i] = _first_failure(members, reduct)
                        fresh = True
                if not verdict[0]:
                    break
            evaluated += fresh
            if verdict[0] or members is not checks[-1][1]:
                continue  # the target holds, or a premise fails
            A = A or _structure_at(sig, domain, factors, indices)
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


QUANT_AXIOM_IDS = ("Ax11", "Ax12", "Ax13", "Ax14", "Ax15", "Ax16")
EQ_AXIOM_IDS = ("Eq1", "Eq2")


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
    axiom_evaluations: int = 0  # instances evaluated; the rest reuse a verdict
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


def _quantifier_axiom_instances(pool, variables, terms):
    """Concrete instances of the six quantifier axioms over the pool."""
    return [inst for phi in pool for x in variables for inst in _quantifier_axioms(phi, x, terms)]


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

    Every schema in ``axiom_pool`` (default: all of them) is instantiated
    with formulas of depth ≤ ``instance_depth`` over ``variables`` (distinct
    names) and checked for validity in every structure of size ≤
    ``max_size``.  Rule preservation (modus ponens and the two quantifier
    introductions) is checked for every pair of pool formulas in every
    structure, and counted per pair.  A violation names the pool formulas
    themselves.  Ax11-Ax16, Eq1 and Eq2 are built by ``hilbert``'s axiom
    builders, the ones ``match_schema`` checks proof steps against.

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
    ``a -> b`` and, per variable x, the conclusions ``a -> forall x. b`` and
    ``(exists x. a) -> b``: each such axiom instance and rule check is
    decided once per run per tuple of vector classes (and variable).  An
    instance is built again from the pool formulas only where it is a
    violation to report; a failing Ax13-Ax16 instance takes its witness from
    ``is_valid_in``.  Ax11, Ax12 and the equality instances are decided by
    ``is_valid_in``.  Their value depends only on the domain and on the
    interpretations of the symbols they mention (their reduct), so their
    verdicts are decided once per run for each domain size and reduct.  As
    in ``find_countermodel``, a structure is named by its indices into the
    factors of ``_factors``, and a reduct by the mixed-radix index that
    ``_reduct_walk``'s strides sum those to; the verdicts are keyed by
    (group, domain size, reduct index).  Instances that mention every symbol
    of the signature share no reduct between structures, so they are
    evaluated in each structure and their verdicts are not stored.
    ``axiom_checks`` counts the instances decided, structure by structure;
    ``axiom_evaluations`` counts those actually evaluated.
    """
    if len(set(variables)) != len(variables):
        raise ValueError("variables repeat a name: %s" % (variables,))
    if max_size < 1:
        raise ValueError("max_size must be at least 1, not %d" % max_size)
    pool = list(enumerate_formulas(sig, variables, instance_depth))
    if axiom_pool is None:
        axiom_pool = (
            list(PROP_AXIOMS)
            + list(QUANT_AXIOM_IDS)
            + (list(EQ_AXIOM_IDS) if sig.has_equality else [])
        )
    prop_ids = [a for a in axiom_pool if a in PROP_AXIOMS]
    quant_ids = [a for a in axiom_pool if a in QUANT_AXIOM_IDS]
    eq_ids = [a for a in axiom_pool if a in EQ_AXIOM_IDS]
    unknown = [a for a in axiom_pool if a not in set(prop_ids + quant_ids + eq_ids)]
    if unknown:
        raise ValueError("unknown axiom schemas: %s" % ", ".join(unknown))

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
    conclusion = {}  # (rule, variable) -> index of its conclusion's table
    for x in variables:
        conclusion["forall-in", x] = len(patterns)
        conclusion["exists-in", x] = len(patterns) + 1
        patterns += [Imp(a, Forall(x, b)), Imp(Exists(x, a), b)]
    tables = [(p, schema_metavariables(p), {}, {}) for p in patterns]
    vector_ids: dict = {}  # (width, plus, minus) -> small int, for the whole run

    # the fixed instances in order, as (schema, instance, table, pool
    # index): Ax13-Ax16 are decided by their tables, the others (table
    # None) by is_valid_in
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
    # the instances decided by is_valid_in, grouped by the symbols they
    # mention; slot[k] is (group, position in group) of the k-th of them.
    # Only a group that leaves out a symbol of the signature can meet its
    # reduct again.
    groups, slot = _group_by_symbols(f for _, f, t, _ in fixed if t is None)
    everything = _signature_symbols(sig)
    reusable = [_leaves_out_a_symbol(symbols, everything) for symbols, _ in groups]
    fixed_verdicts: dict = {}  # (group, size, reduct index) -> [(ok, witness), ...]

    # quantifier rule instances over the full pool, as (i, j, table of the
    # conclusion) for each introduction from pool[i] -> pool[j] whose side
    # condition holds
    closed = {x: [not possibly_free(x, f) for f in pool] for x in variables}
    indices = range(len(pool))
    forall_in = [
        (i, j, conclusion["forall-in", x])
        for i in indices for j in indices for x in variables if closed[x][i]
    ]
    exists_in = [
        (i, j, conclusion["exists-in", x])
        for i in indices for j in indices for x in variables if closed[x][j]
    ]

    frame = tuple(sorted(variables))
    program = MaskProgram()
    pool_at = [program.add(f, frame) for f in pool]
    report = HarnessReport()

    for n in range(1, max_size + 1):
        width = n ** len(frame)
        # each structure's indices into the factors it is enumerated from,
        # and per reusable group the strides that sum them to its reduct's
        _, factors = _factors(sig, n, True)
        strides = [
            _reduct_walk(sig, symbols, factors)[0] if reuse else None
            for (symbols, _), reuse in zip(groups, reusable)
        ]
        points = itertools.product(*(range(len(v)) for _, _, v in factors))
        for A, indices in zip(enumerate_structures(sig, n), points):
            report.structures_checked += 1
            space = list(assignments_over(A, frame))

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
                for key in itertools.product(rep_ids, repeat=len(mvars)):
                    k = failure(t, key)
                    if k is not None:
                        env = dict(zip(mvars, map(rep_of.get, key)))
                        inst = instantiate(pattern, env)
                        report.violations.append(
                            Violation("axiom", name, inst, A, space[k])
                        )

            verdicts = []
            for g, (_, members) in enumerate(groups):
                key = None if strides[g] is None else (
                    g, n, sum(indices[position] * stride for position, stride in strides[g])
                )
                got = fixed_verdicts.get(key)  # nothing is stored under None
                if got is None:
                    got = [is_valid_in(f, A, matrix) for f in members]
                    report.axiom_evaluations += len(members)
                    if key is not None:
                        fixed_verdicts[key] = got
                verdicts.append(got)
            report.axiom_checks += len(fixed)
            slots = iter(slot)
            for name, inst, t, i in fixed:
                if t is None:
                    g, k = next(slots)
                    ok, witness = verdicts[g][k]
                elif failure(t, (ids[i],)) is None:
                    continue
                else:
                    ok, witness = is_valid_in(inst, A, matrix)
                    if ok:
                        raise RuntimeError("%s: mask and pointwise verdicts differ" % name)
                if not ok:
                    report.violations.append(Violation("axiom", name, inst, A, witness))

            report.rule_checks += len(pool) ** 2
            for ia in ids:
                if fails[ia] is not None:
                    continue
                for f, ib in zip(pool, ids):
                    if fails[ib] is not None and failure(mp, (ia, ib)) is None:
                        report.violations.append(
                            Violation("rule", "MP", f, A, space[fails[ib]])
                        )
            for rule, instances in (("forall-in", forall_in), ("exists-in", exists_in)):
                report.rule_checks += len(instances)
                for i, j, t in instances:
                    key = (ids[i], ids[j])
                    if failure(mp, key) is None:
                        k = failure(t, key)
                        if k is not None:
                            env = {"a": pool[i], "b": pool[j]}
                            concl = instantiate(tables[t][0], env)
                            report.violations.append(
                                Violation("rule", rule, concl, A, space[k])
                            )
    # every evaluation of an axiom instance on masks left one table entry
    report.axiom_evaluations += sum(len(table) for _, _, table, _ in tables[:mp])
    return report
