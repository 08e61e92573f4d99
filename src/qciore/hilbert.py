"""Hilbert-style proof checking: axiom schemas, rules, lemma citation.

A proof is a numbered list of formulas, each justified as a hypothesis, an
axiom instance, modus ponens, one of the two quantifier-introduction rules,
or an instance of a stored lemma chained through its premises.  Proofs may
be schematic: a formula metavariable stands for an arbitrary formula.  One
with no quantifier on x above it may hold a free x and binders of its own;
``possibly_free``, ``syntax.is_free_for`` and ``syntax.substitute`` all read
it so.  Accepted schematic proofs, Ax11, Ax12 and Eq2 steps included, thus
stay valid under instantiation.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from . import syntax
from .matrix3 import PROP_AXIOMS, is_tautology3
from .syntax import (
    CaptureError,
    Cons,
    EQ,
    Exists,
    Forall,
    Formula,
    FVar,
    Imp,
    Pred,
    Signature,
    Term,
    Var,
    free_vars,
    is_free_for,
    replace_some_matches,
    substitute,
)

# ---------------------------------------------------------------------------
# Proof objects


@dataclass(frozen=True)
class AxiomRef:
    axiom_id: str


@dataclass(frozen=True)
class MP:
    i: int
    j: int  # step j must be (step i) -> (current)


@dataclass(frozen=True)
class ForallIn:
    i: int


@dataclass(frozen=True)
class ExistsIn:
    i: int


@dataclass(frozen=True)
class HypRef:
    k: int


@dataclass(frozen=True)
class LemmaRef:
    name: str
    premises: tuple[int, ...] = ()


Justification = AxiomRef | MP | ForallIn | ExistsIn | HypRef | LemmaRef


@dataclass(frozen=True)
class Step:
    formula: Formula
    just: Justification


@dataclass(frozen=True)
class Proof:
    name: str
    hypotheses: tuple[Formula, ...] = ()
    steps: tuple[Step, ...] = ()
    schema_atoms: frozenset = frozenset()
    # propositional lemmas declared in the header, admitted after a
    # truth-table check (sound by the matrix completeness of the calculus)
    taut_lemmas: tuple[tuple[str, Formula], ...] = ()

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    failed_step: int | None = None  # 0 means a header declaration failed
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


class LemmaStore:
    """Named, checked lemma patterns; append-only, no redefinition."""

    def __init__(self):
        self._lemmas: dict[str, Formula] = {}

    def add(self, name: str, formula: Formula) -> None:
        old = self._lemmas.get(name)
        if old is not None and old != formula:
            raise ValueError("lemma %r already stored with a different formula" % name)
        self._lemmas[name] = formula

    def get(self, name: str) -> Formula | None:
        return self._lemmas.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._lemmas

    def copy(self) -> "LemmaStore":
        out = LemmaStore()
        out._lemmas = dict(self._lemmas)
        return out


# ---------------------------------------------------------------------------
# Conservative free-variable analysis


def possibly_free(x: str, f: Formula) -> bool:
    """Could ``x`` occur free in some instantiation of ``f``?

    A metavariable with no quantifier on ``x`` above it may hold a free
    ``x``, so it counts as one.  On concrete formulas this is exactly
    ordinary freeness.
    """
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, FVar) or isinstance(g, Pred) and x in free_vars(g):
            return True
        if not (isinstance(g, (Forall, Exists)) and g.var == x):
            stack += syntax._CHILDREN[type(g)](g)
    return False


# ---------------------------------------------------------------------------
# Pattern matching


def instantiate(pattern: Formula, env: dict) -> Formula:
    """Replace metavariables by formulas; unmapped ones are left alone."""
    return syntax.map_atoms(
        pattern, lambda g: env.get(g.name, g) if isinstance(g, FVar) else g
    )


def schema_metavariables(pattern: Formula) -> tuple[str, ...]:
    """The metavariable names of a pattern, sorted."""
    return tuple(sorted({g.name for g in syntax.subformulas(pattern) if isinstance(g, FVar)}))


def match_pattern(pattern: Formula, target: Formula, env: dict | None = None):
    """Match ``target`` against ``pattern``, binding metavariables.

    Returns the extended copy of ``env`` or None.  A metavariable binds the
    formula in its place, the same one at each occurrence; quantified
    variables and concrete atoms in the pattern must match exactly.
    """
    env = dict(env or {})

    def bind(a, b, bound) -> bool:
        if isinstance(a, FVar):
            return env.setdefault(a.name, b) is b or env[a.name] == b
        return a == b

    return env if syntax.align(pattern, target, bind) else None


def _infer_term(body: Formula, x: str, instance: Formula) -> Term | None:
    """Find the term t with body(t/x) = instance, comparing in parallel.

    Occurrences of x bound inside ``body`` must match verbatim.  Returns
    Var(x) when the two formulas are identical (an identity substitution).
    """
    found: list[Term] = []

    def terms(a: Term, b: Term, bound: frozenset) -> bool:
        if isinstance(a, Var) and a.name == x and x not in bound:
            found.append(b)
            return True
        return a == b

    if not syntax.align(body, instance, terms):
        return None
    if not found:
        return Var(x)
    t = found[0]
    if any(u != t for u in found):
        return None
    return t


# ---------------------------------------------------------------------------
# The quantifier and equality axioms and the quantifier introductions,
# written once: the proof checker and the soundness harness both read them here

#: Ax13-Ax16, each on a variable x and a formula a
_CONSISTENCY = {
    "Ax13": lambda x, a: Imp(Cons(Exists(x, a)), Exists(x, Cons(a))),
    "Ax14": lambda x, a: Imp(Cons(Forall(x, a)), Exists(x, Cons(a))),
    "Ax15": lambda x, a: Imp(Exists(x, Cons(a)), Cons(Exists(x, a))),
    "Ax16": lambda x, a: Imp(Exists(x, Cons(a)), Cons(Forall(x, a))),
}


def consistency_axioms(x: str, a: Formula) -> tuple:
    """Ax13-Ax16 on the variable x for the formula ``a``, as (name, formula)
    pairs: with a metavariable for ``a``, their patterns."""
    return tuple((name, build(x, a)) for name, build in _CONSISTENCY.items())


def term_axioms(x: str, body: Formula, t: Term) -> dict:
    """Ax11, body(t/x) -> exists x. body, and Ax12, forall x. body ->
    body(t/x), by name.  Raises CaptureError as ``substitute`` does."""
    inst = substitute(body, x, t)
    return {"Ax11": Imp(inst, Exists(x, body)), "Ax12": Imp(Forall(x, body), inst)}


def eq1_axiom(x: str) -> Formula:
    """Eq1: forall x. x = x."""
    return Forall(x, Pred(EQ, (Var(x), Var(x))))


def eq2_axiom(x: str, y: str, phi: Formula, replaced: Formula) -> Formula:
    """Eq2: forall x. forall y. (x = y -> (phi -> replaced)).  It is an
    axiom when ``replaced`` turns some free x of ``phi`` into y, and y is
    free for x in ``phi``."""
    return Forall(x, Forall(y, Imp(Pred(EQ, (Var(x), Var(y))), Imp(phi, replaced))))


QUANT_AXIOM_IDS = ("Ax11", "Ax12", *_CONSISTENCY)
EQ_AXIOM_IDS = ("Eq1", "Eq2")

#: The quantifier introductions by justification type.  From the premise
#: a -> b, with x not possibly free in its ``side`` (0: a, 1: b), each infers
#: ``conclusion(x, a, b)``, whose other side has the quantifier on x;
#: ``shape`` and ``where`` are the checker's words for it and for that side.
Introduction = namedtuple("Introduction", "name conclusion side shape where")
INTRODUCTIONS = {
    ForallIn: Introduction("forall-in", lambda x, a, b: Imp(a, Forall(x, b)), 0,
                           "a -> forall x. b", "antecedent"),
    ExistsIn: Introduction("exists-in", lambda x, a, b: Imp(Exists(x, a), b), 1,
                           "(exists x. a) -> b", "consequent"),
}


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    pattern: Formula | None = None  # None: matched by name in match_schema


AXIOMS: dict[str, AxiomSchema] = {name: AxiomSchema(name, f) for name, f in PROP_AXIOMS.items()}
AXIOMS.update((name, AxiomSchema(name)) for name in QUANT_AXIOM_IDS + EQ_AXIOM_IDS)


def match_schema(f: Formula, schema: AxiomSchema):
    """Match ``f`` as an instance of the axiom schema; None on failure.

    A propositional schema is matched by its pattern.  The others are
    matched by building the expected formula with the builder above that
    the soundness harness also uses, so the checker accepts exactly the
    shapes the harness checks.  The env maps "x" (and "y") to the
    variables, and "body" and "t", or "phi" and "phi2", to the parts.
    """
    name = schema.name
    if schema.pattern is not None:
        return match_pattern(schema.pattern, f)
    if name in ("Ax11", "Ax12"):
        return _match_term_instance(f, name)
    if name in _CONSISTENCY:
        return _match_cons_quant(f, name)
    if name == "Eq1":
        return {"x": f.var} if isinstance(f, Forall) and f == eq1_axiom(f.var) else None
    if name == "Eq2":
        return _match_eq_subst(f)
    raise ValueError("unknown axiom %r" % name)


def _match_term_instance(f: Formula, name: str):
    """Ax11 or Ax12: the axiom rebuilt from the term ``_infer_term`` reads
    off the instance must be ``f``; so the term is free for x."""
    if not isinstance(f, Imp):
        return None
    quant, inst = (f.right, f.left) if name == "Ax11" else (f.left, f.right)
    if not isinstance(quant, (Forall, Exists)):
        return None
    x, body = quant.var, quant.body
    t = _infer_term(body, x, inst)
    if t is None:
        return None
    try:
        if term_axioms(x, body, t)[name] != f:
            return None
    except CaptureError:
        return None
    return {"x": x, "body": body, "t": t}


def _match_cons_quant(f: Formula, name: str):
    """Ax13-Ax16: the named pattern on the antecedent quantifier's variable."""
    if not isinstance(f, Imp):
        return None
    quant = f.left.sub if isinstance(f.left, Cons) else f.left
    if not isinstance(quant, (Forall, Exists)):
        return None
    env = match_pattern(_CONSISTENCY[name](quant.var, FVar("a")), f)
    return None if env is None else {"x": quant.var, "body": env["a"]}


def _match_eq_subst(f: Formula):
    """Eq2, with y free for x in phi and phi2 replacing some free x by y."""
    if not (isinstance(f, Forall) and isinstance(f.body, Forall)):
        return None
    x, y = f.var, f.body.var
    env = match_pattern(eq2_axiom(x, y, FVar("a"), FVar("b")), f)
    if env is None:
        return None
    phi, phi2 = env["a"], env["b"]
    if not is_free_for(Var(y), x, phi) or not replace_some_matches(phi, x, y, phi2):
        return None
    return {"x": x, "y": y, "phi": phi, "phi2": phi2}


# ---------------------------------------------------------------------------
# Proof checking


def check_proof(p: Proof, sig: Signature, store: LemmaStore | None = None) -> Verdict:
    """Check every step of ``p``; stops at the first failure.

    Lemma citations resolve against ``store`` plus the proof's own header
    declarations; nothing is added to ``store`` here (see
    check_proof_sequence for session accumulation).
    """
    working = store.copy() if store is not None else LemmaStore()
    for name, formula in p.taut_lemmas:
        try:
            ok, witness = is_tautology3(formula)
        except ValueError as e:
            return Verdict(False, 0, "declared lemma %s: %s" % (name, e))
        if not ok:
            counter = {str(k): str(v) for k, v in sorted(witness.items(), key=str)}
            return Verdict(
                False, 0, "declared lemma %s is not a tautology (%s)" % (name, counter)
            )
        try:
            working.add(name, formula)
        except ValueError as e:
            return Verdict(False, 0, str(e))

    for idx, step in enumerate(p.steps, 1):
        reason = _check_step(p, sig, working, idx, step)
        if reason is not None:
            return Verdict(False, idx, reason)
    if not p.steps:
        return Verdict(False, 0, "empty proof")
    return Verdict(True)


def _check_step(p, sig, store, idx, step) -> str | None:
    f, just = step.formula, step.just

    def earlier(i):
        if not (1 <= i < idx):
            return None
        return p.steps[i - 1].formula

    if isinstance(just, HypRef):
        if not (1 <= just.k <= len(p.hypotheses)):
            return "hypothesis %d does not exist" % just.k
        if p.hypotheses[just.k - 1] != f:
            return "formula differs from hypothesis %d" % just.k
        return None

    if isinstance(just, AxiomRef):
        schema = AXIOMS.get(just.axiom_id)
        if schema is None:
            return "unknown axiom %r" % just.axiom_id
        if schema.name in EQ_AXIOM_IDS and not sig.has_equality:
            return "axiom %s needs an equality signature" % schema.name
        if match_schema(f, schema) is None:
            return "not an instance of %s" % schema.name
        return None

    if isinstance(just, MP):
        minor = earlier(just.i)
        major = earlier(just.j)
        if minor is None or major is None:
            return "modus ponens cites steps that are not earlier"
        if major != Imp(minor, f):
            return "step %d is not (step %d -> this formula)" % (just.j, just.i)
        return None

    rule = INTRODUCTIONS.get(type(just))
    if rule is not None:
        prem = earlier(just.i)
        if prem is None:
            return "cited step is not earlier"
        x = getattr((f.left, f.right)[1 - rule.side], "var", None) if isinstance(f, Imp) else None
        env = None if x is None else match_pattern(rule.conclusion(x, FVar("a"), FVar("b")), f)
        if env is None:
            return "conclusion must have shape %s" % rule.shape
        if prem != Imp(env["a"], env["b"]):
            return "step %d does not match the premise shape" % just.i
        if possibly_free(x, env["ab"[rule.side]]):
            return "variable %s may occur free in the %s" % (x, rule.where)
        return None

    if isinstance(just, LemmaRef):
        pattern = store.get(just.name)
        if pattern is None:
            return "no lemma named %r in the store" % just.name
        chain = f
        for i in reversed(just.premises):
            prem = earlier(i)
            if prem is None:
                return "lemma premise %d is not an earlier step" % i
            chain = Imp(prem, chain)
        if match_pattern(pattern, chain) is None:
            return "not an instance of lemma %s under the cited premises" % just.name
        return None

    return "unrecognized justification %r" % (just,)


def check_proof_sequence(
    proofs, sig: Signature, store: LemmaStore | None = None
) -> tuple[list[Verdict], LemmaStore]:
    """Check proofs in order, accumulating lemmas from accepted ones.

    An accepted proof contributes its header declarations and — when it has
    no hypotheses — its conclusion under the proof's name.  A proof that
    would store a lemma under a name already taken by a different formula
    is rejected at step 0 and contributes nothing.
    """
    store = store.copy() if store is not None else LemmaStore()
    verdicts = []
    for p in proofs:
        v = check_proof(p, sig, store)
        if v.accepted:
            lemmas = list(p.taut_lemmas)
            if not p.hypotheses:
                lemmas.append((p.name, p.conclusion))
            extended = store.copy()
            try:
                for name, formula in lemmas:
                    extended.add(name, formula)
            except ValueError as e:
                v = Verdict(False, 0, str(e))
            else:
                store = extended
        verdicts.append(v)
    return verdicts, store

