"""Terms, formulas, parsing and substitution for a three-valued first-order language.

The connectives are negation ``~``, consistency ``@``, conjunction ``&``,
disjunction ``|`` and implication ``->``.  Strong negation ``!a`` and the
biconditional ``<->`` are parsed as abbreviations (``~a & @a`` and
``(a -> b) & (b -> a)``) and never appear in the AST.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field


class ParseError(ValueError):
    pass


class CaptureError(ValueError):
    """A substitution would capture a variable (or hit a schema metavariable)."""


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App:
    fun: str
    args: tuple["Term", ...]

    def __str__(self) -> str:
        return "%s(%s)" % (self.fun, ", ".join(str(a) for a in self.args))


Term = Var | Const | App


# ---------------------------------------------------------------------------
# Formulas


class _Node:
    """Base of the formula nodes: each prints as ``formula_to_str`` renders it."""

    def __str__(self) -> str:
        return formula_to_str(self)


@dataclass(frozen=True)
class Pred(_Node):
    name: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Eq(_Node):
    left: Term
    right: Term


@dataclass(frozen=True)
class FVar(_Node):
    """Formula metavariable, used in axiom schemas and schematic proofs.

    The parser never produces one; proof checking substitutes them in
    patterns and treats them as opaque atoms in proof steps.
    """

    name: str


@dataclass(frozen=True)
class Neg(_Node):
    sub: "Formula"


@dataclass(frozen=True)
class Cons(_Node):
    sub: "Formula"


@dataclass(frozen=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists(_Node):
    var: str
    body: "Formula"


Formula = Pred | Eq | FVar | Neg | Cons | And | Or | Imp | Forall | Exists

#: the connective symbol of each compound node type
UNARY_OPS = {Neg: "~", Cons: "@"}
BINARY_OPS = {And: "&", Or: "|", Imp: "->"}


def strong_neg(f: Formula) -> Formula:
    """The defined strong negation: ~f & @f."""
    return And(Neg(f), Cons(f))


# ---------------------------------------------------------------------------
# Signature


@dataclass
class Signature:
    """First-order signature: predicate/function arities plus constants.
    ``a <= b`` (a sub-signature) when every symbol of ``a`` is in ``b`` at
    the same arity."""

    predicates: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)
    constants: set[str] = field(default_factory=set)
    has_equality: bool = False

    def __le__(self, other: Signature) -> bool:
        return (
            self.predicates.items() <= other.predicates.items()
            and self.functions.items() <= other.functions.items()
            and self.constants <= other.constants
            and self.has_equality <= other.has_equality
        )


def signature_of(f: Formula) -> Signature:
    """The smallest signature that interprets every symbol of ``f``: its
    predicates and functions at the arities used, the constants of its
    ``Const`` terms, and equality if it has an ``Eq`` atom.  A symbol used
    at two arities is a ValueError.  The result is cached on the node, as
    ``free_vars``'s is: do not mutate it."""
    out = getattr(f, "_signature", None)
    if out is not None:
        return out
    out = Signature()
    todo = [f]
    while todo:  # in preorder, left before right, into the atoms' terms
        g = todo.pop()
        if isinstance(g, (Pred, App)):
            kind, table, name = (
                ("predicate", out.predicates, g.name) if isinstance(g, Pred)
                else ("function", out.functions, g.fun)
            )
            if table.setdefault(name, len(g.args)) != len(g.args):
                raise ValueError("%s %s used with %d and %d arguments"
                                 % (kind, name, table[name], len(g.args)))
            todo += reversed(g.args)
        elif isinstance(g, Eq):
            out.has_equality = True
            todo += g.right, g.left
        elif isinstance(g, Const):
            out.constants.add(g.name)
        elif type(g) in _CHILDREN:
            todo += _CHILDREN[type(g)](g)
        elif not isinstance(g, Var):
            raise TypeError("not a formula: %r" % (g,))
    object.__setattr__(f, "_signature", out)
    return out


# ---------------------------------------------------------------------------
# Printing

_PREC_QUANT = 0
_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5
_BINARY_PREC = {And: _PREC_AND, Or: _PREC_OR, Imp: _PREC_IMP}


def formula_to_str(f: Formula) -> str:
    """Render a formula so that parsing the result gives back an equal AST."""
    return _fmt(f, 0)


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, Pred):
        if not f.args:
            return f.name
        return "%s(%s)" % (f.name, ", ".join(str(a) for a in f.args))
    if isinstance(f, FVar):
        return f.name
    if isinstance(f, Eq):
        return "%s = %s" % (f.left, f.right)
    if isinstance(f, (Neg, Cons)):
        return UNARY_OPS[type(f)] + _fmt(f.sub, _PREC_UNARY)
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        s = "%s %s. %s" % (kw, f.var, _fmt(f.body, 0))
        # A quantifier swallows everything to its right, so it needs parens
        # whenever anything follows it.
        return "(%s)" % s if ctx > _PREC_QUANT else s
    if isinstance(f, (And, Or, Imp)):
        prec = _BINARY_PREC[type(f)]
        # & and | group to the left, -> to the right
        left, right = (prec + 1, prec) if isinstance(f, Imp) else (prec, prec + 1)
        s = "%s %s %s" % (
            _fmt(f.left, left), BINARY_OPS[type(f)], _fmt(f.right, right)
        )
        return "(%s)" % s if ctx > prec else s
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<op><->|->|[()~@!&|,.=])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError("unexpected character %r at offset %d" % (rest[0], pos))
        if m.group("op"):
            toks.append(("op", m.group("op"), m.start()))
        else:
            toks.append(("ident", m.group("ident"), m.start()))
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature | None):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.sig = sig

    def error(self, msg: str) -> ParseError:
        if self.pos < len(self.toks):
            where = "at %r" % (self.toks[self.pos][1],)
        else:
            where = "at end of input"
        return ParseError("%s %s in %r" % (msg, where, self.text))

    def peek_op(self, op: str) -> bool:
        return (
            self.pos < len(self.toks)
            and self.toks[self.pos][0] == "op"
            and self.toks[self.pos][1] == op
        )

    def accept_op(self, op: str) -> bool:
        if self.peek_op(op):
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error("expected %r" % op)

    def expect_ident(self) -> str:
        if self.pos < len(self.toks) and self.toks[self.pos][0] == "ident":
            name = self.toks[self.pos][1]
            self.pos += 1
            return name
        raise self.error("expected an identifier")

    # formula levels, lowest precedence first

    def imp(self) -> Formula:
        left = self.disj()
        if self.accept_op("->"):
            return Imp(left, self.imp())
        if self.accept_op("<->"):
            right = self.imp()
            return And(Imp(left, right), Imp(right, left))
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.accept_op("|"):
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.accept_op("&"):
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.accept_op("~"):
            return Neg(self.unary())
        if self.accept_op("@"):
            return Cons(self.unary())
        if self.accept_op("!"):
            return strong_neg(self.unary())
        if self.pos < len(self.toks) and self.toks[self.pos][0] == "ident":
            word = self.toks[self.pos][1]
            if word in ("forall", "exists"):
                self.pos += 1
                var = self.expect_ident()
                self.expect_op(".")
                body = self.imp()  # scope extends as far right as possible
                return Forall(var, body) if word == "forall" else Exists(var, body)
        return self.atom()

    def atom(self) -> Formula:
        if self.accept_op("("):
            f = self.imp()
            self.expect_op(")")
            return f
        name = self.expect_ident()
        args: list[Term] = []
        had_parens = False
        if self.accept_op("("):
            had_parens = True
            args.append(self.term())
            while self.accept_op(","):
                args.append(self.term())
            self.expect_op(")")
        if self.accept_op("="):
            right = self.term()
            left = self.make_term(name, args, had_parens)
            return Eq(left, right)
        if self.sig is not None:
            if name in self.sig.functions or name in self.sig.constants:
                raise self.error("term symbol %r used as a predicate" % name)
            if name in self.sig.predicates:
                want = self.sig.predicates[name]
                if want != len(args):
                    raise self.error(
                        "predicate %s expects %d arguments, got %d"
                        % (name, want, len(args))
                    )
            else:
                raise self.error("unknown predicate %r" % name)
        return Pred(name, tuple(args))

    def term(self) -> Term:
        name = self.expect_ident()
        if self.accept_op("("):
            args = [self.term()]
            while self.accept_op(","):
                args.append(self.term())
            self.expect_op(")")
            return self.make_term(name, args, True)
        return self.make_term(name, [], False)

    def make_term(self, name: str, args: list[Term], had_parens: bool) -> Term:
        if had_parens:
            if self.sig is not None:
                want = self.sig.functions.get(name)
                if want is None:
                    raise self.error("unknown function %r" % name)
                if want != len(args):
                    raise self.error(
                        "function %s expects %d arguments, got %d"
                        % (name, want, len(args))
                    )
            return App(name, tuple(args))
        if self.sig is not None:
            if name in self.sig.constants:
                return Const(name)
            if name in self.sig.functions:
                raise self.error("function %r needs arguments" % name)
            if name in self.sig.predicates:
                raise self.error("predicate %r used as a term" % name)
        return Var(name)


def parse_formula(text: str, sig: Signature | None = None) -> Formula:
    """Parse ``text`` into a formula, validating symbols against ``sig``.

    With ``sig=None`` any identifier is accepted: applied identifiers in
    formula position become predicates, bare identifiers in term position
    become variables.
    """
    p = _Parser(text, sig)
    f = p.imp()
    if p.pos != len(p.toks):
        raise p.error("unexpected trailing input")
    return f


# ---------------------------------------------------------------------------
# Variables and substitution


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


_NO_VARS: frozenset[str] = frozenset()


def free_vars(f: Formula) -> frozenset[str]:
    """Free variables of a formula (metavariables contribute none).

    The result is cached on the node, as formulas are immutable: each node
    is walked once, however often it or a formula containing it is asked.
    A node reuses its subformula's frozenset wherever the sets are equal.
    """
    out = getattr(f, "_free_vars", None)
    if out is not None:
        return out
    if isinstance(f, Pred):
        out = frozenset(v for a in f.args for v in term_vars(a)) or _NO_VARS
    elif isinstance(f, Eq):
        out = frozenset(term_vars(f.left) | term_vars(f.right)) or _NO_VARS
    elif isinstance(f, FVar):
        out = _NO_VARS
    elif isinstance(f, (Neg, Cons)):
        out = free_vars(f.sub)
    elif isinstance(f, (And, Or, Imp)):
        left, right = free_vars(f.left), free_vars(f.right)
        out = left if right <= left else right if left <= right else left | right
    elif isinstance(f, (Forall, Exists)):
        out = free_vars(f.body)
        if f.var in out:
            out = out.difference((f.var,)) or _NO_VARS
    else:
        raise TypeError("not a formula: %r" % (f,))
    object.__setattr__(f, "_free_vars", out)
    return out


def is_free_for(t: Term, x: str, f: Formula) -> bool:
    """True when substituting ``t`` for free ``x`` in ``f`` captures nothing."""
    if t == Var(x):
        return True
    tv = term_vars(t)

    def rec(g: Formula) -> bool:
        if isinstance(g, (Pred, Eq)):
            return True
        if isinstance(g, FVar):
            # The metavariable may stand for anything, so only a closed term
            # is guaranteed capture-free.
            return not tv
        if isinstance(g, (Neg, Cons)):
            return rec(g.sub)
        if isinstance(g, (And, Or, Imp)):
            return rec(g.left) and rec(g.right)
        if g.var == x or x not in free_vars(g):
            return True
        return g.var not in tv and rec(g.body)

    return rec(f)


def substitute_term(t: Term, x: str, s: Term) -> Term:
    if isinstance(t, Var):
        return s if t.name == x else t
    if isinstance(t, Const):
        return t
    return App(t.fun, tuple(substitute_term(a, x, s) for a in t.args))


def substitute(f: Formula, x: str, t: Term) -> Formula:
    """Replace every free occurrence of ``x`` in ``f`` by ``t``.

    Raises CaptureError if a replaced occurrence would fall inside the scope
    of a quantifier binding one of ``t``'s variables.
    """
    if t == Var(x):
        return f
    tv = term_vars(t)

    def rec(g: Formula) -> Formula:
        if isinstance(g, Pred):
            return Pred(g.name, tuple(substitute_term(a, x, t) for a in g.args))
        if isinstance(g, Eq):
            return Eq(substitute_term(g.left, x, t), substitute_term(g.right, x, t))
        if isinstance(g, FVar):
            raise CaptureError(
                "cannot substitute for %s inside metavariable %s" % (x, g.name)
            )
        if type(g) in UNARY_OPS:
            return type(g)(rec(g.sub))
        if type(g) in BINARY_OPS:
            return type(g)(rec(g.left), rec(g.right))
        if g.var == x or x not in free_vars(g):
            return g
        if g.var in tv:
            raise CaptureError(
                "substituting %s for %s in %s captures %s" % (t, x, g, g.var)
            )
        return type(g)(g.var, rec(g.body))

    return rec(f)


def replace_some_matches(f: Formula, x: str, y: str, candidate: Formula) -> bool:
    """Is ``candidate`` obtainable from ``f`` by turning some (possibly zero,
    possibly all) free occurrences of variable ``x`` into ``y``?"""

    def rec_t(t: Term, c: Term, bound: frozenset[str]) -> bool:
        if t == c:
            return True
        if isinstance(t, Var) and t.name == x and x not in bound:
            return c == Var(y)
        if isinstance(t, App) and isinstance(c, App):
            return (
                t.fun == c.fun
                and len(t.args) == len(c.args)
                and all(rec_t(a, b, bound) for a, b in zip(t.args, c.args))
            )
        return False

    return align(f, candidate, rec_t)


# ---------------------------------------------------------------------------
# Traversals: the walks that need no scoping beyond the bound variables


#: each node type's children, right to left (a preorder stack pushes them so)
_CHILDREN = {
    **dict.fromkeys((Pred, Eq, FVar), lambda g: ()),
    **dict.fromkeys((Neg, Cons), lambda g: (g.sub,)),
    **dict.fromkeys((And, Or, Imp), operator.attrgetter("right", "left")),
    **dict.fromkeys((Forall, Exists), lambda g: (g.body,)),
}


def subformulas(f: Formula) -> list[Formula]:
    """Every subformula of ``f`` in preorder, ``f`` first and left before
    right; atoms and metavariables are the leaves."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        children = _CHILDREN.get(type(g))
        if children is None:
            raise TypeError("not a formula: %r" % (g,))
        out.append(g)
        stack += children(g)
    return out


def map_atoms(f: Formula, fn) -> Formula:
    """``f`` rebuilt with each atom and metavariable ``g`` replaced by
    ``fn(g)``."""
    if isinstance(f, (Pred, Eq, FVar)):
        return fn(f)
    if isinstance(f, (Neg, Cons)):
        return type(f)(map_atoms(f.sub, fn))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(map_atoms(f.left, fn), map_atoms(f.right, fn))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, map_atoms(f.body, fn))
    raise TypeError("not a formula: %r" % (f,))


def align(f: Formula, g: Formula, on_terms) -> bool:
    """Walk ``f`` and ``g`` in parallel: True when they have the same shape
    and ``on_terms(a, b, bound)`` holds for each pair of atom arguments.

    The same shape means the same connectives, quantifiers on the same
    variables, predicates of the same name and arity, and equal
    metavariables.  ``bound`` is the frozenset of the variables quantified
    above the pair.
    """
    stack = [(f, g, frozenset())]
    while stack:
        a, b, bound = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Pred):
            if a.name != b.name or len(a.args) != len(b.args):
                return False
            if not all(on_terms(s, t, bound) for s, t in zip(a.args, b.args)):
                return False
        elif isinstance(a, Eq):
            if not (on_terms(a.left, b.left, bound) and on_terms(a.right, b.right, bound)):
                return False
        elif isinstance(a, FVar):
            if a != b:
                return False
        elif isinstance(a, (Neg, Cons)):
            stack.append((a.sub, b.sub, bound))
        elif isinstance(a, (And, Or, Imp)):
            stack += ((a.right, b.right, bound), (a.left, b.left, bound))
        elif isinstance(a, (Forall, Exists)):
            if a.var != b.var:
                return False
            stack.append((a.body, b.body, bound | {a.var}))
        else:
            raise TypeError("not a formula: %r" % (a,))
    return True


# ---------------------------------------------------------------------------
# Formula enumeration


def enumerate_formulas(sig: Signature, variables: list[str], max_depth: int):
    """Yield every formula over ``sig`` of depth <= max_depth exactly once.

    Atom arguments range over ``variables`` and the signature's constants;
    quantifiers bind variables from ``variables`` (shadowing permitted).
    The order is deterministic: by depth, then atoms / ~ / @ / forall /
    exists / & / | / -> within a level.  ``variables`` must be distinct,
    and ``max_depth`` at least 0.
    """
    if len(set(variables)) != len(variables):
        raise ValueError("variables repeat a name: %s" % (tuple(variables),))
    if max_depth < 0:
        raise ValueError("depth must be at least 0, not %d" % max_depth)
    terms: list[Term] = [Var(v) for v in variables]
    terms += [Const(c) for c in sorted(sig.constants)]

    atoms: list[Formula] = []
    for name in sorted(sig.predicates):
        for args in itertools.product(terms, repeat=sig.predicates[name]):
            atoms.append(Pred(name, args))
    if sig.has_equality:
        for t1, t2 in itertools.product(terms, repeat=2):
            atoms.append(Eq(t1, t2))

    yield from atoms
    exact = atoms  # formulas of depth exactly d
    cumulative = list(atoms)  # depth <= d
    for _ in range(max_depth):
        prev_cumulative = cumulative[: len(cumulative) - len(exact)]
        level: list[Formula] = []
        for g in exact:
            level.append(Neg(g))
        for g in exact:
            level.append(Cons(g))
        for v in variables:
            for g in exact:
                level.append(Forall(v, g))
        for v in variables:
            for g in exact:
                level.append(Exists(v, g))
        for op in (And, Or, Imp):
            # at least one operand must sit at the previous exact depth
            for a in exact:
                for b in cumulative:
                    level.append(op(a, b))
            for a in prev_cumulative:
                for b in exact:
                    level.append(op(a, b))
        yield from level
        exact = level
        cumulative = cumulative + level
