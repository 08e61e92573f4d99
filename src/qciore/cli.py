"""Command-line interface and the text file formats it reads and writes.

Structure files describe finite partial structures::

    # three points, P definitely true on a, undetermined elsewhere
    domain = {a, b, c}
    pred P/1 { plus={(a)} minus={} dot={(b),(c)} }
    fun f/1 { (a)->b, (b)->c, (c)->a }
    const c0 = a
    equality normal

Proof files hold numbered derivations::

    name: imp-refl
    schema-atom: A
    1. A -> ((A -> A) -> A) ; ax Ax1
    2. ... ; mp 1 2

Header lines may also declare propositional lemmas checked by truth table
(``taut NAME: formula``, every nullary atom read as a metavariable) and
schema atoms (nullary atoms standing for arbitrary formulas).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from types import SimpleNamespace

from . import structures, syntax
from .hilbert import (
    AxiomRef,
    HypRef,
    INTRODUCTIONS,
    LemmaRef,
    LemmaStore,
    MP,
    Proof,
    Step,
    check_proof_sequence,
)
from .matrix3 import DESIGNATED, HALF, ONE, ZERO
from .modeltheory import (
    elementary_equiv_bounded,
    elementary_sub_bounded,
    is_substructure,
    tarski_conditions,
)
from .search import SearchSpec, find_countermodel
from .structures import (
    Assignment,
    Structure,
    classical_equality,
    eval_formula,
    is_valid_in,
    make_structure,
    sentence_trichotomy,
)
from .syntax import (
    And,
    BINARY_OPS,
    Formula,
    FVar,
    ParseError,
    Pred,
    Signature,
    UNARY_OPS,
    enumerate_formulas,
    formula_to_str,
    free_vars,
    parse_formula,
)
from .triples import Triple, make_triple
from .twist import (
    AssignmentSpace,
    PowersetAlgebra,
    all_twist_pairs,
    all_twist_triples,
    dagger,
    ddagger,
    lifted_quantifier,
    pair_op,
    twist_triple_op,
)

# ---------------------------------------------------------------------------
# Structure files


class FileFormatError(ValueError):
    pass


_STRUCT_TOKEN = re.compile(r"->|[{}(),=/]|[A-Za-z_][A-Za-z0-9_']*|\d+|\S")


def _strip_comments(text: str) -> str:
    return re.sub(r"#[^\n]*", "", text)


class _StructScanner:
    def __init__(self, text: str):
        self.tokens = _STRUCT_TOKEN.findall(_strip_comments(text))
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FileFormatError("unexpected end of structure file")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise FileFormatError("expected %r, found %r" % (tok, got))

    def name(self) -> str:
        tok = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", tok):
            raise FileFormatError("expected a name, found %r" % tok)
        return tok


def _parse_list(sc: _StructScanner, brackets: str, item) -> list:
    """A bracketed comma-separated list, such as ``{a, b}`` or ``(a,b)``."""
    sc.expect(brackets[0])
    out = []
    if sc.peek() != brackets[1]:
        out.append(item(sc))
        while sc.peek() == ",":
            sc.next()
            out.append(item(sc))
    sc.expect(brackets[1])
    return out


def _parse_tuple(sc: _StructScanner) -> tuple:
    return tuple(_parse_list(sc, "()", _StructScanner.name))


def _parse_triple_body(sc: _StructScanner, what: str) -> Triple:
    sc.expect("{")
    parts: dict[str, frozenset] = {}
    while sc.peek() != "}":
        key = sc.next()
        if key not in ("plus", "minus", "dot"):
            raise FileFormatError(
                "expected plus=, minus= or dot= in %s, found %r" % (what, key)
            )
        if key in parts:
            raise FileFormatError("duplicate %s= in %s" % (key, what))
        sc.expect("=")
        parts[key] = frozenset(_parse_list(sc, "{}", _parse_tuple))
    sc.expect("}")
    missing = {"plus", "minus", "dot"} - set(parts)
    if missing:
        raise FileFormatError("%s is missing %s" % (what, ", ".join(sorted(missing))))
    try:
        return make_triple(parts["plus"], parts["minus"], parts["dot"])
    except ValueError as e:
        raise FileFormatError("%s: %s" % (what, e))


def _parse_fun_body(sc: _StructScanner, what: str) -> dict:
    sc.expect("{")
    table: dict[tuple, str] = {}
    while sc.peek() != "}":
        args = _parse_tuple(sc)
        sc.expect("->")
        value = sc.name()
        if args in table:
            raise FileFormatError("%s maps %s twice" % (what, args))
        table[args] = value
        if sc.peek() == ",":
            sc.next()
    sc.expect("}")
    return table


def _parse_header(sc: _StructScanner, arities: dict, what: str) -> str:
    """The ``name/arity`` of a pred or fun declaration: enters the arity in
    ``arities`` and returns the name."""
    name = sc.name()
    sc.expect("/")
    arity = sc.next()
    if not arity.isdecimal():
        raise FileFormatError("expected an arity, found %r" % arity)
    if name in arities:
        raise FileFormatError("%s %s declared twice" % (what, name))
    arities[name] = int(arity)
    return name


def parse_structure(text: str) -> Structure:
    """Parse the structure file format; validates the result."""
    sc = _StructScanner(text)
    domain: tuple | None = None
    preds: dict[str, Triple] = {}
    pred_sig: dict[str, int] = {}
    funs: dict[str, dict] = {}
    fun_sig: dict[str, int] = {}
    consts: dict[str, str] = {}
    equality: Triple | str | None = None

    while sc.peek() is not None:
        head = sc.next()
        if head == "domain":
            if domain is not None:
                raise FileFormatError("domain declared twice")
            sc.expect("=")
            elems = _parse_list(sc, "{}", _StructScanner.name)
            if not elems:
                raise FileFormatError("domain must be nonempty")
            domain = tuple(elems)
        elif head == "pred":
            name = _parse_header(sc, pred_sig, "predicate")
            preds[name] = _parse_triple_body(sc, "pred %s" % name)
        elif head == "fun":
            name = _parse_header(sc, fun_sig, "function")
            funs[name] = _parse_fun_body(sc, "fun %s" % name)
        elif head == "const":
            name = sc.name()
            if name in consts:
                raise FileFormatError("constant %s declared twice" % name)
            sc.expect("=")
            consts[name] = sc.name()
        elif head == "equality":
            if equality is not None:
                raise FileFormatError("equality declared twice")
            if sc.peek() == "normal":
                sc.next()
                equality = "normal"
            else:
                equality = _parse_triple_body(sc, "equality")
        else:
            raise FileFormatError("unrecognized declaration %r" % head)

    if domain is None:
        raise FileFormatError("structure file has no domain")
    sig = Signature(
        predicates=pred_sig,
        functions=fun_sig,
        constants=set(consts),
        has_equality=equality is not None,
    )
    if equality == "normal":
        preds["="] = classical_equality(domain)
    elif equality is not None:
        preds["="] = equality
    try:
        return make_structure(sig, domain, preds, funs, consts)
    except ValueError as e:
        raise FileFormatError(str(e))


def _format_triple_body(t: Triple) -> str:
    sets = (
        "{%s}" % ",".join("(%s)" % ",".join(tup) for tup in sorted(part))
        for part in (t.plus, t.minus, t.dot)
    )
    return "{ plus=%s minus=%s dot=%s }" % tuple(sets)


def format_structure(a: Structure) -> str:
    """Print a structure in the file format; parses back to an equal value."""
    lines = ["domain = {%s}" % ", ".join(a.domain)]
    for part, name, arity in structures._parts(a.sig):  # equality last
        value = getattr(a, part)[name]
        if name == "=":
            normal = value == classical_equality(a.domain)
            lines.append("equality %s" % ("normal" if normal else _format_triple_body(value)))
        elif part == "preds":
            lines.append("pred %s/%d %s" % (name, arity, _format_triple_body(value)))
        elif part == "funs":
            entries = ", ".join("(%s)->%s" % (",".join(args), image)
                                for args, image in sorted(value.items()))
            lines.append("fun %s/%d { %s }" % (name, arity, entries))
        else:
            lines.append("const %s = %s" % (name, value))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Proof files


_STEP_LINE = re.compile(r"^(\d+)\.\s*(.*?)\s*;\s*(.*)$")
_TAUT_LINE = re.compile(r"^taut\s+([A-Za-z0-9_-]+)\s*:\s*(.*)$")
_LEMMA_NAME = re.compile(r"^[A-Za-z0-9_-]+$")


def _schematize(f: Formula, names) -> Formula:
    """Turn nullary atoms into metavariables (all of them when names is None)."""

    def atom(g: Formula) -> Formula:
        if isinstance(g, Pred) and (names is None or g.name in names):
            if not g.args:
                return FVar(g.name)
            if names is not None:
                raise FileFormatError("schema atom %s used with arguments" % g.name)
        return g

    return syntax.map_atoms(f, atom)


def _parse_justification(text: str):
    words = text.split()
    if not words:
        raise FileFormatError("empty justification")
    head, rest = words[0], words[1:]
    try:
        if head == "ax" and len(rest) == 1:
            return AxiomRef(rest[0])
        if head == "mp" and len(rest) == 2:
            return MP(int(rest[0]), int(rest[1]))
        for kind, rule in INTRODUCTIONS.items():
            if head == rule.name and len(rest) == 1:
                return kind(int(rest[0]))
        if head == "hyp" and len(rest) == 1:
            return HypRef(int(rest[0]))
        if head == "lemma" and rest and _LEMMA_NAME.match(rest[0]):
            return LemmaRef(rest[0], tuple(int(w) for w in rest[1:]))
    except ValueError:
        pass
    raise FileFormatError("cannot read justification %r" % text)


def parse_proof(text: str) -> Proof:
    """Parse the proof file format into a Proof."""
    name: str | None = None
    schema_atoms: set[str] = set()
    taut_lemmas: list[tuple[str, Formula]] = []
    hypotheses: list[Formula] = []
    steps: list[Step] = []

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STEP_LINE.match(line)
        if m:
            number = int(m.group(1))
            if number != len(steps) + 1:
                raise FileFormatError(
                    "step %d out of order (expected %d)" % (number, len(steps) + 1)
                )
            formula = _schematize(parse_formula(m.group(2)), schema_atoms)
            steps.append(Step(formula, _parse_justification(m.group(3))))
            continue
        if steps:
            raise FileFormatError("header line after the first step: %r" % line)
        if line.startswith("name:"):
            if name is not None:
                raise FileFormatError("proof name declared twice")
            name = line[len("name:") :].strip()
            if not _LEMMA_NAME.match(name):
                raise FileFormatError("bad proof name %r" % name)
            continue
        if line.startswith("schema-atom:"):
            for atom in line[len("schema-atom:") :].split():
                schema_atoms.add(atom)
            continue
        m = _TAUT_LINE.match(line)
        if m:
            taut_lemmas.append((m.group(1), _schematize(parse_formula(m.group(2)), None)))
            continue
        if line.startswith("hyp:"):
            hypotheses.append(
                _schematize(parse_formula(line[len("hyp:") :].strip()), schema_atoms)
            )
            continue
        raise FileFormatError("cannot read line %r" % line)

    if name is None:
        raise FileFormatError("proof file has no name")
    if not steps:
        raise FileFormatError("proof %s has no steps" % name)
    # one symbol, one arity; the signature itself is not needed
    infer_signature(hypotheses + [s.formula for s in steps])
    return Proof(
        name=name,
        hypotheses=tuple(hypotheses),
        steps=tuple(steps),
        schema_atoms=frozenset(schema_atoms),
        taut_lemmas=tuple(taut_lemmas),
    )


# ---------------------------------------------------------------------------
# Commands


def infer_signature(formulas) -> Signature:
    """The smallest signature interpreting every symbol in the formulas:
    ``syntax.signature_of`` of their conjunction, which no formula's cache
    shares.  The parser reads bare identifiers as variables, so it has no
    constants.  A symbol used at two arities is a FileFormatError."""
    try:
        # the leftmost conjunct, a metavariable, has no symbols
        return syntax.signature_of(functools.reduce(And, formulas, FVar("_")))
    except ValueError as e:
        raise FileFormatError(str(e)) from e


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_structure(path: str) -> Structure:
    try:
        return parse_structure(_read(path))
    except (FileFormatError, ParseError) as e:
        raise FileFormatError("%s: %s" % (path, e)) from e


def _parse_assignment(text: str, A: Structure) -> Assignment:
    pairs: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        var, sep, elem = part.partition("=")
        var, elem = var.strip(), elem.strip()
        if not sep or not var or not elem:
            raise FileFormatError("assignment entries look like x=e1: %r" % part)
        if elem not in A.domain:
            raise FileFormatError("element %s is not in the domain" % elem)
        if var in pairs:
            raise FileFormatError("variable %s assigned twice" % var)
        pairs[var] = elem
    return Assignment(A.domain[0], tuple(sorted(pairs.items())))


def _assignment_json(s: Assignment) -> dict:
    return {"default": str(s.default), **{v: str(e) for v, e in s.pairs}}


def cmd_eval(args) -> int:
    A = _load_structure(args.structure)
    f = parse_formula(args.formula, A.sig)
    if args.valid:
        ok, witness = is_valid_in(f, A)
        if args.json:
            out = {"valid": ok}
            if not ok:
                out["assignment"] = _assignment_json(witness)
                out["value"] = str(eval_formula(f, A, witness))
            print(json.dumps(out))
        elif ok:
            print("VALID in every assignment")
        else:
            print(
                "REFUTED at %s: value %s" % (witness, eval_formula(f, A, witness))
            )
        return 0 if ok else 1
    s = _parse_assignment(args.assign, A) if args.assign else A.default_assignment()
    v = eval_formula(f, A, s)
    designated = v in DESIGNATED
    verdict = sentence_trichotomy(f, A) if not free_vars(f) else None
    if args.json:
        out = {"value": str(v), "designated": designated}
        if verdict is not None:
            out["verdict"] = verdict
        print(json.dumps(out))
    else:
        line = "value %s (%sdesignated)" % (v, "" if designated else "not ")
        if verdict is not None:
            line += ", sentence verdict %s" % verdict
        print(line)
    return 0 if designated else 1


PERMISSIVE_SIG = Signature(
    predicates={}, functions={}, constants=set(), has_equality=True
)


def cmd_check_proof(args) -> int:
    store = LemmaStore()
    failed = unreadable = False
    for path in args.files:
        try:
            proof = parse_proof(_read(path))
            verdicts, checked = check_proof_sequence([proof], PERMISSIVE_SIG, store)
            verdict = verdicts[0]
            if verdict.accepted:
                line = "ACCEPTED %s (%d steps): %s" % (
                    proof.name, len(proof.steps), formula_to_str(proof.conclusion)
                )
            else:
                line = "REJECTED %s at step %d: %s" % (
                    proof.name, verdict.failed_step, verdict.reason
                )
        except (OSError, UnicodeDecodeError, FileFormatError, ParseError, RecursionError) as e:
            unreadable = True
            print("ERROR %s: %s" % (path, _describe(e)))
            continue
        store = checked
        failed |= not verdict.accepted
        print(line)
    return 2 if unreadable else 1 if failed else 0


def cmd_search(args) -> int:
    phi = parse_formula(args.refute)
    gamma = tuple(parse_formula(g) for g in args.gamma or ())
    sig = infer_signature((phi,) + gamma)
    spec = SearchSpec(
        sig=sig,
        phi=phi,
        gamma=gamma,
        max_domain_size=args.max,
        equality_normal=not args.free_equality,
        max_structures=args.max_structures,
        time_budget_s=args.time_budget,
    )
    progress = None
    if args.progress:

        def progress(checked, elapsed):
            print(
                json.dumps({"checked": checked, "elapsed": round(elapsed, 3)}),
                file=sys.stderr,
            )

    res = find_countermodel(spec, progress=progress)
    if res.found:
        text = format_structure(res.structure)
        reloaded = parse_structure(text)
        if eval_formula(phi, reloaded, res.assignment) in DESIGNATED:
            raise RuntimeError("printed countermodel no longer refutes")
        out = {"found": True, "size": res.size}
    elif res.limit_hit:
        out = {"found": False, "limit_hit": res.limit_hit}
    else:
        out = {"found": False, "exhausted": True, "max_domain_size": args.max}
    out["structures_checked"] = res.structures_checked
    out["structures_evaluated"] = res.structures_evaluated
    out["structures_skipped"] = res.structures_skipped
    if res.found:
        out["structure"] = text
        out["assignment"] = _assignment_json(res.assignment)
        out["value"] = str(res.value)
    if args.json:
        print(json.dumps(out))
    elif res.found:
        print(
            "countermodel of size %d (checked %d structures):"
            % (res.size, res.structures_checked)
        )
        print(text.rstrip())
        print("assignment: %s" % (res.assignment,))
        print("value of target: %s" % res.value)
    elif res.limit_hit:
        print(
            "stopped by %s after %d structures; nothing found so far"
            % (res.limit_hit, res.structures_checked)
        )
    else:
        print(
            "no countermodel up to size %d (checked %d structures)"
            % (args.max, res.structures_checked)
        )
    return 1 if res.found else 3 if res.limit_hit else 0


def _packed_pairs(duals: list, k: int) -> tuple:
    """((Z, W), (P, Q)): every pair of ``duals`` (triple, pair) over a k-element
    base as left and right operands, triples and pairs, byte lane i holding pair
    ``divmod(i, len(duals))`` in ``itertools.product`` order.  Their algebra is a
    stand-in whose ``index.full``, all ``pair_op`` reads of it, fills every lane."""
    n = len(duals)
    full = int.from_bytes(bytes(((1 << k) - 1,)) * (n * n), "little")
    lanes = SimpleNamespace(index=SimpleNamespace(full=full))

    def pack(elements):
        comps = list(zip(*elements))[1:]
        left = [int.from_bytes(b"".join(bytes((m,)) * n for m in c), "little") for c in comps]
        right = [int.from_bytes(bytes(c) * n, "little") for c in comps]
        cls = type(elements[0])
        return tuple.__new__(cls, (lanes, *left)), tuple.__new__(cls, (lanes, *right))

    return pack([z for z, _ in duals]), pack([p for _, p in duals])


def _connective_problems(k: int, duals: list) -> list[str]:
    """Check dagger against each connective on all (pairs of) triples at once."""
    (Z, W), (P, Q) = _packed_pairs(duals, k)
    problems = []
    for op in (*UNARY_OPS.values(), *BINARY_OPS.values()):
        arity = 1 if op in UNARY_OPS.values() else 2
        got, want = dagger(twist_triple_op(op, *(Z, W)[:arity])), pair_op(op, *(P, Q)[:arity])
        if got != want:
            problems.append("size %d: %s not preserved" % (k, op))
            diff = (got[1] ^ want[1]) | (got[2] ^ want[2])
            if diff:  # the lowest differing lane is the first failing pair
                z, w = divmod(((diff & -diff).bit_length() - 1) // 8, len(duals))
                at = zip("zw", (duals[z][0], duals[w][0])[:arity])
                problems[-1] += " at " + ", ".join("%s=%s" % pair for pair in at)
    return problems


# the lifted quantifiers' space: one for the process, so that every run of
# twist-verify shares its index and the classes decoded over it (a fresh
# index per run would leave its decodings in triples' cache)
_TWIST_SPACE = AssignmentSpace(("x", "y"), (0, 1))


class _TwistLanes(AssignmentSpace):
    """The twist space holding its 81 triples side by side, triple i in byte
    lane i: the full mask and every fibre base repeat in each lane (``rep``,
    a 1 at the bottom of each byte).  A quantifier shifts by at most one
    stride and masks by the base, so no lane reads another."""

    rep = int.from_bytes(bytes((1,)) * 81, "little")
    algebra = SimpleNamespace(index=SimpleNamespace(full=_TWIST_SPACE.algebra.index.full * rep))

    def _layout(self, x: str) -> tuple[int, int, int, int]:
        n, stride, base, spread = super()._layout(x)
        return n, stride, base * self.rep, spread


def cmd_twist_verify(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if not sizes or any(k < 1 for k in sizes):
        raise FileFormatError("sizes must be positive integers")
    # the connectives are checked on ints of 9**k bytes, about twenty live at
    # once, so each size needs nine times the memory of the one before: size
    # 7 takes ~0.2 s and a peak RSS near 120 MB on a 2-core Intel Xeon
    if any(k > 7 for k in sizes):
        raise FileFormatError("sizes above 7 are not feasible to verify exhaustively: "
                              "size 8 would hold about twenty 43 MB ints (~0.9 GB)")
    problems = []
    for k in sizes:
        before = len(problems)
        alg = PowersetAlgebra(frozenset(range(1, k + 1)))
        triples = all_twist_triples(alg)
        pairs = all_twist_pairs(alg)
        # each triple with its pair, the pair computed once
        duals = [(z, dagger(z)) for z in triples]
        if {p for _, p in duals} != set(pairs):
            problems.append("size %d: the triple map is not onto the pairs" % k)
        for z, p in duals:
            if ddagger(p) != z:
                problems.append("size %d: round trip broken at %s" % (k, z))
                break
        problems += _connective_problems(k, duals)
        print(
            "size %d: %d triples, %d pairs, connectives %s"
            % (k, len(triples), len(pairs), "ok" if len(problems) == before else "BROKEN")
        )
    space, before = _TWIST_SPACE, len(problems)
    lanes = _TwistLanes(space.frame, space.domain)
    # the pointwise oracle: per triple z, a structure whose R(x, y) takes
    # z's value at each assignment (x, y), in which eval_formula computes
    # the quantified formulas without the hat operators
    sig = Signature(predicates={"R": 2})
    index = space.algebra.index
    zs = all_twist_triples(space.algebra)
    models = [make_structure(sig, space.domain, {"R": Triple.from_masks(index, z[1], z[2])})
              for z in zs]
    Z = tuple.__new__(type(zs[0]), (lanes.algebra, *(
        int.from_bytes(bytes(c), "little") for c in list(zip(*zs))[1:])))
    for kind in ("forall", "exists"):
        for j, var in enumerate(space.frame):
            f = parse_formula("%s %s. R(x, y)" % (kind, var), sig)
            # f's value depends only on the other variable, the free one: its
            # value at b is the value at each point where that variable is b
            free = [(index.encode(p for p in space.assignments if p[1 - j] == b),
                     Assignment(0, ((space.frame[1 - j], b),))) for b in space.domain]
            want = dict.fromkeys((ONE, ZERO, HALF), 0)
            for i, A in enumerate(models):
                for points, s in free:
                    want[eval_formula(f, A, s)] |= points << 8 * i
            lifted = lifted_quantifier(kind, "T", var, lanes, Z)
            got, via_pair = dagger(lifted), lifted_quantifier(kind, "P", var, lanes, dagger(Z))
            for what, diff in (
                ("misses eval_formula", (lifted[1] ^ want[ONE]) | (lifted[2] ^ want[ZERO])),
                ("diverges", (got[1] ^ via_pair[1]) | (got[2] ^ via_pair[2])),
            ):
                if diff:  # the lowest differing lane is the first failing triple
                    z = zs[((diff & -diff).bit_length() - 1) // 8]
                    problems.append("%s over %s %s at %s" % (kind, var, what, z))
    print(
        "lifted quantifiers over a 2-element domain: %s"
        % ("ok" if len(problems) == before else "BROKEN")
    )
    for p in problems:
        print("FAIL %s" % p)
    return 1 if problems else 0


def cmd_mt(args) -> int:
    A = _load_structure(args.small)
    B = _load_structure(args.big)
    if args.mt_command == "sub":
        ok, why = is_substructure(A, B)
        print("substructure" if ok else "not a substructure: %s" % why)
        return 0 if ok else 1
    if args.mt_command == "tarski":
        if args.formula:
            pool = [parse_formula(t, B.sig) for t in args.formula]
        else:
            pool = list(enumerate_formulas(B.sig, ("x",), args.depth))
        violations = tarski_conditions(A, B, pool)
        for v in violations:
            print(
                "FAIL %s over %s: %s at %s — %s"
                % (v.condition, v.variable, formula_to_str(v.formula), v.assignment, v.detail)
            )
        if not violations:
            print("all witness conditions hold over %d formulas" % len(pool))
        return 1 if violations else 0
    if args.mt_command == "elementary":
        ok, witness = elementary_sub_bounded(A, B, args.depth)
        if ok:
            print("values agree on every formula to depth %d" % args.depth)
            return 0
        f, s, va, vb = witness
        print(
            "values differ: %s at %s is %s in the small structure, %s in the large"
            % (formula_to_str(f), s, va, vb)
        )
        return 1
    ok, sep = elementary_equiv_bounded(A, B, args.depth)
    if ok:
        print("no separating sentence to depth %d" % args.depth)
        return 0
    print(
        "separated by %s: %s versus %s"
        % (
            formula_to_str(sep),
            sentence_trichotomy(sep, A),
            sentence_trichotomy(sep, B),
        )
    )
    return 1


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qciore",
        description="Evaluate, prove, and refute in a 3-valued first-order logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a formula in a structure file")
    p_eval.add_argument("--structure", required=True, help="structure file")
    p_eval.add_argument("--formula", required=True, help="formula text")
    group = p_eval.add_mutually_exclusive_group()
    group.add_argument("--assign", help="comma-separated x=element pairs")
    group.add_argument(
        "--valid", action="store_true", help="check all assignments instead of one"
    )
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(fn=cmd_eval)

    p_proof = sub.add_parser(
        "check-proof", help="check proof files in order, sharing proved lemmas"
    )
    p_proof.add_argument("files", nargs="+")
    p_proof.set_defaults(fn=cmd_check_proof)

    p_search = sub.add_parser(
        "search", help="look for a structure where the premises hold and the target fails"
    )
    p_search.add_argument("--refute", required=True, help="target formula")
    p_search.add_argument(
        "--gamma", action="append", default=[], help="premise (repeatable)"
    )
    p_search.add_argument("--max", type=int, default=3, help="largest domain size")
    p_search.add_argument(
        "--free-equality",
        action="store_true",
        help="let equality range over arbitrary interpretations",
    )
    p_search.add_argument("--max-structures", type=int, default=None)
    p_search.add_argument("--time-budget", type=float, default=None)
    p_search.add_argument(
        "--progress", action="store_true", help="JSON progress lines on stderr"
    )
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(fn=cmd_search)

    p_twist = sub.add_parser(
        "twist-verify", help="verify the pair representation of the triple algebra"
    )
    p_twist.add_argument("--sizes", default="1,2,3", help="comma-separated base sizes")
    p_twist.set_defaults(fn=cmd_twist_verify)

    p_mt = sub.add_parser("mt", help="compare a structure with a larger one")
    mt_sub = p_mt.add_subparsers(dest="mt_command", required=True)
    for name, needs_depth, default_depth in (
        ("sub", False, None),
        ("tarski", True, 1),
        ("elementary", True, 1),
        ("equiv", True, 1),
    ):
        p = mt_sub.add_parser(name)
        p.add_argument("small", help="structure file for the smaller structure")
        p.add_argument("big", help="structure file for the larger structure")
        if needs_depth:
            p.add_argument("--depth", type=int, default=default_depth)
        if name == "tarski":
            p.add_argument(
                "--formula",
                action="append",
                help="check these formulas instead of a generated pool (repeatable)",
            )
        p.set_defaults(fn=cmd_mt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileFormatError, ParseError, ValueError, OSError, RecursionError) as e:
        print("error: %s" % _describe(e), file=sys.stderr)
        return 2


def _describe(e: Exception) -> str:
    """The message for an input a command cannot take."""
    if isinstance(e, RecursionError):
        return "formula nested too deeply (%s)" % e
    return str(e)


if __name__ == "__main__":
    sys.exit(main())
