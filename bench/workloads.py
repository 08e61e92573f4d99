"""The four benchmark workloads and the known answers their verdicts check.

A workload has a set-up, which builds its inputs once, and a round: a fixed
number of verdicts drawn from a seeded ``random.Random``.  A run draws one
round and repeats it, with fresh state, until its time is up.  Each verdict
is one call (or a few calls) into ``qciore``'s public functions, made through ``api`` so that
the traced run can time them, followed by an untimed check of the result
against a known answer.  The checks use the functions of ``qciore`` directly.

Known answers are either closed forms (structure counts, route agreement,
3^k twist triples), the numbers written into the acceptance criteria, or
values recorded at the commit that defined the benchmark and kept in
``pins.json`` (regenerate with ``python3 bench/pin.py``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from qciore.cli import format_structure
from qciore.matrix3 import DESIGNATED, HALF, NAMED_SCHEMAS, ONE, ZERO
from qciore.search import SearchSpec, structure_count
from qciore.structures import assignments_over, eval_formula
from qciore.syntax import Signature, free_vars

BENCH_DIR = Path(__file__).resolve().parent
FIXTURES = BENCH_DIR.parent / "tests" / "fixtures"
PINS = BENCH_DIR / "pins.json"

SIGS = {
    "P1": Signature(predicates={"P": 1}),
    "Pc": Signature(predicates={"P": 1}, constants={"c"}),
    "Pf": Signature(predicates={"P": 1}, functions={"f": 1}),
    "R2": Signature(predicates={"R": 2}),
    "PR2": Signature(predicates={"P": 1, "R": 2}),
    "PQc": Signature(predicates={"P": 1, "Q": 1}, constants={"c"}),
    "Peq": Signature(predicates={"P": 1}, has_equality=True),
}
PROOF_SIG = Signature(predicates={}, functions={}, constants=set(), has_equality=True)


@dataclass
class Verdict:
    name: str
    run: Callable[[], object]  # the timed call(s) into qciore
    check: Callable[[object], tuple[object, list[str]]]  # raw -> (summary, problems)
    expected: object  # the known answer the summary must equal
    units: int  # work units the verdict completes
    memos: tuple = ()  # evaluation memos the benchmark owns, for the trace
    counts: Callable[[object], dict] | None = None  # summary -> counts it implies


@dataclass
class Setup:
    contract: dict = field(default_factory=dict)  # name -> [expected, got]
    data: dict = field(default_factory=dict)

    def count(self, name: str, expected: int, got: int) -> None:
        self.contract[name] = [expected, got]


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def total_structures(sig: Signature, max_size: int) -> int:
    return sum(structure_count(sig, n) for n in range(1, max_size + 1))


# ---------------------------------------------------------------------------
# routes: the pointwise route against the set route (acceptance criterion 8)

ROUTES_X_SLICES = 4  # slices per structure and round, depth-3 pool on (x)
ROUTES_X_LEN = 300
ROUTES_XY_LEN = 60  # one slice per structure and round, depth-2 pool on (x, y)


def setup_routes(api) -> Setup:
    su = Setup()
    p1 = SIGS["P1"]
    pool3 = list(api.enumerate_formulas(p1, ("x",), 3))
    pool2 = list(api.enumerate_formulas(p1, ("x", "y"), 2))
    structs_x = [a for n in (1, 2) for a in api.enumerate_structures(p1, n)]
    structs_xy = [a for n in (1, 2, 3) for a in api.enumerate_structures(p1, n)]
    su.count("depth-3 P/1 pool on (x)", 152776, len(pool3))
    su.count("depth-2 P/1 pool on (x, y)", 2186, len(pool2))
    su.count("P/1 structures of size <= 2", 12, len(structs_x))
    su.count("P/1 structures of size <= 3", 39, len(structs_xy))
    su.data.update(pool3=pool3, pool2=pool2, structs_x=structs_x, structs_xy=structs_xy)
    return su


def _routes_verdict(api, A, frame, fs, memo_e, memo_t, label) -> Verdict:
    n_assign = len(A.domain) ** len(frame)

    def run():
        space = list(api.assignments_over(A, frame))
        mismatches = 0
        for f in fs:
            t = api.formula_triple(f, A, frame, memo_t)
            for s in space:
                v = api.eval_formula(f, A, s, memo_e)
                key = tuple(s.get(x) for x in frame)
                if (
                    (v == ONE) != (key in t.plus)
                    or (v == ZERO) != (key in t.minus)
                    or (v == HALF) != (key in t.dot)
                ):
                    mismatches += 1
        return mismatches, len(fs) * len(space)

    def check(raw):
        return list(raw), []

    units = len(fs) * n_assign
    return Verdict(label, run, check, [0, units], units, (memo_e, memo_t))


def _spread_slices(rng, structs, per_struct: int, pool_len: int, length: int):
    """(structure, offset) pairs: within each domain size, the slices are
    evenly spaced over the pool at a seeded phase, so every draw covers the
    pool alike; each structure's slices are spread over the pool too."""
    span = pool_len - length + 1
    out = []
    for _, group in itertools.groupby(structs, key=lambda a: len(a.domain)):
        group = list(group)
        count = len(group) * per_struct
        phase = rng.random() * span / count
        for j, A in enumerate(group):
            out.append((A, [int(phase + (j + i * len(group)) * span / count)
                            for i in range(per_struct)]))
    return out


def round_routes(su: Setup, rng: random.Random, api) -> list[Verdict]:
    d = su.data
    out = []
    for i, (A, offsets) in enumerate(_spread_slices(
            rng, d["structs_x"], ROUTES_X_SLICES, len(d["pool3"]), ROUTES_X_LEN)):
        memo_e, memo_t = {}, {}  # one memo per structure, as in criterion 8
        for lo in offsets:
            fs = d["pool3"][lo : lo + ROUTES_X_LEN]
            out.append(
                _routes_verdict(api, A, ("x",), fs, memo_e, memo_t, "x/s%d/%d" % (i, lo))
            )
    for i, (A, [lo]) in enumerate(_spread_slices(
            rng, d["structs_xy"], 1, len(d["pool2"]), ROUTES_XY_LEN)):
        fs = d["pool2"][lo : lo + ROUTES_XY_LEN]
        out.append(
            _routes_verdict(api, A, ("x", "y"), fs, {}, {}, "xy/s%d/%d" % (i, lo))
        )
    return out


# ---------------------------------------------------------------------------
# harness: the soundness harness over a fixed list of configurations

QUANT = ("Ax11", "Ax12", "Ax13", "Ax14", "Ax15", "Ax16")
# (signature, instance depth, largest size, number of variables, axiom
# schemas or None for all).  P/1+R/2 (738 structures) and P/1+Q/1+c (171)
# run at size <= 2 with depth-0 instances and a part of the schemas: the
# whole call takes 2-3 s there, and 36-44 s at criterion 4's depth 1, longer
# than a run.  PR2/d0/s2/x/Ax2 builds instances through hilbert.instantiate,
# the QUANT ones check fixed instances through is_valid_in; PQc/d1/s1/x
# spends ~95% of its time in the rule phase.
HARNESS_CONFIGS = (
    ("PR2", 0, 2, 1, ("Ax2",)), ("PR2", 0, 2, 1, QUANT), ("PQc", 0, 2, 1, QUANT),
    ("Peq", 0, 2, 1, None), ("PQc", 1, 1, 1, None),
    ("P1", 0, 1, 1, None), ("P1", 0, 1, 2, None), ("P1", 1, 1, 1, None),
    ("P1", 1, 1, 2, None), ("P1", 0, 2, 1, None), ("P1", 0, 2, 2, None),
    ("P1", 1, 2, 1, None),
    ("Pc", 0, 1, 1, None), ("Pc", 0, 1, 2, None), ("Pc", 1, 1, 1, None),
    ("Pc", 0, 2, 1, None),
    ("Pf", 0, 1, 1, None), ("Pf", 0, 1, 2, None), ("Pf", 1, 1, 1, None),
    ("Pf", 0, 2, 1, None),
    ("R2", 0, 1, 1, None), ("R2", 0, 1, 2, None), ("R2", 1, 1, 1, None),
    ("R2", 0, 2, 1, None),
    ("PR2", 0, 1, 1, None), ("PR2", 0, 1, 2, None), ("PR2", 1, 1, 1, None),
    ("PQc", 0, 1, 1, None), ("PQc", 0, 1, 2, None), ("Peq", 1, 1, 1, None),
)
VARIABLES = ("x", "y")


def harness_name(cfg) -> str:
    sig, depth, size, nvars, axioms = cfg
    name = "%s/d%d/s%d/%s" % (sig, depth, size, "".join(VARIABLES[:nvars]))
    if axioms is not None:
        name += "/" + ("quant" if axioms == QUANT else ",".join(axioms))
    return name


def harness_kwargs(cfg) -> dict:
    sig, depth, size, nvars, axioms = cfg
    return dict(
        sig=SIGS[sig], instance_depth=depth, max_size=size, variables=VARIABLES[:nvars],
        axiom_pool=None if axioms is None else list(axioms),
    )


def harness_summary(report) -> list:
    return [report.structures_checked, report.axiom_checks, report.rule_checks, report.ok]


def setup_harness(api) -> Setup:
    su = Setup()
    pins = load_pins()["harness"]
    su.count("P/1+R/2 structures of size <= 2", 738, total_structures(SIGS["PR2"], 2))
    su.count("P/1 with = structures of size <= 2", 42, total_structures(SIGS["Peq"], 2))
    su.count("P/1+Q/1+c structures of size <= 2", 171, total_structures(SIGS["PQc"], 2))
    su.count("harness configurations pinned", len(HARNESS_CONFIGS),
             sum(harness_name(c) in pins for c in HARNESS_CONFIGS))
    su.data.update(pins=pins)
    return su


def _harness_verdict(api, cfg, expected) -> Verdict:
    kwargs = harness_kwargs(cfg)
    closed_form = total_structures(kwargs["sig"], kwargs["max_size"])

    def run():
        return api.soundness_harness(**kwargs)

    def check(report):
        problems = []
        if report.structures_checked != closed_form:
            problems.append("checked %d structures, closed form %d"
                            % (report.structures_checked, closed_form))
        if not report.ok:
            problems.append("violations: %s" % report.violations[:3])
        return harness_summary(report), problems

    return Verdict(harness_name(cfg), run, check, expected, closed_form, counts=lambda s: {
        "search.structures_checked": s[0],
        "search.harness_axiom_checks": s[1],
        "search.harness_rule_checks": s[2],
    })


def round_harness(su: Setup, rng: random.Random, api) -> list[Verdict]:
    cfgs = list(HARNESS_CONFIGS)
    rng.shuffle(cfgs)
    return [
        _harness_verdict(api, cfg, su.data["pins"].get(harness_name(cfg)))
        for cfg in cfgs
    ]


def rules_only_call(api, verdict_name: str):
    """The same harness call with ``axiom_pool=[]``: the rule phase alone."""
    cfg = next(c for c in HARNESS_CONFIGS if harness_name(c) == verdict_name)
    return api.soundness_harness(**{**harness_kwargs(cfg), "axiom_pool": []})


# ---------------------------------------------------------------------------
# search: countermodel queries

def search_queries() -> list[dict]:
    """The fixed queries: criteria 3 and 5, and criterion 5 at size <= 4."""
    out = [
        {"name": "c3/%d" % i, "sig": "P1", "phi": text, "gamma": [], "max": 3}
        for i, text in enumerate((
            "(exists x. ~P(x)) -> ~(forall x. P(x))",
            "(forall x. ~P(x)) -> ~(exists x. P(x))",
            "(forall x. P(x)) -> ~(exists x. ~P(x))",
            "(exists x. P(x)) -> ~(forall x. ~P(x))",
        ))
    ]
    out.append({"name": "c5/found", "sig": "PQc", "phi": "Q(c)",
                "gamma": ["P(c)", "~P(c)"], "max": 3})
    for size in (3, 4):
        out.append({"name": "c5/exhausted/s%d" % size, "sig": "PQc", "phi": "Q(c)",
                    "gamma": ["P(c)", "~P(c)", "@P(c)"], "max": size})
    return out


def pin_of(res, spec: SearchSpec) -> dict:
    """The pinned form of a search result."""
    if res.found:
        s = res.assignment
        return {
            "found": True, "size": res.size, "checked": res.structures_checked,
            "assignment": [str(s.default), [[v, str(e)] for v, e in s.pairs]],
            "value": str(res.value), "structure": format_structure(res.structure),
        }
    return {"found": False, "exhausted": res.exhausted, "limit": res.limit_hit,
            "checked": res.structures_checked}


def parse_query(api, q: dict) -> SearchSpec:
    sig = SIGS[q["sig"]]
    return SearchSpec(
        sig=sig,
        phi=api.parse_formula(q["phi"], sig),
        gamma=tuple(api.parse_formula(g, sig) for g in q["gamma"]),
        max_domain_size=q["max"],
        # a correct enumerator never exceeds the closed form
        max_structures=total_structures(sig, q["max"]),
    )


def setup_search(api) -> Setup:
    su = Setup()
    pins = load_pins()["search"]
    fixed = [(q, parse_query(api, q)) for q in search_queries()]
    drawn = [(q, parse_query(api, q)) for q in pins["drawn"]]
    su.count("criterion 5 exhaustive search, size <= 3", 9 + 162 + 2187,
             total_structures(SIGS["PQc"], 3))
    su.count("criterion 5 premises, size <= 4", 28602, total_structures(SIGS["PQc"], 4))
    su.count("pinned fixed queries", len(fixed), sum(q["name"] in pins["fixed"] for q, _ in fixed))
    su.data.update(fixed=fixed, drawn=drawn, pins=pins["fixed"])
    return su


def _search_verdict(api, q: dict, spec: SearchSpec, expected) -> Verdict:
    closed_form = total_structures(spec.sig, spec.max_domain_size)

    def run():
        return api.find_countermodel(spec)

    def check(res):
        problems = []
        if res.limit_hit:
            problems.append("hit the %s" % res.limit_hit)
        elif res.found:
            A = res.structure
            if eval_formula(spec.phi, A, res.assignment) in DESIGNATED:
                problems.append("reported countermodel designates the target")
            for g in spec.gamma:
                frame = tuple(sorted(free_vars(g)))
                if any(eval_formula(g, A, s) not in DESIGNATED
                       for s in assignments_over(A, frame)):
                    problems.append("premise %s not valid in the countermodel" % (g,))
        elif res.structures_checked != closed_form:
            problems.append("exhausted after %d structures, closed form %d"
                            % (res.structures_checked, closed_form))
        return pin_of(res, spec), problems

    units = expected["checked"] if expected else 0
    return Verdict(q["name"], run, check, expected, units,
                   counts=lambda s: {"search.structures_checked": s["checked"]})


def round_search(su: Setup, rng: random.Random, api) -> list[Verdict]:
    """Every fixed and every pinned drawn query, in a seeded order."""
    d = su.data
    picks = [(q, spec, d["pins"].get(q["name"])) for q, spec in d["fixed"]]
    picks += [(q, spec, q["pin"]) for q, spec in d["drawn"]]
    rng.shuffle(picks)
    return [_search_verdict(api, q, spec, pin) for q, spec, pin in picks]


# ---------------------------------------------------------------------------
# certify: proof fixtures, named schemas, witness conditions, twist-verify

# (fixture, steps) accepted in this order, then (fixture, failing step)
# for the mutants: criterion 7's hand-written answers
GOOD_PROOFS = (
    ("imp_refl.proof", 5), ("imp_trans.proof", 15), ("sneg_exists_all.proof", 3),
    ("generalization.proof", 6), ("exists_contra_spreads.proof", 11),
    ("forall_contra_spreads.proof", 11),
)
MUTANT_PROOFS = (
    ("generalization_mut_sidecond.proof", 4), ("generalization_mut_mp.proof", 3),
    ("generalization_mut_ax.proof", 2), ("generalization_mut_hyp.proof", 1),
    ("exists_contra_mut_ax12.proof", 7), ("exists_contra_mut_trans.proof", 4),
    ("forall_contra_mut_lemma.proof", 5),
)
TWIST_SIZES = (1, 2, 3, 4, 5)


def substructure_pairs(api) -> list:
    """Criterion 10's 30 (substructure, structure) pairs over P/1, size <= 2."""
    out = []
    for n in (1, 2):
        for b in api.enumerate_structures(SIGS["P1"], n):
            for k in range(1, len(b.domain) + 1):
                for sub in itertools.combinations(b.domain, k):
                    out.append((api.induced_substructure(b, sub), b))
    return out


def pair_summary(api, a, b, pool) -> list:
    violations = api.tarski_conditions(a, b, pool, ("x",))
    elementary, _ = api.elementary_sub_bounded(a, b, 2)
    equivalent = api.elementary_equiv_bounded(a, b, 2)[0] if elementary else None
    return [len(violations), elementary, equivalent]


def setup_certify(api) -> Setup:
    su = Setup()
    proofs = [
        (name, api.parse_proof((FIXTURES / name).read_text()), n)
        for name, n in GOOD_PROOFS + MUTANT_PROOFS
    ]
    for name, proof, n in proofs[: len(GOOD_PROOFS)]:
        su.count("steps in %s" % name, n, len(proof.steps))
    pool = list(api.enumerate_formulas(SIGS["P1"], ("x",), 2))
    pairs = substructure_pairs(api)
    pins = load_pins()["certify_pairs"]
    su.count("depth-2 P/1 pool on (x)", 225, len(pool))
    su.count("criterion 10 pairs", 30, len(pairs))
    su.count("named schemas", 35, len(NAMED_SCHEMAS))
    su.count("pairs with pinned answers", 30, len(pins))
    su.data.update(proofs=proofs, pool=pool, pairs=pairs, pins=pins)
    return su


def _proof_verdict(api, name, proof, n, good: bool, state: dict) -> Verdict:
    def run():
        verdicts, state["store"] = api.check_proof_sequence([proof], PROOF_SIG, state["store"])
        return verdicts[0]

    def check(v):
        return [v.accepted, v.failed_step], []

    expected = [True, None] if good else [False, n]
    # a rejected proof is checked up to its failing step
    return Verdict("proof/" + name, run, check, expected, 1,
                   counts=lambda s: {"hilbert.steps_checked": n if s[0] else s[1]})


def _twist_verdict(api, k: int) -> Verdict:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = api.main(["twist-verify", "--sizes", str(k)])
        return rc, buf.getvalue()

    def check(raw):
        return list(raw), []

    expected = [0, "size %d: %d triples, %d pairs, connectives ok\n"
                   "lifted quantifiers over a 2-element domain: ok\n" % (k, 3**k, 3**k)]
    return Verdict("twist/%d" % k, run, check, expected, 1)


def round_certify(su: Setup, rng: random.Random, api) -> list[Verdict]:
    d = su.data
    state = {"store": None}  # lemmas accumulate across the files, as in check-proof
    fixtures = [
        _proof_verdict(api, name, proof, n, i < len(GOOD_PROOFS), state)
        for i, (name, proof, n) in enumerate(d["proofs"])
    ]
    schemas = [
        Verdict("schema/" + name, lambda f=f: api.is_tautology3(f),
                lambda raw: ([raw[0], raw[1]], []), [True, None], 1)
        for name, f in NAMED_SCHEMAS.items()
    ]
    pairs = []
    for i, (a, b) in enumerate(d["pairs"]):

        def check(raw):
            n_viol, elementary, equivalent = raw
            problems = []
            if n_viol == 0 and not elementary:
                problems.append("witness conditions hold but values differ")
            if elementary and not equivalent:
                problems.append("values agree but a sentence separates")
            return list(raw), problems

        pairs.append(
            Verdict("pair/%d" % i, lambda a=a, b=b: pair_summary(api, a, b, d["pool"]),
                    check, d["pins"][i], 1)
        )
    twists = [_twist_verdict(api, k) for k in TWIST_SIZES]
    # the seed orders each kind; the kinds run in blocks, so that a sub-ms
    # schema verdict never follows the million allocations of a twist-verify
    for block in (schemas, pairs, twists):
        rng.shuffle(block)
    return fixtures + schemas + pairs + twists


WORKLOADS = {
    "routes": (setup_routes, round_routes),
    "harness": (setup_harness, round_harness),
    "search": (setup_search, round_search),
    "certify": (setup_certify, round_certify),
}
