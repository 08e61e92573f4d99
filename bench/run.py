"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload routes --seed 1 --seconds 25 --trace 0

Workloads: routes, harness, search, certify (see bench/README.md).  One
process, one thread, closed loop: a verdict starts when the previous one has
returned.  The seed draws one round of verdicts; the run repeats the round,
with fresh memos and lemma stores, until ``--seconds`` have passed since the
first verdict.  Each verdict's time is its mean over the rounds; the
median and tail are then taken across the round's verdicts.  Every reported
time is scaled to a reference machine speed by samples of a fixed kernel
taken while the verdicts run (see ``speed.py``); the run record keeps the
unscaled times as well.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced round instead.  The line before it, and ``bench/out/``, hold the run
record: machine, commit, seed, verdict counts and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# set-up is timed in this many fresh processes per run, spread over its
# rounds; the median counts
SETUP_PROBES = 15
# reference-kernel samples taken just before and just after each probe
SETUP_SAMPLES = 10


def use_checkout_src() -> None:
    """Import ``qciore`` from this checkout's ``src/`` or fail."""
    if not (SRC / "qciore" / "__init__.py").is_file():
        raise SystemExit("error: no qciore package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import qciore

    if Path(qciore.__file__).resolve().parent != SRC / "qciore":
        raise SystemExit("error: qciore imported from %s, not %s" % (qciore.__file__, SRC))


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(per_round: int) -> int | None:
    """The highest whole percentile with at least 10 verdicts of one round
    beyond it; every run has at least one round, so the percentile is the
    same on every run and commit.  None for rounds of 20 or fewer."""
    if per_round <= 20:
        return None
    return math.floor(100 - 1000 / per_round)


# ---------------------------------------------------------------------------
# the run record


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------------------
# running verdicts


def judge(v, raw, error: str | None):
    """(summary, failure reason or None) of one verdict."""
    if error is not None:
        return None, error
    try:
        summary, problems = v.check(raw)
    except Exception as e:  # a failed check is a failed verdict, not a failed run
        return None, "check raised %s: %s" % (type(e).__name__, e)
    if problems:
        return summary, "; ".join(problems)
    if summary != v.expected:
        return summary, "expected %s, got %s" % (v.expected, summary)
    return summary, None


def run_round(verdicts, tracer=None, label: str = "round", scaled: bool = False) -> list[dict]:
    """Run verdicts in order, then check each; one outcome per verdict.

    A verdict that raises is recorded and the round goes on.  Checks run
    after the last verdict, outside the traced region.  If ``scaled``, a
    ``speed.Sampler`` runs during the verdicts, each outcome's ``s`` is its
    time scaled by the samples taken while it ran (see ``speed``) and
    ``wall_s`` its unscaled time, the sampler's own time taken out of both.
    """
    raws = []
    sampler = speed.Sampler() if scaled else None
    with tracer.span(label) if tracer else contextlib.nullcontext():
        with sampler or contextlib.nullcontext():
            for v in verdicts:
                error = raw = None
                # like a fresh CLI call, each verdict starts with no young
                # objects, so the collections it pays for are its own and do
                # not depend on which verdict ran before it
                gc.collect()
                spent = sampler.spent if sampler else 0.0
                t0 = time.perf_counter()
                try:
                    with tracer.span(v.name) if tracer else contextlib.nullcontext():
                        raw = v.run()
                except Exception as e:
                    error = "raised %s: %s" % (type(e).__name__, e)
                t1 = time.perf_counter()
                dt = t1 - t0
                if sampler:
                    dt -= sampler.spent - spent
                raws.append((v, raw, error, dt, t0, t1))
    outcomes = []
    for v, raw, error, dt, t0, t1 in raws:
        summary, reason = judge(v, raw, error)
        outcomes.append(
            {
                "name": v.name,
                "s": dt / sampler.factor_between(t0, t1) if sampler else dt,
                "wall_s": dt,
                "units": v.units if reason is None else 0,
                "reason": reason,
                "counts": v.counts(summary) if reason is None and v.counts else {},
            }
        )
    return outcomes


def round_counts(outcomes) -> dict:
    out: dict[str, int] = {}
    for o in outcomes:
        for k, n in o["counts"].items():
            out[k] = out.get(k, 0) + n
    return out


def memo_entries(verdicts) -> int:
    memos = {id(m): m for v in verdicts for m in v.memos}
    return sum(len(m) for m in memos.values())


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from the start of a fresh process to its first verdict:
    (scaled by reference-kernel samples taken just before and after, wall)."""
    samples = [speed.sample() for _ in range(SETUP_SAMPLES)]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed with exit code %s" % proc.returncode)
    samples += [speed.sample() for _ in range(SETUP_SAMPLES)]
    return elapsed / speed.factor(samples), elapsed


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run


def _total(name):
    return lambda t: t.stats.get(name, {}).get("total_s", 0.0)


def _self(name):
    return lambda t: t.stats.get(name, {}).get("self_s", 0.0)


def _calls(name):
    return lambda t: t.stats.get(name, {}).get("calls", 0)


PER_LAYER = {
    # metric: (unit, value from the tracer, or None if the run computes it)
    "syntax.enumerate_formulas_s": ("s", _total("syntax.enumerate_formulas")),
    "syntax.free_vars_s": ("s", _total("syntax.free_vars")),
    "syntax.free_vars_calls": ("count", _calls("syntax.free_vars")),
    "syntax.substitute_s": ("s", _total("syntax.substitute")),
    "syntax.parse_formula_s": ("s", _total("syntax.parse_formula")),
    "structures.eval_formula_s": ("s", _total("structures.eval_formula")),
    "structures.eval_formula_calls": ("count", _calls("structures.eval_formula")),
    "structures.formula_triple_s": ("s", _total("structures.formula_triple")),
    "structures.is_valid_in_s": ("s", _total("structures.is_valid_in")),
    "structures.is_valid_in_calls": ("count", _calls("structures.is_valid_in")),
    "structures.make_structure_s": ("s", _total("structures.make_structure")),
    "structures.make_structure_calls": ("count", _calls("structures.make_structure")),
    "structures.memo_entries": ("count", None),
    "triples.triple_op_s": ("s", _total("triples.triple_op")),
    "triples.triple_op_calls": ("count", _calls("triples.triple_op")),
    "triples.triple_from_map_s": ("s", _total("triples.triple_from_map")),
    "triples.all_triples_s": ("s", _total("triples.all_triples")),
    "twist.twist_triple_op_s": ("s", _total("twist.twist_triple_op")),
    "twist.pair_op_s": ("s", _total("twist.pair_op")),
    "twist.dagger_s": ("s", _total("twist.dagger")),
    "hilbert.check_proof_sequence_s": ("s", _total("hilbert.check_proof_sequence")),
    "hilbert.steps_checked": ("count", None),
    "hilbert.instantiate_s": ("s", _total("hilbert.instantiate")),
    "hilbert.instantiate_calls": ("count", _calls("hilbert.instantiate")),
    "hilbert.possibly_free_s": ("s", _total("hilbert.possibly_free")),
    "matrix3.is_tautology3_s": ("s", _total("matrix3.is_tautology3")),
    "search.find_countermodel_self_s": ("s", _self("search.find_countermodel")),
    "search.enumerate_structures_s": ("s", _total("search.enumerate_structures")),
    "search.structures_enumerated": (
        "count", lambda t: t.stats.get("search.enumerate_structures", {}).get("items", 0)),
    "search.structures_checked": ("count", None),
    "search.harness_schema_s": ("s", None),
    "search.harness_rule_s": ("s", None),
    "search.harness_axiom_checks": ("count", None),
    "search.harness_rule_checks": ("count", None),
    "modeltheory.tarski_conditions_s": ("s", _total("modeltheory.tarski_conditions")),
    "modeltheory.elementary_sub_bounded_s": (
        "s", _total("modeltheory.elementary_sub_bounded")),
    "modeltheory.elementary_equiv_bounded_s": (
        "s", _total("modeltheory.elementary_equiv_bounded")),
    "cli.parse_proof_s": ("s", _total("cli.parse_proof")),
    "cli.twist_verify_self_s": ("s", _self("cli.main")),
    "trace.overhead_frac": ("fraction", None),
}
COUNTED = ("search.structures_checked", "search.harness_axiom_checks",
           "search.harness_rule_checks", "hilbert.steps_checked")


def traced_run(w, setup, make_round, seed: int) -> tuple[dict, list, dict]:
    """Set-up and one round traced, between two untraced rounds of the same draw.

    Returns (per-layer metrics, outcomes, record fields).
    """
    from tracing import Tracer, plain_api

    tracer = Tracer()
    api = tracer.api()
    with tracer, tracer.span("setup"):
        su = setup(api)
    plain = plain_api()

    def draw(api):
        return make_round(su, random.Random(seed), api)

    before = run_round(draw(plain))
    traced_verdicts = draw(api)
    with tracer:
        traced = run_round(traced_verdicts, tracer, "round/0")
    memos = memo_entries(traced_verdicts)
    del traced_verdicts
    reference = [before, run_round(draw(plain))]

    rule_s = schema_s = 0.0
    if w == "harness":
        import workloads

        for i, o in enumerate(reference[0]):
            t0 = time.perf_counter()
            workloads.rules_only_call(plain, o["name"])
            rule = time.perf_counter() - t0
            rule_s += rule
            schema_s += min(r[i]["s"] for r in reference) - rule

    # the untraced time of each verdict is its least over the reference rounds
    ref_time = sum(min(r[i]["s"] for r in reference) for i in range(len(traced)))
    counts = round_counts(traced)
    computed = {
        **{name: counts.get(name, 0) for name in COUNTED},
        "structures.memo_entries": memos,
        "search.harness_schema_s": schema_s,
        "search.harness_rule_s": rule_s,
        "trace.overhead_frac": sum(o["s"] for o in traced) / ref_time - 1,
    }
    metrics = {
        name: {"value": get(tracer) if get else computed[name], "unit": unit}
        for name, (unit, get) in PER_LAYER.items()
    }
    ref_counts = round_counts(reference[0])
    record = {
        "reference_round_s": [sum(o["s"] for o in r) for r in reference],
        "traced_round_s": sum(o["s"] for o in traced),
        "counts_traced": counts,
        "counts_untraced": ref_counts,
        "contract": su.contract,
        "boundaries": tracer.stats,
        "spans": tracer.spans,
    }
    outcomes = traced + [o for r in reference for o in r]
    return metrics, outcomes, record


# ---------------------------------------------------------------------------


def run_workload(w: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (run record, result line object)."""
    import workloads
    from tracing import plain_api

    setup, make_round = workloads.WORKLOADS[w]
    record = {"workload": w, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "git_commit": git_commit()}

    if trace:
        metrics, outcomes, extra = traced_run(w, setup, make_round, seed)
        record.update(extra)
        contract = extra["contract"]
        consistent = extra["counts_traced"] == extra["counts_untraced"]
    else:
        api = plain_api()
        su = setup(api)
        contract = su.contract
        outcomes, rounds, setup_samples = [], [], []
        t_begin = time.perf_counter()
        while True:
            verdicts = make_round(su, random.Random(seed), api)
            rounds.append(run_round(verdicts, scaled=True))
            del verdicts
            outcomes += rounds[-1]
            # set-up probes fall due evenly over the run and are taken between
            # rounds, so that they meet the same machine speed as the verdicts
            done = min(1.0, (time.perf_counter() - t_begin) / seconds) if seconds else 1.0
            while len(setup_samples) < math.ceil(SETUP_PROBES * done):
                setup_samples.append(probe_setup(w, seed))
            if done >= 1.0:
                break
        # each verdict's scaled time is its mean over the rounds; a verdict
        # that failed in any round completes no units
        per_verdict = list(zip(*rounds))
        verdict_s = [statistics.fmean(o["s"] for o in runs) for runs in per_verdict]
        wall_s = [statistics.fmean(o["wall_s"] for o in runs) for runs in per_verdict]
        units = sum(min(o["units"] for o in runs) for runs in per_verdict)
        verdict_ms = [t * 1e3 for t in verdict_s]
        tail = tail_percentile(len(verdict_ms))
        metrics = {
            "setup_s": {"value": statistics.median(s for s, _ in setup_samples), "unit": "s"},
            "work_per_s": {"value": units / sum(verdict_s), "unit": "units/s"},
            "verdict_ms_p50": {"value": statistics.median(verdict_ms), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
        if tail is not None:
            metrics["verdict_ms_tail"] = {
                "value": statistics.quantiles(verdict_ms, n=100, method="inclusive")[tail - 1],
                "unit": "ms"}
        record.update({
            "rounds": len(rounds), "round_s": [sum(o["s"] for o in r) for r in rounds],
            "round_wall_s": [sum(o["wall_s"] for o in r) for r in rounds],
            "round_speed_factor": [sum(o["wall_s"] for o in r) / sum(o["s"] for o in r)
                                   for r in rounds],
            "verdicts_per_round": len(verdict_ms), "tail_percentile": tail,
            "setup_samples_s": [s for s, _ in setup_samples],
            "setup_wall_s": [w for _, w in setup_samples], "units_per_round": units,
            # the same metrics from unscaled wall-clock times
            "wall": {
                "setup_s": statistics.median(w for _, w in setup_samples),
                "work_per_s": units / sum(wall_s),
                "verdict_ms_p50": statistics.median(wall_s) * 1e3,
            },

            "counts_per_round": round_counts(rounds[0]), "contract": contract,
            "verdict_ms": [[o["name"], t] for o, t in zip(rounds[0], verdict_ms)],
        })
        consistent = True

    failures = [{"name": o["name"], "reason": o["reason"]} for o in outcomes if o["reason"]]
    contract_ok = all(e == g for e, g in contract.values())
    record.update({
        "verdicts": len(outcomes), "failed": len(failures),
        "failed_frac": len(failures) / len(outcomes),
        "failures": failures[:20], "contract_ok": contract_ok,
        "counts_consistent": consistent, "metrics": metrics,
    })
    result = {
        "correct": not failures and contract_ok and consistent,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("routes", "harness", "search", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout_src()
    import workloads
    from tracing import plain_api

    if args.setup_probe:
        workloads.WORKLOADS[args.workload][0](plain_api())
        print("ready", flush=True)
        return 0

    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("spans", "boundaries", "verdict_ms")}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
