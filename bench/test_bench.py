"""Self-check of the benchmark: one seed-drawn round of each workload.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted known answer is counted as a failure without stopping the
run, that the speed sampler is stopped after a run, that the boundaries
each workload should cross report more than 0, and that the traced run
leaves every rebound attribute as it found it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import random
import signal
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.use_checkout_src()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7  # draws the round; any seed must pass

# per-layer metrics that must be above 0 on each workload: the boundaries
# that workload crosses (see the metric table in bench/README.md)
LIVE = {
    "routes": [
        "syntax.enumerate_formulas_s", "syntax.free_vars_s", "syntax.free_vars_calls",
        "structures.eval_formula_s", "structures.eval_formula_calls",
        "structures.formula_triple_s", "structures.memo_entries",
        "triples.triple_op_s", "triples.triple_op_calls", "triples.triple_from_map_s",
    ],
    "harness": [
        "syntax.enumerate_formulas_s", "syntax.substitute_s",
        "structures.eval_formula_s", "structures.eval_formula_calls",
        "structures.is_valid_in_s", "structures.is_valid_in_calls",
        "hilbert.instantiate_s", "hilbert.instantiate_calls", "hilbert.possibly_free_s",
        "search.enumerate_structures_s", "search.structures_enumerated",
        "search.harness_schema_s", "search.harness_rule_s",
        "search.harness_axiom_checks", "search.harness_rule_checks",
    ],
    "search": [
        "syntax.parse_formula_s", "structures.is_valid_in_s", "structures.is_valid_in_calls",
        "structures.make_structure_s", "structures.make_structure_calls",
        "triples.all_triples_s", "search.find_countermodel_self_s",
        "search.enumerate_structures_s", "search.structures_enumerated",
        "search.structures_checked",
    ],
    "certify": [
        "syntax.parse_formula_s", "twist.twist_triple_op_s", "twist.pair_op_s",
        "twist.dagger_s", "hilbert.check_proof_sequence_s", "hilbert.steps_checked",
        "matrix3.is_tautology3_s", "modeltheory.tarski_conditions_s",
        "modeltheory.elementary_sub_bounded_s", "modeltheory.elementary_equiv_bounded_s",
        "cli.parse_proof_s", "cli.twist_verify_self_s",
    ],
}


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_round_emits_metrics_and_counts_a_corrupted_answer(workload, monkeypatch):
    setup, make_round = workloads.WORKLOADS[workload]
    n = len(make_round(setup(tracing.plain_api()), random.Random(SEED), tracing.plain_api()))
    corrupt = random.Random(SEED).randrange(n)
    rounds = 0

    def corrupting_round(su, rng, api):
        nonlocal rounds
        verdicts = make_round(su, rng, api)
        if rounds == 0:  # only the first round's answer is wrong
            verdicts[corrupt].expected = ["corrupted", verdicts[corrupt].expected]
        rounds += 1
        return verdicts

    monkeypatch.setitem(workloads.WORKLOADS, workload, (setup, corrupting_round))
    handler = signal.getsignal(signal.SIGALRM)
    record, result = run.run_workload(workload, SEED, 0, False)
    # the speed sampler is off again and its handler gone
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(f > 0 for f in record["round_speed_factor"])
    assert result["attempted"] == n == record["verdicts_per_round"]
    assert result["failed"] == 1 and not result["correct"]
    assert record["failed_frac"] == 1 / n
    assert "corrupted" in record["failures"][0]["reason"]
    assert record["contract_ok"], record["contract"]
    assert len(record["setup_samples_s"]) == run.SETUP_PROBES
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_round_emits_per_layer_metrics_and_restores(workload):
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr in tracing.REBOUND
    }
    record, result = run.run_workload(workload, SEED, 0, True)
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, (mod, attr)
    assert result["correct"], record["failures"]
    assert record["counts_traced"] == record["counts_untraced"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    dead = [name for name in LIVE[workload] if not metrics[name]["value"] > 0]
    assert not dead, dead
    verdict_spans = [s for s in record["spans"] if s["name"] not in ("setup", "round/0")]
    assert len(verdict_spans) == record["verdicts"] // 3  # one traced round of three
    assert all(s["end"] >= s["start"] for s in record["spans"])


def test_rebound_covers_every_cross_module_import():
    """Every function a qciore module imports from another is rebound."""
    found = set()
    for name in ("syntax", "matrix3", "triples", "twist", "structures", "hilbert",
                 "search", "modeltheory", "cli"):
        module = importlib.import_module("qciore." + name)
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__.startswith("qciore.")
                    and value.__module__ != module.__name__):
                found.add((module.__name__, attr))
    assert found | {("qciore.search", "enumerate_structures")} == set(tracing.REBOUND)
