"""Record the known answers the benchmark pins, into ``bench/pins.json``.

    python3 bench/pin.py

Pins are the answers of the program as it stands: every search verdict
(found or exhausted, size, structures checked, refuting assignment, printed
structure), the counts of each harness configuration and the outcome of each
criterion-10 substructure pair.  Re-pinning is a change of the benchmark's
known answers: ROADMAP item 4 requires that the first countermodel reported
does not change, so a diff in the search pins is a defect, not a refresh.
"""

from __future__ import annotations

import json
import random
import sys

from run import use_checkout_src

use_checkout_src()

import workloads as w  # noqa: E402
from qciore.syntax import enumerate_formulas, formula_to_str, parse_formula  # noqa: E402
from tracing import plain_api  # noqa: E402

SEED = 20261017
# (signature, largest domain size) of the drawn search queries
DRAWN = (("P1", 3), ("PQc", 2), ("R2", 2))
PER_BUCKET = 24


def drawn_queries(api) -> list[dict]:
    """Targets, some with premises, from depth-<=2 pools; balanced by outcome."""
    rng = random.Random(SEED)
    out = []
    for sig_name, max_size in DRAWN:
        sig = w.SIGS[sig_name]
        pool = list(enumerate_formulas(sig, ("x",), 2))
        counts = {True: 0, False: 0}
        for attempt in range(20000):
            if min(counts.values()) >= PER_BUCKET:
                break
            phi = rng.choice(pool)
            gamma = [rng.choice(pool) for _ in range(rng.choice((0, 0, 1, 2)))]
            texts = [formula_to_str(f) for f in [phi] + gamma]
            if [parse_formula(t, sig) for t in texts] != [phi] + gamma:
                raise RuntimeError("formula does not survive printing: %s" % texts)
            q = {"name": "%s/%d" % (sig_name, attempt), "sig": sig_name,
                 "phi": texts[0], "gamma": texts[1:], "max": max_size}
            spec = w.parse_query(api, q)
            pin = w.pin_of(api.find_countermodel(spec), spec)
            if pin.get("limit") or counts[pin["found"]] >= PER_BUCKET:
                continue
            counts[pin["found"]] += 1
            q["pin"] = pin
            out.append(q)
        if min(counts.values()) < PER_BUCKET:
            raise RuntimeError("%s: only %s queries per outcome" % (sig_name, counts))
    return out


def main() -> int:
    api = plain_api()
    fixed = {}
    for q in w.search_queries():
        spec = w.parse_query(api, q)
        fixed[q["name"]] = w.pin_of(api.find_countermodel(spec), spec)
    harness = {
        w.harness_name(cfg): w.harness_summary(api.soundness_harness(**w.harness_kwargs(cfg)))
        for cfg in w.HARNESS_CONFIGS
    }
    pool = list(enumerate_formulas(w.SIGS["P1"], ("x",), 2))
    pairs = [w.pair_summary(api, a, b, pool) for a, b in w.substructure_pairs(api)]
    pins = {
        "search": {"fixed": fixed, "drawn": drawn_queries(api)},
        "harness": harness,
        "certify_pairs": pairs,
    }
    w.PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print("wrote %s" % w.PINS, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
