"""Compare two sets of benchmark runs: ``compare.py A.json... -- B.json...``.

Each file is what ``python3 -m bench.run --out FILE`` wrote.  For every
(workload, end-to-end metric) the two medians and quartiles are printed,
the ratio B/A with A as its base, and a verdict against the metric's
bound in ``BENCHMARK.json``:

``within-bound``  B's median is no worse than A's by more than the bound
``worse``         it is
``unresolved``    the run-to-run spread is wider than the bound and the
                  two sets overlap, so the runs cannot tell

Failed operations are compared too: any rise in their share is ``worse``.
Exits non-zero if anything is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths) -> dict:
    """``{workload: [untraced run, ...]}`` from result files."""
    runs: dict = {}
    for path in paths:
        with open(path) as f:
            for run in json.load(f):
                if not run["trace"]:
                    runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better: str, bound: float) -> str:
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    worse_by = (bm - am) / am if better == "lower" else (am - bm) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return "unresolved"
    return "worse" if worse_by > bound else "within-bound"


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_runs, b_runs = load(argv[:split]), load(argv[split + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    any_worse = False
    print(f"{'workload':<14} {'metric':<27} {'A q1/median/q3':<34} "
          f"{'B q1/median/q3':<34} {'B/A':>7} verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_set, b_set = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a_set or not b_set:
            print(f"{workload:<14} (missing from one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_set]
            b = [run["metrics"][name]["value"] for run in b_set]
            result = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<14} {name:<27} "
                  f"{'/'.join(f'{v:.5g}' for v in qa):<34} "
                  f"{'/'.join(f'{v:.5g}' for v in qb):<34} "
                  f"{qb[1] / qa[1]:>7.3f} {result}")
        a_fail, b_fail = (
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in (a_set, b_set))
        result = "worse" if b_fail > a_fail else "within-bound"
        any_worse |= result == "worse"
        print(f"{workload:<14} {'failed_ops_frac':<27} {a_fail:<34.6g} "
              f"{b_fail:<34.6g} {'':>7} {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
