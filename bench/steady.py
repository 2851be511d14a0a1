"""Steadiness check: do two sets of benchmark runs agree within BENCHMARK.json's bounds?

    python3 bench/steady.py

Each of the two sets runs every workload ten times with distinct seeds, one
fresh process per run, tracing off, for BENCHMARK.json's `run_seconds`.  For
every end-to-end metric on every workload it reports each set's median and
quartile spread (q3 - q1) / median, and the shift of the second set's median
against the first.  A metric agrees when both spreads are within its bound
and the shift in the worse direction is within its bound; a workload agrees
when, in addition, the share of failed operations is the same in every run.
Exits 0 when everything agrees.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
RUNS = 10


def run_once(workload: str, seed: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"steady: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]

    results = {}  # (set, workload) -> list of run results
    for set_number in (1, 2):
        for workload in workloads:
            runs = []
            for i in range(RUNS):
                seed = 1000 * set_number + i
                runs.append(run_once(workload, seed))
                print(f"set {set_number} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                    flush=True)
            results[set_number, workload] = runs

    agree = True
    print(f"\n{'workload':<20} {'metric':<16} {'bound':>6} {'median1':>11} {'spread1':>8} "
          f"{'median2':>11} {'spread2':>8} {'shift':>8}  verdict")
    for workload in workloads:
        shares = {Fraction(r["failed"], r["attempted"])
                  for s in (1, 2) for r in results[s, workload]}
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            first, second = ([r["metrics"][name]["value"] for r in results[s, workload]]
                             for s in (1, 2))
            median1, median2 = statistics.median(first), statistics.median(second)
            spread1, spread2 = spread(first), spread(second)
            sign = 1 if spec["better"] == "lower" else -1
            shift = sign * (median2 - median1) / median1
            ok = shift <= bound and spread1 <= bound and spread2 <= bound
            agree &= ok
            print(f"{workload:<20} {name:<16} {bound:>6.3f} {median1:>11.5g} {spread1:>8.4f} "
                  f"{median2:>11.5g} {spread2:>8.4f} {shift:>+8.4f}  "
                  f"{'ok' if ok else 'OUT OF BOUND'}")
        same_share = len(shares) == 1
        agree &= same_share
        print(f"{workload:<20} failed share {'identical' if same_share else 'DIFFERS'}: "
              + ", ".join(str(s) for s in sorted(shares)))
    print("steady" if agree else "NOT steady")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
