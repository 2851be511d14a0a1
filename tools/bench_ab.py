"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/bench_ab.py --base <rev> [--pairs N] [--seconds S] [--workload W]
                              [--out BENCH_<pr>.json]

Checks <rev> out with `git worktree` into a temporary directory (no network),
as `tools/output_diff.py` does, and runs each tree's own benchmark on its own
`src/`.  Pair p of a workload runs `<tree>/bench/run.py --workload W --seed
<101 + p> --seconds S` once in each tree, one after the other: the base first
in even pairs, the working tree first in odd ones, so that a drift in machine
speed falls on both sides alike.  `--seconds` defaults to the run length of
BENCHMARK.json, `--workload` to every workload.

For every workload and end-to-end metric of the working tree's BENCHMARK.json
it reports both sides' values, the paired ratio working tree / base (median
and quartiles), the pairs the working tree won (ties count for neither side)
and a verdict:

    gain           won at least nine tenths of the pairs run, the medians differ
                   by more than the base's interquartile range, and no larger
                   share of operations failed than in the base
    worse          the median is worse than the base's by more than the
                   metric's bound
    unresolved     the base's interquartile range is wider than the bound,
                   and not every run of the working tree beats every base run
    within bound   otherwise

A run that exits non-zero or prints no result counts as failed operations (as
many as the other side attempted in that pair, at least one), never as zeros:
its metrics are left out of the pairs.  Prints a line per workload and metric;
with `--out` it also writes the whole record as JSON: every run, the summary,
the CPUs, the Python and numpy versions, both SHAs and the flags.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from output_diff import ROOT, base_checkout  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("base", "head")
CLAIM_SHARE = 0.9  # the share of the pairs run that a gain must win
FIRST_SEED = 101  # the seed of pair 0; pair p runs at FIRST_SEED + p


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run of `tree`: its verdict, operation counts and
    end-to-end metrics, or the reason it gave none."""
    command = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": ""})
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        stderr = proc.stderr.strip().splitlines()
        return {"error": stderr[-1] if stderr else f"exit code {proc.returncode}"}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def _quartiles(values: list[float]) -> list[float]:
    """The lower quartile, the median and the upper quartile."""
    if len(values) < 2:
        return values * 3
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return [low, median, high]


def _operations(pairs: list[dict]) -> dict:
    """Each side's verdict and operation counts over its runs.  A run without a
    result fails as many operations as the other side attempted, at least one."""
    sides = {}
    for side, other in (("base", "head"), ("head", "base")):
        attempted = failed = without = 0
        correct = True
        for pair in pairs:
            run = pair[side]
            if "error" in run:
                lost = max(pair[other].get("attempted") or 0, 1)
                attempted, failed, without = attempted + lost, failed + lost, without + 1
                correct = False
            else:
                attempted += run["attempted"]
                failed += run["failed"]
                correct = correct and run["correct"] is True
        sides[side] = {"correct": correct, "attempted": attempted, "failed": failed,
                       "runs_without_result": without}
    return sides


def _metric(spec: dict, pairs: list[dict], failing_no_more: bool) -> dict:
    """Both sides' values of one metric over the pairs where both have one, and
    the verdict on them."""
    name, lower = spec["name"], spec["better"] == "lower"
    both = [(p["base"]["metrics"][name], p["head"]["metrics"][name]) for p in pairs
            if name in p["base"].get("metrics", {}) and name in p["head"].get("metrics", {})]
    entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
             "pairs": len(both), "base": [b for b, _ in both], "head": [h for _, h in both]}
    if not both:
        return {**entry, "verdict": "no pairs"}
    base_q, head_q = _quartiles(entry["base"]), _quartiles(entry["head"])
    ratios = [h / b for b, h in both if b]
    gap = (base_q[1] - head_q[1]) if lower else (head_q[1] - base_q[1])  # > 0: head better
    spread = base_q[2] - base_q[0]
    wins = sum((h < b) if lower else (h > b) for b, h in both)
    losses = sum((h > b) if lower else (h < b) for b, h in both)
    apart = (max(entry["head"]) < min(entry["base"]) if lower
             else min(entry["head"]) > max(entry["base"]))
    if -gap > spec["bound"] * abs(base_q[1]):
        verdict = "worse"
    elif wins >= CLAIM_SHARE * len(pairs) and gap > spread and failing_no_more:
        verdict = "gain"
    elif spread > spec["bound"] * abs(base_q[1]) and not apart:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {**entry, "base_quartiles": base_q, "head_quartiles": head_q,
            "ratio_quartiles": _quartiles(ratios) if ratios else None,
            "head_better": wins, "head_worse": losses, "verdict": verdict}


def report(runs: dict, spec: dict) -> dict:
    """The summary of {workload: [pair, ...]}, each pair {"seed", "first", "base",
    "head"} with each side as `run_side` returns it, against the metrics of `spec`."""
    summary = {}
    for workload, pairs in runs.items():
        operations = _operations(pairs)
        share = {side: ops["failed"] / max(ops["attempted"], 1) for side, ops in operations.items()}
        failing_no_more = share["head"] <= share["base"]
        summary[workload] = {
            "operations": operations,
            "metrics": {m["name"]: _metric(m, pairs, failing_no_more) for m in spec["end_to_end"]},
        }
    return summary


def summary_lines(summary: dict) -> list[str]:
    """One line per workload with its operations, then one per metric."""
    lines = []
    for workload, entry in summary.items():
        ops = entry["operations"]
        lines.append(f"{workload}: " + "; ".join(
            f"{side} {'correct' if ops[side]['correct'] else 'NOT correct'}, "
            f"{ops[side]['failed']} of {ops[side]['attempted']} operations failed"
            + (f", {ops[side]['runs_without_result']} runs without a result"
               if ops[side]["runs_without_result"] else "")
            for side in SIDES))
        for name, m in entry["metrics"].items():
            if not m["pairs"]:
                lines.append(f"  {name:<16} no pairs with a value on both sides")
                continue
            ratio = m["ratio_quartiles"]
            ratio_text = (f"ratio {ratio[1]:.3f} [{ratio[0]:.3f}, {ratio[2]:.3f}]"
                          if ratio else "ratio -")
            lines.append(
                f"  {name:<16} base {m['base_quartiles'][1]:.6g} head "
                f"{m['head_quartiles'][1]:.6g} {m['unit']:<3} {ratio_text}  head better "
                f"{m['head_better']}/{m['pairs']}, worse {m['head_worse']}/{m['pairs']}  "
                f"{m['verdict']} (bound {m['bound']:.0%}, base IQR "
                f"{m['base_quartiles'][2] - m['base_quartiles'][0]:.3g})")
    return lines


def run_pairs(trees: dict, workloads: list[str], args) -> dict:
    """{workload: [pair, ...]}: `args.pairs` pairs of runs of each workload, a new
    seed per pair, alternating which tree runs first."""
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for p in range(args.pairs):
            seed = FIRST_SEED + p
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], workload, seed, args.seconds)
            runs[workload].append(pair)
            print(f"{workload} pair {p + 1}/{args.pairs}, seed {seed}, {order[0]} first: "
                  + "; ".join(f"{side} {pair[side].get('error') or pair[side]['metrics']}"
                              for side in SIDES), flush=True)
    return runs


def main(argv=None) -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--out", help="JSON file for the whole record, e.g. BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    chosen = workloads if args.workload == "all" else [args.workload]

    with base_checkout(args.base) as (base_tree, base_sha, head_sha):
        print(f"base {base_sha} against the working tree at {head_sha}: {args.pairs} pairs "
              f"of {args.seconds:g} s per workload", flush=True)
        runs = run_pairs({"base": base_tree, "head": ROOT}, chosen, args)

    summary = report(runs, SPEC)
    print("\n".join(summary_lines(summary)))
    if args.out:
        affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True).stdout
        record = {
            "base": {"rev": args.base, "sha": base_sha},
            "head": {"sha": head_sha, "uncommitted_changes": bool(status.strip())},
            "flags": {"pairs": args.pairs, "seconds": args.seconds, "workloads": chosen,
                      "first_seed": FIRST_SEED},
            "machine": {"nproc": os.cpu_count(), "cpu_affinity": affinity,
                        "python": platform.python_version(),
                        "numpy": importlib.metadata.version("numpy")},
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
