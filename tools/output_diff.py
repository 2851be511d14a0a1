"""Which benchmark outputs a change moves, and whether both sides pass their checks.

    python3 tools/output_diff.py --base <rev>

Checks <rev> out with `git worktree` into a temporary directory (no network)
and compares it with the working tree this file sits in, uncommitted changes
included.  Each tree runs in its own interpreter: it imports the workload
functions of its own `bench/` (read, never written), builds every workload's
scenarios at seeds 1, 2, 3 and 7 with the seeding of `bench/run.py`, runs
each scenario once against its own `src/`, and records the bytes of the
output and the verdict of the scenario's oracle check.

Prints one line per output whose bytes differ, with how many of its numbers
moved, the largest relative move, and each side's check; one line per
scenario that exists in only one tree; and a summary.  Exits 1 only when a
tree could not be run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 7)
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def collect(tree: Path, out: Path) -> None:
    """Run every scenario of `tree` at SEEDS; write each output blob under
    `out` and print {key: check verdict} as JSON, key = workload/seed/name."""
    sys.path.insert(0, str(tree / "bench"))
    import run  # the tree's bench/run.py: its loader, workload list and seeding
    import scenarios

    package = run.load_package()
    warnings.simplefilter("ignore", RuntimeWarning)  # as bench/run.py: a fault may warn
    verdicts = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            rng = random.Random(f"{workload}:{seed}")
            bench = scenarios.Workbench(package, out / "scratch" / workload)
            for scenario in scenarios.WORKLOADS[workload](bench, rng):
                try:
                    output = scenario.collect(scenario.call())
                    blob, verdict = output.blob, scenario.check(output.data)
                except Exception as exc:  # reported like any other output
                    verdict = f"raised {exc!r}"
                    blob = verdict.encode()
                key = f"{workload}/{seed}/{scenario.name}"
                (out / key).parent.mkdir(parents=True, exist_ok=True)
                (out / key).write_bytes(blob)
                verdicts[key] = verdict
    print(json.dumps(verdicts))


def run_tree(tree: Path, out: Path) -> dict | str:
    """Verdicts of `tree` from a fresh interpreter, or the reason it failed."""
    command = [sys.executable, __file__, "--collect", str(tree), str(out)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": ""})
    if proc.returncode != 0:
        return proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else \
            f"exit code {proc.returncode}"
    return json.loads(proc.stdout.splitlines()[-1])


def moved(base: bytes, head: bytes) -> str:
    """How many numbers of an output moved, and the largest relative move with
    the base value it moved from (a tiny value near a cancellation moves most)."""
    a, b = NUMBER.findall(base), NUMBER.findall(head)
    if len(a) != len(b) or NUMBER.sub(b"#", base) != NUMBER.sub(b"#", head):
        return "layout differs"
    count, worst, at = 0, 0.0, 0.0
    for x, y in zip(a, b):
        if x != y:
            count += 1
            x, y = float(x), float(y)
            move = abs(x - y) / abs(x) if x else math.inf if y else 0.0
            if move > worst:
                worst, at = move, x
    return f"{count} of {len(a)} numbers moved, largest relative move {worst:.2g} (from {at:.3g})"


def verdict(value) -> str:
    return "pass" if value is None else f"FAIL ({value})"


def report(verdicts: dict, outputs: dict) -> list[str]:
    """The lines that compare two trees' verdicts {key: verdict}, given per
    side, with their output blobs under outputs[side] / key."""
    base, head = verdicts["base"], verdicts["head"]
    lines, both, one = [], sorted(base.keys() & head.keys()), sorted(base.keys() ^ head.keys())
    for key in both:
        old, new = ((outputs[side] / key).read_bytes() for side in ("base", "head"))
        if old != new:
            lines.append(f"differs  {key}: {moved(old, new)}; check base "
                         f"{verdict(base[key])}, head {verdict(head[key])}")
    for key in one:
        side = "base" if key in base else "head"
        lines.append(f"only in {side}  {key}: check {verdict(verdicts[side][key])}")
    failing = {side: sum(v is not None for v in r.values()) for side, r in verdicts.items()}
    lines.append(f"{len(lines) - len(one)} of {len(both)} outputs in both trees differ; "
                 f"{len(one)} in one tree only; failing checks: "
                 f"base {failing['base']}, head {failing['head']}")
    return lines


@contextlib.contextmanager
def base_checkout(base_rev: str):
    """Yield (tree, base sha, head sha): `base_rev` checked out with `git worktree`
    into a temporary directory, which is removed again on exit."""
    git = ["git", "-C", str(ROOT)]
    head_sha = subprocess.run([*git, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
    base_sha = subprocess.run([*git, "rev-parse", "--short", base_rev],
                              capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="output_diff_") as tmp:
        tree = Path(tmp) / "base"
        subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(tree), base_sha],
                       check=True)
        try:
            yield tree, base_sha, head_sha
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(tree)], check=False)


def compare(base_rev: str) -> int:
    with base_checkout(base_rev) as (base_tree, base_sha, head_sha):
        print(f"base {base_sha} against the working tree at {head_sha}, seeds "
              f"{', '.join(map(str, SEEDS))}")
        outputs = {side: base_tree.parent / f"out-{side}" for side in ("base", "head")}
        verdicts = {side: run_tree(tree, outputs[side])
                    for side, tree in (("base", base_tree), ("head", ROOT))}
        broken = {side: v for side, v in verdicts.items() if isinstance(v, str)}
        for side, reason in broken.items():
            print(f"{side}: could not run the scenarios: {reason}")
        if broken:
            return 1
        print("\n".join(report(verdicts, outputs)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare the working tree with")
    parser.add_argument("--collect", nargs=2, metavar=("TREE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(Path(args.collect[0]), Path(args.collect[1]))
        return 0
    if not args.base:
        parser.error("--base is required")
    return compare(args.base)


if __name__ == "__main__":
    sys.exit(main())
