"""Benchmark for mirrorqed: one workload per process, closed loop, checked outputs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Builds the package from `src/` of the checkout this file sits in and runs the
workload's scenarios one after another: one warm-up pass, whose outputs are
checked against the mpmath oracle, then whole passes until `--seconds` have
elapsed.  Every later output must repeat the checked one byte for byte.

With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it runs every scenario plain and traced side by side and prints the
per-layer metrics, including the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The default
`--workload all` runs every workload in its own process and ends with one
object per workload.
"""

from __future__ import annotations

import os

# One process, one thread: the measured program never gets a second core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import scenarios
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_REPEATS = 5
SETUP_BATCH = 5
MIN_PASSES = 3
SETUP_PROBE = ("import sys; sys.path.insert(0, {src!r}); import mirrorqed.cli; "
               "mirrorqed.cli.build_parser()")


def load_package() -> dict:
    """Import mirrorqed from this checkout's src/, never from anywhere else."""
    package_dir = SRC / "mirrorqed"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"bench: no mirrorqed source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import mirrorqed
    from mirrorqed import analytic, cli, core, trajectory, wavepacket
    if Path(mirrorqed.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"bench: imported mirrorqed from {mirrorqed.__file__}, not {package_dir}")
    return {"cli": cli, "core": core, "analytic": analytic,
            "wavepacket": wavepacket, "trajectory": trajectory}


class SetupProbe:
    """Times a fresh interpreter importing mirrorqed and building the CLI parser."""

    def __init__(self, cpus: list[int]):
        self.command = [sys.executable, "-I", "-c", SETUP_PROBE.format(src=str(SRC))]
        subprocess.run(self.command, check=True)  # compile bytecode, warm the file cache
        self.cpus = cpus
        self.times: list[float] = []

    def measure(self) -> None:
        """One set-up time: the fastest of SETUP_BATCH interpreters started back
        to back, each pinned to the next CPU in turn."""
        batch = []
        for i in range(SETUP_BATCH):
            os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})  # inherited by the child
            start = time.perf_counter()
            subprocess.run(self.command, check=True)
            batch.append(time.perf_counter() - start)
        self.times.append(min(batch))


class Runner:
    """Runs passes over a scenario list and judges every operation."""

    def __init__(self, scenarios):
        self.scenarios = scenarios
        self.first: dict = {}  # name -> (blob, failure) of the checked first run
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def run_pass(self, tracer=None, traced_first=False) -> tuple[list, list, int]:
        """One pass; returns each scenario's latency in seconds and the bytes its
        CLI runs wrote.  With a tracer, every scenario also runs a second time
        with the tracer installed, right before or right after its plain run,
        and the traced latencies come back as the second list."""
        plain, traced, written = [], [], 0
        order = [False] if tracer is None else [traced_first, not traced_first]
        for scenario in self.scenarios:
            for use_tracer in order:
                if use_tracer:
                    tracer.install()
                seconds, output = self._run(scenario)
                if use_tracer:
                    tracer.uninstall()
                    traced.append(seconds)
                else:
                    plain.append(seconds)
                    written += output.written if output is not None else 0
        return plain, traced, written

    def _run(self, scenario):
        error = result = None
        start = time.perf_counter()
        try:
            result = scenario.call()
        except Exception as exc:  # a failing operation is counted, not fatal
            error = exc
        seconds = time.perf_counter() - start
        output = scenario.collect(result) if error is None else None
        self._judge(scenario, output, error)
        return seconds, output

    def _judge(self, scenario, output, error) -> None:
        blob = output.blob if output is not None else f"raised {error!r}".encode()
        if scenario.name not in self.first:
            failure = f"raised {error!r}" if error is not None else scenario.check(output.data)
            self.first[scenario.name] = (blob, failure)
            if failure is not None:
                label = f"known fault ({scenario.fault})" if scenario.fault else "FAILED"
                print(f"bench: {scenario.name}: {label}: {failure}", file=sys.stderr)
                if not scenario.fault:
                    self.unexpected.append(scenario.name)
        first_blob, failure = self.first[scenario.name]
        if failure is None and blob != first_blob:
            failure = "output differs from the first run with the same inputs"
            if scenario.name not in self.unexpected:
                print(f"bench: {scenario.name}: FAILED: {failure}", file=sys.stderr)
                self.unexpected.append(scenario.name)
        self.attempted += 1
        self.failed += failure is not None


def best_times(passes: list[list[float]]) -> list[float]:
    """Each scenario's fastest latency over the passes: the machine's speed
    drifts, so the fastest run is the one least slowed by anything else."""
    return [min(column) for column in zip(*passes)]


def run_workload(args) -> dict:
    package = load_package()
    warnings.simplefilter("ignore", RuntimeWarning)  # the overflow fault warns every pass
    rng = random.Random(f"{args.workload}:{args.seed}")
    bench = scenarios.Workbench(package, OUT_DIR / args.workload)
    runner = Runner(scenarios.WORKLOADS[args.workload](bench, rng))
    tracer = spans.Tracer(package) if args.trace else None

    cpus = sorted(os.sched_getaffinity(0))
    probe = None if args.trace else SetupProbe(cpus)
    if tracer:
        tracer.install(measure_alloc=True)
    runner.run_pass()  # warm-up; checks every output
    if tracer:
        tracer.uninstall()
        tracer.take()

    # The set-up probes are spread over the run, between passes, so that their
    # median sees the same spells of machine speed as the passes do.
    plain, traced, written, pass_spans = [], [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or len(plain) < MIN_PASSES:
        elapsed = time.perf_counter() - start
        if probe and len(probe.times) * args.seconds < SETUP_REPEATS * elapsed:
            probe.measure()
        os.sched_setaffinity(0, {cpus[len(plain) % len(cpus)]})
        seconds, traced_seconds, nbytes = runner.run_pass(tracer, traced_first=len(plain) % 2 == 1)
        plain.append(seconds)
        written.append(nbytes)
        if tracer:
            traced.append(traced_seconds)
            pass_spans.append(tracer.take())

    os.sched_setaffinity(0, cpus)
    while probe and len(probe.times) < SETUP_REPEATS:
        probe.measure()
    best = best_times(plain)
    if tracer:
        summaries = [spans.summarize(s) for s in pass_spans]
        metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
        metrics["cli.bytes_written"] = statistics.median(written)
        metrics["trajectory.ensemble_average.peak_alloc_mb"] = tracer.peak_alloc_bytes / 2**20
        traced_wall = sum(best_times(traced))
        metrics["trace.overhead_ms"] = (traced_wall - sum(best)) * 1e3
        wanted = SPEC["per_layer"]
        notes = {"trace.overhead_ms": f"traced {traced_wall:.4f} s - plain {sum(best):.4f} s, "
                                      f"fastest of {len(plain)} paired runs per scenario"}
    else:
        metrics = {
            "setup_s": statistics.median(probe.times),
            "wall_s": sum(best),
            "scenario_p50_ms": statistics.median(best) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = SPEC["end_to_end"]
        median_pass = statistics.median(sum(p) for p in plain)
        notes = {"setup_s": f"median of {SETUP_REPEATS} samples, each the fastest of "
                            f"{SETUP_BATCH} fresh interpreters",
                 "wall_s": f"fastest of {len(plain)} passes per scenario, summed; "
                           f"median pass {median_pass:.4f} s",
                 "scenario_p50_ms": f"median over {len(best)} scenarios of the fastest "
                                    f"of {len(plain)} runs each"}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(runner.scenarios)} scenarios x (1 warm-up + {len(plain)} timed passes"
          f"{', each run plain and traced' if tracer else ''})")
    for spec in wanted:
        value = metrics[spec["name"]]
        note = notes.get(spec["name"], "")
        print(f"  {spec['name']:<44} {value:>14.6g} {spec['unit']:<6} {note}")
    faults = [s.name for s in runner.scenarios if s.fault]
    print(f"  operations attempted {runner.attempted}, failed {runner.failed}"
          f" (known faults: {', '.join(faults) or 'none'})")
    return {
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                    for spec in wanted},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so memory and caches never carry over."""
    results, code = {}, 0
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[workload] = json.loads(lines[-1])
    if code == 0:
        print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
