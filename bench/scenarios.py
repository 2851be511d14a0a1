"""The benchmark's three workloads: scenario lists built from a seed, each with its check.

A scenario is one in-process CLI invocation `mirrorqed.cli.run(argv)` with a
real `--out` file, or one public-API call.  Only `call` is timed.  Its output
is then compared against the mpmath oracle (`oracle.py`) or a property the
method must have; neither reads anything mirrorqed computed for itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import mpmath as mp
import numpy as np

import oracle

PI = math.pi

# Tolerances.  Each is far above the rounding error of a correct double-
# precision result for the inputs the workloads draw, and far below the
# errors of the faults named in `fault`.
SERIES_RTOL = 1e-8       # exact series: rounding grows with cancellation, kept <= e^16 here
CLOSED_RTOL = 1e-12      # closed-form Markovian and dressed curves
LONGTIME_RTOL = 1e-10    # xi, xi0 from damped Newton and the xi0 series
NORM_TOL = 1e-10         # |P_e + photon norm - 1|
DYSON_TOL = 1e-9         # relative to the sum of the closed form's term magnitudes
COMPARE_TOL = 0.03       # trajectory mean vs exact curve, thousands of trajectories
FAILURE_CHANCE = 1e-9    # allowed chance that a fine-grid trajectory check fails by bad luck
# Spectrum, as a share of the peak: three times the worst error of the FFT
# path over the inputs each spectrum scenario draws (tau 0.95-1.05; phases over
# the scenario's whole range; 16384 samples).  Worst measured: 2.3e-7 (r_m 0),
# 5.2e-4 (r_m -0.5), 9.1e-4 (r_m -1, phase pi +- 1), 1.7e-3 (trapping).
SPECTRUM_TOL_FREE = 1e-6
SPECTRUM_TOL_HALF = 1.5e-3
SPECTRUM_TOL_FULL = 3e-3
SPECTRUM_TOL_TRAPPED = 5e-3


@dataclass
class Output:
    blob: bytes      # must repeat byte for byte whenever the same inputs run again
    data: Any        # what `check` reads
    written: int = 0  # bytes of CSV the CLI wrote


@dataclass
class Scenario:
    name: str
    call: Callable[[], Any]                  # the timed operation
    collect: Callable[[Any], Output]         # runs after the timer stops
    check: Callable[[Any], "str | None"]     # failure description, or None
    fault: "str | None" = None               # known program fault this scenario shows


def _fmt(value: float) -> str:
    return repr(float(value))


def _jitter(rng: random.Random, base: float, spread: float = 0.05) -> float:
    """base within +-spread: the seed moves parameters, not the amount of work."""
    return base * (1.0 + rng.uniform(-spread, spread))


def _rel_error(values, refs) -> float:
    """Largest |value - ref| / |ref|; a non-finite value counts as infinitely wrong."""
    worst = 0.0
    for value, ref in zip(values, refs):
        value = complex(value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return math.inf
        ref = complex(ref)
        err = abs(value - ref)
        worst = max(worst, err / abs(ref) if ref != 0 else err)
    return worst


def _sample(count: int, wanted: int) -> list[int]:
    """About `wanted` row indices spread evenly over `count` rows, last row included."""
    if count <= wanted:
        return list(range(count))
    return sorted(set(np.linspace(0, count - 1, wanted).round().astype(int).tolist()))


def parse_table(blob: bytes) -> tuple[dict, dict]:
    lines = blob.decode("ascii").splitlines()
    meta = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return meta, {name: rows[:, i] for i, name in enumerate(header)}


def hoeffding_tolerance(n_trajectories: int, points: int, discretization: float = 0.02) -> float:
    """Deviation a mean of n values in [0, 1] exceeds at any of `points` times
    with chance below FAILURE_CHANCE, plus an allowance for the box model's
    discretization error."""
    return discretization + math.sqrt(
        math.log(2 * points / FAILURE_CHANCE) / (2 * n_trajectories))


class Workbench:
    """Builds scenarios against one loaded mirrorqed package and an output directory."""

    def __init__(self, package: dict, out_dir: Path):
        self.package = package
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    # -- scenario kinds ----------------------------------------------------

    def cli(self, name: str, argv: list, check: Callable, fault=None) -> Scenario:
        path = self.out_dir / f"{name}.csv"
        argv = [str(v) for v in argv] + ["--out", str(path)]
        cli = self.package["cli"]

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code = cli.run(argv)  # looked up per call, so a tracer can rebind it
            return code, sink.getvalue()

        def collect(result):
            code, stdout = result
            blob = path.read_bytes() if path.exists() else b""
            path.unlink(missing_ok=True)  # a failed run must not find the last file
            return Output(blob + f"\nexit {code}\n{stdout}".encode(), (code, stdout, blob),
                          len(blob))

        def checked(data):
            code, stdout, blob = data
            if code != 0:
                return f"exit code {code}"
            return check(*parse_table(blob), stdout)

        return Scenario(name, call, collect, checked, fault)

    def api(self, name: str, call: Callable, check: Callable, fault=None) -> Scenario:
        return Scenario(name, call, lambda value: Output(repr(value).encode(), value),
                        check, fault)

    # -- checks --------------------------------------------------------------

    def check_excitation(self, tau, phase, r_m):
        def check(meta, cols, stdout):
            t, p = cols["t"], cols["P_exact"]
            rows = [i for i in range(len(t)) if t[i] < tau]  # causality: P_e = exp(-t)
            late = [i for i in range(len(t)) if t[i] >= tau]
            rows += [late[i] for i in _sample(len(late), 24)]
            exact = [oracle.excitation_probability(tau, phase, r_m, t[i]) for i in rows]
            err = _rel_error(p[rows], exact)
            if err > SERIES_RTOL:
                return f"P_exact off by {err:.3g} relative (tolerance {SERIES_RTOL:g})"
            markov = [oracle.markovian_probability(tau, phase, r_m, t[i]) for i in rows]
            err = _rel_error(cols["P_markovian"][rows], markov)
            if err > CLOSED_RTOL:
                return f"P_markovian off by {err:.3g} relative"
            ratio = float(oracle.xi0_series_ratio(tau, phase, r_m))
            converges = ratio < 1
            if converges != ("P_longtime" in cols):
                return (f"P_longtime {'missing' if converges else 'present'} although "
                        f"e|a|tau = {ratio:.3g}")
            if converges:
                xi, xi0 = oracle.longtime_constants(tau, phase, r_m)
                ref = [oracle.longtime_probability(xi, xi0, t[i]) for i in rows]
                err = _rel_error(cols["P_longtime"][rows], ref)
                if err > SERIES_RTOL:
                    return f"P_longtime off by {err:.3g} relative"
            return None
        return check

    def check_markovian(self, tau, phase, r_m):
        def check(meta, cols, stdout):
            t = cols["t"]
            rows = _sample(len(t), 200)
            ref = [oracle.markovian_probability(tau, phase, r_m, t[i]) for i in rows]
            err = _rel_error(cols["P_markovian"][rows], ref)
            delta, gamma = oracle.dressed(phase, r_m)
            got = meta["dressed"]
            err = max(err, _rel_error([got["delta_eff"], got["gamma_eff"]], [delta, gamma]))
            return f"Markovian curve off by {err:.3g} relative" if err > CLOSED_RTOL else None
        return check

    def check_dressed(self, r_m):
        def check(meta, cols, stdout):
            worst = 0.0
            for phase, delta, gamma in zip(cols["phase"], cols["delta_eff"], cols["gamma_eff"]):
                ref_delta, ref_gamma = oracle.dressed(phase, r_m)
                worst = max(worst, float(abs(delta - ref_delta)), float(abs(gamma - ref_gamma)))
            return f"dressed parameters off by {worst:.3g}" if worst > CLOSED_RTOL else None
        return check

    def check_wavepacket(self, tau, phase, r_m, times):
        def check(meta, cols, stdout):
            x = cols["x"]
            for t in times:
                density = cols[f"density_t{t:g}"]
                for i in _sample(len(x), 100):
                    ref, scale = oracle.left_density(tau, phase, r_m, x[i], t)
                    err = abs(density[i] - ref) / scale if scale else abs(density[i])
                    if err > SERIES_RTOL:
                        return (f"density at x = {float(x[i])!r}, t = {t} off by {float(err):.3g} "
                                f"of its magnitude (tolerance {SERIES_RTOL:g})")
            return None
        return check

    def check_spectrum(self, tau, omega_e, r_m, tol):
        """Laplace-domain closed form on every 16th frequency plus the peak region,
        within `tol` of the peak."""
        def check(meta, cols, stdout):
            omega, density = cols["omega"], cols["spectral_density"]
            peak = int(np.argmax(density))
            near = range(max(0, peak - 16), min(len(omega), peak + 17))
            rows = sorted(set(range(0, len(omega), 16)) | set(near))
            ref = {i: abs(oracle.laplace_amplitude(tau, omega_e, r_m, omega[i])) ** 2
                   for i in rows}
            top = max(ref[i] for i in near)
            worst = max(abs(density[i] - float(ref[i] / top)) for i in rows)
            return f"spectrum off by {worst:.3g} of the peak (tolerance {tol:.3g})" \
                if worst > tol else None
        return check

    def check_trajectory(self, tau, phase, r_m, tolerance):
        """Ensemble mean against the mpmath curve; for `compare` also its own verdict."""
        def check(meta, cols, stdout):
            t = cols["t"]
            exact = [oracle.excitation_probability(tau, phase, r_m, v) for v in t]
            if "P_exact" in cols:
                if not stdout.startswith("PASS") or meta["summary"]["result"] != "PASS":
                    return f"compare did not pass: {stdout.strip()}"
                rows = _sample(len(t), 50)
                err = _rel_error(cols["P_exact"][rows], [exact[i] for i in rows])
                if err > SERIES_RTOL:
                    return f"P_exact off by {err:.3g} relative"
            mean = cols["P_trajectory_mean"]
            if mean[0] != 1.0 or np.any(cols["stderr"] < 0):
                return "ensemble mean does not start at 1, or a standard error is negative"
            worst = max(abs(m - float(e)) for m, e in zip(mean, exact))
            return (f"trajectory mean off the exact curve by {worst:.4f} "
                    f"(tolerance {tolerance:.4f})") if worst > tolerance else None
        return check

    def check_longtime(self, tau, phase, r_m):
        def check(constants):
            xi, xi0 = oracle.longtime_constants(tau, phase, r_m)
            err = max(abs(constants.xi - complex(xi)) / max(1.0, abs(xi)),
                      abs(constants.xi0 - complex(xi0)) / max(1.0, abs(xi0)))
            return f"xi, xi0 off by {err:.3g}" if not err <= LONGTIME_RTOL else None
        return check

    @staticmethod
    def check_norm(total):
        gap = abs(total - 1.0)
        return f"|P_e + photon norm - 1| = {gap:.3g}" if not gap <= NORM_TOL else None

    @staticmethod
    def check_dyson(tau, phase, r_m, n, times):
        def check(values):
            iterative, closed = values
            for t, it, cl in zip(times, iterative, closed):
                ref, scale = oracle.dyson_coefficient(tau, phase, r_m, n, t)
                err = max(abs(it - complex(ref)), abs(cl - complex(ref))) / scale
                if not err <= DYSON_TOL:
                    return f"c_{n}({t:.3g}) off by {float(err):.3g} of its term scale"
            return None
        return check

    @staticmethod
    def check_probability(ref):
        def check(value):
            err = _rel_error([value], [ref])
            return (f"P_e = {value:.4g}, expected {mp.nstr(ref, 6)}"
                    if not err <= SERIES_RTOL else None)
        return check

    def params(self, tau, phase, r_m):
        return self.package["core"].SystemParams.from_round_trip_phase(tau, phase, r_m)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _param_flags(tau, phase, r_m):
    return ["--tau", _fmt(tau), "--phase", _fmt(phase), "--rm", _fmt(r_m)]


def exact_curves(bench: Workbench, rng: random.Random) -> list[Scenario]:
    """README commands at delays of order one; no trajectories."""
    out = []
    # (tau, r_m) keep e|a|tau clear of 1, where the xi0 series switches between
    # converging and diverging.
    for i, (tau0, r_m) in enumerate([(0.5, -0.5), (1.0, -1.0), (2.0, 0.0), (2.0, -0.5)]):
        tau, phase = _jitter(rng, tau0), rng.uniform(0, 2 * PI)
        out.append(bench.cli(f"excitation-{i}", ["excitation", *_param_flags(tau, phase, r_m),
                                                 "--tmax", "10", "--grid", "2001"],
                             bench.check_excitation(tau, phase, r_m)))
    for i, (tau, phase, r_m) in enumerate([(0.01, PI, -1.0),
                                           (_jitter(rng, 1.0), rng.uniform(0, 2 * PI), -0.5)]):
        out.append(bench.cli(f"markovian-{i}", ["markovian", *_param_flags(tau, phase, r_m)],
                             bench.check_markovian(tau, phase, r_m)))
    for i, r_m in enumerate([-1.0, -0.5]):
        out.append(bench.cli(f"dressed-{i}", ["dressed", "--rm", _fmt(r_m),
                                              "--phase-points", "401"],
                             bench.check_dressed(r_m)))
    times = (2.0, 5.0, 10.0)
    for i, (tau, phase, r_m) in enumerate([(1.0, 2 * PI, -1.0),
                                           (_jitter(rng, 1.0), rng.uniform(0, 2 * PI), -0.5)]):
        out.append(bench.cli(f"wavepacket-{i}", ["wavepacket", *_param_flags(tau, phase, r_m),
                                                 "--times", "2,5,10"],
                             bench.check_wavepacket(tau, phase, r_m, times)))
    tau, omega_e = _jitter(rng, 1.0), rng.uniform(3.0, 8.0)
    out.append(bench.cli("spectrum-0", ["spectrum", "--tau", _fmt(tau), "--omega-e",
                                        _fmt(omega_e), "--rm", "0", "--samples", "16384"],
                         bench.check_spectrum(tau, omega_e, 0.0, SPECTRUM_TOL_FREE)))
    spectra = [(_jitter(rng, 1.0), rng.uniform(0, 2 * PI), -0.5, SPECTRUM_TOL_HALF, []),
               (_jitter(rng, 1.0), PI + rng.uniform(-1, 1), -1.0, SPECTRUM_TOL_FULL, []),
               (1.0, 2 * PI, -1.0, SPECTRUM_TOL_TRAPPED,
                ["--allow-undecayed"])]  # trapping: P_e -> 4/9
    for i, (tau, phase, r_m, tol, extra) in enumerate(spectra, start=1):
        out.append(bench.cli(f"spectrum-{i}", ["spectrum", *_param_flags(tau, phase, r_m),
                                               "--samples", "16384", *extra],
                             bench.check_spectrum(tau, mp.mpf(phase) / mp.mpf(tau), r_m, tol)))
    return out


def longtime(bench: Workbench, rng: random.Random) -> list[Scenario]:
    """Small delays and long times: thousands of round-trip terms over short vectors."""
    analytic, wavepacket = bench.package["analytic"], bench.package["wavepacket"]
    # Near phase 0 (mod 2 pi) with r_m = -1 the emitter is almost trapped and the
    # series terms barely cancel, so t = 100 stays exact in double precision.
    cases = [(tau, 2 * PI + rng.uniform(-0.3, 0.3), -1.0, 100.0) for tau in (0.01, 0.02, 0.05, 0.1)]
    cases += [(0.01, rng.uniform(0, 2 * PI), -0.5, 20.0),
              (0.05, PI + rng.uniform(-0.5, 0.5), -1.0, 15.0)]
    out = []
    for i, (tau, phase, r_m, tmax) in enumerate(cases):
        out.append(bench.cli(f"excitation-{i}", ["excitation", *_param_flags(tau, phase, r_m),
                                                 "--tmax", _fmt(tmax), "--grid", "201"],
                             bench.check_excitation(tau, phase, r_m)))
    for i, (tau, phase, r_m, _) in enumerate(cases):
        params = bench.params(tau, phase, r_m)
        out.append(bench.api(f"solve_longtime-{i}",
                             lambda p=params: analytic.solve_longtime(p),
                             bench.check_longtime(tau, phase, r_m)))
    for i, (tau, r_m) in enumerate([(0.02, -1.0), (0.05, -0.5)]):
        params = bench.params(tau, rng.uniform(0, 2 * PI), r_m)
        out.append(bench.api(f"total_photon_norm-{i}",
                             lambda p=params: wavepacket.total_photon_norm(p, 5.0),
                             bench.check_norm))
    dyson_times = np.linspace(0.1, 2.0, 8)

    def dyson(params, n=40):
        closed = [analytic.dyson_coefficient_closed(params, n, t) for t in dyson_times]
        return analytic.dyson_coefficient_iterative(params, n)(dyson_times), closed

    # Dyadic delays: their lattice points k tau are exact doubles (see dyson-fault).
    for i, (tau, r_m) in enumerate([(1 / 16, -1.0), (1 / 8, -0.5)]):
        phase = rng.uniform(0, 2 * PI)
        out.append(bench.api(f"dyson-{i}", lambda p=bench.params(tau, phase, r_m): dyson(p),
                             bench.check_dyson(tau, phase, r_m, 40, dyson_times)))

    # Known faults: fixed inputs, failing on every run until the program is mended.
    case = oracle.load_references()["cancellation"]
    out.append(bench.api(
        "cancellation-fault",
        lambda p=bench.params(case["tau"], case["phase"], case["r_m"]):
            analytic.excitation_probability_exact(p, case["t"]),
        bench.check_probability(mp.mpf(case["P_e"])),
        fault="catastrophic cancellation in the exact series: tau=0.01, phase pi, "
              "r_m=-1, t=100 gives ~2.7e-29 instead of 5.09e-88"))
    out.append(bench.api(
        "overflow-fault",
        lambda p=bench.params(1.0, 2 * PI, -1.0): analytic.excitation_probability_exact(p, 1500.0),
        bench.check_probability(oracle.excitation_probability(1.0, 2 * PI, -1.0, 1500.0)),
        fault="overflow in the exact series: tau=1, phase 2 pi, r_m=-1, t=1500 "
              "gives nan instead of the 4/9 plateau"))
    out.append(bench.api(
        "dyson-fault",
        lambda p=bench.params(0.1, 1.0, -1.0): dyson(p),
        bench.check_dyson(0.1, 1.0, -1.0, 40, dyson_times),
        fault="dyson_coefficient_iterative raises 'breakpoints must be strictly "
              "increasing' for tau=0.1, n=40: k*tau breakpoints that differ in the last "
              "bit merge after snapping"))
    return out


def trajectory_ensemble(bench: Workbench, rng: random.Random) -> list[Scenario]:
    """Quantum-trajectory ensembles at tau = 1: mostly coarse and wide, a few fine."""
    out = []
    coarse = [("compare", 2 * PI, -1.0), ("compare", PI, -0.5), ("trajectory", PI, 0.0)]
    fine = [("trajectory", PI, -0.5), ("compare", 2 * PI, -1.0)]
    # Short time spans keep each scenario at 0.2-0.4 s, so a run times each of
    # them dozens of times (see run.best_times).  6000 coarse trajectories keep
    # the 0.03 check over four standard deviations clear of the mean's scatter
    # plus the box model's bias at the first return (see README).
    runs = [(c, p, r, 25, 6000, 1.25) for c, p, r in coarse]
    runs += [(c, p, r, 100, 300, 1.25) for c, p, r in fine]
    for i, (command, phase, r_m, boxes, count, tmax) in enumerate(runs):
        points = round(tmax * 2 * (boxes - 1)) + 1  # dt = tau / (2 (boxes - 1)), tau = 1
        tol = COMPARE_TOL if boxes == 25 else hoeffding_tolerance(count, points)
        argv = [command, *_param_flags(1.0, phase, r_m), "--boxes", boxes, "--tmax", tmax,
                "--trajectories", count, "--seed", rng.getrandbits(32)]
        if command == "compare":
            argv += ["--tolerance", _fmt(tol)]
        out.append(bench.cli(f"{command}-{i}", argv,
                             bench.check_trajectory(1.0, phase, r_m, tol)))
    return out


WORKLOADS = {
    "exact-curves": exact_curves,
    "longtime": longtime,
    "trajectory-ensemble": trajectory_ensemble,
}
