"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Criterion 4's small-delay constants are marked as a strict
expected failure: the stated tolerance is tighter than the mathematically
exact values allow (details in that test's docstring).
"""

import cmath
import math
import time

import numpy as np
import pytest

from mirrorqed import (
    SystemParams,
    TrajectoryConfig,
    Xi0Diverges,
    dyson_coefficient_closed,
    dyson_coefficient_iterative,
    ensemble_average,
    excitation_amplitude_exact,
    excitation_probability_exact,
    excitation_probability_markovian,
    mirror_coefficients,
    solve_longtime,
    solve_xi,
    spectrum,
    total_photon_norm,
)
from mirrorqed.analytic import _principal_w

DEFAULT_GRID = np.linspace(0.0, 10.0, 2001)

DELAY_REGIMES = {
    "a": (0.01, math.pi),
    "b": (1.0, math.pi),
    "c": (1.0, 2 * math.pi),
    "d": (4.0, math.pi),
}
REFLECTIONS = (0.0, -0.5, -1.0)


def params_for(tau, phase, r_m):
    return SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)


def report(criterion, passed, detail):
    print(f"criterion {criterion:>2}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_free_space_limit():
    start = time.perf_counter()
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=0.0)
    deviation = np.max(
        np.abs(excitation_probability_exact(params, DEFAULT_GRID) - np.exp(-DEFAULT_GRID))
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        deviation < 1e-12 and elapsed < 1.0,
        f"free-space max |P - exp(-t)| = {deviation:.2e}, runtime {elapsed:.3f}s",
    )


def test_criterion_02_causality():
    worst = 0.0
    for tau, phase in DELAY_REGIMES.values():
        for r_m in REFLECTIONS:
            params = params_for(tau, phase, r_m)
            times = np.concatenate(
                [DEFAULT_GRID[DEFAULT_GRID < tau], np.linspace(0.0, tau, 50, endpoint=False)]
            )
            worst = max(
                worst,
                np.max(
                    np.abs(excitation_probability_exact(params, times) - np.exp(-times))
                ),
            )
    report(2, worst < 1e-12, f"pre-round-trip max |P - exp(-t)| = {worst:.2e}")


def test_criterion_03_markovian_doubling_and_suppression():
    params = params_for(0.01, math.pi, -1.0)
    window = DEFAULT_GRID[DEFAULT_GRID <= 3.0]
    log_p = np.log(excitation_probability_exact(params, window))
    slope = np.polyfit(window, log_p, 1)[0]
    doubling_ok = abs(slope + 2.0) / 2.0 < 0.02
    suppressed = params_for(0.01, 2 * math.pi, -1.0)
    flat = excitation_probability_markovian(suppressed, DEFAULT_GRID)
    suppression_ok = bool(np.all(flat == 1.0))
    report(
        3,
        doubling_ok and suppression_ok,
        f"log-slope = {slope:.4f} (target -2 within 2%), suppressed P == 1: {suppression_ok}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated constants are the tau -> 0 limits: the exact root for "
        "tau = 0.01 is Re xi = -0.505051 and xi0 = 1.005076, both O(|a| tau) "
        "= 5.1e-3 away from -0.5 and 1, so a 1e-3 tolerance cannot hold"
    ),
)
def test_criterion_04_longtime_constants_small_delay():
    """Small-delay long-time constants at the stated 1e-3 tolerance.

    The principal-branch constants xi = W_0(a tau) / tau and
    xi0 = 1 / (1 + W_0(a tau)) are correct to 1e-12 (verified against scipy
    and mpmath Lambert-W elsewhere); their distance to the nominal values
    -0.5 and 1 is, however,
    5.1e-3, an order of magnitude above the tolerance demanded here.
    """
    constants = solve_longtime(params_for(0.01, math.pi, -1.0))
    xi_gap = abs(constants.xi.real + 0.5)
    xi0_gap = abs(constants.xi0 - 1.0)
    report(
        "4a",
        xi_gap <= 1e-3 and xi0_gap <= 1e-3,
        f"|Re xi + 1/2| = {xi_gap:.2e}, |xi0 - 1| = {xi0_gap:.2e} (tolerance 1e-3)",
    )


def test_criterion_04_trapping_constants():
    params = params_for(1.0, 2 * math.pi, -1.0)
    xi = solve_xi(params)
    xi_ok = abs(xi - 0.5) <= 1e-9
    try:
        solve_longtime(params)
        diverged = False
    except Xi0Diverges:
        diverged = True
    report(
        "4b",
        xi_ok and diverged,
        f"trapping xi = {xi:.12g} (target 1/2 within 1e-9), Xi0Diverges raised: {diverged}",
    )


def test_criterion_05_dyson_representations_agree():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        tau = rng.uniform(0.1, 1.5)
        phase = rng.uniform(0.0, 2 * math.pi)
        r_m = rng.uniform(0.0, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        params = SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)
        t = rng.uniform(0.1 * tau, 5 * tau)
        for n in range(0, 13, 2):
            closed = dyson_coefficient_closed(params, n, t)
            iterative = dyson_coefficient_iterative(params, n)(t)
            worst = max(worst, abs(iterative - closed) / max(1e-12, abs(closed)))
    elapsed = time.perf_counter() - start
    report(
        5,
        worst < 1e-10 and elapsed < 5.0,
        f"iterative vs closed worst relative error = {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_06_partial_sum_convergence():
    worst = 0.0
    for r_m in REFLECTIONS:
        params = params_for(1.0, math.pi, r_m)
        for t in np.linspace(0.0, 5.0, 26):
            partial = sum(
                dyson_coefficient_closed(params, n, t) for n in range(0, 41, 2)
            ) * cmath.exp(-1j * params.omega_e * t)
            worst = max(worst, abs(partial - excitation_amplitude_exact(params, t)))
    report(6, worst < 1e-8, f"40-order partial sum amplitude error = {worst:.2e}")


def test_criterion_07_norm_conservation():
    start = time.perf_counter()
    worst = 0.0
    for tau, phase in DELAY_REGIMES.values():
        for r_m in REFLECTIONS:
            params = params_for(tau, phase, r_m)
            for t in (0.5, 1.0, 2.0, 5.0):
                worst = max(worst, abs(total_photon_norm(params, t) - 1.0))
    elapsed = time.perf_counter() - start
    report(
        7,
        worst < 1e-6 and elapsed < 30.0,
        f"max |P_e + photon norm - 1| = {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_08_trajectory_oracle_agreement():
    start = time.perf_counter()
    seed = 42
    benchmark_cases = [
        (1.0, math.pi, 0.0),
        (1.0, math.pi, -0.5),
        (1.0, 2 * math.pi, -1.0),
        (4.0, math.pi, -1.0),
    ]
    deviations = []
    first_mean = None
    for tau, phase, r_m in benchmark_cases:
        params = params_for(tau, phase, r_m)
        config = TrajectoryConfig(
            params, boxes=25, n_trajectories=5000, t_max=10.0, master_seed=seed
        )
        result = ensemble_average(config)
        exact = excitation_probability_exact(params, result.times)
        deviations.append(float(np.max(np.abs(result.mean - exact))))
        if first_mean is None:
            first_mean = result.mean
            first_config = config
    # bit-for-bit reproducibility under the fixed master seed
    replay = ensemble_average(first_config)
    reproducible = bool(np.array_equal(replay.mean, first_mean))
    elapsed = time.perf_counter() - start
    report(
        8,
        max(deviations) <= 0.03 and reproducible and elapsed < 120.0,
        f"max |mean - exact| per config = {[f'{d:.4f}' for d in deviations]}, "
        f"bit-reproducible: {reproducible}, runtime {elapsed:.1f}s",
    )


def test_criterion_09_mirror_unitarity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for j in rng.uniform(0.0, 10.0, size=1000):
        t_m, r_m = mirror_coefficients(j)
        worst = max(worst, abs(t_m**2 + abs(r_m) ** 2 - 1.0))
    report(9, worst < 1e-12, f"max |t^2 + |r|^2 - 1| = {worst:.2e} over 1000 draws")


def test_criterion_10_lorentzian_spectrum():
    params = SystemParams(omega_e=5.0, tau=1.0, r_m=0.0)
    result = spectrum(params, t_final=40.0, sample_count=2**14)
    dens, freq = result.spectral_density, result.frequencies
    above = dens >= 0.5
    lo = int(np.argmax(above))
    hi = len(above) - 1 - int(np.argmax(above[::-1]))

    def crossing(i, j):
        return freq[i] + (0.5 - dens[i]) * (freq[j] - freq[i]) / (dens[j] - dens[i])

    fwhm = crossing(hi, hi + 1) - crossing(lo, lo - 1)
    x_grid = -result.t_final + result.spacing * np.arange(result.sample_count)
    from mirrorqed import Direction, field_amplitude

    spatial = np.sum(np.abs(field_amplitude(params, x_grid, Direction.LEFT, 40.0)) ** 2)
    spectral = np.sum(np.abs(result.amplitudes) ** 2)
    parseval = abs(spectral / spatial - 1.0)
    report(
        10,
        abs(fwhm - 1.0) <= 0.05 and parseval < 1e-10,
        f"FWHM = {fwhm:.4f} Gamma (target 1 within 5%), Parseval residual = {parseval:.2e}",
    )


def test_criterion_11_delay_equation_residual():
    # the long-time series exp(W_0 u / tau) / (1 + W_0) solves f'(u) = a f(u - tau)
    tau = 1.0
    h = 1e-5
    worst = 0.0
    for a in (-0.3, 0.3, 0.2 - 0.2j):
        w0 = _principal_w(a, tau)

        def series(u):
            return cmath.exp(w0 * u / tau) / (1.0 + w0)

        for t in np.linspace(2 * tau, 10 * tau, 33):
            deriv = (series(t + h) - series(t - h)) / (2 * h)
            rhs = a * series(t - tau)
            worst = max(worst, abs(deriv - rhs) / max(1.0, abs(rhs)))
    report(11, worst <= 1e-6, f"delay-equation residual = {worst:.2e} for |a| tau <= 0.3")
