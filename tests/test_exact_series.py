"""The exact round-trip series against high-precision references.

The package evaluates f(u) = sum_{k <= u/tau} a^k (u - k tau)^k / k! by the
causal sum at early times and by the Lambert-W residue sum later.  Every
reference here is the causal sum itself, summed in mpmath at a working
precision well past the digits its cancellation eats.
"""

import cmath
import hashlib
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import lambertw

from mirrorqed import (
    Direction,
    SystemParams,
    derived_constants,
    dressed_params,
    excitation_probability_exact,
    excitation_probability_markovian,
    field_amplitude,
    round_trip_series,
    solve_longtime,
    solve_xi,
    spectrum,
    total_photon_norm,
)
from mirrorqed.analytic import _lambert_w, _plan, _round_trip_sum, _series_key

# tau at which a tau = -1/e for phase pi and r_m = -1: tau/2 exp(tau/2) = 1/e
CRITICAL_TAU = 2 * float(mp.lambertw(1 / mp.e))


def series_at(u, a, tau):
    """The round-trip series at a bare feedback constant a != 0 and delay tau > 0."""
    return _round_trip_sum(u, a, tau, 0j)


def causal_reference(a, tau, u, digits=25):
    """f(u) in mpmath for double inputs tau, u and a = a() at the working
    precision, raised until `digits` survive the cancellation.  Terms past
    the point where the rest cannot reach the last digit are left out."""
    dps = digits + 15
    while True:
        with mp.workdps(dps):
            x, tau_m, a_m = mp.mpf(u), mp.mpf(tau), a()
            total, biggest, factorial, k = mp.mpc(1), mp.mpf(1), mp.mpf(1), 1
            tail = mp.mpf(10) ** -(digits + 5)
            while x - k * tau_m > 0:
                factorial *= k
                term = (a_m * (x - k * tau_m)) ** k / factorial
                total += term
                biggest = max(biggest, abs(term))
                # past k = e |a| u the terms shrink faster than by 1/e each
                if k > mp.e * abs(a_m) * x and abs(term) < tail * abs(total):
                    break
                k += 1
            lost = math.ceil(float(mp.log10(biggest / abs(total))))
            if lost + digits <= dps:
                return +total
        dps = lost + digits + 10


def probability_reference(tau, phase, r_m, t):
    """Exact P_e(t) = exp(-t) |f(t)|^2 with a = -r_m exp(i phase) exp(tau/2) / 2."""
    def feedback():
        return -mp.mpf(r_m) * mp.expj(mp.mpf(phase)) * mp.exp(mp.mpf(tau) / 2) / 2

    f = causal_reference(feedback, tau, t)
    with mp.workdps(30):
        return float(mp.exp(-mp.mpf(t)) * abs(f) ** 2)


# (tau, phase, r_m, t)
REGRESSION_CASES = {
    # each term ~1e21, the sum ~1e-22
    "cancellation": (0.01, math.pi, -1.0, 100.0),
    # exp(s_0 t) alone overflows; the trapped plateau is 4/9
    "overflow": (1.0, 2 * math.pi, -1.0, 1500.0),
    # a tau = -1/e, where W_0 and W_{-1} merge and 1 + W_0 = 0
    "branch-point-t20": (CRITICAL_TAU, math.pi, -1.0, 20.0),
    "branch-point-t50": (CRITICAL_TAU, math.pi, -1.0, 50.0),
    "branch-point-above": (CRITICAL_TAU * (1 + 1e-6), math.pi, -1.0, 50.0),
    "branch-point-below": (CRITICAL_TAU * (1 - 1e-6), math.pi, -1.0, 50.0),
    "branch-point-above-t20": (CRITICAL_TAU * (1 + 1e-6), math.pi, -1.0, 20.0),
    "branch-point-below-t20": (CRITICAL_TAU * (1 - 1e-6), math.pi, -1.0, 20.0),
    "late-phase-3.4": (1.0, 3.4, -1.0, 39.65574070683025),
    # |a| tau ~ e^750 leaves the double range: no residue plan, causal terms only
    "causal-only-t16.5tau": (1500.0, math.pi, -1.0, 16.5 * 1500.0),
    "causal-only-t60.5tau": (1500.0, math.pi, -1.0, 60.5 * 1500.0),
}


@pytest.mark.parametrize("case", REGRESSION_CASES)
def test_probability_matches_high_precision_causal_sum(case):
    tau, phase, r_m, t = REGRESSION_CASES[case]
    params = SystemParams.from_round_trip_phase(tau, phase, r_m)
    got = excitation_probability_exact(params, t)
    expected = probability_reference(tau, phase, r_m, t)
    assert got == pytest.approx(expected, rel=1e-8, abs=0)


def test_causal_only_cases_have_no_residue_plan():
    tau, phase, r_m, _ = REGRESSION_CASES["causal-only-t16.5tau"]
    plan = _plan(*_series_key(SystemParams.from_round_trip_phase(tau, phase, r_m)))
    assert plan.switch == math.inf and plan.branches[0].size == 0


# tau 1400 and 1410 have |a tau| > e^700 (no residue plan, as at tau 1500);
# the causal terms in local time keep every case within ~1e-13 of mpmath
@pytest.mark.parametrize("tau, phase, r_m", [
    (1500.0, math.pi, -1.0), (1500.0, 2.0, -0.7), (1400.0, math.pi, -1.0), (1410.0, math.pi, -1.0),
])
@pytest.mark.parametrize("round_trips", [16.5, 60.5, 300.5])
def test_causal_sum_at_a_large_delay_to_working_precision(tau, phase, r_m, round_trips):
    params = SystemParams.from_round_trip_phase(tau, phase, r_m)
    t = round_trips * tau
    got = excitation_probability_exact(params, t)
    assert got == pytest.approx(probability_reference(tau, phase, r_m, t), rel=1e-12, abs=0)


def test_series_without_a_residue_plan_refuses_points_past_its_causal_limit():
    # past |a tau| = e^700 every point takes the causal sum, ~12 us a round
    # trip: 1e8 round trips ran for minutes, 5e304 would never end
    params = SystemParams(omega_e=0.0, tau=1e300, r_m=-1.0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"tau = 1e\+300 .* u / tau = 1e\+08 round trips"):
        excitation_probability_exact(params, [0.0, 1e308])
    assert time.perf_counter() - start < 1.0
    # the limit sits far above the norm's: its panel cap admits t <= ~7850,
    # under 6 round trips, wherever tau has no plan
    params = SystemParams.from_round_trip_phase(1500.0, math.pi, -1.0)
    assert excitation_probability_exact(params, (2**14 + 0.5) * 1500.0) >= 0.0
    with pytest.raises(ValueError, match="round trips exceed 2\\*\\*15"):
        round_trip_series(params, (2**15 + 1) * 1500.0)


# At phase pi, r_m -1 and 200 <= tau <= 1385 the switch weighs only the causal
# sum's cancellation, yet the causal sum is well conditioned there (one term
# dominates): the plan keeps hundreds of branches (1268 at tau 800, switch 16)
# and their sum is off by up to hundreds of orders of magnitude.
@pytest.mark.xfail(strict=True, reason="the residue sum is silently wrong at large tau "
                   "(ROADMAP item 1, the switch)")
@pytest.mark.parametrize("tau, round_trips", [
    (200.0, 16.5), (300.0, 16.5), (400.0, 16.5), (800.0, 16.5), (800.0, 40.5),
    (1300.0, 16.5), (1300.0, 60.5), (1385.0, 16.5), (1385.0, 60.5),
])
def test_residue_sum_at_a_large_delay(tau, round_trips):
    params = SystemParams.from_round_trip_phase(tau, math.pi, -1.0)
    t = round_trips * tau
    expected = probability_reference(tau, math.pi, -1.0, t)
    assert excitation_probability_exact(params, t) == pytest.approx(expected, rel=1e-8, abs=0)


def test_known_values_of_the_regression_cases():
    cancellation = SystemParams.from_round_trip_phase(0.01, math.pi, -1.0)
    assert excitation_probability_exact(cancellation, 100.0) == pytest.approx(
        5.0911e-88, rel=1e-4, abs=0
    )
    trapped = SystemParams.from_round_trip_phase(1.0, 2 * math.pi, -1.0)
    assert excitation_probability_exact(trapped, 1500.0) == pytest.approx(4 / 9, rel=1e-12)
    critical = SystemParams.from_round_trip_phase(CRITICAL_TAU, math.pi, -1.0)
    assert excitation_probability_exact(critical, 50.0) == pytest.approx(6.5567e-96, rel=1e-4, abs=0)


def field_reference(params, x, direction, t):
    """The field at double x as the sum of its regions, each -i (g/c) weight
    exp(-i Omega s) f(s) at its emission time s, summed in mpmath."""
    def emitted(s):
        if s < 0:
            return 0j
        def feedback():
            phase = mp.mpf(params.omega_e) * mp.mpf(params.tau)
            return -mp.mpc(params.r_m) * mp.expj(phase) * mp.exp(mp.mpf(params.tau) / 2) / 2
        f = causal_reference(feedback, params.tau, s)
        with mp.workdps(40):
            envelope = mp.exp(-1j * (mp.mpf(params.omega_e) - 0.5j) * mp.mpf(s))
            return complex(-1j * mp.sqrt(mp.mpf(params.gamma) / 2) * envelope * f)

    if direction is Direction.LEFT:
        reflected = params.r_m * emitted(x + t - params.tau) if x <= params.tau / 2 else 0
        return (emitted(x + t) if x <= 0 else 0) + reflected
    return (1 if x < params.tau / 2 else params.t_m) * emitted(t - x)


def test_trapped_field_at_long_times():
    # exp(-i Omega s) and f(s) each leave the double range by s = 1500 while
    # their product stays bounded: the direct region (s < tau), the
    # interfering region (a field node at phase 2 pi) and both directions
    # between emitter and mirror.  A double s ~ t fixes the phase omega_e s
    # only to a few eps omega_e t.
    tau, phase, r_m, t = REGRESSION_CASES["overflow"]
    params = SystemParams.from_round_trip_phase(tau, phase, r_m)
    tol = 4 * np.finfo(float).eps * params.omega_e * t
    for direction, xs in ((Direction.LEFT, (-t + 0.5, -700.25, -5.0, -1.0, 0.3)),
                          (Direction.RIGHT, (0.3,))):
        got = field_amplitude(params, np.array(xs), direction, t)
        for x, value in zip(xs, got):
            assert abs(value - field_reference(params, x, direction, t)) <= tol, (direction, x)
    assert total_photon_norm(params, t) == pytest.approx(1.0, abs=1e-10)


def test_infinite_delay_is_free_decay():
    params = SystemParams(omega_e=1.0, tau=math.inf, r_m=-1.0)
    t = np.array([0.0, 0.5, 3.0, 40.0, 700.0])
    assert np.allclose(excitation_probability_exact(params, t), np.exp(-t), rtol=1e-14, atol=0)


@pytest.mark.parametrize("params, expected", [
    (SystemParams.from_round_trip_phase(1.0, 2 * math.pi, -1.0), 4.0 / 9.0),  # trapped
    (SystemParams(omega_e=5.0, tau=1.0, r_m=0.0), 0.0),  # decayed
    (SystemParams(omega_e=5.0, tau=0.0, r_m=-0.5), 0.0),  # no delay
    # a tau = -1/e: W_0 and W_-1 summed as a pair
    (SystemParams.from_round_trip_phase(1.0, 2 * math.pi, 2 * math.exp(-1.5)), 0.0),
    # the pair again, where x = u / tau overflows at u = 1e308
    (SystemParams(omega_e=0.0, tau=0.52, r_m=1.0), 0.0),
])
def test_probability_where_the_phase_product_overflows(params, expected):
    # |Omega| t leaves the double range, so a phase Im(rate) u overflows to
    # inf; exp(Re + i inf) was nan even where its modulus is 0
    times = [5e307, 1e308]
    assert excitation_probability_exact(params, times).tolist() == pytest.approx(
        [expected] * 2, abs=1e-15)
    assert [excitation_probability_exact(params, t) for t in times] == pytest.approx(
        [expected] * 2, abs=1e-15)


def random_cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tau = 10 ** rng.uniform(-1.5, 0.7)
        phase = rng.uniform(0, 2 * math.pi)
        r_m = -(rng.uniform(0, 1) ** 0.2)
        u = tau * 10 ** rng.uniform(0.3, 1.8)  # 2 to 60 round trips
        yield tau, phase, r_m, u


@pytest.mark.parametrize("tau, phase, r_m, u", random_cases(30, seed=3))
def test_series_matches_high_precision_on_both_sides_of_the_switch(tau, phase, r_m, u):
    params = SystemParams.from_round_trip_phase(tau, phase, r_m)
    a = derived_constants(params).a
    expected = causal_reference(lambda: mp.mpc(a), tau, u)
    got = series_at(u, a, tau)
    assert abs(got - complex(expected)) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("distance", [0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.03, 0.05, 0.2])
@pytest.mark.parametrize("angle", [0.0, 0.5, math.pi, -2.0])
def test_series_near_the_branch_point(distance, angle):
    # a tau = -1/e + distance e^{i angle}: the closed-form pair near the
    # branch point and the separate branches further out (|q| = 2 e distance)
    # must both agree with the causal sum
    tau = 1.0
    z = -1 / math.e + distance * cmath.exp(1j * angle)
    for u in (9.0, 30.0, 60.0):
        expected = causal_reference(lambda: mp.mpc(z), tau, u)
        got = series_at(u, z, tau)
        assert abs(got - complex(expected)) <= 1e-9 * abs(expected), u


def test_series_continuous_where_the_sums_switch():
    a, tau = -0.45 + 0.2j, 1.0
    for u in np.arange(7.0, 17.0):
        below, above = series_at(np.array([u - 1e-9, u + 1e-9]), a, tau)
        assert abs(above - below) <= 1e-7 * abs(below)


def test_each_point_of_a_batch_equals_its_own_scalar_call():
    # a point's value must not depend on the other points in its call; an
    # in-place envelope multiply rounded one-element arrays differently
    def check(params, u, stride=1):
        batch = round_trip_series(params, u)
        for point, value in zip(u[::stride], batch[::stride]):
            assert round_trip_series(params, point) == value, (params, point)

    # the case that showed it: the last of four causal points, 1.1e-16 apart
    check(SystemParams(omega_e=764.99, tau=0.0017146513530075325, r_m=-0.5),
          np.array([0.002, 0.005, 0.009, 0.01422229]))
    rng = np.random.default_rng(11)
    sides = set()
    for _ in range(200):
        tau = 10 ** rng.uniform(-3, math.log10(3))
        params = SystemParams(omega_e=rng.uniform(0, 1000), tau=tau, r_m=rng.uniform(-1, 1))
        u = rng.uniform(0, 60 * tau, int(rng.integers(2, 9)))
        check(params, u)
        sides.update(np.floor(u / tau) >= 16)  # at 16 terms every point is on the residue side
    assert sides == {False, True}
    params = SystemParams(omega_e=321.5, tau=0.037, r_m=0.83)
    check(params, np.linspace(0.0, 60 * params.tau, 2001), stride=37)


@pytest.mark.parametrize("params", [
    SystemParams.from_round_trip_phase(1.0, 3.5, -1.0),  # eight branches
    SystemParams.from_round_trip_phase(0.02, 2 * math.pi, -1.0),  # W_0 alone
    SystemParams.from_round_trip_phase(CRITICAL_TAU * (1 - 1e-6), math.pi, -1.0),  # merging pair
    SystemParams.from_round_trip_phase(0.5, 1.3, 0.8 * cmath.exp(-0.4j)),  # complex r_m
    SystemParams(omega_e=1.0, tau=1e-300, r_m=-1.0),  # u / tau overflows to inf
    SystemParams(omega_e=1.0, tau=1e-310, r_m=-1.0),  # below _NO_DELAY: no lattice
    SystemParams(omega_e=3.0, tau=0.3, r_m=0.0),  # no mirror: causal sum only
])
def test_series_commutes_with_a_permutation_of_its_points(params):
    # f(u[p]) == f(u)[p] bit for bit: the order of a call's points must not
    # change any point's value, on either side of the switch
    tau = params.tau
    planned = params.r_m != 0 and tau >= np.finfo(float).tiny
    switch = (_plan(*_series_key(params)).switch if planned else 16) * tau
    rng = np.random.default_rng(5)
    lattice = np.arange(0, 40) * tau
    u = np.concatenate([
        [-1.0, -tau, -0.0, 0.0, 1e10],
        lattice, lattice[::3],  # the lattice points, some twice
        [switch, np.nextafter(switch, 0), np.nextafter(switch, math.inf), switch],
        rng.uniform(0, 40 * tau, 60), rng.uniform(-tau, 0, 5),
    ])
    if tau < 1e-200:
        u = np.concatenate([u, rng.uniform(0, 50, 40), [50.0, 50.0]])
    if tau == 1e-300:
        assert u.max() > tau * np.finfo(float).max  # u / tau is inf
    expected = round_trip_series(params, u)
    for _ in range(5):
        p = rng.permutation(u.size)
        assert round_trip_series(params, u[p]).tobytes() == expected[p].tobytes()
    assert round_trip_series(params, np.sort(u)).tobytes() == expected[np.argsort(u)].tobytes()


@pytest.mark.parametrize("direction", list(Direction))
def test_field_amplitude_does_not_depend_on_the_order_of_positions(direction):
    params = SystemParams.from_round_trip_phase(0.25, 3.5, -0.8)
    t = 7.0
    x = np.concatenate([np.linspace(-t - 1, t + 1, 1501), np.arange(-28, 29) * params.tau])
    x = np.sort(x)
    ascending = field_amplitude(params, x, direction, t)
    p = np.random.default_rng(2).permutation(x.size)
    assert field_amplitude(params, x[p], direction, t).tobytes() == ascending[p].tobytes()


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------


def lambert_grid():
    magnitude = np.logspace(-8, 6, 57)
    angle = np.linspace(-math.pi, math.pi, 41)
    z = (magnitude[:, None] * np.exp(1j * angle[None, :])).ravel()
    return z[np.abs(z + 1 / math.e) > 1e-3]


@pytest.mark.parametrize("k", range(-3, 4))
def test_lambert_w_matches_scipy(k):
    z = lambert_grid()
    got = np.array([_lambert_w(x, k) for x in z])
    expected = lambertw(z, k)
    assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_lambert_w_near_the_branch_point(k):
    # W is ill-conditioned at -1/e (dW/dz ~ 1/(1 + W)), so allow the error
    # one rounding of z brings about
    for distance in (1e-14, 1e-10, 1e-6, 1e-3, 0.05):
        for angle in (0.0, 1.0, math.pi, -1.0):
            z = -1 / math.e + distance * cmath.exp(1j * angle)
            expected = complex(mp.lambertw(mp.mpc(z), k))
            got = _lambert_w(z, k)
            assert abs(got - expected) <= 1e-15 * (1 + 1 / abs(1 + expected)), (z, k)


@pytest.mark.parametrize("k", [-1000, -317, -40, -3, -1, 0, 1, 2, 41, 318, 1000])
def test_lambert_w_far_branches_match_scipy(k):
    # |z| from e^-700 to e^700 all around the origin
    magnitude = np.exp(np.linspace(-700.0, 700.0, 71))
    angle = np.linspace(-math.pi, math.pi, 13)
    z = (magnitude[:, None] * np.exp(1j * angle[None, :])).ravel()
    got = np.array([_lambert_w(x, k) for x in z])
    expected = lambertw(z, k)
    assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))


@pytest.mark.parametrize("tau, phase, r_m", [
    (0.02, 2 * math.pi, -1.0),  # W_0 alone
    (1.0, 3.5, -1.0),  # eight branches
    (CRITICAL_TAU * (1 - 1e-6), math.pi, -1.0),  # W_0 and W_{-1} summed as a pair
    (200.0, 2.0, -0.7),  # 316 branches
])
def test_residue_plan_branches_are_scipy_branches(tau, phase, r_m):
    # every branch the plan keeps is one W_j(a tau), none twice, W_0 unless it
    # is paired with its merging branch, smallest real part first
    plan = _plan(*_series_key(SystemParams.from_round_trip_phase(tau, phase, r_m)))
    z, (branches, _) = plan.z, plan.branches
    j = np.arange(-len(branches) - 8, len(branches) + 9)
    candidates = lambertw(z, j)
    kept = []
    for w in branches:
        nearest = int(np.argmin(np.abs(candidates - w)))
        assert abs(w - candidates[nearest]) <= 1e-13 * abs(candidates[nearest]), (w, j[nearest])
        kept.append(int(j[nearest]))
    assert len(set(kept)) == len(kept)
    merging = -1 if z.imag >= 0 else 1
    assert 0 in kept if plan.pair is None else not {0, merging} & set(kept)
    assert np.all(np.diff(branches.real) >= 0)


@pytest.mark.parametrize("tau", [1e-307, 1e-309, 1e-310, 5e-324])
def test_delays_at_the_bottom_of_the_double_range(tau):
    # u / tau overflows, so W_0 must reach every point; below the normal range
    # a tau keeps only the bits of a subnormal and the delay acts as none
    t = np.array([0.5, 1.0, 200.0])
    none = SystemParams(omega_e=1.0, tau=0.0, r_m=1.0)
    params = SystemParams(omega_e=1.0, tau=tau, r_m=1.0)
    expected = excitation_probability_exact(none, t)
    assert np.all(np.abs(excitation_probability_exact(params, t) - expected) <= 1e-10 * expected)
    assert solve_xi(params) == pytest.approx(solve_xi(none), rel=1e-12)


def test_tiny_delay_at_long_times():
    # W_j(z) / tau with z = a tau formed directly: the exp(log a + log tau)
    # round trip cost |log z| eps in z, 1.6e-11 at t 200 and P_e above 1 by t 5e9
    decaying = SystemParams(omega_e=1.0, tau=1e-300, r_m=1.0)
    assert excitation_probability_exact(decaying, 200.0) == pytest.approx(
        math.exp(-400.0), rel=1e-13, abs=0)
    trapped = SystemParams(omega_e=1.0, tau=1e-300, r_m=-1.0)
    probabilities = excitation_probability_exact(trapped, np.array([5e9, 1e10]))
    assert np.all(probabilities <= 1.0)
    assert probabilities == pytest.approx([1.0, 1.0], abs=1e-5)


def test_residue_plan_takes_w0_from_the_z_of_solve_xi():
    # the series and the long-time pole build one plan between them and share
    # its W_0, bit for bit, over delays from 1e-300 to 1e3 and complex mirrors
    rng = np.random.default_rng(29)
    for _ in range(300):
        tau = 10 ** rng.uniform(-300, 3)
        r_m = rng.uniform(0.05, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        params = SystemParams(omega_e=rng.uniform(0, 10), tau=tau, r_m=r_m)
        _plan.cache_clear()
        round_trip_series(params, 20 * tau)
        xi = solve_xi(params)
        assert _plan.cache_info().misses == 1, params
        plan = _plan(*_series_key(params))
        # W_0 is the last branch
        assert plan.pair is None and complex(plan.branches[0][-1]) == plan.w0
        assert xi == plan.w0 / tau, params


def test_long_time_pole_leaves_the_branches_unbuilt():
    # solve_xi reads z and W_0 alone; building the 1582 branches at tau 1000 takes ms
    params = SystemParams.from_round_trip_phase(1000.0, 2.0, -0.5)
    _plan.cache_clear()
    solve_xi(params)
    plan = _plan(*_series_key(params))
    assert "branches" not in vars(plan)
    round_trip_series(params, 20 * 1000.0)
    assert "branches" in vars(plan) and plan.branches[0].size > 1000


# sha256 of round_trip_series on 201 points to 40 round trips at phase 2, r_m -0.5,
# as the plan gave them when it built every branch with z and W_0
EAGER_PLAN_DIGESTS = {
    1.0: "41ff0e64626d0a8cbad9178f90d6c552ddc9e0cbbb70cbbb77aed39a1e4c412c",
    100.0: "bf691f36e18bdf8f01513e43b6fc566b6f3d0e6aac4dc3566991f264bd4fa8e9",
}


@pytest.mark.parametrize("tau", sorted(EAGER_PLAN_DIGESTS))
def test_lazy_branches_keep_the_series_bytes(tau):
    params = SystemParams.from_round_trip_phase(tau, 2.0, -0.5)
    _plan.cache_clear()
    solve_xi(params)  # the plan first built without its branches
    series = round_trip_series(params, np.linspace(0.0, 40 * tau, 201))
    assert hashlib.sha256(series.tobytes()).hexdigest() == EAGER_PLAN_DIGESTS[tau]


@pytest.mark.parametrize("tau", [0.5, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("r_m", [1.0, -1.0, 0.7, -0.7])
def test_cached_plan_does_not_make_the_series_depend_on_call_order(tau, r_m):
    # r_m + 0i and r_m - 0i are one cache key; at omega_e 0 their a tau sits on
    # the real axis with either sign of zero, and whichever system comes first
    # builds the plan both read
    systems = [SystemParams(omega_e=0.0, tau=tau, r_m=complex(r_m, zero)) for zero in (0.0, -0.0)]
    u = np.linspace(0.0, 40 * tau, 401)
    runs = []
    for order in (systems, systems[::-1]):
        _plan.cache_clear()
        runs.append({math.copysign(1.0, p.r_m.imag): round_trip_series(p, u).tobytes()
                     for p in order})
    assert runs[0] == runs[1]
    assert len(set(runs[0].values())) == 1


@pytest.mark.parametrize("kind", [np.float32, np.array])
def test_cached_plan_is_keyed_by_the_doubles_of_a_system(kind):
    # tau and omega_e as float32 or 0-d arrays hold the doubles of the float
    # system and make an equal cache key; the series takes them as doubles, so
    # either call order gives the float system's bytes
    u = np.linspace(0.0, 40.0, 401)
    plain = SystemParams(omega_e=1.5, tau=1.0, r_m=-0.5)
    other = SystemParams(omega_e=kind(1.5), tau=kind(1.0), r_m=-0.5)
    for order in ((plain, other), (other, plain)):
        _plan.cache_clear()
        assert len({round_trip_series(p, u).tobytes() for p in order}) == 1


@pytest.mark.parametrize("tau, r_m", [(1e-5, 1e-320), (1e-200, 1e-200), (1e-5, 1e-316)])
def test_series_where_a_tau_underflows(tau, r_m):
    # exp(log(a tau)) is 0 or subnormal: the branches beyond W_0 come from
    # log(a tau), and the emitter decays freely
    t = np.array([0.5, 3.0, 20.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = excitation_probability_exact(SystemParams(omega_e=1.0, tau=tau, r_m=r_m), t)
    assert np.all(np.abs(got - np.exp(-t)) <= 1e-12 * np.exp(-t))


def test_principal_branch_equals_solve_xi():
    # solve_xi against mpmath's W_0 at the exact a tau: the random grid of
    # test_solve_xi_matches_lambertw_branch with no filter on |a tau|, delays
    # just short of the branch point a tau = -1/e, and complex a tau around it
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(50):
        tau = rng.uniform(0.05, 2.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        r_m = rng.uniform(0.0, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        cases.append((tau, phase, r_m))
    cases += [(CRITICAL_TAU * (1 - d), math.pi, -1.0) for d in (1e-3, 1e-6, 1e-9, 1e-12)]
    cases += [(CRITICAL_TAU * (1 - d), math.pi, -cmath.exp(1e-3j)) for d in (1e-3, 0, -1e-3)]
    for case in cases:
        params = SystemParams.from_round_trip_phase(*case)
        a = derived_constants(params).a
        with mp.workdps(30):
            w0 = mp.lambertw(mp.mpc(a) * params.tau)
            expected = complex(w0 / params.tau)
            # rounding a tau moves W_0 by up to eps |W_0| / |1 + W_0|
            condition = 1 + float(1 / abs(1 + w0))
        xi = solve_xi(params)
        tolerance = min(1e-9 * max(1.0, abs(xi)), 1e-15 * condition * abs(expected))
        assert abs(xi - expected) <= tolerance, case


def test_longtime_constants_match_mpmath_inside_the_series_radius():
    # xi = W_0(a tau) / tau and xi0 = 1 / (1 + W_0) at the delays of the bench
    # `longtime` workload and on random sets with e |a| tau <= 0.99
    cases = [(tau, 2 * math.pi + d, -1.0)
             for tau in (0.01, 0.02, 0.05, 0.1) for d in (-0.3, 0, 0.3)]
    cases += [(0.01, 1.0, -0.5), (0.05, math.pi - 0.5, -1.0), (0.05, math.pi + 0.5, -1.0)]
    rng = np.random.default_rng(11)
    while len(cases) < 200:
        tau = 10 ** rng.uniform(-2.5, 0.7)
        r_m = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        case = (tau, rng.uniform(0, 2 * math.pi), r_m)
        a = derived_constants(SystemParams.from_round_trip_phase(*case)).a
        if math.e * abs(a) * tau <= 0.99:
            cases.append(case)
    for case in cases:
        params = SystemParams.from_round_trip_phase(*case)
        consts = solve_longtime(params)
        with mp.workdps(30):
            w0 = mp.lambertw(mp.mpc(consts.a) * params.tau)
            xi, xi0 = complex(w0 / params.tau), complex(1 / (1 + w0))
        assert abs(consts.xi - xi) <= 1e-13 * abs(xi), case
        assert abs(consts.xi0 - xi0) <= 1e-13 * abs(xi0), case


# ---------------------------------------------------------------------------
# Spectrum, Markovian limit, runtime dependencies
# ---------------------------------------------------------------------------


def test_spectrum_matches_laplace_closed_form_with_mirror():
    # |1 + r_m e^{i omega tau}|^2 / |s - a e^{-s tau}|^2, s = -i (omega - Omega)
    # (Tufarelli, Ciccarello & Kim, PRA 87, 013820 (2013))
    params = SystemParams(omega_e=2.0, tau=1.0, r_m=-0.5)
    spec = spectrum(params, sample_count=2**14)
    consts = derived_constants(params)
    omega = spec.frequencies
    s = -1j * (omega - consts.omega_complex)
    laplace = np.abs(1 + params.r_m * np.exp(1j * omega * params.tau)) ** 2 / np.abs(
        s - consts.a * np.exp(-s * params.tau)
    ) ** 2
    laplace /= laplace.max()
    assert np.max(np.abs(spec.spectral_density - laplace)) <= 1.5e-3


def test_markovian_limit_rejects_infinite_delay():
    params = SystemParams(omega_e=1.0, tau=math.inf, r_m=-1.0)
    with pytest.raises(ValueError, match="finite tau"):
        excitation_probability_markovian(params, 1.0)
    with pytest.raises(ValueError, match="finite tau"):
        dressed_params(params)


def test_runtime_imports_only_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, mirrorqed\n"
        "p = mirrorqed.SystemParams.from_round_trip_phase(0.01, 3.0, -1.0)\n"
        "mirrorqed.excitation_probability_exact(p, 100.0)  # 10^4 round trips: residue sum\n"
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert out.stdout.strip() == "[]"
