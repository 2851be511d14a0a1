"""Tests for the exact, long-time, and Markovian excitation solutions."""

import cmath
import math
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from mirrorqed import (
    NoLongtimeSolution,
    SystemParams,
    Xi0Diverges,
    derived_constants,
    dressed_params,
    dyson_coefficient_closed,
    dyson_coefficient_iterative,
    excitation_amplitude_exact,
    excitation_curve,
    excitation_probability_exact,
    excitation_probability_longtime,
    excitation_probability_markovian,
    pp_eval,
    round_trip_series,
    solve_longtime,
    solve_xi,
)
from mirrorqed.analytic import _MAX_ORDER, _lambert_w, _round_trip_sum


def params_for(tau, phase, r_m):
    return SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)


def params_with_feedback(a, tau):
    """Params at omega_e = 0 whose feedback constant is a, up to rounding."""
    return SystemParams(omega_e=0.0, tau=tau, r_m=-2.0 * a * math.exp(-tau / 2.0))


def series_at(u, a, tau):
    """The round-trip series at a bare feedback constant a != 0 and delay tau > 0."""
    return _round_trip_sum(u, a, tau, 0j)


def residue_at(u, a, tau):
    """The all-orders series exp(W_0 u / tau) / (1 + W_0), W_0 = W_0(a tau)."""
    w0 = _lambert_w(a * tau, 0)
    return cmath.exp(w0 * u / tau) / (1.0 + w0)


def brute_force_series(u, a, tau):
    """Literal term-by-term sum of a^k/k! (u - k tau)^k over k <= u/tau."""
    if u < 0:
        return 0j
    total = 0j
    k = 0
    while k * tau <= u:
        total += a**k / math.factorial(k) * (u - k * tau) ** k
        k += 1
    return total


# ---------------------------------------------------------------------------
# Round-trip series
# ---------------------------------------------------------------------------


def test_series_no_feedback_is_one():
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=0)
    u = np.linspace(0.0, 10.0, 11)
    assert np.all(_round_trip_sum(u, derived_constants(params).a, params.tau, 0j) == 1.0)
    free = np.exp(-1j * derived_constants(params).omega_complex * u)
    assert np.max(np.abs(round_trip_series(params, u) - free)) < 1e-15


def test_series_negative_argument_is_zero():
    params = params_for(1.0, 0.3, -0.5)
    assert round_trip_series(params, -0.5) == 0.0
    assert _round_trip_sum(-0.5, derived_constants(params).a, params.tau, 0j) == 0.0


@pytest.mark.parametrize(
    "tau, r_m, u",
    [(1.0, -1.0, math.inf), (1.0, -1.0, math.nan), (1.0, 0.0, math.inf),
     (0.0, -0.5, [0.0, math.nan])],
)
def test_series_rejects_non_finite_argument(tau, r_m, u):
    # at the trapping point inf and nan used to give 0j, and without a
    # mirror inf reached the residue sum with no residues (AttributeError)
    params = SystemParams(omega_e=2 * math.pi, tau=tau, r_m=r_m)
    with pytest.raises(ValueError, match="times must be finite"):
        round_trip_series(params, u)


def test_series_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(40):
        tau = rng.uniform(0.2, 2.0)
        a = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        u = rng.uniform(0.0, 8.0)
        got = series_at(u, a, tau)
        expected = brute_force_series(u, a, tau)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_series_continuous_at_lattice_points():
    a, tau = -0.8 + 0.2j, 0.5
    for k in (1, 2, 5):
        below = series_at(k * tau - 1e-10, a, tau)
        above = series_at(k * tau + 1e-10, a, tau)
        assert abs(above - below) < 1e-8


def test_series_full_matches_truncated_before_first_round_trip():
    # the all-orders sum at u = 0 is the prefactor xi0 = sum_k (-k)^k (a tau)^k / k!
    params = params_with_feedback(-0.1, 1.0)
    a = derived_constants(params).a
    explicit = sum((-k) ** k * a**k / math.factorial(k) for k in range(40))
    assert abs(solve_longtime(params).xi0 - explicit) < 1e-14


def test_series_full_divergence_detected():
    with pytest.raises(Xi0Diverges):
        solve_longtime(params_with_feedback(0.5 * math.exp(0.5), 1.0))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_series_full_at_the_convergence_boundary(sign):
    # e |a| tau = 0.9999 converges (the sum is 1 / (1 + W_0)), 1.0001 does not
    params = params_with_feedback(sign * 0.9999 / math.e, 1.0)
    a = derived_constants(params).a
    assert a.imag == 0
    expected = complex(1 / (1 + mp.lambertw(mp.mpf(a.real))))
    # near a tau = -1/e, 1 + W_0 ~ sqrt(2 (1 + e a)) amplifies the rounding of
    # 1 + e a about 1e4 times
    assert abs(solve_longtime(params).xi0 - expected) <= 1e-12 * abs(expected)
    # off the real axis, so that W_0 dominates also for a < -1/e
    with pytest.raises(Xi0Diverges):
        solve_longtime(params_with_feedback(sign * 1.0001 / math.e * cmath.exp(1e-3j), 1.0))


# ---------------------------------------------------------------------------
# Dyson coefficients
# ---------------------------------------------------------------------------


def test_dyson_order_zero_is_unity():
    params = params_for(1.0, math.pi, -1)
    for t in (0.0, 0.3, 5.0):
        assert dyson_coefficient_closed(params, 0, t) == 1.0


def test_dyson_closed_form_at_a_non_finite_time():
    # c_4(nan) used to be refused as an overflow, and c_0(nan) was 1; an
    # infinite t keeps c_0 = 1 and overflows every higher order
    params = params_for(1.0, math.pi, -1)
    for n in (0, 4):
        with pytest.raises(ValueError, match="t must not be nan"):
            dyson_coefficient_closed(params, n, math.nan)
    assert dyson_coefficient_closed(params, 0, math.inf) == 1.0
    for n in (2, 4):
        with pytest.raises(OverflowError, match="beyond the double range"):
            dyson_coefficient_closed(params, n, math.inf)


def test_dyson_iterative_at_a_non_finite_time():
    # the table's Horner pass gave nan + nan j at nan and +-inf (a RuntimeWarning
    # at inf); below 0 it extends segment 0, where the closed form is 0
    params = params_for(1.0, 1.0, -0.5)
    for n in (0, 2, 4):
        c_n = dyson_coefficient_iterative(params, n)
        for t in (math.nan, math.inf, -math.inf, [0.5, math.nan], [math.inf, 0.5]):
            with pytest.raises(ValueError, match="t must be finite"):
                c_n(t)
    assert dyson_coefficient_iterative(params, 0)(-1.0) == 1.0
    assert dyson_coefficient_closed(params, 0, -1.0) == 0.0


def test_dyson_rejects_odd_order():
    params = params_for(1.0, math.pi, -1)
    with pytest.raises(ValueError):
        dyson_coefficient_closed(params, 3, 1.0)
    with pytest.raises(ValueError):
        dyson_coefficient_iterative(params, 5)


def test_dyson_single_loop_hand_value():
    # Gamma=1, tau=1, r_m=-1, phase=pi, t=2: rho = +1 so c_2 = -(1/2)(2 + 1) = -1.5
    params = params_for(1.0, math.pi, -1)
    assert dyson_coefficient_closed(params, 2, 2.0) == pytest.approx(-1.5, abs=1e-12)


def test_dyson_two_loops_before_first_round_trip():
    # only the zero-delay term: c_4(t < tau) = (Gamma/2)^2 t^2 / 2
    params = params_for(1.0, math.pi, -1)
    t = 0.6
    assert dyson_coefficient_closed(params, 4, t) == pytest.approx(t**2 / 8, abs=1e-12)


def test_dyson_three_loops_binomial_weights():
    # the four delay terms of c_6 carry weights (1, 3, 3, 1)
    params = params_for(0.4, 1.1, -0.6)
    rho = params.r_m * cmath.exp(1j * params.round_trip_phase)
    t = 1.7
    expected = 0j
    for k, weight in enumerate((1, 3, 3, 1)):
        dt = t - k * params.tau
        if dt >= 0:
            expected += weight * rho**k * dt**3
    expected *= -((0.5) ** 3) / 6
    assert dyson_coefficient_closed(params, 6, t) == pytest.approx(expected, abs=1e-12)


def test_dyson_iterative_single_loop_structure():
    # c_2(t) = -(Gamma/2) [ t + rho (t - tau) Theta(t - tau) ]
    params = params_for(1.0, math.pi, -1)
    pp = dyson_coefficient_iterative(params, 2)
    assert pp.breakpoints == (0.0, 1.0)
    for t in (0.4, 1.0, 2.7):
        rho = 1.0  # r_m e^{i pi} = +1
        expected = -0.5 * (t + rho * max(t - 1.0, 0.0))
        assert pp(t) == pytest.approx(expected, abs=1e-12)


def test_dyson_iterative_matches_closed_form():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        tau = rng.uniform(0.1, 1.5)
        phase = rng.uniform(0.0, 2 * math.pi)
        r_m = rng.uniform(0.0, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        params = SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)
        for n in range(0, 14, 2):
            pp = dyson_coefficient_iterative(params, n)
            for t in rng.uniform(0.1 * tau, 5 * tau, size=4):
                closed = dyson_coefficient_closed(params, n, t)
                err = abs(pp(t) - closed) / max(1e-12, abs(closed))
                assert err < 1e-10


def test_dyson_iterative_collapsed_lattice():
    # tau = 0: every loop contributes instantly, c_2m = (-(Gamma/2)(1 + rho) t)^m / m!
    params = SystemParams(omega_e=2.0, tau=0.0, r_m=-0.5)
    pp = dyson_coefficient_iterative(params, 4)
    t = 1.3
    expected = (-0.5 * (1 - 0.5) * t) ** 2 / 2
    assert pp(t) == pytest.approx(expected, abs=1e-12)


def test_dyson_infinite_delay_has_no_feedback():
    # no loop ever returns: c_2m = (-Gamma/2)^m t^m / m!, with no r_m e^{i omega_e tau}
    params = SystemParams(omega_e=1.0, tau=math.inf, r_m=-0.5)
    t = 1.3
    expected = (-0.5 * t) ** 2 / 2
    assert dyson_coefficient_closed(params, 4, t) == pytest.approx(expected, rel=1e-15)
    pp = dyson_coefficient_iterative(params, 4)
    assert pp.breakpoints == (0.0,)
    assert pp(t) == pytest.approx(expected, rel=1e-15)


def mp_dyson(params, n, t):
    """c_n(t) of the closed form in mpmath at the params' double inputs, and the
    sum of its terms' magnitudes, which scales the rounding of any double sum."""
    m = n // 2
    tau, t = mp.mpf(params.tau), mp.mpf(t)
    rho = mp.mpc(params.r_m) * mp.expj(mp.mpf(params.omega_e) * tau)
    terms = [mp.binomial(m, k) * rho**k * (t - k * tau) ** m
             for k in range(m + 1) if t - k * tau >= 0]
    prefactor = (-mp.mpf(params.gamma) / 2) ** m / mp.factorial(m)
    return prefactor * mp.fsum(terms), abs(prefactor) * mp.fsum(abs(v) for v in terms)


# the sweep holds 0.1 and 0.03, where the recursion once failed by n = 20 and 40
@pytest.mark.parametrize("tau", [0.01 * j for j in range(1, 21)] + [1e-300])
def test_dyson_iterative_at_high_order_on_any_lattice(tau):
    # k tau is not an exact double for most tau; the lattice table never adds
    # breakpoints, so none can drift apart at n = 40
    params = params_for(tau, 1.0, -1.0)
    times = np.linspace(0.1, 2.0, 8)
    pp = dyson_coefficient_iterative(params, 40)
    assert pp.breakpoints == tuple(k * tau for k in range(21))
    for t, value in zip(times, pp(times)):
        ref, scale = mp_dyson(params, 40, t)
        assert abs(value - complex(ref)) <= 1e-12 * scale
        assert abs(dyson_coefficient_closed(params, 40, t) - complex(ref)) <= 1e-12 * scale


@pytest.mark.parametrize("tau", [1e300, 1e308])
def test_dyson_at_delays_near_the_double_range_is_right_or_loud(tau):
    # c_40 past the first round trip is ~1e6000: both forms refuse it by name
    # instead of returning nan, and keep the free value before the mirror acts
    params = SystemParams(omega_e=1.0, tau=tau, r_m=-0.7)
    with pytest.raises(OverflowError, match="beyond the double range"):
        dyson_coefficient_iterative(params, 40)
    with pytest.raises(OverflowError, match="beyond the double range"):
        dyson_coefficient_closed(params, 40, 2e300)
    for t in (1.0, 1.5):
        ref, scale = mp_dyson(params, 40, t)
        assert abs(dyson_coefficient_closed(params, 40, t) - complex(ref)) <= 1e-14 * scale
    # c_400(1) = 2^-200 / 200! ~ 8e-436 lies below the double range; from
    # n = 2150 on, where 2^-(n/2) rounds to 0, c_n(1) returned 0j instead
    for n in (400, 2150, 4000):
        with pytest.raises(OverflowError, match="beyond the double range"):
            dyson_coefficient_closed(params, n, 1.0)
    # one loop stays in range on both sides of the first return
    pp = dyson_coefficient_iterative(params, 2)
    for t in (1.0, 1.2 * tau):
        ref, scale = mp_dyson(params, 2, t)
        assert abs(pp(t) - complex(ref)) <= 1e-14 * scale
        assert abs(dyson_coefficient_closed(params, 2, t) - complex(ref)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [340, 400])
def test_dyson_closed_form_where_its_factors_leave_the_double_range(n):
    # 100^170 and 200! are beyond the double range, c_340(100) ~ 9.2e-19 and
    # c_400(100) ~ 7.9e-36 are not; each term is a mantissa and a power of two
    params = SystemParams(omega_e=1.0, tau=1000.0, r_m=-0.7)
    ref, scale = mp_dyson(params, n, 100.0)
    value = dyson_coefficient_closed(params, n, 100.0)
    assert abs(value - complex(ref)) <= 1e-13 * scale
    assert float(abs(ref)) == pytest.approx({340: 9.207012702e-19, 400: 7.890639953e-36}[n])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(tau=st.floats(math.log(1e-2), math.log(2.0)).map(math.exp),
       radius=st.floats(0.0, 1.0), angle=st.floats(0.0, 2 * math.pi),
       phase=st.floats(0.0, 2 * math.pi), m=st.integers(0, 20),
       times=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), min_size=1, max_size=4))
def test_dyson_forms_match_mpmath_with_a_complex_mirror(tau, radius, angle, phase, m, times):
    # complex r_m up to n = 40; the fixed grids reach n = 40 only at r_m = -1
    params = params_for(tau, phase, radius * cmath.exp(1j * angle))
    values = dyson_coefficient_iterative(params, 2 * m)(np.array(times))
    for t, value in zip(times, values):
        ref, scale = mp_dyson(params, 2 * m, t)
        assert abs(value - complex(ref)) <= 1e-12 * scale
        assert abs(dyson_coefficient_closed(params, 2 * m, t) - complex(ref)) <= 1e-12 * scale


@pytest.mark.parametrize("n, tau, t, r_m", [
    (5120, 1e4, 1536.0, -0.7), (5160, 1e4, 1536.0, -0.7), (5180, 1e4, 1536.0, -0.7),
    (2200, 3.0, 820.0, 0.5),  # 274 terms, each f_k^1100 carried with its exponent
])
def test_dyson_closed_form_past_the_normal_powers(n, tau, t, r_m):
    # f**m of a mantissa f in [0.5, 1) left the normal doubles past m = 1022 and
    # kept a few bits: c_5120, c_5160 and c_5180 at t 1536 were 1.8e-4, 1.1e-2
    # and 0.61 off, though each is a normal double
    params = SystemParams(omega_e=1.3, tau=tau, r_m=r_m)
    with mp.workdps(30):
        ref, scale = mp_dyson(params, n, t)
    assert abs(dyson_coefficient_closed(params, n, t) - complex(ref)) <= 1e-13 * scale


def test_dyson_closed_form_refuses_a_subnormal_value():
    # c_2998(674.74) ~ -1.33e-322 came back as -1.334e-322, 27 steps of the
    # smallest subnormal, with the few bits a subnormal keeps; c_2998(688) ~
    # -6.2e-310 is subnormal too, and c_2998(692) ~ -3.7e-306 is normal
    params = SystemParams(omega_e=1.0, tau=15.43, r_m=0.5 + 0.3j)
    for t in (674.74, 688.0):
        with mp.workdps(30):
            assert 0 < abs(mp_dyson(params, 2998, t)[0]) < np.finfo(float).tiny
        with pytest.raises(OverflowError, match="beyond the double range"):
            dyson_coefficient_closed(params, 2998, t)
    with mp.workdps(30):
        ref, scale = mp_dyson(params, 2998, 692.0)
    assert abs(dyson_coefficient_closed(params, 2998, 692.0) - complex(ref)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [4.0, "4", None, 4.5, 1j])
def test_dyson_refuses_an_order_that_is_not_an_integer(n):
    # 4.0 was taken as m = 2.0, and both forms then failed with a TypeError
    params = params_for(0.5, 1.0, -0.5)
    with pytest.raises(ValueError, match="n must be an even non-negative integer"):
        dyson_coefficient_closed(params, n, 1.0)
    with pytest.raises(ValueError, match="n must be an even non-negative integer"):
        dyson_coefficient_iterative(params, n)


def test_dyson_takes_a_numpy_integer_order():
    # the closed form raised a TypeError from math.ldexp at np.int64(4)
    params = params_for(0.5, 1.0, -0.5)
    times = np.array([0.3, 0.7, 1.9])
    assert dyson_coefficient_closed(params, np.int64(4), 1.9) == dyson_coefficient_closed(params, 4, 1.9)
    c_4 = dyson_coefficient_iterative(params, np.int64(4))
    assert c_4 == dyson_coefficient_iterative(params, 4)
    assert c_4(times).tobytes() == dyson_coefficient_iterative(params, 4)(times).tobytes()


@pytest.mark.parametrize("n", [_MAX_ORDER + 2, 2000, 10**6])
def test_dyson_iterative_refuses_an_order_past_the_cap_before_it_allocates(n):
    # n = 10**6 asked numpy for 3.64 TiB; n = 320 gave c_320(400) = 0 at
    # tau = inf, where the closed form gives 3.1e83
    params = params_for(0.05, 1.0, -0.7)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n must be at most {_MAX_ORDER} for the iterative"):
            dyson_coefficient_iterative(params, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_dyson_iterative_at_the_cap():
    # the last order whose row 0, (Gamma/2)^150 / 150!, is a normal double;
    # the build takes ~30 ms and peaks at ~1.9 MB on x86-64
    params = params_for(0.05, 1.0, -0.7)
    start = time.perf_counter()
    dyson_coefficient_iterative(params, _MAX_ORDER)
    assert time.perf_counter() - start < 2.0
    tracemalloc.start()
    try:
        c_n = dyson_coefficient_iterative(params, _MAX_ORDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert len(c_n.segments) == _MAX_ORDER // 2 + 1
    for t in (2.0, 7.5):
        ref, scale = mp_dyson(params, _MAX_ORDER, t)
        assert abs(c_n(t) - complex(ref)) <= 1e-12 * scale
    # with no mirror c_300(t) = (-t/2)^150 / 150!: 2.5e82 at t = 400
    free = dyson_coefficient_iterative(SystemParams(omega_e=1.0, tau=math.inf, r_m=-0.7), _MAX_ORDER)
    for t in (3.0, 400.0):
        ref = (-mp.mpf(t) / 2) ** (_MAX_ORDER // 2) / mp.factorial(_MAX_ORDER // 2)
        assert free(t) == pytest.approx(complex(ref), rel=1e-12)


# ---------------------------------------------------------------------------
# Exact excitation amplitude / probability
# ---------------------------------------------------------------------------


def test_amplitude_no_mirror_free_decay():
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=0)
    amp = excitation_amplitude_exact(params, 1.0)
    assert abs(amp) ** 2 == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_amplitude_no_mirror_where_u_over_tau_overflows():
    # without a mirror there is no residue plan, so every point takes the
    # causal sum, also where u / tau overflows to inf; that point read the
    # missing plan and raised AttributeError
    params = SystemParams(omega_e=1.0, tau=1e-300, r_m=0)
    assert excitation_probability_exact(params, [1.0, 1e10]).tolist() == [math.exp(-1.0), 0.0]
    assert excitation_probability_exact(params, 1e10) == 0.0


def test_probability_free_before_round_trip():
    for r_m in (0, -0.5, -1):
        params = params_for(1.0, math.pi, r_m)
        for t in (0.0, 0.25, 0.999):
            assert excitation_probability_exact(params, t) == pytest.approx(
                math.exp(-t), abs=1e-14
            )


def test_probability_hand_value_after_one_round_trip():
    # tau=1, r_m=-1, phase=pi, t=1.5: P = e^{-1.5} |1 + a/2|^2 with a = -e^{1/2}/2
    params = params_for(1.0, math.pi, -1)
    expected = math.exp(-1.5) * abs(1 - 0.5 * math.exp(0.5) * 0.5) ** 2
    got = excitation_probability_exact(params, 1.5)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.0771, abs=5e-5)


def test_probability_trapping_plateau():
    # perfect mirror at a field node keeps a finite excitation forever;
    # the asymptotic plateau is |1/(1 + xi tau)|^2 = 4/9 for xi = 1/2
    params = params_for(1.0, 2 * math.pi, -1)
    plateau = excitation_probability_exact(params, 60.0)
    assert plateau == pytest.approx(4.0 / 9.0, abs=1e-3)
    assert excitation_probability_exact(params, 50.0) > 0.4


def test_probability_leaky_mirror_decays():
    params = params_for(1.0, 2 * math.pi, -0.5)
    assert excitation_probability_exact(params, 50.0) < 1e-3


def test_probability_far_mirror_is_free_space():
    params = params_for(1e6, math.pi, -1)
    t = np.linspace(0.0, 10.0, 101)
    assert np.max(np.abs(excitation_probability_exact(params, t) - np.exp(-t))) < 1e-14


def test_amplitude_rejects_negative_time():
    params = params_for(1.0, math.pi, -1)
    with pytest.raises(ValueError):
        excitation_amplitude_exact(params, -0.1)


@pytest.mark.parametrize(
    "tau, r_m, t",
    [(1.0, -1.0, math.nan), (1.0, -1.0, math.inf), (1.0, 0.0, math.inf),
     (1.0, -1.0, [1.0, math.nan]), (0.0, -0.5, math.inf)],
)
def test_amplitude_rejects_non_finite_time(tau, r_m, t):
    # t = inf is no time: at the trapping point (phase 2 pi, r_m -1) the
    # 4/9 plateau is the limit t -> inf, which the series cannot take
    params = SystemParams(omega_e=2 * math.pi, tau=tau, r_m=r_m)
    with pytest.raises(ValueError, match="times must be finite"):
        excitation_probability_exact(params, t)


@pytest.mark.parametrize(
    "curve",
    [excitation_probability_exact, excitation_probability_longtime,
     excitation_probability_markovian],
)
@pytest.mark.parametrize(
    "params, t, message",
    [
        (params_for(0.05, 3.3, -1), [-1.0, math.nan], "t must be non-negative"),
        (params_for(0.05, 3.3, -1), -math.inf, "t must be non-negative"),
        (params_for(0.05, 3.3, -1), [1.0, math.nan], "times must be finite"),
        (SystemParams(omega_e=1.0, tau=1.0, r_m=-0.5), -1.0, "t must be non-negative"),
        (SystemParams(omega_e=0.0, tau=0.0, r_m=-0.5), math.inf, "times must be finite"),
        # the trapping point (Gamma_eff = 0): the time rule comes before Xi0Diverges
        (params_for(1.0, 2 * math.pi, -1), math.inf, "times must be finite"),
    ],
    ids=["negative-then-nan", "minus-inf", "nan", "markovian-negative", "inf-without-delay",
         "inf-at-trapping"],
)
def test_the_three_curves_share_one_time_rule(curve, params, t, message):
    with pytest.raises(ValueError, match=message):
        curve(params, t)


def test_amplitude_collapsed_lattice_matches_markovian():
    params = SystemParams(omega_e=3.0, tau=0.0, r_m=-0.7)
    t = np.linspace(0.0, 4.0, 41)
    probs = excitation_probability_exact(params, t)
    assert np.max(np.abs(probs - excitation_probability_markovian(params, t))) < 1e-14


def test_amplitude_collapsed_lattice_past_the_exponent_range():
    # tau = 0, r_m = -1: a = Gamma/2 cancels the free decay, so |amplitude| = 1
    # long after exp(a t) alone would overflow (t > ~1419.6)
    params = SystemParams(omega_e=1.0, tau=0.0, r_m=-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = excitation_probability_exact(params, [1419.0, 1421.0, 1500.0])
    assert np.allclose(probs, 1.0, rtol=0, atol=1e-15)


def test_excitation_curve_fields():
    params = params_for(1.0, math.pi, -1)
    curve = excitation_curve(params, np.linspace(0, 5, 21))
    assert curve.probabilities[0] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(curve.probabilities, np.abs(curve.amplitudes) ** 2)


def test_partial_dyson_sums_reproduce_amplitude():
    # sum of even orders n <= 40 against the closed amplitude; the e^{-i omega_e t}
    # prefactor carries the free phase of every order
    for r_m in (-1, -0.5, 0):
        params = params_for(1.0, math.pi, r_m)
        for t in np.linspace(0.1, 5.0, 12):
            partial = sum(
                dyson_coefficient_closed(params, n, t) for n in range(0, 41, 2)
            )
            partial *= cmath.exp(-1j * params.omega_e * t)
            exact = excitation_amplitude_exact(params, t)
            assert abs(partial - exact) < 1e-8


def test_monotone_probability_envelope():
    # 10^4 random parameter points stay inside [0, 1] for real |r_m| <= 1
    rng = np.random.default_rng(99)
    for _ in range(100):
        tau = rng.uniform(0.02, 5.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        r_m = rng.uniform(-1.0, 1.0)
        params = SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)
        t = rng.uniform(0.0, 10.0, size=100)
        probs = excitation_probability_exact(params, t)
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Long-time solution
# ---------------------------------------------------------------------------


def test_solve_xi_matches_lambertw_branch():
    # xi tau = W_0(a tau), the pole with the largest real part, over the whole
    # sampled range; Xi0Diverges exactly outside the series radius e |a| tau < 1
    rng = np.random.default_rng(5)
    for _ in range(50):
        tau = rng.uniform(0.05, 2.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        r_m = rng.uniform(0.0, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        params = SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)
        a = derived_constants(params).a
        z = a * tau
        if math.e * z.real <= -1 and abs(z.imag) <= 16 * np.finfo(float).eps * abs(z):
            continue  # real axis at or below -1/e: no single pole dominates
        xi = solve_xi(params)
        expected = complex(lambertw(z, 0)) / tau
        assert abs(xi - expected) <= 1e-12 * max(1.0, abs(expected))
        for k in (1, -1, 2, -2):
            assert xi.real >= complex(lambertw(z, k)).real / tau
        if math.e * abs(z) < 1:
            assert solve_longtime(params).xi == xi
        else:
            with pytest.raises(Xi0Diverges):
                solve_longtime(params)


@pytest.mark.parametrize(
    "tau, phase, r_m, expected",
    [
        # Newton started at xi = a converges to the subdominant pole -0.575+4.25j
        (2.0, 0.785, 1.0, 0.325 - 0.631j),
        # Newton started at xi = a stalls
        (2.0, 1.309, -1.0, 0.446 + 0.334j),
    ],
)
def test_solve_xi_takes_the_dominant_pole_past_the_series_radius(tau, phase, r_m, expected):
    params = params_for(tau, phase, r_m)
    a = derived_constants(params).a
    assert math.e * abs(a) * tau >= 1
    w0 = complex(lambertw(a * tau, 0))
    xi = solve_xi(params)
    assert abs(xi - w0 / tau) <= 1e-12 * abs(xi)
    assert abs(xi - expected) < 1e-3
    with pytest.raises(Xi0Diverges):
        solve_longtime(params)


def test_solve_xi_residual():
    params = params_for(0.7, 1.3, -0.8)
    xi = solve_xi(params)
    a = derived_constants(params).a
    assert abs(xi * cmath.exp(xi * params.tau) - a) <= 1e-12 * max(1.0, abs(a))


def test_solve_xi_no_solution_past_branch_point():
    # real a < -1/(e tau): W_0 and W_{-1} are complex conjugates, so two poles
    # share the slowest decay and no single exponential dominates
    params = params_for(4.0, math.pi, -1)  # a = -e^2/2 = -3.69, -1/(e tau) = -0.092
    with pytest.raises(NoLongtimeSolution):
        solve_xi(params)
    with pytest.raises(NoLongtimeSolution):
        solve_longtime(params)


@pytest.mark.parametrize("offset", [1e-9, -1e-9])
def test_solve_xi_just_off_the_real_axis(offset):
    # 1e-9 off the axis one pole dominates, by a real-part gap of order 1e-9
    params = params_for(4.0, math.pi + offset, -1)
    a = derived_constants(params).a
    xi = solve_xi(params)
    assert abs(xi - complex(lambertw(a * 4.0, 0)) / 4.0) <= 1e-12 * abs(xi)
    assert math.copysign(1.0, xi.imag) == math.copysign(1.0, -offset)
    with pytest.raises(Xi0Diverges):
        solve_longtime(params)


@pytest.mark.parametrize("tau", [1416.0, math.inf])
def test_longtime_beyond_the_double_range(tau):
    # a tau overflows: a itself is finite at tau 1416 (Gamma tau / 2 = 708)
    params = SystemParams(omega_e=1.0, tau=tau, r_m=-1)
    with pytest.raises(NoLongtimeSolution):
        solve_longtime(params)
    with pytest.raises(NoLongtimeSolution):
        solve_xi(params)


def test_longtime_without_feedback_at_infinite_delay():
    consts = solve_longtime(SystemParams(omega_e=1.0, tau=math.inf, r_m=0))
    assert consts.xi == 0 and consts.xi0 == 1


@pytest.mark.parametrize(
    "params, refusal",
    [
        (SystemParams(omega_e=1.0, tau=0.0, r_m=-0.5), None),
        (SystemParams(omega_e=1.0, tau=1e-310, r_m=-0.5), None),  # below _NO_DELAY
        (SystemParams(omega_e=1.0, tau=math.inf, r_m=0), None),
        (SystemParams(omega_e=1.0, tau=math.inf, r_m=-1), NoLongtimeSolution),
        # real a tau < -1/e, also far outside the series radius: the pole wins
        (params_for(4.0, math.pi, -1), NoLongtimeSolution),
        (params_for(1.0, 2 * math.pi, -1), Xi0Diverges),  # the trapping point
        (params_for(0.05, math.pi, -1), None),  # inside the series radius
    ],
    ids=["tau-0", "tau-subnormal", "tau-inf-no-mirror", "tau-inf-mirror", "real-past-branch",
         "trapping", "inside-radius"],
)
def test_solve_xi_and_solve_longtime_share_one_pole(params, refusal):
    if refusal is NoLongtimeSolution:
        for solve in (solve_xi, solve_longtime):
            with pytest.raises(NoLongtimeSolution):
                solve(params)
        return
    xi = solve_xi(params)
    if refusal is Xi0Diverges:
        with pytest.raises(Xi0Diverges):
            solve_longtime(params)
    else:
        assert solve_longtime(params).xi == xi


def test_solve_longtime_small_delay():
    params = params_for(0.01, math.pi, -1)
    consts = solve_longtime(params)
    # exact values sit O(a tau) away from the tau -> 0 limits (-1/2 and 1)
    assert consts.xi.real == pytest.approx(-0.50505059, abs=1e-6)
    assert consts.xi0.real == pytest.approx(1.00507614, abs=1e-6)
    assert abs(consts.xi.imag) < 1e-9
    gamma_eff = params.gamma - 2 * consts.xi.real
    assert gamma_eff == pytest.approx(2.0, abs=2e-2)


def test_solve_longtime_trapping_point():
    # a = (1/2) e^{1/2} makes xi = 1/2 exact; the prefactor series diverges
    params = params_for(1.0, 2 * math.pi, -1)
    assert solve_xi(params) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(Xi0Diverges):
        solve_longtime(params)


def test_solve_longtime_collapsed_lattice():
    params = SystemParams(omega_e=1.0, tau=0.0, r_m=-0.5)
    consts = solve_longtime(params)
    assert consts.xi == derived_constants(params).a
    assert consts.xi0 == 1.0


def test_xi0_equals_resolvent_identity():
    # independent oracle: the prefactor series sums to 1/(1 + xi tau)
    rng = np.random.default_rng(17)
    for _ in range(30):
        tau = rng.uniform(0.05, 1.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        r_m = rng.uniform(0.0, 0.6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        params = SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)
        a = derived_constants(params).a
        if math.e * abs(a * tau) > 0.9:  # keep safely inside convergence
            continue
        consts = solve_longtime(params)
        assert consts.xi0 == pytest.approx(1.0 / (1.0 + consts.xi * tau), abs=1e-10)


def test_longtime_probability_free_space():
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=0)
    assert excitation_probability_longtime(params, 2.0) == pytest.approx(
        math.exp(-2.0), rel=1e-12
    )


def test_longtime_probability_effective_rate():
    params = params_for(0.01, math.pi, -1)
    # doubled decay up to O(tau) corrections
    assert excitation_probability_longtime(params, 1.0) == pytest.approx(
        math.exp(-2.0), rel=0.05
    )


def test_longtime_matches_exact_at_late_times():
    params = params_for(0.05, math.pi, -1)
    t = np.linspace(20 * params.tau, 3.0, 40)
    exact = excitation_probability_exact(params, t)
    approx = excitation_probability_longtime(params, t)
    assert np.max(np.abs(approx / exact - 1.0)) < 0.01


def test_longtime_propagates_divergence():
    params = params_for(1.0, 2 * math.pi, -1)
    with pytest.raises(Xi0Diverges):
        excitation_probability_longtime(params, 5.0)


# ---------------------------------------------------------------------------
# Delay-equation property of the untruncated series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [-0.25, 0.2, 0.15 + 0.2j, -0.05 - 0.28j])
def test_untruncated_series_solves_delay_equation(a):
    # f'(t) = a f(t - tau) checked by central differences for |a| tau <= 0.3
    tau = 1.0
    h = 1e-5
    for t in np.linspace(2 * tau, 10 * tau, 17):
        deriv = (residue_at(t + h, a, tau) - residue_at(t - h, a, tau)) / (2 * h)
        rhs = a * residue_at(t - tau, a, tau)
        assert abs(deriv - rhs) <= 1e-6 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Markovian limit and dressed parameters
# ---------------------------------------------------------------------------


def test_markovian_enhancement_and_suppression():
    doubling = params_for(0.01, math.pi, -1)  # r_m cos = +1
    assert excitation_probability_markovian(doubling, 1.5) == pytest.approx(
        math.exp(-3.0), rel=1e-12
    )
    suppressed = params_for(0.01, 2 * math.pi, -1)  # r_m cos = -1
    t = np.linspace(0, 20, 11)
    assert np.all(excitation_probability_markovian(suppressed, t) == 1.0)
    free = SystemParams(omega_e=1.0, tau=1.0, r_m=0)
    assert excitation_probability_markovian(free, 2.0) == pytest.approx(
        math.exp(-2.0), rel=1e-12
    )


def test_markovian_limit_of_exact_solution():
    # tau -> 0 at fixed round-trip phase: exact -> Markovian
    for phase in (math.pi, 2 * math.pi, 1.0):
        params = params_for(1e-3, phase, -1)
        t = np.linspace(0.0, 5.0, 251)
        exact = excitation_probability_exact(params, t)
        markov = excitation_probability_markovian(params, t)
        assert np.max(np.abs(exact - markov)) < 1e-2


def test_dressed_free_space():
    dressed = dressed_params(SystemParams(omega_e=1.0, tau=1.0, r_m=0))
    assert dressed.delta_eff == 0.0
    assert dressed.gamma_eff == 1.0


def test_dressed_node_suppression():
    dressed = dressed_params(params_for(1.0, 4 * math.pi, -1))
    assert dressed.gamma_eff == pytest.approx(0.0, abs=1e-12)


def test_dressed_sweep_bounds():
    phases = np.linspace(0.0, 4 * math.pi, 201)
    deltas = []
    gammas = []
    for phase in phases:
        dressed = dressed_params(params_for(1.0, phase, -1))
        deltas.append(dressed.delta_eff)
        gammas.append(dressed.gamma_eff)
    deltas, gammas = np.array(deltas), np.array(gammas)
    assert deltas.max() == pytest.approx(0.5, abs=1e-3)
    assert deltas.min() == pytest.approx(-0.5, abs=1e-3)
    assert gammas.max() == pytest.approx(2.0, abs=1e-3)
    assert gammas.min() == pytest.approx(0.0, abs=1e-3)
    assert np.all(np.abs(deltas) <= 0.5 + 1e-12)
    assert np.all((gammas >= -1e-12) & (gammas <= 2.0 + 1e-12))
