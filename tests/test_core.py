"""Tests for parameters, mirror scattering, piecewise-polynomial algebra and
the public surface."""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mirrorqed
from mirrorqed import (
    PiecewisePolynomial,
    SystemParams,
    derived_constants,
    mirror_coefficients,
    pp_add,
    pp_eval,
    pp_integrate,
    pp_scale,
    pp_shift,
    pp_snap,
)


# ---------------------------------------------------------------------------
# mirror_coefficients
# ---------------------------------------------------------------------------


def test_mirror_transparent_limit():
    t_m, r_m = mirror_coefficients(0.0)
    assert t_m == 1.0
    assert r_m == 0.0


def test_mirror_perfect_limit():
    t_m, r_m = mirror_coefficients(2.0)
    assert t_m == 0.0
    assert r_m == -1j


def test_mirror_intermediate_value():
    # direct evaluation at J/c = 1: t = 0.75/1.25, r = -i/1.25
    t_m, r_m = mirror_coefficients(1.0)
    assert t_m == pytest.approx(0.6, abs=1e-15)
    assert r_m == pytest.approx(-0.8j, abs=1e-15)
    assert t_m**2 + abs(r_m) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_mirror_rejects_negative_rate():
    with pytest.raises(ValueError):
        mirror_coefficients(-0.1)


def test_mirror_rejects_nan():
    with pytest.raises(ValueError, match="nan"):
        mirror_coefficients(math.nan)


def test_mirror_beyond_the_square_of_the_double_range():
    # (J/2c)^2 overflows above J/c ~ 2.7e154; the coefficients go on to the
    # perfect mirror of J = inf, which transmits with -1 and reflects nothing
    for j in (1e155, 1e300, np.finfo(float).max):
        t_m, r_m = mirror_coefficients(j)
        assert t_m == -1.0
        assert r_m == pytest.approx(-4j / j, rel=1e-15)
    t_m, r_m = mirror_coefficients(math.inf)
    assert (t_m, r_m) == (-1.0, 0.0)


@settings(max_examples=200)
@given(st.floats(min_value=0.0, allow_nan=False))
def test_mirror_unitarity(j_over_c):
    t_m, r_m = mirror_coefficients(j_over_c)
    assert math.isfinite(t_m) and math.isfinite(r_m.imag)
    assert abs(t_m**2 + abs(r_m) ** 2 - 1.0) < 1e-12
    assert r_m.real == 0.0 and r_m.imag <= 0.0


def test_mirror_unitarity_bulk():
    rng = np.random.default_rng(1234)
    for j in rng.uniform(0.0, 10.0, size=1000):
        t_m, r_m = mirror_coefficients(j)
        assert abs(t_m**2 + abs(r_m) ** 2 - 1.0) < 1e-12
        # reflection is purely imaginary with non-positive imaginary part
        assert r_m.real == 0.0
        assert r_m.imag <= 0.0


# ---------------------------------------------------------------------------
# SystemParams / DerivedConstants
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError, match="tau"):
        SystemParams(omega_e=1.0, tau=-1.0, r_m=0)
    with pytest.raises(ValueError, match="omega_e"):
        SystemParams(omega_e=-1.0, tau=1.0, r_m=0)
    with pytest.raises(ValueError, match="r_m"):
        SystemParams(omega_e=1.0, tau=1.0, r_m=1.5)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(excess=st.floats(0.0, 1e-9, exclude_min=True), phase=st.floats(-math.pi, math.pi))
@example(excess=7.922262845738715e-10, phase=-0.8173737021634899)  # r / |r| is 1 + 2.2e-16
def test_params_put_a_mirror_past_the_unit_circle_on_it(excess, phase):
    # |r_m| up to 1 + 1e-9 is accepted as rounding; kept as given, it let the
    # mirror add norm, and r / |r| alone lands one ulp above 1 at some phases
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=(1.0 + excess) * cmath.exp(1j * phase))
    assert abs(params.r_m) <= 1
    assert params.t_m**2 + abs(params.r_m) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_params_put_a_real_mirror_past_the_unit_circle_on_plus_or_minus_one():
    for r_m in (-1.0000000005, -(1 + 2.2e-16), 1 + 1e-9):
        assert SystemParams(omega_e=1.0, tau=1.0, r_m=r_m).r_m == math.copysign(1.0, r_m)


@pytest.mark.parametrize(
    "field, overrides",
    [
        # abs() of a NaN-and-infinity complex is inf, not NaN
        ("r_m", {"r_m": complex(math.nan, math.inf)}),
        ("tau", {"tau": math.nan}),
        ("omega_e", {"omega_e": math.nan}),
        ("r_m", {"r_m": math.nan}),
        ("r_m", {"r_m": complex(-0.5, math.nan)}),
    ],
)
def test_params_reject_nan(field, overrides):
    # each check is written so that NaN fails it rather than slipping through
    kwargs = {"omega_e": 1.0, "tau": 1.0, "r_m": -0.5, **overrides}
    with pytest.raises(ValueError, match=field):
        SystemParams(**kwargs)


def test_params_reject_infinite_frequency():
    # cos(k * phase) of an infinite phase used to fail deep in the series
    with pytest.raises(ValueError, match="omega_e must be finite"):
        SystemParams(omega_e=math.inf, tau=1.0, r_m=-0.5)
    with pytest.raises(ValueError, match="omega_e must be finite"):
        SystemParams.from_round_trip_phase(tau=1.0, phase=math.inf, r_m=-0.5)


@pytest.mark.parametrize("omega_e, tau", [(1e308, 10.0), (2.0, 1e308), (np.float64(1e308), 10.0)])
def test_params_refuse_a_round_trip_phase_past_the_double_range(omega_e, tau):
    # r_m exp(i omega_e tau) was nan: the Markovian curve wrote nan and the
    # exact constants failed in cmath with "math domain error".  A numpy
    # frequency is refused the same way, not by an overflow warning.
    message = f"omega_e tau must be finite at a finite tau, got omega_e = {omega_e} and tau = {tau}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SystemParams(omega_e=omega_e, tau=tau, r_m=-0.5)


def test_params_accept_the_largest_finite_round_trip_phase():
    params = SystemParams(omega_e=1.0, tau=1.7976931348623157e308, r_m=-0.5)
    assert params.round_trip_phase == 1.7976931348623157e308
    # and any frequency at tau = inf, where no reflection ever returns
    assert SystemParams(omega_e=1e308, tau=math.inf, r_m=-0.5).round_trip_phase == math.inf


@pytest.mark.parametrize("tau", [math.inf, 0.0, -1.0, math.nan])
def test_params_from_a_phase_need_a_finite_positive_delay(tau):
    # at tau = inf, omega_e = phase / tau = 0 used to drop the given phase
    message = f"from_round_trip_phase requires 0 < tau < inf, got {tau}; pass omega_e directly"
    with pytest.raises(ValueError, match=re.escape(message)):
        SystemParams.from_round_trip_phase(tau=tau, phase=1.0, r_m=-0.5)


def test_params_accept_infinite_delay():
    # infinities keep their meaning: a mirror infinitely far away never acts
    params = SystemParams(omega_e=1.0, tau=math.inf, r_m=-1.0)
    assert params.tau == math.inf


def test_params_derives_transmission():
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=-0.5)
    assert params.t_m == pytest.approx(math.sqrt(0.75), abs=1e-15)


def test_transmission_and_rate_are_not_settable():
    # unitarity fixes t_m, and Gamma is the unit: neither is an input, but
    # both stay fields, so the CLI headers still list them
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=-0.6)
    assert (params.t_m, params.gamma) == (0.8, 1.0)
    assert list(dataclasses.asdict(params)) == ["omega_e", "tau", "r_m", "t_m", "gamma"]
    with pytest.raises(TypeError, match="t_m"):
        SystemParams(omega_e=1.0, tau=1.0, r_m=-0.6, t_m=0.8)
    with pytest.raises(TypeError, match="gamma"):
        SystemParams(omega_e=1.0, tau=1.0, r_m=-0.6, gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        dataclasses.replace(params, gamma=2)
    with pytest.raises(TypeError, match="gamma"):
        SystemParams.from_round_trip_phase(tau=1.0, phase=1.0, r_m=-0.6, gamma=1.0)
    with pytest.raises(TypeError, match="t_m"):
        SystemParams.from_round_trip_phase(tau=1.0, phase=1.0, r_m=-0.6, t_m=0.8)
    # replace derives t_m afresh from the new r_m
    assert dataclasses.replace(params, r_m=0).t_m == 1.0


def test_params_from_phase():
    params = SystemParams.from_round_trip_phase(tau=0.5, phase=math.pi, r_m=-1)
    assert params.omega_e == pytest.approx(2 * math.pi)
    assert params.round_trip_phase == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        SystemParams.from_round_trip_phase(tau=0.0, phase=math.pi, r_m=-1)


def test_feedback_constant_vanishes_without_mirror():
    consts = derived_constants(SystemParams(omega_e=3.0, tau=1.0, r_m=0))
    assert consts.a == 0
    assert consts.omega_complex == pytest.approx(3.0 - 0.5j)


def test_feedback_constant_trapping_point():
    # r_m = -1, phase 2*pi, tau = 1: a = (Gamma/2) e^{Gamma tau / 2}
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=2 * math.pi, r_m=-1)
    a = derived_constants(params).a
    assert a == pytest.approx(0.5 * math.exp(0.5), abs=1e-12)


def test_feedback_constant_doubling_point():
    params = SystemParams.from_round_trip_phase(tau=0.01, phase=math.pi, r_m=-1)
    a = derived_constants(params).a
    assert a == pytest.approx(-0.5 * math.exp(0.005), abs=1e-12)
    assert a.real == pytest.approx(-0.5025, abs=1e-4)


# ---------------------------------------------------------------------------
# PiecewisePolynomial
# ---------------------------------------------------------------------------


def _constant_one():
    return PiecewisePolynomial((0.0,), ((1.0 + 0j,),))


def test_pp_validation():
    with pytest.raises(ValueError):
        PiecewisePolynomial((0.0, 1.0), ((1.0,),))
    with pytest.raises(ValueError):
        PiecewisePolynomial((1.0, 1.0), ((1.0,), (2.0,)))


def test_pp_integrate_constant_gives_ramp():
    ramp = pp_integrate(_constant_one(), from_zero=True)
    assert ramp.segments == ((0j, 1.0 + 0j),)
    assert ramp(2.5) == pytest.approx(2.5)


def test_pp_integrate_ramp_gives_exact_parabola():
    parabola = pp_integrate(pp_integrate(_constant_one()))
    assert parabola.segments == ((0j, 0j, 0.5 + 0j),)  # exactly t^2 / 2
    assert parabola(3.0) == pytest.approx(4.5)


def test_pp_integrate_delayed_segment():
    # segment (t - tau) starting at tau integrates to (t - tau)^2 / 2 from tau on
    tau = 0.7
    p = PiecewisePolynomial((0.0, tau), ((0j,), (0j, 1.0 + 0j)))
    q = pp_integrate(p, from_zero=True)
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 4.0, size=50):
        expected = 0.5 * (t - tau) ** 2 if t >= tau else 0.0
        num = np.trapezoid(  # numerical quadrature cross-check
            pp_eval(p, np.linspace(0, t, 4001)), np.linspace(0, t, 4001)
        )
        assert q(t) == pytest.approx(expected, abs=1e-12)
        assert q(t) == pytest.approx(num, abs=1e-6)


def test_pp_shift_ramp():
    tau = 1.3
    ramp = pp_integrate(_constant_one())
    shifted = pp_shift(ramp, tau)
    assert shifted(0.5 * tau) == 0.0
    assert shifted(tau + 2.0) == pytest.approx(2.0)


def test_pp_shift_of_constant_is_step():
    # delaying c_0 = 1 produces the unit step at the delay
    theta = pp_shift(_constant_one(), 1.0)
    assert theta(0.5) == 0.0
    assert theta(1.0) == pytest.approx(1.0)
    assert theta(7.0) == pytest.approx(1.0)


def test_pp_shift_matches_delayed_evaluation():
    rng = np.random.default_rng(42)
    p = PiecewisePolynomial(
        (0.0, 1.0, 2.0),
        ((0.3 + 0.1j, -0.4j), (0.2, 1.1 - 0.7j, 0.05j), (1.0, 0.0, 0.0, 0.25)),
    )
    delay = 1.0
    q = pp_shift(p, delay)
    ts = rng.uniform(-0.5, 6.0, size=100)
    expected = np.where(ts >= delay, pp_eval(p, ts - delay), 0.0)
    assert np.max(np.abs(pp_eval(q, ts) - expected)) < 1e-13
    # all breakpoints moved by the delay (plus the new zero lead-in)
    assert q.breakpoints[1:] == tuple(b + delay for b in p.breakpoints)


def test_pp_eval_below_first_breakpoint_uses_first_segment():
    p = PiecewisePolynomial((1.0,), ((2.0 + 0j, 1.0 + 0j),))
    assert p(0.0) == pytest.approx(2.0 - 1.0)  # 2 + (t - 1) at t = 0


def per_segment_pp_eval(p, t):
    """pp_eval as a mask and a Horner loop per segment, for comparison."""
    t_arr = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(p.breakpoints, t_arr, side="right") - 1, 0, None)
    out = np.zeros(t_arr.shape, dtype=complex)
    for j, seg in enumerate(p.segments):
        mask = idx == j
        if not np.any(mask):
            continue
        u = t_arr[mask] - p.breakpoints[j]
        acc = np.zeros_like(u, dtype=complex)
        for c in reversed(seg):
            acc = acc * u + c
        out[mask] = acc
    return complex(out[()]) if t_arr.ndim == 0 else out


def test_pp_eval_one_pass_matches_per_segment_loop_bit_for_bit():
    # segments of unequal length, zero and signed-zero coefficients, points
    # below the first breakpoint, on the breakpoints, and scalar input
    rng = np.random.default_rng(11)
    for _ in range(50):
        count = int(rng.integers(1, 7))
        breakpoints = tuple(np.sort(rng.choice(np.arange(-10, 30), count, replace=False)) * 0.37)
        segments = tuple(
            tuple(complex(*rng.choice([0.0, -0.0, rng.normal()], 2))
                  for _ in range(int(rng.integers(1, 7))))
            for _ in range(count)
        )
        p = PiecewisePolynomial(breakpoints, segments)
        ts = np.concatenate([rng.uniform(-8.0, 15.0, 40), breakpoints, [-0.0, 0.0]])
        assert pp_eval(p, ts).tobytes() == per_segment_pp_eval(p, ts).tobytes()
        assert pp_eval(p, ts[:, None]).tobytes() == per_segment_pp_eval(p, ts).tobytes()
        for t in (ts[0], breakpoints[0] - 1.0):
            value = pp_eval(p, float(t))
            assert isinstance(value, complex)
            assert np.complex128(value).tobytes() == np.complex128(per_segment_pp_eval(p, t)).tobytes()


def test_pp_add_merges_lattices():
    rng = np.random.default_rng(7)
    p = PiecewisePolynomial((0.0, 1.0), ((1.0, 0.5j), (0.0, 0.0, 1.0 + 0j)))
    q = pp_shift(p, 1.0)
    total = pp_add(p, q)
    ts = rng.uniform(-0.5, 5.0, size=100)
    assert np.max(np.abs(pp_eval(total, ts) - (pp_eval(p, ts) + pp_eval(q, ts)))) < 1e-12
    assert total.breakpoints == (0.0, 1.0, 2.0)


def test_pp_scale():
    p = pp_integrate(_constant_one())
    assert pp_scale(p, 2j)(3.0) == pytest.approx(6j)


def test_pp_snap_restores_lattice():
    tau = 0.1
    drifted = PiecewisePolynomial((0.0, tau + tau + tau), ((1.0,), (2.0,)))
    snapped = pp_snap(drifted, tau)
    assert snapped.breakpoints[1] == 3 * tau


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=4.0, allow_nan=False),
)
def test_pp_shift_pointwise_property(delay, t):
    p = PiecewisePolynomial((0.0, 0.5), ((0.2, 1.0 + 0j), (-1.0, 0.0, 0.3j)))
    q = pp_shift(p, delay)
    expected = pp_eval(p, t - delay) if t >= delay else 0.0
    assert abs(pp_eval(q, t) - expected) < 1e-12


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

PUBLIC_NAMES = [
    "DerivedConstants", "Direction", "DressedParams", "EmitterNotDecayed",
    "EnsembleResult", "ExcitationCurve", "NoLongtimeSolution",
    "PiecewisePolynomial", "SpatialProfile", "Spectrum", "SystemParams",
    "TrajectoryConfig", "Xi0Diverges", "build_propagator", "derived_constants",
    "dressed_params", "dyson_coefficient_closed", "dyson_coefficient_iterative",
    "ensemble_average", "excitation_amplitude_exact",
    "excitation_curve", "excitation_probability_exact", "excitation_probability_longtime",
    "excitation_probability_markovian", "field_amplitude", "laplace_spectrum",
    "mirror_coefficients", "photon_density", "pp_add", "pp_eval", "pp_integrate", "pp_scale", "pp_shift",
    "pp_snap", "round_trip_series", "run_trajectory", "solve_longtime", "solve_xi",
    "spatial_profile", "spectrum", "total_photon_norm", "trajectory_rng",
]


def test_public_surface_is_pinned():
    # adding or removing a public name is an API change: update this list with it
    assert sorted(mirrorqed.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(mirrorqed, name), name
