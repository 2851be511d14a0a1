"""Exact, long-time, and Markovian solutions for the emitter excitation.

The excited-state amplitude of an initially excited emitter in front of a
partially transparent mirror is

    <e,0|psi(t)> = exp(-i Omega t) * f(t),
    f(t) = sum_{k=0}^{floor(t/tau)} a^k / k! * (t - k tau)^k,

with Omega = omega_e - i Gamma/2 and a = -r_m exp(i Omega tau) Gamma/2.  Each
term counts the photon round trips completed up to time t, so the sum is
finite and the decay is piecewise polynomial times an exponential.  For
t >> tau the same series (with the round-trip truncation lifted) collapses
to xi0 * exp(xi t) where xi solves xi exp(xi tau) = a; neglecting the delay
altogether gives the Markovian exponential with a dressed decay rate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DerivedConstants,
    PiecewisePolynomial,
    SystemParams,
    derived_constants,
    pp_add,
    pp_integrate,
    pp_scale,
    pp_shift,
    pp_snap,
)

_LOG_TINY = -745.0  # below this exp() underflows to zero


class NoLongtimeSolution(Exception):
    """The damped Newton iteration for xi exp(xi tau) = a did not converge.

    This happens when no exponential long-time regime exists, e.g. for a
    real feedback constant a < -1/(e tau).
    """


class Xi0Diverges(Exception):
    """The prefactor series sum_k (-k)^k (a tau)^k / k! does not converge.

    Carries the decay constant xi (when it was found) so callers can still
    report the long-time rate of a trapped or slowly decaying emitter.
    """

    def __init__(self, message: str, xi: complex | None = None):
        super().__init__(message)
        self.xi = xi


def _compensated_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray) -> None:
    """One Neumaier compensated-summation step, in place, per component."""
    for part_total, part_comp, part_term in (
        (total.real, comp.real, term.real),
        (total.imag, comp.imag, term.imag),
    ):
        new = part_total + part_term
        lost = np.where(
            np.abs(part_total) >= np.abs(part_term),
            (part_total - new) + part_term,
            (part_term - new) + part_total,
        )
        part_comp += lost
        part_total[...] = new


def _feedback_logpolar(params: SystemParams) -> tuple[float, float]:
    """log-magnitude and phase of the feedback constant a, overflow-free.

    |a| = (Gamma/2) |r_m| exp(Gamma tau / 2) can exceed the double range for
    large Gamma tau even though it never enters the dynamics before the first
    round trip; keeping it in log-polar form defers any overflow to the terms
    that actually need it.
    """
    magnitude = abs(params.r_m)
    if magnitude == 0:
        return -math.inf, 0.0
    log_mag = math.log(params.gamma / 2.0 * magnitude) + params.gamma * params.tau / 2.0
    phase = cmath.phase(-params.r_m) + params.omega_e * params.tau
    return log_mag, phase


def _delay_series_core(u, log_mag_a: float, phase_a: float, tau: float):
    """Causal sum with the feedback constant given as (log |a|, arg a)."""
    u_in = np.asarray(u, dtype=float)
    u_flat = np.atleast_1d(u_in).ravel()
    total = np.where(u_flat >= 0, 1.0, 0.0).astype(complex)  # k = 0 term
    u_max = float(u_flat.max()) if u_flat.size else -1.0
    if log_mag_a > -math.inf and u_max >= tau:
        comp = np.zeros_like(total)
        k_max = int(math.floor(u_max / tau))
        # beyond k ~ |a| u the term magnitudes only decay
        k_peak = math.exp(min(log_mag_a, 700.0)) * u_max
        for k in range(1, k_max + 1):
            arg = u_flat - k * tau
            live = arg > 0
            if not live.any():
                break
            log_mag = np.full(u_flat.shape, -np.inf)
            log_mag[live] = (
                k * log_mag_a + k * np.log(arg[live]) - math.lgamma(k + 1)
            )
            peak = log_mag.max()
            if peak < _LOG_TINY:
                if k > k_peak:
                    break
                continue
            term = np.zeros_like(total)
            term[live] = np.exp(log_mag[live]) * complex(
                math.cos(k * phase_a), math.sin(k * phase_a)
            )
            _compensated_add(total, comp, term)
        total += comp
    total = total.reshape(u_in.shape) if u_in.ndim else total[0]
    return complex(total) if u_in.ndim == 0 else total


def delay_series(u, a: complex, tau: float):
    """Causal round-trip sum f(u) = sum_{k <= u/tau} a^k/k! (u - k tau)^k.

    Terms are evaluated in log space (no overflow for large k) and summed
    with Neumaier compensation.  Points with u < 0 return 0; the k-th term
    switches on at u = k tau where it vanishes like (u - k tau)^k, so f is
    continuous.

    Args:
        u: Scalar or array of evaluation points.
        a: Complex feedback constant of one round trip.
        tau: Round-trip time, must be positive.

    Returns:
        Complex scalar or array matching the shape of u.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if a == 0:
        return _delay_series_core(u, -math.inf, 0.0, tau)
    return _delay_series_core(u, math.log(abs(a)), cmath.phase(a), tau)


def round_trip_series(params: SystemParams, u):
    """Causal series f(u) for the given parameters, safe against |a| overflow.

    For tau = 0 the lattice collapses and f(u) = exp(a u) on u >= 0.
    """
    u_arr = np.asarray(u, dtype=float)
    if params.tau == 0:
        a = derived_constants(params).a
        out = np.where(u_arr >= 0, np.exp(a * u_arr), 0.0)
        return complex(out[()]) if u_arr.ndim == 0 else out
    log_mag, phase = _feedback_logpolar(params)
    return _delay_series_core(u_arr, log_mag, phase, params.tau)


def delay_series_full(
    u: float,
    a: complex,
    tau: float,
    tol: float = 1e-14,
    growth_limit: int = 8,
    max_terms: int = 100_000,
) -> complex:
    """All-orders sum f(u) = sum_{k>=0} a^k/k! (u - k tau)^k, no truncation.

    This is the analytic continuation used by the long-time solution: at
    u = 0 it is the prefactor xi0, and wherever it converges it satisfies
    the delay relation f'(u) = a f(u - tau).  Convergence requires
    e |a| tau < 1; divergence is flagged when `growth_limit` consecutive
    terms grow while setting a new magnitude record (transient humps from
    the sign change of u - k tau are tolerated), or when `max_terms` is
    reached without the terms dropping below `tol`.

    Raises:
        Xi0Diverges: If the series fails to converge.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    if tau == 0:
        return cmath.exp(a * u)
    if a == 0:
        return 1.0 + 0j
    if not cmath.isfinite(a):
        raise Xi0Diverges("feedback constant exceeds the double range")
    log_a = math.log(abs(a))
    theta = cmath.phase(a)
    total = 1.0 + 0j
    comp = 0.0 + 0j
    prev_mag = 1.0
    largest = 1.0
    rises = 0
    below = 0
    for k in range(1, max_terms + 1):
        base = u - k * tau
        if base == 0.0:
            prev_mag = 0.0
            continue
        log_mag = k * log_a + k * math.log(abs(base)) - math.lgamma(k + 1)
        mag = math.exp(log_mag) if log_mag > _LOG_TINY else 0.0
        phase = k * theta + (math.pi * k if base < 0 else 0.0)
        term = mag * complex(math.cos(phase), math.sin(phase))
        # Neumaier step on the scalar accumulator
        new = total + term
        if abs(total) >= abs(term):
            comp += (total - new) + term
        else:
            comp += (term - new) + total
        total = new
        if mag > prev_mag:
            rises += 1
            if mag > largest and rises >= growth_limit:
                raise Xi0Diverges(
                    f"series terms grew {rises} times in a row past their previous "
                    f"maximum (|a| tau = {abs(a) * tau:.4g}, e |a| tau = "
                    f"{math.e * abs(a) * tau:.4g})"
                )
        else:
            rises = 0
        largest = max(largest, mag)
        prev_mag = mag
        if mag < tol:
            below += 1
            if below >= 3 and k * tau > u:
                return total + comp
        else:
            below = 0
    raise Xi0Diverges(f"series did not converge within {max_terms} terms")


# ---------------------------------------------------------------------------
# Dyson coefficients of the even (excited-emitter) sector
# ---------------------------------------------------------------------------


def dyson_coefficient_closed(params: SystemParams, n: int, t: float) -> complex:
    """Closed form of the n-th even-order expansion coefficient c_n(t).

    c_n(t) = (-1)^{n/2} (Gamma/2)^{n/2} / (n/2)! *
             sum_k C(n/2, k) (r_m e^{i omega_e tau})^k Theta(t - k tau) (t - k tau)^{n/2}

    counting the C(n/2, k) orderings of k delayed among n/2 total
    reabsorption loops.
    """
    if n % 2 != 0 or n < 0:
        raise ValueError(f"n must be an even non-negative integer, got {n}")
    m = n // 2
    rho = params.r_m * cmath.exp(1j * params.omega_e * params.tau)
    prefactor = (-1) ** m * (params.gamma / 2.0) ** m / math.factorial(m)
    acc = 0j
    for k in range(m + 1):
        dt = t - k * params.tau
        if dt < 0:
            break
        acc += math.comb(m, k) * rho**k * dt**m
    return prefactor * acc


def dyson_coefficient_iterative(params: SystemParams, n: int) -> PiecewisePolynomial:
    """Build c_n as a piecewise polynomial by iterating the loop recursion.

    Starting from c_0 = 1, each pair of interaction orders adds one
    reabsorption loop:

        c_{n+2}(t) = -(Gamma/2) [ I(t) + r_m e^{i omega_e tau} I(t - tau) ],
        I(t) = integral_0^t c_n,

    realized with exact piecewise-polynomial integration and delay.  The
    result agrees pointwise with the closed form.
    """
    if n % 2 != 0 or n < 0:
        raise ValueError(f"n must be an even non-negative integer, got {n}")
    rho = params.r_m * cmath.exp(1j * params.omega_e * params.tau)
    c = PiecewisePolynomial((0.0,), ((1.0 + 0j,),))
    for _ in range(n // 2):
        integral = pp_integrate(c, from_zero=True)
        delayed = pp_scale(pp_shift(integral, params.tau), rho)
        c = pp_scale(pp_add(integral, delayed), -(params.gamma / 2.0))
        if params.tau > 0:
            c = pp_snap(c, params.tau)
    return c


# ---------------------------------------------------------------------------
# Excitation amplitude and probability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExcitationCurve:
    """Excited-state amplitude and probability sampled on a time grid."""

    times: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class DressedParams:
    """Mirror-dressed emitter parameters in the Markovian limit."""

    delta_eff: float
    gamma_eff: float


def excitation_amplitude_exact(params: SystemParams, t):
    """Exact excited-state amplitude <e,0|psi(t)> at time(s) t >= 0.

    For tau = 0 the round-trip lattice collapses and the amplitude reduces
    to the Markovian limit exp(-i Omega t) exp(a t).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    omega_complex = derived_constants(params).omega_complex
    result = np.exp(-1j * omega_complex * t_arr) * round_trip_series(params, t_arr)
    return complex(result[()]) if t_arr.ndim == 0 else result


def excitation_probability_exact(params: SystemParams, t):
    """Exact excitation probability P_e(t) = |<e,0|psi(t)>|^2."""
    amp = excitation_amplitude_exact(params, t)
    prob = np.abs(np.asarray(amp)) ** 2
    return float(prob[()]) if np.asarray(t).ndim == 0 else prob


def excitation_curve(params: SystemParams, times) -> ExcitationCurve:
    """Sample the exact amplitude and probability on a time grid."""
    times = np.asarray(times, dtype=float)
    amplitudes = excitation_amplitude_exact(params, times)
    return ExcitationCurve(
        times=times, amplitudes=amplitudes, probabilities=np.abs(amplitudes) ** 2
    )


# ---------------------------------------------------------------------------
# Long-time exponential regime
# ---------------------------------------------------------------------------


def solve_xi(
    params: SystemParams, tol: float = 1e-12, max_iter: int = 200
) -> complex:
    """Solve xi exp(xi tau) = a by damped complex Newton iteration.

    The iteration starts at xi = a (the exact root for tau -> 0) and halves
    the step whenever the residual would grow, which keeps it on the root
    branch continuously connected to a.  A solution only exists for real a
    when a >= -1/(e tau); otherwise the damping stalls and
    NoLongtimeSolution is raised.
    """
    consts = derived_constants(params)
    a, tau = consts.a, params.tau
    if tau == 0:
        return a
    if not cmath.isfinite(a):
        raise NoLongtimeSolution("feedback constant exceeds the double range")

    def residual_at(candidate: complex) -> complex:
        z = candidate * tau
        if z.real > 700.0:  # exp would overflow; certainly not a root
            return complex(math.inf, 0.0)
        return candidate * cmath.exp(z) - a

    scale = max(1.0, abs(a))
    xi = a
    residual = residual_at(xi)
    shrink = 0
    while residual.real == math.inf and shrink < 2000:
        xi *= 0.5  # walk back toward the origin until exp(xi tau) is representable
        residual = residual_at(xi)
        shrink += 1
    for _ in range(max_iter):
        if abs(residual) <= tol * scale:
            return xi
        slope = cmath.exp(xi * tau) * (1.0 + xi * tau)
        if slope == 0:
            raise NoLongtimeSolution("Newton derivative vanished at a double root")
        step = -residual / slope
        factor = 1.0
        while factor >= 2.0**-40:
            candidate = xi + factor * step
            cand_res = residual_at(candidate)
            if abs(cand_res) < abs(residual):
                break
            factor *= 0.5
        else:
            raise NoLongtimeSolution(
                f"damped Newton stalled at residual {abs(residual):.3g} "
                f"(a tau = {a * tau:.6g}; no root reachable from xi = a)"
            )
        xi, residual = candidate, cand_res
    if abs(residual) <= tol * scale:
        return xi
    raise NoLongtimeSolution(
        f"no convergence within {max_iter} iterations (residual {abs(residual):.3g})"
    )


def solve_longtime(params: SystemParams) -> DerivedConstants:
    """Populate xi and xi0 of the long-time solution xi0 exp(-i Omega t + xi t).

    Raises:
        NoLongtimeSolution: If the root equation for xi has no reachable solution.
        Xi0Diverges: If the prefactor series diverges; the exception carries
            the already computed xi.
    """
    consts = derived_constants(params)
    if params.tau == 0:
        return replace(consts, xi=consts.a, xi0=1.0 + 0j)
    xi = solve_xi(params)
    try:
        xi0 = delay_series_full(0.0, consts.a, params.tau)
    except Xi0Diverges as err:
        raise Xi0Diverges(str(err), xi=xi) from None
    return replace(consts, xi=xi, xi0=xi0)


def excitation_probability_longtime(
    params: SystemParams, t, constants: DerivedConstants | None = None
):
    """Long-time exponential P_e(t) = |xi0|^2 exp(-(Gamma - 2 Re xi) t).

    Valid for t >> tau.  Propagates NoLongtimeSolution / Xi0Diverges when the
    constants do not exist; pass `constants` to reuse a previous solve.
    """
    if constants is None or constants.xi is None or constants.xi0 is None:
        constants = solve_longtime(params)
    t_arr = np.asarray(t, dtype=float)
    rate = params.gamma - 2.0 * constants.xi.real
    result = abs(constants.xi0) ** 2 * np.exp(-rate * t_arr)
    return float(result[()]) if t_arr.ndim == 0 else result


# ---------------------------------------------------------------------------
# Markovian limit and dressed picture
# ---------------------------------------------------------------------------


def excitation_probability_markovian(params: SystemParams, t):
    """Markovian P_e(t) = exp(-Gamma t [1 + Re(r_m e^{i omega_e tau})]).

    The round-trip propagation time is neglected but the round-trip phase is
    kept.  For real r_m this is exp(-Gamma t [1 + r_m cos(omega_e tau)]); a
    complex r_m only shifts the phase.
    """
    t_arr = np.asarray(t, dtype=float)
    rho = params.r_m * cmath.exp(1j * params.omega_e * params.tau)
    result = np.exp(-params.gamma * t_arr * (1.0 + rho.real))
    return float(result[()]) if t_arr.ndim == 0 else result


def dressed_params(params: SystemParams) -> DressedParams:
    """Mirror-dressed frequency shift and decay rate in the Markovian limit.

    Delta_eff = (Gamma/2) Im(r_m e^{i omega_e tau}) and
    Gamma_eff = Gamma [1 + Re(r_m e^{i omega_e tau})]; for real r_m these are
    the familiar (Gamma/2) r_m sin(omega_e tau) and
    Gamma [1 + r_m cos(omega_e tau)].
    """
    rho = params.r_m * cmath.exp(1j * params.omega_e * params.tau)
    return DressedParams(
        delta_eff=params.gamma / 2.0 * rho.imag,
        gamma_eff=params.gamma * (1.0 + rho.real),
    )
