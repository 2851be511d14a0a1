"""Exact, long-time, and Markovian solutions for the emitter excitation.

The excited-state amplitude of an initially excited emitter in front of a
partially transparent mirror is

    <e,0|psi(t)> = exp(-i Omega t) * f(t),
    f(t) = sum_{k=0}^{floor(t/tau)} a^k / k! * (t - k tau)^k,

with Omega = omega_e - i Gamma/2 and a = -r_m exp(i Omega tau) Gamma/2.  Each
term counts the photon round trips completed up to time t, so the sum is
finite and the decay is piecewise polynomial times an exponential.  For
t >> tau it approaches xi0 * exp(xi t), from the pole of the Laplace
transform below with the largest real part: xi = W_0(a tau) / tau and
xi0 = 1 / (1 + W_0(a tau)).  With the round-trip truncation lifted the
series converges exactly when e |a| tau < 1, and then sums to that single
term.  Neglecting the delay altogether gives the Markovian exponential with
a dressed decay rate.

Evaluating f.  The Laplace transform of f is F(s) = 1 / (s - a exp(-s tau)),
whose poles s_j = W_j(a tau) / tau sit on the branches of the Lambert W
function, so for t > 0

    f(t) = sum_j exp(s_j t) / (1 + W_j(a tau))

(Corless et al., Adv. Comput. Math. 5, 329 (1996)).  The causal sum is exact
with few terms but its terms grow like exp(|a| t) and cancel; the residue
sum has no cancellation but needs many branches at small t / tau.  Each
point therefore takes the causal sum while it has fewer lattice terms than
a switch of 16 (lowered, down to 8, where the estimated cancellation
sum |term| / |f| ~ exp((W_0(|a| tau) - Re W_0(a tau)) t / tau) would pass
1e4), and the residue sum beyond.  One cached plan per system holds z = a tau
and W_0, which the long-time pole reads, and builds on the residue sum's first
use that sum's W_j of branches |j| <= J (J set by |W_0| and the switch), each
kept where it exceeds 1e-17 of the W_0 term.
The envelope exp(-i Omega t) enters every exponent, so growing terms never
overflow while the amplitude stays bounded.  Causal term k takes it in local
time v = t - k tau, as b^k v^k / k! exp(-i Omega v) with the bounded
b = a exp(-i Omega tau) = -r_m Gamma / 2, so the exp(Gamma tau / 2) that a
carries is never formed.
Near the branch point a tau = -1/e, W_0 and the branch it merges with
approach -1 together and both residues diverge; there the pair is summed in
a closed form that is analytic in q = 2 (1 + e a tau) and finite at q = 0.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .core import DerivedConstants, PiecewisePolynomial, SystemParams, derived_constants
# Unused here; the benchmark's tracer (bench/spans.py) rebinds these names in this module.
from .core import pp_add, pp_integrate, pp_scale, pp_shift, pp_snap  # noqa: F401


class NoLongtimeSolution(Exception):
    """No single pole of 1 / (s - a exp(-s tau)) dominates the long-time decay.

    Raised when a tau is real and at or below -1/e: there W_0(a tau) and a
    second branch share the largest real part (and at -1/e merge into a
    double pole), so the decay oscillates or carries a factor t instead of
    being one exponential.  "Real" allows |Im(a tau)| <= 16 eps |a tau|
    (eps = 2.2e-16), which covers the rounding of a round-trip phase of pi.
    Also raised when a tau is not finite.
    """


class Xi0Diverges(Exception):
    """The prefactor series sum_k (-k)^k (a tau)^k / k! diverges.

    Raised exactly when e |a| tau >= 1, the series' radius of convergence.
    The decay constant xi = W_0(a tau) / tau may still exist there: solve_xi
    returns it for a trapped or slowly decaying emitter.
    """


def _round_trip_mirror(params: SystemParams) -> complex:
    """rho = r_m exp(i omega_e tau), the mirror's factor on a photon at omega_e
    after one round trip; 0 at tau = inf, where no reflection returns."""
    return 0j if math.isinf(params.tau) else params.r_m * cmath.exp(1j * params.round_trip_phase)


# Taylor coefficients mu_k of W(z) = sum_k mu_k p^k about the branch point
# z = -1/e, p = sqrt(2 (1 + e z)): the recurrence of Corless et al., Adv.
# Comput. Math. 5, 329 (1996), eqs. (4.23)-(4.24).  +p gives W_0, -p the
# branch W_0 merges with.  Forty terms reach double precision for |p| <= 1/2.
def _branch_point_coefficients(count: int) -> tuple[float, ...]:
    mu, alpha = [-1.0, 1.0], [2.0, -1.0]
    for k in range(2, count):
        alpha.append(sum(mu[j] * mu[k + 1 - j] for j in range(2, k)))
        mu.append((k - 1) / (k + 1) * (mu[k - 2] / 2 + alpha[k - 2] / 4)
                  - alpha[k] / 2 - mu[k - 1] / (k + 1))
    return tuple(mu)


_MU = _branch_point_coefficients(40)
_PAIR_Q = 0.25  # |q| = |p|^2 below which the merging pair comes from the series
_HALLEY_ITERATIONS = 40


def _pair_parts(q):
    """(c1, h1) with W = -1 + q c1 +- sqrt(q) h1 on the two merging branches."""
    c1 = h1 = 0.0
    for mu in _MU[2::2][::-1]:  # Horner, from the highest power of q down
        c1 = c1 * q + mu
    for mu in _MU[1::2][::-1]:
        h1 = h1 * q + mu
    return c1, h1


def _lambert_w(z: complex, k: int) -> complex:
    """Branch k of the Lambert W function, w exp(w) = z, at one point.

    Branch cuts follow Corless et al. (and scipy.special.lambertw).  Close to
    the branch point W_0 and the branch it merges with (W_{-1} from Im z >= 0,
    W_1 below) come straight from the series in p; the rest is polished by
    Halley's iteration from a series, Pade or asymptotic first guess.  k != 0
    runs on the principal log z and needs z != 0.
    """
    z = complex(z)
    log_z = cmath.log(z) if z else None
    merging = -1 if z.imag >= 0 else 1
    if k in (0, merging) and abs(z + 1.0 / math.e) < 0.3:
        q = 2.0 * (1.0 + math.e * z)
        c1, h1 = _pair_parts(q)
        w = -1.0 + q * c1 + (1.0 if k == 0 else -1.0) * cmath.sqrt(q) * h1
        if abs(q) < _PAIR_Q:  # the series is exact to double precision there
            return w
    elif k == 0 and abs(z.imag) < 1.0 and max(-1.0, -2.5 * abs(z.imag) - 0.2) < z.real < 1.5:
        # the (3, 2) Pade approximant of W_0 about 0, inside the pole-free
        # region scipy.special.lambertw uses for the same purpose
        w = z * (60.0 + z * (114.0 + 17.0 * z)) / (60.0 + z * (174.0 + 101.0 * z))
    else:
        log_k = log_z + 2j * math.pi * k
        log_log = cmath.log(log_k)
        w = log_k - log_log + log_log / log_k
    for _ in range(_HALLEY_ITERATIONS):
        if k or w.real >= 0:  # scaled by exp(-w), as z exp(-w) = exp(log z - w) ~ w
            f, df = w - (cmath.exp(log_z - w) if k else z * cmath.exp(-w)), w + 1.0
        else:
            ew = cmath.exp(w)
            f, df = w * ew - z, ew * (w + 1.0)
        step = f / (df - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        # Halley converges cubically, so after a step below 1e-8 |w| the
        # error is at rounding level; a NaN step never counts as converged
        if abs(step) <= 1e-8 * abs(w):
            return w
    raise FloatingPointError(f"Halley iteration for W did not converge at z = {z}")


# The causal sum serves points with fewer than `switch` lattice terms and the
# residue sum the rest.  The switch sits at _SWITCH_MAX unless the causal
# terms would cancel by more than _CANCELLATION_MAX before it; it never drops
# below _SWITCH_MIN, which bounds the number of branches the residue sum needs.
_SWITCH_MIN = 8
_SWITCH_MAX = 16
_CANCELLATION_MAX = 1e4
_PLANS = 16  # systems whose plan `_plan` keeps: a run reads one system's plan many times


@dataclass(frozen=True)
class _Plan:
    """One system's z = a tau, W_0(z) and the poles s_j = W_j(z) / tau of its residue sum,
    shared through the cache by every caller, so its arrays are only read.

    z is complex infinity past the double range, with w0 None; past |z| = e^700 no branch is
    kept and `switch` is inf.  `pair` is q = 2 (1 + e z) where W_0 and its merging branch are
    summed in closed form.  The branches are built on first use (`branches`), so the
    long-time pole, which reads z and W_0 alone, never pays for them.
    """

    z: complex
    w0: complex | None
    switch: float
    pair: complex | None

    @functools.cached_property
    def branches(self) -> tuple[np.ndarray, np.ndarray]:
        """(W_j, reach): the kept W_j, smallest real part first, and for each the x = u / tau
        past which it stays below 1e-17 of the W_0 term, which reaches every point."""
        if self.switch == math.inf:
            return np.empty(0, dtype=complex), np.empty(0)
        z, w0 = self.z, self.w0
        # |exp(W_j x)| = (|z| / |W_j|)^x with |W_j| ~ 2 pi |j|, so past `count`
        # branches every term is below 1e-17 of the W_0 term at all x >= switch
        # (a z that underflowed to 0 keeps W_0 = 0 alone: every other Re W_j < -744)
        count = math.ceil(abs(w0) * 10.0 ** (17.0 / self.switch) / (2.0 * math.pi)) + 1 if z else 0
        merging = -1 if z.imag >= 0 else 1
        lead = 17.0 * math.log(10.0) + math.log(max(1.0, abs(1.0 + w0)))
        kept = []
        for j in range(-count, count + 1):
            if j == 0 or (j == merging and self.pair is not None):
                continue
            w = _lambert_w(z, j)
            drop = w0.real - w.real
            end = (lead - math.log(abs(1.0 + w))) / drop if drop > 0 else math.inf
            if end > self.switch:
                kept.append((w, end))
        if self.pair is None:
            kept.append((w0, math.inf))
        kept.sort(key=lambda branch: branch[0].real)
        return np.array([w for w, _ in kept], dtype=complex), np.array([end for _, end in kept])


@functools.lru_cache(maxsize=_PLANS)
def _plan(b: complex, tau: float, envelope: complex) -> _Plan:
    """The `_Plan` of the series at b, tau, envelope (`_series_key`): a = b exp(-envelope tau).

    z, W_0(z), the switch and the pair are set here; the branches wait for the residue sum.
    """
    exponent = -envelope * tau
    z = b * cmath.exp(exponent) * tau if exponent.real <= 709.0 else complex(math.inf, math.inf)
    w0 = _lambert_w(z, 0) if cmath.isfinite(z) else None
    if not abs(z) <= math.exp(700.0):
        return _Plan(z, w0, math.inf, None)
    # sum |causal terms| is the series at |a|, ~ exp(W_0(|a| tau) x), while
    # the sum itself is ~ exp(W_0(a tau) x)
    gap = _lambert_w(abs(z), 0).real - w0.real
    switch = _SWITCH_MAX
    if gap * _SWITCH_MAX > math.log(_CANCELLATION_MAX):
        switch = max(_SWITCH_MIN, int(math.log(_CANCELLATION_MAX) / gap))
    q = 2.0 * (1.0 + math.e * z)
    return _Plan(z, w0, switch, q if abs(q) < _PAIR_Q else None)


def _exp(exponent):
    """exp(exponent), keeping only the modulus where Im(exponent) is not finite.

    An exponent rate * u whose phase product overflows has no digit of its
    phase left (none is left past |Im| ~ 2**53 either), but exp(Re + i inf) is
    nan, and a modulus exp(Re) of 0 does not clear it.  There the phase is
    taken as 0; a finite exponent passes unchanged.  Callers form the exponent
    with overflow warnings off.
    """
    finite = np.isfinite(exponent.imag)
    return np.exp(exponent if finite.all() else np.where(finite, exponent, exponent.real))


def _residue_sum(u: np.ndarray, x: np.ndarray, tau: float, envelope: complex,
                 plan: _Plan) -> np.ndarray:
    """sum_j exp((s_j + envelope) u) / (1 + W_j), smallest terms first.

    The caller passes u and x = u / tau ascending (`_round_trip_sum` sorts
    them), so each branch only touches the prefix of points before its reach.
    """
    total = np.zeros(u.shape, dtype=complex)
    branches, reach = plan.branches
    # W_0's infinite reach takes every point, also where x = u / tau is inf
    for w, end in zip(branches, np.searchsorted(x, reach, side="right")):
        with np.errstate(over="ignore"):
            term = (w / tau + envelope) * u[:end]
        term = _exp(term)
        term /= 1.0 + w
        total[:end] += term
    if plan.pair is not None:
        # both poles have Re W < -1/2, so the pair is 0 in double precision long
        # before x = u / tau overflows; points where it has skip it
        finite = np.searchsorted(x, math.inf)
        total[:finite] += _pair_sum(u[:finite], x[:finite], envelope, plan.pair)
    return total


def _pair_sum(u: np.ndarray, x: np.ndarray, envelope: complex, q: complex) -> np.ndarray:
    """The two residues whose poles merge at a tau = -1/e, without cancellation.

    With W = -1 + c +- h, c = q c1 and h = sqrt(q) h1, the pair
    exp(W_+ x)/(1 + W_+) + exp(W_- x)/(1 + W_-) at x = u / tau equals

        2 exp(x (c - 1)) [x h1^2 sinh(y)/y - c1 cosh(y)] / (h1^2 - q c1^2),

    y = x h, an even function of h and so analytic in q; it stays finite
    at q = 0, where the two poles coincide.  sinh and cosh carry exp(-y)
    (Re y >= 0) into the exponent so neither overflows.
    """
    c1, h1 = _pair_parts(q)
    h = cmath.sqrt(q) * h1
    h = h if h.real >= 0 else -h
    y = x * h
    em1 = np.expm1(-2.0 * y)
    sinhc = np.where(y == 0, 1.0, -em1 / (2.0 * np.where(y == 0, 1.0, y)))  # exp(-y) sinh(y)/y
    cosh = 1.0 + em1 / 2.0  # exp(-y) cosh(y)
    scale = 2.0 / (h1 * h1 - q * c1 * c1)
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = x * (q * c1 - 1.0) + envelope * u + y
    return scale * _exp(exponent) * (x * h1 * h1 * sinhc - c1 * cosh)


def _causal_sum(u: np.ndarray, b: complex, tau: float, envelope: complex) -> np.ndarray:
    """sum_{k <= u/tau} a^k (u - k tau)^k / k! * exp(envelope u), term by term in local time.

    Term k is b^k v^k / k! exp(envelope v) at v = u - k tau: its modulus is
    exp(k log|b| + k log v - log k! + Re(envelope) v), its phase k arg a plus,
    once per point, Im(envelope) u.  The caller passes u ascending (as
    `_round_trip_sum` sorts it), so round trip k reaches the suffix u > k tau.
    """
    total = np.exp(envelope.real * u).astype(complex)
    if b and u.size:
        log_b, arg_a = math.log(abs(b)), cmath.phase(b) - envelope.imag * tau
        for k in range(1, int(u[-1] // tau) + 1):
            start = u.searchsorted(k * tau, side="right")
            v = u[start:] - k * tau
            log_mag = k * log_b + k * np.log(v) - math.lgamma(k + 1) + envelope.real * v
            total[start:] += np.exp(log_mag) * cmath.exp(1j * k * arg_a)
    if envelope.imag:
        with np.errstate(over="ignore"):
            phase = 1j * envelope.imag * u
        # not in place, which rounds one-element arrays differently from longer ones
        total = total * _exp(phase)
    return total


def _round_trip_sum(u, b: complex, tau: float, envelope: complex):
    """f(u) exp(envelope u) with f the causal round-trip sum; 0 where u < 0.

    a = b exp(-envelope tau) enters as b, one round trip's bounded factor in
    local time.  The points u >= 0 are put in ascending order once, here (one
    stable argsort, skipped when they already are), so that those with fewer
    lattice terms than the switch form a prefix, which takes the causal sum,
    and the rest a suffix, which takes the residue sum.  A point's terms do
    not depend on the other points of the call.
    """
    u_in = np.asarray(u, dtype=float)
    flat = np.atleast_1d(u_in).ravel()
    total = np.zeros(flat.shape, dtype=complex)
    live = np.flatnonzero(flat >= 0)
    ul = flat[live]
    if np.any(ul[1:] < ul[:-1]):
        order = np.argsort(ul, kind="stable")
        live, ul = live[order], ul[order]
    with np.errstate(over="ignore"):  # an overflowing x is past every switch
        x = ul / tau  # floor(x) >= switch exactly where x >= switch
    split = x.size  # without a plan every point takes the causal sum, an overflowing x too
    if b and x.size and x[-1] >= _SWITCH_MIN:
        plan = _plan(b, tau, envelope)
        # ~12 us a causal round trip, so 2**15 take ~0.4 s; the norm's panel cap stays under 12
        if plan.switch == math.inf and not x[-1] <= 2**15:
            raise ValueError(f"the exact series at tau = {tau} keeps no residue branch (|a tau| > "
                             f"e^700), and u / tau = {x[-1]:.6g} round trips exceed 2**15")
        split = int(np.searchsorted(x, plan.switch))
    total[live[:split]] = _causal_sum(ul[:split], b, tau, envelope)
    if split < x.size:
        total[live[split:]] = _residue_sum(ul[split:], x[split:], tau, envelope, plan)
    return complex(total[0]) if u_in.ndim == 0 else total.reshape(u_in.shape)


def round_trip_series(params: SystemParams, u):
    """Emitter amplitude exp(-i Omega u) f(u) with the round-trip series
    f(u) = sum_{k <= u/tau} a^k/k! (u - k tau)^k; 0 where u < 0.

    The one entry to the series for the parameters' a and tau.  For tau > 0
    the envelope exp(-i Omega u) joins each term's exponent (see the module
    docstring), so growing terms never overflow while the amplitude stays
    bounded.  For tau = 0, or below _NO_DELAY, the lattice collapses to
    f(u) = exp(a u), which joins the envelope in one exponent for the same
    reason.  Returns a complex scalar or an array shaped like u.

    Raises:
        ValueError: Unless every u is finite, or where the plan keeps no residue
            branch (|a tau| > e^700, tau > ~1387) for a u past 2**15 round trips.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise ValueError("times must be finite")
    b, tau, envelope = _series_key(params)
    if tau < _NO_DELAY:
        with np.errstate(over="ignore"):
            exponent = (envelope + derived_constants(params).a) * u_arr
        out = np.where(u_arr >= 0, _exp(exponent), 0.0)
        return complex(out[()]) if u_arr.ndim == 0 else out
    return _round_trip_sum(u_arr, b, tau, envelope)


def _series_key(params: SystemParams) -> tuple[complex, float, complex]:
    """(b, tau, envelope) = (-r_m Gamma / 2, tau, -i Omega), the series' `_plan` key; doubles,
    as `SystemParams` stores them."""
    envelope = -1j * derived_constants(params).omega_complex
    return -params.r_m * params.gamma / 2.0, params.tau, envelope


# A delay below the smallest normal double acts as none: |a tau| < 2.2e-308 there, so
# f(u) rounds to exp(a u), while a tau would keep only the bits of a subnormal.
_NO_DELAY = np.finfo(float).tiny
# |Im(a tau)| / |a tau| up to which a tau counts as real.  A round-trip phase
# of pi, 3 pi or 5 pi passed through omega_e = phase / tau lands up to ~11 ulp
# off the real axis; a phase pi +- 1e-9 lands 1e-9 off it.
_REAL_AXIS = 16.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Dyson coefficients of the even (excited-emitter) sector
# ---------------------------------------------------------------------------


# The largest order n that dyson_coefficient_iterative builds.  Row 0 of its table
# holds (Gamma/2)^{n/2} / (n/2)!: 1.23e-308 at the cap, a subnormal one bit short, and
# 4.1e-311 at n = 302 (c_320(400) at tau = inf came out 0 against 3.1e83).  At the
# cap the build takes ~30 ms and peaks at ~1.9 MB (x86-64); its cost grows as n^3.
_MAX_ORDER = 300
# A mantissa f in [0.5, 1) keeps f**m >= 2^-m normal up to this power.
_NORMAL_POWER = 1022


def _loop_count(n) -> int:
    """m = n / 2 reabsorption loops of the even order n, an integer (operator.index)."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an even non-negative integer, got {n!r}") from None
    if n % 2 != 0 or n < 0:
        raise ValueError(f"n must be an even non-negative integer, got {n}")
    return n // 2


def _power(f: float, m: int) -> tuple[float, int]:
    """f**m for f in [0.5, 1) as a mantissa in [0.5, 1) and a power of two, at any m."""
    mantissa, exponent = 1.0, 0
    while m:
        step = min(m, _NORMAL_POWER)
        mantissa, low = math.frexp(mantissa * f**step)
        exponent += low
        m -= step
    return mantissa, exponent


def dyson_coefficient_closed(params: SystemParams, n: int, t: float) -> complex:
    """Closed form of the n-th even-order expansion coefficient c_n(t).

    c_n(t) = (-1)^{n/2} (Gamma/2)^{n/2} / (n/2)! *
             sum_k C(n/2, k) (r_m e^{i omega_e tau})^k Theta(t - k tau) (t - k tau)^{n/2}

    counting the C(n/2, k) orderings of k delayed among n/2 total
    reabsorption loops.  At tau = inf no loop returns and only k = 0 is left.
    n is any even non-negative integer, read through operator.index (so
    np.int64 works); anything else is a ValueError.  n has no cap: a call
    sums at most n/2 + 1 terms, one per completed round trip.
    With (Gamma/2)(t - k tau) = f_k 2^{e_k}, the terms are summed in units of
    2^{m e_0} and m! is divided out as a mantissa and a power of two, so
    neither m! nor (t - k tau)^m has to fit a double: only c_n(t) itself, as
    a normal double, else OverflowError.  Past m = 1022, where f_k^m can fall
    below the normal doubles, each f_k^m is a mantissa and a power of two too,
    and the unit takes that of f_0^m.  The weight C(m, k) rho^k is carried
    from term to term.
    """
    if math.isnan(t):
        raise ValueError("t must not be nan")
    m = _loop_count(n)
    rho = _round_trip_mirror(params)
    half = params.gamma / 2.0
    top = math.frexp(half * t)[1]
    factorial = math.factorial(m)
    bits = factorial.bit_length()  # m! = (factorial / 2^bits) 2^bits
    try:
        acc, weight, base = 0j, 1.0, 0  # weight = C(m, k) rho^k; 2^base is the unit of f_0^m
        for k in range(m + 1):
            dt = t - k * params.tau if k else t  # 0 * inf is nan
            if dt < 0:
                break
            f, e = math.frexp(half * dt)
            shift = m * (e - top)
            if m <= _NORMAL_POWER:
                power = f**m
            else:
                power, low = _power(f, m)
                if not k:
                    base = low
                shift += low - base
            acc += weight * math.ldexp(power, shift)
            weight *= rho * ((m - k) / (k + 1))
        acc *= (-1) ** m / (factorial / (1 << bits))
        exponent = m * top + base - bits
        value = complex(math.ldexp(acc.real, exponent), math.ldexp(acc.imag, exponent))
    except OverflowError:
        value = complex(math.inf)
    if acc and not 2.0**-1022 <= math.hypot(value.real, value.imag) < math.inf:
        raise OverflowError(f"c_{n}({t}) at tau = {params.tau} is beyond the double range")
    return value


def dyson_coefficient_iterative(params: SystemParams, n: int) -> PiecewisePolynomial:
    """Build c_n as a piecewise polynomial by iterating the loop recursion.

    Starting from c_0 = 1, each pair of interaction orders adds one
    reabsorption loop:

        c_{n+2}(t) = -(Gamma/2) [ I(t) + r_m e^{i omega_e tau} I(t - tau) ],
        I(t) = integral_0^t c_n.

    c_n is a polynomial of degree m = n / 2 on each lattice interval
    [k tau, (k+1) tau) and has no kink above m tau, so it lives in a dense
    table C[k, i], k, i = 0..m: row k holds the coefficients of (t - k tau)^i,
    and row m covers [m tau, inf).  Integrating shifts every row one column
    up in degree and adds the integral over the rows below as its constant;
    delaying by tau moves every row down by one.  The delay reuses the row
    unchanged, because (t - tau) - (k - 1) tau = t - k tau, so no breakpoint
    is ever recomputed and none can drift.  The last row stays exact because
    I has no kink above the last kink of c_n.  -(Gamma/2) is folded into
    the integral's divisors, and -(Gamma/2) I is kept below a zero row, so
    the delayed table is a view of it.  For tau = 0 the table is one row that is
    its own delayed copy; for tau = inf no loop returns.  The result has
    breakpoints k tau and agrees with the closed form at every finite t >= 0.
    Below 0 it extends segment 0 (c_0(-1) = 1, where the closed form gives
    0), and it refuses a t that is not finite (`pp_eval`).

    n is an even non-negative integer up to 300 (read through
    operator.index); anything else, or a larger n, is a ValueError raised
    before the table is allocated.
    """
    m = _loop_count(n)
    if n > _MAX_ORDER:
        raise ValueError(f"n must be at most {_MAX_ORDER} for the iterative table, got {n}: "
                         "(Gamma/2)^(n/2) / (n/2)! is subnormal from it on")
    tau = params.tau
    rows = m + 1 if 0 < tau < math.inf else 1
    rho = _round_trip_mirror(params)
    degrees = np.arange(1.0, m + 1)
    # numpy divides a complex by a real as a product with its reciprocal
    scale = 1.0 / (degrees / -(params.gamma / 2.0))
    table = np.zeros((rows, m + 1), dtype=complex)
    table[:, 0] = 1.0
    lagged = np.zeros((rows + 1, m + 1), dtype=complex)  # row 0 stays 0
    anti = lagged[1:]  # -(Gamma/2) I
    # tau = 0: the loop returns at once; tau = inf: rho = 0
    delayed = lagged[:-1] if rows > 1 else anti
    with np.errstate(over="ignore", invalid="ignore"):
        powers = (tau**degrees).astype(complex)  # integral over one interval: sum_i C[k, i] tau^i
        for _ in range(m):
            np.multiply(table[:, :-1], scale, out=anti[:, 1:])
            if rows > 1:
                np.add.accumulate(anti[:-1, 1:] @ powers, out=anti[1:, 0])
            np.multiply(rho, delayed, out=table)
            table += anti
    breakpoints = (0.0,) + tuple(k * tau for k in range(1, rows))
    if not np.all(np.isfinite(table)):  # also when k tau overflows: then tau^2 does
        raise OverflowError(
            f"c_{n} at tau = {tau}: the coefficients of (t - k tau)^i on the lattice "
            "are beyond the double range"
        )
    return PiecewisePolynomial(breakpoints, tuple(map(tuple, table.tolist())))


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


def _times(t) -> np.ndarray:
    """t as a float array; the P_e curves refuse a negative or non-finite t."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("times must be finite")
    return t_arr


def excitation_amplitude_exact(params: SystemParams, t):
    """Exact excited-state amplitude <e,0|psi(t)> = exp(-i Omega t) f(t).

    For tau = 0 the round-trip lattice collapses and the amplitude reduces
    to the Markovian limit exp(-i Omega t) exp(a t).

    Raises:
        ValueError: If any t is negative or not finite.
    """
    return round_trip_series(params, _times(t))


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


def _longtime_pole(params: SystemParams) -> tuple[complex, complex]:
    """(xi, xi0) = (W_0(a tau) / tau, 1 / (1 + W_0(a tau))), the pole of
    1 / (s - a exp(-s tau)) with the largest real part and its residue; (a, 1)
    without a lattice (tau < _NO_DELAY) or a mirror (a = 0); z and W_0 are the `_plan`'s.

    Raises:
        NoLongtimeSolution: If a tau is not finite, or real (to _REAL_AXIS)
            and at or below -1/e: W_0 and a second branch share the largest
            real part.
    """
    consts, tau = derived_constants(params), params.tau
    if tau < _NO_DELAY or consts.a == 0:
        return consts.a, 1.0 + 0j
    plan = _plan(*_series_key(params))
    if plan.w0 is None:
        raise NoLongtimeSolution("a tau exceeds the double range")
    if math.e * plan.z.real <= -1.0 and abs(plan.z.imag) <= _REAL_AXIS * abs(plan.z):
        raise NoLongtimeSolution(
            f"a tau = {plan.z.real:.6g} is real and at or below -1/e: two poles share "
            "the slowest decay, so no single exponential dominates"
        )
    return plan.w0 / tau, 1.0 / (1.0 + plan.w0)


def solve_xi(params: SystemParams) -> complex:
    """Long-time decay constant xi = W_0(a tau) / tau, the root of
    xi exp(xi tau) = a with the largest real part: the pole of `_longtime_pole`.

    Raises:
        NoLongtimeSolution: If a tau is not finite, or real and at or below
            -1/e (see NoLongtimeSolution).
    """
    return _longtime_pole(params)[0]


def solve_longtime(params: SystemParams) -> DerivedConstants:
    """Populate xi and xi0 of the long-time solution xi0 exp(-i Omega t + xi t).

    xi = W_0(a tau) / tau and xi0 = 1 / (1 + W_0(a tau)), the dominant pole
    of 1 / (s - a exp(-s tau)) and its residue (`_longtime_pole`); only the
    radius of the prefactor series is added here, checked after the pole.

    Raises:
        NoLongtimeSolution: If no single pole dominates (see NoLongtimeSolution).
        Xi0Diverges: If e |a| tau >= 1, outside the radius of the prefactor
            series; solve_xi still returns xi there.
    """
    consts = derived_constants(params)
    xi, xi0 = _longtime_pole(params)
    # radius of the all-orders series; 0 * inf is nan at tau = inf without a mirror
    ratio = math.e * abs(consts.a) * params.tau if consts.a else 0.0
    if not ratio < 1.0:
        raise Xi0Diverges(
            f"e |a| tau = {ratio:.6g} >= 1: the prefactor series "
            "sum_k (-k)^k (a tau)^k / k! diverges"
        )
    return replace(consts, xi=xi, xi0=xi0)


def excitation_probability_longtime(params: SystemParams, t):
    """Long-time exponential P_e(t) = |xi0|^2 exp(-(Gamma - 2 Re xi) t).

    Valid for t >> tau.  Solves its own constants, so it raises what
    solve_longtime raises, and ValueError for a negative or non-finite t.
    """
    t_arr = _times(t)
    constants = solve_longtime(params)
    rate = params.gamma - 2.0 * constants.xi.real
    result = abs(constants.xi0) ** 2 * np.exp(-rate * t_arr)
    return float(result[()]) if t_arr.ndim == 0 else result


# ---------------------------------------------------------------------------
# Markovian limit and dressed picture
# ---------------------------------------------------------------------------


def excitation_probability_markovian(params: SystemParams, t):
    """Markovian P_e(t) = exp(-Gamma_eff t) at the dressed rate of `dressed_params`.

    The round-trip propagation time is neglected but the round-trip phase is
    kept.  For real r_m this is exp(-Gamma t [1 + r_m cos(omega_e tau)]); a
    complex r_m only shifts the phase.

    Raises:
        ValueError: If any t is negative or not finite, or tau is infinite.
    """
    t_arr = _times(t)
    result = np.exp(-dressed_params(params).gamma_eff * t_arr)
    return float(result[()]) if t_arr.ndim == 0 else result


def dressed_params(params: SystemParams) -> DressedParams:
    """Mirror-dressed frequency shift and decay rate in the Markovian limit.

    Delta_eff = (Gamma/2) Im(r_m e^{i omega_e tau}) and
    Gamma_eff = Gamma [1 + Re(r_m e^{i omega_e tau})]; for real r_m these are
    the familiar (Gamma/2) r_m sin(omega_e tau) and
    Gamma [1 + r_m cos(omega_e tau)].

    Raises:
        ValueError: If tau is infinite, where omega_e tau has no value.
    """
    if math.isinf(params.tau):
        raise ValueError("the Markovian limit needs a finite tau: the round-trip phase "
                         "omega_e tau is undefined for tau = inf")
    return DressedParams(*_dressed_rates(params.r_m, params.round_trip_phase, params.gamma))


def _dressed_rates(r_m: complex, phase: float, gamma: float) -> tuple[float, float]:
    """Delta_eff and Gamma_eff of `dressed_params` at the round-trip phase `phase`."""
    rho = r_m * cmath.exp(1j * phase)
    return gamma / 2.0 * rho.imag, gamma * (1.0 + rho.real)
