"""Physical parameters, mirror scattering, and piecewise-polynomial algebra.

Everything works in normalized units: the free-space decay rate Gamma is the
unit of rate (Gamma = 1) and the speed of light is c = 1, so times are
measured in 1/Gamma, positions in c/Gamma, and the emitter-mirror round-trip
time tau carries all the geometry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

UNITARITY_TOL = 1e-9


class Direction(IntEnum):
    """Propagation direction of a field excitation along the waveguide axis."""

    LEFT = -1
    RIGHT = +1


@dataclass(frozen=True)
class SystemParams:
    """Configuration of the emitter-mirror system in Gamma-normalized units.

    Attributes:
        omega_e: Emitter transition frequency (units of Gamma).
        tau: Round-trip time emitter -> mirror -> emitter (units of 1/Gamma).
        r_m: Complex mirror reflection coefficient, |r_m| <= 1; one up to
            1 + 1e-9 is taken as rounding and scaled onto the unit circle.
        t_m: Real mirror transmission sqrt(1 - |r_m|^2), derived from r_m.
        gamma: Free-space decay rate Gamma, the unit of rate: always 1.0.
    """

    omega_e: float
    tau: float
    r_m: complex
    t_m: float = field(init=False)
    gamma: float = field(default=1.0, init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_m", complex(self.r_m))
        if not self.tau >= 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        if not 0 <= self.omega_e < math.inf:
            raise ValueError(f"omega_e must be finite and non-negative, got {self.omega_e}")
        if self.tau < math.inf and not math.isfinite(float(self.omega_e) * float(self.tau)):
            raise ValueError(f"omega_e tau must be finite at a finite tau, got omega_e = "
                             f"{self.omega_e} and tau = {self.tau}")
        if not abs(self.r_m) <= 1 + UNITARITY_TOL:
            raise ValueError(f"|r_m| must not exceed 1, got {abs(self.r_m)}")
        if abs(self.r_m) > 1:  # within the tolerance: onto the unit circle, not past it
            r_m = self.r_m / abs(self.r_m)
            while abs(r_m) > 1:  # the division can round one ulp above
                r_m = complex(math.nextafter(r_m.real, 0.0), math.nextafter(r_m.imag, 0.0))
            object.__setattr__(self, "r_m", r_m)
        object.__setattr__(self, "t_m", math.sqrt(max(0.0, 1.0 - abs(self.r_m) ** 2)))

    @classmethod
    def from_round_trip_phase(cls, tau: float, phase: float, r_m: complex) -> "SystemParams":
        """Build params from the round-trip phase omega_e * tau instead of omega_e.

        Needs 0 < tau < inf: omega_e = phase / tau keeps no phase at tau = 0 or inf.
        """
        if not 0 < tau < math.inf:
            raise ValueError(f"from_round_trip_phase requires 0 < tau < inf, got {tau}; "
                             "pass omega_e directly")
        return cls(omega_e=phase / tau, tau=tau, r_m=r_m)

    @property
    def round_trip_phase(self) -> float:
        """Phase omega_e * tau accumulated at the transition frequency per round trip."""
        return self.omega_e * self.tau

    @property
    def coupling(self) -> float:
        """Emitter-field coupling magnitude |g| = sqrt(Gamma c / 2), with c = 1."""
        return math.sqrt(self.gamma / 2.0)


@dataclass(frozen=True)
class DerivedConstants:
    """Complex constants of the exact and long-time solutions.

    Attributes:
        a: Feedback strength of one emitter-mirror round trip,
            a = -r_m exp(i Omega tau) Gamma / 2.
        omega_complex: Complex transition frequency Omega = omega_e - i Gamma / 2.
        xi: Long-time decay constant W_0(a tau) / tau, the root of
            xi exp(xi tau) = a with the largest real part (None until solved).
        xi0: Long-time amplitude prefactor 1 / (1 + W_0(a tau)), the sum of
            sum_k (-k)^k (a tau)^k / k! for e |a| tau < 1 (None until solved).
    """

    a: complex
    omega_complex: complex
    xi: complex | None = None
    xi0: complex | None = None


def mirror_coefficients(j_over_c: float) -> tuple[float, complex]:
    """Transmission and reflection coefficients of a mirror with coupling rate J.

    t_m = (1 - (J/2c)^2) / (1 + (J/2c)^2) and r_m = -i (J/c) / (1 + (J/2c)^2),
    which satisfy t_m^2 + |r_m|^2 = 1 for any J >= 0.  Above J/c = 2e150
    they round to t_m = -1 and r_m = -4i c/J, which are taken directly: (J/2c)^2
    overflows above J/c ~ 2.7e154.  J = inf gives the mirror t_m = -1, r_m = 0.

    Args:
        j_over_c: Mirror coupling rate divided by the speed of light, J/c >= 0
            (inf allowed, NaN rejected).

    Returns:
        (t_m, r_m) with t_m real and r_m purely imaginary (Im r_m <= 0).
    """
    if not j_over_c >= 0:
        raise ValueError(f"J/c must be non-negative, got {j_over_c}")
    half = j_over_c / 2.0
    if half > 1e150:
        return -1.0, -1j * (2.0 / half)
    denom = 1.0 + half * half
    t_m = (1.0 - half * half) / denom
    r_m = -1j * j_over_c / denom
    return t_m, r_m


def derived_constants(params: SystemParams) -> DerivedConstants:
    """Round-trip feedback constant a and complex frequency Omega for `params`.

    The exponent uses the complex frequency Omega = omega_e - i Gamma/2, so
    |a| picks up a factor exp(Gamma tau / 2) relative to -r_m Gamma/2.  When
    that factor exceeds the double range (Gamma tau > ~1420, a mirror so far
    away it never acts) a saturates to complex infinity.
    """
    omega_complex = params.omega_e - 0.5j * params.gamma
    exponent = 1j * omega_complex * params.tau
    if params.r_m == 0:
        a = 0j
    elif exponent.real > 709.0:
        a = complex(math.inf, math.inf)
    else:
        a = -params.r_m * cmath.exp(exponent) * params.gamma / 2.0
    return DerivedConstants(a=a, omega_complex=omega_complex)


# ---------------------------------------------------------------------------
# Piecewise polynomials on the round-trip lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Complex-coefficient polynomial segments with ordered breakpoints.

    Segment j holds coefficients (ascending degree) of the local variable
    u = t - breakpoints[j] and is valid on [breakpoints[j], breakpoints[j+1]);
    the last segment extends to +infinity.  Evaluation below the first
    breakpoint uses segment 0.  The local representation keeps shifts exact:
    delaying a polynomial only translates its breakpoints.
    """

    breakpoints: tuple[float, ...]
    segments: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.segments):
            raise ValueError("need exactly one segment per breakpoint")
        if not self.breakpoints:
            raise ValueError("need at least one breakpoint")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    def __call__(self, t):
        return pp_eval(self, t)

    @property
    def degree(self) -> int:
        return max(len(seg) - 1 for seg in self.segments)


def _poly_eval(coeffs: tuple[complex, ...], u):
    """Horner evaluation of ascending-degree coefficients at u (array-safe)."""
    acc = np.zeros_like(np.asarray(u, dtype=float), dtype=complex)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _poly_rebase(coeffs: tuple[complex, ...], delta: float) -> tuple[complex, ...]:
    """Re-express a polynomial in u as one in v = u - delta (binomial shift)."""
    out = [0j] * len(coeffs)
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        # (v + delta)^i expanded term by term
        for k in range(i + 1):
            out[k] += c * math.comb(i, k) * delta ** (i - k)
    return tuple(out)


def pp_eval(p: PiecewisePolynomial, t):
    """Evaluate p at scalar or array t.

    Each point gathers its segment's row of a zero-padded coefficient table,
    and one Horner pass covers all points.  The leading zero steps leave the
    accumulator at +0, so every point sees exactly its own segment's Horner
    recurrence.
    """
    t_arr = np.asarray(t, dtype=float)
    breakpoints = np.asarray(p.breakpoints)
    idx = np.clip(np.searchsorted(breakpoints, t_arr, side="right") - 1, 0, None)
    width = p.degree + 1
    table = np.array([seg + (0j,) * (width - len(seg)) for seg in p.segments], dtype=complex)
    coeffs = table[idx]
    u = t_arr - breakpoints[idx]
    out = np.zeros(t_arr.shape, dtype=complex)
    for i in reversed(range(width)):
        out = out * u + coeffs[..., i]
    return complex(out[()]) if t_arr.ndim == 0 else out


def pp_integrate(p: PiecewisePolynomial, from_zero: bool = True) -> PiecewisePolynomial:
    """Antiderivative of p with exact coefficients, continuous across breakpoints.

    With from_zero the constant is fixed so the result vanishes at t = 0,
    i.e. it returns the running integral from 0; otherwise it vanishes at the
    first breakpoint.
    """
    segments = []
    const = 0j
    for j, seg in enumerate(p.segments):
        anti = (const,) + tuple(c / (i + 1) for i, c in enumerate(seg))
        segments.append(anti)
        if j + 1 < len(p.breakpoints):
            const = complex(_poly_eval(anti, p.breakpoints[j + 1] - p.breakpoints[j]))
    q = PiecewisePolynomial(p.breakpoints, tuple(segments))
    anchor = 0.0 if from_zero else p.breakpoints[0]
    offset = pp_eval(q, anchor)
    if offset != 0:
        segments = [(seg[0] - offset,) + seg[1:] for seg in q.segments]
        q = PiecewisePolynomial(p.breakpoints, tuple(segments))
    return q


def pp_shift(p: PiecewisePolynomial, delay: float) -> PiecewisePolynomial:
    """Delay p by `delay`: q(t) = p(t - delay) for t >= delay, else 0.

    The local segment coefficients are reused untouched, so the shift is
    exact; a zero segment is prepended to cover t < first breakpoint + delay.
    """
    if delay < 0:
        raise ValueError(f"delay must be non-negative, got {delay}")
    if delay == 0:
        return p
    breakpoints = (p.breakpoints[0],) + tuple(b + delay for b in p.breakpoints)
    segments = ((0j,),) + p.segments
    return PiecewisePolynomial(breakpoints, segments)


def pp_scale(p: PiecewisePolynomial, factor: complex) -> PiecewisePolynomial:
    """Multiply p by a complex scalar."""
    return PiecewisePolynomial(
        p.breakpoints, tuple(tuple(factor * c for c in seg) for seg in p.segments)
    )


def pp_add(p: PiecewisePolynomial, q: PiecewisePolynomial) -> PiecewisePolynomial:
    """Pointwise sum of two piecewise polynomials on the merged breakpoint set."""
    merged = sorted(set(p.breakpoints) | set(q.breakpoints))
    segments = []
    for b in merged:
        jp = max(np.searchsorted(p.breakpoints, b, side="right") - 1, 0)
        jq = max(np.searchsorted(q.breakpoints, b, side="right") - 1, 0)
        sp = _poly_rebase(p.segments[jp], b - p.breakpoints[jp])
        sq = _poly_rebase(q.segments[jq], b - q.breakpoints[jq])
        width = max(len(sp), len(sq))
        sp += (0j,) * (width - len(sp))
        sq += (0j,) * (width - len(sq))
        segments.append(tuple(cp + cq for cp, cq in zip(sp, sq)))
    return PiecewisePolynomial(tuple(merged), tuple(segments))


def pp_snap(p: PiecewisePolynomial, spacing: float, rel_tol: float = 1e-9) -> PiecewisePolynomial:
    """Snap breakpoints onto the lattice k * spacing.

    Breakpoints are meant to be integer multiples of the round-trip time;
    snapping recomputes each one as round(b/spacing) * spacing so repeated
    shifts never accumulate rounding drift.
    """
    if spacing <= 0:
        return p
    snapped = []
    for b in p.breakpoints:
        k = round(b / spacing)
        lattice = k * spacing
        snapped.append(lattice if abs(b - lattice) <= rel_tol * max(spacing, 1.0) else b)
    return PiecewisePolynomial(tuple(snapped), p.segments)
