"""Reference values for the benchmark's correctness checks, computed with mpmath.

Nothing here imports mirrorqed: every value is derived from the physics
directly, so a defect in the package cannot hide in its own reference.
All functions take the same floats the CLI parses (Gamma = 1, c = 1) and
return mpmath numbers.

- `causal_series`: the exact round-trip sum f(u) = sum_k a^k (u - k tau)^k / k!
  at whatever working precision its own cancellation needs.
- `residue_series`: the same f(u) as the Lambert-W residue expansion
  sum_j exp(s_j u) / (1 + s_j tau), s_j = W_j(a tau) / tau, for long times.
- `longtime_constants`: xi = W_0(a tau) / tau and xi0 = 1 / (1 + xi tau).
- `laplace_amplitude`: the emitted-photon spectrum from the Laplace transform
  F(s) = 1 / (s - a exp(-s tau)), s = -i (omega - Omega).
- `markovian_probability` and `dressed`: the closed-form Markovian curves.

Values that take seconds (the 140-digit sum of the cancellation case) are
cached in reference.json next to this file; `python3 bench/oracle.py
--regenerate` recomputes them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import mpmath as mp

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Digits kept beyond those the series' own cancellation eats.
_SERIES_DIGITS = 25
# f(u) is summed term by term while u / tau stays below this; beyond it the
# residue expansion is exact to double precision and far cheaper.
_MAX_SERIES_TERMS = 400
_BRANCHES = 4
# Working precision of the closed forms: well past the double results they check.
_precise = mp.workdps(30)


def feedback(tau, phase, r_m):
    """a = -r_m exp(i Omega tau) / 2 with Omega = omega_e - i / 2, omega_e tau = phase."""
    return -mp.mpf(r_m) * mp.expj(mp.mpf(phase)) * mp.exp(mp.mpf(tau) / 2) / 2


def causal_series(tau, phase, r_m, u, digits=_SERIES_DIGITS):
    """f(u) with `digits` significant digits, raising the precision until it has them."""
    u, tau_m = mp.mpf(u), mp.mpf(tau)
    if u < 0:
        return mp.mpc(0)
    dps = digits + 15
    while True:
        with mp.workdps(dps):
            a = feedback(tau, phase, r_m)
            total, biggest = mp.mpc(1), mp.mpf(1)
            k = 1
            while u - k * tau_m > 0:
                term = (a * (u - k * tau_m)) ** k / mp.factorial(k)
                total += term
                biggest = max(biggest, abs(term))
                k += 1
            lost = 0 if total == 0 else int(mp.ceil(mp.log10(biggest / abs(total))))
            if lost + digits + 5 <= dps:
                return +total
        dps = lost + digits + 15


@_precise
def residue_series(tau, phase, r_m, u, branches=_BRANCHES):
    """f(u) as the residue sum over Lambert-W branches |j| <= `branches`.

    Raises ValueError when the outermost branches still matter, i.e. when u is
    too close to 0 for the truncated expansion to be exact.
    """
    tau, u = mp.mpf(tau), mp.mpf(u)
    a = feedback(tau, phase, r_m)
    if a == 0:
        return mp.mpc(1)
    terms = []
    for j in range(-branches, branches + 1):
        s = mp.lambertw(a * tau, j) / tau
        terms.append(mp.exp(s * u) / (1 + s * tau))
    total = mp.fsum(terms)
    tail = max(abs(terms[0]), abs(terms[-1]))
    if tail > mp.mpf(10) ** -20 * abs(total):
        raise ValueError(f"residue expansion not converged at u = {u}, tau = {tau}")
    return total


@_precise
def excitation_probability(tau, phase, r_m, t):
    """Exact P_e(t) = exp(-t) |f(t)|^2."""
    t = mp.mpf(t)
    if t < tau:
        return mp.exp(-t)  # causality: no round trip has completed
    if t / tau <= _MAX_SERIES_TERMS:
        f = causal_series(tau, phase, r_m, t)
    else:
        f = residue_series(tau, phase, r_m, t)
    return mp.exp(-t) * abs(f) ** 2


@_precise
def longtime_constants(tau, phase, r_m):
    """(xi, xi0) of the long-time regime f(u) ~ xi0 exp(xi u), from W_0."""
    tau = mp.mpf(tau)
    a = feedback(tau, phase, r_m)
    xi = mp.lambertw(a * tau, 0) / tau
    return xi, 1 / (1 + xi * tau)


@_precise
def xi0_series_ratio(tau, phase, r_m):
    """sum_k (-k)^k (a tau)^k / k! converges iff e |a| tau < 1; returns e |a| tau."""
    return mp.e * abs(feedback(tau, phase, r_m)) * tau


@_precise
def longtime_probability(xi, xi0, t):
    return abs(xi0) ** 2 * mp.exp(-(1 - 2 * xi.real) * mp.mpf(t))


@_precise
def markovian_probability(tau, phase, r_m, t):
    """exp(-t [1 + r_m cos(phase)]) for real r_m."""
    return mp.exp(-mp.mpf(t) * (1 + mp.mpf(r_m) * mp.cos(mp.mpf(phase))))


@_precise
def dressed(phase, r_m):
    """(delta_eff, gamma_eff) = (r_m sin(phase) / 2, 1 + r_m cos(phase))."""
    phase, r_m = mp.mpf(phase), mp.mpf(r_m)
    return r_m * mp.sin(phase) / 2, 1 + r_m * mp.cos(phase)


@_precise
def left_density(tau, phase, r_m, x, t):
    """Density of the left-moving photon at x <= 0, direct plus reflected part.

    Returns (density, scale) where scale = (|direct| + |reflected|)^2 / 2
    bounds the rounding error of any double-precision evaluation of the sum.
    """
    tau, x, t = mp.mpf(tau), mp.mpf(x), mp.mpf(t)
    omega = mp.mpf(phase) / tau - mp.mpc(0, 0.5)
    u = x + t
    parts = []
    if u >= 0:
        parts.append(mp.exp(-1j * omega * u) * causal_series(tau, phase, r_m, u))
    if u >= tau:
        parts.append(mp.mpf(r_m) * mp.exp(-1j * omega * (u - tau))
                     * causal_series(tau, phase, r_m, u - tau))
    return abs(mp.fsum(parts)) ** 2 / 2, mp.fsum(abs(p) for p in parts) ** 2 / 2


@_precise
def laplace_amplitude(tau, omega_e, r_m, omega):
    """(1 + r_m e^{i omega tau}) F(s) at s = -i (omega - Omega); |.|^2 is the spectrum.

    In a trapping regime a pole of F can sit on the real axis where the
    mirror factor vanishes; that removable point is read off as the mean of
    its neighbours.
    """
    tau, omega_e, r_m, omega = (mp.mpf(v) for v in (tau, omega_e, r_m, omega))
    a = -r_m * mp.expj(omega_e * tau) * mp.exp(tau / 2) / 2
    s = mp.mpc(0.5, omega_e - omega)
    den = s - a * mp.exp(-s * tau)
    if abs(den) < mp.mpf(10) ** -12:
        step = mp.mpf(10) ** -6
        return (laplace_amplitude(tau, omega_e, r_m, omega - step)
                + laplace_amplitude(tau, omega_e, r_m, omega + step)) / 2
    return (1 + r_m * mp.expj(omega * tau)) / den


@_precise
def dyson_coefficient(tau, phase, r_m, n, t):
    """Closed-form c_n(t) and the sum of its terms' magnitudes, which scales its rounding error.

    c_n(t) = (-1/2)^m / m! sum_k C(m, k) (r_m e^{i phase})^k (t - k tau)^m, m = n / 2.
    """
    m = n // 2
    tau, t = mp.mpf(tau), mp.mpf(t)
    rho = mp.mpf(r_m) * mp.expj(mp.mpf(phase))
    terms = [mp.binomial(m, k) * rho**k * (t - k * tau) ** m
             for k in range(m + 1) if t - k * tau >= 0]
    prefactor = (-mp.mpf(1) / 2) ** m / mp.factorial(m)
    return prefactor * mp.fsum(terms), abs(prefactor) * mp.fsum(abs(v) for v in terms)


# ---------------------------------------------------------------------------
# Cached references
# ---------------------------------------------------------------------------

# Catastrophic-cancellation case: the double-precision sum loses all digits.
CANCELLATION_CASE = {"tau": 0.01, "phase": math.pi, "r_m": -1.0, "t": 100.0, "dps": 140}


def _cancellation_reference() -> dict:
    case = CANCELLATION_CASE
    with mp.workdps(case["dps"]):
        a = feedback(case["tau"], case["phase"], case["r_m"])
        u, tau = mp.mpf(case["t"]), mp.mpf(case["tau"])
        total = mp.mpc(1)
        for k in range(1, int(mp.floor(u / tau)) + 1):
            if u - k * tau > 0:
                total += (a * (u - k * tau)) ** k / mp.factorial(k)
        p_e = mp.exp(-u) * abs(total) ** 2
        return dict(case, P_e=mp.nstr(p_e, 30))


def regenerate() -> None:
    refs = {"cancellation": _cancellation_reference()}
    REFERENCE_FILE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regenerate", action="store_true",
                        help=f"recompute the cached values in {REFERENCE_FILE.name}")
    args = parser.parse_args(argv)
    if args.regenerate:
        regenerate()
    print(json.dumps(load_references(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
