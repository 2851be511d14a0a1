"""Spatial and spectral profiles of the emitted single-photon wave packet.

Once the emitter has released its excitation, the field holds one photon
distributed over four kinematic components: the part emitted directly to the
left of the emitter, the part reflected off the mirror (which interferes with
the direct part once it passes the emitter), the right-moving part still
between emitter and mirror, and the part transmitted through the mirror.
Each component is the emitter amplitude at its retarded emission time,
weighted by 1, r_m or t_m.

The spectrum of the left-moving photon comes in two forms.  `laplace_spectrum`
is the closed form of the whole emitted photon, from the Laplace transform of
the emitter amplitude; it needs no time window and no field samples, and holds
for every emitter that decays.  `spectrum` Fourier transforms field samples of
the window [-c t_final, 0) at time t_final, so it is the spectrum of whatever
part of the photon that window holds; it also covers trapped emitters, whose
photon is never complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Direction, SystemParams
from .analytic import (
    _NO_DELAY, _REAL_AXIS, _exp, _round_trip_mirror, excitation_probability_exact,
    round_trip_series,
)

_DECAYED_THRESHOLD = 1e-6


class EmitterNotDecayed(ValueError):
    """Spectrum requested before the emitter has (numerically) reached its ground state."""


@dataclass(frozen=True)
class SpatialProfile:
    """Photon probability density per unit length sampled on a position grid.

    `region_index` is the number of completed round trips n that labels the
    interval each sample falls into: -c t + n d <= x < -c t + (n+1) d for
    left-movers and c t - (n+1) d < x <= c t - n d for right-movers, with
    d = c tau.  It is -1 outside the light cone: x < -c t for left-movers,
    and x < 0 or x > c t for right-movers.  A delay below the smallest normal
    double labels every sample inside 0, as tau = 0 does, and a count past
    the int64 range saturates at np.iinfo(np.int64).max.
    """

    positions: np.ndarray
    amplitudes: np.ndarray
    density: np.ndarray
    direction: Direction
    region_index: np.ndarray
    time: float


@dataclass(frozen=True)
class Spectrum:
    """Peak-normalized spectral probability density of the emitted photon.

    `amplitudes` holds the unitary DFT output before peak normalization, so
    sum |amplitudes|^2 equals the summed |spatial samples|^2 (Parseval).
    The other fields describe the window grid; the system, omega_e included,
    is the SystemParams passed to `spectrum`.
    """

    frequencies: np.ndarray
    spectral_density: np.ndarray
    amplitudes: np.ndarray
    t_final: float
    sample_count: int
    spacing: float


def _light_cone(x: np.ndarray, s: np.ndarray, direction: Direction) -> np.ndarray:
    """Where a photon emitted at time s can be: s >= 0, and x >= 0 for right-movers."""
    return (s >= 0) if direction is Direction.LEFT else (x >= 0) & (s >= 0)


def _components(params: SystemParams, x: np.ndarray, s: np.ndarray, direction: Direction):
    """Region table at positions x with emission times s: rows (support, delay, weight).

    On its support a row is weight F(s - delay), F(s) = exp(-i Omega s) f(s)
    the emitter amplitude at the retarded emission time, and the weight
    carries -i g / c: left-movers take delay 0 (direct) or tau (reflected,
    r_m), right-movers delay 0, weight 1 before the mirror and t_m behind it.
    The caller forms s from x (x + t, or t - x for right-movers) or x from s.
    Boundary points use the convention Theta(0) = 1, except that the mirror
    position x = d/2 belongs to the transmitted region for right-movers and
    to the reflected region for left-movers (no double counting).
    """
    half_d = params.tau / 2.0  # emitter-mirror distance, c = 1
    cone = _light_cone(x, s, direction)
    if direction is Direction.LEFT:
        rows = [((x <= 0) & cone, 0.0, 1.0),
                ((x <= half_d) & (s >= params.tau), params.tau, params.r_m)]
    else:
        behind = x >= half_d
        rows = [(~behind & cone, 0.0, 1.0), (behind & cone, 0.0, params.t_m)]
    pre = -1j * params.coupling
    return [(support, delay, pre * weight) for support, delay, weight in rows]


def _amplitudes(params: SystemParams, s: np.ndarray, tables):
    """Yield the amplitude of each table of `_components` rows at emission times s.

    Rows of one delay share one evaluation over the union of their supports,
    and all share one series call: each emission time is evaluated once.
    """
    covers = {}
    for support, delay, _ in (row for rows in tables for row in rows):
        covers[delay] = covers[delay] | support if delay in covers else support
    series = round_trip_series(params, np.concatenate(
        [s[cover] - delay if delay else s[cover] for delay, cover in covers.items()]))
    counts = [np.count_nonzero(cover) for cover in covers.values()]
    ends = np.cumsum(counts)
    values = {delay: series[end - n : end] for delay, n, end in zip(covers, counts, ends)}
    for rows in tables:
        amp = np.zeros(s.shape, dtype=complex)
        for support, delay, weight in rows:
            f, cover = values[delay], covers[delay]
            amp[support] += weight * (f if support is cover else f[support[cover]])
        yield amp


def _field(params: SystemParams, x: np.ndarray, direction: Direction, t: float):
    """Emission times, light cone and total amplitude of one direction at positions x."""
    direction = Direction(direction)  # +-1 name the members; anything else is refused
    if np.isnan(x).any():
        raise ValueError("positions must not be nan")
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    s = x + t if direction is Direction.LEFT else t - x
    (amp,) = _amplitudes(params, s, [_components(params, x, s, direction)])
    return s, _light_cone(x, s, direction), amp


def field_amplitude(params: SystemParams, x, direction: Direction, t: float):
    """Total single-photon amplitude at position(s) x for one direction.

    Vectorized over x; returns 0 outside the light cone and outside each
    component's support, x = +-inf included, and refuses a nan x (ValueError).
    """
    *_, amp = _field(params, np.asarray(x, dtype=float), direction, t)
    return amp if amp.ndim else complex(amp)


def photon_density(params: SystemParams, x, direction: Direction, t: float):
    """Probability density per unit length for a photon at (x, direction, t).

    Covers all regions: interfering direct plus reflected left-movers for
    x < 0, reflected-only left-movers between emitter and mirror, right-movers
    before the mirror, and the transmitted tail (amplitude carrying t_m)
    behind it.  Zero outside the light cone.
    """
    amp = field_amplitude(params, x, direction, t)
    density = np.abs(np.asarray(amp)) ** 2
    return float(density[()]) if np.asarray(x).ndim == 0 else density


def spatial_profile(
    params: SystemParams, t: float, positions, direction: Direction
) -> SpatialProfile:
    """Sample the wave packet of one direction on a position grid; refuses a nan position."""
    positions = np.asarray(positions, dtype=float)
    emitted, cone, amplitudes = _field(params, positions, direction, t)
    if params.tau >= _NO_DELAY:
        with np.errstate(over="ignore"):  # s / tau past the double range is inf
            trips = np.floor(emitted / params.tau)
    else:
        trips = np.zeros(positions.shape)
    saturated = trips >= 2.0**63
    region = np.where(cone & ~saturated, trips, 0.0).astype(np.int64)
    region[saturated] = np.iinfo(np.int64).max
    region[~cone] = -1
    return SpatialProfile(
        positions=positions,
        amplitudes=amplitudes,
        density=np.abs(amplitudes) ** 2,
        direction=Direction(direction),
        region_index=region,
        time=t,
    )


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------


def _frequency_grid(t_final: float, sample_count: int) -> np.ndarray:
    """Ascending angular frequencies of a DFT over sample_count samples t_final long."""
    return 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(sample_count, d=t_final / sample_count))


def _peak_normalized(density: np.ndarray) -> np.ndarray:
    peak = density.max()
    return density / peak if peak > 0 else density


def _decay_residual(
    params: SystemParams, t_final: float, sample_count: int, allow_undecayed: bool
) -> float:
    """P_e(t_final) for a valid spectrum grid; raises where `spectrum` does."""
    if sample_count < 2 or sample_count & (sample_count - 1):
        raise ValueError(f"sample_count must be a power of two, got {sample_count}")
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    # a normal spacing also keeps the largest |omega|, pi / spacing < 1.5e308, finite
    if not t_final / sample_count >= np.finfo(float).tiny:
        raise ValueError(
            f"the grid spacing t_final / sample_count = {t_final} / {sample_count} must be "
            "a normal double, so that the largest |omega| = pi sample_count / t_final is finite"
        )
    residual = excitation_probability_exact(params, t_final)
    if residual > _DECAYED_THRESHOLD and not allow_undecayed:
        raise EmitterNotDecayed(
            f"P_e(t_final) = {residual:.3g} > {_DECAYED_THRESHOLD}; enlarge t_final "
            "or pass allow_undecayed for trapping regimes"
        )
    return residual


def _exactly_trapped(params: SystemParams) -> bool:
    """Whether 1 + r_m exp(i omega_e tau) vanishes within the rounding of omega_e tau.

    Then a bound state at omega_e keeps part of the excitation for good, and
    the closed-form amplitude of `laplace_spectrum` is 0/0 at omega_e.  The
    phase omega_e tau is rounded to ~eps |omega_e tau|, hence the scaled
    tolerance.  The rounding moves the phase of rho = r_m exp(i omega_e tau),
    not its modulus, and |1 + rho| >= 1 - |r_m|: so only |r_m| = 1 (to
    _REAL_AXIS) can trap, at any omega_e tau.
    """
    if 1.0 - abs(params.r_m) > _REAL_AXIS:
        return False
    mirror = abs(1.0 + _round_trip_mirror(params))
    return mirror <= _REAL_AXIS * max(1.0, abs(params.round_trip_phase))


def laplace_spectrum(params: SystemParams, frequencies) -> np.ndarray:
    """Spectral density |A(omega)|^2 of the whole photon emitted to the left.

    A is the left-moving amplitude after the emitter has decayed: the mirror
    factor times the Laplace transform F(s) = 1 / (s - a exp(-s tau)) of the
    emitter amplitude at s = Gamma/2 + i (omega_e - omega) (Tufarelli,
    Ciccarello & Kim, PRA 87, 013820 (2013)).  With rho = r_m exp(i omega tau),
    a exp(-s tau) = -(Gamma/2) rho, so

        A = (1 + rho) / ((Gamma/2) (1 + rho) + i (omega_e - omega)),

    exact at every frequency and free of the feedback constant a, which
    leaves the double range past Gamma tau ~ 1418.  Where tau omega overflows,
    rho keeps only its modulus |r_m| (see analytic._exp); where omega_e - omega
    overflows, the density is 0.  The density is not normalized; `mirrorqed
    spectrum` divides it by its peak on the grid.

    Raises:
        ValueError: If a frequency is not finite, or if omega_e tau is not
            finite, which SystemParams allows only at tau = inf: no reflection
            ever returns, and rho has no value.
        EmitterNotDecayed: If the emitter is exactly trapped, so that part of
            the excitation never leaves (r_m exp(i omega_e tau) = -1).
    """
    if not math.isfinite(params.round_trip_phase):
        raise ValueError(f"omega_e tau must be finite, got {params.round_trip_phase}")
    if _exactly_trapped(params):
        raise EmitterNotDecayed(
            "r_m exp(i omega_e tau) = -1: a bound state keeps part of the excitation"
        )
    omega = np.asarray(frequencies, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError("frequencies must be finite")
    with np.errstate(over="ignore"):
        phase = 1j * params.tau * omega
        detuning = params.omega_e - omega
    far = np.isinf(detuning)
    # A is 0 there, but 1j * inf has a nan real part; omega_e stands in for
    # those frequencies, where 1 + rho is not 0 unless the emitter is trapped
    if far.any():
        return np.where(far, 0.0, laplace_spectrum(params, np.where(far, params.omega_e, omega)))
    rho = params.r_m * _exp(phase)
    amplitude = (1.0 + rho) / (0.5 * params.gamma * (1.0 + rho) + 1j * detuning)
    return np.abs(amplitude) ** 2


def spectrum(
    params: SystemParams,
    t_final: float = 40.0,
    sample_count: int = 2**14,
    allow_undecayed: bool = False,
) -> Spectrum:
    """Spectral probability density of the part of the left-moving photon in a window.

    Phi_L(x, t_final) is sampled uniformly on x in [-c t_final, 0), read as a
    function of the time variable x/c, and Fourier transformed; the squared
    magnitudes on the conjugate frequency grid give the spectrum, normalized
    to unit peak.  No window function is applied.

    This is the spectrum of the finite window, and the decay guard does not
    make the window hold the whole photon: light the emitter sends towards
    the mirror after t_final - tau has not passed the emitter by t_final.  At
    tau 20, r_m -0.2 and t_final 40, P_e(t_final) is 8e-9, yet the result is
    ~2e-2 of the peak off the whole photon's spectrum (`laplace_spectrum`) at
    every sample count (phases 0-2), and 6e-4 to 1.5e-3 at t_final 80 with
    16384 samples.  Kinks of the field at the round-trip lattice alias too.

    Raises:
        ValueError: Unless sample_count is a power of two, 0 < t_final < inf
            and the spacing t_final / sample_count is a normal double.
        EmitterNotDecayed: If P_e(t_final) > 1e-6, unless `allow_undecayed`
            is set (trapping regimes never decay; their spectrum covers only
            the emitted part of the excitation).
    """
    _decay_residual(params, t_final, sample_count, allow_undecayed)
    return _window_spectrum(params, t_final, sample_count)


def _window_spectrum(params: SystemParams, t_final: float, sample_count: int) -> Spectrum:
    """The window FFT of `spectrum` on a grid that `_decay_residual` has passed."""
    spacing = t_final / sample_count  # in the time variable x/c
    x_grid = -t_final + spacing * np.arange(sample_count)
    samples = field_amplitude(params, x_grid, Direction.LEFT, t_final)
    # exp(+i omega x/c) convention so the line sits at +omega_e; the constant
    # phase exp(-i omega t_final) drops out of the magnitudes
    amplitudes = np.fft.fftshift(np.fft.ifft(samples)) * math.sqrt(sample_count)
    return Spectrum(
        frequencies=_frequency_grid(t_final, sample_count),
        spectral_density=_peak_normalized(np.abs(amplitudes) ** 2),
        amplitudes=amplitudes,
        t_final=t_final,
        sample_count=sample_count,
        spacing=spacing,
    )


def _whole_photon_spectrum(
    params: SystemParams, t_final: float, sample_count: int, allow_undecayed: bool
) -> tuple[np.ndarray, np.ndarray, str]:
    """(frequencies, peak-normalized density, method) on the grid of `spectrum`
    after one decay guard, as `mirrorqed spectrum` writes them.

    Method "laplace", the closed form, where it is the spectrum of the whole
    photon: the emitter passes the decay guard, reflected light has reached
    the window (tau < t_final; at tau >= t_final the spacing 2 pi / t_final
    cannot resolve the mirror's period 2 pi / tau either), and no bound state
    holds part of the excitation; else "fft", the window FFT of `spectrum`.
    Raises what `spectrum` raises.
    """
    residual = _decay_residual(params, t_final, sample_count, allow_undecayed)
    if residual > _DECAYED_THRESHOLD or not params.tau < t_final or _exactly_trapped(params):
        window = _window_spectrum(params, t_final, sample_count)
        return window.frequencies, window.spectral_density, "fft"
    frequencies = _frequency_grid(t_final, sample_count)
    return frequencies, _peak_normalized(laplace_spectrum(params, frequencies)), "laplace"


# ---------------------------------------------------------------------------
# Norm bookkeeping
# ---------------------------------------------------------------------------


# Gauss-Legendre order and longest panel of the photon-norm quadrature.  With
# Gamma = 1 the density's n-th derivative grows at most like 2**n, and
# exp(-i omega_e s) cancels in |amplitude|^2, so on a panel of 0.5 where the
# density is C^16 the 8-point error term is ~1e-28 max|f^(16)| (Davis &
# Rabinowitz, Methods of Numerical Integration, 1984).
_GAUSS_ORDER = 8
_PANEL_LEN = 0.5
# Most Gauss panels the norm admits, counted before any node is placed: t for the
# right-movers plus the end of the last interval, over _PANEL_LEN.  That is
# 4t + tau while tau <= 2t and 4t beyond: t reaches 8192 - tau / 4, and 8192 from
# tau 16384 on (just short of tau / 2 in between).  Just inside the edge (omega_e 1,
# r_m -0.5) tracemalloc peaks at 13.5 / 30.4 / 30.4 / 27.8 / 30.9 / 30.3 / 28.1 / 13.0
# / 15.6 / 15.6 MB at tau 0 / 0.02 / 1 / 100 / 500 / 700 / 1500 / 1e4 / 2e4 / inf.
_MAX_PANELS = 2**15


@lru_cache(maxsize=8)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _smooth_breaks(params: SystemParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Intervals (lo, hi) of emission time that hold a photon and a smooth density.

    Both directions are integrated over s = x + t (left) or t - x (right) on the
    same intervals: [0, t + tau / 2] cut at the fronts (s = 0), the emitter (t)
    and the mirror (t -+ tau / 2), where the density jumps, and at the first
    2m + 2 lattice points k tau, where (s - k tau)^k / k! starts a kink of order
    k (k - 1 reflected); past them it is C^(2m), as the m-point rule needs (m =
    _GAUSS_ORDER).  Intervals inside (t, tau) are dropped: the photon left the
    emitter over [0, t] and, reflected, over [tau, t + tau / 2].
    """
    tau = params.tau if params.tau >= _NO_DELAY else 0.0  # as in round_trip_series
    end = t + tau / 2.0  # no left-mover lies beyond x = tau / 2
    count = math.ceil(min(t / tau, 2 * _GAUSS_ORDER + 1)) + 1 if 0 < tau < math.inf else 0
    lattice = np.arange(1, count + 1) * tau
    points = np.unique(np.clip(np.concatenate([(0.0, t - tau / 2.0, t, end), lattice]), 0.0, end))
    kept = (points[1:] <= t) | (points[:-1] >= tau)
    return points[:-1][kept], points[1:][kept]


def _gauss_panels(lo: np.ndarray, hi: np.ndarray, order: int, max_len: float):
    """Nodes and weights of Gauss-Legendre panels of at most max_len on intervals [lo, hi].

    Each interval is cut into ceil((hi - lo) / max_len) equal pieces
    with np.linspace's arithmetic: edge k is k * step + lo, and the last one
    is hi itself.
    """
    pieces = np.maximum(1, np.ceil((hi - lo) / max_len)).astype(int)
    interval = np.repeat(np.arange(len(pieces)), pieces)
    k = np.arange(len(interval)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    step, start = ((hi - lo) / pieces)[interval], lo[interval]
    a = k * step + start
    b = np.where(k + 1 == pieces[interval], hi[interval], (k + 1) * step + start)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes, weights = _gauss_nodes(order)
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


def total_photon_norm(params: SystemParams, t: float) -> float:
    """P_e(t) plus the photon probability integrated over both directions.

    Unitarity demands this equals 1 at every time.  Both directions share
    8-point Gauss-Legendre panels of at most 0.5 in emission time on the
    intervals of `_smooth_breaks`, and one series call gives them and P_e(t).

    Raises:
        ValueError: Unless 0 < t < inf, or if the quadrature would take more
            than 2**15 panels: past t 8192 - tau / 4 while tau <= 2t, and past
            t 8192 beyond.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    lo, hi = _smooth_breaks(params, t)
    panels = (t + hi[-1]) / _PANEL_LEN  # both directions, before any node is placed
    if not panels <= _MAX_PANELS:
        raise ValueError(f"the quadrature must take at most {_MAX_PANELS} panels, got "
                         f"{panels:.6g} for t = {t} and emission times up to {hi[-1]:.6g}")
    s, weights = _gauss_panels(lo, hi, _GAUSS_ORDER, _PANEL_LEN)
    s = np.append(s, t)  # the emitter's own amplitude, for P_e(t)
    left, right, excited = _amplitudes(params, s, [
        _components(params, s - t, s, Direction.LEFT),
        _components(params, t - s, s, Direction.RIGHT),
        [(np.arange(s.size) == s.size - 1, 0.0, 1.0)]])
    density = np.abs(left[:-1]) ** 2 + np.abs(right[:-1]) ** 2
    # fsum, not a BLAS dot: the same last bits at any thread count
    return float(abs(excited[-1]) ** 2 + math.fsum(weights * density))
