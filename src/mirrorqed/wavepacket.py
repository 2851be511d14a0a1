"""Spatial and spectral profiles of the emitted single-photon wave packet.

Once the emitter has released its excitation, the field holds one photon
distributed over four kinematic components: the part emitted directly to the
left of the emitter, the part reflected off the mirror (which interferes with
the direct part once it passes the emitter), the right-moving part still
between emitter and mirror, and the part transmitted through the mirror.
Each component is the emitter amplitude at its retarded emission time,
weighted by 1, r_m or t_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Direction, SystemParams
from .analytic import excitation_probability_exact, round_trip_series

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
    and x < 0 or x > c t for right-movers.
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
    """

    frequencies: np.ndarray
    spectral_density: np.ndarray
    amplitudes: np.ndarray
    t_final: float
    sample_count: int
    spacing: float
    omega_e: float


def _components(params: SystemParams, x: np.ndarray, direction: Direction, t: float):
    """Region table of the field at positions x: yields (support, amplitude on it).

    Each row is (support mask, emission time s, weight), and the component
    carries -i (g/c) weight exp(-i Omega s) f(s): the emitter amplitude at
    the retarded emission time s.  Left-movers are the direct part (weight 1)
    and the part reflected one round trip later (r_m).  Right-movers share
    one emission time, so they form one row whose weight is 1 before the
    mirror and t_m behind it.  The supported emission times of all rows go
    through one series evaluation, so one residue plan serves every row.
    Boundary points use the convention Theta(0) = 1, except that the mirror
    position x = d/2 belongs to the transmitted region for right-movers and
    to the reflected region for left-movers (no double counting).
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    half_d = params.tau / 2.0  # emitter-mirror distance, c = 1
    if direction is Direction.LEFT:
        s = x + t
        rows = [
            ((x <= 0) & (s >= 0), s, 1.0),
            ((x <= half_d) & (s >= params.tau), s - params.tau, params.r_m),
        ]
    else:
        s = t - x
        rows = [((x >= 0) & (s >= 0), s, np.where(x >= half_d, params.t_m, 1.0))]
    series = round_trip_series(params, np.concatenate([s[support] for support, s, _ in rows]))
    pre = -1j * params.coupling
    start = 0
    for support, _, weight in rows:
        count = np.count_nonzero(support)
        if count:
            weight = weight[support] if np.ndim(weight) else weight
            yield support, pre * weight * series[start : start + count]
        start += count


def field_amplitude(params: SystemParams, x, direction: Direction, t: float):
    """Total single-photon amplitude at position(s) x for one direction.

    Vectorized over x; returns 0 outside the light cone and outside each
    component's support.
    """
    x_in = np.asarray(x, dtype=float)
    x_arr = np.atleast_1d(x_in)
    amp = np.zeros(x_arr.shape, dtype=complex)
    for support, values in _components(params, x_arr, direction, t):
        amp[support] += values
    return amp if x_in.ndim else complex(amp[0])


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
    params: SystemParams,
    t: float,
    positions=None,
    direction: Direction = Direction.LEFT,
) -> SpatialProfile:
    """Sample the wave packet on a position grid (default: left of the emitter)."""
    if positions is None:
        positions = np.linspace(-t, 0.0, 4001, endpoint=False)
    positions = np.asarray(positions, dtype=float)
    amplitudes = field_amplitude(params, positions, direction, t)
    emitted = positions + t if direction is Direction.LEFT else t - positions
    outside = (emitted < 0) | ((direction is Direction.RIGHT) & (positions < 0))
    if params.tau > 0:
        region = np.floor(emitted / params.tau).astype(int)
    else:
        region = np.zeros(positions.shape, dtype=int)
    region = np.where(outside, -1, region)
    return SpatialProfile(
        positions=positions,
        amplitudes=amplitudes,
        density=np.abs(amplitudes) ** 2,
        direction=direction,
        region_index=region,
        time=t,
    )


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------


def spectrum(
    params: SystemParams,
    t_final: float = 40.0,
    sample_count: int = 2**14,
    allow_undecayed: bool = False,
) -> Spectrum:
    """Spectral probability density of the photon emitted to the left.

    Phi_L(x, t_final) is sampled uniformly on x in [-c t_final, 0), read as a
    function of the time variable x/c, and Fourier transformed; the squared
    magnitudes on the conjugate frequency grid give the spectrum, normalized
    to unit peak.  No window is applied: by the decay precondition the signal
    is negligible at the window edge.

    Raises:
        EmitterNotDecayed: If P_e(t_final) > 1e-6, unless `allow_undecayed`
            is set (trapping regimes never decay; their spectrum covers only
            the emitted part of the excitation).
    """
    if sample_count < 2 or sample_count & (sample_count - 1):
        raise ValueError(f"sample_count must be a power of two, got {sample_count}")
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    residual = excitation_probability_exact(params, t_final)
    if residual > _DECAYED_THRESHOLD and not allow_undecayed:
        raise EmitterNotDecayed(
            f"P_e(t_final) = {residual:.3g} > {_DECAYED_THRESHOLD}; enlarge t_final "
            "or pass allow_undecayed for trapping regimes"
        )
    spacing = t_final / sample_count  # in the time variable x/c
    x_grid = -t_final + spacing * np.arange(sample_count)
    samples = field_amplitude(params, x_grid, Direction.LEFT, t_final)
    # exp(+i omega x/c) convention so the line sits at +omega_e; the constant
    # phase exp(-i omega t_final) drops out of the magnitudes
    amplitudes = np.fft.fftshift(np.fft.ifft(samples)) * math.sqrt(sample_count)
    frequencies = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(sample_count, d=spacing))
    density = np.abs(amplitudes) ** 2
    peak = density.max()
    if peak > 0:
        density = density / peak
    return Spectrum(
        frequencies=frequencies,
        spectral_density=density,
        amplitudes=amplitudes,
        t_final=t_final,
        sample_count=sample_count,
        spacing=spacing,
        omega_e=params.omega_e,
    )


# ---------------------------------------------------------------------------
# Norm bookkeeping
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _smooth_breaks(params: SystemParams, t: float, direction: Direction) -> np.ndarray:
    """Breakpoints between which the density is smooth (lattice kinks, fronts)."""
    half_d = params.tau / 2.0
    # k = 1.. past the last lattice kink inside [lo, hi] in either direction
    count = math.ceil(t / params.tau) + 1 if 0 < params.tau < math.inf else 0
    lattice = np.arange(1, count + 1) * params.tau
    if direction is Direction.LEFT:
        lo, hi = -t, half_d
        points = np.concatenate([(lo, 0.0, hi), lattice - t])  # kinks of u = x + t
    else:
        lo, hi = 0.0, t
        points = np.concatenate([(lo, hi, half_d), t - lattice])  # kinks of v = t - x
    points = np.unique(points)
    return points[(lo <= points) & (points <= hi)]


def _gauss_panels(breaks: np.ndarray, order: int, max_len: float):
    """Nodes and weights of Gauss-Legendre panels of at most max_len between breaks.

    Each interval [lo, hi] is cut into ceil((hi - lo) / max_len) equal pieces
    with np.linspace's arithmetic: edge k is k * step + lo, and the last one
    is hi itself.
    """
    lo, hi = breaks[:-1], breaks[1:]
    pieces = np.maximum(1, np.ceil((hi - lo) / max_len)).astype(int)
    interval = np.repeat(np.arange(len(pieces)), pieces)
    k = np.arange(len(interval)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    step, start = ((hi - lo) / pieces)[interval], lo[interval]
    a = k * step + start
    b = np.where(k + 1 == pieces[interval], hi[interval], (k + 1) * step + start)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes, weights = _gauss_nodes(order)
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


def _integrate_density(
    params: SystemParams, t: float, direction: Direction, order: int, max_len: float
) -> float:
    breaks = _smooth_breaks(params, t, direction)
    if len(breaks) < 2:
        return 0.0
    xs, ws = _gauss_panels(breaks, order, max_len)
    dens = photon_density(params, xs, direction, t)
    return float(np.dot(ws, dens))


def total_photon_norm(
    params: SystemParams, t: float, order: int = 32, max_len: float = 0.5
) -> float:
    """P_e(t) plus the photon probability integrated over both directions.

    Unitarity demands this equals 1 at every time.  The integrals use
    fixed-order Gauss-Legendre panels between the smoothness breakpoints of
    the density (round-trip lattice kinks, the fronts, and the mirror),
    every panel of one direction built in one array pass, and the density
    at all of that direction's nodes comes from one series evaluation.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    total = excitation_probability_exact(params, t)
    for direction in (Direction.LEFT, Direction.RIGHT):
        total += _integrate_density(params, t, direction, order, max_len)
    return total
